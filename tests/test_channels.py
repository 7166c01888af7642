import math
import warnings

import numpy as np
import pytest

from qeci.causal import DegeneracyWarning, Direction, qeci_infer
from qeci.channels import (
    ChannelSpec,
    bitflip_entangled,
    depolarizing_component,
    depolarizing_mixture,
    qsc_computational,
    qsc_hadamard,
)
from qeci.density import validate_density, von_neumann_entropy
from qeci.linalg import hermitian_eig, partial_trace

from _helpers import (
    reference_depolarizing_component,
    reference_depolarizing_mixture,
    reference_qsc_hadamard,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_qsc_computational_worked_matrix():
    rho = qsc_computational(0.4, 0.05)
    assert np.allclose(rho.mat, np.diag([0.38, 0.02, 0.03, 0.57]))
    assert rho.dims == (2, 2)


def test_qsc_computational_noiseless_is_perfectly_correlated():
    rho = qsc_computational(0.3, 0.0)
    assert np.allclose(rho.mat, np.diag([0.3, 0.0, 0.0, 0.7]))


def test_qsc_computational_full_mixing():
    rho = qsc_computational(0.5, 0.5)
    assert np.allclose(rho.mat, 0.25 * np.eye(4))


def test_qsc_computational_exact_marginals():
    q, p = 0.35, 0.2
    rho = qsc_computational(q, p)
    assert np.allclose(partial_trace(rho.mat, 2, 2, "B"), np.diag([q, 1 - q]))
    mixed = q * (1 - p) + (1 - q) * p
    assert np.allclose(partial_trace(rho.mat, 2, 2, "A"), np.diag([mixed, 1 - mixed]))


def test_qsc_rejects_out_of_range():
    with pytest.raises(ValueError):
        qsc_computational(1.2, 0.5)
    with pytest.raises(ValueError):
        qsc_computational(0.5, -0.1)


@pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 0.8, 1.0])
def test_qsc_hadamard_cause_spectrum_independent_of_noise(p):
    rho = qsc_hadamard(0.4, p)
    values = hermitian_eig(partial_trace(rho.mat, 2, 2, "B")).eigenvalues
    assert np.allclose(values, [0.6, 0.4], atol=1e-12)


def test_qsc_hadamard_tie_at_half():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        verdict = qeci_infer(qsc_hadamard(0.4, 0.5))
    assert verdict.direction is Direction.TIE
    assert verdict.s_forward == pytest.approx(1.97, abs=0.02)


def test_qsc_hadamard_noiseless_coupling_entropy_vanishes():
    verdict = qeci_infer(qsc_hadamard(0.4, 0.0))
    assert verdict.s_exo_fwd == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("p", [round(0.1 * k, 2) for k in range(1, 10) if k != 5])
def test_qsc_hadamard_forward_verdict_off_symmetry(p):
    verdict = qeci_infer(qsc_hadamard(0.4, p))
    assert verdict.direction is Direction.A_TO_B


def test_depolarizing_component_pure_at_zero_noise():
    rho = depolarizing_component(0.6, 0.8, 0.0)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)


def test_depolarizing_component_lambda_zero_pattern():
    # with lambda=0 the source ket is |00>; the noise images reduce to
    # |00>, |00>, |01>, |01> patterns
    p = 0.3
    rho = depolarizing_component(1.0, 0.0, p)
    expected = np.zeros((4, 4))
    expected[0, 0] = (1 - p) + p / 3.0
    expected[1, 1] = 2.0 * p / 3.0
    assert np.allclose(rho.mat, expected, atol=1e-12)
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)


def test_depolarizing_component_rejects_unnormalized_pair():
    with pytest.raises(ValueError):
        depolarizing_component(0.6, 0.9, 0.1)


def test_depolarizing_mixture_collapses_at_unit_weight():
    rho1 = depolarizing_mixture(1.0, (0.6, 0.8), (INV_SQRT2, INV_SQRT2), 0.2)
    rho2 = depolarizing_component(0.6, 0.8, 0.2)
    assert np.allclose(rho1.mat, rho2.mat)


def test_depolarizing_mixture_forward_delta_positive_on_grid():
    for p in (0.1, 0.3, 0.6, 0.9):
        verdict = qeci_infer(
            depolarizing_mixture(0.4, (0.6, 0.8), (INV_SQRT2, INV_SQRT2), p)
        )
        assert verdict.s_backward - verdict.s_forward > 0


@pytest.mark.parametrize("p", [k / 20 for k in range(21)])
def test_channel_joints_match_per_ket_reference(p):
    amplitudes = ((0.6, 0.8), (INV_SQRT2, INV_SQRT2))
    pairs = [
        (qsc_hadamard(0.4, p), reference_qsc_hadamard(0.4, p)),
        (depolarizing_component(0.6, 0.8, p), reference_depolarizing_component(0.6, 0.8, p)),
        (depolarizing_component(INV_SQRT2, INV_SQRT2, p),
         reference_depolarizing_component(INV_SQRT2, INV_SQRT2, p)),
        (depolarizing_mixture(0.4, *amplitudes, p),
         reference_depolarizing_mixture(0.4, *amplitudes, p)),
    ]
    for rho, reference in pairs:
        assert np.abs(rho.mat - reference).max() <= 1e-15


def test_bitflip_entangled_noiseless():
    rho = bitflip_entangled(0.0)
    assert np.allclose(rho.mat, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_bitflip_entangled_conditional_matches_flip_mixture():
    from qeci.density import instance_conditional, z_plus

    p = 0.25
    cond = instance_conditional(bitflip_entangled(p), z_plus(), "first")
    assert np.allclose(cond.mat, np.diag([1 - p, p]), atol=1e-12)


def test_generators_pass_validation_on_parameter_grid():
    grid = [round(0.1 * k, 1) for k in range(11)]
    for q in grid:
        for p in grid:
            for rho in (
                qsc_computational(q, p),
                qsc_hadamard(q, p),
                depolarizing_mixture(q, (0.6, 0.8), (INV_SQRT2, INV_SQRT2), p),
            ):
                validate_density(rho.mat, rho.dims, 1e-9)
    for p in grid:
        rho = bitflip_entangled(p)
        validate_density(rho.mat, rho.dims, 1e-9)


def test_channel_spec_routing_and_validation():
    spec = ChannelSpec(kind="qsc", q=0.4)
    assert np.allclose(spec.joint(0.05).mat, qsc_computational(0.4, 0.05).mat)
    spec = ChannelSpec(
        kind="depolarizing", q=0.4, gamma1=0.6, lambda1=0.8, gamma2=INV_SQRT2, lambda2=INV_SQRT2
    )
    assert np.allclose(
        spec.joint(0.2).mat,
        depolarizing_mixture(0.4, (0.6, 0.8), (INV_SQRT2, INV_SQRT2), 0.2).mat,
    )
    with pytest.raises(ValueError):
        ChannelSpec(kind="nope")
    with pytest.raises(ValueError):
        ChannelSpec(kind="depolarizing", q=0.4)


@pytest.mark.parametrize("slot", ["gamma1", "lambda1", "gamma2", "lambda2"])
def test_nan_amplitude_is_rejected(slot):
    amplitudes = dict(gamma1=0.6, lambda1=0.8, gamma2=INV_SQRT2, lambda2=INV_SQRT2)
    amplitudes[slot] = math.nan
    with pytest.raises(ValueError, match="violate gamma"):
        ChannelSpec(kind="depolarizing", q=0.4, **amplitudes)
    pair = (amplitudes["gamma1"], amplitudes["lambda1"])
    if math.nan in pair:
        with pytest.raises(ValueError, match="violate gamma"):
            depolarizing_component(*pair, 0.1)


# |gamma^2 + lambda^2 - 1| = 9e-10, inside PAIR_NORM_TOL: each component has
# trace 1 + 1.8e-9, which the channel joint renormalizes instead of rejecting
EDGE_LAMBDA = 0.8000000005625


@pytest.mark.parametrize("p", [k / 40 for k in range(41)])
def test_amplitude_pair_at_the_tolerance_edge_is_normalized(p):
    edge = ChannelSpec("depolarizing", q=0.4, gamma1=0.6, lambda1=EDGE_LAMBDA,
                       gamma2=0.6, lambda2=EDGE_LAMBDA)
    exact = ChannelSpec("depolarizing", q=0.4, gamma1=0.6, lambda1=0.8, gamma2=0.6, lambda2=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        rho = edge.joint(p)
        got, want = qeci_infer(rho), qeci_infer(exact.joint(p))
    assert abs(np.trace(rho.mat) - 1.0) <= 1e-15
    for name in ("s_cause_fwd", "s_exo_fwd", "s_cause_bwd", "s_exo_bwd"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-8, name
