import math
import warnings

import numpy as np
import pytest

from qeci import classicalmap
from qeci.causal import DegeneracyWarning, Direction, JointDistribution, classical_eci
from qeci.channels import ChannelSpec, bitflip_entangled, depolarizing_mixture
from qeci.classicalmap import diag_embed, rotate_to_classical
from qeci.coupling import _probability_rows
from qeci.density import spin_singlet, validate_density
from qeci.linalg import _umath_linalg, partial_trace

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_diag_embed_worked_table():
    joint = JointDistribution.from_table([[1 / 16, 3 / 16], [5 / 16, 7 / 16]])
    rho = diag_embed(joint)
    assert np.allclose(rho.mat, np.diag([1 / 16, 3 / 16, 5 / 16, 7 / 16]))
    assert rho.dims == (2, 2)


def test_diag_embed_point_mass():
    rho = diag_embed(JointDistribution.from_table([[1.0, 0.0], [0.0, 0.0]]))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho.mat, expected)


def test_diag_embed_marginals_are_row_sums():
    rng = np.random.default_rng(61)
    table = rng.dirichlet(np.ones(6)).reshape(2, 3)
    rho = diag_embed(JointDistribution.from_table(table))
    assert np.allclose(
        partial_trace(rho.mat, 2, 3, "B"), np.diag(table.sum(axis=1)), atol=1e-12
    )
    assert np.allclose(
        partial_trace(rho.mat, 2, 3, "A"), np.diag(table.sum(axis=0)), atol=1e-12
    )


def _density_bytes(rho):
    eig = rho.eig
    return rho.mat.tobytes(), rho.dims, eig.eigenvalues.tobytes(), eig.eigenvectors.tobytes()


def test_diag_embed_wraps_the_checked_table_as_validate_density_would(monkeypatch):
    # the table was checked when it was built, so diag_embed decomposes and
    # checks nothing, and still makes validate_density's density bit for bit
    rng = np.random.default_rng(63)
    tables = [rng.dirichlet(np.ones(m * n)).reshape(m, n) for m, n in [(2, 2), (2, 3), (3, 2)]]
    zeroed = rng.dirichlet(np.ones(16))
    zeroed[[3, 10]] = 0.0
    tables.append(zeroed.reshape(4, 4) / zeroed.sum())
    # a subnormal cell, which the Hermitian part halves to zero
    tables.append(np.array([[0.5, 5e-324], [0.25, 0.25]]))
    joints = [JointDistribution.from_table(t) for t in tables]
    expected = [
        _density_bytes(validate_density(np.diag(j.table.reshape(-1)), j.table.shape))
        for j in joints
    ]

    def unreachable(*args, **kwargs):
        raise AssertionError("diag_embed checked its table again")

    # absent from classicalmap once diag_embed stops importing it
    monkeypatch.setattr(classicalmap, "validate_density", unreachable, raising=False)
    monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", unreachable)
    monkeypatch.setattr(_umath_linalg, "eigh_lo", unreachable)
    embedded = [diag_embed(j) for j in joints]
    monkeypatch.undo()
    assert [_density_bytes(rho) for rho in embedded] == expected


def test_rotate_recovers_diagonal_table_up_to_marginal_order():
    table = np.array([[1 / 16, 3 / 16], [5 / 16, 7 / 16]])
    joint = JointDistribution.from_table(table)
    recovered = rotate_to_classical(diag_embed(joint)).table
    # rows/columns follow descending marginal eigenvalues: both get reversed
    assert np.allclose(recovered, table[::-1, ::-1], atol=1e-10)
    assert sorted(np.round(recovered.reshape(-1), 12)) == sorted(
        np.round(table.reshape(-1), 12)
    )


def test_rotate_output_is_valid_distribution():
    rng = np.random.default_rng(62)
    from _helpers import random_density

    for _ in range(10):
        rho = random_density(rng, (2, 2))
        table = rotate_to_classical(rho).table
        assert (table >= 0).all()
        assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_rotate_then_classical_eci_reverses_depolarizing_direction():
    for p in (0.2, 0.5, 0.9):
        rho = depolarizing_mixture(0.4, (0.6, 0.8), (INV_SQRT2, INV_SQRT2), p)
        verdict = classical_eci(rotate_to_classical(rho))
        assert verdict.direction is Direction.B_TO_A


def test_rotate_warns_on_degenerate_marginal():
    table = JointDistribution.from_table(np.full((2, 2), 0.25))
    with pytest.warns(DegeneracyWarning):
        rotate_to_classical(diag_embed(table))


def _ginibre(rng, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _rotated_corpus():
    """(label, joint) pairs: the 76 points of the paper's sweeps, Ginibre joints of
    every rank, degenerate joints, and joints a loose tol takes through the clamp."""
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    specs = [
        ChannelSpec("qsc", q=0.4),
        ChannelSpec("gqsc", q=0.4),
        ChannelSpec("bitflip"),
        ChannelSpec("depolarizing", q=0.4, gamma1=0.6, lambda1=0.8,
                    gamma2=INV_SQRT2, lambda2=INV_SQRT2),
    ]
    corpus = [(f"{spec.kind} p={p}", spec.joint(p)) for spec in specs for p in grid]
    rng = np.random.default_rng(64)
    dims_list = [(2, 2), (2, 4), (4, 2), (3, 3), (4, 4)]
    for dims in dims_list:
        d = math.prod(dims)
        for rank in range(1, d + 1):
            rho = validate_density(_ginibre(rng, d, rank), dims)
            corpus.append((f"ginibre {dims} rank {rank}", rho))
    uniform = JointDistribution.from_table(np.full((2, 3), 1 / 6))
    corpus += [
        ("singlet", spin_singlet()),
        ("bitflip p=0.2", bitflip_entangled(0.2)),
        ("maximally mixed", validate_density(np.eye(9) / 9, (3, 3))),
        ("uniform table embedded", diag_embed(uniform)),
    ]
    for dims in dims_list:
        d = math.prod(dims)
        for rank in (1, 2):
            noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = _ginibre(rng, d, rank) + 1e-7 * (noise + noise.conj().T)
            m = m / np.trace(m).real
            assert np.linalg.eigvalsh(m)[0] < 0.0  # validated only through the clamp
            corpus.append((f"clamped {dims} rank {rank}", validate_density(m, dims, tol=1e-3)))
    return corpus


def test_every_rotated_table_passes_the_check_it_skips_unchanged():
    # rotate_to_classical keeps its clamped, renormalized table unchecked
    # (JointDistribution._trusted): over this corpus the probability check
    # accepts each table and returns it byte for byte
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        corpus = _rotated_corpus()
        tables = [(label, rotate_to_classical(rho).table) for label, rho in corpus]
    assert len(corpus) == 76 + 45 + 4 + 10
    for label, table in tables:
        checked = _probability_rows(table.reshape(1, -1), "joint table", "joint table", ValueError)
        assert checked.reshape(table.shape).tobytes() == table.tobytes(), label
        assert table.dtype == float and table.flags.c_contiguous, label
        assert not table.flags.writeable, label
