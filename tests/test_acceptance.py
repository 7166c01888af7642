"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from qeci.causal import (
    TIE_TOL,
    DegeneracyWarning,
    Direction,
    JointDistribution,
    classical_eci,
    qeci_infer,
)
from qeci.channels import (
    bitflip_entangled,
    depolarizing_component,
    depolarizing_mixture,
    qsc_computational,
    qsc_hadamard,
)
from qeci.classicalmap import diag_embed, rotate_to_classical
from qeci.cli import main
from qeci.coupling import MarginalSet, greedy_min_entropy_coupling, shannon_entropy
from qeci.density import instance_conditional, pure_state, spin_singlet, validate_density
from qeci.linalg import dagger, kron, partial_trace, swap_subsystems

from _helpers import (
    exact_min_entropy_2rows,
    random_density,
    random_nondegenerate_density,
    random_nondegenerate_table,
    random_unitary,
    x_plus,
    z_plus,
)

P_GRID = [round(0.05 * k, 2) for k in range(1, 20)]
INV_SQRT2 = 1.0 / math.sqrt(2.0)
FIG3_COMPONENTS = ((0.6, 0.8), (INV_SQRT2, INV_SQRT2))
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {title}")
        raise
    print(f"criterion {number:02d} PASS  {title}")


def test_criterion_01_worked_example_golden(capsys):
    with criterion(1, "worked-example golden values, demo trace, runtime < 10 ms"):
        verdict = qeci_infer(qsc_computational(0.4, 0.05))
        assert verdict.direction is Direction.A_TO_B
        assert abs(verdict.s_forward - 1.2573) <= 5e-4
        assert abs(verdict.s_backward - 1.4270) <= 5e-4
        assert abs(verdict.s_exo_fwd - 0.2864) <= 5e-5
        assert abs(verdict.s_exo_bwd - 0.4505) <= 5e-5
        assert abs(verdict.s_cause_fwd - 0.9710) <= 5e-5
        assert abs(verdict.s_cause_bwd - 0.9765) <= 5e-5

        assert main(["demo"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 25
        for i, line in enumerate(lines):
            assert line.startswith(f"step {i + 1:2d}:")
        expected_tokens = {
            1: ["0.4000", "0.6000"],
            2: ["0.4100", "0.5900"],
            3: ["0.3800", "0.0300", "0.0200", "0.5700"],
            4: ["0.4000", "0.6000"],
            7: ["0.3800", "0.0200", "0.0300", "0.5700"],
            8: ["0.9500", "0.0500"],
            10: ["0.0500, 0.9500"],
            12: ["0.2864"],
            13: ["0.9710", "0.2864", "1.2573"],
            17: ["0.3800", "0.0300", "0.0200", "0.5700"],
            18: ["0.9268", "0.0732", "0.0339", "0.9661"],
            20: ["0.0732, 0.9268", "0.0339, 0.9661"],
            22: ["0.4505"],
            23: ["0.9765", "0.4505", "1.4270"],
            24: ["1.2573", "1.4270"],
            25: ["A->B"],
        }
        for step, tokens in expected_tokens.items():
            for token in tokens:
                assert token in lines[step - 1], f"step {step} missing {token!r}"

        rho = qsc_computational(0.4, 0.05)
        qeci_infer(rho)  # warm up
        best = min(_timed(qeci_infer, rho) for _ in range(5))
        assert best < 0.010, f"inference took {best * 1e3:.2f} ms"


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_02_epr_consistency():
    with criterion(2, "singlet conditioning reproduces the EPR correlations"):
        singlet = spin_singlet()
        cond_z = instance_conditional(singlet, z_plus(), "second")
        assert np.abs(cond_z.mat - np.array([[0, 0], [0, 1]])).max() <= 1e-10
        cond_x = instance_conditional(singlet, x_plus(), "second")
        assert np.abs(np.diag(cond_x.mat).real - 0.5).max() <= 1e-10


def test_criterion_03_hadamard_channel_sweep():
    with criterion(3, "Hadamard-basis channel sweep: forward wins off p=0.5, tie at 0.5"):
        t0 = time.perf_counter()
        verdicts = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            for p in P_GRID:
                verdicts[p] = qeci_infer(qsc_hadamard(0.4, p))
        elapsed = time.perf_counter() - t0
        for p, v in verdicts.items():
            if p == 0.5:
                assert abs(v.s_forward - v.s_backward) < 1e-6
                assert abs(v.s_forward - 1.97) <= 0.02
                assert abs(v.s_backward - 1.97) <= 0.02
            else:
                assert v.s_forward < v.s_backward, f"not forward at p={p}"
        assert elapsed < 1.0, f"sweep took {elapsed:.3f} s"


def _fig3_joint(p):
    return depolarizing_mixture(0.4, FIG3_COMPONENTS[0], FIG3_COMPONENTS[1], p)


# depolarizing_component weights the Pauli images of qubit B by
# (1 - p, p/3, p/3, p/3). The weights are all 1/4 when 1 - p = p/3, that is at
# p = 3/4, where qubit B is fully twirled and every swept joint is rho_A (x) I/2.
# A product state scores the same in both directions, so there the verdict is a
# tie, as criterion 03's is at p = 0.5.
PRODUCT_POINT = 0.75
PRODUCT_TOL = 1e-12


def _assert_product_state(rho):
    dim_a, dim_b = rho.dims
    rho_a = partial_trace(rho.mat, dim_a, dim_b, "B")
    rho_b = partial_trace(rho.mat, dim_a, dim_b, "A")
    gap = np.abs(rho.mat - kron(rho_a, rho_b)).max()
    assert gap <= PRODUCT_TOL, f"max |rho - rho_A x rho_B| = {gap:.3e}"


def test_criterion_04_depolarizing_sweep_delta_positive():
    with criterion(
        4,
        "depolarizing sweep: s_backward - s_forward > 0 off the product point, "
        "tie at p = 3/4",
    ):
        t0 = time.perf_counter()
        verdicts = {}
        for p in P_GRID:
            if p == PRODUCT_POINT:
                with pytest.warns(DegeneracyWarning, match="side B"):
                    verdicts[p] = qeci_infer(_fig3_joint(p))
            else:
                verdicts[p] = qeci_infer(_fig3_joint(p))
        elapsed = time.perf_counter() - t0
        for p, v in verdicts.items():
            delta = v.s_backward - v.s_forward
            if p == PRODUCT_POINT:
                _assert_product_state(_fig3_joint(p))
                assert v.direction is Direction.TIE, f"{v.direction.value} at p={p}"
                assert abs(delta) <= TIE_TOL, f"delta = {delta!r} at p={p}"
            else:
                assert delta > 0, f"delta = {delta!r} at p={p}"
        assert elapsed < 1.0, f"sweep took {elapsed:.3f} s"


def test_criterion_05_classical_counterexample():
    with criterion(
        5,
        "rotated depolarizing joints: classical verdict is BtoA off the product "
        "point, Tie at p = 3/4",
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            wrong = {}
            for p in P_GRID:
                joint = _fig3_joint(p)
                verdict = classical_eci(rotate_to_classical(joint))
                if p == PRODUCT_POINT:
                    _assert_product_state(joint)
                    delta = verdict.s_backward - verdict.s_forward
                    assert verdict.direction is Direction.TIE, verdict.direction.value
                    assert abs(delta) <= TIE_TOL, f"delta = {delta!r} at p={p}"
                elif verdict.direction is not Direction.B_TO_A:
                    wrong[p] = verdict.direction.value
        assert not wrong, f"expected BtoA off p={PRODUCT_POINT}, got {wrong}"


def test_criterion_06_structural_equation_forms():
    with criterion(6, "bit-flip conditionals equal both structural-equation forms"):
        for p in (0.1, 0.3, 0.7):
            rho = bitflip_entangled(p)
            exo = 0.5 * np.diag([1 - p, p, p, 1 - p]).astype(complex)
            for a in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
                cond = instance_conditional(rho, pure_state(a), "first")
                flipped = SIGMA_X @ a
                closed = (1 - p) * np.outer(a, a.conj()) + p * np.outer(
                    flipped, flipped.conj()
                )
                assert np.abs(cond.mat - closed).max() <= 1e-9
                m = kron(a.conj()[None, :], np.eye(2, dtype=complex))
                assert np.abs(cond.mat - 2.0 * m @ exo @ dagger(m)).max() <= 1e-9


def test_criterion_07_coupling_oracle_bounds():
    with criterion(7, "greedy coupling vs the exact two-row minimum on 200 random pairs"):
        rng = np.random.default_rng(1007)
        for _ in range(200):
            p = rng.dirichlet(np.ones(2))
            q = rng.dirichlet(np.ones(2))
            greedy = greedy_min_entropy_coupling(
                MarginalSet.from_rows([p, q])
            ).entropy_bits
            exact = exact_min_entropy_2rows(p, q)
            assert greedy <= exact + 1.0 + 1e-6
            assert greedy >= max(shannon_entropy(p), shannon_entropy(q)) - 1e-9
        for _ in range(20):
            row = rng.dirichlet(np.ones(3))
            greedy = greedy_min_entropy_coupling(
                MarginalSet.from_rows([row, row])
            ).entropy_bits
            assert abs(greedy - shannon_entropy(row)) <= 1e-12


def test_criterion_08_classical_reduction():
    with criterion(8, "classical ECI agrees with the diagonal quantum embedding"):
        rng = np.random.default_rng(1008)
        for shape in ((2, 2), (3, 3)):
            for _ in range(50):
                table = random_nondegenerate_table(rng, shape)
                joint = JointDistribution.from_table(table)
                cv = classical_eci(joint)
                qv = qeci_infer(diag_embed(joint))
                for field in ("s_cause_fwd", "s_exo_fwd", "s_cause_bwd", "s_exo_bwd"):
                    assert abs(getattr(cv, field) - getattr(qv, field)) <= 1e-9
                assert cv.direction is qv.direction


def test_criterion_09_rotational_invariance():
    with criterion(9, "verdict entropies invariant under local unitaries"):
        rng = np.random.default_rng(1009)
        cases = [(2, 2)] * 30 + [(2, 3)] * 20
        for dims in cases:
            rho = random_nondegenerate_density(rng, dims)
            u = random_unitary(rng, dims[0])
            v = random_unitary(rng, dims[1])
            local = kron(u, v)
            rotated = validate_density(local @ rho.mat @ dagger(local), dims)
            base = qeci_infer(rho)
            moved = qeci_infer(rotated)
            for field in ("s_cause_fwd", "s_exo_fwd", "s_cause_bwd", "s_exo_bwd"):
                assert abs(getattr(base, field) - getattr(moved, field)) <= 1e-6


def test_criterion_10_invariant_fuzz():
    with criterion(10, "generator and conditioning outputs stay valid densities"):
        grid = [round(0.1 * k, 1) for k in range(11)]
        pairs = ((1.0, 0.0), (0.6, 0.8), (INV_SQRT2, INV_SQRT2), (0.0, 1.0))
        for q in grid:
            for p in grid:
                validate_density(qsc_computational(q, p).mat, (2, 2), 1e-9)
                validate_density(qsc_hadamard(q, p).mat, (2, 2), 1e-9)
                for c1 in pairs:
                    validate_density(
                        depolarizing_component(c1[0], c1[1], p).mat, (2, 2), 1e-9
                    )
                validate_density(
                    depolarizing_mixture(q, pairs[1], pairs[2], p).mat, (2, 2), 1e-9
                )
        for p in grid:
            validate_density(bitflip_entangled(p).mat, (2, 2), 1e-9)

        rng = np.random.default_rng(1010)
        for _ in range(50):
            dims = (2, 2) if rng.random() < 0.5 else (2, 3)
            rho = random_density(rng, dims)
            side = "first" if rng.random() < 0.5 else "second"
            dim = dims[0] if side == "first" else dims[1]
            raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            ket = pure_state(raw / np.linalg.norm(raw))
            cond = instance_conditional(rho, ket, side)
            validate_density(cond.mat, cond.dims, 1e-9)

        for _ in range(25):
            da, db = (2, 3) if rng.random() < 0.5 else (3, 3)
            g = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(
                size=(da * db, da * db)
            )
            h = g @ g.conj().T
            h /= np.trace(h).real
            assert (
                abs(np.trace(partial_trace(h, da, db, "B")) - np.trace(h)) <= 1e-12
            )
            assert (
                abs(np.trace(partial_trace(h, da, db, "A")) - np.trace(h)) <= 1e-12
            )
            assert np.array_equal(
                swap_subsystems(swap_subsystems(h, da, db), db, da), h
            )
