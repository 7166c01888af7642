import math

import numpy as np
import pytest

from qeci import classicalmap
from qeci.causal import DegeneracyWarning, Direction, JointDistribution, classical_eci
from qeci.channels import depolarizing_mixture
from qeci.classicalmap import diag_embed, rotate_to_classical
from qeci.density import validate_density
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
