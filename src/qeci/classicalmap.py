"""Bridges between joint probability tables and joint density matrices."""

from __future__ import annotations

import numpy as np

from .causal import JointDistribution, _Pass, _reduced, _warned
from .density import DensityMatrix, _wrap
from .linalg import _hermitian_part, dagger, kron


def diag_embed(joint: JointDistribution) -> DensityMatrix:
    """Embed an m-by-n joint table as the diagonal of an (mn)-dim density.

    Entry (i, j) lands at diagonal slot i*n + j, so the subsystems inherit
    the table's row/column marginals as their reduced densities. The table was
    checked when built, so its entries bound the spectrum below by zero: the
    diagonal is wrapped as validate_density wraps it, with no check and no
    decomposition.
    """
    diagonal = np.diag(joint.table.reshape(-1)).astype(complex)
    return _wrap(_hermitian_part(diagonal), joint.table.shape, least=0.0)


def rotate_to_classical(rho_ab: DensityMatrix) -> JointDistribution:
    """Read a joint table off a joint density rotated into its marginal eigenbases.

    Conjugates by the tensor product of the reduced densities' eigenvector
    matrices and takes the real diagonal, clamped to nonnegative and
    renormalized, as the table, which is kept unchecked (see _rotated). Rows and
    columns follow descending marginal eigenvalues. The reduced densities come
    from a verdict pass (causal._Pass) whose degenerate sides warn first, as in
    qeci_infer, and after qeci_infer on the same joint from the joint's memo.
    """
    return _rotated(_warned(_reduced(rho_ab)))


def _rotated(run: _Pass) -> JointDistribution:
    """The table of rotate_to_classical, read off ``run``, a pass over sides ("A", "B").

    The rotated diagonal of a validated joint is finite and sums to one within rounding;
    clamped at zero and divided by its own total, it is a probability table by
    construction, so it is kept unchecked (JointDistribution._trusted)."""
    reduced_a, reduced_b = run.reduced.values()
    u = kron(reduced_a.eig.eigenvectors, reduced_b.eig.eigenvectors)
    rotated = dagger(u) @ run.rho_ab.mat @ u
    diag = np.maximum(rotated.diagonal().real, 0.0)
    return JointDistribution._trusted(diag.reshape(run.rho_ab.dims) / np.add.reduce(diag))
