"""Bridges between joint probability tables and joint density matrices."""

from __future__ import annotations

import numpy as np

from .causal import JointDistribution, _reduced, _warned
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
    renormalized, as the table that JointDistribution checks. Rows and
    columns follow descending marginal eigenvalues. Both reduced densities
    come from the record of a verdict pass (causal._Pass), as in qeci_infer,
    and each degenerate one warns; after qeci_infer on the same joint they
    come from the joint's memo, so nothing is decomposed again.
    """
    reduced_a, reduced_b = _warned(_reduced(rho_ab)).reduced.values()
    u = kron(reduced_a.eig.eigenvectors, reduced_b.eig.eigenvectors)
    rotated = dagger(u) @ rho_ab.mat @ u
    diag = np.maximum(rotated.diagonal().real, 0.0)
    return JointDistribution(table=diag.reshape(rho_ab.dims) / np.add.reduce(diag))
