"""Bridges between joint probability tables and joint density matrices."""

from __future__ import annotations

import warnings

import numpy as np

from .causal import DEGENERACY_GAP, DegeneracyWarning, JointDistribution
from .density import DensityMatrix, validate_density
from .linalg import DimensionMismatch, dagger, hermitian_eig, kron, partial_trace


def diag_embed(joint: JointDistribution) -> DensityMatrix:
    """Embed an m-by-n joint table as the diagonal of an (mn)-dim density.

    Entry (i, j) lands at diagonal slot i*n + j, so the subsystems inherit
    the table's row/column marginals as their reduced densities.
    """
    table = joint.table
    m, n = table.shape
    return validate_density(np.diag(table.reshape(-1)).astype(complex), (m, n))


def rotate_to_classical(rho_ab: DensityMatrix) -> JointDistribution:
    """Read a joint table off a joint density rotated into its marginal eigenbases.

    Conjugates by the tensor product of the reduced densities' eigenvector
    matrices and takes the real diagonal, clamped to nonnegative and
    renormalized. Rows and columns follow descending marginal eigenvalues.
    """
    if len(rho_ab.dims) != 2:
        raise DimensionMismatch(f"need a bipartite density, got dims {rho_ab.dims}")
    dim_a, dim_b = rho_ab.dims
    eig_a = hermitian_eig(partial_trace(rho_ab.mat, dim_a, dim_b, "B"))
    eig_b = hermitian_eig(partial_trace(rho_ab.mat, dim_a, dim_b, "A"))
    for eig, label in ((eig_a, "A"), (eig_b, "B")):
        gaps = np.diff(np.sort(eig.eigenvalues))
        if gaps.size and (gaps < DEGENERACY_GAP).any():
            warnings.warn(
                f"reduced density of side {label} has near-degenerate eigenvalues; "
                "the rotated table is not unique",
                DegeneracyWarning,
                stacklevel=2,
            )
    u = kron(eig_a.eigenvectors, eig_b.eigenvectors)
    rotated = dagger(u) @ rho_ab.mat @ u
    diag = np.clip(np.diag(rotated).real, 0.0, None)
    table = diag.reshape(dim_a, dim_b)
    return JointDistribution.from_table(table / table.sum())
