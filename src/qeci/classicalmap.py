"""Bridges between joint probability tables and joint density matrices."""

from __future__ import annotations

import numpy as np

from .causal import JointDistribution, _reduced
from .density import DensityMatrix, validate_density
from .linalg import dagger, kron


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
    After qeci_infer on the same joint, both reduced densities come from the
    joint's memo, so nothing is decomposed again.
    """
    # stacklevel 3 names the line that called rotate_to_classical
    vectors_a = _reduced(rho_ab, "A", stacklevel=3).eig.eigenvectors
    vectors_b = _reduced(rho_ab, "B", stacklevel=3).eig.eigenvectors
    u = kron(vectors_a, vectors_b)
    rotated = dagger(u) @ rho_ab.mat @ u
    diag = np.maximum(rotated.diagonal().real, 0.0)
    table = diag.reshape(rho_ab.dims)
    return JointDistribution.from_table(table / np.add.reduce(table, axis=None))
