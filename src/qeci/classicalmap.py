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
    renormalized, so the table is a probability table by construction and is
    not checked. Rows and columns follow descending marginal eigenvalues.
    Both reduced densities are built as qeci_infer builds them, then each
    degenerate one warns; after qeci_infer on the same joint they come from
    the joint's memo, so nothing is decomposed again.
    """
    # stacklevel 3 names the line that called rotate_to_classical
    reduced_a, reduced_b = _reduced(rho_ab, ("A", "B"), 3)
    u = kron(reduced_a.eig.eigenvectors, reduced_b.eig.eigenvectors)
    rotated = dagger(u) @ rho_ab.mat @ u
    diag = np.maximum(rotated.diagonal().real, 0.0)
    table = diag.reshape(rho_ab.dims) / np.add.reduce(diag)
    table.setflags(write=False)
    return JointDistribution(table=table)
