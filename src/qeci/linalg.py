"""Dense complex linear algebra for small composite quantum systems.

Products, partial traces and subsystem swaps are numpy index operations; the
Hermitian eigendecomposition is LAPACK's ``eigh`` reached through numpy, with
input checks and a fixed output order and gauge on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NotHermitian(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class EigenConvergenceError(RuntimeError):
    """LAPACK's Hermitian eigensolver failed to converge (a numeric failure)."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` is real and sorted in non-increasing order; column i of
    ``eigenvectors`` is the orthonormal eigenvector paired with eigenvalue i.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_finite(a: np.ndarray, name: str = "matrix") -> None:
    """Reject NaN/Inf entries before they poison downstream arithmetic."""
    if not np.isfinite(np.asarray(a)).all():
        raise ValueError(f"{name} contains non-finite entries")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor on the coarse (row-major) index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hermitian_eig(a: np.ndarray, herm_tol: float = 1e-9) -> EigenDecomposition:
    """Eigendecompose a complex Hermitian matrix with LAPACK's ``eigh``.

    The input must be square, finite and Hermitian within ``herm_tol`` times
    its Frobenius norm; the (sub-tolerance) anti-Hermitian part is averaged
    out before the decomposition.

    Returns eigenvalues sorted descending. Each eigenvector is rephased so its
    largest-magnitude component is real and positive, which pins the gauge
    for non-degenerate spectra. Raises EigenConvergenceError when LAPACK
    reports that the decomposition did not converge.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    require_finite(a)
    adjoint = a.conj().T
    residual = np.linalg.norm(a - adjoint)
    # the bound is herm_tol * max(norm(a), 1); norm(a), which overflows on huge
    # entries, matters only once the residual exceeds herm_tol
    if residual > herm_tol and residual > herm_tol * np.linalg.norm(a):
        raise NotHermitian(f"hermiticity residual {residual:.3e} exceeds {herm_tol:.1e} * norm")
    try:
        # halving before adding cannot overflow and gives 0.5 * (a + adjoint) exactly
        values, vectors = np.linalg.eigh(0.5 * a + 0.5 * adjoint)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    values = values[::-1].copy()
    vectors = vectors[:, ::-1]
    if vectors.size:
        pivots = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
        vectors = vectors * (pivots.conj() / np.abs(pivots))
    return EigenDecomposition(eigenvalues=values, eigenvectors=np.ascontiguousarray(vectors))


def partial_trace(rho: np.ndarray, dim_a: int, dim_b: int, traced_side: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite matrix on C^dim_a (x) C^dim_b.

    ``traced_side`` is "A" or "B"; the result lives on the remaining factor.
    """
    rho = np.asarray(rho, dtype=complex)
    d = dim_a * dim_b
    if rho.shape != (d, d):
        raise DimensionMismatch(
            f"matrix shape {rho.shape} incompatible with subsystem dims ({dim_a}, {dim_b})"
        )
    r = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    if traced_side == "B":
        return np.einsum("ikjk->ij", r)
    if traced_side == "A":
        return np.einsum("ikil->kl", r)
    raise ValueError(f"traced_side must be 'A' or 'B', got {traced_side!r}")


def swap_subsystems(rho_ab: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Reorder a bipartite matrix from A(x)B to B(x)A index convention.

    Pure index permutation, hence an exact involution.
    """
    rho_ab = np.asarray(rho_ab, dtype=complex)
    d = dim_a * dim_b
    if rho_ab.shape != (d, d):
        raise DimensionMismatch(
            f"matrix shape {rho_ab.shape} incompatible with subsystem dims ({dim_a}, {dim_b})"
        )
    r = rho_ab.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.ascontiguousarray(r.transpose(1, 0, 3, 2)).reshape(d, d)
