"""Dense complex linear algebra for small composite quantum systems.

Products, partial traces and subsystem swaps are numpy index operations; the
Hermitian eigendecomposition and the Cholesky certificate call the LAPACK
gufuncs behind numpy.linalg's own functions directly, with input checks and
a fixed output order and gauge on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

# The package's tolerances, each set here alone and read by name.
DEFAULT_TOL = 1e-9  # outside input is checked within it
PROB_FLOOR = 1e-12  # a probability or eigenvalue at most it is zero; down to -it, rounding
TRACE_ROUNDING = 1e-15  # a trace off one by at most it is kept as it is
TIE_TOL = 1e-9  # scores within it tie
DEGENERACY_GAP = 1e-8  # a spectrum with an eigenvalue gap below it is degenerate


def _require_tolerance(value: float, name: str, error: type[ValueError] = ValueError) -> None:
    """The rule for a tolerance argument ``name``: a finite number >= 0, else ``error``."""
    if not 0.0 <= value < math.inf:  # nan fails too
        raise error(f"{name} must be a finite number >= 0, got {value}")


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NotHermitian(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class EigenConvergenceError(RuntimeError):
    """LAPACK's Hermitian eigensolver failed to converge (a numeric failure)."""


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix, or of each of a stack.

    ``eigenvalues`` is real and sorted in non-increasing order; column i of
    ``eigenvectors`` is the orthonormal eigenvector paired with eigenvalue i.
    A stack (..., n, n) has eigenvalues (..., n) and eigenvectors (..., n, n).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _smallest(a: np.ndarray):
    """Smallest entry of a non-empty array as a Python scalar, nan if it holds a nan.

    One argmin and one read: ``a.min()`` reaches the same value through a
    Python wrapper and a ufunc reduce, whose set-up dominates on small arrays.
    """
    return a.item(a.argmin())


def _largest(a: np.ndarray):
    """Largest entry of a non-empty array as a Python scalar, nan if it holds a nan."""
    return a.item(a.argmax())


def require_finite(a: np.ndarray, name: str = "matrix") -> None:
    """Reject NaN/Inf entries before they poison downstream arithmetic."""
    finite = np.isfinite(np.asarray(a))
    if finite.size and not _smallest(finite):
        raise ValueError(f"{name} contains non-finite entries")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of vectors or matrices by one broadcast product, as np.kron."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if not (0 < a.ndim <= 2 and 0 < b.ndim <= 2):
        raise DimensionMismatch(f"kron takes vectors or matrices, got shapes {a.shape}, {b.shape}")
    (ra, ca), (rb, cb) = [x.shape if x.ndim == 2 else (1, x.shape[0]) for x in (a, b)]
    out = a.reshape(ra, 1, ca, 1) * b.reshape(1, rb, 1, cb)
    return out.reshape(-1) if a.ndim == b.ndim == 1 else out.reshape(ra * rb, ca * cb)


def _square(a: np.ndarray, stacked: bool = False) -> np.ndarray:
    """``a`` as a C-ordered complex array, once it is a square matrix.

    With ``stacked``, a stack of square matrices of shape (..., n, n), as
    numpy's linalg takes them, passes too.
    """
    a = np.asarray(a, dtype=complex, order="C")  # C order, so a.view(float) exists
    if a.ndim < 2 or (a.ndim > 2 and not stacked) or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """0.5 * (a + a^dagger) over the last two axes, halved first so it cannot overflow."""
    return 0.5 * a + 0.5 * a.conj().swapaxes(-1, -2)


def _lapack_eigh(a: np.ndarray, vectors: bool = True):
    """LAPACK's ``eigh``, or ``eigvalsh`` without ``vectors``, on a complex matrix or stack.

    Calls the gufuncs numpy.linalg.eigh and eigvalsh call, with their
    signature, so the output is theirs bit for bit without the wrappers'
    set-up on every call. A decomposition that fails comes back as nan, where
    the wrappers raise LinAlgError, and a nan eigenvalue (also from some
    |a_ij| that overflows) raises EigenConvergenceError. Without ``vectors``,
    ``a`` must be finite: eigvalsh of [[nan, 0], [0, 1]] is [0, -0], unseen.
    """
    with np.errstate(all="ignore"):  # a failure sets the invalid flag
        if vectors:
            out = _umath_linalg.eigh_lo(a, signature="D->dD")
        else:
            out = _umath_linalg.eigvalsh_lo(a, signature="D->d")
    values = out[0] if vectors else out
    if values.size and math.isnan(_smallest(values)):
        name = "eigh" if vectors else "eigvalsh"
        raise EigenConvergenceError(f"eigendecomposition did not converge: {name} returned nan")
    return out


def _positive_definite(h: np.ndarray, trace: complex) -> bool:
    """Whether LAPACK's Cholesky factorization of h - delta I certifies ``h`` positive definite.

    ``h`` is finite, n x n, Hermitian and of trace ``trace``; delta = 4 n^2 eps
    |trace|, eps = 2^-52. A factor that completes is exact for h - delta I + E,
    ||E||_2 <= (n + 2) eps tr h (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 10), so lambda_min(h) > 3 n^2 eps ||h||_2 for n >= 2, above
    eigvalsh's backward error: eigvalsh reads a positive least eigenvalue too
    (and a 1 x 1 ``h`` exactly). numpy.linalg.cholesky's gufunc gives nan on failure.
    """
    n = h.shape[-1]
    shifted = h.copy()
    shifted.reshape(-1)[:: n + 1] -= 4 * n * n * math.ulp(1.0) * abs(trace)  # the diagonal
    with np.errstate(all="ignore"):  # a failure sets the invalid flag
        factor = _umath_linalg.cholesky_lo(shifted, signature="D->D")
    return factor.size > 0 and factor.item(-1).real > 0.0  # a nan pivot leaves the last nan


def _checked_hermitian(a: np.ndarray, herm_tol: float) -> np.ndarray:
    """``a`` as a C-ordered complex array, once it is square, finite and Hermitian.

    The residual ||a - a^dagger||_F may be at most
    ``herm_tol * max(1, ||a||_F)``, a finite ``herm_tol`` >= 0, with both
    norms taken on ``a`` over its largest real or imaginary part, so neither
    overflows.
    """
    a = _square(a)
    require_finite(a)
    # largest real or imaginary part
    peak = _largest(np.abs(a.view(float))) if a.size else 0.0
    unit = a / peak if peak else a  # entries of modulus at most sqrt(2)
    residual = float(np.linalg.norm(unit - unit.conj().T))
    # ||a - a^dagger|| > herm_tol * max(1, ||a||), both norms divided by peak
    if residual * peak > herm_tol and residual > herm_tol * np.linalg.norm(unit):
        raise NotHermitian(
            f"hermiticity residual {residual * peak:.3e} exceeds {herm_tol:.1e}"
        )
    return a


def hermitian_eig(a: np.ndarray, herm_tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecompose a complex Hermitian matrix with LAPACK's ``eigh``.

    At a finite ``herm_tol`` >= 0, checks that ``a`` is square, finite and
    Hermitian within it (see _checked_hermitian) and decomposes its exactly
    Hermitian part, so the sub-tolerance anti-Hermitian part is averaged
    out. ``herm_tol=math.inf`` is for matrices the library built, which are
    finite and exactly Hermitian: only the shape is checked and ``a`` is
    decomposed as given (``eigh`` reads its lower triangle), so a non-finite
    entry there surfaces as EigenConvergenceError. In that mode ``a`` may
    also be a stack of shape (..., n, n), decomposed by one ``eigh`` call
    into eigenvalues (..., n) and eigenvectors (..., n, n), each matrix
    exactly as it would be on its own. A nan or negative ``herm_tol`` raises
    ValueError.

    Returns eigenvalues sorted descending, each eigenvector rephased so its
    largest-magnitude component is real and positive, which pins the gauge
    for non-degenerate spectra. A decomposition that fails or holds a nan
    raises EigenConvergenceError (see _lapack_eigh).
    """
    if not herm_tol >= 0.0:  # nan fails too
        raise ValueError(f"herm_tol must be a number >= 0, got {herm_tol}")
    if herm_tol < math.inf:
        a = _hermitian_part(_checked_hermitian(a, herm_tol))
    else:
        a = _square(a, stacked=True)
    values, vectors = _lapack_eigh(a)
    if vectors.size:
        n = vectors.shape[-1]
        columns = vectors.swapaxes(-1, -2).reshape(-1, n)  # one row per eigenvector
        # each eigenvector's component of largest modulus
        pivots = columns[np.arange(len(columns)), np.abs(columns).argmax(axis=1)]
        vectors = vectors * (pivots.conj() / np.abs(pivots)).reshape(*vectors.shape[:-2], 1, n)
    return EigenDecomposition(
        eigenvalues=values[..., ::-1].copy(),
        eigenvectors=np.ascontiguousarray(vectors[..., ::-1]),
    )


def _bipartite(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """A matrix on C^dim_a (x) C^dim_b as r[a, b, a', b'], row (a, b) and column (a', b')."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim_a * dim_b,) * 2:
        raise DimensionMismatch(
            f"matrix shape {m.shape} incompatible with subsystem dims ({dim_a}, {dim_b})"
        )
    return m.reshape(dim_a, dim_b, dim_a, dim_b)


def partial_trace(rho: np.ndarray, dim_a: int, dim_b: int, traced_side: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite matrix on C^dim_a (x) C^dim_b.

    ``traced_side`` is "A" or "B"; the result lives on the remaining factor.
    """
    r = _bipartite(rho, dim_a, dim_b)
    if traced_side == "B":
        return np.einsum("ikjk->ij", r)
    if traced_side == "A":
        return np.einsum("ikil->kl", r)
    raise ValueError(f"traced_side must be 'A' or 'B', got {traced_side!r}")


def swap_subsystems(rho_ab: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Reorder a bipartite matrix from A(x)B to B(x)A index convention.

    Pure index permutation, hence an exact involution.
    """
    r = _bipartite(rho_ab, dim_a, dim_b).transpose(1, 0, 3, 2)
    return np.ascontiguousarray(r).reshape((dim_a * dim_b,) * 2)
