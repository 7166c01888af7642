"""Validated density matrices, pure states, entropy, and instance conditioning."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionMismatch,
    EigenDecomposition,
    NotHermitian,
    dagger,
    frobenius_norm,
    hermitian_eig,
    kron,
    partial_trace,
    require_finite,
    swap_subsystems,
)

DEFAULT_TOL = 1e-9
PROB_TOL = 1e-12
ENTROPY_EIGENVALUE_FLOOR = 1e-12


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the negative tolerance."""


class TraceNotOne(ValueError):
    """Matrix trace deviates from one beyond tolerance."""


class ZeroProbabilityCondition(ValueError):
    """Conditioning outcome has (numerically) zero probability."""


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix with subsystem dims.

    ``eig`` is the eigendecomposition of ``mat`` (of its Hermitian part) that
    validate_density took to check positivity, so entropy and branch code
    need not decompose the matrix again.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    eig: EigenDecomposition = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class PureState:
    """Unit-norm ket."""

    ket: np.ndarray
    dim: int


def pure_state(vec: np.ndarray, tol: float = DEFAULT_TOL) -> PureState:
    """Wrap a column vector as a PureState, checking normalization."""
    ket = np.asarray(vec, dtype=complex).reshape(-1)
    require_finite(ket, "ket")
    norm = float(np.linalg.norm(ket))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"ket norm {norm} is not 1 within {tol:.1e}")
    ket = ket.copy()
    ket.setflags(write=False)
    return PureState(ket=ket, dim=ket.shape[0])


def z_plus() -> PureState:
    return pure_state([1.0, 0.0])


def z_minus() -> PureState:
    return pure_state([0.0, 1.0])


def x_plus() -> PureState:
    return pure_state([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])


def x_minus() -> PureState:
    return pure_state([1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)])


def y_plus() -> PureState:
    return pure_state([1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0)])


def y_minus() -> PureState:
    return pure_state([1.0 / math.sqrt(2.0), -1.0j / math.sqrt(2.0)])


def validate_density(
    mat: np.ndarray, dims, tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """Check the density-matrix contract and wrap the matrix.

    Raises NotHermitian, TraceNotOne, or NotPSD naming the measured residual.
    Eigenvalues in [-tol, 0) are treated as rounding noise: they are clamped
    to zero, the matrix is rebuilt, and the trace renormalized to one.
    """
    m = np.asarray(mat, dtype=complex)
    dims = tuple(int(d) for d in (dims if np.iterable(dims) else (dims,)))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if math.prod(dims) != m.shape[0]:
        raise DimensionMismatch(
            f"subsystem dims {dims} do not multiply to matrix dimension {m.shape[0]}"
        )
    require_finite(m, "density matrix")

    herm_residual = frobenius_norm(m - dagger(m))
    if herm_residual > tol:
        raise NotHermitian(f"hermiticity residual {herm_residual:.3e} exceeds {tol:.1e}")
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > tol:
        raise TraceNotOne(f"trace residual {abs(trace - 1.0):.3e} exceeds {tol:.1e}")

    eig = hermitian_eig(0.5 * (m + dagger(m)))
    min_eig = float(eig.eigenvalues[-1]) if eig.eigenvalues.size else 0.0
    if min_eig < -tol:
        raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below -{tol:.1e}")
    values = np.clip(eig.eigenvalues, 0.0, None)
    scale = 1.0
    if min_eig < 0.0:
        m = (eig.eigenvectors * values) @ dagger(eig.eigenvectors)
        scale = np.trace(m).real
    elif abs(trace - 1.0) > 1e-15:
        # accepted within tol; hand downstream code an exactly unit-trace matrix
        scale = trace.real

    m = np.array(m / scale, dtype=complex)
    m.setflags(write=False)
    values = values / scale
    values.setflags(write=False)
    eig.eigenvectors.setflags(write=False)
    eig = EigenDecomposition(eigenvalues=values, eigenvectors=eig.eigenvectors)
    return DensityMatrix(mat=m, dims=dims, eig=eig)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalue spectrum in bits, with 0 log 0 = 0."""
    s = -sum(v * math.log2(v) for v in rho.eig.eigenvalues if v > ENTROPY_EIGENVALUE_FLOOR)
    # max(0.0, -0.0) keeps the first argument, so a pure state gives +0.0
    return max(0.0, float(s))


def _psd_sqrt(n: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    # Idempotent input (a projector) is its own PSD square root.
    if frobenius_norm(n @ n - n) <= 1e-12 * max(1.0, frobenius_norm(n)):
        return n
    eig = hermitian_eig(n)
    if eig.eigenvalues[-1] < -tol:
        raise NotPSD(f"minimum eigenvalue {eig.eigenvalues[-1]:.3e} below -{tol:.1e}")
    roots = np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    return (eig.eigenvectors * roots) @ dagger(eig.eigenvectors)


def star_product(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Sandwich m between (sqrt(n) tensor I) factors acting on the first slot."""
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or n.ndim != 2 or n.shape[0] != n.shape[1]:
        raise DimensionMismatch("star product needs two square matrices")
    if n.shape[0] == 0 or m.shape[0] % n.shape[0] != 0:
        raise DimensionMismatch(
            f"dimension {n.shape[0]} does not divide {m.shape[0]}"
        )
    if frobenius_norm(n - dagger(n)) > DEFAULT_TOL * max(1.0, frobenius_norm(n)):
        raise NotHermitian("second factor of the star product must be Hermitian")
    rest = m.shape[0] // n.shape[0]
    sandwich = kron(_psd_sqrt(n), np.eye(rest, dtype=complex))
    return sandwich @ m @ sandwich


def instance_conditional(
    rho_joint: DensityMatrix,
    condition_ket: PureState,
    conditioned_side: str,
    prob_tol: float = PROB_TOL,
    tol: float = DEFAULT_TOL,
) -> DensityMatrix:
    """Reduced state of one subsystem given a pure-state outcome on the other.

    The conditioned subsystem is brought to the first slot (by a subsystem
    swap when it is the second), the star product applies the outcome
    projector there, the first slot is traced out, and the remainder is
    normalized by its trace.

    Raises ZeroProbabilityCondition when the outcome carries no probability
    mass, i.e. the pre-normalization trace is at most ``prob_tol``.
    """
    if len(rho_joint.dims) != 2:
        raise DimensionMismatch(f"need a bipartite density, got dims {rho_joint.dims}")
    dim_a, dim_b = rho_joint.dims
    if conditioned_side == "first":
        mat = rho_joint.mat
        cond_dim, keep_dim = dim_a, dim_b
    elif conditioned_side == "second":
        mat = swap_subsystems(rho_joint.mat, dim_a, dim_b)
        cond_dim, keep_dim = dim_b, dim_a
    else:
        raise ValueError(f"conditioned_side must be 'first' or 'second', got {conditioned_side!r}")
    if condition_ket.dim != cond_dim:
        raise DimensionMismatch(
            f"condition ket dimension {condition_ket.dim} != subsystem dimension {cond_dim}"
        )
    projector = np.outer(condition_ket.ket, condition_ket.ket.conj())
    numerator = partial_trace(star_product(mat, projector), cond_dim, keep_dim, "A")
    weight = float(np.trace(numerator).real)
    if weight <= prob_tol:
        raise ZeroProbabilityCondition(
            f"conditioning outcome has probability {weight:.3e} <= {prob_tol:.1e}"
        )
    return validate_density(numerator / weight, (keep_dim,), tol)


def spin_singlet() -> DensityMatrix:
    """Two-qubit singlet (|01> - |10>)/sqrt(2) as a normalized density matrix."""
    mat = 0.5 * np.array(
        [
            [0, 0, 0, 0],
            [0, 1, -1, 0],
            [0, -1, 1, 0],
            [0, 0, 0, 0],
        ],
        dtype=complex,
    )
    return validate_density(mat, (2, 2))
