"""Validated density matrices, pure states, entropy, and instance conditioning."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionMismatch,
    EigenConvergenceError,
    EigenDecomposition,
    _smallest,
    dagger,
    hermitian_eig,
    kron,
    require_finite,
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

    ``mat`` is exactly Hermitian, and ``eig`` is the eigendecomposition of
    ``mat`` that was taken to check positivity, so entropy and
    branch code need not decompose the matrix again. What is derived from
    ``mat`` (partial traces, conditional blocks) is Hermitian and PSD to
    rounding and is not checked again. ``_reduced_memo`` holds the reduced
    densities of a bipartite ``mat`` by side ("A" or "B") once
    causal._reduced has built them; ``mat`` is read-only, so they stay valid.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    eig: EigenDecomposition = field(repr=False, compare=False)
    _reduced_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    The one check of outside input: hermitian_eig's square, finite and
    Hermitian check (at ``tol``) plus the dims, trace and PSD checks; raises
    DimensionMismatch, NotHermitian, TraceNotOne, or NotPSD naming the
    measured residual. The matrix kept is the exactly Hermitian part that
    hermitian_eig decomposed, which is the input itself when that is exactly
    Hermitian. Eigenvalues in [-tol, 0) are treated as rounding noise: they
    are clamped to zero, the matrix is rebuilt, and the trace renormalized
    to one.
    """
    m = np.asarray(mat, dtype=complex)
    dims = tuple(int(d) for d in (dims if np.iterable(dims) else (dims,)))
    eig = hermitian_eig(m, herm_tol=tol)
    if math.prod(dims) != m.shape[0]:
        raise DimensionMismatch(
            f"subsystem dims {dims} do not multiply to matrix dimension {m.shape[0]}"
        )
    # einsum, unlike np.trace, sums huge diagonals to inf without a RuntimeWarning
    trace = complex(np.einsum("ii", m))
    if abs(trace - 1.0) > tol:
        raise TraceNotOne(f"trace residual {abs(trace - 1.0):.3e} exceeds {tol:.1e}")
    # the exactly Hermitian part that eig decomposed
    return _wrap(0.5 * m + 0.5 * m.conj().T, dims, eig, trace, tol)


def _build_density(h: np.ndarray, dims: tuple[int, ...]) -> DensityMatrix:
    """Decompose and wrap a density the library built, without validate_density.

    Only for matrices exactly Hermitian by construction, with a trace one to
    rounding: reduced densities of a validated joint, and channel joints
    built from checked parameters and symmetrized once. hermitian_eig gets
    an infinite tolerance, so it computes no Hermitian residual, and the
    dims and trace checks are left out; the PSD check, clamp and
    renormalization remain.
    """
    eig = hermitian_eig(h, herm_tol=math.inf)
    return _wrap(h, dims, eig, complex(np.einsum("ii", h)), DEFAULT_TOL)


def _wrap(
    h: np.ndarray, dims: tuple[int, ...], eig: EigenDecomposition, trace: complex, tol: float
) -> DensityMatrix:
    """Wrap the exactly Hermitian ``h`` that ``eig`` decomposes, ``trace`` its trace.

    Eigenvalues below -``tol`` raise NotPSD. Those in [-tol, 0) are clamped
    to zero, the matrix rebuilt, and the trace renormalized to one, as is a
    trace off one by more than 1e-15. ``mat`` is ``h / scale``, a new array,
    so ``h`` is never frozen.
    """
    min_eig = float(eig.eigenvalues[-1]) if eig.eigenvalues.size else 0.0
    if min_eig < -tol:
        raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below -{tol:.1e}")
    values = np.maximum(eig.eigenvalues, 0.0)
    scale = 1.0
    if min_eig < 0.0:
        m = (eig.eigenvectors * values) @ dagger(eig.eigenvectors)
        h = 0.5 * m + 0.5 * m.conj().T
        scale = np.trace(m).real
    elif abs(trace - 1.0) > 1e-15:
        # accepted within tol; hand downstream code an exactly unit-trace matrix
        scale = trace.real
    m = h / scale
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
    eig = hermitian_eig(n)  # the square, finite and Hermitian check
    # Idempotent input (a projector) is its own PSD square root.
    if np.linalg.norm(n @ n - n) <= 1e-12 * max(1.0, np.linalg.norm(n)):
        return n
    if eig.eigenvalues[-1] < -tol:
        raise NotPSD(f"minimum eigenvalue {eig.eigenvalues[-1]:.3e} below -{tol:.1e}")
    roots = np.sqrt(np.maximum(eig.eigenvalues, 0.0))
    return (eig.eigenvectors * roots) @ dagger(eig.eigenvectors)


def star_product(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Sandwich m between (sqrt(n) tensor I) factors acting on the first slot.

    With n = |v><v| this is the paper's definition of conditioning on |v>;
    inference computes the same conditionals by _conditional_blocks.
    """
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or n.ndim != 2 or n.shape[0] != n.shape[1]:
        raise DimensionMismatch("star product needs two square matrices")
    if n.shape[0] == 0 or m.shape[0] % n.shape[0] != 0:
        raise DimensionMismatch(
            f"dimension {n.shape[0]} does not divide {m.shape[0]}"
        )
    rest = m.shape[0] // n.shape[0]
    sandwich = kron(_psd_sqrt(n), np.eye(rest, dtype=complex))
    return sandwich @ m @ sandwich


def _conditional_blocks(
    rho_joint: DensityMatrix,
    kets: np.ndarray,
    conditioned_side: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized conditionals of the kept side, one per column v_i of ``kets``.

    Block i is <v_i| rho |v_i> with bra and ket acting on the conditioned side
    only: the i-th diagonal block of (V^dagger (x) I) rho (V (x) I), taken by
    one matmul (ket side) and one diagonal einsum (bra side). Returns the
    blocks stacked on axis 0 and their traces, the branch weights.

    Raises ZeroProbabilityCondition when a weight is at most PROB_TOL.
    """
    if len(rho_joint.dims) != 2:
        raise DimensionMismatch(f"need a bipartite density, got dims {rho_joint.dims}")
    dim_a, dim_b = rho_joint.dims
    r = rho_joint.mat.reshape(dim_a, dim_b, dim_a, dim_b)
    if conditioned_side == "second":
        r = r.transpose(1, 0, 3, 2)
    elif conditioned_side != "first":
        raise ValueError(f"conditioned_side must be 'first' or 'second', got {conditioned_side!r}")
    if kets.shape[0] != r.shape[0]:
        raise DimensionMismatch(
            f"condition ket dimension {kets.shape[0]} != subsystem dimension {r.shape[0]}"
        )
    # r[c, k, c', l]: c, c' on the conditioned side, k, l on the kept side
    half = r.transpose(0, 1, 3, 2) @ kets  # half[c, k, l, i]
    blocks = np.einsum("ckli,ci->ikl", half, kets.conj())
    weights = np.einsum("ikk->i", blocks).real
    least = _smallest(weights)
    if least <= PROB_TOL:
        raise ZeroProbabilityCondition(
            f"conditioning outcome has probability {least:.3e} <= {PROB_TOL:.1e}"
        )
    return blocks, weights


def _block_spectra(blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Descending spectra of the normalized blocks, one stacked ``eigvalsh``.

    The blocks come from a validated joint, so they are Hermitian and PSD to
    rounding; eigenvalues are clipped at zero and each spectrum renormalized
    to sum to one. Raises EigenConvergenceError when LAPACK fails or returns
    nan, as hermitian_eig does. The spectra come back read-only and are valid
    probability rows, so callers need not check them.
    """
    conditionals = blocks / weights[:, None, None]
    adjoints = conditionals.conj().swapaxes(1, 2)
    try:
        values = np.linalg.eigvalsh(0.5 * (conditionals + adjoints))[:, ::-1]
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    if math.isnan(_smallest(values)):
        raise EigenConvergenceError("eigendecomposition returned nan eigenvalues")
    values = np.maximum(values, 0.0)
    spectra = values / np.add.reduce(values, axis=1, keepdims=True)
    spectra.setflags(write=False)
    return spectra


def instance_conditional(
    rho_joint: DensityMatrix, condition_ket: PureState, conditioned_side: str
) -> DensityMatrix:
    """Reduced state of one subsystem given a pure-state outcome on the other.

    The outcome |v> is applied as a partial inner product on the conditioned
    side, (<v| (x) I) rho (|v> (x) I), and the result is normalized by its
    trace. This equals tracing the conditioned side out of the star product
    of rho with |v><v|. The conditional is validated at the joint's scale,
    DEFAULT_TOL divided by the outcome's probability.

    Raises ZeroProbabilityCondition when the outcome carries no probability
    mass, i.e. the pre-normalization trace is at most PROB_TOL.
    """
    blocks, weights = _conditional_blocks(rho_joint, condition_ket.ket[:, None], conditioned_side)
    weight = weights.item(0)
    return validate_density(blocks[0] / weight, (blocks.shape[1],), DEFAULT_TOL / weight)


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
