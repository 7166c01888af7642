"""Validated density matrices, pure states, entropy, and instance conditioning."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .coupling import _entropy_bits
from .linalg import (
    DEFAULT_TOL,
    PROB_FLOOR,
    TRACE_ROUNDING,
    DimensionMismatch,
    EigenDecomposition,
    _bipartite,
    _checked_hermitian,
    _hermitian_part,
    _lapack_eigh,
    _positive_definite,
    _require_tolerance,
    _smallest,
    dagger,
    hermitian_eig,
    kron,
    require_finite,
)


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the negative tolerance."""


class TraceNotOne(ValueError):
    """Matrix trace deviates from one beyond tolerance."""


class ZeroProbabilityCondition(ValueError):
    """Conditioning outcome has (numerically) zero probability."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix with subsystem dims.

    ``mat`` is exactly Hermitian and read-only. What is derived from it
    (partial traces, conditional blocks) is Hermitian and PSD to rounding and
    is not checked again. Only _wrap constructs one. ``_memo`` holds the
    eigendecomposition under "eig" and, once a verdict pass has built them
    (causal._Pass, the record of every pass), the reduced densities of a
    bipartite ``mat`` by side ("A" or "B"), each with the verdict of its
    eigen-gap test; ``mat`` is read-only, so they stay valid.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    _memo: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def eig(self) -> EigenDecomposition:
        """Eigendecomposition of ``mat``, eigenvalues clamped at zero, read-only.

        The one taken while the density was built, if any; else taken on the
        first read, so a joint whose eigenvectors nobody reads is never
        decomposed.
        """
        eig = self._memo.get("eig")
        if eig is None:
            # mat is exactly Hermitian and passed the PSD check: no rebuild
            eig = self._memo["eig"] = _settled(hermitian_eig(self.mat, herm_tol=math.inf))
        return eig


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm ket."""

    ket: np.ndarray
    dim: int


def pure_state(vec: np.ndarray, tol: float = DEFAULT_TOL) -> PureState:
    """Wrap a column vector as a PureState, checking normalization: a finite ket of
    norm 1 within ``tol``, itself a finite number >= 0; else ValueError."""
    _require_tolerance(tol, "tol")
    ket = np.asarray(vec, dtype=complex).reshape(-1)
    require_finite(ket, "ket")
    norm = float(np.linalg.norm(ket))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"ket norm {norm} is not 1 within {tol:.1e}")
    ket = ket.copy()
    ket.setflags(write=False)
    return PureState(ket=ket, dim=ket.shape[0])


def validate_density(
    mat: np.ndarray, dims, tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """Check the density-matrix contract and wrap the matrix.

    The one check of outside input: the square, finite and Hermitian check of hermitian_eig
    (at ``tol``) plus the dims (integers >= 1 that multiply to its dimension), trace and PSD
    checks; raises DimensionMismatch, NotHermitian, TraceNotOne, or NotPSD naming the
    measured residual, and ValueError for a ``tol`` that is not a finite number >= 0. The
    matrix kept is the exactly Hermitian part of the input, halved before the sum so it
    cannot overflow: an exactly Hermitian input is kept as it is, except that an odd
    subnormal entry rounds to an even one (5e-324 on the diagonal is kept as 0). A positive
    definite matrix is certified by a Cholesky factorization, any other checked on its
    spectrum (see _wrap), where eigenvalues in [-tol, 0) are rounding noise: clamped to
    zero, the matrix rebuilt, the trace renormalized to one.
    """
    _require_tolerance(tol, "tol")
    m = np.asarray(mat, dtype=complex)
    dims = tuple(dims) if np.iterable(dims) else (dims,)
    m = _checked_hermitian(m, tol)
    # nan fails the comparison; a str or complex is no Real
    if not all(isinstance(d, numbers.Real) and 1 <= d < math.inf and d == int(d) for d in dims):
        raise DimensionMismatch(f"subsystem dims {dims} must be integers >= 1")
    dims = tuple(map(int, dims))
    if math.prod(dims) != m.shape[0]:
        raise DimensionMismatch(
            f"subsystem dims {dims} do not multiply to matrix dimension {m.shape[0]}"
        )
    # einsum, unlike np.trace, sums huge diagonals to inf without a RuntimeWarning
    trace = complex(np.einsum("ii", m))
    if abs(trace - 1.0) > tol:
        raise TraceNotOne(f"trace residual {abs(trace - 1.0):.3e} exceeds {tol:.1e}")
    return _wrap(_hermitian_part(m), dims, tol, trace=trace)


def _require_psd(least: float, tol: float) -> None:
    """The PSD rule: a smallest eigenvalue ``least`` below -``tol`` raises NotPSD."""
    if least < -tol:
        raise NotPSD(f"minimum eigenvalue {least:.3e} below -{tol:.1e}")


def _settled(eig: EigenDecomposition, scale: float = 1.0) -> EigenDecomposition:
    """``eig`` as a density keeps it: its descending eigenvalues clamped at zero
    and divided by ``scale``, both arrays read-only. They must be fresh arrays."""
    values = eig.eigenvalues
    # an exact zero may be -0.0, which np.maximum makes +0.0
    if values.size and values[-1] <= 0.0:
        values = np.maximum(values, 0.0)
    if scale != 1.0:
        values = values / scale
    values.setflags(write=False)
    eig.eigenvectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=values, eigenvectors=eig.eigenvectors)


def _wrap(
    h: np.ndarray,
    dims: tuple[int, ...],
    tol: float = DEFAULT_TOL,
    eig: EigenDecomposition | None = None,
    least: float | None = None,
    trace: complex | None = None,
) -> DensityMatrix:
    """The one constructor of a DensityMatrix: wrap the exactly Hermitian ``h``.

    Callers hand over what they already have: ``eig``, a decomposition of
    ``h``; ``least``, a lower bound on its spectrum; ``trace``, that of ``h`` or
    of the input ``h`` is the Hermitian part of. With neither ``eig`` nor
    ``least``, one Cholesky factorization certifies a positive definite ``h``
    (linalg._positive_definite) and any other pays one ``eigvalsh`` for its
    smallest eigenvalue. Below -``tol`` it raises NotPSD. In [-tol, 0) it is
    rounding noise: ``h`` is decomposed, its eigenvalues clamped to zero, the
    matrix rebuilt and the trace renormalized to one, as is a trace off one by
    more than TRACE_ROUNDING; a trace, given or rebuilt, that is not positive
    raises TraceNotOne. ``h`` and ``eig`` must be fresh arrays that no caller
    keeps: they become the density's read-only ``mat`` and ``eig`` (if given).
    """
    if trace is None:
        trace = complex(np.einsum("ii", h))
    if eig is None and least is None:
        least = 0.0 if _positive_definite(h, trace) else _smallest(_lapack_eigh(h, vectors=False))
        if -tol <= least < 0.0:  # rounding noise: decompose, to clamp
            eig = hermitian_eig(h, herm_tol=math.inf)
    if eig is not None:
        least = float(eig.eigenvalues[-1]) if eig.eigenvalues.size else 0.0
    _require_psd(least, tol)
    # accepted within tol; hand downstream code an exactly unit-trace matrix
    scale = trace.real if abs(trace - 1.0) > TRACE_ROUNDING else 1.0
    if eig is not None and least < 0.0:  # rebuild from the clamped spectrum
        eig = _settled(eig)
        m = (eig.eigenvectors * eig.eigenvalues) @ dagger(eig.eigenvectors)
        h = _hermitian_part(m)
        scale = np.trace(m).real
    if not scale > 0.0:  # a loose tol passes a trace <= 0; a clamp can leave one
        raise TraceNotOne(f"trace {scale:.3e} is not positive")
    memo = {} if eig is None else {"eig": _settled(eig, scale)}
    if scale != 1.0:
        h = h / scale
    h.setflags(write=False)
    return DensityMatrix(mat=h, dims=dims, _memo=memo)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalue spectrum in bits; eigenvalues at most PROB_FLOOR count as zero."""
    return _entropy_bits(rho.eig.eigenvalues)


def _psd_sqrt(n: np.ndarray) -> np.ndarray:
    eig = hermitian_eig(n)  # the square, finite and Hermitian check
    # Idempotent input (a projector) is its own PSD square root.
    if np.linalg.norm(n @ n - n) <= 1e-12 * max(1.0, np.linalg.norm(n)):
        return n
    _require_psd(eig.eigenvalues[-1], DEFAULT_TOL)
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


def _joint_dims(rho: DensityMatrix) -> tuple[int, ...]:
    """The bipartite rule: a joint's dims (dim_a, dim_b); other dims raise DimensionMismatch."""
    if len(rho.dims) != 2:
        raise DimensionMismatch(f"need a bipartite density, got dims {rho.dims}")
    return rho.dims


def _cause_first(mat: np.ndarray, dims: tuple[int, ...], cause: str) -> np.ndarray:
    """A joint ``mat`` as a tensor r[c, k, c', l]: c, c' on the ``cause`` side, k, l on the other.

    ``dims`` were checked by _joint_dims. ``cause`` "A" is the joint's own index
    order (see linalg._bipartite); "B" its transpose r.transpose(1, 0, 3, 2), a view.
    """
    r = _bipartite(mat, *dims)
    return r.transpose(1, 0, 3, 2) if cause == "B" else r


def _conditional_blocks(r: np.ndarray, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized conditionals of the kept side, one per column v_i of ``kets``.

    ``r`` holds cause-first joint tensors (..., c, k, c', l) (see
    _cause_first) and ``kets`` their ket columns (..., c, n), over the same
    leading axes. Block i is <v_i| r |v_i> with bra and ket acting on the
    conditioned side only: the i-th diagonal block of
    (V^dagger (x) I) rho (V (x) I), taken for the whole stack by one matmul
    (ket side) and one diagonal einsum (bra side). Returns the blocks
    (..., n, k, k) and their traces (..., n), the branch weights.

    It only contracts: causal._branch_kets and instance_conditional check what it takes.
    """
    half = r.swapaxes(-1, -2) @ kets[..., None, None, :, :]  # half[..., c, k, l, i]
    blocks = np.einsum("...ckli,...ci->...ikl", half, kets.conj())
    weights = np.einsum("...ikk->...i", blocks).real
    return blocks, weights


def _block_spectra(blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Descending spectra of the normalized blocks, one stacked ``eigvalsh``.

    ``blocks`` (..., n, k, k) and ``weights`` (..., n) as _conditional_blocks
    returns them. The blocks come from a validated joint, so they are
    Hermitian and PSD to rounding; eigenvalues are clipped at zero, when any
    is not positive, and each spectrum renormalized to sum to one. LAPACK's
    failure raises EigenConvergenceError. The spectra (..., n, k) come back
    read-only and are valid probability rows, so callers need not check them.
    """
    conditionals = _hermitian_part(blocks / weights[..., None, None])
    values = _lapack_eigh(conditionals, vectors=False)[..., ::-1]
    least = _smallest(values)
    if least <= 0.0:  # an exact zero may be -0.0, which np.maximum makes +0.0
        values = np.maximum(values, 0.0)
    spectra = values / np.add.reduce(values, axis=-1, keepdims=True)
    spectra.setflags(write=False)
    return spectra


def instance_conditional(
    rho_joint: DensityMatrix, condition_ket: PureState, conditioned_side: str
) -> DensityMatrix:
    """Reduced state of one subsystem given a pure-state outcome on the other.

    The outcome |v> is applied as a partial inner product on the conditioned
    side, (<v| (x) I) rho (|v> (x) I), by the verdict pass's contraction
    (_conditional_blocks), and normalized by its trace: the conditioned side
    traced out of the star product of rho with |v><v|. It is validated at
    the joint's scale, DEFAULT_TOL divided by the outcome's probability.

    The outside ket is checked here alone: a dimension not the conditioned side's raises
    DimensionMismatch, a pre-normalization trace at most PROB_FLOOR ZeroProbabilityCondition.
    """
    cause = {"first": "A", "second": "B"}.get(conditioned_side)
    if cause is None:
        raise ValueError(f"conditioned_side must be 'first' or 'second', got {conditioned_side!r}")
    r = _cause_first(rho_joint.mat, _joint_dims(rho_joint), cause)
    ket = condition_ket.ket[:, None]
    if len(ket) != len(r):
        msg = f"condition ket dimension {len(ket)} != subsystem dimension {len(r)}"
        raise DimensionMismatch(msg)
    blocks, weights = _conditional_blocks(r, ket)
    weight = weights.item(0)
    if weight <= PROB_FLOOR:
        msg = f"conditioning outcome has probability {weight:.3e} <= {PROB_FLOOR:.1e}"
        raise ZeroProbabilityCondition(msg)
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
