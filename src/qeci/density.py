"""Validated density matrices, pure states, entropy, and instance conditioning."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionMismatch,
    EigenDecomposition,
    _bipartite,
    _checked_hermitian,
    _hermitian_part,
    _lapack_eigh,
    _smallest,
    _stack,
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix with subsystem dims.

    ``mat`` is exactly Hermitian and read-only. What is derived from it
    (partial traces, conditional blocks) is Hermitian and PSD to rounding and
    is not checked again. Only _wrap constructs one. ``_memo`` holds the
    eigendecomposition under "eig" and, once causal._reduced has built them,
    the reduced densities of a bipartite ``mat`` by side ("A" or "B"), each
    with the verdict of its eigen-gap test; ``mat`` is read-only, so they
    stay valid.
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
            eig = hermitian_eig(self.mat, herm_tol=math.inf)  # mat is exactly Hermitian
            values = np.maximum(eig.eigenvalues, 0.0)
            eig = self._memo["eig"] = _read_only(values, eig.eigenvectors)
        return eig


@dataclass(frozen=True, eq=False)
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


def validate_density(
    mat: np.ndarray, dims, tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """Check the density-matrix contract and wrap the matrix.

    The one check of outside input: the square, finite and Hermitian check
    of hermitian_eig (at ``tol``) plus the dims, trace and PSD checks; raises
    DimensionMismatch, NotHermitian, TraceNotOne, or NotPSD naming the
    measured residual, and ValueError for a ``tol`` that is not a finite
    number >= 0. The matrix kept is the exactly Hermitian part of the input,
    which is the input itself when that is exactly Hermitian. Positivity is
    checked on the spectrum alone (see _checked_psd): eigenvalues in
    [-tol, 0) are treated as rounding noise, clamped to zero, the matrix is
    rebuilt, and the trace renormalized to one.
    """
    if not 0.0 <= tol < math.inf:  # nan fails too
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    m = np.asarray(mat, dtype=complex)
    dims = tuple(int(d) for d in (dims if np.iterable(dims) else (dims,)))
    m = _checked_hermitian(m, tol)
    if math.prod(dims) != m.shape[0]:
        raise DimensionMismatch(
            f"subsystem dims {dims} do not multiply to matrix dimension {m.shape[0]}"
        )
    return _density(m, dims, tol)


def _density(m: np.ndarray, dims, tol: float = DEFAULT_TOL, known: bool = False) -> DensityMatrix:
    """validate_density's trace and PSD checks, then its wrap. A ``known`` density skips
    the checks, not the trace and Hermitian part, so a subnormal entry halves to zero alike."""
    # einsum, unlike np.trace, sums huge diagonals to inf without a RuntimeWarning
    trace = complex(np.einsum("ii", m))
    if known:
        return _wrap(_hermitian_part(m), dims, None, trace, tol)
    if abs(trace - 1.0) > tol:
        raise TraceNotOne(f"trace residual {abs(trace - 1.0):.3e} exceeds {tol:.1e}")
    return _checked_psd(_hermitian_part(m), dims, trace, tol)


def _checked_psd(
    h: np.ndarray, dims: tuple[int, ...], trace: complex, tol: float
) -> DensityMatrix:
    """Wrap the exactly Hermitian ``h``, ``trace`` its trace, once its spectrum is PSD.

    The PSD check of validate_density and of the channel joints: one
    ``eigvalsh``, since the check reads only the smallest eigenvalue. Below
    -``tol`` it raises NotPSD; in [-tol, 0) it is rounding noise, and only
    then is ``h`` decomposed, for _wrap's clamp and rebuild. Otherwise ``h``
    is wrapped without eigenvectors, which DensityMatrix.eig takes on read.
    LAPACK's failure raises EigenConvergenceError.
    """
    least = _smallest(_lapack_eigh(h, vectors=False))
    if least < -tol:
        raise NotPSD(f"minimum eigenvalue {least:.3e} below -{tol:.1e}")
    eig = hermitian_eig(h, herm_tol=math.inf) if least < 0.0 else None
    return _wrap(h, dims, eig, trace, tol)


def _build_densities(hs: list[np.ndarray]) -> list[DensityMatrix]:
    """Decompose and wrap reduced densities of a validated joint, all n by n.

    For causal._reduced, which reads the eigenkets at once. The partial
    trace of a validated joint is finite and exactly Hermitian with a trace
    one to rounding, so their stack goes to one hermitian_eig call at an
    infinite tolerance, decomposed as given, and the dims and trace checks
    are left out; the PSD check, clamp and renormalization remain, per
    density, in order.
    """
    stack = _stack(hs)
    eig = hermitian_eig(stack, herm_tol=math.inf)
    traces = np.einsum("...ii", stack).tolist()
    return [
        _wrap(h, h.shape[:1], EigenDecomposition(values, vectors), trace, DEFAULT_TOL)
        for h, trace, values, vectors in zip(hs, traces, eig.eigenvalues, eig.eigenvectors)
    ]


def _read_only(values: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def _wrap(
    h: np.ndarray,
    dims: tuple[int, ...],
    eig: EigenDecomposition | None,
    trace: complex,
    tol: float,
) -> DensityMatrix:
    """Wrap the exactly Hermitian ``h``, ``trace`` its trace.

    ``eig`` decomposes ``h``, or is None when ``h`` is known to be PSD and
    the density takes its decomposition on read. Eigenvalues below -``tol``
    raise NotPSD. Those in [-tol, 0) are clamped to zero, the matrix
    rebuilt, and the trace renormalized to one, as is a trace off one by
    more than 1e-15. ``h`` and ``eig`` must be fresh arrays that no caller
    keeps: a step that would leave them as they are is skipped, so they may
    become the density's own read-only ``mat`` and ``eig``.
    """
    # accepted within tol; hand downstream code an exactly unit-trace matrix
    scale = trace.real if abs(trace - 1.0) > 1e-15 else 1.0
    memo = {}
    if eig is not None:
        values = eig.eigenvalues
        min_eig = float(values[-1]) if values.size else 0.0
        if min_eig < -tol:
            raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below -{tol:.1e}")
        if min_eig <= 0.0:  # an exact zero may be -0.0, which np.maximum makes +0.0
            values = np.maximum(values, 0.0)
        if min_eig < 0.0:
            m = (eig.eigenvectors * values) @ dagger(eig.eigenvectors)
            h = _hermitian_part(m)
            scale = np.trace(m).real
        memo["eig"] = _read_only(values / scale if scale != 1.0 else values, eig.eigenvectors)
    if scale != 1.0:
        h = h / scale
    h.setflags(write=False)
    return DensityMatrix(mat=h, dims=dims, _memo=memo)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalue spectrum in bits, with 0 log 0 = 0."""
    s = 0.0
    # Python floats: numpy's arithmetic, less overhead; totalled left to right,
    # not by sum(), which compensates its rounding on Python >= 3.12
    for v in rho.eig.eigenvalues.tolist():
        if v > ENTROPY_EIGENVALUE_FLOOR:
            s -= v * math.log2(v)
    # eigenvalues a rounding above one leave s just below zero
    return max(0.0, s)


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


def _cause_first(rho_joint: DensityMatrix, cause: str) -> np.ndarray:
    """The joint as a tensor r[c, k, c', l]: c, c' on the ``cause`` side, k, l on the other.

    ``cause`` "A" is the joint's own index order (see linalg._bipartite);
    "B" is its transpose r.transpose(1, 0, 3, 2), a view.
    """
    if len(rho_joint.dims) != 2:
        raise DimensionMismatch(f"need a bipartite density, got dims {rho_joint.dims}")
    r = _bipartite(rho_joint.mat, *rho_joint.dims)
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

    Raises ZeroProbabilityCondition when a weight is at most PROB_TOL.
    """
    if kets.shape[-2] != r.shape[-4]:
        raise DimensionMismatch(
            f"condition ket dimension {kets.shape[-2]} != subsystem dimension {r.shape[-4]}"
        )
    half = r.swapaxes(-1, -2) @ kets[..., None, None, :, :]  # half[..., c, k, l, i]
    blocks = np.einsum("...ckli,...ci->...ikl", half, kets.conj())
    weights = np.einsum("...ikk->...i", blocks).real
    least = _smallest(weights)
    if least <= PROB_TOL:
        raise ZeroProbabilityCondition(
            f"conditioning outcome has probability {least:.3e} <= {PROB_TOL:.1e}"
        )
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
    side, (<v| (x) I) rho (|v> (x) I), and the result is normalized by its
    trace. This equals tracing the conditioned side out of the star product
    of rho with |v><v|. The conditional is validated at the joint's scale,
    DEFAULT_TOL divided by the outcome's probability.

    Raises ZeroProbabilityCondition when the outcome carries no probability
    mass, i.e. the pre-normalization trace is at most PROB_TOL.
    """
    cause = {"first": "A", "second": "B"}.get(conditioned_side)
    if cause is None:
        raise ValueError(f"conditioned_side must be 'first' or 'second', got {conditioned_side!r}")
    r = _cause_first(rho_joint, cause)
    blocks, weights = _conditional_blocks(r, condition_ket.ket[:, None])
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
