"""Causal direction inference for joint densities and joint distributions."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coupling import (
    MarginalSet,
    _entropy_bits,
    _probability_rows,
    greedy_min_entropy_coupling,
)
from .density import (
    DensityMatrix,
    _block_spectra,
    _build_densities,
    _cause_first,
    _conditional_blocks,
    von_neumann_entropy,
)
from .linalg import (
    DEGENERACY_GAP,
    PROB_FLOOR,
    TIE_TOL,
    DimensionMismatch,
    _require_tolerance,
    _smallest,
    partial_trace,
)

# per cause side: the subsystem traced out of the joint
_TRACED = {"A": "B", "B": "A"}


class DegeneracyWarning(UserWarning):
    """Reduced density has (near-)degenerate eigenvalues; its eigenbasis, and
    therefore the verdict, is gauge-dependent."""


class Direction(Enum):
    A_TO_B = "AtoB"
    B_TO_A = "BtoA"
    TIE = "Tie"

    @property
    def arrow(self) -> str:
        return {"AtoB": "A->B", "BtoA": "B->A", "Tie": "Tie"}[self.value]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint probability table; rows index the first variable. Checked when built
    (ValueError), it keeps the table as floats clamped at zero, read-only."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2:
            raise ValueError(f"joint table must be 2-D, got shape {t.shape}")
        flat = _probability_rows(t.reshape(1, -1), "joint table", "joint table", ValueError)
        object.__setattr__(self, "table", flat.reshape(t.shape))

    @classmethod
    def from_table(cls, table) -> "JointDistribution":
        return cls(table=table)


@dataclass(frozen=True)
class CausalVerdict:
    """Direction verdict with the entropies behind it, all in bits.

    s_forward = s_cause_fwd + s_exo_fwd is the score of the A-to-B model
    (cause marginal entropy plus coupled exogenous entropy); s_backward
    mirrors it for B-to-A.
    """

    direction: Direction
    s_forward: float
    s_backward: float
    s_cause_fwd: float
    s_exo_fwd: float
    s_cause_bwd: float
    s_exo_bwd: float


@dataclass(frozen=True, eq=False)
class CauseSide:
    """One direction's conditioning: the cause side and its effect conditionals.

    ``reduced`` is the cause-side reduced density. Column i of
    ``kets`` is its eigenket of the i-th largest eigenvalue, for each
    eigenvalue above the branch floor; ``weights[i]`` is that branch's
    probability, ``blocks[i]`` the unnormalized effect-side conditional and
    ``rows.rows[i]`` the conditional's spectrum, descending.
    """

    reduced: DensityMatrix
    kets: np.ndarray
    weights: np.ndarray
    blocks: np.ndarray
    rows: MarginalSet


def _reduced(rho_ab: DensityMatrix, labels: tuple[str, ...], stacklevel) -> list[DensityMatrix]:
    """Reduced densities of sides ``labels``, each "A" or "B", built once per joint.

    Sides not in the joint's memo are built unvalidated (the partial trace of
    a validated joint is exactly Hermitian, its trace one within TRACE_ROUNDING)
    by _build_densities: two of one dimension by one stacked hermitian_eig
    call, a lone side as a matrix. Each is gap-tested and memoized; then each
    degenerate side warns, in side order, at ``stacklevel`` counted from here.
    """
    if len(rho_ab.dims) != 2:
        raise DimensionMismatch(f"need a bipartite density, got dims {rho_ab.dims}")
    memo = rho_ab._memo
    missing = [label for label in labels if label not in memo]
    if missing:
        traced = [partial_trace(rho_ab.mat, *rho_ab.dims, _TRACED[label]) for label in missing]
        for label, reduced in zip(missing, _build_densities(traced)):
            values = reduced.eig.eigenvalues
            gaps = values[:-1] - values[1:]
            memo[label] = (reduced, bool(gaps.size) and _smallest(gaps) < DEGENERACY_GAP)
    for label in labels:
        if memo[label][1]:
            msg = f"reduced density of side {label} has near-degenerate eigenvalues; "
            msg += "the conditioning eigenbasis is not unique"
            warnings.warn(msg, DegeneracyWarning, stacklevel=stacklevel)
    return [memo[label][0] for label in labels]


def _branch_kets(reduced: DensityMatrix) -> np.ndarray:
    """Eigenkets of a reduced density above PROB_FLOOR, the branch floor, as columns."""
    values, vectors = reduced.eig.eigenvalues, reduced.eig.eigenvectors
    # descending: when the smallest is above the floor, every eigenket is a branch
    return vectors if values[-1] > PROB_FLOOR else vectors[:, values > PROB_FLOOR]


def _conditioned(r: np.ndarray, kets: np.ndarray) -> tuple[np.ndarray, ...]:
    """Blocks and weights of ``r`` conditioned on ``kets``, then the blocks' spectra."""
    blocks, weights = _conditional_blocks(r, kets)
    return blocks, weights, _block_spectra(blocks, weights)


def _condition(
    rho_ab: DensityMatrix, labels: tuple[str, ...], reduced: list[DensityMatrix]
) -> list[CauseSide]:
    """Cause sides ``labels`` ("A" forward, "B" backward) with reduced densities ``reduced``.

    Side A conditions the joint's cause-first tensor r[c, k, c', l], side B
    its transpose r.transpose(1, 0, 3, 2), on the eigenkets of its reduced
    density above the branch floor: one block contraction, then one eigvalsh
    for the spectra, clamped and normalized (_block_spectra). Two sides whose
    ket matrices share a shape go as one stack; a lone side, or two of
    different shapes, one at a time, each on its own arrays.
    """
    kets = [_branch_kets(density) for density in reduced]
    tensors = [_cause_first(rho_ab, label) for label in labels]
    if len(kets) == 2 and kets[0].shape == kets[1].shape:
        blocks, weights, spectra = _conditioned(np.array(tensors), np.array(kets))
    else:
        blocks, weights, spectra = zip(*map(_conditioned, tensors, kets))
    return [
        CauseSide(density, kets[i], weights[i], blocks[i], MarginalSet._trusted(spectra[i]))
        for i, density in enumerate(reduced)
    ]


def _cause_sides(rho_ab: DensityMatrix, labels=("A", "B")) -> list[CauseSide]:
    """Cause sides ``labels`` ("A" forward, "B" backward): _reduced, then _condition.
    Warns at the line that called its caller; the first error stops the pass."""
    return _condition(rho_ab, labels, _reduced(rho_ab, labels, 4))


def conditional_spectra(rho_ab: DensityMatrix, direction: str) -> MarginalSet:
    """Spectra of the effect-side conditionals, one row per cause eigenbranch.

    The cause-side reduced density is eigendecomposed; for every eigenvalue
    above the branch floor, the effect side is conditioned on that eigenket
    and the conditional's eigenvalue spectrum (descending) becomes one row.
    """
    label = {"forward": "A", "backward": "B"}.get(direction)
    if label is None:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    return _cause_sides(rho_ab, (label,))[0].rows


def qeci_infer(rho_ab: DensityMatrix, tie_tol: float = TIE_TOL) -> CausalVerdict:
    """Infer the causal direction between the two subsystems of a joint density.

    Scores each direction by the entropy of the cause-side reduced density
    plus the greedily coupled entropy of the effect-side conditional spectra,
    and prefers the smaller score. One pass builds both reduced densities,
    warns for each degenerate one, then conditions both sides. A d x d joint
    decomposes its two by one stacked hermitian_eig call and, when they keep
    as many branches, conditions both by one block contraction and one
    stacked eigvalsh; any other side goes alone, as a matrix. ``tie_tol`` is
    checked first.
    """
    _require_tolerance(tie_tol, "tie_tol")
    return _score(*_cause_sides(rho_ab), tie_tol)


def _score(fwd: CauseSide, bwd: CauseSide, tie_tol: float = TIE_TOL) -> CausalVerdict:
    s_cause_fwd, s_cause_bwd = von_neumann_entropy(fwd.reduced), von_neumann_entropy(bwd.reduced)
    return _verdict(s_cause_fwd, fwd.rows, s_cause_bwd, bwd.rows, tie_tol)


def classical_eci(joint: JointDistribution, tie_tol: float = TIE_TOL) -> CausalVerdict:
    """Classical counterpart of qeci_infer, scoring a joint probability table.

    The table was checked when ``joint`` was built, so it and the marginals
    and conditionals derived from it are trusted. Conditional rows whose
    cause state has marginal probability at the floor are skipped; their
    conditionals are undefined. ``tie_tol`` is checked before any work.
    """
    _require_tolerance(tie_tol, "tie_tol")
    table = joint.table
    p_row = np.add.reduce(table, axis=1)
    p_col = np.add.reduce(table, axis=0)
    fwd, bwd = p_row > PROB_FLOOR, p_col > PROB_FLOOR
    return _verdict(
        _entropy_bits(p_row),
        MarginalSet._trusted(table[fwd] / p_row[fwd, None]),
        _entropy_bits(p_col),
        MarginalSet._trusted(table[:, bwd].T / p_col[bwd, None]),
        tie_tol,
    )


def _verdict(
    s_cause_fwd: float,
    rows_fwd: MarginalSet,
    s_cause_bwd: float,
    rows_bwd: MarginalSet,
    tie_tol: float,
) -> CausalVerdict:
    """Both scores, cause entropy plus coupled effect rows: the one coupling site.
    ``tie_tol`` was checked where it entered (qeci_infer, classical_eci)."""
    s_exo_fwd, s_exo_bwd = [
        greedy_min_entropy_coupling(rows).entropy_bits for rows in (rows_fwd, rows_bwd)
    ]
    s_forward = s_cause_fwd + s_exo_fwd
    s_backward = s_cause_bwd + s_exo_bwd
    if s_forward < s_backward - tie_tol:
        direction = Direction.A_TO_B
    elif s_backward < s_forward - tie_tol:
        direction = Direction.B_TO_A
    else:
        direction = Direction.TIE
    return CausalVerdict(
        direction=direction,
        s_forward=s_forward,
        s_backward=s_backward,
        s_cause_fwd=s_cause_fwd,
        s_exo_fwd=s_exo_fwd,
        s_cause_bwd=s_cause_bwd,
        s_exo_bwd=s_exo_bwd,
    )
