"""Causal direction inference for joint densities and joint distributions."""

from __future__ import annotations

import math
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
    _cause_first,
    _conditional_blocks,
    _joint_dims,
    _wrap,
)
from .linalg import (
    DEGENERACY_GAP,
    PROB_FLOOR,
    TIE_TOL,
    EigenDecomposition,
    _require_tolerance,
    _smallest,
    hermitian_eig,
    partial_trace,
)

# per cause side: the subsystem traced out of the joint
_TRACED = {"A": "B", "B": "A"}
_DEGENERATE = (
    "reduced density of side {} has near-degenerate eigenvalues; "
    "the conditioning eigenbasis is not unique"
)


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

    @classmethod
    def _trusted(cls, table: np.ndarray) -> "JointDistribution":
        """A 2-D table the library built as a probability table, kept unchecked and
        made read-only; the counterpart of MarginalSet._trusted."""
        table.setflags(write=False)
        joint = object.__new__(cls)
        object.__setattr__(joint, "table", table)
        return joint


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


@dataclass(frozen=True, eq=False)
class _Pass:
    """The record of one verdict pass over sides of ``rho_ab``, built by _reduced.

    ``rho_ab.dims`` passed the bipartite rule; ``reduced`` holds the sides'
    reduced densities by label ("A" or "B"), in side order, ``degenerate`` the
    labels of those that failed the eigen-gap test. ``sides`` is computed on first read
    and kept, ``verdict`` from it, so a conditioning error raises there, after any warning.
    """

    rho_ab: DensityMatrix
    reduced: dict[str, DensityMatrix]
    degenerate: list[str]

    @property
    def sides(self) -> list[CauseSide]:
        """Each side's _cause_first tensor conditioned on _branch_kets, through _by_side; kept
        by hand, as functools.cached_property locks each first read before Python 3.12."""
        if "sides" not in self.__dict__:
            kets = [_branch_kets(density) for density in self.reduced.values()]
            tensors = [_cause_first(self.rho_ab.mat, self.rho_ab.dims, s) for s in self.reduced]
            outs = _by_side(_conditioned, tensors, kets)
            self.__dict__["sides"] = [
                CauseSide(density, ket, weights, blocks, MarginalSet._trusted(rows))
                for density, ket, (blocks, weights, rows) in zip(self.reduced.values(), kets, outs)
            ]
        return self.__dict__["sides"]

    def verdict(self, tie_tol: float = TIE_TOL) -> CausalVerdict:
        """The verdict of a pass over sides ("A", "B"), forward then backward, per call:
        each side's reduced spectrum and conditional rows, scored by _verdict."""
        return _verdict([(side.reduced.eig.eigenvalues, side.rows) for side in self.sides], tie_tol)


def _by_side(kernel, *arrays) -> list[tuple]:
    """The stacking rule: each side's outputs of ``kernel``, ``arrays`` one list per argument.

    More than one side whose arrays all share their shapes go as one call on
    the np.array stacks (as np.stack, with less overhead), each output split
    back along axis 0; any other side goes alone, as a matrix. The kernels
    act on a stack as on each of its matrices alone, bit for bit.
    """
    if len(arrays[0]) > 1 and all(a.shape == arg[0].shape for arg in arrays for a in arg[1:]):
        return list(zip(*kernel(*[np.array(arg) for arg in arrays])))
    return [kernel(*side) for side in zip(*arrays)]


def _decomposed(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig of library-built reduced densities, as given, as (values, vectors)."""
    eig = hermitian_eig(h, herm_tol=math.inf)
    return eig.eigenvalues, eig.eigenvectors


def _reduced(rho_ab: DensityMatrix, labels=("A", "B")) -> _Pass:
    """The reduced stage of a verdict pass over sides ``labels``, each "A" or "B": its record.

    Checks the bipartite rule once. Sides not in the joint's memo are decomposed through
    _by_side and wrapped with _wrap's PSD check, clamp and renormalization but no dims or
    trace check (a partial trace of a validated joint is exactly Hermitian, its trace one
    within TRACE_ROUNDING), then gap-tested and memoized. Nothing warns here (see _warned).
    """
    dims = _joint_dims(rho_ab)
    memo = rho_ab._memo
    missing = [label for label in labels if label not in memo]
    if missing:
        traced = [partial_trace(rho_ab.mat, *dims, _TRACED[label]) for label in missing]
        for label, h, eig in zip(missing, traced, _by_side(_decomposed, traced)):
            reduced = _wrap(h, h.shape[:1], eig=EigenDecomposition(*eig))
            values = reduced.eig.eigenvalues
            gaps = values[:-1] - values[1:]
            memo[label] = (reduced, bool(gaps.size) and _smallest(gaps) < DEGENERACY_GAP)
    degenerate = [label for label in labels if memo[label][1]]
    return _Pass(rho_ab, {label: memo[label][0] for label in labels}, degenerate)


def _warned(run: _Pass) -> _Pass:
    """The one DegeneracyWarning site: each degenerate side of ``run`` warns, in
    side order, at the line that called the public function that called this."""
    for label in run.degenerate:
        warnings.warn(_DEGENERATE.format(label), DegeneracyWarning, stacklevel=3)
    return run


def _branch_kets(reduced: DensityMatrix) -> np.ndarray:
    """Eigenkets of a reduced density above PROB_FLOOR, the branch floor, as columns."""
    values, vectors = reduced.eig.eigenvalues, reduced.eig.eigenvectors
    # descending: when the smallest is above the floor, every eigenket is a branch
    return vectors if values[-1] > PROB_FLOOR else vectors[:, values > PROB_FLOOR]


def _conditioned(r: np.ndarray, kets: np.ndarray) -> tuple[np.ndarray, ...]:
    """Blocks and weights of ``r`` conditioned on ``kets``, then the blocks' spectra."""
    blocks, weights = _conditional_blocks(r, kets)
    return blocks, weights, _block_spectra(blocks, weights)


def conditional_spectra(rho_ab: DensityMatrix, direction: str) -> MarginalSet:
    """Spectra of the effect-side conditionals, one row per cause eigenbranch.

    The cause-side reduced density is eigendecomposed; for every eigenvalue
    above the branch floor, the effect side is conditioned on that eigenket
    and the conditional's eigenvalue spectrum (descending) becomes one row.
    """
    label = {"forward": "A", "backward": "B"}.get(direction)
    if label is None:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    return _warned(_reduced(rho_ab, (label,))).sides[0].rows


def qeci_infer(rho_ab: DensityMatrix, tie_tol: float = TIE_TOL) -> CausalVerdict:
    """Infer the causal direction between the two subsystems of a joint density.

    Scores each direction by the entropy of the cause-side reduced density
    plus the greedily coupled entropy of the effect-side conditional spectra,
    and prefers the smaller score. One pass (_Pass) builds both reduced
    densities, warns for each degenerate one, then conditions both sides,
    stacked or alone by _by_side's rule. ``tie_tol`` is checked first.
    """
    _require_tolerance(tie_tol, "tie_tol")
    return _warned(_reduced(rho_ab)).verdict(tie_tol)


def classical_eci(joint: JointDistribution, tie_tol: float = TIE_TOL) -> CausalVerdict:
    """Classical counterpart of qeci_infer, scoring a joint probability table.

    The table was checked when ``joint`` was built, so it and the directions
    _table_side derives from it, the rows as cause then the columns, are
    trusted. ``tie_tol`` is checked before any work.
    """
    _require_tolerance(tie_tol, "tie_tol")
    table = joint.table
    p_row = np.add.reduce(table, axis=1)
    p_col = np.add.reduce(table, axis=0)
    return _verdict([_table_side(table, p_row), _table_side(table.T, p_col)], tie_tol)


def _table_side(table: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, MarginalSet]:
    """A table's direction, its rows indexing the cause of marginal ``p``: ``p`` and the rows
    of states above PROB_FLOOR over their probability (a state at the floor has no
    conditional); the table's counterpart of _cause_first. When every state clears the
    floor, the usual case, the whole table is divided, with no mask."""
    if _smallest(p) > PROB_FLOOR:
        return p, MarginalSet._trusted(table / p[:, None])
    kept = p > PROB_FLOOR
    return p, MarginalSet._trusted(table[kept] / p[kept, None])


def _verdict(sides: list[tuple[np.ndarray, MarginalSet]], tie_tol: float) -> CausalVerdict:
    """Both scores, forward then backward, each from a (cause distribution, conditional rows)
    pair of ``sides``: the distribution's entropy plus the rows' coupled entropy, the one
    scoring site. ``tie_tol`` was checked where it entered (qeci_infer, classical_eci)."""
    (s_cause_fwd, s_exo_fwd), (s_cause_bwd, s_exo_bwd) = [
        (_entropy_bits(p), greedy_min_entropy_coupling(rows).entropy_bits) for p, rows in sides
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
