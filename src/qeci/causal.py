"""Causal direction inference for joint densities and joint distributions."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coupling import (
    MarginalError,
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
from .linalg import DimensionMismatch, _smallest, _stack, partial_trace

TIE_TOL = 1e-9
BRANCH_FLOOR = 1e-12
DEGENERACY_GAP = 1e-8
# per cause side: the subsystem traced out of the joint, and the one conditioned
_TRACED = {"A": "B", "B": "A"}
_CONDITIONED = {"A": "first", "B": "second"}


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


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability table; rows index the first variable."""

    table: np.ndarray

    @classmethod
    def from_table(cls, table) -> "JointDistribution":
        t = np.asarray(table, dtype=float)
        if t.ndim != 2:
            raise ValueError(f"joint table must be 2-D, got shape {t.shape}")
        flat = _probability_rows(t.reshape(1, -1), "joint table", "joint table", ValueError)
        return cls(table=flat.reshape(t.shape))


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


@dataclass(frozen=True)
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


def _reduced(rho_ab: DensityMatrix, labels: tuple[str, ...]) -> list[DensityMatrix]:
    """Reduced densities of sides ``labels``, each "A" or "B", all of one dimension.

    Each is built on the first request for a joint, those built together
    decomposed by one hermitian_eig call, and its eigen-gaps tested then;
    both are kept in the joint's memo. They are not validated: the partial
    trace of a validated joint is exactly Hermitian with a trace within
    1e-15 of one. Does not warn; see _sides.
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
    return [memo[label][0] for label in labels]


def _branch_kets(reduced: DensityMatrix) -> np.ndarray:
    """Eigenkets of a reduced density above the branch floor, as columns."""
    values, vectors = reduced.eig.eigenvalues, reduced.eig.eigenvectors
    # descending: when the smallest is above the floor, every eigenket is a branch
    return vectors if values[-1] > BRANCH_FLOOR else vectors[:, values > BRANCH_FLOOR]


def _condition(
    rho_ab: DensityMatrix, labels: tuple[str, ...], reduced: list[DensityMatrix]
) -> list[CauseSide]:
    """Cause sides ``labels`` ("A" forward, "B" backward), of one dimension, as one stack.

    Side A conditions the joint's cause-first tensor r[c, k, c', l], side B
    its transpose r.transpose(1, 0, 3, 2), on the eigenkets of its reduced
    density above the branch floor: one block contraction and one stacked
    eigvalsh for all their spectra, clamped and normalized. Sides that keep
    different branch counts are conditioned as stacks of one.
    """
    kets = [_branch_kets(density) for density in reduced]
    if len(kets) > 1 and kets[0].shape != kets[1].shape:
        pairs = zip(labels, reduced)
        return [_condition(rho_ab, (label,), [density])[0] for label, density in pairs]
    tensors = [_cause_first(rho_ab, _CONDITIONED[label]) for label in labels]
    blocks, weights = _conditional_blocks(_stack(tensors), _stack(kets))
    spectra = _block_spectra(blocks, weights)
    return [
        CauseSide(density, kets[i], weights[i], blocks[i], MarginalSet(rows=spectra[i]))
        for i, density in enumerate(reduced)
    ]


def _sides(
    rho_ab: DensityMatrix, labels: tuple[str, ...], stacklevel: int, condition=None
) -> list:
    """Reduced densities of sides ``labels``, or ``condition(rho_ab, labels, reduced)``.

    One result per side. When the sides share a dimension (both sides of a
    d x d joint) they are computed in one stacked pass, and then each side
    whose eigenbasis is not unique warns with DegeneracyWarning, in side
    order, at ``stacklevel`` counted from here. Otherwise, or when the
    stacked pass fails, the sides run one at a time, each warning once its
    reduced density is built; the warnings and the error are then those of
    that side-by-side pass, in which the first side to fail stops the rest.
    (numpy's own floating-point warnings, which only a joint with
    non-finite entries built around _wrap raises here, come from the failed
    stacked attempt too.)
    """
    if len(labels) > 1 and len(set(rho_ab.dims)) == 1:
        try:
            out = _reduced(rho_ab, labels)
            if condition is not None:
                out = condition(rho_ab, labels, out)
        except Exception:  # whatever it was, the side-by-side pass raises it again
            pass
        else:
            for label in labels:
                _warn(rho_ab, label, stacklevel + 1)
            return out
    out = []
    for label in labels:
        reduced = _reduced(rho_ab, (label,))
        _warn(rho_ab, label, stacklevel + 1)
        out += reduced if condition is None else condition(rho_ab, (label,), reduced)
    return out


def _warn(rho_ab: DensityMatrix, label: str, stacklevel: int) -> None:
    """Warn, at ``stacklevel`` counted from here, if the eigenbasis of side
    ``label``'s reduced density, already built, is not unique."""
    if rho_ab._memo[label][1]:
        warnings.warn(
            f"reduced density of side {label} has near-degenerate eigenvalues; "
            "the conditioning eigenbasis is not unique",
            DegeneracyWarning,
            stacklevel=stacklevel,
        )


def _cause_side(rho_ab: DensityMatrix, direction: str) -> CauseSide:
    """Cause side of one direction, with all effect conditionals at once.

    The stacked pass of _condition on a stack of one: the cause-side reduced
    density is eigendecomposed once; its eigenkets above the branch floor are
    the branches.
    """
    label = {"forward": "A", "backward": "B"}.get(direction)
    if label is None:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    # stacklevel 4 names the line that called conditional_spectra
    return _sides(rho_ab, (label,), 4, _condition)[0]


def _cause_sides(rho_ab: DensityMatrix) -> list[CauseSide]:
    """Forward and backward cause sides, in one stacked pass for a d x d joint."""
    # stacklevel 4 names the line that called qeci_infer
    return _sides(rho_ab, ("A", "B"), 4, _condition)


def conditional_spectra(rho_ab: DensityMatrix, direction: str) -> MarginalSet:
    """Spectra of the effect-side conditionals, one row per cause eigenbranch.

    The cause-side reduced density is eigendecomposed; for every eigenvalue
    above the branch floor, the effect side is conditioned on that eigenket
    and the conditional's eigenvalue spectrum (descending) becomes one row.
    """
    return _cause_side(rho_ab, direction).rows


def qeci_infer(rho_ab: DensityMatrix, tie_tol: float = TIE_TOL) -> CausalVerdict:
    """Infer the causal direction between the two subsystems of a joint density.

    Scores each direction by the entropy of the cause-side reduced density
    plus the greedily coupled entropy of the effect-side conditional spectra,
    and prefers the smaller score. For a d x d joint both directions are
    conditioned in one stacked pass: the two reduced densities are
    decomposed by one hermitian_eig call, and both sides' conditionals taken
    by one block contraction and one stacked eigvalsh; otherwise each side
    is a stack of one.
    """
    return _score(*_cause_sides(rho_ab), tie_tol)


def _score(fwd: CauseSide, bwd: CauseSide, tie_tol: float = TIE_TOL) -> CausalVerdict:
    return _verdict(
        von_neumann_entropy(fwd.reduced),
        greedy_min_entropy_coupling(fwd.rows).entropy_bits,
        von_neumann_entropy(bwd.reduced),
        greedy_min_entropy_coupling(bwd.rows).entropy_bits,
        tie_tol,
    )


def classical_eci(joint: JointDistribution, tie_tol: float = TIE_TOL) -> CausalVerdict:
    """Classical counterpart of qeci_infer, scoring a joint probability table.

    The table is checked once, as a probability vector (MarginalError), since
    a JointDistribution built directly is not validated; the marginals and
    conditionals derived from it are then trusted. Conditional rows whose
    cause state has marginal probability at the floor are skipped; their
    conditionals are undefined.
    """
    cells = np.asarray(joint.table, dtype=float)
    flat = _probability_rows(cells.reshape(1, -1), "joint table", "joint table", MarginalError)
    table = flat.reshape(cells.shape)
    p_row = np.add.reduce(table, axis=1)
    p_col = np.add.reduce(table, axis=0)
    fwd, bwd = p_row > BRANCH_FLOOR, p_col > BRANCH_FLOOR
    fwd_rows = table[fwd] / p_row[fwd, None]
    bwd_rows = table[:, bwd].T / p_col[bwd, None]
    s_cause_fwd = _entropy_bits(p_row[p_row > 0.0])
    s_cause_bwd = _entropy_bits(p_col[p_col > 0.0])
    s_exo_fwd = greedy_min_entropy_coupling(MarginalSet(rows=fwd_rows)).entropy_bits
    s_exo_bwd = greedy_min_entropy_coupling(MarginalSet(rows=bwd_rows)).entropy_bits
    return _verdict(s_cause_fwd, s_exo_fwd, s_cause_bwd, s_exo_bwd, tie_tol)


def _verdict(
    s_cause_fwd: float,
    s_exo_fwd: float,
    s_cause_bwd: float,
    s_exo_bwd: float,
    tie_tol: float,
) -> CausalVerdict:
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
