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
    _build_density,
    _conditional_blocks,
    von_neumann_entropy,
)
from .linalg import DimensionMismatch, _smallest, partial_trace

TIE_TOL = 1e-9
BRANCH_FLOOR = 1e-12
DEGENERACY_GAP = 1e-8


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


def _reduced(rho_ab: DensityMatrix, label: str, stacklevel: int) -> DensityMatrix:
    """Reduced density of side ``label`` ("A" or "B").

    Built and decomposed once, on the first call for a joint, then read from
    the joint's memo. It is not validated: the partial trace of a validated
    joint is exactly Hermitian with a trace within 1e-15 of one. Warns with
    DegeneracyWarning on every call, at ``stacklevel`` counted from this
    function, when its eigenbasis is not unique.
    """
    if len(rho_ab.dims) != 2:
        raise DimensionMismatch(f"need a bipartite density, got dims {rho_ab.dims}")
    reduced = rho_ab._memo.get(label)
    if reduced is None:
        dim_a, dim_b = rho_ab.dims
        traced, dim = ("B", dim_a) if label == "A" else ("A", dim_b)
        reduced = _build_density(partial_trace(rho_ab.mat, dim_a, dim_b, traced), (dim,))
        rho_ab._memo[label] = reduced
    gaps = reduced.eig.eigenvalues[:-1] - reduced.eig.eigenvalues[1:]
    if gaps.size and _smallest(gaps) < DEGENERACY_GAP:
        warnings.warn(
            f"reduced density of side {label} has near-degenerate eigenvalues; "
            "the conditioning eigenbasis is not unique",
            DegeneracyWarning,
            stacklevel=stacklevel,
        )
    return reduced


def _cause_side(rho_ab: DensityMatrix, direction: str) -> CauseSide:
    """Cause side of one direction, with all effect conditionals at once.

    The cause-side reduced density is eigendecomposed once; its eigenkets
    above the branch floor are the branches. All conditionals come from one
    contraction of the joint and all their spectra, clamped and normalized,
    from one stacked eigvalsh.
    """
    if direction == "forward":
        label, side = "A", "first"
    elif direction == "backward":
        label, side = "B", "second"
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    # stacklevel 4 names the line that called qeci_infer or conditional_spectra
    reduced = _reduced(rho_ab, label, stacklevel=4)
    kets = reduced.eig.eigenvectors[:, reduced.eig.eigenvalues > BRANCH_FLOOR]
    blocks, weights = _conditional_blocks(rho_ab, kets, side)
    rows = MarginalSet(rows=_block_spectra(blocks, weights))
    return CauseSide(reduced=reduced, kets=kets, weights=weights, blocks=blocks, rows=rows)


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
    and prefers the smaller score.
    """
    return _score(_cause_side(rho_ab, "forward"), _cause_side(rho_ab, "backward"), tie_tol)


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
