"""Causal direction inference for joint densities and joint distributions."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coupling import MarginalSet, greedy_min_entropy_coupling, shannon_entropy
from .density import (
    DensityMatrix,
    _block_spectra,
    _conditional_blocks,
    validate_density,
    von_neumann_entropy,
)
from .linalg import DimensionMismatch, partial_trace, require_finite

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
        require_finite(t, "joint table")
        if (t < -1e-12).any():
            raise ValueError(f"joint table has negative entry {t.min():.3e}")
        t = np.clip(t, 0.0, None)
        with np.errstate(over="ignore"):  # a table of huge entries sums to inf
            total = float(t.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint table sums to {total!r}, not 1")
        t.setflags(write=False)
        return cls(table=t)


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

    ``reduced`` is the validated cause-side reduced density. Column i of
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
    """Validated reduced density of side ``label`` ("A" or "B").

    Built and validated (one eigendecomposition) on the first call for a
    joint, then read from the joint's memo. Warns with DegeneracyWarning on
    every call, at ``stacklevel`` counted from this function, when its
    eigenbasis is not unique.
    """
    if len(rho_ab.dims) != 2:
        raise DimensionMismatch(f"need a bipartite density, got dims {rho_ab.dims}")
    reduced = rho_ab._reduced_memo.get(label)
    if reduced is None:
        dim_a, dim_b = rho_ab.dims
        traced, dim = ("B", dim_a) if label == "A" else ("A", dim_b)
        reduced = validate_density(partial_trace(rho_ab.mat, dim_a, dim_b, traced), (dim,))
        rho_ab._reduced_memo[label] = reduced
    if (-np.diff(reduced.eig.eigenvalues) < DEGENERACY_GAP).any():
        warnings.warn(
            f"reduced density of side {label} has near-degenerate eigenvalues; "
            "the conditioning eigenbasis is not unique",
            DegeneracyWarning,
            stacklevel=stacklevel,
        )
    return reduced


def _cause_side(rho_ab: DensityMatrix, direction: str) -> CauseSide:
    """Cause side of one direction, with all effect conditionals at once.

    The cause-side reduced density is validated, which eigendecomposes it
    once; its eigenkets above the branch floor are the branches. All
    conditionals come from one contraction of the joint and all their
    spectra from one stacked eigvalsh.
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
    rows = MarginalSet.from_rows(_block_spectra(blocks, weights))
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

    Conditional rows whose cause state has marginal probability at the floor
    are skipped; their conditionals are undefined.
    """
    table = joint.table
    p_row = table.sum(axis=1)
    p_col = table.sum(axis=0)
    if p_row.max() <= BRANCH_FLOOR or p_col.max() <= BRANCH_FLOOR:
        raise ValueError("degenerate joint table: a marginal carries no mass")
    fwd, bwd = p_row > BRANCH_FLOOR, p_col > BRANCH_FLOOR
    fwd_rows = table[fwd] / p_row[fwd, None]
    bwd_rows = table[:, bwd].T / p_col[bwd, None]
    s_cause_fwd = shannon_entropy(p_row)
    s_cause_bwd = shannon_entropy(p_col)
    s_exo_fwd = greedy_min_entropy_coupling(MarginalSet.from_rows(fwd_rows)).entropy_bits
    s_exo_bwd = greedy_min_entropy_coupling(MarginalSet.from_rows(bwd_rows)).entropy_bits
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
