"""Greedy minimum-entropy coupling of probability marginals and helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .density import DensityMatrix, validate_density
from .linalg import DimensionMismatch, kron, require_finite

MASS_FLOOR = 1e-12
ROW_SUM_TOL = 1e-9
NEGATIVE_CLAMP = 1e-12


class MarginalError(ValueError):
    """Marginal rows are not valid probability vectors."""


class Placement(NamedTuple):
    """One mass of the coupling: a coordinate per marginal row, and its weight."""

    coords: tuple[int, ...]
    mass: float


@dataclass(frozen=True)
class MarginalSet:
    """Stack of probability vectors, zero-padded to a common length."""

    rows: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "MarginalSet":
        rows = [np.asarray(r, dtype=float).reshape(-1) for r in rows]
        if not rows:
            raise MarginalError("need at least one marginal row")
        width = max(r.shape[0] for r in rows)
        padded = np.zeros((len(rows), width), dtype=float)
        for i, r in enumerate(rows):
            require_finite(r, f"marginal row {i}")
            if (r < -NEGATIVE_CLAMP).any():
                raise MarginalError(
                    f"row {i} has entry {r.min():.3e} below -{NEGATIVE_CLAMP:.1e}"
                )
            r = np.clip(r, 0.0, None)
            if abs(r.sum() - 1.0) > ROW_SUM_TOL:
                raise MarginalError(f"row {i} sums to {r.sum()!r}, not 1")
            padded[i, : r.shape[0]] = r
        padded.setflags(write=False)
        return cls(rows=padded)


@dataclass(frozen=True)
class CouplingResult:
    entropy_bits: float
    placements: tuple[Placement, ...]


def shannon_entropy(p) -> float:
    """Entropy of a probability vector in bits, with 0 log 0 = 0."""
    arr = np.asarray(p, dtype=float).reshape(-1)
    require_finite(arr, "probability vector")
    if (arr < -NEGATIVE_CLAMP).any():
        raise MarginalError(f"negative probability {arr.min():.3e}")
    arr = np.clip(arr, 0.0, None)
    if abs(arr.sum() - 1.0) > 1e-6:
        raise MarginalError(f"probabilities sum to {arr.sum()!r}, not 1")
    # adding 0.0 turns the -0.0 of a point mass into +0.0
    return float(-sum(v * math.log2(v) for v in arr if v > 0.0)) + 0.0


def greedy_min_entropy_coupling(marginals: MarginalSet) -> CouplingResult:
    """Greedy coupling: repeatedly place the smallest of the rows' current maxima.

    Each round reads r as the minimum over rows of that row's largest
    remaining entry, records one placement of mass r at the argmax coordinate
    of every row (lowest index on ties), and subtracts r from those maxima.
    Rounds stop once r falls to the mass floor; the recorded masses are then
    renormalized to absorb the floating-point residue.
    """
    rows = np.array(marginals.rows, dtype=float)
    nrows = rows.shape[0]
    row_idx = np.arange(nrows)
    placements: list[Placement] = []
    while True:
        argmaxes = rows.argmax(axis=1)
        r = float(rows[row_idx, argmaxes].min())
        if r <= MASS_FLOOR:
            break
        placements.append(Placement(tuple(int(j) for j in argmaxes), r))
        rows[row_idx, argmaxes] -= r
    total = sum(p.mass for p in placements)
    if total <= 0.0:
        raise MarginalError("no probability mass to couple")
    placements = [Placement(p.coords, p.mass / total) for p in placements]
    # adding 0.0 turns the -0.0 of a single placement into +0.0
    entropy = -sum(p.mass * math.log2(p.mass) for p in placements) + 0.0
    return CouplingResult(entropy_bits=float(entropy), placements=tuple(placements))


def coupling_to_joint_density(
    result: CouplingResult, eigvecs_per_marginal
) -> DensityMatrix:
    """Assemble the joint density whose placements ride on given orthonormal bases.

    ``eigvecs_per_marginal`` holds one matrix per marginal, columns being that
    marginal's orthonormal vectors; placement coordinates index those columns.
    """
    bases = [np.asarray(v, dtype=complex) for v in eigvecs_per_marginal]
    dims = tuple(b.shape[0] for b in bases)
    full_dim = math.prod(dims)
    out = np.zeros((full_dim, full_dim), dtype=complex)
    for coords, mass in result.placements:
        if len(coords) != len(bases):
            raise DimensionMismatch(
                f"placement has {len(coords)} coordinates for {len(bases)} bases"
            )
        for k, j in enumerate(coords):
            if not 0 <= j < bases[k].shape[1]:
                raise DimensionMismatch(f"coordinate {j} out of range for basis {k}")
        ket = reduce(kron, (bases[k][:, j] for k, j in enumerate(coords)))
        out += mass * np.outer(ket, ket.conj())
    return validate_density(out, dims)


def bruteforce_coupling_2rows(p, q, grid_steps: int) -> float:
    """Grid-search oracle for the minimum joint entropy of two 2-state marginals.

    The 2x2 transportation polytope is the segment
    t in [max(0, p0+q0-1), min(p0, q0)] with joint masses
    (t, p0-t, q0-t, 1-p0-q0+t); the minimum entropy over a uniform grid of
    grid_steps+1 points (endpoints included) is returned, in bits.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    for name, row in (("p", p), ("q", q)):
        if row.shape[0] != 2:
            raise MarginalError(f"{name} must have exactly 2 states")
        if (row < -NEGATIVE_CLAMP).any() or abs(row.sum() - 1.0) > ROW_SUM_TOL:
            raise MarginalError(f"{name} is not a valid 2-state marginal")
    p0, q0 = float(p[0]), float(q[0])
    lo = max(0.0, p0 + q0 - 1.0)
    hi = min(p0, q0)
    ts = np.linspace(lo, hi, grid_steps + 1)
    masses = np.stack([ts, p0 - ts, q0 - ts, 1.0 - p0 - q0 + ts])
    masses = np.clip(masses, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(masses > 0.0, masses * np.log2(masses), 0.0)
    entropies = -terms.sum(axis=0)
    return float(entropies.min())
