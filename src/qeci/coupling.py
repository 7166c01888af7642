"""Greedy minimum-entropy coupling of probability marginals and helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .density import DensityMatrix, validate_density
from .linalg import DimensionMismatch, _largest, _smallest, kron

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
        padded = np.zeros((len(rows), max(r.shape[0] for r in rows)))
        for i, r in enumerate(rows):
            padded[i, : r.shape[0]] = r
        return cls(rows=_probability_rows(padded, "marginal set", "row {}", MarginalError))


def _probability_rows(stack: np.ndarray, what: str, row_name: str, error: type) -> np.ndarray:
    """The rows of a 2-D float stack, checked as probability vectors.

    The one probability-vector check: rows must hold no entry below
    -NEGATIVE_CLAMP and, clamped at zero, sum to one within ROW_SUM_TOL; no
    row with a nan or inf entry passes both. Raises ``error`` naming ``what``
    for a non-finite entry, else ``row_name.format(i)`` for the first
    failing row i. Returns the clamped stack, read-only.
    """
    low = _smallest(stack) if stack.size else 0.0  # nan if any entry is nan
    rows = np.maximum(stack, 0.0)
    with np.errstate(over="ignore"):  # a row of huge entries sums to inf
        sums = np.add.reduce(rows, axis=1)
    misfit = abs(sums - 1.0)
    if low >= -NEGATIVE_CLAMP and _largest(misfit) <= ROW_SUM_TOL:
        rows.setflags(write=False)
        return rows
    if not np.isfinite(stack).all():
        raise error(f"{what} contains non-finite entries")
    if low < -NEGATIVE_CLAMP:
        low = stack.min(axis=1)
        i = int((low < -NEGATIVE_CLAMP).argmax())
        raise error(f"{row_name.format(i)} has entry {low[i]:.3e} below -{NEGATIVE_CLAMP:.1e}")
    i = int((misfit > ROW_SUM_TOL).argmax())
    raise error(f"{row_name.format(i)} sums to {float(sums[i])!r}, not 1")


@dataclass(frozen=True, eq=False)
class CouplingResult:
    """A greedy coupling: its entropy, and its placements as two read-only arrays.

    Row i of ``coords`` (ints, one column per marginal row) and ``masses[i]``
    (normalized) are the i-th placement, in the order the rounds placed them.
    """

    entropy_bits: float
    coords: np.ndarray
    masses: np.ndarray

    @property
    def placements(self) -> tuple[Placement, ...]:
        """The placements as Placement tuples of plain ints and floats, built on each read."""
        return tuple(map(Placement, map(tuple, self.coords.tolist()), self.masses.tolist()))


def _entropy_bits(masses: np.ndarray) -> float:
    """Entropy in bits of strictly positive masses; +0.0, not -0.0, for a point mass."""
    return -float(masses @ np.log2(masses)) + 0.0


def shannon_entropy(p) -> float:
    """Entropy of a probability vector in bits, with 0 log 0 = 0."""
    stack = np.asarray(p, dtype=float).reshape(1, -1)
    arr = _probability_rows(stack, "probability vector", "probability vector", MarginalError)[0]
    return _entropy_bits(arr[arr > 0.0])


def greedy_min_entropy_coupling(marginals: MarginalSet) -> CouplingResult:
    """Greedy coupling: repeatedly place the smallest of the rows' current maxima.

    Each round takes every row's argmax over the full row (lowest index on
    ties) as flat cell indices, reads r as the smallest of those maxima (by
    argmin, which returns the first nan if there is one), records one
    placement of mass r there and subtracts r from them. Rounds stop once r
    is not a finite mass above the floor, so a nan or inf r stops them
    before any subtraction; the masses are then renormalized by their
    sequential sum to absorb the floating-point residue. The rows are not
    checked: a MarginalSet built directly is trusted to hold probability
    vectors.
    """
    rows = np.array(marginals.rows, dtype=float, order="C")  # flat must view rows
    flat = rows.reshape(-1)
    # step 1 at zero width, where argmax raises ValueError next
    offsets = np.arange(0, rows.size, rows.shape[1] or 1)
    picks, masses = [], []
    while True:
        argmaxes = rows.argmax(axis=1)
        cells = argmaxes + offsets
        tops = flat[cells]
        r = tops.item(tops.argmin())  # a ufunc reduce costs ~4x this on a short stack
        if not MASS_FLOOR < r < math.inf:
            break
        flat[cells] = tops - r
        picks.append(argmaxes)
        masses.append(r)
    total = sum(masses)  # the masses are Python floats, summed in placement order
    if not 0.0 < total < math.inf:  # no round placed mass, or the masses overflowed
        raise MarginalError("no probability mass to couple")
    masses = np.array(masses) / total
    coords = np.array(picks)
    coords.setflags(write=False)
    masses.setflags(write=False)
    return CouplingResult(entropy_bits=_entropy_bits(masses), coords=coords, masses=masses)


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
    p, q = (np.asarray(row, dtype=float).reshape(1, -1) for row in (p, q))
    for name, row in (("p", p), ("q", q)):
        if row.shape[1] != 2:
            raise MarginalError(f"{name} must have exactly 2 states")
        _probability_rows(row, name, name, MarginalError)
    p0, q0 = float(p[0, 0]), float(q[0, 0])
    lo = max(0.0, p0 + q0 - 1.0)
    hi = min(p0, q0)
    ts = np.linspace(lo, hi, grid_steps + 1)
    masses = np.maximum(np.stack([ts, p0 - ts, q0 - ts, 1.0 - p0 - q0 + ts]), 0.0)
    logs = np.log2(masses, out=np.zeros_like(masses), where=masses > 0.0)  # 0 log 0 = 0
    return float(np.min(-(masses * logs).sum(axis=0)))
