"""Greedy minimum-entropy coupling of probability marginals and helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heapreplace
from typing import NamedTuple

import numpy as np

from .linalg import _largest, _smallest

MASS_FLOOR = 1e-12
ROW_SUM_TOL = 1e-9
NEGATIVE_CLAMP = 1e-12
# The most rows a set may have to be coupled on per-row heaps: timed per call
# against the numpy rounds, the heaps won at widths 2, 16 and 256 with up to
# 8 rows, and lost at width 256 from 12 rows on and at every width at 64.
_HEAP_ROWS = 8


class MarginalError(ValueError):
    """Marginal rows are not valid probability vectors."""


class Placement(NamedTuple):
    """One mass of the coupling: a coordinate per marginal row, and its weight."""

    coords: tuple[int, ...]
    mass: float


@dataclass(frozen=True, eq=False)
class MarginalSet:
    """Stack of probability vectors, zero-padded to a common length. Checked when
    built (MarginalError), it keeps the rows as C-ordered floats clamped at
    zero, read-only."""

    rows: np.ndarray

    def __post_init__(self):
        try:
            rows = np.ascontiguousarray(self.rows, dtype=float)
        except ValueError as exc:  # ragged rows, or entries that are not numbers
            msg = "marginal rows must be equal-length float rows; from_rows pads ragged rows"
            raise MarginalError(msg) from exc
        if rows.ndim != 2 or not rows.shape[0]:
            msg = f"marginal rows must be a non-empty 2-D stack, got shape {rows.shape}"
            raise MarginalError(msg)
        rows = _probability_rows(rows, "marginal set", "row {}", MarginalError)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows) -> "MarginalSet":
        rows = [np.asarray(r, dtype=float).reshape(-1) for r in rows]
        if not rows:
            raise MarginalError("need at least one marginal row")
        padded = np.zeros((len(rows), max(r.shape[0] for r in rows)))
        for i, r in enumerate(rows):
            padded[i, : r.shape[0]] = r
        return cls(rows=padded)

    @classmethod
    def _trusted(cls, rows: np.ndarray) -> "MarginalSet":
        """A set of rows the library built as probability vectors, kept unchecked
        and made read-only."""
        rows.setflags(write=False)
        marginals = object.__new__(cls)
        object.__setattr__(marginals, "rows", rows)
        return marginals


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
    The entropy and masses are computed when the result is built; ``coords``
    is replayed from the kept read-only rows on first read and cached.
    """

    entropy_bits: float
    masses: np.ndarray
    _rows: np.ndarray = field(repr=False)

    @cached_property
    def coords(self) -> np.ndarray:
        """The placements' cells: the greedy rounds replayed once on the kept rows."""
        picks = []
        _greedy_rounds(self._rows, picks)
        coords = np.array(picks)
        coords.setflags(write=False)
        return coords

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


def _greedy_rounds(rows: np.ndarray, picks: list | None = None) -> tuple[list[float], float]:
    """The greedy rounds on a copy of ``rows``: the masses in placement order and
    their left-to-right total; each round's argmaxes go to ``picks`` when given.

    Each round takes every row's argmax over the full row (lowest index on
    ties) as flat cell indices, reads r as the smallest of those maxima (by
    argmin, which returns the first nan if there is one), places mass r there
    and subtracts r from them. Rounds stop once r is not a finite mass above
    the floor, so a nan or inf r stops them before any subtraction. This
    loop couples sets of more than _HEAP_ROWS rows and sets holding a nan or
    inf, and it replays every set's placements; on the other sets,
    _greedy_masses gives the same masses and total with fewer calls.
    """
    rows = np.array(rows, dtype=float, order="C")  # flat must view rows
    flat = rows.reshape(-1)
    # step 1 at zero width, where argmax raises ValueError next
    offsets = np.arange(0, rows.size, rows.shape[1] or 1)
    masses, total = [], 0.0
    while True:
        argmaxes = rows.argmax(axis=1)
        cells = argmaxes + offsets
        tops = flat[cells]
        r = tops.item(tops.argmin())  # a ufunc reduce costs ~4x this on a short stack
        if not MASS_FLOOR < r < math.inf:
            break
        flat[cells] = tops - r
        if picks is not None:
            picks.append(argmaxes)
        masses.append(r)
        total += r  # not sum(masses), which compensates its rounding on Python >= 3.12
    return masses, total


def _greedy_masses(rows: np.ndarray) -> tuple[list[float], float]:
    """The masses and left-to-right total of _greedy_rounds(rows), by per-row heaps.

    Each row is a heap of its negated entries, so ``h[0]`` is minus the row's
    largest value. A round reads r as the smallest of those maxima and
    replaces each row's largest value t by ``r + h[0]``, which is -(t - r)
    bit for bit. Rows must be finite and of non-zero width. A round reads
    and changes only each row's largest value, so which of several equal
    maxima it takes changes the placements' cells, never the masses: each
    row holds the same values, round by round, as under _greedy_rounds.
    """
    heaps = (-rows).tolist()
    for h in heaps:
        heapify(h)
    masses, total = [], 0.0
    while True:
        r = -max(h[0] for h in heaps)
        if not MASS_FLOOR < r < math.inf:
            break
        for h in heaps:
            heapreplace(h, r + h[0])
        masses.append(r)
        total += r
    return masses, total


def greedy_min_entropy_coupling(marginals: MarginalSet) -> CouplingResult:
    """Greedy coupling: repeatedly place the smallest of the rows' current maxima.

    Runs the greedy rounds once, keeping only the masses, and renormalizes
    them by their left-to-right total to absorb the floating-point residue;
    raises MarginalError when no round placed mass. A set of at most
    _HEAP_ROWS rows whose largest entry is finite runs them on per-row heaps
    (_greedy_masses), a few Python operations per row and round; any other
    set runs the numpy rounds (_greedy_rounds), a few whole-set numpy calls
    per round. A round of either loop reads and lowers only each row's
    largest value, so both place the same masses bit for bit; they differ
    only in which of equal maxima they take, which moves cells, not masses.
    The result keeps ``marginals.rows`` and replays the numpy rounds for its
    ``coords`` (lowest index on ties) only when they are first read, so a
    caller that reads only the entropy pays for no placements. The rows are
    not checked again: a MarginalSet checks them when built, and the library
    builds its own sets only from probability rows.
    """
    rows = marginals.rows
    # argmax returns a nan first, so a set holding a nan or inf goes to numpy
    if rows.shape[0] <= _HEAP_ROWS and math.isfinite(_largest(rows)):
        masses, total = _greedy_masses(rows)
    else:
        masses, total = _greedy_rounds(rows)
    if not 0.0 < total < math.inf:  # no round placed mass, or the masses overflowed
        raise MarginalError("no probability mass to couple")
    masses = np.array(masses) / total
    masses.setflags(write=False)
    return CouplingResult(entropy_bits=_entropy_bits(masses), masses=masses, _rows=marginals.rows)
