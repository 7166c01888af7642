"""On-disk formats: density files, joint tables, marginal rows, CSV emission."""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .causal import JointDistribution
from .coupling import MarginalSet
from .density import DEFAULT_TOL, DensityMatrix, validate_density


class FileFormatError(ValueError):
    """Input file does not parse as the expected document."""


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # float() of a JSON integer beyond float range raises OverflowError
    return isinstance(value, float) or _is_int(value) and abs(value) <= sys.float_info.max


def _entry(cell) -> complex:
    if not isinstance(cell, list) or len(cell) != 2 or not all(map(_is_number, cell)):
        raise ValueError(f"{cell!r} is not an [re, im] pair")
    return complex(*cell)


def load_density_file(path: str, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Parse a density file: {"dims": [...], "matrix": [[[re, im], ...], ...]}.

    Validation failures (hermiticity, trace, positivity) propagate as the
    density module's exceptions; structural problems raise FileFormatError.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise FileFormatError(f"{path}: expected an object with 'dims' and 'matrix'")
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(_is_int(d) and d > 0 for d in dims):
        raise FileFormatError(f"{path}: 'dims' must be an array of positive integers")
    raw = doc["matrix"]
    try:
        mat = np.array([[_entry(cell) for cell in row] for row in raw], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: matrix entries must be [re, im] pairs") from exc
    if mat.ndim != 2:
        raise FileFormatError(f"{path}: matrix rows have unequal lengths")
    return validate_density(mat, dims, tol)


def density_payload(rho: DensityMatrix) -> dict:
    return {
        "dims": list(rho.dims),
        "matrix": [
            [[float(cell.real), float(cell.imag)] for cell in row] for row in rho.mat
        ],
    }


def dump_density(rho: DensityMatrix) -> str:
    return json.dumps(density_payload(rho), indent=2)


def load_table_file(path: str) -> JointDistribution:
    """Parse a joint probability table: a JSON array of equal-length rows of numbers."""
    doc = _load_json(path)
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise FileFormatError(f"{path}: expected an array of table rows")
    if not all(_is_number(v) for row in doc for v in row):
        raise FileFormatError(f"{path}: table rows must hold only numbers")
    try:
        table = np.array(doc, dtype=float)
    except ValueError as exc:
        raise FileFormatError(f"{path}: expected a rectangular array of numbers") from exc
    if table.ndim != 2:
        raise FileFormatError(f"{path}: expected a 2-D table, got shape {table.shape}")
    return JointDistribution.from_table(table)


def load_marginal_rows(path: str) -> MarginalSet:
    """Parse marginal rows: a JSON array of probability vectors."""
    doc = _load_json(path)
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise FileFormatError(f"{path}: expected an array of probability rows")
    if len(doc) < 2:
        raise FileFormatError(f"{path}: need at least 2 rows, got {len(doc)}")
    if not all(_is_number(v) for row in doc for v in row):
        raise FileFormatError(f"{path}: probability rows must hold only numbers")
    return MarginalSet.from_rows(doc)


def table_to_csv(joint: JointDistribution) -> str:
    """Joint table as CSV with a y-label header row; LF line endings."""
    table = joint.table
    header = ",".join(f"y{j}" for j in range(table.shape[1]))
    lines = [header]
    for row in table:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"
