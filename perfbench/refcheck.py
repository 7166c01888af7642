"""Independent reference for every verdict the benchmark checks, in numpy only.

Nothing here imports qeci. Reduced densities and effect-side conditionals are
contractions of the joint tensor, spectra come from ``np.linalg.eigh``, and the
coupling is a short greedy loop of its own, so a defect in the program's
eigensolver, conditioning or coupling shows up as a disagreement.
"""

from __future__ import annotations

import math

import numpy as np

# Agreement required between each program entropy and the reference, in bits.
# The program's Jacobi solver stops at 1e-10 relative off-diagonal mass; the
# largest disagreement seen on the benchmark inputs is 5.7e-10 bits
# (paper_sweeps), and 2e-10 bits on random_qudits.
ENTROPY_TOL = 1e-8
# The direction is checked only where the reference margin exceeds this: both
# scores within ENTROPY_TOL and the program's tie tolerance (1e-9) cannot flip
# a margin that large.
DIRECTION_MARGIN = 3 * ENTROPY_TOL
# Agreement required between a program-built joint density and the reference,
# entrywise. validate_density rebuilds a matrix whose smallest eigenvalue
# rounds below zero from its Jacobi eigenvectors, which moves entries by up to
# about 4e-12 (depolarizing p = 0.1); 1e-9 is the program's own validation
# tolerance.
JOINT_TOL = 1e-9
MASS_FLOOR = 1e-12
BRANCH_FLOOR = 1e-12


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    p = p[p > MASS_FLOOR]
    return float(-(p * np.log2(p)).sum())


def greedy_coupling(rows) -> tuple[float, int]:
    """Greedy minimum-entropy coupling: (entropy in bits, number of placements).

    Each round places the smallest of the rows' largest remaining masses and
    takes it off every row's largest entry.
    """
    rows = np.array(rows, dtype=float)
    idx = np.arange(rows.shape[0])
    masses = []
    while True:
        top = rows.argmax(axis=1)
        r = rows[idx, top].min()
        if r <= MASS_FLOOR:
            break
        masses.append(r)
        rows[idx, top] -= r
    masses = np.array(masses) / sum(masses)
    return entropy_bits(masses), len(masses)


def _eigh_desc(mat):
    values, vectors = np.linalg.eigh(mat)
    return values[::-1], vectors[:, ::-1]


def reduced_densities(rho, dim_a: int, dim_b: int):
    r = np.asarray(rho).reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("ikjk->ij", r), np.einsum("ikil->kl", r)


def conditional_rows(rho, dim_a: int, dim_b: int, cause: str):
    """Spectra of the effect-side conditionals, one row per cause eigenbranch."""
    r = np.asarray(rho).reshape(dim_a, dim_b, dim_a, dim_b)
    rho_a, rho_b = reduced_densities(rho, dim_a, dim_b)
    values, vectors = _eigh_desc(rho_a if cause == "A" else rho_b)
    pattern = "i,ikjl,j->kl" if cause == "A" else "k,ikjl,l->ij"
    rows = []
    for value, v in zip(values, vectors.T):
        if value <= BRANCH_FLOOR:
            continue
        block = np.einsum(pattern, v.conj(), r, v)
        spectrum = np.linalg.eigvalsh(block / np.trace(block).real)[::-1]
        rows.append(np.clip(spectrum, 0.0, None))
    return rows


def _scores(s_cause_fwd, fwd_rows, s_cause_bwd, bwd_rows) -> dict:
    s_exo_fwd = greedy_coupling(fwd_rows)[0]
    s_exo_bwd = greedy_coupling(bwd_rows)[0]
    return {
        "s_cause_fwd": s_cause_fwd,
        "s_exo_fwd": s_exo_fwd,
        "s_cause_bwd": s_cause_bwd,
        "s_exo_bwd": s_exo_bwd,
        "s_forward": s_cause_fwd + s_exo_fwd,
        "s_backward": s_cause_bwd + s_exo_bwd,
    }


def quantum_scores(rho, dim_a: int, dim_b: int) -> dict:
    rho = np.asarray(rho, dtype=complex)
    rho_a, rho_b = reduced_densities(rho, dim_a, dim_b)
    return _scores(
        entropy_bits(np.linalg.eigvalsh(rho_a)),
        conditional_rows(rho, dim_a, dim_b, "A"),
        entropy_bits(np.linalg.eigvalsh(rho_b)),
        conditional_rows(rho, dim_a, dim_b, "B"),
    )


def classical_scores(table) -> dict:
    t = np.asarray(table, dtype=float)
    p_row, p_col = t.sum(axis=1), t.sum(axis=0)
    fwd = [t[i] / p_row[i] for i in range(t.shape[0]) if p_row[i] > BRANCH_FLOOR]
    bwd = [t[:, j] / p_col[j] for j in range(t.shape[1]) if p_col[j] > BRANCH_FLOOR]
    return _scores(entropy_bits(p_row), fwd, entropy_bits(p_col), bwd)


def rotated_table(rho, dim_a: int, dim_b: int) -> np.ndarray:
    """Joint table read off the density in its descending marginal eigenbases."""
    rho_a, rho_b = reduced_densities(rho, dim_a, dim_b)
    u = np.kron(_eigh_desc(rho_a)[1], _eigh_desc(rho_b)[1])
    diag = np.clip(np.diag(u.conj().T @ rho @ u).real, 0.0, None)
    return (diag / diag.sum()).reshape(dim_a, dim_b)


def expected_direction(scores: dict) -> str | None:
    """'AtoB', 'BtoA', or None where the margin is too small to call."""
    margin = scores["s_backward"] - scores["s_forward"]
    if abs(margin) <= DIRECTION_MARGIN:
        return None
    return "AtoB" if margin > 0 else "BtoA"


def compare(got: dict, want: dict, direction: str | None, label: str) -> str | None:
    """First disagreement between a program verdict and the reference, or None."""
    for key, value in want.items():
        if not math.isfinite(got[key]) or abs(got[key] - value) > ENTROPY_TOL:
            return f"{label}: {key}={got[key]!r}, reference {value!r}"
    expected = expected_direction(want)
    if expected is not None and direction != expected:
        return f"{label}: direction {direction}, reference {expected}"
    return None


# Joint densities of the four swept channel families, built independently of
# qeci.channels so that ChannelSpec.joint is checked too.

def _flip_weights(q, p):
    return np.array([[q * (1 - p), q * p], [(1 - q) * p, (1 - q) * (1 - p)]])


def channel_joint(kind: str, q: float, p: float, amplitudes=None) -> np.ndarray:
    if kind == "qsc":
        return np.diag(_flip_weights(q, p).reshape(-1)).astype(complex)
    if kind == "bitflip":
        return np.diag([(1 - p) / 2, p / 2, p / 2, (1 - p) / 2]).astype(complex)
    if kind == "gqsc":
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        hh = np.kron(h, h)
        return hh @ np.diag(_flip_weights(q, p).reshape(-1)) @ hh
    if kind == "depolarizing":
        out = np.zeros((4, 4), dtype=complex)
        paulis = [np.eye(2), np.diag([1, -1]), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1], [1, 0]])]
        for weight, (g, lam) in zip((q, 1 - q), amplitudes):
            ket = np.kron([g, lam], [g, lam])
            for pw, pauli in zip((1 - p, p / 3, p / 3, p / 3), paulis):
                k = np.kron(np.eye(2), pauli) @ ket
                out += weight * pw * np.outer(k, k.conj())
        return out
    raise ValueError(f"unknown channel kind {kind!r}")
