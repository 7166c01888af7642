"""Shared random generators and reference implementations for the test suite."""

from __future__ import annotations

import math

import numpy as np

from qeci import DensityMatrix, validate_density
from qeci.linalg import partial_trace


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def random_density(rng: np.random.Generator, dims) -> DensityMatrix:
    d = math.prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, dims)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unitary built from complex plane rotations plus diagonal phases."""
    u = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n)))
    for p in range(n - 1):
        for q in range(p + 1, n):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            g = np.eye(n, dtype=complex)
            c, s = np.cos(theta), np.sin(theta)
            g[p, p] = c
            g[p, q] = s * np.exp(1j * phi)
            g[q, p] = -s * np.exp(-1j * phi)
            g[q, q] = c
            u = u @ g
    return u


def small_branch_joint(rng, eps: float, pure_tau: bool) -> np.ndarray:
    """kron(diag(1 - eps, 0), sigma) + kron(diag(0, eps), tau), side A rotated by U (x) I.

    sigma and tau are Ginibre densities, tau of rank 1 when ``pure_tau``.
    """
    sigma, tau = (random_density(rng, (2,)).mat for _ in range(2))
    if pure_tau:
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        tau = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
    m = np.kron(np.diag([1.0 - eps, 0.0]), sigma) + np.kron(np.diag([0.0, eps]), tau)
    u = np.kron(random_unitary(rng, 2), np.eye(2))
    return u @ m @ u.conj().T


def _spectral_gap(mat: np.ndarray) -> float:
    vals = np.sort(np.linalg.eigvalsh(mat))
    return float(np.diff(vals).min()) if vals.size > 1 else np.inf


def random_nondegenerate_density(
    rng: np.random.Generator, dims, gap: float = 1e-2
) -> DensityMatrix:
    """Random joint density whose both reduced spectra have eigenvalue gaps >= gap."""
    dim_a, dim_b = dims
    while True:
        rho = random_density(rng, dims)
        ga = _spectral_gap(partial_trace(rho.mat, dim_a, dim_b, "B"))
        gb = _spectral_gap(partial_trace(rho.mat, dim_a, dim_b, "A"))
        if ga >= gap and gb >= gap:
            return rho


def random_nondegenerate_table(
    rng: np.random.Generator, shape, gap: float = 1e-3
) -> np.ndarray:
    """Random joint probability table with well-separated marginal values."""
    while True:
        t = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        row = np.sort(t.sum(axis=1))
        col = np.sort(t.sum(axis=0))
        if np.diff(row).min() >= gap and np.diff(col).min() >= gap:
            return t


# Reference channel joints: one outer product per ket, summed in order, as the
# paper writes the mixtures. The channels module builds the same matrices with
# one matrix product; tests compare the two.


def reference_qsc_hadamard(q: float, p: float) -> np.ndarray:
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    states = (plus, minus)
    w = np.array([[q * (1.0 - p), q * p], [(1.0 - q) * p, (1.0 - q) * (1.0 - p)]])
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            ket = np.kron(states[i], states[j])
            out += w[i, j] * np.outer(ket, ket.conj())
    return out


def reference_depolarizing_component(gamma: float, lam: float, p: float) -> np.ndarray:
    gl = gamma * lam
    kets = [
        np.array([gamma * gamma, gl, gl, lam * lam], dtype=complex),
        np.array([gamma * gamma, -gl, gl, -lam * lam], dtype=complex),
        np.array([gl, gamma * gamma, lam * lam, gl], dtype=complex),
        np.array([-gl, gamma * gamma, -lam * lam, gl], dtype=complex),
    ]
    weights = [1.0 - p, p / 3.0, p / 3.0, p / 3.0]
    out = np.zeros((4, 4), dtype=complex)
    for weight, ket in zip(weights, kets):
        out += weight * np.outer(ket, ket.conj())
    return out


def reference_depolarizing_mixture(q: float, c1, c2, p: float) -> np.ndarray:
    return (
        q * reference_depolarizing_component(c1[0], c1[1], p)
        + (1.0 - q) * reference_depolarizing_component(c2[0], c2[1], p)
    )


# Reference forms of two core routines, written with the numpy idioms the
# core used before it moved to cheaper equivalents. Tests pin the core to them.


def reference_kron(a, b) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def reference_conditional_blocks(rho_joint: DensityMatrix, kets: np.ndarray, side: str):
    """Blocks and weights of density._conditional_blocks by one tensordot."""
    dim_a, dim_b = rho_joint.dims
    r = rho_joint.mat.reshape(dim_a, dim_b, dim_a, dim_b)
    if side == "second":
        r = r.transpose(1, 0, 3, 2)
    half = np.tensordot(r, kets, axes=([2], [0]))
    blocks = np.einsum("ckli,ci->ikl", half, kets.conj())
    return blocks, np.einsum("ikk->i", blocks).real
