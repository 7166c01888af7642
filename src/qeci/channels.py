"""Synthetic joint densities for noisy two-qubit channel experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DEFAULT_TOL, DensityMatrix, _checked_psd

PAIR_NORM_TOL = 1e-9
# columns |+> and |->
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# column 2i + j is the ket |s_i s_j>, s = (|+>, |->)
_HADAMARD_PAIRS = np.kron(_HADAMARD, _HADAMARD)


def _check_prob(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _check_amplitude_pair(gamma: float, lam: float) -> tuple[float, float]:
    gamma, lam = float(gamma), float(lam)
    if not abs(gamma * gamma + lam * lam - 1.0) <= PAIR_NORM_TOL:  # nan fails too
        raise ValueError(
            f"amplitudes ({gamma}, {lam}) violate gamma^2 + lambda^2 = 1"
        )
    return gamma, lam


@dataclass(frozen=True)
class ChannelSpec:
    """Sweep configuration: a channel family plus its fixed parameters.

    ``p`` is the channel error probability; sweeps vary it and keep the rest.
    The gamma/lambda pairs only apply to the depolarizing family.
    """

    kind: str
    q: float = 0.5
    gamma1: float | None = None
    lambda1: float | None = None
    gamma2: float | None = None
    lambda2: float | None = None

    KINDS = ("qsc", "gqsc", "depolarizing", "bitflip")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; expected one of {self.KINDS}")
        _check_prob(self.q, "q")
        if self.kind == "depolarizing":
            if None in (self.gamma1, self.lambda1, self.gamma2, self.lambda2):
                raise ValueError("depolarizing channel needs gamma1/lambda1/gamma2/lambda2")
            _check_amplitude_pair(self.gamma1, self.lambda1)
            _check_amplitude_pair(self.gamma2, self.lambda2)

    def joint(self, p: float) -> DensityMatrix:
        if self.kind == "qsc":
            return qsc_computational(self.q, p)
        if self.kind == "gqsc":
            return qsc_hadamard(self.q, p)
        if self.kind == "depolarizing":
            return depolarizing_mixture(
                self.q, (self.gamma1, self.lambda1), (self.gamma2, self.lambda2), p
            )
        return bitflip_entangled(p)


def _joint(m: np.ndarray) -> DensityMatrix:
    """Wrap a two-qubit channel joint built from checked parameters.

    Symmetrized once and not validated: weights in [0, 1] and amplitude pairs
    of unit norm within PAIR_NORM_TOL give a PSD matrix whose trace is one to
    within about 2 * PAIR_NORM_TOL, which _wrap renormalizes. Only the PSD
    check of validate_density runs, on the spectrum.
    """
    m = np.asarray(m, dtype=complex)
    h = 0.5 * m + 0.5 * m.conj().T
    return _checked_psd(h, (2, 2), complex(np.einsum("ii", h)), DEFAULT_TOL)


def _flip_weights(q: float, p: float) -> np.ndarray:
    return np.array([[q * (1.0 - p), q * p], [(1.0 - q) * p, (1.0 - q) * (1.0 - p)]])


def qsc_computational(q: float, p: float) -> DensityMatrix:
    """Symmetric bit-flip channel on half of a classically correlated pair.

    The source emits |00> with probability q and |11> with probability 1-q;
    the second qubit is flipped with probability p. Diagonal on the
    computational basis |00>, |01>, |10>, |11>.
    """
    q = _check_prob(q, "q")
    p = _check_prob(p, "p")
    w = _flip_weights(q, p)
    return _joint(np.diag(w.reshape(-1)))


def qsc_hadamard(q: float, p: float) -> DensityMatrix:
    """Phase-flip variant of the symmetric channel, correlated in the Hadamard basis."""
    q = _check_prob(q, "q")
    p = _check_prob(p, "p")
    w = _flip_weights(q, p).reshape(-1)
    return _joint((_HADAMARD_PAIRS * w) @ _HADAMARD_PAIRS.T)


def _depolarized(gamma: float, lam: float, p: float) -> np.ndarray:
    """The matrix of depolarizing_component, before it is wrapped."""
    gamma, lam = _check_amplitude_pair(gamma, lam)
    p = _check_prob(p, "p")
    gg, gl, ll = gamma * gamma, gamma * lam, lam * lam
    # one ket per row: the product state, then its three Pauli-flipped images
    kets = np.array(
        [[gg, gl, gl, ll], [gg, -gl, gl, -ll], [gl, gg, ll, gl], [-gl, gg, -ll, gl]]
    )
    weights = np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
    return (kets.T * weights) @ kets


def depolarizing_component(gamma: float, lam: float, p: float) -> DensityMatrix:
    """Product state (gamma|0>+lambda|1>)^(x2) with its second qubit depolarized.

    Mixes the untouched state with its phase-flipped, bit-flipped, and
    bit-phase-flipped images at weights (1-p, p/3, p/3, p/3).
    """
    return _joint(_depolarized(gamma, lam, p))


def depolarizing_mixture(q: float, c1, c2, p: float) -> DensityMatrix:
    """Convex mixture of two depolarizing components sharing the error rate p.

    The mixture q * A + (1 - q) * B of the two components' matrices is
    wrapped once; the components are never wrapped, and the mixture is
    decomposed only when its ``eig`` is read, or at once for a clamp.
    """
    q = _check_prob(q, "q")
    mixture = q * _depolarized(c1[0], c1[1], p) + (1.0 - q) * _depolarized(c2[0], c2[1], p)
    return _joint(mixture)


def bitflip_entangled(p: float) -> DensityMatrix:
    """Maximally correlated pair with its second qubit bit-flipped at rate p."""
    p = _check_prob(p, "p")
    half = 0.5
    diag = [half * (1.0 - p), half * p, half * p, half * (1.0 - p)]
    return _joint(np.diag(diag))
