"""Observables of the asymmetric twin-field channel.

Alice and Bob send weak coherent pulses to an untrusted middle station
where the two arms interfere on a 50:50 beamsplitter monitored by two
threshold detectors.  A detection event is "successful" when exactly one
detector clicks.  This module computes, per successful click pattern:

* the X-basis gain and bit-error rate of the phase-encoded signal pulses,
* the Z-basis gain of phase-randomized decoy pulse pairs (a Bessel-I0
  average over the random relative phase),
* the photon-number yields, i.e. click probabilities conditioned on Fock
  inputs, used when decoy statistics are taken as perfectly known,
* the first-order expansion of the QBER for plotting and diagnostics.

Misalignment is parametrized by a per-arm error fraction ``e_d``; the two
arms are rotated in opposite directions so the relative polarization angle
between the incoming modes is ``2*arcsin(sqrt(e_d))``.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bessel import i0, i0m1
from .errors import DomainError, UnsupportedPhotonNumberError, ZeroGainError

#: Largest photon number accepted by the yield evaluation.
PHOTON_NUMBER_CAP = 20

#: Negative probabilities within this margin of zero are clamped to 0.
NEGATIVE_CLAMP = 1e-12


@dataclass(frozen=True)
class ChannelScenario:
    """Physical parameters of the two channels and the measurement station.

    eta_a, eta_b:  one-way transmittances Alice->station and Bob->station,
                   detector efficiency folded in; in (0, 1].
    p_d:           dark-count probability per detector per pulse.
    e_d:           per-arm misalignment error fraction (0.02 means 2%).
    phi:           static phase mismatch between the arms, radians.
    """

    eta_a: float
    eta_b: float
    p_d: float = 0.0
    e_d: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta_a <= 1.0) or not (0.0 < self.eta_b <= 1.0):
            raise DomainError(f"transmittances must lie in (0, 1], got {self.eta_a}, {self.eta_b}")
        if not (0.0 <= self.p_d < 1.0):
            raise DomainError(f"dark-count probability must lie in [0, 1), got {self.p_d}")
        if not (0.0 <= self.e_d < 1.0):
            raise DomainError(f"misalignment fraction must lie in [0, 1), got {self.e_d}")
        if not math.isfinite(self.phi):
            raise DomainError(f"phase mismatch must be finite, got {self.phi}")

    @property
    def theta(self) -> float:
        """Total relative polarization angle; the arms rotate in opposite directions."""
        return 2.0 * math.asin(math.sqrt(self.e_d))


@dataclass(frozen=True)
class ArrivingIntensities:
    """Mean photon numbers arriving at the measurement station."""

    gamma_a: float
    gamma_b: float

    def __post_init__(self):
        if self.gamma_a < 0.0 or self.gamma_b < 0.0:
            raise DomainError(f"arriving intensities must be nonnegative, got {self.gamma_a}, {self.gamma_b}")

    @classmethod
    def from_sources(cls, scenario: ChannelScenario, intensity_a: float, intensity_b: float) -> "ArrivingIntensities":
        return cls(
            arriving_intensity(intensity_a, scenario.eta_a),
            arriving_intensity(intensity_b, scenario.eta_b),
        )


def arriving_intensity(source_intensity: float, eta: float) -> float:
    """Mean photon number after the channel: source intensity times transmittance."""
    if source_intensity < 0.0:
        raise DomainError(f"source intensity must be nonnegative, got {source_intensity}")
    if not (0.0 <= eta <= 1.0):
        raise DomainError(f"transmittance must lie in [0, 1], got {eta}")
    return source_intensity * eta


def _clamp_probability(value: float) -> float:
    if value < 0.0:
        if value > -NEGATIVE_CLAMP:
            return 0.0
        raise DomainError(f"probability evaluated to {value}, below the clamping margin")
    return min(value, 1.0)


def x_basis_gain(scenario: ChannelScenario, gamma: ArrivingIntensities) -> float:
    """Probability of one successful click pattern for phase-encoded signals.

    With g = sqrt(gamma_a*gamma_b)*cos(phi)*cos(theta) and S = gamma_a+gamma_b:

        p = (1/2)(1-p_d)(e^-g + e^g) e^(-S/2) - (1-p_d)^2 e^-S

    evaluated here in expm1 form so the near-cancellation at small
    intensities keeps full relative precision.
    """
    total = gamma.gamma_a + gamma.gamma_b
    g = math.sqrt(gamma.gamma_a * gamma.gamma_b) * math.cos(scenario.phi) * math.cos(scenario.theta)
    one_minus_pd = 1.0 - scenario.p_d
    bracket = 0.5 * (math.expm1(0.5 * total - g) + math.expm1(0.5 * total + g)) + scenario.p_d
    return _clamp_probability(one_minus_pd * math.exp(-total) * bracket)


def x_basis_qber(scenario: ChannelScenario, gamma: ArrivingIntensities) -> float:
    """Bit-error fraction of the successful X-basis detections.

    Error clicks are those where the interference sends light to the wrong
    port.  Both numerator and denominator share a factor e^(-S/2), leaving

        e = (expm1(S/2 - g) + p_d) / (expm1(S/2 - g) + expm1(S/2 + g) + 2 p_d)

    which is exact and cancellation-free.  Raises ZeroGainError when no
    click can occur (zero light and zero dark counts).
    """
    total = gamma.gamma_a + gamma.gamma_b
    g = math.sqrt(gamma.gamma_a * gamma.gamma_b) * math.cos(scenario.phi) * math.cos(scenario.theta)
    numerator = math.expm1(0.5 * total - g) + scenario.p_d
    denominator = math.expm1(0.5 * total - g) + math.expm1(0.5 * total + g) + 2.0 * scenario.p_d
    if denominator <= 0.0:
        raise ZeroGainError("QBER undefined: the X-basis gain is zero for these inputs")
    ratio = numerator / denominator
    if ratio < 0.0:
        ratio = 0.0 if ratio > -NEGATIVE_CLAMP else ratio
    if not (0.0 <= ratio <= 1.0):
        raise DomainError(f"QBER evaluated to {ratio}, outside [0, 1]")
    return ratio


def z_basis_gain(scenario: ChannelScenario, gamma_decoy: ArrivingIntensities) -> float:
    """Probability of one successful click pattern for a decoy intensity pair.

    The relative phase of phase-randomized pulses is uniform, and averaging
    the no-click exponential over it produces the Bessel function:

        p = (1-p_d)[e^(-S/2) I0(sqrt(g'_a g'_b) cos theta) - e^-S]
            + p_d (1-p_d) e^-S
    """
    total = gamma_decoy.gamma_a + gamma_decoy.gamma_b
    x = math.sqrt(gamma_decoy.gamma_a * gamma_decoy.gamma_b) * math.cos(scenario.theta)
    one_minus_pd = 1.0 - scenario.p_d
    light = math.expm1(0.5 * total) * i0(x) + i0m1(x)
    return _clamp_probability(one_minus_pd * math.exp(-total) * (light + scenario.p_d))


@lru_cache(maxsize=None)
def _port_bunching_table(cap: int, cos_theta: float) -> tuple[tuple[float, ...], ...]:
    """P(all k+l photons exit one port | k photons in one arm, l in the other).

    Two partially overlapping single-photon modes (overlap cos(theta)) feed
    the beamsplitter.  Expanding the second mode in the first gives

        P(k, l) = sum_p C(l,p)^2 c^(2(l-p)) s^(2p) (k+l-p)! p! / (2^(k+l) k! l!)

    with c = cos(theta), s = sin(theta); exact integer factorials keep the
    evaluation overflow-free through the photon-number cap.
    """
    c2 = cos_theta * cos_theta
    s2 = max(0.0, 1.0 - c2)
    table = []
    for k in range(cap + 1):
        row = []
        for l in range(cap + 1):
            acc = 0.0
            for p in range(l + 1):
                coeff = math.comb(l, p) ** 2 * math.factorial(k + l - p) * math.factorial(p)
                acc += coeff * c2 ** (l - p) * s2**p
            row.append(acc / (2 ** (k + l) * math.factorial(k) * math.factorial(l)))
        table.append(tuple(row))
    return tuple(table)


def _binomial_pmf_matrix(n_max: int, eta: float) -> np.ndarray:
    """Rows n = 0..n_max of the survival pmf Bin(k; n, eta), zero-padded."""
    out = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for k in range(n + 1):
            out[n, k] = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
    return out


def yield_grid(scenario: ChannelScenario, cap: int = PHOTON_NUMBER_CAP) -> np.ndarray:
    """Click probabilities of one successful pattern given Fock inputs |n_a>, |n_b>.

    Returns all yields for 0 <= n_a, n_b <= cap as a (cap+1, cap+1) array.
    Each photon survives its channel independently (binomial thinning of
    the Fock state), and the survivors interfere on the beamsplitter.  The
    pattern requires zero photons at one detector and at least one at the
    other, so with B_a, B_b the binomial thinning matrices and P the
    bunching table, Y = B_a P B_b^T minus the all-lost outer product.

    Dark counts are deliberately excluded; this form feeds the
    perfect-knowledge (infinite-decoy) analysis only.
    """
    if cap < 0 or cap > PHOTON_NUMBER_CAP:
        raise UnsupportedPhotonNumberError(f"cap must lie in [0, {PHOTON_NUMBER_CAP}], got {cap}")
    bunch = np.array(_port_bunching_table(cap, math.cos(scenario.theta)))
    b_a = _binomial_pmf_matrix(cap, scenario.eta_a)
    b_b = _binomial_pmf_matrix(cap, scenario.eta_b)
    grid = b_a @ bunch @ b_b.T
    lost_a = (1.0 - scenario.eta_a) ** np.arange(cap + 1)
    lost_b = (1.0 - scenario.eta_b) ** np.arange(cap + 1)
    grid -= np.outer(lost_a, lost_b)
    return np.clip(grid, 0.0, 1.0)


def first_order_diagnostics(scenario: ChannelScenario, gamma: ArrivingIntensities) -> float:
    """First-order QBER expansion (no dark counts, no phase mismatch),

        e_xx ~ (S/2 - sqrt(g_a g_b) cos theta) / S

    which depends only on the balance of the arriving intensities.  No
    accuracy is promised outside the small-intensity regime.
    """
    ga, gb = gamma.gamma_a, gamma.gamma_b
    total = ga + gb
    if total > 0.0:
        return (0.5 * total - math.sqrt(ga * gb) * math.cos(scenario.theta)) / total
    return 0.0
