"""Observables of the asymmetric twin-field channel.

Alice and Bob send weak coherent pulses to an untrusted middle station
where the two arms interfere on a 50:50 beamsplitter monitored by two
threshold detectors.  A detection event is "successful" when exactly one
detector clicks.  This module computes, per successful click pattern:

* the X-basis gain and bit-error rate of the phase-encoded signal pulses,
* the Z-basis gain of phase-randomized decoy pulse pairs (a Bessel-I0
  average over the random relative phase; ``i0m1`` sums I0 - 1's series),
* the photon-number yields, i.e. click probabilities conditioned on Fock
  inputs, used when decoy statistics are taken as perfectly known,
* the first-order expansion of the QBER for plotting and diagnostics,
* the Poisson photon-number distribution of a coherent source, one row per
  intensity: the decoy LP mixes yields with it and the cat states of the
  phase-error bound are its square roots.

Misalignment is parametrized by a per-arm error fraction ``e_d``; the two
arms are rotated in opposite directions so the relative polarization angle
between the incoming modes is ``2*arcsin(sqrt(e_d))``.

z_basis_gains and poisson_pmf_rows take whole arrays, one call per stack
of settings.  They map i0m1, expm1 and exp over the values on math, as
numpy's may round otherwise (or per CPU), while its +, -, *, / and sqrt
round as Python's floats do, so each value has its scalar bits.  Gains and
QBER share one clamp rule; all functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ZeroGainError

#: Largest photon number of the yield grid.
PHOTON_NUMBER_CAP = 20

#: Negative probabilities within this margin of zero are clamped to 0.
NEGATIVE_CLAMP = 1e-12

RELATIVE_TRUNCATION = 1e-16  # i0m1 stops at a term this small relative to 1 plus its sum
_MAX_TERMS = 400  # and after this many terms whatever their size
_LOG_FLOAT_MAX = 709.782712893384  # math.log of the largest float: math.expm1 overflows above it


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
        # written as 0 <= x < inf so that NaN is rejected too
        if not (0.0 <= self.gamma_a < math.inf and 0.0 <= self.gamma_b < math.inf):
            raise DomainError(f"arriving intensities must lie in [0, inf), got {self.gamma_a}, {self.gamma_b}")

    @classmethod
    def from_sources(cls, scenario: ChannelScenario, intensity_a: float, intensity_b: float) -> "ArrivingIntensities":
        return cls(intensity_a * scenario.eta_a, intensity_b * scenario.eta_b)


def _clamp_probability(value: float) -> float:
    """The one clamp rule: rounding residue in [-NEGATIVE_CLAMP, 0) becomes 0,
    a value above 1 becomes 1, and a value further below zero raises DomainError.
    """
    if value < 0.0:
        if value > -NEGATIVE_CLAMP:
            return 0.0
        raise DomainError(f"probability evaluated to {value}, below the clamping margin")
    return min(value, 1.0)


def _x_basis_terms(scenario: ChannelScenario, gamma: ArrivingIntensities) -> tuple[float, float, float]:
    """S, expm1(S/2 - g) and expm1(S/2 + g) of the X-basis formulas below.

    Raises DomainError, naming the arriving intensities, once an expm1
    argument passes the float range (about 709.78).
    """
    total = gamma.gamma_a + gamma.gamma_b
    g = math.sqrt(gamma.gamma_a * gamma.gamma_b) * math.cos(scenario.phi) * math.cos(scenario.theta)
    try:
        return total, math.expm1(0.5 * total - g), math.expm1(0.5 * total + g)
    except OverflowError:
        raise DomainError(
            f"arriving intensities {gamma.gamma_a}, {gamma.gamma_b} overflow the X-basis gain"
        ) from None


def x_basis_gain(scenario: ChannelScenario, gamma: ArrivingIntensities) -> float:
    """Probability of one successful click pattern for phase-encoded signals.

    With g = sqrt(gamma_a*gamma_b)*cos(phi)*cos(theta) and S = gamma_a+gamma_b:

        p = (1/2)(1-p_d)(e^-g + e^g) e^(-S/2) - (1-p_d)^2 e^-S

    evaluated here in expm1 form so the near-cancellation at small
    intensities keeps full relative precision.
    """
    total, minus, plus = _x_basis_terms(scenario, gamma)
    one_minus_pd = 1.0 - scenario.p_d
    bracket = 0.5 * (minus + plus) + scenario.p_d
    return _clamp_probability(one_minus_pd * math.exp(-total) * bracket)


def x_basis_qber(scenario: ChannelScenario, gamma: ArrivingIntensities) -> float:
    """Bit-error fraction of the successful X-basis detections.

    Error clicks are those where the interference sends light to the wrong
    port.  Both numerator and denominator share a factor e^(-S/2), leaving

        e = (expm1(S/2 - g) + p_d) / (expm1(S/2 - g) + expm1(S/2 + g) + 2 p_d)

    which is exact and cancellation-free, and clamped by the gains' rule (a
    ratio rounding to 1 + 2^-52 at phi = pi gives 1.0).  Raises ZeroGainError
    when no click can occur (zero light and zero dark counts).
    """
    _, minus, plus = _x_basis_terms(scenario, gamma)
    numerator = minus + scenario.p_d
    denominator = minus + plus + 2.0 * scenario.p_d
    if denominator <= 0.0:
        raise ZeroGainError("QBER undefined: the X-basis gain is zero for these inputs")
    return _clamp_probability(numerator / denominator)


def i0m1(x: float) -> float:
    """I0(x) - 1 for the modified Bessel function I0, summed without the leading 1.

    The series I0(x) = sum_k (x/2)^(2k) / (k!)^2 is summed from k = 1 and
    truncated at the first term below RELATIVE_TRUNCATION relative to 1 plus
    the running sum; it converges quickly for |x| of order 1, the channel
    model's range.  1.0 + i0m1(x) is I0(x) to ~1e-15 relative for |x| <= 10,
    and dropping the 1 avoids cancellation in exp(s)*I0(x) - 1 at small s, x.
    """
    q = 0.25 * x * x
    term = q  # k = 1 term
    total = 0.0
    k = 1
    while k < _MAX_TERMS:
        total += term
        k += 1
        term *= q / (k * k)
        if term < RELATIVE_TRUNCATION * (1.0 + total):
            total += term
            break
    return total


def z_basis_gains(scenario: ChannelScenario, gamma_a, gamma_b) -> np.ndarray:
    """Probability of one successful click pattern for each decoy pair of arriving intensities (broadcast).

    Averaging the no-click exponential over the uniform relative phase gives

        p = (1-p_d)[e^(-S/2) I0(sqrt(g'_a g'_b) cos theta) - e^-S] + p_d (1-p_d) e^-S

    The first pair in C order with an intensity outside [0, inf), or whose
    light term passes the float range, raises DomainError naming it.
    """
    gamma_a, gamma_b = np.asarray(gamma_a, dtype=float), np.asarray(gamma_b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a pair out of range or past the float range raises below
        total = gamma_a + gamma_b
        arguments = (np.sqrt(gamma_a * gamma_b) * math.cos(scenario.theta)).ravel().tolist()
        # i0m1 once per distinct argument (a stack repeats most); a NaN, unequal to itself, is found by identity
        memo = {x: i0m1(x) for x in set(arguments)}
        series = np.array([memo[x] for x in arguments])
        growth = [math.expm1(v) if v <= _LOG_FLOAT_MAX else math.inf for v in (0.5 * total).ravel().tolist()]
        light = (np.array(growth) * (1.0 + series) + series).reshape(total.shape)  # I0(x) is 1.0 + series
    # 0 <= x < inf also rejects NaN, and holds for every light term that did not overflow
    if not all(0.0 <= v < math.inf for x in (gamma_a, gamma_b, light) for v in x.ravel().tolist()):
        for ga, gb, value in zip(*(x.ravel().tolist() for x in np.broadcast_arrays(gamma_a, gamma_b, light))):
            ArrivingIntensities(ga, gb)  # raises for an intensity outside [0, inf)
            if value == math.inf:
                raise DomainError(f"decoy arriving intensities {ga}, {gb} overflow the Z-basis gain")
    decay = np.array([math.exp(-v) for v in total.ravel().tolist()]).reshape(total.shape)
    # the light term and p_d are nonnegative, so of the clamp rule only the cap at 1 can apply
    return np.minimum((1.0 - scenario.p_d) * decay * (light + scenario.p_d), 1.0)


def z_basis_gain(scenario: ChannelScenario, gamma_decoy: ArrivingIntensities) -> float:
    """z_basis_gains of one pair of arriving intensities, as a float."""
    return float(z_basis_gains(scenario, gamma_decoy.gamma_a, gamma_decoy.gamma_b))


def poisson_pmf_rows(intensities, count: int) -> np.ndarray:
    """P_n = e^-mu mu^n / n! for n = 0..count-1, one row per intensity mu (a vacuum source gives e_0).

    Intensities (..., N) give rows (..., N, count).  w_0 = math.exp(-mu), one value at a time on purpose (see
    above), and w_n = w_(n-1) * (mu / n) in order of n.  A negative, NaN or infinite intensity raises DomainError.
    """
    mu = np.asarray(intensities, dtype=float)
    values = mu.ravel().tolist()
    # 0 <= x < inf also rejects NaN; a Python loop costs less than numpy reductions on the few values a call has
    if not all(0.0 <= m < math.inf for m in values):
        raise DomainError(f"intensities must be finite and nonnegative, got {mu.tolist()}")
    first = np.array([math.exp(-m) for m in values]).reshape(mu.shape + (1,))
    return np.concatenate([first, mu[..., None] / np.arange(1, count)], axis=-1)[..., :count].cumprod(axis=-1)


@lru_cache(maxsize=64)
def _port_bunching_table(cos_theta: float) -> tuple[tuple[float, ...], ...]:
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
    for k in range(PHOTON_NUMBER_CAP + 1):
        row = []
        for l in range(PHOTON_NUMBER_CAP + 1):
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


def yield_grid(scenario: ChannelScenario) -> np.ndarray:
    """Click probabilities of one successful pattern given Fock inputs |n_a>, |n_b>.

    Returns all yields for 0 <= n_a, n_b <= PHOTON_NUMBER_CAP as a square
    array; a caller that needs fewer photon numbers slices it.
    Each photon survives its channel independently (binomial thinning of
    the Fock state), and the survivors interfere on the beamsplitter.  The
    pattern requires zero photons at one detector and at least one at the
    other, so with B_a, B_b the binomial thinning matrices and P the
    bunching table, Y = B_a P B_b^T minus the all-lost outer product.

    Dark counts are deliberately excluded; this form feeds the
    perfect-knowledge (infinite-decoy) analysis only.
    """
    cap = PHOTON_NUMBER_CAP
    bunch = np.array(_port_bunching_table(math.cos(scenario.theta)))
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

    which depends only on the balance of the arriving intensities, clamped
    by the gains' rule (near-balanced intensities at theta = 0 round a few
    ulps below 0).  No accuracy is promised outside the small-intensity
    regime.
    """
    ga, gb = gamma.gamma_a, gamma.gamma_b
    total = ga + gb
    if total > 0.0:
        return _clamp_probability((0.5 * total - math.sqrt(ga * gb) * math.cos(scenario.theta)) / total)
    return 0.0
