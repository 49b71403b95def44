"""Phase-error upper bound and secure key rate.

Projecting the local qubit of the entanglement-based picture leaves the
optical mode in an even or odd cat state whose photon-number amplitudes
are Poissonian,

    c_n = e^(-alpha^2/2) alpha^n / sqrt(n!)

restricted to even n (outcome 0) or odd n (outcome 1).  A Cauchy-Schwarz
argument bounds the undetectable phase-error rate by a square of
cat-weighted square-root yields; yields that are not individually bounded
enter with the trivial bound 1 through the coefficient-sum tail.  The key
rate combines the X-basis gain with binary-entropy penalties for the bit
and phase error rates.

Everything here is a pure function of its arguments.  cat_coefficients is
memoised (a bounded functools cache on alpha): line searches over one
signal intensity, and tied sides, ask for the same cat state over and
over.  A cached instance also keeps its parity-split amplitude vectors,
built once per vector length and read-only, so the memory they take is
bounded by the cache.  Sharing is safe because the instances are frozen
and their arrays immutable; every result is the same float it would be
without the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedAmplitudeError, ZeroGainError

MAX_AMPLITUDE = 10.0
DEFAULT_TAIL_TOLERANCE = 1e-12
PATTERN_COUNT = 2  # both successful single-click patterns contribute the same rate


@dataclass(frozen=True)
class CatStateCoefficients:
    """Truncated photon-number amplitudes of the even/odd cat states.

    even/odd hold c_n for n = 0,2,...  and n = 1,3,... up to n_max.
    even_sum/odd_sum are the full amplitude sums, accumulated to machine
    convergence independently of n_max, so trivially-bounded tails never
    get undercounted.
    """

    alpha: float
    even: tuple[float, ...]
    odd: tuple[float, ...]
    n_max: int
    even_sum: float
    odd_sum: float
    _parity: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def dense(self, size: int) -> np.ndarray:
        """Amplitudes c_0..c_(size-1) as a vector, zero-padded/truncated."""
        out = np.zeros(size)
        count = min(size, self.n_max + 1)
        out[0:count:2] = self.even[:(count + 1) // 2]
        out[1:count:2] = self.odd[:count // 2]
        return out

    def parity_vectors(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """dense(size) split into its even-n and odd-n parts (read-only, kept per size)."""
        vectors = self._parity.get(size)
        if vectors is None:
            vec = self.dense(size)
            even = np.where(np.arange(size) % 2 == 0, vec, 0.0)
            odd = vec - even
            even.setflags(write=False)
            odd.setflags(write=False)
            vectors = self._parity[size] = (even, odd)
        return vectors


@lru_cache(maxsize=256)
def cat_coefficients(alpha: float) -> CatStateCoefficients:
    """Cat-state amplitudes with adaptive truncation (memoised).

    n_max is the smallest photon number for which the omitted squared
    amplitude mass (a Poisson tail in alpha^2) stays below
    DEFAULT_TAIL_TOLERANCE.  Equal amplitudes share one instance.
    """
    if not math.isfinite(alpha):
        # NaN passes both range tests below and never ends the sum loop
        raise DomainError(f"amplitude must be finite, got {alpha}")
    if alpha < 0.0:
        raise DomainError(f"amplitude must be nonnegative, got {alpha}")
    if alpha > MAX_AMPLITUDE:
        raise UnsupportedAmplitudeError(f"amplitude {alpha} is far outside the protocol regime (max {MAX_AMPLITUDE})")

    mu = alpha * alpha
    # Walk the Poisson weights w_n = e^-mu mu^n / n!; amplitudes are sqrt(w_n).
    weight = math.exp(-mu)
    amplitude = math.exp(-0.5 * mu)
    covered = weight
    amplitudes = [amplitude]
    n = 0
    while 1.0 - covered > DEFAULT_TAIL_TOLERANCE:
        n += 1
        weight *= mu / n
        amplitude = math.sqrt(weight)
        covered += weight
        amplitudes.append(amplitude)
    n_max = n

    # Amplitude sums to machine convergence (tail terms decay superexponentially).
    even_sum = odd_sum = 0.0
    term = math.exp(-0.5 * mu)
    k = 0
    while True:
        if k % 2 == 0:
            even_sum += term
        else:
            odd_sum += term
        k += 1
        term *= alpha / math.sqrt(k)
        if term < 1e-18 * (even_sum + odd_sum + 1.0) and k > n_max:
            break

    return CatStateCoefficients(
        alpha=alpha,
        even=tuple(amplitudes[0::2]),
        odd=tuple(amplitudes[1::2]),
        n_max=n_max,
        even_sum=even_sum,
        odd_sum=odd_sum,
    )


def phase_error_bound_from_matrix(p_xx: float, cat_a: CatStateCoefficients, cat_b: CatStateCoefficients,
                                  bound_matrix: np.ndarray) -> float:
    """Phase-error upper bound from a dense matrix of yield upper bounds.

    bound_matrix[n, m] bounds the yield of pair (n, m); pairs beyond the
    matrix edge take the trivial bound 1.  The matrix is the decoy LP's
    3x3 bound matrix in finite mode and the true-yield grid when yields
    are perfectly known.  With s_nm = sqrt(bound_matrix[n, m]) the even
    and odd Cauchy-Schwarz brackets are

        B_i = T_i + sum_nm c_n c_m (s_nm - 1)

    over pairs of matching parity, with T_i the product of the full
    amplitude sums, and the result is min(1, (B_even^2 + B_odd^2)/p_xx).
    """
    if p_xx <= 0.0:
        raise ZeroGainError("phase-error bound undefined at zero X-basis gain (no-key event)")
    bounds = np.asarray(bound_matrix, dtype=float)
    # both comparisons are false for NaN, so NaN is rejected too
    if bounds.size and not (bounds.min() >= 0.0 and bounds.max() <= 1.0):
        raise DomainError("yield bounds must lie in [0, 1]")
    size = bounds.shape[0]
    a_even, a_odd = cat_a.parity_vectors(size)
    b_even, b_odd = cat_b.parity_vectors(size)
    correction = np.sqrt(bounds) - 1.0
    be = max(0.0, cat_a.even_sum * cat_b.even_sum + a_even @ correction @ b_even)
    bo = max(0.0, cat_a.odd_sum * cat_b.odd_sum + a_odd @ correction @ b_odd)
    return float(min(1.0, (be * be + bo * bo) / p_xx))


def binary_entropy(x: float) -> float:
    """h2(x) = -x log2 x - (1-x) log2 (1-x), with h2(0) = h2(1) = 0 by continuity."""
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def key_rate(p_xx: float, e_xx: float, e_zz_upper: float, basis_weight: float = 1.0) -> float:
    """Secure key rate in bits per pulse pair, clamped at zero.

        R = basis_weight * PATTERN_COUNT * p_xx * max(0, 1 - h2(e_xx) - h2(e_zz_upper))

    basis_weight is 1 when every pulse is a signal pulse and the
    probability that both parties chose signal states otherwise.  Error
    correction is taken as ideal (no inefficiency factor on h2(e_xx)).

    Error rates are clamped at 1/2 before the entropy penalty: beyond that
    point no key can be distilled, and the symmetric decrease of h2 must
    not resurrect the rate.
    """
    # 0 <= x < inf also rejects NaN and an infinite gain
    if not 0.0 <= p_xx < math.inf or not (0.0 <= basis_weight <= 1.0):
        raise DomainError(f"invalid gain {p_xx} or basis weight {basis_weight}")
    net = 1.0 - binary_entropy(min(e_xx, 0.5)) - binary_entropy(min(e_zz_upper, 0.5))
    return basis_weight * PATTERN_COUNT * p_xx * max(0.0, net)
