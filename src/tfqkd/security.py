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

Cat states have one form.  cat_amplitude_rows stacks their amplitudes,
one row per amplitude and parity, with the full even and odd amplitude
sums; the squared amplitudes are channel.poisson_pmf_rows of alpha^2,
the distribution the decoy LP mixes yields with.  phase_error_upper_bound
bounds every pair of a side-a and a side-b cat state at once: the point
evaluation passes one per side, the stacked asymptotic grids one per intensity.
cat_state memoises the rows of one amplitude (a bounded functools cache on
alpha and the row length): line searches over one signal intensity, and
tied sides, ask for the same cat state over and over.  Its arrays are
read-only, so sharing is safe, and every result is the same float it
would be without the memo.  Everything here is a pure function of its
arguments.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .channel import poisson_pmf_rows
from .errors import DomainError, UnsupportedAmplitudeError

MAX_AMPLITUDE = 10.0
DEFAULT_TAIL_TOLERANCE = 1e-12
PATTERN_COUNT = 2  # both successful single-click patterns contribute the same rate


def cat_amplitude_rows(alphas: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated amplitudes of many cat states at once, split by parity, with their full sums.

    Returns (rows, sums).  rows has shape (2, len(alphas), size): rows[0, i]
    holds the amplitudes c_n of alphas[i] at even n < size and zero at odd
    n, rows[1, i] those at odd n, so their sum is c_0..c_(size-1).
    Amplitudes are zero once the omitted squared mass (a Poisson tail in
    alpha^2) has fallen to DEFAULT_TAIL_TOLERANCE; a longer row only
    appends amplitudes.  sums[0, i] and sums[1, i] are the full even and
    odd amplitude sums, run to machine convergence past the truncation, so
    trivially-bounded tails never get undercounted.  A negative or NaN
    amplitude raises DomainError, one above MAX_AMPLITUDE
    UnsupportedAmplitudeError.
    """
    alphas = np.asarray(alphas, dtype=float)
    top = float(alphas.max(initial=0.0))
    # min is NaN when any amplitude is, and the comparison is then false
    if not alphas.min(initial=0.0) >= 0.0:
        raise DomainError(f"amplitudes must be nonnegative, got {alphas.min()}")
    if top > MAX_AMPLITUDE:
        raise UnsupportedAmplitudeError(f"amplitude {top} is far outside the protocol regime (max {MAX_AMPLITUDE})")
    mu = alphas * alphas
    # amplitudes are the square roots of the Poisson weights of alpha^2; c_0 is needed for the sums even at size 0
    weights = poisson_pmf_rows(mu, max(size, 1))
    amplitudes = np.sqrt(weights)
    amplitudes[:, 0] = [math.exp(-0.5 * m) for m in mu.tolist()]
    # c_n is kept while the mass covered up to n - 1 leaves more than the tolerance out
    amplitudes[:, 1:] *= 1.0 - weights.cumsum(axis=1)[:, :-1] > DEFAULT_TAIL_TOLERANCE
    rows = np.zeros((2, len(alphas), size))
    rows[0, :, 0::2] = amplitudes[:, 0:size:2]
    rows[1, :, 1::2] = amplitudes[:, 1:size:2]

    # terms c_0 alpha^k / sqrt(k!), each parity summed in order of k as a scalar loop would, in an even count
    # past where the largest amplitude's terms are negligible (one more term is below half an ulp of a sum)
    count, bound = 1, 1.0
    while bound >= 1e-18 or count % 2:
        bound *= top / math.sqrt(count)
        count += 1
    terms = np.concatenate([amplitudes[:, :1], alphas[:, None] / np.sqrt(np.arange(1, count))], axis=1).cumprod(axis=1)
    return rows, terms.reshape(len(alphas), count // 2, 2).cumsum(axis=1)[:, -1].T


@lru_cache(maxsize=256)
def cat_state(alpha: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """cat_amplitude_rows of the one amplitude alpha (memoised, arrays read-only)."""
    state = cat_amplitude_rows(np.array([alpha]), size)
    for array in state:
        array.setflags(write=False)
    return state


def phase_error_upper_bound(cats_a: tuple, cats_b: tuple, bound_matrix: np.ndarray) -> np.ndarray:
    """Bound on the phase-error gain for every pair of a side-a and a side-b cat state.

    cats_a and cats_b are stacks as cat_amplitude_rows returns them, with
    rows as long as the square bound_matrix is wide; the result has shape
    (N_a, N_b) for rows (2, N, size).  bound_matrix[n, m] bounds the yield of
    pair (n, m); pairs beyond the matrix edge take the trivial bound 1.
    The matrix is the decoy LP's 3x3 bound matrix in finite mode and the
    true-yield grid when yields are perfectly known.  With
    s_nm = sqrt(bound_matrix[n, m]) the even and odd Cauchy-Schwarz
    brackets are

        B_i = T_i + sum_nm c_n c_m (s_nm - 1),  for whole stacks T + A (sqrt(Y) - 1) B^T,

    over pairs of matching parity, with T_i the product of the full
    amplitude sums.  The result, B_even^2 + B_odd^2, bounds the gain of
    phase errors, so the phase-error rate is at most min(1, result / p_xx)
    at a positive X-basis gain p_xx; at zero gain no key can be distilled.
    A leading stack axis (rows (2, S, N, size), sums (2, S, N), bounds
    (S, size, size)) gives shape (S, N_a, N_b), each slice a stack of one's.
    """
    bounds = np.asarray(bound_matrix, dtype=float)
    # both comparisons are false for NaN, so NaN is rejected too
    if bounds.size and not (bounds.min() >= 0.0 and bounds.max() <= 1.0):
        raise DomainError("yield bounds must lie in [0, 1]")
    (rows_a, sums_a), (rows_b, sums_b) = cats_a, cats_b
    brackets = sums_a[..., :, None] * sums_b[..., None, :] + rows_a @ (np.sqrt(bounds) - 1.0) @ rows_b.swapaxes(-1, -2)
    np.maximum(brackets, 0.0, out=brackets)
    brackets *= brackets
    return brackets[0] + brackets[1]


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
