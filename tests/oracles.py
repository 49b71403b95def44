"""Independent reference computations used to freeze expected test values.

These deliberately avoid the code paths they check: the Bessel reference
integrates the defining integral by quadrature, the photon-path yield
enumerates quantum amplitudes mode by mode instead of using any closed
form, and the scalar yield loop sums the binomial thinning term by term
where the package multiplies matrices.  The Bland reference is the
simplex loop as first written, with numpy masks and numpy scalars
throughout; the package's leaner loop must retrace it bit for bit.  The
cat-state and phase-error references are those routines as first written,
before the memo and the cached parity vectors; the package must return
the same float bytes.
"""

import itertools
import math

import numpy as np

from tfqkd.channel import _port_bunching_table
from tfqkd.errors import DomainError, UnboundedProblemError, UnsupportedAmplitudeError, ZeroGainError
from tfqkd.security import DEFAULT_TAIL_TOLERANCE, MAX_AMPLITUDE, CatStateCoefficients
from tfqkd.simplex import (
    _BASIC,
    _LOWER,
    _MAX_ITERATIONS,
    _UPPER,
    COST_TOLERANCE,
    PIVOT_TOLERANCE,
)

_LEGENDRE_NODES, _LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(200)


def i0_reference(x: float) -> float:
    """I0(x) = (1/pi) * integral_0^pi exp(x cos t) dt by Gauss-Legendre."""
    t = 0.5 * math.pi * (_LEGENDRE_NODES + 1.0)
    values = np.exp(x * np.cos(t))
    return float(0.5 * np.dot(_LEGENDRE_WEIGHTS, values))


def _prob_all_photons_in_one_port(k: int, l: int, theta_a: float, theta_b: float) -> float:
    """Amplitude enumeration over the four output modes (c_h, c_v, d_h, d_v).

    One arm carries polarization rotated by +theta_a, the other by
    -theta_b; a 50:50 beamsplitter maps arm operators onto (c +- d)/sqrt(2).
    Returns the probability that all k+l photons exit through detector d.
    """
    amp_a = (
        math.cos(theta_a) / math.sqrt(2.0),
        math.sin(theta_a) / math.sqrt(2.0),
        math.cos(theta_a) / math.sqrt(2.0),
        math.sin(theta_a) / math.sqrt(2.0),
    )
    amp_b = (
        math.cos(theta_b) / math.sqrt(2.0),
        -math.sin(theta_b) / math.sqrt(2.0),
        -math.cos(theta_b) / math.sqrt(2.0),
        math.sin(theta_b) / math.sqrt(2.0),
    )
    coefficients = {(0, 0, 0, 0): 1.0}
    for amplitudes in itertools.chain(itertools.repeat(amp_a, k), itertools.repeat(amp_b, l)):
        updated = {}
        for occupation, coefficient in coefficients.items():
            for mode in range(4):
                bumped = list(occupation)
                bumped[mode] += 1
                key = tuple(bumped)
                updated[key] = updated.get(key, 0.0) + coefficient * amplitudes[mode]
        coefficients = updated
    total = 0.0
    for (c_h, c_v, d_h, d_v), coefficient in coefficients.items():
        if c_h == 0 and c_v == 0:
            total += coefficient * coefficient * math.factorial(d_h) * math.factorial(d_v)
    return total / (math.factorial(k) * math.factorial(l))


def photon_path_yield(eta_a: float, eta_b: float, theta_a: float, theta_b: float,
                      n_a: int, n_b: int) -> float:
    """Single-click-pattern probability for Fock inputs, from first principles.

    Each photon survives its channel with probability eta (binomial
    thinning of the Fock state); survivors interfere on the beamsplitter.
    The pattern needs an empty detector c and a click at d, i.e. the
    all-photons-at-d probability minus the all-photons-lost probability.
    """
    total = 0.0
    for k in range(n_a + 1):
        weight_a = math.comb(n_a, k) * eta_a**k * (1.0 - eta_a) ** (n_a - k)
        for l in range(n_b + 1):
            weight_b = math.comb(n_b, l) * eta_b**l * (1.0 - eta_b) ** (n_b - l)
            total += weight_a * weight_b * _prob_all_photons_in_one_port(k, l, theta_a, theta_b)
    return total - (1.0 - eta_a) ** n_a * (1.0 - eta_b) ** n_b


def yield_nm_asymptotic(scenario, n_a: int, n_b: int) -> float:
    """Loop form of one entry of ``tfqkd.channel.yield_grid``.

        Y = sum_{k,l} B(k;n_a,eta_a) B(l;n_b,eta_b) P_bunch(k, l)
            - (1-eta_a)^n_a (1-eta_b)^n_b
    """
    bunch = _port_bunching_table(max(n_a, n_b), math.cos(scenario.theta))
    total = 0.0
    for k in range(n_a + 1):
        wa = math.comb(n_a, k) * scenario.eta_a**k * (1.0 - scenario.eta_a) ** (n_a - k)
        for l in range(n_b + 1):
            wb = math.comb(n_b, l) * scenario.eta_b**l * (1.0 - scenario.eta_b) ** (n_b - l)
            total += wa * wb * bunch[k][l]
    total -= (1.0 - scenario.eta_a) ** n_a * (1.0 - scenario.eta_b) ** n_b
    return min(1.0, max(0.0, total))


def scipy_yield_upper_bound(problem, target: tuple[int, int]) -> float:
    """Reference LP optimum via scipy's HiGHS backend."""
    from scipy.optimize import linprog

    lower, upper = problem.constraint_bounds()
    a_ub = np.vstack([problem.coefficients, -problem.coefficients])
    b_ub = np.concatenate([upper, -lower])
    n, m = target
    cost = np.zeros(problem.n_variables)
    cost[n * 10 + m] = -1.0
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
    if not result.success:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return -result.fun


def bland_run_simplex(cost: np.ndarray, state) -> int:
    """The original Bland loop of ``tfqkd.simplex._run_simplex``, kept as written.

    Same pivots, same float expressions and the same in-place updates of
    ``state``; the package loop only trims the interpreter overhead around
    them, and must stay bit-identical to this one.
    """
    tableau, basis, status, x_basic, upper = (
        state.tableau, state.basis, state.status, state.x_basic, state.upper,
    )
    iterations = 0
    while True:
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            raise RuntimeError("simplex iteration limit exceeded")

        reduced = cost - cost[basis] @ tableau
        movable = (upper > 0.0) & (status != _BASIC)
        eligible = movable & (
            ((status == _LOWER) & (reduced > COST_TOLERANCE))
            | ((status == _UPPER) & (reduced < -COST_TOLERANCE))
        )
        candidates = np.flatnonzero(eligible)
        if candidates.size == 0:
            return iterations - 1
        entering = int(candidates[0])  # Bland: smallest index
        direction = 1.0 if status[entering] == _LOWER else -1.0
        column = direction * tableau[:, entering]

        # Ratio test: step until a basic variable hits one of its bounds or
        # the entering variable spans its own box.
        step = upper[entering]
        leaving_row = -1
        for i in range(column.size):
            a = column[i]
            if a > PIVOT_TOLERANCE:
                limit = max(0.0, x_basic[i]) / a
            elif a < -PIVOT_TOLERANCE:
                ub_i = upper[basis[i]]
                if not np.isfinite(ub_i):
                    continue
                limit = (x_basic[i] - ub_i) / a
                if limit < 0.0:
                    limit = 0.0
            else:
                continue
            if limit < step - 1e-15 or (
                leaving_row >= 0 and abs(limit - step) <= 1e-15 and basis[i] < basis[leaving_row]
            ):
                step = limit
                leaving_row = i

        if not np.isfinite(step):
            raise UnboundedProblemError("objective unbounded along entering variable")

        x_basic -= step * column
        if leaving_row < 0:
            # Entering variable traverses its whole box: bound flip only.
            status[entering] = _UPPER if status[entering] == _LOWER else _LOWER
            continue

        entering_value = (0.0 if direction > 0.0 else upper[entering]) + direction * step
        leaving_var = int(basis[leaving_row])
        hit_upper = column[leaving_row] < 0.0
        status[leaving_var] = _UPPER if hit_upper else _LOWER

        pivot = tableau[leaving_row, entering]
        tableau[leaving_row] /= pivot
        state.rhs[leaving_row] /= pivot
        factors = tableau[:, entering].copy()
        factors[leaving_row] = 0.0
        tableau -= np.outer(factors, tableau[leaving_row])
        state.rhs -= factors * state.rhs[leaving_row]

        status[entering] = _BASIC
        basis[leaving_row] = entering
        x_basic[leaving_row] = entering_value


def cat_coefficients_reference(alpha: float, tail_tolerance: float = DEFAULT_TAIL_TOLERANCE) -> CatStateCoefficients:
    """``tfqkd.security.cat_coefficients`` as first written, without the memo.

    n_max is the smallest photon number for which the omitted squared
    amplitude mass (a Poisson tail in alpha^2) stays below tail_tolerance.
    """
    if alpha < 0.0:
        raise DomainError(f"amplitude must be nonnegative, got {alpha}")
    if alpha > MAX_AMPLITUDE:
        raise UnsupportedAmplitudeError(f"amplitude {alpha} is far outside the protocol regime (max {MAX_AMPLITUDE})")
    if not (0.0 < tail_tolerance <= 1e-6):
        raise DomainError(f"tail tolerance must lie in (0, 1e-6], got {tail_tolerance}")

    mu = alpha * alpha
    # Walk the Poisson weights w_n = e^-mu mu^n / n!; amplitudes are sqrt(w_n).
    weight = math.exp(-mu)
    amplitude = math.exp(-0.5 * mu)
    covered = weight
    amplitudes = [amplitude]
    n = 0
    while 1.0 - covered > tail_tolerance:
        n += 1
        weight *= mu / n
        amplitude = math.sqrt(weight)
        covered += weight
        amplitudes.append(amplitude)
        if n > 4000:  # unreachable for alpha <= 10; guards the loop
            raise DomainError("cat-state truncation failed to converge")
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


def phase_error_bound_reference(p_xx: float, cat_a: CatStateCoefficients, cat_b: CatStateCoefficients,
                                bound_matrix: np.ndarray) -> float:
    """``tfqkd.security.phase_error_bound_from_matrix`` as first written,
    rebuilding every amplitude vector on each call.

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
    if not np.all((bounds >= 0.0) & (bounds <= 1.0)):
        raise DomainError("yield bounds must lie in [0, 1]")
    size = bounds.shape[0]
    vec_a = cat_a.dense(size)
    vec_b = cat_b.dense(size)
    correction = np.sqrt(bounds) - 1.0
    even_mask = np.arange(size) % 2 == 0
    a_even = np.where(even_mask, vec_a, 0.0)
    b_even = np.where(even_mask, vec_b, 0.0)
    a_odd = vec_a - a_even
    b_odd = vec_b - b_even
    be = max(0.0, cat_a.even_sum * cat_b.even_sum + a_even @ correction @ b_even)
    bo = max(0.0, cat_a.odd_sum * cat_b.odd_sum + a_odd @ correction @ b_odd)
    return float(min(1.0, (be * be + bo * bo) / p_xx))
