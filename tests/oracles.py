"""Independent reference computations used to freeze expected test values.

These deliberately avoid the code paths they check: the Bessel reference
integrates the defining integral by quadrature, the photon-path yield
enumerates quantum amplitudes mode by mode instead of using any closed
form, and the scalar yield loop sums the binomial thinning term by term
where the package multiplies matrices.  The Bland reference is the
simplex loop as first written, with numpy masks and numpy scalars
throughout; the Dantzig reference is the same loop with the pricing of
the package's phase 2 (largest reduced cost, Bland's rule after a run of
degenerate steps).  The package's leaner loop must retrace the Dantzig
reference bit for bit, and the Bland one with a degenerate budget of 0.  The
bunching-table and binomial references are the yield grid's two tables as
first written, every integer and power computed term by term; the
package's tables, which take them from lists built once per call, must
hold the same bytes.  The cat-state and phase-error references are the scalar routines as first
written, one cat state at a time; the package's batched cat rows must
hold the same amplitude bytes, and its sums and bounds must agree within
the relative tolerances that test_security states.  The key-rate
reference is the key rate with its pattern count and error-correction
factor still parameters.  The
coordinate-descent reference is the string-keyed search as first written:
coordinates named by ProtocolParameters fields, boxes found from field-name
prefixes and every point made by dataclasses.replace; the package's
search-vector descent must evaluate the same points and return the same
bytes.  The start reference is the random starting point as first written,
with the ties spelled out per strategy; the package's tie-table draw must
consume the generator in the same order and return the same bytes.
lp_contains is the feasibility check the yield LP used to carry, and
basic_point_long_double the point of a given basis, solved in long
double to check a bound against a point that rounding cannot move.  The
decoy references are the Poisson vector, the gain widening and the LP
assembly as first written, one intensity pair at a time; the package's
poisson_pmf_rows and whole-array build_problem must return the same bytes.
The Z-basis gain reference is z_basis_gain as first written, one pair of
arriving intensities at a time; the package's z_basis_gains, which maps
the transcendental calls over whole arrays, must return the same bytes
and raise the same first error.  The QBER reference is x_basis_qber with the negative-margin branch and
[0, 1] check it carried before it shared the gains' clamp rule; wherever it
returns, the package must return the same bits.  The QBER-scan reference is
run_qber_scan as first written, one yield_lp per grid point; the package's
scan, which solves the grid's LPs in stacks, must return the same rows and
raise the same first error.  The rebase reference is simplex.rebase as
first written, one carried state at a time, with the zero-pivot test that
reoptimize then made; the package's rebase, which carries the finite
search's five bases as one stack, must give each the same verdict and the
same bytes.  The asymptotic-search references are the rate grid of one
scenario and the grid search of one scenario as first written, one
kernel call per round; the package's searches, run in lockstep over many
scenarios, must return the same intensity bits.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from tfqkd.channel import (
    NEGATIVE_CLAMP,
    PHOTON_NUMBER_CAP,
    ArrivingIntensities,
    _clamp_probability,
    _port_bunching_table,
    _x_basis_terms,
    first_order_diagnostics,
    i0m1,
    x_basis_gain,
    x_basis_qber,
    yield_grid,
)
from tfqkd.decoy import _N_VARS, PHOTON_CUTOFF, yield_lp
from tfqkd.experiments import QberScanRow
from tfqkd.errors import DomainError, UnboundedProblemError, UnsupportedAmplitudeError, ZeroGainError
from tfqkd.optimizer import (
    COARSE_POINTS,
    DECOY_GAP,
    FINAL_LOG_STEP,
    INTENSITY_MAX,
    INTENSITY_MIN,
    OMEGA_SHARE_MIN,
    PROBABILITY_MAX,
    PROBABILITY_MIN,
    REFINE_POINTS,
    EvaluationMode,
    ProtocolParameters,
    Strategy,
    _entropy,
)
from tfqkd.security import (
    DEFAULT_TAIL_TOLERANCE,
    MAX_AMPLITUDE,
    PATTERN_COUNT,
    binary_entropy,
    cat_amplitude_rows,
    cat_state,
    phase_error_upper_bound,
)
from tfqkd.simplex import (
    _BASIC,
    _LOWER,
    _MAX_ITERATIONS,
    _UPPER,
    COST_TOLERANCE,
    PIVOT_TOLERANCE,
    REBASE_TOLERANCE,
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


def port_bunching_table_reference(cos_theta: float) -> tuple[tuple[float, ...], ...]:
    """channel._port_bunching_table as first written: every integer and power computed term by term."""
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


def binomial_pmf_matrix_reference(n_max: int, eta: float) -> np.ndarray:
    """channel._binomial_pmf_matrix as first written: math.comb and both powers per entry."""
    out = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for k in range(n + 1):
            out[n, k] = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
    return out


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
    bunch = _port_bunching_table(math.cos(scenario.theta))
    total = 0.0
    for k in range(n_a + 1):
        wa = math.comb(n_a, k) * scenario.eta_a**k * (1.0 - scenario.eta_a) ** (n_a - k)
        for l in range(n_b + 1):
            wb = math.comb(n_b, l) * scenario.eta_b**l * (1.0 - scenario.eta_b) ** (n_b - l)
            total += wa * wb * bunch[k][l]
    total -= (1.0 - scenario.eta_a) ** n_a * (1.0 - scenario.eta_b) ** n_b
    return min(1.0, max(0.0, total))


def scipy_yield_upper_bound(problem, target: tuple[int, int]) -> float:
    """Reference LP optimum via scipy's HiGHS backend: a closeness reference, not a soundness referee.

    HiGHS accepts points that violate a constraint by up to its primal
    feasibility tolerance, 1e-7, so on low-gain finite LPs its optimum can
    lie above the true maximum: on an add_fibre 30 dB LP it read 8.8e-8
    above a valid long-double weak-duality bound.  Compare a bound with it
    to within such a tolerance; on such LPs, never require a bound to reach it.
    """
    from scipy.optimize import linprog

    lower, upper = problem.constraint_bounds()
    a_ub = np.vstack([problem.coefficients, -problem.coefficients])
    b_ub = np.concatenate([upper, -lower])
    n, m = target
    cost = np.zeros(problem.coefficients.shape[1])
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


def dantzig_run_simplex(cost: np.ndarray, state, degenerate_budget: int) -> int:
    """The Bland loop above with Dantzig pricing and a Bland fallback.

    While fewer than ``degenerate_budget`` steps of length 0 ran in a row,
    the eligible variable with the largest reduced cost in its improving
    direction enters (the first one on ties); otherwise the smallest
    eligible index enters, as in ``bland_run_simplex``.  Ratio test and
    updates are those of ``bland_run_simplex``.
    """
    tableau, basis, status, x_basic, upper = (
        state.tableau, state.basis, state.status, state.x_basic, state.upper,
    )
    iterations = 0
    degenerate_run = 0
    while True:
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            raise RuntimeError("simplex iteration limit exceeded")

        reduced = cost - cost[basis] @ tableau
        improvement = np.where(status == _LOWER, reduced, -reduced)
        eligible = (upper > 0.0) & (status != _BASIC) & (improvement > COST_TOLERANCE)
        candidates = np.flatnonzero(eligible)
        if candidates.size == 0:
            return iterations - 1
        if degenerate_run < degenerate_budget:
            entering = int(candidates[np.argmax(improvement[candidates])])  # Dantzig
        else:
            entering = int(candidates[0])  # Bland: smallest index
        direction = 1.0 if status[entering] == _LOWER else -1.0
        column = direction * tableau[:, entering]

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
        if step == 0.0:
            degenerate_run += 1
        else:
            degenerate_run = 0

        x_basic -= step * column
        if leaving_row < 0:
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


@dataclass(frozen=True)
class CatStateCoefficients:
    """Truncated photon-number amplitudes of the even/odd cat states, as first written.

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

    def dense(self, size: int) -> np.ndarray:
        """Amplitudes c_0..c_(size-1) as a vector, zero-padded/truncated."""
        out = np.zeros(size)
        count = min(size, self.n_max + 1)
        out[0:count:2] = self.even[:(count + 1) // 2]
        out[1:count:2] = self.odd[:count // 2]
        return out


def cat_coefficients_reference(alpha: float, tail_tolerance: float = DEFAULT_TAIL_TOLERANCE) -> CatStateCoefficients:
    """The scalar cat state as first written, without the memo; the package's
    ``cat_amplitude_rows`` must return the same amplitudes.

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
    """The scalar phase-error bound as first written, rebuilding every
    amplitude vector on each call; the package's ``phase_error_upper_bound``
    must agree with it.

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


def key_rate_reference(p_xx: float, e_xx: float, e_zz_upper: float, pattern_count: int = 2,
                       basis_weight: float = 1.0, error_correction_factor: float = 1.0) -> float:
    """``tfqkd.security.key_rate`` with the pattern count and the error-correction factor as parameters."""
    if p_xx < 0.0 or not (0.0 <= basis_weight <= 1.0):
        raise DomainError(f"invalid gain {p_xx} or basis weight {basis_weight}")
    if pattern_count < 1:
        raise DomainError(f"pattern count must be positive, got {pattern_count}")
    net = (
        1.0
        - error_correction_factor * binary_entropy(min(e_xx, 0.5))
        - binary_entropy(min(e_zz_upper, 0.5))
    )
    return basis_weight * pattern_count * p_xx * max(0.0, net)


def lp_contains(problem, yields: np.ndarray, tolerance: float = 1e-9) -> bool:
    """Whether a 10x10 yield grid satisfies every constraint of the yield LP within tolerance."""
    flat = np.asarray(yields, dtype=float).reshape(problem.coefficients.shape[1])
    if np.any(flat < -tolerance) or np.any(flat > 1.0 + tolerance):
        return False
    mixed = problem.coefficients @ flat
    lower, upper = problem.constraint_bounds()
    return bool(np.all(mixed >= lower - tolerance) and np.all(mixed <= upper + tolerance))


def basic_point_long_double(a: np.ndarray, b: np.ndarray, upper: np.ndarray, basis: list[int],
                            at_upper: list[int]) -> np.ndarray:
    """The point of A x = b with the given basis, in long double.

    Nonbasic variables sit at 0, or at their upper bound when listed in
    at_upper; the basic ones solve B x_B = b - A_U u_U by Gaussian
    elimination with partial pivoting, without LAPACK or BLAS.
    """
    a, b, upper = (np.asarray(v, dtype=np.longdouble) for v in (a, b, upper))
    x = np.zeros(a.shape[1], dtype=np.longdouble)
    x[at_upper] = upper[at_upper]
    block = a[:, basis].copy()
    rhs = b - a[:, at_upper] @ x[at_upper]
    m = len(basis)
    for k in range(m):
        pivot = k + int(np.argmax(np.abs(block[k:, k])))
        block[[k, pivot]], rhs[[k, pivot]] = block[[pivot, k]], rhs[[pivot, k]]
        for i in range(k + 1, m):
            factor = block[i, k] / block[k, k]
            block[i, k:] -= factor * block[k, k:]
            rhs[i] -= factor * rhs[k]
    for k in reversed(range(m)):
        x[basis[k]] = (rhs[k] - block[k, k + 1:] @ x[basis[k + 1:]]) / block[k, k]
    return x


def rebase_reference(state, objective: np.ndarray, a: np.ndarray, b: np.ndarray, upper: np.ndarray,
                     new_matrix: bool = False):
    """simplex.rebase's rule on one state, as first written: None, or (copy, verdict).

    The basic values are recomputed from the carried inverse, or from
    np.linalg.inv of the basis block on a new matrix, and again from a
    fresh inverse when the carried one fails the first-order test; a
    singular block, a fresh inverse that fails too, or non-finite data
    gives None.  verdict is "optimal" where the copy needs no re-solve: an
    unchanged tableau with the same open boxes whose basic values lie in
    their boxes (what the per-state rebase read as it stood), or a basis in
    its boxes that prices no column in (where reoptimize returned at once
    with no pivot); it is "reoptimize" otherwise.
    """
    full = np.concatenate((a, np.eye(len(b))), axis=1)
    if not (np.isfinite(full).all() and np.isfinite(b).all() and not np.isnan(upper).any()):
        return None
    work = state.copy()
    n = work.n_structural
    work.upper[:n] = upper
    for rebuilt in (new_matrix, True):
        if rebuilt:
            try:
                work.tableau = np.linalg.inv(full[:, work.basis]) @ full
            except np.linalg.LinAlgError:
                return None
        work.rhs = work.tableau[:, n:] @ b
        work.refresh_basics()
        x = np.where(work.status == _UPPER, work.upper, 0.0)
        x[work.basis] = work.x_basic
        if np.abs(work.tableau[:, n:] @ (a @ x[:n] + x[n:] - b)).max() <= REBASE_TOLERANCE:
            break
        if rebuilt:
            return None
    inside = bool(((work.x_basic >= 0.0) & (work.x_basic <= work.upper[work.basis])).all())
    if inside and not rebuilt and np.array_equal(upper > 0.0, state.upper[:n] > 0.0):
        return work, "optimal"
    cost = np.zeros(work.upper.size)
    cost[:n] = objective
    sign = np.where(work.upper > 0.0, np.where(work.status == _UPPER, -1.0, 1.0), 0.0)
    sign[work.status == _BASIC] = 0.0
    priced_in = ((cost - cost[work.basis] @ work.tableau) * sign > COST_TOLERANCE).any()
    return work, "optimal" if inside and not priced_in else "reoptimize"


def poisson_pmf_vector_reference(mu: float, count: int = PHOTON_CUTOFF) -> np.ndarray:
    """P_n = e^-mu mu^n / n! for n = 0..count-1 (a vacuum source gives e_0)."""
    # 0 <= x < inf also rejects NaN, which would fill the vector with NaN
    if not 0.0 <= mu < math.inf:
        raise DomainError(f"intensity must be finite and nonnegative, got {mu}")
    out = np.empty(count)
    term = math.exp(-mu)
    for n in range(count):
        out[n] = term
        term *= mu / (n + 1)
    return out


def widened_gain_interval_reference(gain: float, effective_pulses: float, sigma_multiplier: float) -> tuple[float, float]:
    """Standard-error confidence interval for an observed gain.

    Returns (max(0, Q - g*sqrt(Q/M)), Q + g*sqrt(Q/M)) with M the effective
    pulse count for the intensity pair.  A zero observed gain widens to the
    degenerate interval [0, 0]; the standard-error model carries no
    information at zero counts.
    """
    # written as not (x >= 0) / not (x > 0) so that NaN is rejected too
    if not (gain >= 0.0 and effective_pulses > 0.0 and sigma_multiplier > 0.0):
        raise DomainError(
            f"invalid widening inputs: gain={gain}, pulses={effective_pulses}, sigma={sigma_multiplier}"
        )
    delta = sigma_multiplier * math.sqrt(gain / effective_pulses)
    return max(0.0, gain - delta), gain + delta


@dataclass(frozen=True)
class ReferenceProblem:
    """The arrays, row labels and warnings of one reference assembly of the yield LP."""

    coefficients: np.ndarray
    gain_lower: np.ndarray
    gain_upper: np.ndarray
    slack_mass: np.ndarray
    pair_labels: tuple
    warnings: tuple


def build_problem_reference(intensities_a, intensities_b, gains, pulse_counts=None,
                            sigma_multiplier: float | None = None) -> ReferenceProblem:
    """Assemble the yield LP of one decoy setting, one intensity pair at a time.

    Given a sigma multiplier (finite mode), every gain is first widened to
    its confidence interval, which can only loosen the resulting upper
    bounds.  Equal decoy intensities on one side leave duplicated,
    information-free rows; the problem is still well posed and a warning
    records the degeneracy.
    """
    if sigma_multiplier is not None:
        if pulse_counts is None:
            raise DomainError("finite-size mode requires pulse counts in the observations")
        if not sigma_multiplier > 0.0:  # also rejects NaN
            raise DomainError(f"sigma multiplier must be positive, got {sigma_multiplier}")

    warnings = []
    for side, values in (("A", intensities_a), ("B", intensities_b)):
        if values[0] == values[1]:
            warnings.append(
                f"degenerate decoys on side {side}: mu == nu == {values[0]}; "
                "the duplicated rows provide no extra information"
            )
        if values[1] == values[2]:
            warnings.append(
                f"degenerate decoys on side {side}: nu == omega == {values[1]}; "
                "the duplicated rows provide no extra information"
            )

    pmf_a = [poisson_pmf_vector_reference(mu) for mu in intensities_a]
    pmf_b = [poisson_pmf_vector_reference(mu) for mu in intensities_b]

    coefficients = np.empty((9, _N_VARS))
    gain_lower = np.empty(9)
    gain_upper = np.empty(9)
    slack_mass = np.empty(9)
    labels = []
    row = 0
    for i in range(3):
        for j in range(3):
            coefficients[row] = np.outer(pmf_a[i], pmf_b[j]).reshape(_N_VARS)
            slack_mass[row] = 1.0 - pmf_a[i].sum() * pmf_b[j].sum()
            gain = gains[i][j]
            if sigma_multiplier is not None:
                low, high = widened_gain_interval_reference(gain, pulse_counts[i][j], sigma_multiplier)
            else:
                low = high = gain
            gain_lower[row] = low
            gain_upper[row] = high
            labels.append(f"(mu_a[{i}]={intensities_a[i]:g}, mu_b[{j}]={intensities_b[j]:g})")
            row += 1

    return ReferenceProblem(coefficients, gain_lower, gain_upper, slack_mass, tuple(labels), tuple(warnings))


@dataclass(frozen=True)
class _Coordinate:
    """One free search direction; setting it may update both sides (ties)."""

    name: str
    fields: tuple[str, ...]
    kind: str  # "signal" | "mu" | "nu" | "probability"

    def apply(self, params: ProtocolParameters, value: float) -> ProtocolParameters:
        return replace(params, **{f: value for f in self.fields})

    def box(self, params: ProtocolParameters) -> tuple[float, float]:
        if self.kind == "signal":
            return INTENSITY_MIN, INTENSITY_MAX
        if self.kind == "mu":
            floor = max(getattr(params, f"nu_{f[-1]}") for f in self.fields) + DECOY_GAP
            return floor, INTENSITY_MAX
        if self.kind == "nu":
            ceil = min(getattr(params, f"mu_{f[-1]}") for f in self.fields) - DECOY_GAP
            return INTENSITY_MIN, ceil
        # probability: stay inside the simplex, leaving room for the vacuum share
        ceil = PROBABILITY_MAX
        for f in self.fields:
            side = f[-1]
            others = sum(
                getattr(params, f"p_{k}_{side}")
                for k in ("s", "mu", "nu")
                if f"p_{k}_{side}" != f
            )
            ceil = min(ceil, 1.0 - OMEGA_SHARE_MIN - others)
        return PROBABILITY_MIN, ceil


def _coord(name: str, fields: tuple[str, ...]) -> _Coordinate:
    if fields[0].startswith("s_"):
        kind = "signal"
    elif fields[0].startswith("mu_"):
        kind = "mu"
    elif fields[0].startswith("nu_"):
        kind = "nu"
    else:
        kind = "probability"
    return _Coordinate(name, fields, kind)


_BOTH = {
    "s": ("s_a", "s_b"), "mu": ("mu_a", "mu_b"), "nu": ("nu_a", "nu_b"),
    "p_s": ("p_s_a", "p_s_b"), "p_mu": ("p_mu_a", "p_mu_b"), "p_nu": ("p_nu_a", "p_nu_b"),
}


def strategy_coordinates_reference(strategy: Strategy, mode: EvaluationMode) -> tuple[_Coordinate, ...]:
    """Free coordinates under the strategy's tying rules, in a fixed order."""
    tied = strategy in (Strategy.SYMMETRIC, Strategy.ADD_FIBRE)
    if not mode.is_finite:
        if tied:
            return (_coord("s", _BOTH["s"]),)
        return (_coord("s_a", ("s_a",)), _coord("s_b", ("s_b",)))
    if tied:
        return tuple(_coord(name, fields) for name, fields in _BOTH.items())
    if strategy is Strategy.SIGNAL_ONLY:
        rest = tuple(_coord(name, fields) for name, fields in _BOTH.items() if name != "s")
        return (_coord("s_a", ("s_a",)),) + rest + (_coord("s_b", ("s_b",)),)
    return tuple(
        _coord(f, (f,))
        for f in (
            "s_a", "mu_a", "nu_a", "p_s_a", "p_mu_a", "p_nu_a",
            "s_b", "mu_b", "nu_b", "p_s_b", "p_mu_b", "p_nu_b",
        )
    )


def _safe(objective, params: ProtocolParameters) -> float:
    value = objective(params)
    return -math.inf if math.isnan(value) else value


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max_reference(f, lo: float, hi: float, evaluations: int = 30,
                                 line_tolerance: float | None = 1e-3) -> tuple[float, float]:
    """Golden-section line search; returns the best evaluated point.

    The search stops after `evaluations` evaluations, or earlier once the
    bracket [a, b] is within line_tolerance of its midpoint.  With
    line_tolerance None it always makes `evaluations` evaluations: the
    search before the bracket rule, kept as the old-search reference.
    """
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    if f1 >= f2:
        best_x, best_f = x1, f1
    else:
        best_x, best_f = x2, f2
    for _ in range(max(0, evaluations - 2)):
        if line_tolerance is not None and b - a <= line_tolerance * 0.5 * (a + b):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
            if f2 > best_f:
                best_x, best_f = x2, f2
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
            if f1 > best_f:
                best_x, best_f = x1, f1
    return best_x, best_f


def coordinate_descent_reference(objective, init: ProtocolParameters, strategy: Strategy,
                                 mode: EvaluationMode, max_passes: int = 50,
                                 rel_improvement: float = 1e-4,
                                 line_evaluations: int = 30,
                                 line_tolerance: float | None = 1e-3) -> tuple[ProtocolParameters, float]:
    """Cyclic line search over the strategy's free coordinates.

    Each coordinate is maximized by golden section within its current box
    (golden_section_max_reference, which line_tolerance None turns into
    the search of line_evaluations points each); passes repeat until the relative rate
    improvement over a full pass drops below the threshold, or the rate
    does not change at all.  Objectives returning NaN count as rejected
    points.
    """
    coords = strategy_coordinates_reference(strategy, mode)
    params = init
    current = _safe(objective, params)
    for _ in range(max_passes):
        pass_start = current
        for coord in coords:
            lo, hi = coord.box(params)
            if not lo < hi:
                continue
            value, rate = golden_section_max_reference(
                lambda v: _safe(objective, coord.apply(params, v)), lo, hi, line_evaluations, line_tolerance,
            )
            if rate > current:
                params = coord.apply(params, value)
                current = rate
        if current == pass_start or current - pass_start <= rel_improvement * max(pass_start, 0.0):
            break
    return params, current


def draw_start_reference(strategy: Strategy, mode: EvaluationMode, seed: int, index: int) -> ProtocolParameters:
    """Seeded random starting point honouring the strategy's ties.

    Intensities are drawn log-uniformly over the search box; selection
    probabilities uniformly over the interior of the simplex (a rescaled
    flat Dirichlet keeps every share above its floor).
    """
    rng = np.random.default_rng([seed, index])
    tied = strategy in (Strategy.SYMMETRIC, Strategy.ADD_FIBRE)

    def log_uniform() -> float:
        return float(10.0 ** rng.uniform(math.log10(INTENSITY_MIN), math.log10(INTENSITY_MAX)))

    def decoy_pair() -> tuple[float, float]:
        first, second = log_uniform(), log_uniform()
        mu, nu = max(first, second), min(first, second)
        if mu - nu < 1e-5:
            nu = max(INTENSITY_MIN, mu / 2.0)
        if mu - nu < 1e-5:
            mu = min(INTENSITY_MAX, 2.0 * nu)
        return mu, nu

    def prob_triple() -> tuple[float, float, float]:
        shares = PROBABILITY_MIN + (1.0 - 4.0 * PROBABILITY_MIN) * rng.dirichlet(np.ones(4))
        return float(shares[0]), float(shares[1]), float(shares[2])

    s_a = log_uniform()
    s_b = s_a if tied else log_uniform()
    if not mode.is_finite:
        return ProtocolParameters(s_a=s_a, s_b=s_b, mu_a=0.1, nu_a=0.01, mu_b=0.1, nu_b=0.01)

    mu_a, nu_a = decoy_pair()
    mu_b, nu_b = (mu_a, nu_a) if tied or strategy is Strategy.SIGNAL_ONLY else decoy_pair()
    pa = prob_triple()
    pb = pa if tied or strategy is Strategy.SIGNAL_ONLY else prob_triple()
    return ProtocolParameters(
        s_a=s_a, s_b=s_b, mu_a=mu_a, nu_a=nu_a, mu_b=mu_b, nu_b=nu_b,
        p_s_a=pa[0], p_mu_a=pa[1], p_nu_a=pa[2],
        p_s_b=pb[0], p_mu_b=pb[1], p_nu_b=pb[2],
    )


def x_basis_qber_reference(scenario, gamma) -> float:
    """X-basis QBER as first written, with its own clamp and [0, 1] check."""
    _, minus, plus = _x_basis_terms(scenario, gamma)
    numerator = minus + scenario.p_d
    denominator = minus + plus + 2.0 * scenario.p_d
    if denominator <= 0.0:
        raise ZeroGainError("QBER undefined: the X-basis gain is zero for these inputs")
    ratio = numerator / denominator
    if ratio < 0.0:
        ratio = 0.0 if ratio > -NEGATIVE_CLAMP else ratio
    if not (0.0 <= ratio <= 1.0):
        raise DomainError(f"QBER evaluated to {ratio}, outside [0, 1]")
    return ratio


def z_basis_gain_reference(scenario, gamma_decoy) -> float:
    """z_basis_gain as first written: one pair of arriving intensities, scalar math throughout."""
    total = gamma_decoy.gamma_a + gamma_decoy.gamma_b
    x = math.sqrt(gamma_decoy.gamma_a * gamma_decoy.gamma_b) * math.cos(scenario.theta)
    one_minus_pd = 1.0 - scenario.p_d
    series = i0m1(x)  # I0(x) is 1.0 + series
    try:
        light = math.expm1(0.5 * total) * (1.0 + series) + series
        if light == math.inf:  # the product overflowed, and inf * e^-S would be NaN
            raise OverflowError
    except OverflowError:
        raise DomainError(f"decoy arriving intensities {gamma_decoy.gamma_a}, {gamma_decoy.gamma_b} "
                          "overflow the Z-basis gain") from None
    return _clamp_probability(one_minus_pd * math.exp(-total) * (light + scenario.p_d))


def qber_scan_reference(config) -> list:
    """run_qber_scan as first written: the X-basis columns and then one yield_lp per grid point."""
    scenario = config.scenario()
    p_xx_signal = x_basis_gain(scenario, ArrivingIntensities.from_sources(scenario, config.s_b, config.s_b))
    rows = []
    for value in config.s_a_grid:
        gamma = ArrivingIntensities.from_sources(scenario, value, config.s_b)
        e_full = x_basis_qber(scenario, gamma)
        e_first = first_order_diagnostics(scenario, gamma)
        strong, weak = (value, config.nu) if value >= config.nu else (config.nu, value)
        _, bounds = yield_lp(scenario, (strong, weak, 0.0), (config.mu_b, config.nu, 0.0))
        cat = cat_state(math.sqrt(config.s_b), bounds.shape[0])
        e_zz = min(1.0, float(phase_error_upper_bound(cat, cat, bounds)[0, 0]) / p_xx_signal)
        rows.append(QberScanRow(ratio=value / config.s_b, e_xx_full=e_full, e_xx_first_order=e_first,
                                e_zz_upper=e_zz))
    return rows


def asymptotic_rate_grid_reference(scenario, s_a_values, s_b_values) -> np.ndarray:
    """optimizer.asymptotic_rate_grid of one scenario as first written, shape (len(s_a), len(s_b)).

    Scenario values enter as Python floats, the cat rows of each side come
    from their own cat_amplitude_rows call, and the phase-error bound is
    phase_error_upper_bound's arithmetic on one (2, N, size) stack per side.
    """
    s_a = np.asarray(s_a_values, dtype=float)
    s_b = np.asarray(s_b_values, dtype=float)
    gamma_a = (s_a * scenario.eta_a)[:, None]
    gamma_b = (s_b * scenario.eta_b)[None, :]
    total = gamma_a + gamma_b
    g = np.sqrt(gamma_a * gamma_b) * math.cos(scenario.phi) * math.cos(scenario.theta)
    minus = np.expm1(0.5 * total - g)
    plus = np.expm1(0.5 * total + g)
    p_xx = np.clip((1.0 - scenario.p_d) * np.exp(-total) * (0.5 * (minus + plus) + scenario.p_d), 0.0, 1.0)
    clicks = p_xx > 0.0
    e_xx = np.divide(minus + scenario.p_d, minus + plus + 2.0 * scenario.p_d, out=np.zeros_like(p_xx), where=clicks)

    grid = yield_grid(scenario)
    size = grid.shape[0]
    (rows_a, sums_a), (rows_b, sums_b) = cat_amplitude_rows(np.sqrt(s_a), size), cat_amplitude_rows(np.sqrt(s_b), size)
    brackets = sums_a[:, :, None] * sums_b[:, None, :] + rows_a @ (np.sqrt(grid) - 1.0) @ rows_b.transpose(0, 2, 1)
    np.maximum(brackets, 0.0, out=brackets)
    brackets *= brackets
    gain = brackets[0] + brackets[1]
    e_zz = np.minimum(np.divide(gain, p_xx, out=np.ones_like(p_xx), where=clicks), 1.0)
    net = 1.0 - _entropy(np.clip(e_xx, 0.0, 0.5)) - _entropy(np.minimum(e_zz, 0.5))
    return PATTERN_COUNT * p_xx * np.maximum(net, 0.0)


def asymptotic_search_reference(scenario, tied: bool) -> tuple[tuple[float, float], int]:
    """The asymptotic grid search of one scenario as first written: ((s_a, s_b), rounds).

    The first grid has COARSE_POINTS log-spaced intensities per side over
    [INTENSITY_MIN, INTENSITY_MAX]; tied sides read the diagonal of the
    rate mesh.  Each later grid has REFINE_POINTS per side over the cell of
    one step either side of the best point, clipped to the box, until the
    log10 step is at most FINAL_LOG_STEP.  rounds counts the grids.
    """
    box = (math.log10(INTENSITY_MIN), math.log10(INTENSITY_MAX))
    cells, points, rounds = (box, box), COARSE_POINTS, 0
    while True:
        logs = [np.linspace(low, high, points) for low, high in cells]
        values = [10.0 ** u for u in logs]
        rates = asymptotic_rate_grid_reference(scenario, *values)
        rounds += 1
        if tied:
            best = (int(np.argmax(np.diagonal(rates))),) * 2
        else:
            best = np.unravel_index(int(np.argmax(rates)), rates.shape)
        steps = [(high - low) / (points - 1) for low, high in cells]
        if max(steps) <= FINAL_LOG_STEP:
            return (float(values[0][best[0]]), float(values[1][best[1]])), rounds
        cells = tuple((max(box[0], u[k] - step), min(box[1], u[k] + step)) for u, k, step in zip(logs, best, steps))
        points = REFINE_POINTS
