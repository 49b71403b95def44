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
the same float bytes.  The key-rate reference is the key rate with its
pattern count and error-correction factor still parameters.  The
coordinate-descent reference is the string-keyed search as first written:
coordinates named by ProtocolParameters fields, boxes found from field-name
prefixes and every point made by dataclasses.replace; the package's
search-vector descent must evaluate the same points and return the same
bytes.  lp_contains is the feasibility check the yield LP used to carry.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from tfqkd.channel import _port_bunching_table
from tfqkd.errors import DomainError, UnboundedProblemError, UnsupportedAmplitudeError, ZeroGainError
from tfqkd.optimizer import (
    DECOY_GAP,
    INTENSITY_MAX,
    INTENSITY_MIN,
    OMEGA_SHARE_MIN,
    PROBABILITY_MAX,
    PROBABILITY_MIN,
    EvaluationMode,
    ProtocolParameters,
    Strategy,
)
from tfqkd.security import DEFAULT_TAIL_TOLERANCE, MAX_AMPLITUDE, CatStateCoefficients, binary_entropy
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


def golden_section_max_reference(f, lo: float, hi: float, evaluations: int = 30) -> tuple[float, float]:
    """Golden-section line search; returns the best evaluated point."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    if f1 >= f2:
        best_x, best_f = x1, f1
    else:
        best_x, best_f = x2, f2
    for _ in range(max(0, evaluations - 2)):
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
                                 line_evaluations: int = 30) -> tuple[ProtocolParameters, float]:
    """Cyclic line search over the strategy's free coordinates.

    Each coordinate is maximized by golden section within its current box;
    passes repeat until the relative rate improvement over a full pass
    drops below the threshold.  Objectives returning NaN count as
    rejected points.
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
                lambda v: _safe(objective, coord.apply(params, v)), lo, hi, line_evaluations,
            )
            if rate > current:
                params = coord.apply(params, value)
                current = rate
        if current - pass_start <= rel_improvement * max(pass_start, 0.0):
            break
    return params, current
