"""Protocol parameter search by coordinate descent with multistart.

Every strategy searches one 12-slot vector: the signal intensity, two
decoy intensities and three selection probabilities of side a, then those
of side b; asymptotic mode moves only the signal slots.  Four
strategies restrict how the two sides may differ: fully symmetric,
symmetric-after-padding (extra loss on the better channel), asymmetric
signal intensities only, and fully asymmetric.  A strategy is one row of
the tie table TIED_SLOTS; its coordinates (each the tuple of slots it sets
to one value) and its random starts follow from that row.  Each coordinate
is line-searched by golden section inside its box; passes repeat until the
rate stops improving.  Multistart keeps the best outcome over seeded
starts, with ties broken by the lowest start index, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .channel import ArrivingIntensities, ChannelScenario, x_basis_gain, x_basis_qber, yield_grid
from .decoy import LpProblem, build_problem, observations_from_scenario, solve_yield_bounds
from .errors import DomainError
from .security import cat_coefficients, key_rate, phase_error_bound_from_matrix

INTENSITY_MIN = 1e-4
INTENSITY_MAX = 1.0
DECOY_GAP = 1e-6
PROBABILITY_MIN = 1e-3
PROBABILITY_MAX = 0.99
OMEGA_SHARE_MIN = 1e-3  # selection probability reserved for the vacuum decoy

MAX_PASSES = 50  # coordinate-descent passes per start
REL_IMPROVEMENT = 1e-4  # a pass that gains no more than this share of the rate ends the descent
LINE_EVALUATIONS = 30  # objective evaluations per golden-section line search

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_INTENSITY_FIELDS = ("s_a", "s_b", "mu_a", "nu_a", "mu_b", "nu_b")


@dataclass(frozen=True)
class ProtocolParameters:
    """Intensities and selection probabilities for both parties.

    The vacuum decoy is fixed at zero intensity.  Selection probabilities
    are present in finite mode only; the vacuum probability is implicit,
    1 - p_s - p_mu - p_nu per side.
    """

    s_a: float
    s_b: float
    mu_a: float
    nu_a: float
    mu_b: float
    nu_b: float
    p_s_a: float | None = None
    p_mu_a: float | None = None
    p_nu_a: float | None = None
    p_s_b: float | None = None
    p_mu_b: float | None = None
    p_nu_b: float | None = None

    def __post_init__(self):
        # one direct comparison chain on the hot path (one construction per
        # line-search point); not (x >= 0) also rejects NaN
        if not (self.s_a >= 0.0 and self.s_b >= 0.0 and self.mu_a >= 0.0 and self.nu_a >= 0.0
                and self.mu_b >= 0.0 and self.nu_b >= 0.0):
            name = next(n for n in _INTENSITY_FIELDS if not getattr(self, n) >= 0.0)
            raise DomainError(f"intensity {name} must be nonnegative")
        # equality is degenerate but legal; the LP attaches a warning for it
        if not self.mu_a >= self.nu_a:
            raise DomainError("decoys on side a must be ordered mu >= nu")
        if not self.mu_b >= self.nu_b:
            raise DomainError("decoys on side b must be ordered mu >= nu")
        probs = (self.p_s_a, self.p_mu_a, self.p_nu_a, self.p_s_b, self.p_mu_b, self.p_nu_b)
        if probs.count(None) == len(probs):
            return
        if None in probs:
            raise DomainError("selection probabilities must be given for all intensities or none")
        for side, (p_s, p_mu, p_nu) in (("a", probs[:3]), ("b", probs[3:])):
            for k, p in (("s", p_s), ("mu", p_mu), ("nu", p_nu)):
                if not (0.0 < p < 1.0):
                    raise DomainError(f"probability p_{k}_{side} must lie in (0, 1), got {p}")
            if p_s + p_mu + p_nu >= 1.0:
                raise DomainError(f"probabilities on side {side} must leave room for the vacuum decoy")

    @property
    def has_probabilities(self) -> bool:
        return self.p_s_a is not None

    @property
    def p_omega_a(self) -> float:
        return 1.0 - self.p_s_a - self.p_mu_a - self.p_nu_a

    @property
    def p_omega_b(self) -> float:
        return 1.0 - self.p_s_b - self.p_mu_b - self.p_nu_b


class Strategy(Enum):
    """How the two parties' parameters may differ during optimization."""

    SYMMETRIC = "symmetric"
    ADD_FIBRE = "add_fibre"
    SIGNAL_ONLY = "signal_only"
    FULLY_ASYMMETRIC = "fully_asymmetric"


#: Per strategy, the side-a slots tied to their side-b twin (slot + 6).
TIED_SLOTS = {
    Strategy.SYMMETRIC: range(6),
    Strategy.ADD_FIBRE: range(6),
    Strategy.SIGNAL_ONLY: range(1, 6),
    Strategy.FULLY_ASYMMETRIC: range(0),
}


@dataclass(frozen=True)
class EvaluationMode:
    """Asymptotic (yields perfectly known, no pulse count) or finite statistics."""

    n_pulses: float | None = None
    sigma_multiplier: float | None = None

    def __post_init__(self):
        if self.n_pulses is None and self.sigma_multiplier is None:
            return
        # 0 < x < inf also rejects NaN, which would widen every gain to NaN,
        # and inf, which would leave every gain unwidened
        if self.n_pulses is None or not 0.0 < self.n_pulses < math.inf:
            raise DomainError(f"finite mode requires a positive finite pulse count, got {self.n_pulses}")
        if self.sigma_multiplier is None or not 0.0 < self.sigma_multiplier < math.inf:
            raise DomainError(f"finite mode requires a positive finite sigma multiplier, got {self.sigma_multiplier}")

    @classmethod
    def asymptotic(cls) -> "EvaluationMode":
        return cls()

    @classmethod
    def finite(cls, n_pulses: float, sigma_multiplier: float = 5.3) -> "EvaluationMode":
        return cls(n_pulses=n_pulses, sigma_multiplier=sigma_multiplier)

    @property
    def is_finite(self) -> bool:
        return self.n_pulses is not None


@dataclass(frozen=True)
class KeyRateReport:
    """Everything the sweep front end reports for one evaluation.

    yield_bounds is the bound matrix the phase-error bound used: the
    true-yield grid in asymptotic mode and the decoy LP's bound matrix in
    finite mode (None when no X-basis click can occur).  lp_problem is the
    finite-mode yield LP, None in asymptotic mode.  rate is 0.0 when no
    key can be distilled; in finite mode it carries the signal-choice
    weight p_s_a * p_s_b, which the other fields leave out.
    """

    p_xx: float
    e_xx: float
    e_zz_upper: float
    yield_bounds: np.ndarray | None
    rate: float
    lp_problem: LpProblem | None = None


def add_fibre_transform(scenario: ChannelScenario) -> ChannelScenario:
    """Pad the better channel with loss until both transmittances match."""
    worst = min(scenario.eta_a, scenario.eta_b)
    return replace(scenario, eta_a=worst, eta_b=worst)


@lru_cache(maxsize=64)
def _true_yield_grid(scenario: ChannelScenario) -> np.ndarray:
    """Full true-yield grid, cached per scenario (read-only)."""
    grid = yield_grid(scenario)
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=64)
def _finite_lp(scenario: ChannelScenario, mode: EvaluationMode,
               intensities_a: tuple[float, float, float], intensities_b: tuple[float, float, float],
               probabilities_a: tuple[float, float, float],
               probabilities_b: tuple[float, float, float]) -> tuple[LpProblem, np.ndarray]:
    """Finite-size yield LP and its bound matrix, cached per decoy setting (arrays read-only)."""
    obs = observations_from_scenario(
        scenario, intensities_a, intensities_b, n_pulses=mode.n_pulses,
        probabilities_a=probabilities_a, probabilities_b=probabilities_b,
    )
    problem = build_problem(obs, sigma_multiplier=mode.sigma_multiplier)
    for array in (problem.coefficients, problem.gain_lower, problem.gain_upper, problem.slack_mass):
        array.setflags(write=False)
    bounds = solve_yield_bounds(problem)
    bounds.setflags(write=False)
    return problem, bounds


def evaluate_key_rate(scenario: ChannelScenario, params: ProtocolParameters,
                      mode: EvaluationMode) -> KeyRateReport:
    """Full pipeline: observables, yield bounds, phase error, key rate.

    Asymptotic mode treats every photon-number yield as perfectly known
    and uses the whole true-yield grid in the phase-error bound.  Finite
    mode simulates the nine decoy gains, widens them to confidence
    intervals, and solves the yield LP for the bounded pairs; the report
    carries that LP.  The LP and its bound matrix come from one memo keyed
    on the scenario, the mode and the decoy intensities and selection
    probabilities of both sides; the signal intensities never enter the
    LP, so a line search over them solves it once.  Both come back
    read-only.  The cat states come from the memoised cat_coefficients,
    so the fixed side of a one-sided line search, and a tied side, reuse
    one instance and its parity vectors; the result bits do not depend on
    either memo.  The reported rate counts both successful click patterns;
    in finite mode it additionally carries the probability that both
    parties chose signal states.  The rate without that weight is
    key_rate(report.p_xx, report.e_xx, report.e_zz_upper).
    """
    gamma = ArrivingIntensities.from_sources(scenario, params.s_a, params.s_b)
    if mode.is_finite:
        if not params.has_probabilities:
            raise DomainError("finite mode requires selection probabilities")
        weight = params.p_s_a * params.p_s_b
        problem, bounds = _finite_lp(
            scenario, mode,
            (params.mu_a, params.nu_a, 0.0), (params.mu_b, params.nu_b, 0.0),
            (params.p_mu_a, params.p_nu_a, params.p_omega_a), (params.p_mu_b, params.p_nu_b, params.p_omega_b),
        )
    else:
        weight, problem, bounds = 1.0, None, _true_yield_grid(scenario)

    p_xx = x_basis_gain(scenario, gamma)
    if p_xx <= 0.0:
        return KeyRateReport(p_xx=p_xx, e_xx=0.0, e_zz_upper=1.0, yield_bounds=None, rate=0.0, lp_problem=problem)
    e_xx = x_basis_qber(scenario, gamma)
    e_zz = phase_error_bound_from_matrix(
        p_xx, cat_coefficients(math.sqrt(params.s_a)), cat_coefficients(math.sqrt(params.s_b)), bounds,
    )
    rate = key_rate(p_xx, e_xx, e_zz, basis_weight=weight)
    return KeyRateReport(p_xx=p_xx, e_xx=e_xx, e_zz_upper=e_zz, yield_bounds=bounds, rate=rate, lp_problem=problem)


def strategy_coordinates(strategy: Strategy, mode: EvaluationMode) -> tuple[tuple[int, ...], ...]:
    """Free coordinates under the strategy's ties, in a fixed order.

    Each coordinate is the tuple of search-vector slots it sets to one value.
    """
    side_a = range(6) if mode.is_finite else range(1)
    tied = TIED_SLOTS[strategy]
    return (tuple((slot, slot + 6) if slot in tied else (slot,) for slot in side_a)
            + tuple((slot + 6,) for slot in side_a if slot not in tied))


def _box(x: list, coord: tuple[int, ...]) -> tuple[float, float]:
    """Search interval of a coordinate at the point x, from its slots' kind (slot % 6)."""
    kind = coord[0] % 6
    if kind == 0:  # signal
        return INTENSITY_MIN, INTENSITY_MAX
    if kind == 1:  # mu stays above its side's nu
        return max(x[slot + 1] for slot in coord) + DECOY_GAP, INTENSITY_MAX
    if kind == 2:  # nu stays below its side's mu
        return INTENSITY_MIN, min(x[slot - 1] for slot in coord) - DECOY_GAP
    # probability: stay inside the simplex, leaving room for the vacuum share
    ceil = PROBABILITY_MAX
    for slot in coord:
        first = slot - kind + 3
        others = sum(x[k] for k in range(first, first + 3) if k != slot)
        ceil = min(ceil, 1.0 - OMEGA_SHARE_MIN - others)
    return PROBABILITY_MIN, ceil


def _moved(x: list, coord: tuple[int, ...], value: float) -> list:
    """A copy of x with every slot of the coordinate set to value."""
    y = x.copy()
    for slot in coord:
        y[slot] = value
    return y


def _params(x: list) -> ProtocolParameters:
    """The point x = (s, mu, nu, p_s, p_mu, p_nu) of side a followed by those of side b."""
    return ProtocolParameters(
        s_a=x[0], mu_a=x[1], nu_a=x[2], p_s_a=x[3], p_mu_a=x[4], p_nu_a=x[5],
        s_b=x[6], mu_b=x[7], nu_b=x[8], p_s_b=x[9], p_mu_b=x[10], p_nu_b=x[11],
    )


def _safe(objective, params: ProtocolParameters) -> float:
    value = objective(params)
    return -math.inf if math.isnan(value) else value


def golden_section_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section line search of LINE_EVALUATIONS points; returns the best evaluated one."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    if f1 >= f2:
        best_x, best_f = x1, f1
    else:
        best_x, best_f = x2, f2
    for _ in range(LINE_EVALUATIONS - 2):
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


def coordinate_descent(objective, init: ProtocolParameters, strategy: Strategy,
                       mode: EvaluationMode) -> tuple[ProtocolParameters, float]:
    """Cyclic line search over the strategy's free coordinates.

    Each coordinate is maximized by golden section within its current box;
    passes repeat, at most MAX_PASSES, until the rate improves over a full
    pass by no more than REL_IMPROVEMENT of its value.  Objectives
    returning NaN count as rejected points.
    """
    coords = strategy_coordinates(strategy, mode)
    x = [init.s_a, init.mu_a, init.nu_a, init.p_s_a, init.p_mu_a, init.p_nu_a,
         init.s_b, init.mu_b, init.nu_b, init.p_s_b, init.p_mu_b, init.p_nu_b]
    current = _safe(objective, init)
    for _ in range(MAX_PASSES):
        pass_start = current
        for coord in coords:
            lo, hi = _box(x, coord)
            if not lo < hi:
                continue
            value, rate = golden_section_max(lambda v: _safe(objective, _params(_moved(x, coord, v))), lo, hi)
            if rate > current:
                x = _moved(x, coord, value)
                current = rate
        if current - pass_start <= REL_IMPROVEMENT * max(pass_start, 0.0):
            break
    return _params(x), current


def draw_start(strategy: Strategy, mode: EvaluationMode, seed: int, index: int) -> ProtocolParameters:
    """Seeded random starting point honouring the strategy's ties.

    Intensities are drawn log-uniformly over the search box; selection
    probabilities uniformly over the interior of the simplex (a rescaled
    flat Dirichlet keeps every share above its floor).  Each group (signal,
    decoy pair, probabilities) is drawn for side a, then for side b unless
    tied; asymptotic mode draws the signals only, the decoys are fixed.
    """
    rng = np.random.default_rng([seed, index])
    tied = TIED_SLOTS[strategy]

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

    x = [None, 0.1, 0.01, None, None, None] * 2
    groups = ((0, lambda: (log_uniform(),)), (1, decoy_pair), (3, prob_triple))
    for first, draw in groups if mode.is_finite else groups[:1]:
        values = draw()
        x[first:first + len(values)] = values
        x[first + 6:first + 6 + len(values)] = values if first in tied else draw()
    return _params(x)


def multistart(objective, strategy: Strategy, n_starts: int, seed: int,
               mode: EvaluationMode) -> tuple[ProtocolParameters, float]:
    """Best coordinate-descent outcome over seeded random starting points.

    Results are collected keyed by start index and reduced afterwards, so
    the winner (ties to the lowest index, which max keeps) does not depend
    on evaluation order.
    """
    if n_starts < 1:
        raise DomainError(f"need at least one start, got {n_starts}")
    outcomes = [coordinate_descent(objective, draw_start(strategy, mode, seed, index), strategy, mode)
                for index in range(n_starts)]
    return max(outcomes, key=lambda outcome: outcome[1])


def optimize_strategy(scenario: ChannelScenario, strategy: Strategy, mode: EvaluationMode,
                      n_starts: int, seed: int) -> tuple[ProtocolParameters, KeyRateReport]:
    """Optimize one strategy on a scenario; returns the winner and its evaluation.

    The padding strategy optimizes the symmetric protocol on the
    transformed (equal-loss) scenario; the extra loss is part of the
    strategy, so its reported rate refers to the padded channel.
    """
    working = add_fibre_transform(scenario) if strategy is Strategy.ADD_FIBRE else scenario
    params, _ = multistart(lambda p: evaluate_key_rate(working, p, mode).rate, strategy, n_starts, seed, mode)
    return params, evaluate_key_rate(working, params, mode)
