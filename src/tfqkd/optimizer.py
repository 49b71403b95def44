"""Protocol parameter search by coordinate descent with multistart.

The optimization variables are the two signal intensities, the decoy
intensities and, with finite statistics, the intensity selection
probabilities of both parties.  Four strategies restrict how the two
sides may differ: fully symmetric, symmetric-after-padding (extra loss on
the better channel), asymmetric signal intensities only, and fully
asymmetric.  Each free coordinate is line-searched by golden section
inside its box; passes repeat until the rate stops improving.  Multistart
draws seeded random starting points and keeps the best outcome, with ties
broken by the lowest start index so results are reproducible bit for bit.
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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_INTENSITY_FIELDS = ("s_a", "s_b", "mu_a", "nu_a", "mu_b", "nu_b", "omega_a", "omega_b")


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
    omega_a: float = 0.0
    omega_b: float = 0.0
    p_s_a: float | None = None
    p_mu_a: float | None = None
    p_nu_a: float | None = None
    p_s_b: float | None = None
    p_mu_b: float | None = None
    p_nu_b: float | None = None

    def __post_init__(self):
        # one direct comparison chain on the hot path (dataclasses.replace in
        # every line-search step); not (x >= 0) also rejects NaN
        if not (self.s_a >= 0.0 and self.s_b >= 0.0 and self.mu_a >= 0.0 and self.nu_a >= 0.0
                and self.mu_b >= 0.0 and self.nu_b >= 0.0 and self.omega_a >= 0.0 and self.omega_b >= 0.0):
            name = next(n for n in _INTENSITY_FIELDS if not getattr(self, n) >= 0.0)
            raise DomainError(f"intensity {name} must be nonnegative")
        # equality is degenerate but legal; the LP attaches a warning for it
        if not self.mu_a >= self.nu_a >= self.omega_a:
            raise DomainError("decoys on side a must be ordered mu >= nu >= omega")
        if not self.mu_b >= self.nu_b >= self.omega_b:
            raise DomainError("decoys on side b must be ordered mu >= nu >= omega")
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


@dataclass(frozen=True)
class EvaluationMode:
    """Asymptotic (yields perfectly known) or finite statistics."""

    kind: str
    n_pulses: float | None = None
    sigma_multiplier: float = 5.3

    def __post_init__(self):
        if self.kind not in ("asymptotic", "finite"):
            raise DomainError(f"unknown evaluation mode {self.kind!r}")
        if self.kind == "finite":
            # not (x > 0) also rejects NaN, which would widen every gain to NaN
            if self.n_pulses is None or not self.n_pulses > 0.0:
                raise DomainError("finite mode requires a positive pulse count")
            if not self.sigma_multiplier > 0.0:
                raise DomainError("finite mode requires a positive sigma multiplier")

    @classmethod
    def asymptotic(cls) -> "EvaluationMode":
        return cls(kind="asymptotic")

    @classmethod
    def finite(cls, n_pulses: float, sigma_multiplier: float = 5.3) -> "EvaluationMode":
        return cls(kind="finite", n_pulses=n_pulses, sigma_multiplier=sigma_multiplier)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


@dataclass(frozen=True)
class KeyRateReport:
    """Everything the sweep front end reports for one evaluation.

    yield_bounds is the bound matrix the phase-error bound used: the
    true-yield grid in asymptotic mode and the decoy LP's bound matrix in
    finite mode (None when no X-basis click can occur).  lp_problem is the
    finite-mode yield LP, None in asymptotic mode.
    """

    mode: str
    p_xx: float
    e_xx: float
    e_zz_upper: float
    yield_bounds: np.ndarray | None
    rate: float
    rate_raw: float
    basis_weight: float
    no_key: bool = False
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
def _finite_problem(scenario: ChannelScenario, mode: EvaluationMode,
                    intensities_a: tuple[float, float, float], intensities_b: tuple[float, float, float],
                    probabilities_a: tuple[float, float, float],
                    probabilities_b: tuple[float, float, float]) -> LpProblem:
    """Finite-size yield LP, cached per decoy setting (arrays read-only)."""
    obs = observations_from_scenario(
        scenario, intensities_a, intensities_b, n_pulses=mode.n_pulses,
        probabilities_a=probabilities_a, probabilities_b=probabilities_b,
    )
    problem = build_problem(obs, finite_size=True, sigma_multiplier=mode.sigma_multiplier)
    for array in (problem.coefficients, problem.gain_lower, problem.gain_upper, problem.slack_mass):
        array.setflags(write=False)
    return problem


@lru_cache(maxsize=64)
def _finite_bounds(*key) -> np.ndarray:
    """Bound matrix of the LP that _finite_problem(*key) builds (read-only)."""
    bounds = solve_yield_bounds(_finite_problem(*key))
    bounds.setflags(write=False)
    return bounds


def evaluate_key_rate(scenario: ChannelScenario, params: ProtocolParameters,
                      mode: EvaluationMode) -> KeyRateReport:
    """Full pipeline: observables, yield bounds, phase error, key rate.

    Asymptotic mode treats every photon-number yield as perfectly known
    and uses the whole true-yield grid in the phase-error bound.  Finite
    mode simulates the nine decoy gains, widens them to confidence
    intervals, and solves the yield LP for the bounded pairs; the report
    carries that LP.  The LP and its bound matrix are memoised on the
    scenario, the mode and the decoy intensities and selection
    probabilities of both sides; the signal intensities never enter the
    LP, so a line search over them solves it once.  Both come back
    read-only.  The cat states come from the memoised cat_coefficients,
    so the fixed side of a one-sided line search, and a tied side, reuse
    one instance and its parity vectors; the result bits do not depend on
    the memo.  The reported rate counts both successful click patterns;
    in finite mode it additionally carries the probability that both
    parties chose signal states (rate_raw leaves that weight out).  In
    asymptotic mode that weight is 1, and rate_raw is the same float as
    rate, computed once.
    """
    gamma = ArrivingIntensities.from_sources(scenario, params.s_a, params.s_b)
    weight = 1.0
    problem = None
    if mode.is_finite:
        if not params.has_probabilities:
            raise DomainError("finite mode requires selection probabilities")
        weight = params.p_s_a * params.p_s_b
        lp_key = (
            scenario, mode,
            (params.mu_a, params.nu_a, params.omega_a), (params.mu_b, params.nu_b, params.omega_b),
            (params.p_mu_a, params.p_nu_a, params.p_omega_a), (params.p_mu_b, params.p_nu_b, params.p_omega_b),
        )
        problem = _finite_problem(*lp_key)

    p_xx = x_basis_gain(scenario, gamma)
    if p_xx <= 0.0:
        return KeyRateReport(
            mode=mode.kind, p_xx=p_xx, e_xx=0.0, e_zz_upper=1.0, yield_bounds=None,
            rate=0.0, rate_raw=0.0, basis_weight=weight, no_key=True, lp_problem=problem,
        )
    e_xx = x_basis_qber(scenario, gamma)

    bounds = _finite_bounds(*lp_key) if mode.is_finite else _true_yield_grid(scenario)
    e_zz = phase_error_bound_from_matrix(
        p_xx, cat_coefficients(math.sqrt(params.s_a)), cat_coefficients(math.sqrt(params.s_b)), bounds,
    )
    rate = key_rate(p_xx, e_xx, e_zz, pattern_count=2, basis_weight=weight)
    # at weight 1 both calls would be the same float expression
    rate_raw = rate if weight == 1.0 else key_rate(p_xx, e_xx, e_zz, pattern_count=2, basis_weight=1.0)
    return KeyRateReport(
        mode=mode.kind, p_xx=p_xx, e_xx=e_xx, e_zz_upper=e_zz, yield_bounds=bounds,
        rate=rate, rate_raw=rate_raw, basis_weight=weight, no_key=rate == 0.0,
        lp_problem=problem,
    )


def make_objective(scenario: ChannelScenario, mode: EvaluationMode):
    """Key rate as a function of the parameters (the optimization target)."""

    def objective(params: ProtocolParameters) -> float:
        return evaluate_key_rate(scenario, params, mode).rate

    return objective


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


def strategy_coordinates(strategy: Strategy, mode: EvaluationMode) -> tuple[_Coordinate, ...]:
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


def golden_section_max(f, lo: float, hi: float, evaluations: int = 30) -> tuple[float, float]:
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


def coordinate_descent(objective, init: ProtocolParameters, strategy: Strategy,
                       mode: EvaluationMode, max_passes: int = 50,
                       rel_improvement: float = 1e-4,
                       line_evaluations: int = 30) -> tuple[ProtocolParameters, float]:
    """Cyclic line search over the strategy's free coordinates.

    Each coordinate is maximized by golden section within its current box;
    passes repeat until the relative rate improvement over a full pass
    drops below the threshold.  Objectives returning NaN count as
    rejected points.
    """
    coords = strategy_coordinates(strategy, mode)
    params = init
    current = _safe(objective, params)
    for _ in range(max_passes):
        pass_start = current
        for coord in coords:
            lo, hi = coord.box(params)
            if not lo < hi:
                continue
            value, rate = golden_section_max(
                lambda v: _safe(objective, coord.apply(params, v)), lo, hi, line_evaluations,
            )
            if rate > current:
                params = coord.apply(params, value)
                current = rate
        if current - pass_start <= rel_improvement * max(pass_start, 0.0):
            break
    return params, current


def draw_start(strategy: Strategy, mode: EvaluationMode, seed: int, index: int) -> ProtocolParameters:
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


def multistart(objective, strategy: Strategy, n_starts: int, seed: int,
               mode: EvaluationMode, **descent_options) -> tuple[ProtocolParameters, float]:
    """Best coordinate-descent outcome over seeded random starting points.

    Results are collected keyed by start index and reduced afterwards, so
    the winner (ties to the lowest index) does not depend on evaluation
    order.
    """
    if n_starts < 1:
        raise DomainError(f"need at least one start, got {n_starts}")
    outcomes = []
    for index in range(n_starts):
        init = draw_start(strategy, mode, seed, index)
        outcomes.append(coordinate_descent(objective, init, strategy, mode, **descent_options))
    best_params, best_rate = outcomes[0]
    for params, rate in outcomes[1:]:
        if rate > best_rate:
            best_params, best_rate = params, rate
    return best_params, best_rate


@dataclass(frozen=True)
class OptimizationResult:
    strategy: Strategy
    params: ProtocolParameters
    rate: float
    report: KeyRateReport


def optimize_strategy(scenario: ChannelScenario, strategy: Strategy, mode: EvaluationMode,
                      n_starts: int = 4, seed: int = 0, **descent_options) -> OptimizationResult:
    """Optimize one strategy on a scenario and evaluate the winner.

    The padding strategy optimizes the symmetric protocol on the
    transformed (equal-loss) scenario; the extra loss is part of the
    strategy, so its reported rate refers to the padded channel.
    """
    working = add_fibre_transform(scenario) if strategy is Strategy.ADD_FIBRE else scenario
    objective = make_objective(working, mode)
    params, rate = multistart(objective, strategy, n_starts, seed, mode, **descent_options)
    report = evaluate_key_rate(working, params, mode)
    return OptimizationResult(strategy=strategy, params=params, rate=rate, report=report)
