"""Protocol parameter search: a grid search in asymptotic mode, coordinate descent in finite mode.

Every strategy searches one 12-slot vector: the signal intensity, two
decoy intensities and three selection probabilities of side a, then those
of side b: the ProtocolParameters fields (PARAMETER_NAMES) ordered by
side.  Four strategies restrict how the two sides may differ: fully
symmetric, symmetric-after-padding (extra loss on the better channel),
asymmetric signal intensities only, and fully asymmetric.  A strategy is
one row of the tie table TIED_SLOTS.

In asymptotic mode the rate depends on the two signal intensities alone,
so the search is one- or two-dimensional: a log-spaced grid over the
intensity box (tied strategies read its diagonal), then grids shrunk
around the best point until the log step reaches float-level precision.
asymptotic_searches refines many scenarios' searches in lockstep, one
asymptotic_rate_grid call per round, each with the bits it has alone.
No seed enters.

In finite mode the strategy's coordinates (each the tuple of slots it sets
to one value) and its random starts follow from its row of the tie table.
Each coordinate is line-searched by golden section inside its box, until
the bracket is within LINE_TOLERANCE (1e-3) of its midpoint or after
LINE_EVALUATIONS (30) evaluations; passes repeat until a pass gains no
more than REL_IMPROVEMENT (1e-4) of the rate.  The yield LP comes from
decoy.yield_lp through a memo that the signal intensities do not key.
Each search owns that memo and a decoy.WarmBases behind it, which
re-solves each LP from the five targets' last optimal bases, carried as
one stack to the new data (rebuilt on the new matrix after a decoy step),
read as they stand where simplex.rebase proves them optimal (every basic
value in [0, upper], no column priced in) and otherwise re-solved by
simplex.reoptimize; a probability step reuses the last LP's gains and
arrays.  Those bounds may differ from cold ones by a few 1e-11 and only
rank points, though a comparison within that rounding can pick another
winner than cold bounds would.  Multistart
keeps the best outcome over seeded starts, with ties broken by the
lowest start index, bit for bit.

Either way the winner is evaluated once more by evaluate_key_rate on the
cold path, so a reported rate is reproduced bit for bit by evaluating its
parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .channel import ArrivingIntensities, ChannelScenario, x_basis_gain, x_basis_qber, yield_grid
from .decoy import EvaluationMode, LpProblem, WarmBases, yield_lp
from .errors import DomainError
from .security import PATTERN_COUNT, cat_amplitude_rows, cat_state, key_rate, phase_error_upper_bound

INTENSITY_MIN = 1e-4
INTENSITY_MAX = 1.0
DECOY_GAP = 1e-6
PROBABILITY_MIN = 1e-3
PROBABILITY_MAX = 0.99
OMEGA_SHARE_MIN = 1e-3  # selection probability reserved for the vacuum decoy

MAX_PASSES = 50  # coordinate-descent passes per start
REL_IMPROVEMENT = 1e-4  # a pass that gains no more than this share of the rate ends the descent
LINE_TOLERANCE = 1e-3  # a line search ends once its bracket is this share of its midpoint
LINE_EVALUATIONS = 30  # objective evaluations at most per golden-section line search

COARSE_POINTS = 41  # asymptotic search: points per side of the first log grid (0.1-decade steps)
REFINE_POINTS = 11  # points per side of each shrunk grid; a round divides the step by 5
FINAL_LOG_STEP = 1e-12  # log10 step that ends the refinement, about 2e-12 relative in s
_LOG_BOX = np.log10([[[INTENSITY_MIN] * 2], [[INTENSITY_MAX] * 2]])  # low and high log10 (s_a, s_b), each (1, 2)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        # line-search point); 0 <= x < inf also rejects NaN
        if not (0.0 <= self.s_a < math.inf and 0.0 <= self.s_b < math.inf and 0.0 <= self.mu_a < math.inf
                and 0.0 <= self.nu_a < math.inf and 0.0 <= self.mu_b < math.inf and 0.0 <= self.nu_b < math.inf):
            name = next(n for n in PARAMETER_NAMES[:6] if not 0.0 <= getattr(self, n) < math.inf)
            raise DomainError(f"intensity {name} must be nonnegative and finite")
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
        for name, p in zip(PARAMETER_NAMES[6:], probs):
            if not (0.0 < p < 1.0):
                raise DomainError(f"probability {name} must lie in (0, 1), got {p}")
        for side, (p_s, p_mu, p_nu) in (("a", probs[:3]), ("b", probs[3:])):
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


#: The twelve parameter names in field order, which is also their CSV column order.
PARAMETER_NAMES = tuple(f.name for f in fields(ProtocolParameters))
#: Search-vector slot -> parameter name: side a's fields, then side b's, each in field order.
_SLOT_NAMES = tuple(sorted(PARAMETER_NAMES, key=lambda name: name[-1]))


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


#: Finite-size yield LP and its bound matrix, memoised per decoy setting (arrays read-only).
_finite_lp = lru_cache(maxsize=64)(yield_lp)


def evaluate_key_rate(scenario: ChannelScenario, params: ProtocolParameters,
                      mode: EvaluationMode) -> KeyRateReport:
    """Full pipeline: observables, yield bounds, phase error, key rate.

    Asymptotic mode treats every photon-number yield as perfectly known
    and uses the whole true-yield grid in the phase-error bound.  Finite
    mode simulates the nine decoy gains, widens them to confidence
    intervals, and solves the yield LP for the bounded pairs; the report
    carries that LP.  The LP and its bound matrix come from decoy.yield_lp
    through one memo keyed on the scenario, the mode and the decoy
    intensities and selection probabilities of both sides; the signal
    intensities never enter the LP, so a line search over them solves it
    once.  Both come back read-only.  The cat states come from the
    memoised cat_state, so the fixed side of a one-sided line search, and
    a tied side, reuse one row; the result bits do not depend on either
    memo.  The phase-error bound is asymptotic_rate_grid's, on one cat
    state per side.  The reported rate counts both successful click
    patterns; in finite mode it additionally carries the probability that
    both parties chose signal states.  The rate without that weight is
    key_rate(report.p_xx, report.e_xx, report.e_zz_upper).
    """
    rate, p_xx, e_xx, e_zz, bounds, problem = _evaluate(scenario, params, mode, _finite_lp)
    return KeyRateReport(p_xx=p_xx, e_xx=e_xx, e_zz_upper=e_zz, yield_bounds=bounds, rate=rate, lp_problem=problem)


def _evaluate(scenario: ChannelScenario, params: ProtocolParameters, mode: EvaluationMode, lp_source) -> tuple:
    """evaluate_key_rate's (rate, p_xx, e_xx, e_zz_upper, yield_bounds, lp_problem), the finite LP from lp_source.

    The finite search reads the rate alone from it, with its own
    lp_source (see _finite_objective), and builds no report.
    """
    gamma = ArrivingIntensities.from_sources(scenario, params.s_a, params.s_b)
    if mode.is_finite:
        if not params.has_probabilities:
            raise DomainError("finite mode requires selection probabilities")
        weight = params.p_s_a * params.p_s_b
        problem, bounds = lp_source(
            scenario, (params.mu_a, params.nu_a, 0.0), (params.mu_b, params.nu_b, 0.0), mode,
            (params.p_mu_a, params.p_nu_a, params.p_omega_a), (params.p_mu_b, params.p_nu_b, params.p_omega_b))
    else:
        weight, problem, bounds = 1.0, None, _true_yield_grid(scenario)

    p_xx = x_basis_gain(scenario, gamma)
    if p_xx <= 0.0:
        return 0.0, p_xx, 0.0, 1.0, None, problem
    e_xx = x_basis_qber(scenario, gamma)
    size = bounds.shape[0]
    gain = phase_error_upper_bound(cat_state(math.sqrt(params.s_a), size), cat_state(math.sqrt(params.s_b), size),
                                   bounds)
    e_zz = min(1.0, float(gain[0, 0]) / p_xx)
    return key_rate(p_xx, e_xx, e_zz, basis_weight=weight), p_xx, e_xx, e_zz, bounds, problem


def _entropy(x: np.ndarray) -> np.ndarray:
    """binary_entropy of an array in [0, 1/2], with h2(0) = 0 and no log of zero."""
    return -x * np.log2(np.where(x > 0.0, x, 1.0)) - (1.0 - x) * np.log2(1.0 - x)


def asymptotic_rate_grid(scenarios, s_a_values, s_b_values, grids=None) -> np.ndarray:
    """Asymptotic key rates of scenarios[k] on the mesh s_a_values[k] x s_b_values[k], shape (S, N_a, N_b).

    The array form of evaluate_key_rate(...).rate in asymptotic mode, with
    its phase-error bound: phase_error_upper_bound on one cat state per
    intensity (one cat_amplitude_rows call for the stack) and the true-yield
    grids (S, size, size), looked up when None.  p_xx, e_xx and the
    entropies are numpy's, which rounds exp, expm1 and longer matrix sums
    differently, so values agree with evaluate_key_rate to rounding, not bit
    for bit; the rate is 0 wherever no X-basis click can occur.  Scenario
    values enter as (S, 1, 1) columns in the scalar order of operations, so
    a slice has the bits of a stack of one.  Intensities must be
    nonnegative; an amplitude above MAX_AMPLITUDE raises UnsupportedAmplitudeError.
    """
    s_a = np.asarray(s_a_values, dtype=float)
    s_b = np.asarray(s_b_values, dtype=float)
    eta_a, eta_b, p_d, cos_phi, cos_theta = np.array(
        [(sc.eta_a, sc.eta_b, sc.p_d, math.cos(sc.phi), math.cos(sc.theta)) for sc in scenarios]).T[:, :, None, None]
    gamma_a = s_a[:, :, None] * eta_a
    gamma_b = s_b[:, None, :] * eta_b
    total = gamma_a + gamma_b
    g = np.sqrt(gamma_a * gamma_b) * cos_phi * cos_theta
    minus = np.expm1(0.5 * total - g)
    plus = np.expm1(0.5 * total + g)
    p_xx = np.clip((1.0 - p_d) * np.exp(-total) * (0.5 * (minus + plus) + p_d), 0.0, 1.0)
    clicks = p_xx > 0.0
    e_xx = np.divide(minus + p_d, minus + plus + 2.0 * p_d, out=np.zeros_like(p_xx), where=clicks)

    if grids is None:
        grids = np.stack([_true_yield_grid(sc) for sc in scenarios])
    size, count = grids.shape[1], s_a.shape[1]
    rows, sums = cat_amplitude_rows(np.sqrt(np.concatenate([s_a, s_b], axis=1)).ravel(), size)
    rows, sums = rows.reshape(2, len(s_a), -1, size), sums.reshape(2, len(s_a), -1)
    gain = phase_error_upper_bound((rows[:, :, :count], sums[:, :, :count]),
                                   (rows[:, :, count:], sums[:, :, count:]), grids)
    # where no click occurs e_zz stays 1, so the entropy penalty alone zeroes the rate
    e_zz = np.minimum(np.divide(gain, p_xx, out=np.ones_like(p_xx), where=clicks), 1.0)
    net = 1.0 - _entropy(np.clip(e_xx, 0.0, 0.5)) - _entropy(np.minimum(e_zz, 0.5))
    return PATTERN_COUNT * p_xx * np.maximum(net, 0.0)


def asymptotic_searches(scenarios, tied) -> list[tuple[float, float]]:
    """Signal intensities (s_a, s_b) of the best asymptotic rate per scenario, by shrinking log grids.

    The first grid has COARSE_POINTS log-spaced intensities per side over
    [INTENSITY_MIN, INTENSITY_MAX]; a search with tied[k] set reads the
    diagonal of its rate mesh.  Each later grid has REFINE_POINTS per side
    over the cell of one step either side of the best point, clipped to the
    box, until the log10 step is at most FINAL_LOG_STEP.  The first best
    point in the mesh wins ties, so a grid without key keeps the lowest
    intensities.  The later grids run in lockstep, one asymptotic_rate_grid
    call per round, each search until its own step is small enough; no
    result depends on the searches stacked with it.
    """
    tied, grids = np.array(tied, dtype=bool), np.stack([_true_yield_grid(sc) for sc in scenarios])
    found, lo, hi = np.empty((3, len(scenarios), 2))
    for k, scenario in enumerate(scenarios):  # a stack of first grids would hold every 41 x 41 mesh at once
        found[k], lo[k], hi[k], _ = _grid_round([scenario], grids[k:k + 1], *_LOG_BOX, COARSE_POINTS, tied[k:k + 1])
    active = np.arange(len(scenarios))
    while active.size:
        best, lo, hi, done = _grid_round([scenarios[k] for k in active], grids, lo, hi, REFINE_POINTS, tied)
        found[active[done]] = best[done]
        active, grids, tied, lo, hi = active[~done], grids[~done], tied[~done], lo[~done], hi[~done]
    return [tuple(point) for point in found.tolist()]


def _grid_round(scenarios, grids: np.ndarray, lo: np.ndarray, hi: np.ndarray, points: int, tied: np.ndarray):
    """One grid per search over its log10 cell [lo, hi], shape (S, 2): best (s_a, s_b), next lo and hi, done."""
    logs = np.linspace(lo, hi, points, axis=-1)
    values = 10.0 ** logs
    rates = asymptotic_rate_grid(scenarios, values[:, 0], values[:, 1], grids)
    flat = rates.reshape(len(rates), -1).argmax(axis=1)
    diagonal = rates.diagonal(axis1=1, axis2=2).argmax(axis=1)
    # (search, side, grid index) of each search's first best point, the diagonal's for a tied search
    best = np.arange(len(rates))[:, None], (0, 1), np.where(tied, diagonal, np.divmod(flat, points)).T
    steps = (hi - lo) / (points - 1)
    return (values[best], np.maximum(_LOG_BOX[0], logs[best] - steps), np.minimum(_LOG_BOX[1], logs[best] + steps),
            steps.max(axis=1) <= FINAL_LOG_STEP)


def strategy_coordinates(strategy: Strategy) -> tuple[tuple[int, ...], ...]:
    """Free coordinates of the finite-mode search under the strategy's ties, in a fixed order.

    Each coordinate is the tuple of search-vector slots it sets to one value.
    """
    tied = TIED_SLOTS[strategy]
    return (tuple((slot, slot + 6) if slot in tied else (slot,) for slot in range(6))
            + tuple((slot + 6,) for slot in range(6) if slot not in tied))


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
    return ProtocolParameters(**dict(zip(_SLOT_NAMES, x)))


def _safe(objective, params: ProtocolParameters) -> float:
    value = objective(params)
    return -math.inf if math.isnan(value) else value


def golden_section_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section line search over [lo, hi]; returns the best evaluated point.

    The search stops once its bracket [a, b] satisfies
    b - a <= LINE_TOLERANCE * (a + b) / 2, or after LINE_EVALUATIONS
    evaluations, whichever comes first.  The cap also ends a search that
    closes in on lo = 0, where the relative rule never holds.
    """
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    if f1 >= f2:
        best_x, best_f = x1, f1
    else:
        best_x, best_f = x2, f2
    for _ in range(LINE_EVALUATIONS - 2):
        if b - a <= LINE_TOLERANCE * 0.5 * (a + b):
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


def coordinate_descent(objective, init: ProtocolParameters, strategy: Strategy) -> tuple[ProtocolParameters, float]:
    """Cyclic line search over the strategy's free coordinates.

    Each coordinate is maximized by golden section within its current box;
    passes repeat, at most MAX_PASSES, until the rate improves over a full
    pass by no more than REL_IMPROVEMENT of its value, or not at all.
    Objectives returning NaN count as rejected points, so a descent that
    meets only NaN ends after one pass.
    """
    coords = strategy_coordinates(strategy)
    x = [getattr(init, name) for name in _SLOT_NAMES]
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
        # equality also ends a descent that found no finite rate (-inf - -inf is NaN)
        if current == pass_start or current - pass_start <= REL_IMPROVEMENT * max(pass_start, 0.0):
            break
    return _params(x), current


def draw_start(strategy: Strategy, seed: int, index: int) -> ProtocolParameters:
    """Seeded random starting point of the finite-mode search, honouring the strategy's ties.

    Intensities are drawn log-uniformly over the search box; selection
    probabilities uniformly over the interior of the simplex (a rescaled
    flat Dirichlet keeps every share above its floor).  Each group (signal,
    decoy pair, probabilities) is drawn for side a, then for side b unless
    tied.
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

    x = [None] * 12
    for first, draw in ((0, lambda: (log_uniform(),)), (1, decoy_pair), (3, prob_triple)):
        values = draw()
        x[first:first + len(values)] = values
        x[first + 6:first + 6 + len(values)] = values if first in tied else draw()
    return _params(x)


def multistart(objective, strategy: Strategy, n_starts: int, seed: int) -> tuple[ProtocolParameters, float]:
    """Best coordinate-descent outcome over seeded random starting points.

    Results are collected keyed by start index and reduced afterwards, so
    the winner (ties to the lowest index, which max keeps) does not depend
    on evaluation order.
    """
    if n_starts < 1:
        raise DomainError(f"need at least one start, got {n_starts}")
    outcomes = [coordinate_descent(objective, draw_start(strategy, seed, index), strategy)
                for index in range(n_starts)]
    return max(outcomes, key=lambda outcome: outcome[1])


def _finite_objective(scenario: ChannelScenario, mode: EvaluationMode):
    """The finite search's objective, and the WarmBases its yield LPs are re-solved from.

    The key rate as evaluate_key_rate computes it, as a float and with no
    report, with the yield LP from a memo of _finite_lp's size over
    decoy.yield_lp that keeps each target's last optimal basis
    (decoy.WarmBases).  Both belong to one search, so nothing carries over
    between searches; the values only rank points.
    """
    warm = WarmBases()
    source = lru_cache(maxsize=64)(partial(yield_lp, warm=warm))
    return lambda params: _evaluate(scenario, params, mode, source)[0], warm


def optimize_strategies(points, mode: EvaluationMode, n_starts: int,
                        seed: int) -> list[tuple[ProtocolParameters, KeyRateReport]]:
    """Optimize each (scenario, strategy) point; returns each winner and its evaluation, in order.

    Finite mode runs the seeded multistart point by point; asymptotic mode
    searches every point in one asymptotic_searches call and takes no seed.
    The padding strategy optimizes the symmetric protocol on the transformed
    (equal-loss) scenario; the extra loss is part of the strategy, so its
    reported rate refers to the padded channel.
    """
    working = [(add_fibre_transform(sc) if strategy is Strategy.ADD_FIBRE else sc, strategy) for sc, strategy in points]
    if mode.is_finite:
        winners = [multistart(_finite_objective(sc, mode)[0], strategy, n_starts, seed)[0] for sc, strategy in working]
    else:
        searches = asymptotic_searches([sc for sc, _ in working], [0 in TIED_SLOTS[s] for _, s in working])
        # asymptotic rates take no decoys
        winners = [ProtocolParameters(s_a, s_b, mu_a=0.0, nu_a=0.0, mu_b=0.0, nu_b=0.0) for s_a, s_b in searches]
    return [(params, evaluate_key_rate(sc, params, mode)) for (sc, _), params in zip(working, winners)]


def optimize_strategy(scenario: ChannelScenario, strategy: Strategy, mode: EvaluationMode,
                      n_starts: int, seed: int) -> tuple[ProtocolParameters, KeyRateReport]:
    """optimize_strategies of the one point (scenario, strategy)."""
    (outcome,) = optimize_strategies([(scenario, strategy)], mode, n_starts, seed)
    return outcome
