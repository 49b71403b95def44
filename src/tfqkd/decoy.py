"""Decoy-state estimation of photon-number yields by linear programming.

Each observed Z-basis gain for an intensity pair (mu_i, mu_j) pins a
Poisson mixture of the unknown yields Y_nm.  Truncating the photon numbers
at a cutoff and bounding the discarded tail by [0, 1] turns the nine gain
equations into two-sided inequalities over a 10x10 grid of yield
variables; maximizing a single Y_nm over that polytope gives the upper
bound fed to the phase-error estimate.  Finite data widens each gain to a
standard-error confidence interval before the program is built.  The
Poisson weights are channel.poisson_pmf_rows, one 3x10 matrix per side.
Every step takes a leading stack axis: build_stack builds many settings' LPs
at once, and build_problem one, with the labels and warnings of its dump.
yield_lp is the path from a channel scenario and an EvaluationMode to the
LP and its bound matrix, which the finite key-rate evaluation memoises.
A finite search solves its LPs through yield_lp with a WarmBases of its
own: the five targets' last optimal bases are carried to each new LP as
one stack (rebuilt on the new matrix when a decoy moved), a basis still
optimal is read as it stands, simplex.reoptimize re-solves every other
one, and a probability step reuses the last LP's gains and arrays.  Those
bounds may differ from the cold ones by a few 1e-11 and only rank points.
yield_bounds is the QBER scan's path to the bound matrices of many decoy
settings: it builds their asymptotic LPs with one build_stack call per
stack and solves each stack in lockstep (simplex.maximize_stack), with the
bits, and the first error, that one yield_lp per setting would give.  No
module outside this one runs the chain from gains to problem to bounds.

The statistical z-score is named ``sigma_multiplier`` throughout: the
literature reuses the same symbol for arriving intensities and for the
confidence width, and the collision is worth avoiding in code.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import simplex
from .channel import ChannelScenario, poisson_pmf_rows, z_basis_gains
from .errors import DomainError, InfeasibleProblemError

#: Photon-number cutoff: yield variables cover 0 <= n, m < PHOTON_CUTOFF.
PHOTON_CUTOFF = 10

#: Yields maximized individually for the phase-error bound; every other
#: photon-number pair keeps the trivial bound 1.
TARGET_PAIRS = ((0, 0), (2, 0), (0, 2), (1, 1), (2, 2))

#: LP maxima are rounded up by this margin so floating point never
#: under-reports a bound.
SAFETY_MARGIN = 1e-9

#: LPs that yield_bounds solves as one stack.  A lockstep step costs mostly
#: numpy's fixed cost per call, which the stack shares, and the traced peak
#: is about 32 kB per LP (the matrix and two tableaux).  On QBER-scan
#: settings (tools/eval_cost.py, shared 2-core Xeon), us and peak kB per LP:
#: 184 and 32 at 32 LPs, 148 and 32 at 64, 124 and 32 at 96, 113 and 32 at 128.
#: 128 would raise the benchmark scan's peak RSS by about 7 %, 96 by under 5 %.
STACK_SIZE = 96

_N_VARS = PHOTON_CUTOFF * PHOTON_CUTOFF
_BOUND_SIZE = 1 + max(max(pair) for pair in TARGET_PAIRS)
_TARGET_COLUMNS = [n * PHOTON_CUTOFF + m for n, m in TARGET_PAIRS]


def sigma_multiplier_from_epsilon(epsilon: float) -> float:
    """Confidence z-score for a failure probability, rounded to one decimal.

    The interval +-gamma standard deviations succeeds with probability
    erf(gamma/sqrt(2)); gamma solves erfc(gamma/sqrt(2)) = epsilon.  One
    decimal matches how such z-scores are quoted (5.3 for epsilon=1e-7).
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"failure probability must lie in (0, 1), got {epsilon}")
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > epsilon:
            lo = mid
        else:
            hi = mid
    sigma_multiplier = round(0.5 * (lo + hi), 1)
    if sigma_multiplier == 0.0:
        raise DomainError(f"failure probability {epsilon} gives a confidence width of 0 standard deviations")
    return sigma_multiplier


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
class DecoyObservations:
    """Z-basis gains for every pairing of the two decoy intensity sets.

    intensities hold (mu, nu, omega) per side, non-increasing with
    omega = 0 by default; equal neighbours are legal but degenerate (the
    duplicated rows add no information and the construction attaches a
    warning).  gains[i][j] is the per-pattern gain when the A side sent
    intensity i and the B side intensity j.  pulse_counts[i][j], present
    in finite mode only, is the effective number of pulse pairs
    N * P_{mu_i} * P_{mu_j} behind that gain.
    """

    intensities_a: tuple[float, float, float]
    intensities_b: tuple[float, float, float]
    gains: tuple[tuple[float, ...], ...]
    pulse_counts: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        for side, values in (("A", self.intensities_a), ("B", self.intensities_b)):
            if len(values) != 3:
                raise DomainError(f"side {side} needs exactly three intensities, got {values}")
            if values[-1] < 0.0:
                raise DomainError(f"side {side} intensities must be nonnegative, got {values}")
            if not (values[0] >= values[1] >= values[2]):
                raise DomainError(f"side {side} intensities must be non-increasing, got {values}")
        if len(self.gains) != 3 or any(len(row) != 3 for row in self.gains):
            raise DomainError("gains must form a 3x3 grid")
        for row in self.gains:
            for q in row:
                if not (0.0 <= q <= 1.0):
                    raise DomainError(f"gains must lie in [0, 1], got {q}")
        if self.pulse_counts is not None:
            if len(self.pulse_counts) != 3 or any(len(row) != 3 for row in self.pulse_counts):
                raise DomainError("pulse counts must form a 3x3 grid")
            for row in self.pulse_counts:
                for count in row:
                    if not 0.0 < count < math.inf:  # also rejects NaN; inf would leave every gain unwidened
                        raise DomainError(f"pulse counts must be positive and finite, got {count}")


def observations_from_scenario(
    scenario: ChannelScenario,
    intensities_a: tuple[float, float, float],
    intensities_b: tuple[float, float, float],
    n_pulses: float | None = None,
    probabilities_a: tuple[float, float, float] | None = None,
    probabilities_b: tuple[float, float, float] | None = None,
) -> DecoyObservations:
    """Simulated decoy observations for a channel scenario.

    Gains follow the Z-basis channel model per click pattern (the two
    successful patterns share the same value).  Passing n_pulses together
    with per-intensity selection probabilities adds the effective pulse
    counts needed for finite-size widening.
    """
    gains = z_basis_gains(scenario, np.asarray(intensities_a, dtype=float)[:, None] * scenario.eta_a,
                          np.asarray(intensities_b, dtype=float) * scenario.eta_b)
    return DecoyObservations(tuple(intensities_a), tuple(intensities_b), tuple(map(tuple, gains.tolist())),
                             _pulse_counts(n_pulses, probabilities_a, probabilities_b))


def _pulse_counts(n_pulses, probabilities_a, probabilities_b) -> tuple[tuple[float, ...], ...] | None:
    """N * P_{mu_i} * P_{mu_j} per pair of intensities, or None without a pulse count."""
    if n_pulses is None:
        return None
    if probabilities_a is None or probabilities_b is None:
        raise DomainError("finite observations need selection probabilities for both sides")
    return tuple(tuple(n_pulses * pa * pb for pb in probabilities_b) for pa in probabilities_a)


@dataclass(frozen=True)
class LpProblem:
    """The yield-estimation polytope: 100 variables, 9 two-sided gain rows.

    coefficients[r] holds the Poisson products P^A_n P^B_m (n-major) for
    pair r; the feasible region is

        gain_lower[r] - slack_mass[r] <= coefficients[r] . Y <= gain_upper[r]
        0 <= Y_nm <= 1

    where slack_mass[r] is the exact Poisson mass outside the cutoff grid.
    Counting both sides, the problem carries 18 gain inequalities.  A
    build_stack problem has a leading stack axis and no labels or warnings.
    """

    coefficients: np.ndarray
    gain_lower: np.ndarray
    gain_upper: np.ndarray
    slack_mass: np.ndarray
    pair_labels: tuple[str, ...]
    warnings: tuple[str, ...] = field(default=())

    def constraint_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Effective (lower, upper) bounds on coefficients . Y per pair."""
        return np.maximum(0.0, self.gain_lower - self.slack_mass), self.gain_upper.copy()

    def to_text(self) -> str:
        """Audit dump of the full model in a plain text tableau."""
        lines = [
            f"decoy yield LP: {_N_VARS} variables Y[n][m] "
            f"(0 <= n,m < {PHOTON_CUTOFF}, n-major), {2 * self.coefficients.shape[0]} gain inequalities, "
            "box 0 <= Y <= 1",
        ]
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        lower, upper = self.constraint_bounds()
        for r, label in enumerate(self.pair_labels):
            lines.append(
                f"pair {label}: {lower[r]:.12e} <= sum P.Y <= {upper[r]:.12e}"
                f"  (gain in [{self.gain_lower[r]:.12e}, {self.gain_upper[r]:.12e}],"
                f" tail mass {self.slack_mass[r]:.12e})"
            )
            for n in range(PHOTON_CUTOFF):
                row = self.coefficients[r, n * PHOTON_CUTOFF:(n + 1) * PHOTON_CUTOFF]
                lines.append("  " + " ".join(f"{v:.6e}" for v in row))
        return "\n".join(lines)


def build_problem(obs: DecoyObservations, sigma_multiplier: float | None = None) -> LpProblem:
    """Assemble the yield LP from observations.

    Row 3i + j pairs intensity i of side A with intensity j of side B; all
    nine rows, tail masses and gain intervals are formed as whole arrays.
    Given a sigma multiplier g (finite mode), a gain Q with pulse count M
    is first widened to (max(0, Q - g*sqrt(Q/M)), Q + g*sqrt(Q/M)), which
    can only loosen the upper bounds; a zero gain stays at [0, 0].  Equal
    decoy intensities on one side leave duplicated, information-free rows;
    the problem is still well posed and a warning records the degeneracy.
    """
    if sigma_multiplier is not None:
        if obs.pulse_counts is None:
            raise DomainError("finite-size mode requires pulse counts in the observations")
        if not 0.0 < sigma_multiplier < math.inf:  # also rejects NaN; inf would turn a zero gain's width into NaN
            raise DomainError(f"sigma multiplier must be positive and finite, got {sigma_multiplier}")

    warnings = tuple(
        f"degenerate decoys on side {side}: {names} == {values[k]}; the duplicated rows provide no extra information"
        for side, values in (("A", obs.intensities_a), ("B", obs.intensities_b))
        for k, names in enumerate(("mu == nu", "nu == omega")) if values[k] == values[k + 1]
    )
    return _problem(obs.intensities_a, obs.intensities_b, obs.gains, obs.pulse_counts, sigma_multiplier,
                    pair_labels=tuple(f"(mu_a[{i}]={a:g}, mu_b[{j}]={b:g})" for i, a in enumerate(obs.intensities_a)
                                      for j, b in enumerate(obs.intensities_b)),
                    warnings=warnings)


def build_stack(scenario: ChannelScenario, intensities_a, intensities_b) -> LpProblem:
    """The asymptotic yield LPs of many decoy settings, one (mu, nu, omega) row per setting and side.

    Slice k holds the bytes of build_problem(observations_from_scenario(...)) for setting k.  A setting that
    those reject raises DomainError here without being named: built alone, it is.
    """
    intensities_a, intensities_b = np.asarray(intensities_a, dtype=float), np.asarray(intensities_b, dtype=float)
    for side in (intensities_a, intensities_b):
        if side.shape[-1:] != (3,) or not ((side[..., 2] >= 0.0).all() and (side[..., :2] >= side[..., 1:]).all()):
            raise DomainError("decoy intensities must be non-increasing nonnegative triples")
    gains = z_basis_gains(scenario, intensities_a[..., None] * scenario.eta_a,
                          intensities_b[..., None, :] * scenario.eta_b)
    return _problem(intensities_a, intensities_b, gains, None, None, pair_labels=())


def _problem(intensities_a, intensities_b, gains, pulse_counts, sigma_multiplier, **labels) -> LpProblem:
    """The LpProblem of (..., 3) intensities per side and (..., 3, 3) gains and pulse counts; rows are n-major."""
    pmf_a, pmf_b = poisson_pmf_rows(np.array([intensities_a, intensities_b], dtype=float), PHOTON_CUTOFF)
    rows = pmf_a.shape[:-2] + (9,)
    return LpProblem((pmf_a[..., :, None, :, None] * pmf_b[..., None, :, None, :]).reshape(rows + (_N_VARS,)),
                     *_widened(gains, pulse_counts, sigma_multiplier),
                     1.0 - (pmf_a.sum(axis=-1)[..., :, None] * pmf_b.sum(axis=-1)[..., None, :]).reshape(rows),
                     **labels)


def _widened(gains, pulse_counts, sigma_multiplier: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(gain_lower, gain_upper) of (..., 3, 3) gains, flattened to (..., 9), widened given a sigma multiplier."""
    gains = np.array(gains, dtype=float)
    gains = gains.reshape(gains.shape[:-2] + (9,))
    if sigma_multiplier is None:
        return gains, gains.copy()
    delta = sigma_multiplier * np.sqrt(gains / np.array(pulse_counts, dtype=float).reshape(gains.shape))
    return np.maximum(0.0, gains - delta), gains + delta


def _checked_bounds(problem: LpProblem) -> tuple[np.ndarray, np.ndarray]:
    """constraint_bounds, or InfeasibleProblemError naming the first pair whose upper bound lies below its lower."""
    lower, upper = problem.constraint_bounds()
    bad = upper - lower < -1e-12
    if np.any(bad):
        index = int(np.argmax(bad))
        pair = problem.pair_labels[index] if problem.pair_labels else f"#{index} of the stack"
        raise InfeasibleProblemError(f"constraint pair {pair} has upper bound below lower bound", constraint=pair)
    return lower, upper


def _equality_form(coefficients: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                   a: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Range rows as equalities with box-bounded slack variables; leading axes stack problems; a given a is the
    matrix that an earlier call built from the same coefficients."""
    n_rows = coefficients.shape[-2]
    if a is None:
        a = np.zeros(coefficients.shape[:-1] + (_N_VARS + n_rows,))
        a[..., :_N_VARS] = coefficients
        a[..., range(n_rows), range(_N_VARS, _N_VARS + n_rows)] = 1.0
    ub = np.ones(a.shape[:-2] + a.shape[-1:])
    ub[..., _N_VARS:] = np.maximum(upper - lower, 0.0)
    return a, upper, ub


@lru_cache(maxsize=None)
def _objectives(width: int) -> np.ndarray:
    """One unit objective per TARGET_PAIRS yield over the width columns of an equality form.

    Built once per width and read-only: the decoy LP always has 109
    columns, and only hand-built problems with fewer rows take another.
    """
    objectives = np.zeros((len(TARGET_PAIRS), width))
    objectives[range(len(TARGET_PAIRS)), _TARGET_COLUMNS] = 1.0
    objectives.setflags(write=False)
    return objectives


def _bound_matrix(values) -> np.ndarray:
    """The TARGET_PAIRS maxima, each rounded up by the safety margin and clamped
    to [0, 1], in a matrix that holds the trivial bound 1 for every other pair."""
    bounds = np.ones((_BOUND_SIZE, _BOUND_SIZE))
    for (n, m), value in zip(TARGET_PAIRS, values):
        bounds[n, m] = min(1.0, max(0.0, value + SAFETY_MARGIN))
    return bounds


class WarmBases:
    """The last LP that one finite search solved, kept to re-solve its next LP.

    A search step moves a selection probability, which changes b and the
    slack boxes of the equality form, or a decoy, which also changes the
    matrix.  stack holds the five targets' final states, in TARGET_PAIRS
    order, on matrix, built from the problem array coefficients.
    solve_yield_bounds carries it to the new data with one simplex.rebase
    (rebuilt on a new matrix), reads each basis that rebase proves optimal
    as it stands, and re-solves every other carried one with
    simplex.reoptimize.  A target whose basis is lost, or whose reoptimize
    run gives up, starts its phase 2 from another target's carried basis,
    which is feasible for every objective.  Phase 1 runs only when no basis
    carries over.  key (scenario, mode and both decoy triples), gains and
    problem are yield_lp's: the last LP it built, whose gains and arrays a
    probability step reuses.  The counters report how often each path ran:
    LPs solved; targets taken from their own basis; reoptimize runs and
    their dual pivots; targets that borrowed a basis; and phase-1 runs.
    """

    def __init__(self):
        self.stack: simplex.PreparedBasis | None = None
        self.matrix = self.coefficients = self.key = self.gains = self.problem = None
        self.lp_solves = self.repriced = self.dual_runs = self.dual_pivots = self.borrowed = self.phase1_runs = 0


def solve_yield_bounds(problem: LpProblem, warm: WarmBases | None = None) -> np.ndarray:
    """Upper bounds on the TARGET_PAIRS yields as a dense 3x3 bound matrix.

    Entry [n, m] holds the LP maximum of Y_nm rounded up by the safety
    margin for every target pair and the trivial bound 1 for every other
    pair, the form the phase-error bound takes.  The feasible region does
    not depend on the objective, so phase 1 runs once and each target only
    pays for its own phase 2.  Deterministic for fixed input: the embedded
    simplex keeps no state between calls and its pricing (Dantzig's rule
    with a Bland fallback in phase 2, Bland's rule in phase 1) breaks ties
    by index, so reruns are bit-identical.

    Given a WarmBases, each target is instead taken from its carried
    basis where rebase proves it optimal or reoptimize brings it to its
    optimum (see WarmBases); the matrix counts as unchanged when the
    problem shares the read-only coefficients array of the last solve.
    Each maximum passes the same optimality test, but its floats come from
    other pivots and, after a decoy step, from a basis inverse that LAPACK
    computed, so they may differ from the cold ones by a few 1e-11 and
    depend on the LPs solved before.
    """
    lower, upper = _checked_bounds(problem)
    coefficients = problem.coefficients
    same = warm is not None and coefficients is warm.coefficients and not coefficients.flags.writeable
    a, b, ub = _equality_form(coefficients, lower, upper, warm.matrix if same else None)
    objectives = _objectives(a.shape[-1])
    own = np.zeros(len(TARGET_PAIRS), dtype=bool)  # targets solved from their own carried basis
    if warm is not None:
        if warm.stack is not None:
            stack, carried, own = simplex.rebase(warm.stack, objectives, a, b, ub, new_matrix=not same)
            for target in np.flatnonzero(carried & ~own):
                pivots, own[target] = simplex.reoptimize(stack[target], objectives[target], a, b)
                warm.dual_runs += 1
                warm.dual_pivots += pivots
        found = int(own.sum())
        warm.lp_solves += 1
        warm.repriced += found
        warm.borrowed += found and len(own) - found
        warm.phase1_runs += not found
    if not own.any():
        try:
            stack = simplex.PreparedBasis.stacked([simplex.prepare(a, b, ub)] * len(own))
        except InfeasibleProblemError as error:
            pair = problem.pair_labels[error.constraint]
            raise InfeasibleProblemError(
                f"observations are contradictory beyond their widening at pair {pair}",
                constraint=pair,
            ) from None
    for target in np.flatnonzero(~own):
        if own.any():  # feasibility does not depend on the objective: a carried basis is a start for every target
            stack[target] = stack[int(own.argmax())]
        simplex.maximize_prepared(stack[target], objectives[target])
    values = simplex.column_values(stack, _TARGET_COLUMNS)  # every target's state is now optimal
    for (n, m), value in zip(TARGET_PAIRS, values):
        if not math.isfinite(value):
            # clamping would turn NaN into the unsound bound 0
            raise DomainError(f"LP maximum of Y[{n}][{m}] is not finite: {value}")
    if warm is not None:
        warm.stack, warm.matrix, warm.coefficients = stack, a, coefficients
    return _bound_matrix(values)


def yield_lp(scenario: ChannelScenario, intensities_a: tuple[float, float, float],
             intensities_b: tuple[float, float, float], mode: EvaluationMode = EvaluationMode(),
             probabilities_a: tuple[float, float, float] | None = None,
             probabilities_b: tuple[float, float, float] | None = None,
             warm: WarmBases | None = None) -> tuple[LpProblem, np.ndarray]:
    """The yield LP of a channel scenario and its bound matrix, every array read-only.

    Simulates the nine decoy gains, builds the problem and solves it for
    the TARGET_PAIRS.  In a finite mode the pulse count and both sides'
    selection probabilities give each gain's pulse count, and the sigma
    multiplier widens the gains; the asymptotic mode (the default) keeps
    them exact and needs no probabilities.  A WarmBases is handed to
    solve_yield_bounds; when its key is this LP's (a probability step), the
    gains are not simulated again, and the problem shares the last one's
    arrays but the widened gains, with the bytes that a new build gives.
    """
    key = (scenario, mode, tuple(intensities_a), tuple(intensities_b))
    if warm is not None and warm.key == key:
        obs = DecoyObservations(key[2], key[3], warm.gains,
                                _pulse_counts(mode.n_pulses, probabilities_a, probabilities_b))
        gain_lower, gain_upper = _widened(obs.gains, obs.pulse_counts, mode.sigma_multiplier)
        problem = dataclasses.replace(warm.problem, gain_lower=gain_lower, gain_upper=gain_upper)
    else:
        obs = observations_from_scenario(scenario, intensities_a, intensities_b, mode.n_pulses,
                                         probabilities_a, probabilities_b)
        problem = build_problem(obs, mode.sigma_multiplier)
    bounds = solve_yield_bounds(problem, warm)
    for array in (problem.coefficients, problem.gain_lower, problem.gain_upper, problem.slack_mass, bounds):
        array.setflags(write=False)
    if warm is not None:
        warm.key, warm.gains, warm.problem = key, obs.gains, problem
    return problem, bounds


def yield_bounds(scenario: ChannelScenario,
                 decoy_sets: Iterable[tuple[tuple[float, ...], tuple[float, ...]]]) -> list[np.ndarray]:
    """Asymptotic bound matrices of many decoy settings of one scenario, in order.

    decoy_sets yields (intensities_a, intensities_b) pairs; each matrix is
    yield_lp's for its pair in the asymptotic mode, bit for bit.  Pairs are
    drawn, built and solved STACK_SIZE at a time; a stack keeps only its
    equality form once built, so its memory is STACK_SIZE times about 32 kB.
    Errors surface in the order of the pairs, as one yield_lp call per pair
    would raise them.
    """
    decoy_sets, bounds = iter(decoy_sets), []
    while True:
        stack = []
        try:
            for pair in itertools.islice(decoy_sets, STACK_SIZE):
                stack.append(pair)
        except Exception:
            _stack_bounds(scenario, stack)
            raise
        if not stack:
            return bounds
        bounds.extend(_stack_bounds(scenario, stack))


def _stack_bounds(scenario: ChannelScenario, stack: list) -> list[np.ndarray]:
    """yield_bounds of one stack, built and solved at once, or setting by setting if it holds one or any fails."""
    if len(stack) > 1:
        try:
            problem = build_stack(scenario, *zip(*stack))
            a, b, ub = _equality_form(problem.coefficients, *_checked_bounds(problem))
            del problem  # its arrays are not needed past the equality form
        except (ValueError, TypeError, InfeasibleProblemError):  # the failing setting is found one by one below
            a = None
        values = None if a is None else simplex.maximize_stack(a, b, ub, _objectives(a.shape[-1]))
        if values is not None and np.isfinite(values).all():
            return [_bound_matrix(row) for row in values.tolist()]
    return [solve_yield_bounds(build_problem(observations_from_scenario(scenario, *pair))) for pair in stack]
