"""Decoy-state estimation of photon-number yields by linear programming.

Each observed Z-basis gain for an intensity pair (mu_i, mu_j) pins a
Poisson mixture of the unknown yields Y_nm.  Truncating the photon numbers
at a cutoff and bounding the discarded tail by [0, 1] turns the nine gain
equations into two-sided inequalities over a 10x10 grid of yield
variables; maximizing a single Y_nm over that polytope gives the upper
bound fed to the phase-error estimate.  Finite data widens each gain to a
standard-error confidence interval before the program is built.  The
Poisson weights are channel.poisson_pmf_rows, one 3x10 matrix per side.
Every step takes a leading stack axis: observations_from_scenario simulates
the gains of one decoy setting or of a stack of them, and build_problem, the
one constructor of LpProblem, checks and builds their LPs at once; a problem
keeps its decoy triples, which name its rows and its warnings on demand.
yield_lp is the path from a channel scenario and an EvaluationMode to the
LP and its bound matrix, which the finite key-rate evaluation memoises.
A finite search solves its LPs through yield_lp with a WarmBases of its
own: the five targets' last optimal bases are carried to each new LP as
one stack (rebuilt on the new matrix when a decoy moved), a basis still
optimal is read as it stands, simplex.reoptimize re-solves every other
one, and a probability step reuses the last LP's gains and arrays.  Those
bounds may differ from the cold ones by a few 1e-11 and only rank points.
yield_bounds is the QBER scan's path to the bound matrices of many decoy
settings, given as (K, 3) arrays of triples like build_problem's: it builds
their asymptotic LPs with one build_problem call per stack and solves each
stack in lockstep (simplex.maximize_stack), with the bits, and the first
error, that one yield_lp per setting would give.  No module outside this
one runs the chain from gains to problem to bounds.

The statistical z-score is named ``sigma_multiplier`` throughout: the
literature reuses the same symbol for arriving intensities and for the
confidence width, and the collision is worth avoiding in code.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
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
_TARGET_CELLS = [n * _BOUND_SIZE + m for n, m in TARGET_PAIRS]  # in a flattened bound matrix


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


def observations_from_scenario(scenario: ChannelScenario, intensities_a, intensities_b) -> np.ndarray:
    """Simulated Z-basis gains of a channel scenario: gains[..., i, j] when side A sent intensity i and B j.

    Takes one (mu, nu, omega) per side, or (..., 3) stacks of them.  The gains follow the Z-basis channel model
    per click pattern (the two successful patterns share the same value).
    """
    intensities_a, intensities_b = np.asarray(intensities_a, dtype=float), np.asarray(intensities_b, dtype=float)
    return z_basis_gains(scenario, intensities_a[..., None] * scenario.eta_a,
                         intensities_b[..., None, :] * scenario.eta_b)


@dataclass(frozen=True)
class LpProblem:
    """The yield-estimation polytope: 100 variables, 9 two-sided gain rows.

    coefficients[r] holds the Poisson products P^A_n P^B_m (n-major) for
    pair r; the feasible region is

        gain_lower[r] - slack_mass[r] <= coefficients[r] . Y <= gain_upper[r]
        0 <= Y_nm <= 1

    where slack_mass[r] is the exact Poisson mass outside the cutoff grid.
    Counting both sides, the problem carries 18 gain inequalities.
    intensities_a and intensities_b are the (mu, nu, omega) triples it was
    built from, which name its rows.  A stacked problem has a leading
    stack axis on every array.
    """

    coefficients: np.ndarray
    gain_lower: np.ndarray
    gain_upper: np.ndarray
    slack_mass: np.ndarray
    intensities_a: np.ndarray
    intensities_b: np.ndarray

    def _settings(self):
        """Both sides' (mu, nu, omega) as lists of floats, setting by setting."""
        return zip(self.intensities_a.reshape(-1, 3).tolist(), self.intensities_b.reshape(-1, 3).tolist())

    @property
    def pair_labels(self) -> tuple[str, ...]:
        """The name of each gain row, setting by setting through a stack."""
        return tuple(f"(mu_a[{i}]={a:g}, mu_b[{j}]={b:g})" for side_a, side_b in self._settings()
                     for i, a in enumerate(side_a) for j, b in enumerate(side_b))

    @property
    def warnings(self) -> tuple[str, ...]:
        """One note per pair of equal neighbouring decoys: legal, but their duplicated rows add no information."""
        return tuple(f"degenerate decoys on side {side}: {names} == {values[k]}; "
                     "the duplicated rows provide no extra information"
                     for setting in self._settings() for side, values in zip("AB", setting)
                     for k, names in enumerate(("mu == nu", "nu == omega")) if values[k] == values[k + 1])

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


def build_problem(intensities_a, intensities_b, gains, pulse_counts=None,
                  sigma_multiplier: float | None = None) -> LpProblem:
    """The yield LP of one decoy setting, or of a stack of settings: the one constructor of LpProblem.

    Each side holds (mu, nu, omega), non-increasing and nonnegative, as (..., 3) arrays of one shape.
    gains[..., i, j] is the per-pattern gain when side A sent intensity i and side B intensity j, and
    pulse_counts[..., i, j] (finite mode) the effective number of pulse pairs N * P_{mu_i} * P_{mu_j} behind
    it.  Row 3i + j pairs intensity i of A with intensity j of B.  Given a sigma multiplier g, a gain Q with
    pulse count M is first widened to (max(0, Q - g*sqrt(Q/M)), Q + g*sqrt(Q/M)), which can only loosen the
    upper bounds; a zero gain stays at [0, 0].  Every input is checked once, with a few reductions over the
    whole stack; a stack raises the DomainError of its first broken rule, for the first setting that breaks it.
    """
    intensities_a, intensities_b = np.asarray(intensities_a, dtype=float), np.asarray(intensities_b, dtype=float)
    for side, values in (("A", intensities_a), ("B", intensities_b)):
        if values.shape[-1:] != (3,):
            raise DomainError(f"side {side} needs exactly three intensities, got {tuple(values.ravel().tolist())}")
    gains = np.array(gains, dtype=float)
    if gains.shape[-2:] != (3, 3):
        raise DomainError("gains must form a 3x3 grid")
    sides = np.array([intensities_a, intensities_b])  # min and max below are NaN where any value is
    if not ((sides[..., :2] >= sides[..., 1:]).all() and sides.min() >= 0.0
            and 0.0 <= gains.min() <= gains.max() <= 1.0):
        for side, values in zip("AB", sides):  # the first rule broken, naming the first setting that breaks it
            for rule, bad in (("nonnegative", values[..., 2] < 0.0), ("non-increasing",
                              ~((values[..., 0] >= values[..., 1]) & (values[..., 1] >= values[..., 2])))):
                if bad.any():
                    raise DomainError(f"side {side} intensities must be {rule}, got {tuple(values[bad][0].tolist())}")
        valid = (gains >= 0.0) & (gains <= 1.0)
        if not valid.all():
            raise DomainError(f"gains must lie in [0, 1], got {gains[~valid][0]}")
    gain_rows = _gain_rows(gains, pulse_counts, sigma_multiplier)
    pmf_a, pmf_b = poisson_pmf_rows(sides, PHOTON_CUTOFF)
    rows = pmf_a.shape[:-2] + (9,)
    return LpProblem((pmf_a[..., :, None, :, None] * pmf_b[..., None, :, None, :]).reshape(rows + (_N_VARS,)),
                     *gain_rows,
                     1.0 - (pmf_a.sum(axis=-1)[..., :, None] * pmf_b.sum(axis=-1)[..., None, :]).reshape(rows),
                     *sides)


def _gain_rows(gains: np.ndarray, pulse_counts, sigma_multiplier: float | None) -> tuple[np.ndarray, np.ndarray]:
    """build_problem's (gain_lower, gain_upper) of checked (..., 3, 3) gains, flattened to (..., 9), widened
    given a sigma multiplier; the pulse counts and the sigma multiplier are checked here."""
    gains = gains.reshape(gains.shape[:-2] + (9,))
    if pulse_counts is not None:
        counts = np.array(pulse_counts, dtype=float)
        if counts.shape[-2:] != (3, 3):
            raise DomainError("pulse counts must form a 3x3 grid")
        if not 0.0 < counts.min() <= counts.max() < math.inf:  # NaN fails; inf would leave every gain unwidened
            bad = counts[~((counts > 0.0) & (counts < math.inf))]
            raise DomainError(f"pulse counts must be positive and finite, got {bad[0]}")
    if sigma_multiplier is None:
        return gains, gains.copy()
    if pulse_counts is None:
        raise DomainError("finite-size mode requires pulse counts in the observations")
    if not 0.0 < sigma_multiplier < math.inf:  # also rejects NaN; inf would turn a zero gain's width into NaN
        raise DomainError(f"sigma multiplier must be positive and finite, got {sigma_multiplier}")
    delta = sigma_multiplier * np.sqrt(gains / counts.reshape(counts.shape[:-2] + (9,)))
    return np.maximum(0.0, gains - delta), gains + delta


def _checked_bounds(problem: LpProblem) -> tuple[np.ndarray, np.ndarray]:
    """constraint_bounds, or InfeasibleProblemError naming the first pair whose upper bound lies below its lower."""
    lower, upper = problem.constraint_bounds()
    bad = upper - lower < -1e-12
    if np.any(bad):
        pair = problem.pair_labels[int(np.argmax(bad))]
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


def _bound_matrix(values: np.ndarray) -> np.ndarray:
    """The (..., 5) TARGET_PAIRS maxima, each rounded up by the safety margin and clamped to [0, 1],
    in (..., 3, 3) matrices that hold the trivial bound 1 for every other pair."""
    bounds = np.ones(values.shape[:-1] + (_BOUND_SIZE * _BOUND_SIZE,))
    bounds[..., _TARGET_CELLS] = np.minimum(1.0, np.maximum(0.0, values + SAFETY_MARGIN))
    return bounds.reshape(values.shape[:-1] + (_BOUND_SIZE, _BOUND_SIZE))


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
    LPs solved (lp_solves); targets taken from their own basis (repriced);
    reoptimize runs (dual_runs) and their dual pivots (dual_pivots);
    targets that borrowed a basis (borrowed); and phase-1 runs
    (phase1_runs).  give_ups counts the reoptimize runs that gave up, by
    reason (simplex.GIVE_UPS); their targets start as a lost basis's do.
    """

    def __init__(self):
        self.stack: simplex.PreparedBasis | None = None
        self.matrix = self.coefficients = self.key = self.gains = self.problem = None
        self.lp_solves = self.repriced = self.dual_runs = self.dual_pivots = self.borrowed = self.phase1_runs = 0
        self.give_ups = dict.fromkeys(simplex.GIVE_UPS, 0)


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
            stack, carried, own, pricing = simplex.rebase(warm.stack, objectives, a, b, ub, new_matrix=not same)
            for target in (carried & ~own).nonzero()[0]:
                pivots, verdict = simplex.reoptimize(stack[target], *(rows[target] for rows in pricing), a, b)
                own[target] = verdict == "optimal"
                warm.dual_runs += 1
                warm.dual_pivots += pivots
                if not own[target]:
                    warm.give_ups[verdict] += 1
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
    for target in (~own).nonzero()[0]:
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
    if mode.is_finite and (probabilities_a is None or probabilities_b is None):
        raise DomainError("finite observations need selection probabilities for both sides")
    counts = None if mode.n_pulses is None else (  # N * P_{mu_i} * P_{mu_j} per pair of intensities
        mode.n_pulses * np.asarray(probabilities_a, dtype=float)[:, None] * np.asarray(probabilities_b, dtype=float))
    if warm is not None and warm.key == key:
        gains = warm.gains  # checked with the triples when the last LP was built
        gain_lower, gain_upper = _gain_rows(gains, counts, mode.sigma_multiplier)
        problem = dataclasses.replace(warm.problem, gain_lower=gain_lower, gain_upper=gain_upper)
    else:
        gains = observations_from_scenario(scenario, intensities_a, intensities_b)
        problem = build_problem(intensities_a, intensities_b, gains, counts, mode.sigma_multiplier)
    bounds = solve_yield_bounds(problem, warm)
    for array in (*vars(problem).values(), bounds):
        array.setflags(write=False)
    if warm is not None:
        warm.key, warm.gains, warm.problem = key, gains, problem
    return problem, bounds


def yield_bounds(scenario: ChannelScenario, intensities_a, intensities_b) -> np.ndarray:
    """Asymptotic bound matrices of many decoy settings of one scenario, in order, as one (K, 3, 3) array.

    Each side holds one (mu, nu, omega) per setting, as (K, 3) arrays of one
    shape; matrix k is yield_lp's for setting k in the asymptotic mode, bit
    for bit.  Settings are built and solved STACK_SIZE at a time; a stack
    keeps only its equality form once built, so its memory is STACK_SIZE
    times about 32 kB.  A stack of one, or one that fails, runs setting by
    setting, so errors surface in the order of the settings, as one
    yield_lp call per setting would raise them.
    """
    intensities_a, intensities_b = np.asarray(intensities_a, dtype=float), np.asarray(intensities_b, dtype=float)
    if intensities_a.shape != intensities_b.shape:
        raise DomainError(f"the sides' triples differ in shape: {intensities_a.shape} and {intensities_b.shape}")
    bounds = [np.ones((0, _BOUND_SIZE, _BOUND_SIZE))]
    for start in range(0, len(intensities_a), STACK_SIZE):
        sides = intensities_a[start:start + STACK_SIZE], intensities_b[start:start + STACK_SIZE]
        values = None
        if len(sides[0]) > 1:
            try:
                problem = build_problem(*sides, observations_from_scenario(scenario, *sides))
                a, b, ub = _equality_form(problem.coefficients, *_checked_bounds(problem))
            except (ValueError, InfeasibleProblemError):  # the failing setting is found one by one below
                pass
            else:
                del problem  # its arrays are not needed past the equality form
                values = simplex.maximize_stack(a, b, ub, _objectives(a.shape[-1]))
                del a, b, ub  # nor the equality form past the solve: the next stack's build reuses its memory
        if values is not None and np.isfinite(values).all():
            bounds.append(_bound_matrix(values))
        else:
            bounds.append(np.array([yield_lp(scenario, *setting)[1] for setting in zip(*(s.tolist() for s in sides))]))
    return np.concatenate(bounds)
