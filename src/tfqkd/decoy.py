"""Decoy-state estimation of photon-number yields by linear programming.

Each observed Z-basis gain for an intensity pair (mu_i, mu_j) pins a
Poisson mixture of the unknown yields Y_nm.  Truncating the photon numbers
at a cutoff and bounding the discarded tail by [0, 1] turns the nine gain
equations into two-sided inequalities over a 10x10 grid of yield
variables; maximizing a single Y_nm over that polytope gives the upper
bound fed to the phase-error estimate.  Finite data widens each gain to a
standard-error confidence interval before the program is built.

The statistical z-score is named ``sigma_multiplier`` throughout: the
literature reuses the same symbol for arriving intensities and for the
confidence width, and the collision is worth avoiding in code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .channel import ArrivingIntensities, ChannelScenario, z_basis_gain
from .errors import DomainError, InfeasibleProblemError

#: Photon-number cutoff: yield variables cover 0 <= n, m < PHOTON_CUTOFF.
PHOTON_CUTOFF = 10

#: Yields maximized individually for the phase-error bound; every other
#: photon-number pair keeps the trivial bound 1.
TARGET_PAIRS = ((0, 0), (2, 0), (0, 2), (1, 1), (2, 2))

#: LP maxima are rounded up by this margin so floating point never
#: under-reports a bound.
SAFETY_MARGIN = 1e-9

_N_VARS = PHOTON_CUTOFF * PHOTON_CUTOFF
_BOUND_SIZE = 1 + max(max(pair) for pair in TARGET_PAIRS)


def poisson_pmf_vector(mu: float, count: int = PHOTON_CUTOFF) -> np.ndarray:
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
    return round(0.5 * (lo + hi), 1)


def widened_gain_interval(gain: float, effective_pulses: float, sigma_multiplier: float) -> tuple[float, float]:
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
                    if not count > 0.0:  # also rejects NaN
                        raise DomainError(f"pulse counts must be positive, got {count}")


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
    gains = tuple(
        tuple(
            z_basis_gain(scenario, ArrivingIntensities.from_sources(scenario, ia, ib))
            for ib in intensities_b
        )
        for ia in intensities_a
    )
    pulse_counts = None
    if n_pulses is not None:
        if probabilities_a is None or probabilities_b is None:
            raise DomainError("finite observations need selection probabilities for both sides")
        pulse_counts = tuple(
            tuple(n_pulses * pa * pb for pb in probabilities_b) for pa in probabilities_a
        )
    return DecoyObservations(
        intensities_a=tuple(intensities_a),
        intensities_b=tuple(intensities_b),
        gains=gains,
        pulse_counts=pulse_counts,
    )


@dataclass(frozen=True)
class LpProblem:
    """The yield-estimation polytope: 100 variables, 9 two-sided gain rows.

    coefficients[r] holds the Poisson products P^A_n P^B_m (n-major) for
    pair r; the feasible region is

        gain_lower[r] - slack_mass[r] <= coefficients[r] . Y <= gain_upper[r]
        0 <= Y_nm <= 1

    where slack_mass[r] is the exact Poisson mass outside the cutoff grid.
    Counting both sides, the problem carries 18 gain inequalities.
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

    Given a sigma multiplier (finite mode), every gain is first widened to
    its confidence interval, which can only loosen the resulting upper
    bounds.  Equal decoy intensities on one side leave duplicated,
    information-free rows; the problem is still well posed and a warning
    records the degeneracy.
    """
    if sigma_multiplier is not None:
        if obs.pulse_counts is None:
            raise DomainError("finite-size mode requires pulse counts in the observations")
        if not sigma_multiplier > 0.0:  # also rejects NaN
            raise DomainError(f"sigma multiplier must be positive, got {sigma_multiplier}")

    warnings = []
    for side, values in (("A", obs.intensities_a), ("B", obs.intensities_b)):
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

    pmf_a = [poisson_pmf_vector(mu) for mu in obs.intensities_a]
    pmf_b = [poisson_pmf_vector(mu) for mu in obs.intensities_b]

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
            gain = obs.gains[i][j]
            if sigma_multiplier is not None:
                low, high = widened_gain_interval(gain, obs.pulse_counts[i][j], sigma_multiplier)
            else:
                low = high = gain
            gain_lower[row] = low
            gain_upper[row] = high
            labels.append(f"(mu_a[{i}]={obs.intensities_a[i]:g}, mu_b[{j}]={obs.intensities_b[j]:g})")
            row += 1

    return LpProblem(
        coefficients=coefficients,
        gain_lower=gain_lower,
        gain_upper=gain_upper,
        slack_mass=slack_mass,
        pair_labels=tuple(labels),
        warnings=tuple(warnings),
    )


def _equality_form(problem: LpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Range rows as equalities with box-bounded slack variables."""
    lower, upper = problem.constraint_bounds()
    n_rows = problem.coefficients.shape[0]
    span = upper - lower
    bad = span < -1e-12
    if np.any(bad):
        index = int(np.argmax(bad))
        raise InfeasibleProblemError(
            f"constraint pair {problem.pair_labels[index]} has upper bound below lower bound",
            constraint=problem.pair_labels[index],
        )
    a = np.hstack([problem.coefficients, np.eye(n_rows)])
    ub = np.concatenate([np.ones(_N_VARS), np.maximum(span, 0.0)])
    return a, upper, ub


def solve_yield_bounds(problem: LpProblem) -> np.ndarray:
    """Upper bounds on the TARGET_PAIRS yields as a dense 3x3 bound matrix.

    Entry [n, m] holds the LP maximum of Y_nm rounded up by the safety
    margin for every target pair and the trivial bound 1 for every other
    pair, the form the phase-error bound takes.  The feasible region does
    not depend on the objective, so phase 1 runs once and each target only
    pays for its own phase 2.  Deterministic for fixed input: the embedded
    simplex uses Bland's rule throughout, so reruns are bit-identical.
    """
    a, b, ub = _equality_form(problem)
    try:
        basis = simplex.prepare(a, b, ub)
    except InfeasibleProblemError as error:
        pair = problem.pair_labels[error.constraint]
        raise InfeasibleProblemError(
            f"observations are contradictory beyond their widening at pair {pair}",
            constraint=pair,
        ) from None
    bounds = np.ones((_BOUND_SIZE, _BOUND_SIZE))
    for n, m in TARGET_PAIRS:
        objective = np.zeros(a.shape[1])
        objective[n * PHOTON_CUTOFF + m] = 1.0
        _, value = simplex.maximize_prepared(basis, objective)
        if not math.isfinite(value):
            # clamping would turn NaN into the unsound bound 0
            raise DomainError(f"LP maximum of Y[{n}][{m}] is not finite: {value}")
        bounds[n, m] = min(1.0, max(0.0, value + SAFETY_MARGIN))
    return bounds
