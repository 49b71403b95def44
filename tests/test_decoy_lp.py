import dataclasses
import math

import numpy as np
import pytest

from tfqkd import simplex
from tfqkd.channel import ChannelScenario, yield_grid
from tfqkd.decoy import (
    PHOTON_CUTOFF,
    TARGET_PAIRS,
    DecoyObservations,
    LpProblem,
    build_problem,
    observations_from_scenario,
    poisson_pmf_vector,
    sigma_multiplier_from_epsilon,
    solve_yield_bounds,
    widened_gain_interval,
)
from tfqkd.errors import DomainError, InfeasibleProblemError

from oracles import lp_contains, scipy_yield_upper_bound

NOMINAL = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.02)
DECOYS = (0.1, 0.01, 0.0)


def nominal_problem(**kwargs):
    return build_problem(observations_from_scenario(NOMINAL, DECOYS, DECOYS), **kwargs)


class TestPoisson:
    def test_normalized_within_cutoff(self):
        for mu in (0.0, 0.01, 0.1, 0.9):
            vec = poisson_pmf_vector(mu)
            assert vec.shape == (PHOTON_CUTOFF,)
            full = sum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(PHOTON_CUTOFF))
            assert vec.sum() == pytest.approx(full, rel=1e-14)

    def test_vacuum_source(self):
        vec = poisson_pmf_vector(0.0)
        assert vec[0] == 1.0
        assert np.all(vec[1:] == 0.0)

    def test_rejects_negative_intensity(self):
        # a NaN intensity would fill the vector with NaN; +inf is no intensity either
        for mu in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                poisson_pmf_vector(mu)


class TestStatistics:
    def test_failure_probability_maps_to_known_z_score(self):
        assert sigma_multiplier_from_epsilon(1e-7) == 5.3

    def test_interval_worked_example(self):
        low, high = widened_gain_interval(1e-4, 1e10, 5.3)
        assert high == pytest.approx(1e-4 + 5.3e-7, rel=1e-12)
        assert low == pytest.approx(1e-4 - 5.3e-7, rel=1e-12)

    def test_lower_bound_clamps_at_zero(self):
        low, high = widened_gain_interval(1e-12, 1e6, 5.3)
        assert low == 0.0
        assert high > 1e-12

    def test_zero_count_cell_stays_pinned(self):
        low, high = widened_gain_interval(0.0, 1e9, 5.3)
        assert (low, high) == (0.0, 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            widened_gain_interval(-1e-3, 1e9, 5.3)
        with pytest.raises(DomainError):
            widened_gain_interval(1e-3, 0.0, 5.3)
        with pytest.raises(DomainError):
            sigma_multiplier_from_epsilon(0.0)


class TestObservations:
    def test_validation(self):
        with pytest.raises(DomainError):
            DecoyObservations((0.01, 0.1, 0.0), DECOYS, tuple((0.0,) * 3 for _ in range(3)))
        with pytest.raises(DomainError):
            DecoyObservations(DECOYS, DECOYS, tuple((1.5, 0.0, 0.0) for _ in range(3)))
        with pytest.raises(DomainError):
            DecoyObservations(DECOYS, DECOYS, tuple((0.0,) * 3 for _ in range(3)),
                              pulse_counts=tuple((0.0,) * 3 for _ in range(3)))

    def test_finite_observations_need_probabilities(self):
        with pytest.raises(DomainError):
            observations_from_scenario(NOMINAL, DECOYS, DECOYS, n_pulses=1e10)

    def test_pulse_counts_multiply_out(self):
        obs = observations_from_scenario(
            NOMINAL, DECOYS, DECOYS, n_pulses=1e10,
            probabilities_a=(0.5, 0.3, 0.2), probabilities_b=(0.6, 0.2, 0.2),
        )
        assert obs.pulse_counts[0][1] == pytest.approx(1e10 * 0.5 * 0.2)
        assert obs.pulse_counts[2][0] == pytest.approx(1e10 * 0.2 * 0.6)


class TestNanIsRejected:
    """NaN counts or widths used to pass every check and end as the unsound bound 0."""

    PROBABILITIES = dict(probabilities_a=(0.4, 0.3, 0.3), probabilities_b=(0.4, 0.3, 0.3))

    def test_observations_reject_nan_pulse_counts(self):
        with pytest.raises(DomainError, match="pulse counts must be positive"):
            DecoyObservations(DECOYS, DECOYS, tuple((0.0,) * 3 for _ in range(3)),
                              pulse_counts=tuple((math.nan, 1e9, 1e9) for _ in range(3)))

    def test_observations_from_scenario_reject_nan_pulses(self):
        with pytest.raises(DomainError):
            observations_from_scenario(NOMINAL, DECOYS, DECOYS, n_pulses=math.nan, **self.PROBABILITIES)

    @pytest.mark.parametrize("args", [(math.nan, 1e9, 5.3), (1e-3, math.nan, 5.3), (1e-3, 1e9, math.nan)])
    def test_widening_rejects_nan(self, args):
        with pytest.raises(DomainError):
            widened_gain_interval(*args)

    def test_build_rejects_nan_sigma(self):
        obs = observations_from_scenario(NOMINAL, DECOYS, DECOYS, n_pulses=1e12, **self.PROBABILITIES)
        with pytest.raises(DomainError, match="sigma multiplier must be positive"):
            build_problem(obs, sigma_multiplier=math.nan)

    def test_solve_raises_on_a_non_finite_maximum(self, monkeypatch):
        monkeypatch.setattr(simplex, "maximize_prepared", lambda basis, objective: (None, math.nan))
        with pytest.raises(DomainError, match="not finite"):
            solve_yield_bounds(nominal_problem())

    def test_solve_rejects_nan_problem_data(self):
        problem = nominal_problem()
        gain_upper = problem.gain_upper.copy()
        gain_upper[4] = math.nan
        with pytest.raises(DomainError):
            solve_yield_bounds(dataclasses.replace(problem, gain_upper=gain_upper))


class TestBuildProblem:
    def test_problem_shape(self):
        problem = nominal_problem()
        assert problem.coefficients.shape == (9, 100)
        assert problem.to_text().startswith(
            "decoy yield LP: 100 variables Y[n][m] (0 <= n,m < 10, n-major), 18 gain inequalities, "
        )

    def test_coefficients_are_poisson_products(self):
        problem = nominal_problem()
        # row 1 pairs mu_a = 0.1 with nu_b = 0.01; variable (n=2, m=1)
        expected = (math.exp(-0.1) * 0.1**2 / 2) * (math.exp(-0.01) * 0.01)
        assert problem.coefficients[1, 2 * PHOTON_CUTOFF + 1] == pytest.approx(expected, rel=1e-14)

    def test_tail_mass_is_exact(self):
        problem = nominal_problem()
        pa = poisson_pmf_vector(0.1)
        pb = poisson_pmf_vector(0.01)
        assert problem.slack_mass[1] == pytest.approx(1.0 - pa.sum() * pb.sum(), abs=1e-16)

    def test_asymptotic_bounds_pin_gains(self):
        problem = nominal_problem()
        assert np.all(problem.gain_lower == problem.gain_upper)

    def test_finite_mode_widens_every_gain(self):
        obs = observations_from_scenario(
            NOMINAL, DECOYS, DECOYS, n_pulses=1e12,
            probabilities_a=(0.4, 0.3, 0.3), probabilities_b=(0.4, 0.3, 0.3),
        )
        tight = build_problem(obs)
        wide = build_problem(obs, sigma_multiplier=5.3)
        positive = tight.gain_upper > 0
        assert np.all(wide.gain_upper[positive] > tight.gain_upper[positive])
        assert np.all(wide.gain_lower <= tight.gain_lower)
        assert np.all(wide.gain_lower >= 0.0)

    def test_finite_mode_requires_counts_and_width(self):
        obs = observations_from_scenario(NOMINAL, DECOYS, DECOYS)
        with pytest.raises(DomainError):
            build_problem(obs, sigma_multiplier=5.3)
        obs_counts = observations_from_scenario(
            NOMINAL, DECOYS, DECOYS, n_pulses=1e12,
            probabilities_a=(0.4, 0.3, 0.3), probabilities_b=(0.4, 0.3, 0.3),
        )
        with pytest.raises(DomainError):
            build_problem(obs_counts, sigma_multiplier=0.0)

    def test_degenerate_decoys_attach_a_warning(self):
        obs = observations_from_scenario(NOMINAL, (0.01, 0.01, 0.0), DECOYS)
        problem = build_problem(obs)
        assert any("degenerate" in w for w in problem.warnings)
        assert nominal_problem().warnings == ()

    def test_audit_dump_lists_every_pair(self):
        text = nominal_problem().to_text()
        assert text.count("pair (") == 9
        assert "100 variables" in text


class TestSolve:
    def test_zero_observations_pin_the_vacuum_yield(self):
        sc = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.0)
        gains = tuple(tuple(0.0 for _ in range(3)) for _ in range(3))
        problem = build_problem(DecoyObservations(DECOYS, DECOYS, gains))
        bound = solve_yield_bounds(problem)[0, 0]
        # zero up to the documented safety rounding
        assert 0.0 <= bound <= 1.0001e-9

    def test_five_bound_record(self):
        bounds = solve_yield_bounds(nominal_problem())
        assert bounds.shape == (3, 3)
        for n in range(3):
            for m in range(3):
                if (n, m) in TARGET_PAIRS:
                    assert 0.0 <= bounds[n, m] < 1.0
                else:
                    assert bounds[n, m] == 1.0  # the trivial bound

    def test_upper_bounds_are_sound_for_true_yields(self):
        grid = yield_grid(NOMINAL, PHOTON_CUTOFF - 1)
        problem = nominal_problem()
        assert lp_contains(problem, grid)  # cutoff slack keeps the truth feasible
        bounds = solve_yield_bounds(problem)
        for n, m in TARGET_PAIRS:
            assert bounds[n, m] >= grid[n, m] - 1e-12

    def test_tightness_at_nominal_point(self):
        bounds = solve_yield_bounds(nominal_problem())
        true_11 = yield_grid(NOMINAL, 2)[1, 1]
        assert bounds[(1, 1)] <= 1.10 * true_11

    def test_sound_for_randomized_synthetic_yields(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            yields = rng.uniform(0.0, 1.0, size=(10, 10))
            mu_a = sorted(rng.uniform(0.005, 0.6, size=2), reverse=True) + [0.0]
            mu_b = sorted(rng.uniform(0.005, 0.6, size=2), reverse=True) + [0.0]
            pa = [poisson_pmf_vector(m) for m in mu_a]
            pb = [poisson_pmf_vector(m) for m in mu_b]
            gains = tuple(
                tuple(float(pa[i] @ yields @ pb[j]) for j in range(3)) for i in range(3)
            )
            problem = build_problem(DecoyObservations(tuple(mu_a), tuple(mu_b), gains))
            assert lp_contains(problem, yields)
            bounds = solve_yield_bounds(problem)
            for n, m in TARGET_PAIRS:
                assert bounds[n, m] >= yields[n, m] - 1e-9

    def test_matches_reference_solver(self):
        problem = nominal_problem()
        bounds = solve_yield_bounds(problem)
        for target in TARGET_PAIRS:
            mine = bounds[target]
            reference = scipy_yield_upper_bound(problem, target)
            assert mine == pytest.approx(reference, abs=2e-6)
            assert mine >= reference - 1e-9  # never under-report

    def test_wider_intervals_never_shrink_bounds(self):
        obs = observations_from_scenario(
            NOMINAL, DECOYS, DECOYS, n_pulses=1e11,
            probabilities_a=(0.4, 0.3, 0.3), probabilities_b=(0.4, 0.3, 0.3),
        )
        previous = solve_yield_bounds(build_problem(obs))
        for sigma in (1.0, 5.3, 12.0):
            current = solve_yield_bounds(build_problem(obs, sigma_multiplier=sigma))
            for pair in TARGET_PAIRS:
                assert current[pair] >= previous[pair] - 1e-12
            previous = current

    def test_degenerate_decoys_match_reduced_observation_set(self):
        obs = observations_from_scenario(NOMINAL, (0.01, 0.01, 0.0), DECOYS)
        degenerate = solve_yield_bounds(build_problem(obs))

        # same information, built directly from the two unique intensities
        unique_rows = (0, 2)  # intensities 0.01 and 0.0 in the original grid
        pa = {0: poisson_pmf_vector(0.01), 2: poisson_pmf_vector(0.0)}
        pb = [poisson_pmf_vector(m) for m in DECOYS]
        coefficients, lows, highs, slack, labels = [], [], [], [], []
        for i in unique_rows:
            for j in range(3):
                coefficients.append(np.outer(pa[i], pb[j]).reshape(100))
                gain = obs.gains[i][j]
                lows.append(gain)
                highs.append(gain)
                slack.append(1.0 - pa[i].sum() * pb[j].sum())
                labels.append(f"reduced-{i}{j}")
        reduced = LpProblem(
            coefficients=np.array(coefficients),
            gain_lower=np.array(lows),
            gain_upper=np.array(highs),
            slack_mass=np.array(slack),
            pair_labels=tuple(labels),
        )
        expected = solve_yield_bounds(reduced)
        for pair in TARGET_PAIRS:
            assert degenerate[pair] == pytest.approx(expected[pair], abs=1e-7)

    def test_bit_identical_reruns(self):
        first = solve_yield_bounds(nominal_problem())
        second = solve_yield_bounds(nominal_problem())
        assert first.tobytes() == second.tobytes()

    def test_contradictory_observations_raise_with_the_pair(self):
        problem = nominal_problem()
        broken = LpProblem(
            coefficients=problem.coefficients,
            gain_lower=problem.gain_lower + 0.5,  # lower above upper
            gain_upper=problem.gain_upper,
            slack_mass=problem.slack_mass,
            pair_labels=problem.pair_labels,
        )
        with pytest.raises(InfeasibleProblemError) as excinfo:
            solve_yield_bounds(broken)
        assert excinfo.value.constraint is not None

    def test_conflicting_rows_detected_in_phase_one(self):
        coefficients = np.vstack([np.ones(100) / 100.0, np.ones(100) / 100.0])
        problem = LpProblem(
            coefficients=coefficients,
            gain_lower=np.array([0.9, 0.0]),
            gain_upper=np.array([0.9, 0.1]),  # same mixture pinned to 0.9 and <= 0.1
            slack_mass=np.zeros(2),
            pair_labels=("pin-high", "pin-low"),
        )
        with pytest.raises(InfeasibleProblemError) as excinfo:
            solve_yield_bounds(problem)
        assert excinfo.value.constraint in problem.pair_labels
