import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd import decoy, simplex
from tfqkd.channel import ArrivingIntensities, ChannelScenario, poisson_pmf_rows, yield_grid
from tfqkd.decoy import (
    PHOTON_CUTOFF,
    STACK_SIZE,
    TARGET_PAIRS,
    DecoyObservations,
    WarmBases,
    EvaluationMode,
    LpProblem,
    build_problem,
    build_stack,
    observations_from_scenario,
    sigma_multiplier_from_epsilon,
    _equality_form,
    _objectives,
    solve_yield_bounds,
    yield_bounds,
    yield_lp,
)
from tfqkd.errors import DomainError, InfeasibleProblemError
from tfqkd.experiments import SweepConfig

from oracles import (
    basic_point_long_double,
    build_problem_reference,
    lp_contains,
    poisson_pmf_vector_reference,
    rebase_reference,
    scipy_yield_upper_bound,
    z_basis_gain_reference,
)

NOMINAL = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.02)
DECOYS = (0.1, 0.01, 0.0)


def nominal_problem(**kwargs):
    return build_problem(observations_from_scenario(NOMINAL, DECOYS, DECOYS), **kwargs)


#: The cell (A intensity 1, B intensity 2) of the widening tests, row 5 of the LP.
CELL = (1, 2)


def widened_cell(gain: float, count: float, sigma_multiplier: float) -> tuple[float, float]:
    """(lower, upper) gain of CELL when it alone holds the given gain and pulse count."""
    gains = [[1e-3] * 3 for _ in range(3)]
    counts = [[1e9] * 3 for _ in range(3)]
    gains[CELL[0]][CELL[1]], counts[CELL[0]][CELL[1]] = gain, count
    obs = DecoyObservations(DECOYS, DECOYS, tuple(map(tuple, gains)), tuple(map(tuple, counts)))
    problem = build_problem(obs, sigma_multiplier=sigma_multiplier)
    row = 3 * CELL[0] + CELL[1]
    return problem.gain_lower[row], problem.gain_upper[row]


class TestPoisson:
    def test_normalized_within_cutoff(self):
        intensities = (0.0, 0.01, 0.1, 0.9)
        rows = poisson_pmf_rows(intensities, PHOTON_CUTOFF)
        assert rows.shape == (len(intensities), PHOTON_CUTOFF)
        for mu, row in zip(intensities, rows):
            full = sum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(PHOTON_CUTOFF))
            assert row.sum() == pytest.approx(full, rel=1e-14)

    def test_vacuum_source(self):
        row = poisson_pmf_rows([0.0], PHOTON_CUTOFF)[0]
        assert row[0] == 1.0
        assert np.all(row[1:] == 0.0)

    def test_rejects_negative_intensity(self):
        # a NaN intensity would fill its row with NaN; +inf is no intensity either
        for mu in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                poisson_pmf_rows([0.1, mu], PHOTON_CUTOFF)

    @pytest.mark.parametrize("count", [1, 10, 21])
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(intensities=st.lists(st.floats(0.0, 100.0) | st.sampled_from([0.0, 1.0, 100.0]), min_size=1, max_size=5))
    def test_rows_are_the_reference_vectors(self, count, intensities):
        rows = poisson_pmf_rows(intensities, count)
        assert rows.shape == (len(intensities), count)
        for mu, row in zip(intensities, rows):
            assert row.tobytes() == poisson_pmf_vector_reference(mu, count).tobytes()


class TestStatistics:
    def test_failure_probability_maps_to_known_z_score(self):
        assert sigma_multiplier_from_epsilon(1e-7) == 5.3

    def test_an_epsilon_whose_z_score_rounds_to_zero_is_named(self):
        # above about 0.96 the z-score rounds to 0.0, which EvaluationMode used to
        # report as a bad sigma multiplier, a field no configuration has
        assert sigma_multiplier_from_epsilon(0.95) == 0.1
        with pytest.raises(DomainError, match="failure probability 0.97 "):
            sigma_multiplier_from_epsilon(0.97)

    def test_interval_worked_example(self):
        low, high = widened_cell(1e-4, 1e10, 5.3)
        assert high == pytest.approx(1e-4 + 5.3e-7, rel=1e-12)
        assert low == pytest.approx(1e-4 - 5.3e-7, rel=1e-12)

    def test_lower_bound_clamps_at_zero(self):
        low, high = widened_cell(1e-12, 1e6, 5.3)
        assert low == 0.0
        assert high > 1e-12

    def test_zero_count_cell_stays_pinned(self):
        low, high = widened_cell(0.0, 1e9, 5.3)
        assert (low, high) == (0.0, 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            widened_cell(-1e-3, 1e9, 5.3)
        with pytest.raises(DomainError):
            widened_cell(1e-3, 0.0, 5.3)
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
        # an infinite count would leave every gain unwidened: an exact LP labelled finite
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="pulse counts must be positive"):
                DecoyObservations(DECOYS, DECOYS, tuple((0.0,) * 3 for _ in range(3)),
                                  pulse_counts=tuple((bad, 1e9, 1e9) for _ in range(3)))

    def test_observations_from_scenario_reject_nan_pulses(self):
        with pytest.raises(DomainError):
            observations_from_scenario(NOMINAL, DECOYS, DECOYS, n_pulses=math.nan, **self.PROBABILITIES)

    @pytest.mark.parametrize("args", [(math.nan, 1e9, 5.3), (1e-3, math.nan, 5.3), (1e-3, 1e9, math.nan)])
    def test_widening_rejects_nan(self, args):
        # a NaN gain or count is rejected by DecoyObservations, a NaN sigma by build_problem
        with pytest.raises(DomainError):
            widened_cell(*args)

    def test_build_rejects_nan_sigma(self):
        obs = observations_from_scenario(NOMINAL, DECOYS, DECOYS, n_pulses=1e12, **self.PROBABILITIES)
        with pytest.raises(DomainError, match="sigma multiplier must be positive"):
            build_problem(obs, sigma_multiplier=math.nan)

    def test_solve_raises_on_a_non_finite_maximum(self, monkeypatch):
        monkeypatch.setattr(simplex, "column_values", lambda stack, columns: np.full(len(columns), math.nan))
        with pytest.raises(DomainError, match="not finite"):
            solve_yield_bounds(nominal_problem())

    @pytest.mark.parametrize("pair", range(9))
    def test_a_warm_solve_rejects_a_nan_box(self, pair):
        # a NaN lower gain leaves b finite and makes the slack box NaN; the matrix is unchanged
        warm = WarmBases()
        problem, _ = yield_lp(FINITE_OPT_SCENARIO, DECOYS, DECOYS, FINITE_OPT_MODE,
                              _decoy_probabilities(0.8, 0.1, 0.05), _decoy_probabilities(0.8, 0.1, 0.05), warm=warm)
        gain_lower = problem.gain_lower.copy()
        gain_lower[pair] = math.nan
        with pytest.raises(DomainError):
            solve_yield_bounds(dataclasses.replace(problem, gain_lower=gain_lower), warm)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", [0, 99], ids=["Y00", "Y99"])
    def test_a_warm_solve_rejects_a_non_finite_matrix(self, column, bad):
        # a non-finite coefficient changes the matrix: no basis carries over, and phase 1 raises
        warm = WarmBases()
        probabilities = _decoy_probabilities(0.8, 0.1, 0.05)
        problem, _ = yield_lp(FINITE_OPT_SCENARIO, DECOYS, DECOYS, FINITE_OPT_MODE, probabilities, probabilities,
                              warm=warm)
        coefficients = problem.coefficients.copy()
        coefficients[4, column] = bad
        broken = dataclasses.replace(problem, coefficients=coefficients)
        a, b, ub = _equality_form(coefficients, *broken.constraint_bounds())
        assert not simplex.rebase(warm.stack, _objectives(a.shape[-1]), a, b, ub, new_matrix=True)[1].any()
        with pytest.raises(DomainError):
            solve_yield_bounds(broken, warm)

    def test_solve_rejects_nan_problem_data(self):
        problem = nominal_problem()
        gain_upper = problem.gain_upper.copy()
        gain_upper[4] = math.nan
        with pytest.raises(DomainError):
            solve_yield_bounds(dataclasses.replace(problem, gain_upper=gain_upper))


class TestSolveInStacks:
    """Errors of yield_bounds surface as one yield_lp per setting, in order, raises them."""

    @staticmethod
    def settings(count=6):
        # strong decoys that no other intensity of the stack shares, so that a failure can be keyed on them
        return [((0.2 + 0.01 * i, 0.01, 0.0), DECOYS) for i in range(count)]

    @staticmethod
    def break_settings(monkeypatch, settings, broken):
        """Make settings[index] fail as broken[index] says, for a stacked build and a build alone alike.

        ("contradictory", row): the gain of that row is 1.0, which no mixture
        of yields matches next to the vacuum pair's gain of 0, so phase 1
        fails; ("crossed", None): the Poisson row of the strong decoy is
        inflated by 1e-3, so its tail mass is negative and the upper bounds
        of its pairs lie below their lower bounds; ("overflow", None): the
        strong decoy is so large that its Z-basis gain overflows;
        ("unsorted", None): the strong decoy lies below the weak one, which
        DecoyObservations rejects.
        """
        gains_of, rows_of = decoy.z_basis_gains, decoy.poisson_pmf_rows
        contradicted = {settings[i][0][0]: row for i, (kind, row) in broken.items() if kind == "contradictory"}
        inflated = [settings[i][0][0] for i, (kind, _) in broken.items() if kind == "crossed"]

        def gains(scenario, gamma_a, gamma_b):
            values = gains_of(scenario, gamma_a, gamma_b)
            flat = values.reshape(-1, 9)
            strong = np.broadcast_to(gamma_a, values.shape).reshape(-1, 9)[:, 0]  # eta is 1: gamma is the intensity
            for value, row in contradicted.items():
                flat[strong == value, row] = 1.0
            return values

        def rows(intensities, count):
            values = rows_of(intensities, count)
            values[np.isin(intensities, inflated)] *= 1.001
            return values

        monkeypatch.setattr(decoy, "z_basis_gains", gains)
        monkeypatch.setattr(decoy, "poisson_pmf_rows", rows)
        for index, (kind, _) in broken.items():
            if kind in ("overflow", "unsorted"):
                settings[index] = ((3000.0 if kind == "overflow" else 0.005, 0.01, 0.0), DECOYS)

    @staticmethod
    def first_error(settings):
        """Index and (type, text, constraint) of the first error of one yield_lp per setting."""
        for index, setting in enumerate(settings):
            try:
                yield_lp(NOMINAL, *setting)
            except (DomainError, InfeasibleProblemError) as error:
                return index, (type(error), str(error), getattr(error, "constraint", None))
        raise AssertionError("no setting fails")

    @staticmethod
    def solved(monkeypatch):
        """The bound matrices that solve_yield_bounds returns from now on."""
        solve, matrices = decoy.solve_yield_bounds, []

        def recording(problem, warm=None):
            matrices.append(solve(problem, warm))
            return matrices[-1]

        monkeypatch.setattr(decoy, "solve_yield_bounds", recording)
        return matrices

    @pytest.mark.parametrize("broken", [
        {3: ("contradictory", 4), 5: ("contradictory", 1)},
        {1: ("contradictory", 7), 4: ("crossed", None)},
        {1: ("crossed", None), 4: ("contradictory", 3)},
        {2: ("contradictory", 2), 3: ("crossed", None), 5: ("contradictory", 0)},
        {3: ("overflow", None)},
        {2: ("overflow", None), 4: ("crossed", None)},
        {4: ("crossed", None)},
        {1: ("contradictory", 8), 2: ("overflow", None)},
        {2: ("unsorted", None)},
        {3: ("unsorted", None), 4: ("overflow", None)},
    ])
    def test_the_first_failing_problem_raises(self, monkeypatch, broken):
        # the stack of six fails as a whole and runs setting by setting: the settings before the
        # first failing one are solved, and its own error, as yield_lp raises it, is raised
        settings = self.settings()
        self.break_settings(monkeypatch, settings, broken)
        first, expected = self.first_error(settings)
        matrices = self.solved(monkeypatch)
        with pytest.raises((DomainError, InfeasibleProblemError)) as excinfo:
            yield_bounds(NOMINAL, settings)
        error = excinfo.value
        assert (type(error), str(error), getattr(error, "constraint", None)) == expected
        assert [m.tobytes() for m in matrices] == [yield_lp(NOMINAL, *s)[1].tobytes() for s in settings[:first]]

    def test_a_problem_that_cannot_be_drawn_raises_after_the_ones_before_it(self, monkeypatch):
        def drawn(settings):
            yield from settings
            raise DomainError("the next setting cannot be drawn")

        with pytest.raises(DomainError, match="cannot be drawn"):
            yield_bounds(NOMINAL, drawn(self.settings(3)))
        settings = self.settings(3)
        self.break_settings(monkeypatch, settings, {1: ("contradictory", 5)})
        _, expected = self.first_error(settings)
        with pytest.raises(InfeasibleProblemError) as excinfo:
            yield_bounds(NOMINAL, drawn(settings))
        assert (type(excinfo.value), str(excinfo.value), excinfo.value.constraint) == expected

    @pytest.mark.parametrize("count, stacks", [(STACK_SIZE + 5, [STACK_SIZE, 5]),
                                               (2 * STACK_SIZE + 1, [STACK_SIZE, STACK_SIZE])],
                             ids=["a_stack_and_five", "two_stacks_and_one"])  # ids that do not move with STACK_SIZE
    def test_stacked_bounds_match_one_solve_per_problem(self, monkeypatch, count, stacks):
        settings = self.settings(count)
        sizes = []
        stacked = simplex.maximize_stack

        def counting(a, *args):
            sizes.append(len(a))
            return stacked(a, *args)

        monkeypatch.setattr(simplex, "maximize_stack", counting)
        bounds = yield_bounds(NOMINAL, settings)
        assert sizes == stacks  # a last stack of one setting takes the scalar loop
        assert [matrix.tobytes() for matrix in bounds] == [yield_lp(NOMINAL, *s)[1].tobytes() for s in settings]

    def test_the_stack_path_holds_at_most_35_kb_per_lp(self):
        # the traced peak of yield_bounds over two full stacks of scan settings and one alone, per stacked LP:
        # 31.9 kB (the equality-form matrix and two tableaux); 44.9 kB while the stacked problem lived on
        # through the solve and phase 1 started from two temporary copies of the matrix
        grid = [10.0 ** (-3.0 + 3.0 * i / (2 * STACK_SIZE)) for i in range(2 * STACK_SIZE + 1)]
        settings = [((max(v, 0.01), min(v, 0.01), 0.0), DECOYS) for v in grid]
        yield_bounds(NOMINAL, settings)  # fills the caches that a first call fills
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield_bounds(NOMINAL, settings)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / STACK_SIZE <= 35_000


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
        pa, pb = poisson_pmf_rows([0.1, 0.01], PHOTON_CUTOFF)
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
        # infinity times a zero gain's standard error would be a NaN width
        with pytest.raises(DomainError, match="positive and finite"):
            build_problem(obs_counts, sigma_multiplier=math.inf)

    def test_degenerate_decoys_attach_a_warning(self):
        obs = observations_from_scenario(NOMINAL, (0.01, 0.01, 0.0), DECOYS)
        problem = build_problem(obs)
        assert any("degenerate" in w for w in problem.warnings)
        assert nominal_problem().warnings == ()

    def test_audit_dump_lists_every_pair(self):
        text = nominal_problem().to_text()
        assert text.count("pair (") == 9
        assert "100 variables" in text


#: One side's (mu, nu, omega), non-increasing; drawing from a few shared values makes mu == nu and nu == omega common.
decoy_triples = st.lists(st.floats(0.0, 2.0) | st.sampled_from([0.0, 0.01, 0.1]), min_size=3, max_size=3).map(
    lambda values: tuple(sorted(values, reverse=True)))
#: Gains in [0, 1], with zero gains and a gain of 1.0 drawn often.
gain_grids = st.lists(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=3, max_size=3),
                      min_size=3, max_size=3).map(lambda rows: tuple(map(tuple, rows)))
count_grids = st.lists(st.lists(st.floats(1.0, 1e13), min_size=3, max_size=3), min_size=3, max_size=3).map(
    lambda rows: tuple(map(tuple, rows)))


class TestBuildProblemMatchesReference:
    """The whole-array build_problem returns the bytes of the pair-by-pair assembly it replaced."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(intensities_a=decoy_triples, intensities_b=decoy_triples, gains=gain_grids,
           finite=st.none() | st.tuples(count_grids, st.floats(0.5, 8.0)))
    def test_same_bytes_as_the_reference(self, intensities_a, intensities_b, gains, finite):
        counts, sigma_multiplier = finite if finite else (None, None)
        obs = DecoyObservations(intensities_a, intensities_b, gains, counts)
        problem = build_problem(obs, sigma_multiplier)
        reference = build_problem_reference(obs, sigma_multiplier)
        for name in ("coefficients", "gain_lower", "gain_upper", "slack_mass"):
            mine, theirs = getattr(problem, name), getattr(reference, name)
            assert (mine.shape, mine.dtype, mine.tobytes()) == (theirs.shape, theirs.dtype, theirs.tobytes()), name
        assert problem.pair_labels == reference.pair_labels
        assert problem.warnings == reference.warnings
        assert problem.to_text() == reference.to_text()



#: A QBER-scan side: (v, nu, 0) with the roles of v and nu swapped when v < nu, as the scan draws them.
scan_triples = st.tuples(st.floats(1e-3, 1.0) | st.just(0.01), st.just(0.01) | st.floats(1e-3, 0.1)).map(
    lambda pair: (max(pair), min(pair), 0.0))
#: Selection probabilities of (mu, nu, omega), each in (0, 1).
probability_triples = st.tuples(*[st.floats(0.01, 0.99)] * 3)


class TestBuildStack:
    """A stacked build holds, setting by setting, the bytes of the one-pair-at-a-time assembly."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(etas=st.tuples(*[st.just(1.0) | st.floats(-4.0, 0.0).map(lambda e: 10.0**e)] * 2),
           p_d=st.just(0.0) | st.floats(0.0, 1e-3), e_d=st.floats(0.0, 0.5), phi=st.floats(-math.pi, math.pi),
           settings=st.lists(st.tuples(decoy_triples | scan_triples, decoy_triples,
                                       probability_triples, probability_triples), min_size=1, max_size=6),
           finite=st.tuples(st.floats(1e6, 1e13), st.floats(0.5, 8.0)))
    def test_each_setting_is_the_reference_build(self, etas, p_d, e_d, phi, settings, finite):
        # build_stack (asymptotic) and its core with stacked pulse counts (finite widening) against the
        # reference assembly of each setting's gains, and the batch of one, build_problem, against both
        scenario = ChannelScenario(*etas, p_d=p_d, e_d=e_d, phi=phi)
        intensities_a, intensities_b, probabilities_a, probabilities_b = zip(*settings)
        stack = build_stack(scenario, intensities_a, intensities_b)
        assert (stack.pair_labels, stack.warnings) == ((), ())
        gains = [tuple(tuple(z_basis_gain_reference(scenario, ArrivingIntensities.from_sources(scenario, a, b))
                             for b in decoys_b) for a in decoys_a) for decoys_a, decoys_b, _, _ in settings]
        counts = [tuple(tuple(finite[0] * x * y for y in pb) for x in pa) for _, _, pa, pb in settings]
        widened = decoy._problem(np.array(intensities_a), np.array(intensities_b), np.array(gains),
                                 np.array(counts), finite[1], pair_labels=())
        for k, (decoys_a, decoys_b, pa, pb) in enumerate(settings):
            for mode, batched, count in ((EvaluationMode(), stack, None),
                                         (EvaluationMode.finite(*finite), widened, counts[k])):
                reference = build_problem_reference(DecoyObservations(decoys_a, decoys_b, gains[k], count),
                                                    mode.sigma_multiplier)
                alone = build_problem(observations_from_scenario(scenario, decoys_a, decoys_b, mode.n_pulses,
                                                                 pa, pb), mode.sigma_multiplier)
                for name in ("coefficients", "gain_lower", "gain_upper", "slack_mass"):
                    theirs = getattr(reference, name)
                    for mine in (getattr(batched, name)[k], getattr(alone, name)):
                        assert (mine.shape, mine.tobytes()) == (theirs.shape, theirs.tobytes()), name
                assert (alone.pair_labels, alone.warnings) == (reference.pair_labels, reference.warnings)


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
        grid = yield_grid(NOMINAL)[:PHOTON_CUTOFF, :PHOTON_CUTOFF]
        problem = nominal_problem()
        assert lp_contains(problem, grid)  # cutoff slack keeps the truth feasible
        bounds = solve_yield_bounds(problem)
        for n, m in TARGET_PAIRS:
            assert bounds[n, m] >= grid[n, m] - 1e-12

    def test_tightness_at_nominal_point(self):
        bounds = solve_yield_bounds(nominal_problem())
        true_11 = yield_grid(NOMINAL)[1, 1]
        assert bounds[(1, 1)] <= 1.10 * true_11

    def test_sound_for_randomized_synthetic_yields(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            yields = rng.uniform(0.0, 1.0, size=(10, 10))
            mu_a = sorted(rng.uniform(0.005, 0.6, size=2), reverse=True) + [0.0]
            mu_b = sorted(rng.uniform(0.005, 0.6, size=2), reverse=True) + [0.0]
            pa = poisson_pmf_rows(mu_a, PHOTON_CUTOFF)
            pb = poisson_pmf_rows(mu_b, PHOTON_CUTOFF)
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
        pa = {0: poisson_pmf_rows([0.01], PHOTON_CUTOFF)[0], 2: poisson_pmf_rows([0.0], PHOTON_CUTOFF)[0]}
        pb = poisson_pmf_rows(DECOYS, PHOTON_CUTOFF)
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


unit = st.floats(1e-4, 1.0)
#: Strong and weak decoy of one side, strictly ordered, then the vacuum decoy.
decoy_sets = st.tuples(unit, unit).filter(lambda pair: pair[0] != pair[1]).map(
    lambda pair: (max(pair), min(pair), 0.0))
#: Selection probabilities of the three decoys of one side, leaving a share for the signal.
selections = st.tuples(*[st.floats(0.01, 1.0)] * 4).map(lambda shares: tuple(v / sum(shares) for v in shares[1:]))


class TestYieldLp:
    """The one routine from a scenario to the LP and its bound matrix."""

    PROBABILITIES = dict(probabilities_a=(0.1, 0.05, 0.05), probabilities_b=(0.1, 0.05, 0.05))

    def test_is_the_chain_it_replaces_with_read_only_arrays(self):
        problem, bounds = yield_lp(NOMINAL, DECOYS, DECOYS, EvaluationMode.finite(1e12, 5.3), **self.PROBABILITIES)
        obs = observations_from_scenario(NOMINAL, DECOYS, DECOYS, n_pulses=1e12, **self.PROBABILITIES)
        expected = build_problem(obs, sigma_multiplier=5.3)
        assert problem.to_text() == expected.to_text()
        assert bounds.tobytes() == solve_yield_bounds(expected).tobytes()
        for array in (problem.coefficients, problem.gain_lower, problem.gain_upper, problem.slack_mass, bounds):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_a_pulse_count_without_a_sigma_multiplier_is_rejected(self):
        # the exact LP's bounds would come back as if they were finite-size ones;
        # yield_lp takes an EvaluationMode, which cannot hold that state
        with pytest.raises(DomainError, match="sigma multiplier"):
            EvaluationMode(n_pulses=1e12)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(eta_a=unit, eta_b=unit, e_d=st.floats(0.0, 0.2), decoys_a=decoy_sets, decoys_b=decoy_sets)
    def test_bounds_are_sound_for_the_true_yields(self, eta_a, eta_b, e_d, decoys_a, decoys_b):
        scenario = ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=0.0, e_d=e_d)
        _, bounds = yield_lp(scenario, decoys_a, decoys_b)
        truth = yield_grid(scenario)
        for n, m in TARGET_PAIRS:
            assert bounds[n, m] >= truth[n, m]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n_pulses=st.floats(1e8, 1e13), probabilities_a=selections, probabilities_b=selections)
    def test_a_wider_confidence_interval_never_lowers_a_bound(self, n_pulses, probabilities_a, probabilities_b):
        scenario = ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=1e-8, e_d=0.02)
        narrow, wide = (
            yield_lp(scenario, DECOYS, DECOYS, EvaluationMode.finite(n_pulses, sigma),
                     probabilities_a, probabilities_b)[1]
            for sigma in (1.0, 5.3)
        )
        assert np.all(narrow <= wide)


#: The finite sweep of the benchmark's finite_opt workload: 40 dB, mismatch 0.1, 1e12 pulses, epsilon 1e-7.
FINITE_OPT = SweepConfig(total_loss_db_grid=(40.0,), mismatch_ratio=0.1, mode="finite", n_pulses=1e12, epsilon=1e-7)
FINITE_OPT_SCENARIO = FINITE_OPT.scenario_for(40.0)
FINITE_OPT_MODE = FINITE_OPT.evaluation_mode()

#: Re-solved bounds agree with the cold ones to the rounding of bases whose
#: condition number reaches about 1e8: 3.3e-11 at most over 4,500 seeded
#: random walks that move decoys and shares as search_walks does.  Over the
#: LPs of the 96 tools/search_cost.py descents the gap reaches 6.1e-11, where
#: the cold solve stops below a feasible basis that the warm path reaches
#: (test_the_cold_bound_covers_a_carried_basis_above_the_cold_maximum).  A
#: basis accepted within the phase-1 FEASIBILITY_TOLERANCE misses by 1.5e-5
#: (test_a_basic_value_just_below_zero_is_not_accepted), and a dual run read
#: from a spoiled inverse by 5.9e-2
#: (test_optimizer.py, test_a_dual_run_that_spoils_its_inverse_is_given_up).
WARM_AGREEMENT = 5e-11


def _decoy_probabilities(p_s, p_mu, p_nu):
    """The LP's (mu, nu, omega) selection probabilities of one side."""
    return p_mu, p_nu, 1.0 - p_s - p_mu - p_nu


@st.composite
def probability_walks(draw):
    """(p_s, p_mu, p_nu) of both sides, then steps that each move one share of one side or of both, as a line search does.

    A step multiplies the share by exp(+-10**u), u in [-6, 0], and is cut
    back to keep every share at least 1e-3 and the vacuum share at least
    1e-3, the finite search's floors.
    """
    sides = [[share * 0.99 + 1e-3 for share in draw(selections)] for _ in range(2)]
    walk = [tuple(map(tuple, sides))]
    for side, slot, sign, u in draw(st.lists(st.tuples(st.sampled_from(("a", "b", "both")), st.integers(0, 2),
                                                         st.sampled_from((-1.0, 1.0)), st.floats(-6.0, 0.0)),
                                             min_size=1, max_size=6)):
        for k in ((0, 1) if side == "both" else ((0,) if side == "a" else (1,))):
            others = sum(sides[k]) - sides[k][slot]
            sides[k][slot] = min(max(1e-3, sides[k][slot] * math.exp(sign * 10.0 ** u)), 1.0 - 1e-3 - others)
        walk.append(tuple(map(tuple, sides)))
    return walk


@st.composite
def search_walks(draw):
    """Decoys and (p_s, p_mu, p_nu) of both sides, then steps that each move one decoy or one share, as search does.

    A step moves mu or nu of side a, side b or both, or a share as
    probability_walks does.  It multiplies the value by exp(+-10**u), u in
    [-6, 0], cut back into the finite search's boxes: decoys in
    [1e-4, 1] with mu at least 1e-6 above nu.
    """
    decoys = [list(draw(decoy_sets)) for _ in range(2)]
    sides = [[share * 0.99 + 1e-3 for share in draw(selections)] for _ in range(2)]
    walk = [(*map(tuple, decoys), *map(tuple, sides))]
    for kind, side, slot, sign, u in draw(st.lists(
            st.tuples(st.sampled_from(("decoy", "share")), st.sampled_from(("a", "b", "both")), st.integers(0, 2),
                      st.sampled_from((-1.0, 1.0)), st.floats(-6.0, 0.0)), min_size=1, max_size=6)):
        for k in ((0, 1) if side == "both" else ((0,) if side == "a" else (1,))):
            factor = math.exp(sign * 10.0 ** u)
            if kind == "share":
                others = sum(sides[k]) - sides[k][slot]
                sides[k][slot] = min(max(1e-3, sides[k][slot] * factor), 1.0 - 1e-3 - others)
            elif slot == 0:
                decoys[k][0] = min(max(decoys[k][1] + 1e-6, decoys[k][0] * factor), 1.0)
            else:
                decoys[k][1] = min(max(1e-4, decoys[k][1] * factor), decoys[k][0] - 1e-6)
        walk.append((*map(tuple, decoys), *map(tuple, sides)))
    return walk


def _scores(state, objective):
    """The signed reduced costs of a state for an objective: a column above COST_TOLERANCE prices in."""
    cost = np.zeros(state.upper.size)
    cost[:state.n_structural] = objective
    return (cost - cost[state.basis] @ state.tableau) * simplex._signs(state.status, state.upper)


class TestWarmBases:
    """Each target re-solved from its last optimal basis, against the cold solve."""

    @staticmethod
    def _args(decoys, probabilities):
        """yield_lp's arguments at the finite_opt point, both sides alike."""
        return FINITE_OPT_SCENARIO, decoys, decoys, FINITE_OPT_MODE, probabilities, probabilities

    def _after_step(self, first, second):
        """The WarmBases after solving first and then second, and second's warm and cold bound matrices."""
        warm = WarmBases()
        yield_lp(*first, warm=warm)
        return warm, yield_lp(*second, warm=warm)[1], yield_lp(*second)[1]

    @staticmethod
    def _counts(warm):
        """LP solves, targets from their own basis, dual runs, dual pivots, borrowed starts, phase-1 runs."""
        return warm.lp_solves, warm.repriced, warm.dual_runs, warm.dual_pivots, warm.borrowed, warm.phase1_runs

    def test_a_step_that_keeps_every_basis_strictly_feasible_skips_phase_one(self):
        # (p_s, p_mu, p_nu) from (0.8, 0.1, 0.05) to (0.7, 0.2, 0.05)
        warm, warm_bounds, cold = self._after_step(self._args(DECOYS, _decoy_probabilities(0.8, 0.1, 0.05)),
                                                   self._args(DECOYS, _decoy_probabilities(0.7, 0.2, 0.05)))
        assert self._counts(warm) == (2, 5, 0, 0, 0, 1)
        assert np.abs(warm_bounds - cold).max() <= WARM_AGREEMENT

    # p_s from 0.8 to 0.7 at p_mu 0.1, p_nu 0.05: every stored basis leaves a box
    LEAVING_STEP = (_decoy_probabilities(0.8, 0.1, 0.05), _decoy_probabilities(0.7, 0.1, 0.05))

    def test_bases_that_leave_their_boxes_go_through_the_dual_loop(self):
        first, second = self.LEAVING_STEP
        warm, warm_bounds, cold = self._after_step(self._args(DECOYS, first), self._args(DECOYS, second))
        assert self._counts(warm) == (2, 5, 5, 7, 0, 1)
        assert np.abs(warm_bounds - cold).max() <= WARM_AGREEMENT

    def test_dual_runs_stopped_by_the_iteration_cap_take_the_cold_path(self, monkeypatch):
        monkeypatch.setattr(simplex, "_DUAL_ITERATIONS", 0)
        first, second = self.LEAVING_STEP
        warm, warm_bounds, cold = self._after_step(self._args(DECOYS, first), self._args(DECOYS, second))
        assert self._counts(warm) == (2, 0, 5, 0, 0, 2)
        assert warm_bounds.tobytes() == cold.tobytes()

    def test_a_start_that_is_not_dual_feasible_borrows_another_basis(self, monkeypatch):
        # nu from 0.1 to 0.12 at mu 0.48: every basis is rebuilt, and rebase proves four optimal as they
        # stand; the fifth leaves a box and prices a column above COST_TOLERANCE, so its reoptimize run
        # ends at once and the target starts from another target's basis
        probabilities = (0.15, 0.05, 0.008)
        runs = []
        reoptimize = simplex.reoptimize

        def recording(state, objective, *data):
            runs.append((state.copy(), objective, reoptimize(state, objective, *data)))
            return runs[-1][2]

        monkeypatch.setattr(simplex, "reoptimize", recording)
        warm, warm_bounds, cold = self._after_step(self._args((0.48, 0.1, 0.0), probabilities),
                                                   self._args((0.48, 0.12, 0.0), probabilities))
        (start, objective, outcome), = runs
        assert outcome == (0, False)
        assert not ((start.x_basic >= 0.0) & (start.x_basic <= start.upper[start.basis])).all()
        assert _scores(start, objective).max() > simplex.COST_TOLERANCE
        assert self._counts(warm) == (2, 4, 1, 0, 1, 1)
        assert np.abs(warm_bounds - cold).max() <= WARM_AGREEMENT

    # mu from 0.1 to 0.2 changes the matrix: every basis is rebuilt on it
    DECOY_STEP = ((DECOYS, _decoy_probabilities(0.8, 0.1, 0.05)),
                  ((0.2, 0.01, 0.0), _decoy_probabilities(0.8, 0.1, 0.05)))

    def test_a_decoy_step_carries_the_bases_to_the_new_matrix(self):
        # one rebuilt basis lies in its boxes and prices nothing in, so rebase proves it optimal; the
        # other four go through reoptimize: two come back through dual pivots, and two give up, so their
        # targets borrow a basis
        warm, warm_bounds, cold = self._after_step(*(self._args(*step) for step in self.DECOY_STEP))
        assert self._counts(warm) == (2, 3, 4, 13, 2, 1)
        assert np.abs(warm_bounds - cold).max() <= WARM_AGREEMENT

    def test_a_rebuilt_basis_proven_optimal_is_read_as_it_stands(self, monkeypatch):
        # the decoy step above: the per-state rule sent target (2, 0) through a reoptimize run that
        # took no pivot; rebase now proves it optimal, no reoptimize run sees it, and its bound has
        # the bits of that run's
        first, second = (self._args(*step) for step in self.DECOY_STEP)
        warm = WarmBases()
        yield_lp(*first, warm=warm)
        problem = yield_lp(*second)[0]
        a, b, ub = _equality_form(problem.coefficients, *problem.constraint_bounds())
        objectives = _objectives(a.shape[-1])
        verdicts = [rebase_reference(warm.stack[lp], objectives[lp], a, b, ub, new_matrix=True)
                    for lp in range(len(TARGET_PAIRS))]
        assert [verdict for _, verdict in verdicts] == ["reoptimize", "optimal"] + ["reoptimize"] * 3
        state, _ = verdicts[1]
        assert simplex.reoptimize(state.copy(), objectives[1], a, b) == (0, True)  # the run the per-state rule took
        expected = min(1.0, simplex.optimum(state, objectives[1])[1] + decoy.SAFETY_MARGIN)
        targets = []
        reoptimize = simplex.reoptimize

        def recording(state, objective, *data):
            targets.append(TARGET_PAIRS[int(np.flatnonzero((objectives == objective).all(axis=1))[0])])
            return reoptimize(state, objective, *data)

        monkeypatch.setattr(simplex, "reoptimize", recording)
        bounds = yield_lp(*second, warm=warm)[1]
        assert targets == [(0, 0), (0, 2), (1, 1), (2, 2)]
        assert bounds[2, 0].hex() == expected.hex() == "0x1.099d854dc37b5p-8"  # the per-state rule's bits

    def test_a_dual_run_that_fails_part_way_is_never_read(self, monkeypatch):
        # the decoy step above: two of its four reoptimize runs lose dual feasibility after some pivots;
        # their targets start from another target's basis, and no state of theirs is read or kept
        failed = []
        reoptimize, column_values = simplex.reoptimize, simplex.column_values
        maximize_prepared = simplex.maximize_prepared

        def recording(state, objective, *data):
            pivots, optimal = reoptimize(state, objective, *data)
            if not optimal:
                failed.append((state.copy(), pivots))
            return pivots, optimal

        def partial(state):
            return any(state.tableau.tobytes() == gone.tableau.tobytes() for gone, _ in failed)

        def read(stack, columns):
            assert not any(partial(stack[lp]) for lp in range(len(columns)))
            return column_values(stack, columns)

        def phase_two(state, objective):
            assert not partial(state)
            return maximize_prepared(state, objective)

        monkeypatch.setattr(simplex, "reoptimize", recording)
        monkeypatch.setattr(simplex, "column_values", read)
        monkeypatch.setattr(simplex, "maximize_prepared", phase_two)
        warm, warm_bounds, cold = self._after_step(*(self._args(*step) for step in self.DECOY_STEP))
        assert [pivots for _, pivots in failed] == [6, 3]
        assert not any(partial(warm.stack[lp]) for lp in range(len(TARGET_PAIRS)))
        assert np.abs(warm_bounds - cold).max() <= WARM_AGREEMENT

    @pytest.mark.parametrize("decoys", [(0.1, 0.1, 0.0), (0.1, 0.01, 0.01)], ids=["mu==nu", "nu==omega"])
    def test_a_singular_basis_block_takes_the_cold_path(self, decoys):
        # equal decoys duplicate gain rows, and every stored basis block is singular on the new matrix
        probabilities = _decoy_probabilities(0.8, 0.1, 0.05)
        warm = WarmBases()
        yield_lp(*self._args(DECOYS, probabilities), warm=warm)
        problem, cold = yield_lp(*self._args(decoys, probabilities))
        a, b, ub = _equality_form(problem.coefficients, *problem.constraint_bounds())
        for lp in range(len(TARGET_PAIRS)):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(np.concatenate((a, np.eye(len(b))), axis=1)[:, warm.stack.basis[lp]])
        assert not simplex.rebase(warm.stack, _objectives(a.shape[-1]), a, b, ub, new_matrix=True)[1].any()
        assert yield_lp(*self._args(decoys, probabilities), warm=warm)[1].tobytes() == cold.tobytes()
        assert self._counts(warm) == (2, 0, 0, 0, 0, 2)

    def test_one_singular_basis_block_loses_only_its_target(self):
        # Y22 is basic only in target (2, 2)'s basis; with its coefficients zeroed that basis block is
        # singular (one LAPACK call over the stack raises, and the blocks are then inverted one by one),
        # while the four other bases carry over, optimal as they stand; (2, 2) starts from one of them
        warm = WarmBases()
        problem = yield_lp(*self._args((0.2, 0.01, 0.0), _decoy_probabilities(0.8, 0.1, 0.05)), warm=warm)[0]
        column = 2 * PHOTON_CUTOFF + 2
        assert (warm.stack.basis == column).any(axis=1).tolist() == [False] * 4 + [True]
        coefficients = problem.coefficients.copy()
        coefficients[:, column] = 0.0
        broken = dataclasses.replace(problem, coefficients=coefficients)
        a, b, ub = _equality_form(coefficients, *broken.constraint_bounds())
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.concatenate((a, np.eye(len(b))), axis=1)[:, warm.stack.basis[4]])
        _, carried, optimal = simplex.rebase(warm.stack, _objectives(a.shape[-1]), a, b, ub, new_matrix=True)
        assert carried.tolist() == optimal.tolist() == [True] * 4 + [False]
        warm_bounds = solve_yield_bounds(broken, warm)
        assert self._counts(warm) == (2, 4, 0, 0, 1, 1)
        assert np.abs(warm_bounds - solve_yield_bounds(broken)).max() <= WARM_AGREEMENT

    def test_a_basic_value_just_below_zero_is_not_accepted(self):
        # A step of the finite_opt search (symmetric, multistart seed 1).  It
        # leaves a basic value of target (2, 2) at -3.4e-10, inside the phase-1
        # FEASIBILITY_TOLERANCE; re-pricing from there raises that bound by
        # 1.5e-5.  The dual loop takes it back into its box instead.
        decoys = (0.6231574457862891, 0.0003772579937783819, 0.0)
        warm, warm_bounds, cold = self._after_step(
            self._args(decoys, (0.042327797960310026, 0.6457671253164456, 0.26569053538008236)),
            self._args(decoys, (0.042327797960310026, 0.6457671253164456, 0.2829609533874329)))
        assert np.abs(warm_bounds - cold).max() <= WARM_AGREEMENT
        assert self._counts(warm) == (2, 5, 2, 3, 0, 1)

    def test_a_probability_step_reuses_the_last_decoy_data(self, monkeypatch):
        # the gains and every array that the decoys set come from the scenario, the mode and the decoys
        # alone: a probability step simulates no gain and shares the last LP's arrays, and rebase keeps
        # its tableaux; a decoy step, another scenario and another mode each build their LP again, and
        # rebase rebuilds the tableaux.  Every problem has the bytes of a cold yield_lp.
        gains, new_matrix = [0], []
        z_basis_gains, rebase = decoy.z_basis_gains, simplex.rebase

        def counting(scenario, gamma_a, gamma_b):
            gains[0] += np.broadcast(gamma_a, gamma_b).size
            return z_basis_gains(scenario, gamma_a, gamma_b)

        def recording(*args, **kwargs):
            new_matrix.append(kwargs["new_matrix"])
            return rebase(*args, **kwargs)

        monkeypatch.setattr(decoy, "z_basis_gains", counting)
        monkeypatch.setattr(simplex, "rebase", recording)
        probabilities = _decoy_probabilities(0.7, 0.2, 0.05)
        step = self._args(DECOYS, probabilities)
        steps = [(step, 0, False),
                 (self._args((0.2, 0.01, 0.0), probabilities), 9, True),
                 ((dataclasses.replace(FINITE_OPT_SCENARIO, e_d=0.03), *step[1:]), 9, True),
                 ((*step[:3], EvaluationMode.finite(1e11, FINITE_OPT_MODE.sigma_multiplier), *step[4:]), 9, True)]
        for args, simulated, rebuilt in steps:
            warm = WarmBases()
            last = yield_lp(*self._args(DECOYS, _decoy_probabilities(0.8, 0.1, 0.05)), warm=warm)[0]
            gains[0] = 0
            new_matrix.clear()
            problem = yield_lp(*args, warm=warm)[0]
            assert gains[0] == simulated and new_matrix == [rebuilt]
            assert (problem.coefficients is last.coefficients) == (not rebuilt)
            cold = yield_lp(*args)[0]
            for name in ("coefficients", "gain_lower", "gain_upper", "slack_mass"):
                assert getattr(problem, name).tobytes() == getattr(cold, name).tobytes()
            assert (problem.pair_labels, problem.warnings) == (cold.pair_labels, cold.warnings)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(decoys_a=decoy_sets, decoys_b=decoy_sets, walk=probability_walks())
    def test_re_solved_bounds_agree_with_the_cold_solve(self, decoys_a, decoys_b, walk):
        warm = WarmBases()
        for side_a, side_b in walk:
            args = (FINITE_OPT_SCENARIO, decoys_a, decoys_b, FINITE_OPT_MODE,
                    _decoy_probabilities(*side_a), _decoy_probabilities(*side_b))
            warm_bounds = yield_lp(*args, warm=warm)[1]
            assert np.abs(warm_bounds - yield_lp(*args)[1]).max() <= WARM_AGREEMENT
        assert warm.lp_solves == len(walk)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(walk=search_walks())
    def test_bounds_re_solved_across_decoy_steps_agree_with_the_cold_solve(self, walk):
        # rebase gives each target the verdict and the bytes of the per-state rule (rebase_reference),
        # and every state whose value the warm path reads is optimal: it lies in its boxes [0, upper] and
        # prices no column in, and the value read lies in its column's box
        rebase, column_values = simplex.rebase, simplex.column_values
        verdicts, reads = [], [0]

        def batched(stack, objectives, a, b, upper, new_matrix=False):
            work, carried, optimal = rebase(stack, objectives, a, b, upper, new_matrix)
            for lp in range(len(stack.basis)):
                reference = rebase_reference(stack[lp], objectives[lp], a, b, upper, new_matrix)
                verdicts.append(None if reference is None else reference[1])
                assert carried[lp] == (reference is not None)
                if carried[lp]:
                    assert optimal[lp] == (reference[1] == "optimal")
                    assert work[lp].tableau.tobytes() == reference[0].tableau.tobytes()
                    assert work[lp].x_basic.tobytes() == reference[0].x_basic.tobytes()
            return work, carried, optimal

        def read(stack, columns):
            values = column_values(stack, columns)
            for lp, (column, value) in enumerate(zip(columns, values)):
                state = stack[lp]
                assert ((state.x_basic >= 0.0) & (state.x_basic <= state.upper[state.basis])).all()
                assert _scores(state, np.eye(state.n_structural)[column]).max() <= simplex.COST_TOLERANCE
                assert 0.0 <= value <= state.upper[column]
                reads[0] += 1
            return values

        warm = WarmBases()
        with mock.patch.object(simplex, "rebase", batched), mock.patch.object(simplex, "column_values", read):
            for decoys_a, decoys_b, side_a, side_b in walk:
                args = (FINITE_OPT_SCENARIO, decoys_a, decoys_b, FINITE_OPT_MODE,
                        _decoy_probabilities(*side_a), _decoy_probabilities(*side_b))
                warm_bounds = yield_lp(*args, warm=warm)[1]
                assert np.abs(warm_bounds - yield_lp(*args)[1]).max() <= WARM_AGREEMENT
        assert warm.lp_solves == len(walk) and reads[0] == 2 * len(TARGET_PAIRS) * len(walk)
        assert len(verdicts) == len(TARGET_PAIRS) * (len(walk) - 1)

    def test_the_cold_bound_covers_a_carried_basis_above_the_cold_maximum(self):
        # The worst warm-vs-cold gap over 8 descents of the finite search (4
        # strategies at 30 and 40 dB, multistart seed 1; add_fibre at 30 dB
        # meets it first).  The carried basis of target (1, 1) is strictly
        # feasible, and its point, solved in long double, reaches
        # 0.013636988772142; the cold maximum stops 4.97e-11 below, at
        # 0.013636988722471: Dantzig's rule ends phase 2 on reduced costs
        # within COST_TOLERANCE.  Only SAFETY_MARGIN keeps the bound sound.
        scenario = ChannelScenario(eta_a=0.01, eta_b=0.01, p_d=1e-8, e_d=0.02)
        decoys = (0.33472282874611525, 0.09426253505364134, 0.0)
        probabilities = (0.007644594895389741, 0.022085063251136683, 0.025417766774167155)
        problem, bounds = yield_lp(scenario, decoys, decoys, FINITE_OPT_MODE, probabilities, probabilities)
        a, b, ub = _equality_form(problem.coefficients, *problem.constraint_bounds())
        basis = [23, 101, 20, 103, 11, 10, 2, 1, 0]
        at_upper = [15, 16, 17, 18, 19, 24, 25, 26, 27, 28, 33, 34, 35, 36, 37, 38, 42, 43, 44, 45, 46, 47, 51, 52,
                    53, 54, 55, 56, 61, 62, 63, 64, 65, 71, 72, 73, 74, 81, 82, 83, 91, 100, 105, 107]
        x = basic_point_long_double(a, b, ub, basis, at_upper)
        assert ((x[basis] > 0) & (x[basis] < ub[basis])).all()
        assert ((x >= 0) & (x <= ub)).all()
        assert float(np.abs(a.astype(np.longdouble) @ x - b).max()) < 1e-18
        assert bounds[1, 1] >= x[11]
