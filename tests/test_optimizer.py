import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd import optimizer, security
from tfqkd.channel import ChannelScenario
from tfqkd.decoy import LpProblem
from tfqkd.errors import DomainError, InfeasibleProblemError
from tfqkd.optimizer import (
    EvaluationMode,
    ProtocolParameters,
    Strategy,
    add_fibre_transform,
    coordinate_descent,
    draw_start,
    evaluate_key_rate,
    golden_section_max,
    multistart,
    optimize_strategy,
    strategy_coordinates,
)
from tfqkd.security import key_rate

from oracles import coordinate_descent_reference, draw_start_reference, strategy_coordinates_reference

ASYMPTOTIC = EvaluationMode.asymptotic()
FINITE = EvaluationMode.finite(1e12, 5.3)


def objective_for(scenario, mode):
    """The key rate as a function of the parameters, as optimize_strategy searches it."""
    return lambda params: evaluate_key_rate(scenario, params, mode).rate


def finite_params(**overrides):
    values = dict(
        s_a=0.1, s_b=0.1, mu_a=0.1, nu_a=0.01, mu_b=0.1, nu_b=0.01,
        p_s_a=0.5, p_mu_a=0.2, p_nu_a=0.2, p_s_b=0.5, p_mu_b=0.2, p_nu_b=0.2,
    )
    values.update(overrides)
    return ProtocolParameters(**values)


def vector(params):
    """The 12-slot search vector of a parameter set."""
    return [getattr(params, f"{name}_{side}") for side in "ab" for name in ("s", "mu", "nu", "p_s", "p_mu", "p_nu")]


class TestProtocolParameters:
    def test_vacuum_share_is_implicit(self):
        params = finite_params()
        assert params.p_omega_a == pytest.approx(0.1)
        assert params.p_omega_b == pytest.approx(0.1)
        assert params.has_probabilities

    def test_rejects_bad_orderings_and_ranges(self):
        with pytest.raises(DomainError):
            finite_params(nu_a=0.2)  # nu above mu
        with pytest.raises(DomainError):
            finite_params(s_a=-0.1)
        with pytest.raises(DomainError):
            finite_params(p_s_a=0.9, p_mu_a=0.05, p_nu_a=0.05)  # no room for vacuum
        with pytest.raises(DomainError):
            finite_params(p_s_a=None)  # partial probabilities
        # NaN used to pass (nan < 0 is false) and surface only in a later QBER check
        for name in ("s_a", "s_b", "mu_a", "nu_a", "mu_b", "nu_b"):
            for value in (math.nan, -0.1):
                with pytest.raises(DomainError, match=f"intensity {name} must be nonnegative"):
                    finite_params(**{name: value})

    def test_messages_name_the_offending_field(self):
        with pytest.raises(DomainError, match="decoys on side b must be ordered"):
            finite_params(nu_b=0.2)
        with pytest.raises(DomainError, match="decoys on side a must be ordered"):
            finite_params(mu_a=0.005)
        with pytest.raises(DomainError, match=r"probability p_mu_b must lie in \(0, 1\), got nan"):
            finite_params(p_mu_b=math.nan)
        with pytest.raises(DomainError, match="probabilities on side b must leave room"):
            finite_params(p_s_b=0.6, p_mu_b=0.3, p_nu_b=0.2)
        with pytest.raises(DomainError, match="given for all intensities or none"):
            ProtocolParameters(s_a=0.1, s_b=0.1, mu_a=0.1, nu_a=0.01, mu_b=0.1, nu_b=0.01, p_nu_b=0.2)

    def test_degenerate_decoys_are_legal(self):
        params = finite_params(mu_a=0.01, nu_a=0.01)
        assert params.mu_a == params.nu_a


class TestModes:
    def test_finite_mode_needs_pulses(self):
        with pytest.raises(DomainError):
            EvaluationMode.finite(0.0)
        with pytest.raises(DomainError):
            EvaluationMode.finite(1e10, sigma_multiplier=0.0)
        # a sigma multiplier without a pulse count would be a second spelling of asymptotic
        with pytest.raises(DomainError):
            EvaluationMode.finite(None)
        with pytest.raises(DomainError):
            EvaluationMode(sigma_multiplier=5.3)

    def test_finite_mode_rejects_nan(self):
        # NaN widening used to turn every LP bound into 0 and the rate positive
        with pytest.raises(DomainError):
            EvaluationMode.finite(math.nan)
        with pytest.raises(DomainError):
            EvaluationMode.finite(1e12, sigma_multiplier=math.nan)
        # an infinite count skipped the widening; an infinite sigma made the LP data infinite
        with pytest.raises(DomainError):
            EvaluationMode.finite(math.inf)
        with pytest.raises(DomainError):
            EvaluationMode.finite(1e12, sigma_multiplier=math.inf)


class TestAddFibre:
    def test_pads_the_better_channel(self):
        sc = ChannelScenario(eta_a=0.01, eta_b=0.1)
        padded = add_fibre_transform(sc)
        assert padded.eta_a == padded.eta_b == 0.01

    def test_symmetric_scenario_unchanged(self):
        sc = ChannelScenario(eta_a=0.05, eta_b=0.05, p_d=1e-8, e_d=0.02)
        assert add_fibre_transform(sc) == sc

    def test_loss_bookkeeping(self):
        from tfqkd.experiments import split_total_loss

        eta_a, eta_b = split_total_loss(40.0, 0.1)  # 10 dB mismatch at 40 dB total
        padded = add_fibre_transform(ChannelScenario(eta_a=eta_a, eta_b=eta_b))
        total_db = -10.0 * math.log10(padded.eta_a * padded.eta_b)
        assert total_db == pytest.approx(50.0, abs=1e-9)


class TestStrategyCoordinates:
    def test_slot_tuples(self):
        tied = ((0, 6), (1, 7), (2, 8), (3, 9), (4, 10), (5, 11))
        assert strategy_coordinates(Strategy.SYMMETRIC, FINITE) == tied
        assert strategy_coordinates(Strategy.SIGNAL_ONLY, FINITE) == ((0,),) + tied[1:] + ((6,),)
        assert strategy_coordinates(Strategy.FULLY_ASYMMETRIC, FINITE) == tuple((k,) for k in range(12))
        assert strategy_coordinates(Strategy.ADD_FIBRE, ASYMPTOTIC) == ((0, 6),)
        assert strategy_coordinates(Strategy.SIGNAL_ONLY, ASYMPTOTIC) == ((0,), (6,))

    @pytest.mark.parametrize("strategy,expected", [
        (Strategy.SYMMETRIC, 6),
        (Strategy.ADD_FIBRE, 6),
        (Strategy.SIGNAL_ONLY, 7),
        (Strategy.FULLY_ASYMMETRIC, 12),
    ])
    def test_finite_counts(self, strategy, expected):
        assert len(strategy_coordinates(strategy, FINITE)) == expected

    @pytest.mark.parametrize("strategy,expected", [
        (Strategy.SYMMETRIC, 1),
        (Strategy.ADD_FIBRE, 1),
        (Strategy.SIGNAL_ONLY, 2),
        (Strategy.FULLY_ASYMMETRIC, 2),
    ])
    def test_asymptotic_counts(self, strategy, expected):
        assert len(strategy_coordinates(strategy, ASYMPTOTIC)) == expected

    def test_tied_coordinates_move_both_sides(self):
        coord = strategy_coordinates(Strategy.SYMMETRIC, FINITE)[0]
        moved = optimizer._params(optimizer._moved(vector(finite_params()), coord, 0.25))
        assert moved.s_a == moved.s_b == 0.25
        assert moved == finite_params(s_a=0.25, s_b=0.25)

    def test_boxes_respect_decoy_ordering(self):
        x = vector(finite_params(mu_a=0.3, nu_a=0.05))
        for coord in strategy_coordinates(Strategy.FULLY_ASYMMETRIC, FINITE):
            lo, hi = optimizer._box(x, coord)
            if coord == (2,):  # nu_a
                assert hi < 0.3
            if coord == (1,):  # mu_a
                assert lo > 0.05
            if coord == (10,):  # p_mu_b: 1 - p_s_b - p_nu_b - the vacuum floor
                assert hi == pytest.approx(0.299, abs=1e-12)
            moved = optimizer._params(optimizer._moved(x, coord, 0.5 * (lo + hi)))
            assert moved is not None  # stays constructible


class TestGoldenSection:
    def test_finds_parabola_peak(self):
        x, fx = golden_section_max(lambda v: -(v - 0.37) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.37, abs=1e-4)
        assert fx == pytest.approx(0.0, abs=1e-8)


class TestCoordinateDescent:
    def test_converges_on_concave_quadratic(self):
        def objective(params):
            return -(params.s_a - 0.31) ** 2 - 2.0 * (params.s_b - 0.07) ** 2

        init = draw_start(Strategy.FULLY_ASYMMETRIC, ASYMPTOTIC, seed=0, index=0)
        best, value = coordinate_descent(objective, init, Strategy.FULLY_ASYMMETRIC, ASYMPTOTIC)
        assert best.s_a == pytest.approx(0.31, abs=1e-3)
        assert best.s_b == pytest.approx(0.07, abs=1e-3)
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_nan_objectives_are_rejected(self):
        def objective(params):
            return float("nan") if params.s_a > 0.5 else params.s_a

        init = draw_start(Strategy.FULLY_ASYMMETRIC, ASYMPTOTIC, seed=0, index=0)
        best, value = coordinate_descent(objective, init, Strategy.FULLY_ASYMMETRIC, ASYMPTOTIC)
        assert math.isfinite(value)
        assert best.s_a <= 0.5 + 1e-9


#: Optimum of the synthetic objective: mu below nu on side a and near-saturated
#: probabilities, so the decoy-order and simplex boxes bind during the search.
_SYNTHETIC_TARGETS = dict(
    s_a=0.3, s_b=0.04, mu_a=0.002, nu_a=0.4, mu_b=0.2, nu_b=0.003,
    p_s_a=0.9, p_mu_a=0.3, p_nu_a=0.05, p_s_b=0.05, p_mu_b=0.5, p_nu_b=0.7,
)


def _synthetic(params):
    """Cheap positive objective over all 12 fields; NaN (a rejected point) above s_a = 0.5."""
    if params.s_a > 0.5:
        return math.nan
    penalty = 0.0
    for name, target in _SYNTHETIC_TARGETS.items():
        value = getattr(params, name)
        if value is not None:
            penalty += (math.log(value) - math.log(target)) ** 2
    return 1.0 / (1.0 + penalty)


def _param_bits(params):
    return tuple(_bits(getattr(params, f.name)) for f in dataclasses.fields(params))


def _traced_descent(descent, objective, init, strategy, mode):
    """The points a descent hands to the objective, and its result, as bytes."""
    points = []

    def recording(params):
        points.append(_param_bits(params))
        return objective(params)

    params, rate = descent(recording, init, strategy, mode)
    return points, _param_bits(params), _bits(rate)


class TestDescentRetracesReference:
    """The search-vector descent evaluates the string-keyed reference's points, bit for bit."""

    @pytest.mark.parametrize("mode", [ASYMPTOTIC, FINITE], ids=["asymptotic", "finite"])
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_synthetic_objective(self, strategy, mode):
        assert len(strategy_coordinates(strategy, mode)) == len(strategy_coordinates_reference(strategy, mode))
        for seed, index in ((0, 0), (3, 1), (11, 2)):
            init = draw_start(strategy, mode, seed, index)
            mine = _traced_descent(coordinate_descent, _synthetic, init, strategy, mode)
            reference = _traced_descent(coordinate_descent_reference, _synthetic, init, strategy, mode)
            assert len(mine[0]) > 31  # the start and more than one line search
            assert mine == reference

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_asymptotic_key_rate(self, strategy):
        scenario = ChannelScenario(eta_a=0.00316, eta_b=0.0316, p_d=1e-8, e_d=0.02)
        if strategy is Strategy.ADD_FIBRE:
            scenario = add_fibre_transform(scenario)
        objective = objective_for(scenario, ASYMPTOTIC)
        for index in range(2):
            init = draw_start(strategy, ASYMPTOTIC, 5, index)
            mine = _traced_descent(coordinate_descent, objective, init, strategy, ASYMPTOTIC)
            reference = _traced_descent(coordinate_descent_reference, objective, init, strategy, ASYMPTOTIC)
            assert mine == reference


class TestMultistart:
    def test_deterministic_reruns(self):
        sc = ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=1e-8, e_d=0.02)
        objective = objective_for(sc, ASYMPTOTIC)
        one = multistart(objective, Strategy.FULLY_ASYMMETRIC, 3, seed=9, mode=ASYMPTOTIC)
        two = multistart(objective, Strategy.FULLY_ASYMMETRIC, 3, seed=9, mode=ASYMPTOTIC)
        assert one == two

    def test_single_start_equals_plain_descent(self):
        sc = ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=1e-8, e_d=0.02)
        objective = objective_for(sc, ASYMPTOTIC)
        init = draw_start(Strategy.FULLY_ASYMMETRIC, ASYMPTOTIC, seed=4, index=0)
        direct = coordinate_descent(objective, init, Strategy.FULLY_ASYMMETRIC, ASYMPTOTIC)
        assert multistart(objective, Strategy.FULLY_ASYMMETRIC, 1, seed=4, mode=ASYMPTOTIC) == direct

    def test_more_starts_never_hurt(self):
        sc = ChannelScenario(eta_a=0.0005, eta_b=0.05, p_d=1e-8, e_d=0.02)
        objective = objective_for(sc, ASYMPTOTIC)
        _, rate_one = multistart(objective, Strategy.FULLY_ASYMMETRIC, 1, seed=2, mode=ASYMPTOTIC)
        _, rate_eight = multistart(objective, Strategy.FULLY_ASYMMETRIC, 8, seed=2, mode=ASYMPTOTIC)
        assert rate_eight >= rate_one

    def test_needs_at_least_one_start(self):
        with pytest.raises(DomainError):
            multistart(lambda p: 0.0, Strategy.SYMMETRIC, 0, seed=0, mode=ASYMPTOTIC)

    @pytest.mark.parametrize("mode", [ASYMPTOTIC, FINITE], ids=["asymptotic", "finite"])
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_draws_retrace_reference(self, strategy, mode):
        # the tie-table draw consumes the generator in the reference's order
        for seed in range(30):
            for index in range(6):
                mine = draw_start(strategy, mode, seed, index)
                assert _param_bits(mine) == _param_bits(draw_start_reference(strategy, mode, seed, index))

    def test_draws_satisfy_invariants(self):
        for strategy in Strategy:
            for index in range(40):
                params = draw_start(strategy, FINITE, seed=1, index=index)
                assert params.mu_a > params.nu_a > 0.0
                assert params.p_omega_a > 0.0 and params.p_omega_b > 0.0
                if strategy in (Strategy.SYMMETRIC, Strategy.ADD_FIBRE):
                    assert params.s_a == params.s_b
                    assert params.mu_a == params.mu_b


class TestEvaluate:
    def test_no_light_no_key(self):
        sc = ChannelScenario(eta_a=0.1, eta_b=0.1, p_d=0.0, e_d=0.02)
        report = evaluate_key_rate(sc, finite_params(s_a=0.0, s_b=0.0), ASYMPTOTIC)
        assert report.p_xx == 0.0
        assert report.rate == key_rate(report.p_xx, report.e_xx, report.e_zz_upper) == 0.0

    def test_finite_mode_requires_probabilities(self):
        params = ProtocolParameters(s_a=0.1, s_b=0.1, mu_a=0.1, nu_a=0.01, mu_b=0.1, nu_b=0.01)
        sc = ChannelScenario(eta_a=0.1, eta_b=0.1, p_d=1e-8, e_d=0.02)
        with pytest.raises(DomainError):
            evaluate_key_rate(sc, params, FINITE)

    def test_finite_rate_carries_the_signal_choice_weight(self):
        sc = ChannelScenario(eta_a=0.05, eta_b=0.05, p_d=1e-8, e_d=0.02)
        report = evaluate_key_rate(sc, finite_params(s_a=0.02, s_b=0.02), FINITE)
        assert report.rate > 0.0
        assert report.rate == pytest.approx(key_rate(report.p_xx, report.e_xx, report.e_zz_upper) * 0.25, rel=1e-12)

    def test_degenerate_decoys_inflate_the_phase_error(self):
        sc = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.02)
        clean = evaluate_key_rate(sc, finite_params(), FINITE)
        degenerate = evaluate_key_rate(sc, finite_params(mu_a=0.01, nu_a=0.01), FINITE)
        assert degenerate.e_zz_upper > 1.3 * clean.e_zz_upper
        assert degenerate.lp_problem.warnings
        assert clean.lp_problem.warnings == ()

    def test_asymptotic_reports_true_yields(self):
        from tfqkd.channel import yield_grid

        sc = ChannelScenario(eta_a=0.3, eta_b=0.6, p_d=0.0, e_d=0.02)
        report = evaluate_key_rate(sc, finite_params(), ASYMPTOTIC)
        grid = yield_grid(sc, 2)
        assert report.yield_bounds[1, 1] == pytest.approx(grid[1, 1], rel=1e-12)
        assert report.rate > 0.0
        assert report.rate == key_rate(report.p_xx, report.e_xx, report.e_zz_upper)  # the basis weight is 1
        assert report.lp_problem is None


def _swapped(params):
    """The same parameters with every side-a field exchanged for its side-b twin."""
    twin = {"a": "b", "b": "a"}
    return ProtocolParameters(**{f.name[:-1] + twin[f.name[-1]]: getattr(params, f.name)
                                 for f in dataclasses.fields(params)})


class TestSwapSymmetry:
    """Exchanging the two sides, channels and parameters alike, leaves the evaluation unchanged."""

    decoys = st.floats(0.01, 0.5)
    shares = st.floats(0.05, 0.3)

    @pytest.mark.parametrize("mode", [ASYMPTOTIC, FINITE], ids=["asymptotic", "finite"])
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(eta_a=st.floats(0.01, 0.3), eta_b=st.floats(0.01, 0.3), s_a=st.floats(0.005, 0.1),
           balance=st.floats(0.8, 1.25), mu_a=decoys, mu_b=decoys,
           nu_share_a=st.floats(0.05, 0.5), nu_share_b=st.floats(0.05, 0.5),
           p_s_a=shares, p_mu_a=shares, p_nu_a=shares, p_s_b=shares, p_mu_b=shares, p_nu_b=shares)
    def test_swapping_the_sides(self, mode, eta_a, eta_b, s_a, balance, nu_share_a, nu_share_b, **values):
        # moderate, nearly balanced arriving intensities, so that most rates are positive
        params = ProtocolParameters(s_a=s_a, s_b=balance * s_a * eta_a / eta_b, nu_a=nu_share_a * values["mu_a"],
                                    nu_b=nu_share_b * values["mu_b"], **values)
        scenario = ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=1e-8, e_d=0.02)
        mirror = dataclasses.replace(scenario, eta_a=eta_b, eta_b=eta_a)
        report = evaluate_key_rate(scenario, params, mode)
        swapped = evaluate_key_rate(mirror, _swapped(params), mode)
        assert _bits(swapped.p_xx) == _bits(report.p_xx)
        assert _bits(swapped.e_xx) == _bits(report.e_xx)
        assert swapped.e_zz_upper == pytest.approx(report.e_zz_upper, rel=1e-8)
        assert swapped.rate == pytest.approx(report.rate, rel=1e-8)


def _bits(value):
    """Field value in a form that compares equal only for identical bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, LpProblem):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


def _report_bits(report):
    return {f.name: _bits(getattr(report, f.name)) for f in dataclasses.fields(report)}


class TestLpMemo:
    """The finite LP and its bounds are memoised on everything but s_a/s_b."""

    SCENARIO = ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=1e-8, e_d=0.02)

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        optimizer._finite_lp.cache_clear()

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = optimizer.solve_yield_bounds

        def counting(problem):
            calls.append(problem)
            return solve(problem)

        monkeypatch.setattr(optimizer, "solve_yield_bounds", counting)
        return calls

    def test_signal_line_search_solves_once(self, solves):
        signal = strategy_coordinates(Strategy.SYMMETRIC, FINITE)[0]
        assert signal == (0, 6)
        objective = objective_for(self.SCENARIO, FINITE)
        x = vector(finite_params())
        _, rate = golden_section_max(
            lambda v: objective(optimizer._params(optimizer._moved(x, signal, v))), *optimizer._box(x, signal),
        )
        assert rate > 0.0
        assert len(solves) == 1

    def test_cache_hit_matches_cold_evaluation_in_bits(self, solves):
        evaluate_key_rate(self.SCENARIO, finite_params(s_a=0.05, s_b=0.2), FINITE)
        warm = evaluate_key_rate(self.SCENARIO, finite_params(), FINITE)
        assert len(solves) == 1
        assert optimizer._finite_lp.cache_info().misses == 1
        optimizer._finite_lp.cache_clear()
        cold = evaluate_key_rate(self.SCENARIO, finite_params(), FINITE)
        assert len(solves) == 2
        assert _report_bits(warm) == _report_bits(cold)

    def test_zero_gain_reports_the_lp_but_no_bounds(self):
        dark = ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=0.0, e_d=0.02)
        report = evaluate_key_rate(dark, finite_params(s_a=0.0, s_b=0.0), FINITE)
        assert report.rate == 0.0 and report.p_xx == 0.0
        assert report.yield_bounds is None
        assert isinstance(report.lp_problem, LpProblem)

    def test_infeasible_program_raises_on_every_call(self, monkeypatch, solves):
        build = optimizer.build_problem

        def contradictory(*args, **kwargs):
            problem = build(*args, **kwargs)
            return dataclasses.replace(problem, gain_upper=np.full_like(problem.gain_upper, -1.0))

        monkeypatch.setattr(optimizer, "build_problem", contradictory)
        for _ in range(2):
            with pytest.raises(InfeasibleProblemError):
                evaluate_key_rate(self.SCENARIO, finite_params(), FINITE)
        assert len(solves) == 2

    def test_cached_arrays_are_read_only(self):
        report = evaluate_key_rate(self.SCENARIO, finite_params(), FINITE)
        problem = report.lp_problem
        for array in (report.yield_bounds, problem.coefficients, problem.gain_lower,
                      problem.gain_upper, problem.slack_mass):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5


class TestAsymptoticMemo:
    """Cat states are memoised; asymptotic reports stay bit-equal to cold ones."""

    SCENARIO = ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=1e-8, e_d=0.02)

    @staticmethod
    def _clear():
        security.cat_coefficients.cache_clear()
        optimizer._true_yield_grid.cache_clear()

    def test_warm_report_matches_cold_evaluation_in_bits(self):
        self._clear()
        params = finite_params(s_a=0.07, s_b=0.012)
        for s_a in (0.3, 0.07, 0.02):  # a one-sided line search: s_b repeats
            evaluate_key_rate(self.SCENARIO, dataclasses.replace(params, s_a=s_a), ASYMPTOTIC)
        info = security.cat_coefficients.cache_info()
        assert (info.hits, info.misses) == (2, 4)
        warm = evaluate_key_rate(self.SCENARIO, params, ASYMPTOTIC)
        self._clear()
        cold = evaluate_key_rate(self.SCENARIO, params, ASYMPTOTIC)
        assert _report_bits(warm) == _report_bits(cold)
        assert warm.rate > 0.0 and _bits(key_rate(warm.p_xx, warm.e_xx, warm.e_zz_upper)) == _bits(warm.rate)

    def test_finite_rate_still_carries_its_basis_weight(self):
        sc = ChannelScenario(eta_a=0.2, eta_b=0.2, p_d=1e-8, e_d=0.02)
        report = evaluate_key_rate(sc, finite_params(s_a=0.05, s_b=0.05), FINITE)
        args = (report.p_xx, report.e_xx, report.e_zz_upper)
        assert _bits(report.rate) == _bits(key_rate(*args, basis_weight=0.25))
        assert 0.0 < report.rate < key_rate(*args)


class TestOptimizeStrategy:
    def test_symmetric_channels_have_symmetric_optima(self):
        sc = ChannelScenario(eta_a=0.0316, eta_b=0.0316, p_d=1e-8, e_d=0.02)
        params, _ = optimize_strategy(sc, Strategy.FULLY_ASYMMETRIC, ASYMPTOTIC, n_starts=4, seed=3)
        assert abs(math.log10(params.s_a / params.s_b)) <= 0.1

    def test_tenfold_mismatch_calls_for_tenfold_intensity_ratio(self):
        sc = ChannelScenario(eta_a=0.00316, eta_b=0.0316, p_d=1e-8, e_d=0.02)
        params, _ = optimize_strategy(sc, Strategy.FULLY_ASYMMETRIC, ASYMPTOTIC, n_starts=4, seed=3)
        assert math.log10(params.s_a / params.s_b) == pytest.approx(1.0, abs=0.3)

    def test_padding_strategy_reports_padded_rate(self):
        sc = ChannelScenario(eta_a=0.001, eta_b=0.01, p_d=1e-8, e_d=0.02)
        _, padded = optimize_strategy(sc, Strategy.ADD_FIBRE, ASYMPTOTIC, n_starts=2, seed=0)
        _, symmetric_on_padded = optimize_strategy(
            add_fibre_transform(sc), Strategy.SYMMETRIC, ASYMPTOTIC, n_starts=2, seed=0,
        )
        assert padded.rate == pytest.approx(symmetric_on_padded.rate, rel=1e-12)
