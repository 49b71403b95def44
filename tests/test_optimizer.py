import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd import decoy, optimizer, security, simplex
from tfqkd.channel import ChannelScenario
from tfqkd.decoy import LpProblem
from tfqkd.errors import DomainError, InfeasibleProblemError, UnsupportedAmplitudeError
from tfqkd.experiments import SweepConfig, split_total_loss
from tfqkd.optimizer import (
    LINE_EVALUATIONS,
    LINE_TOLERANCE,
    EvaluationMode,
    ProtocolParameters,
    Strategy,
    TIED_SLOTS,
    add_fibre_transform,
    asymptotic_rate_grid,
    asymptotic_searches,
    coordinate_descent,
    draw_start,
    evaluate_key_rate,
    golden_section_max,
    multistart,
    optimize_strategies,
    optimize_strategy,
    strategy_coordinates,
)
from tfqkd.security import key_rate

from oracles import (
    asymptotic_rate_grid_reference,
    asymptotic_search_reference,
    coordinate_descent_reference,
    draw_start_reference,
    strategy_coordinates_reference,
)
from test_decoy_lp import WARM_AGREEMENT

ASYMPTOTIC = EvaluationMode.asymptotic()
FINITE = EvaluationMode.finite(1e12, 5.3)


def log_uniform(low_exponent, high_exponent):
    return st.floats(low_exponent, high_exponent).map(lambda exponent: 10.0**exponent)


@st.composite
def dirichlet_shares(draw):
    """Selection probabilities (signal, mu, nu) of one side, drawn with the vacuum share from Dirichlet(1, 1, 1, 1)."""
    # exponential weights, at least -log(0.999) each, so that every share is positive and the vacuum keeps room
    weights = [-math.log(draw(st.floats(1e-6, 0.999))) for _ in range(4)]
    return tuple(weight / sum(weights) for weight in weights[:3])


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
        # NaN used to pass (nan < 0 is false) and surface only in a later QBER check;
        # inf would surface only as an arriving-intensity error that names no field
        for name in ("s_a", "s_b", "mu_a", "nu_a", "mu_b", "nu_b"):
            for value in (math.nan, -0.1, math.inf):
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
        assert strategy_coordinates(Strategy.SYMMETRIC) == tied
        assert strategy_coordinates(Strategy.SIGNAL_ONLY) == ((0,),) + tied[1:] + ((6,),)
        assert strategy_coordinates(Strategy.FULLY_ASYMMETRIC) == tuple((k,) for k in range(12))

    @pytest.mark.parametrize("strategy,expected", [
        (Strategy.SYMMETRIC, 6),
        (Strategy.ADD_FIBRE, 6),
        (Strategy.SIGNAL_ONLY, 7),
        (Strategy.FULLY_ASYMMETRIC, 12),
    ])
    def test_finite_counts(self, strategy, expected):
        assert len(strategy_coordinates(strategy)) == expected

    @pytest.mark.parametrize("strategy,expected", [
        (Strategy.SYMMETRIC, 1),
        (Strategy.ADD_FIBRE, 1),
        (Strategy.SIGNAL_ONLY, 2),
        (Strategy.FULLY_ASYMMETRIC, 2),
    ])
    def test_asymptotic_counts(self, strategy, expected):
        # the asymptotic search frees the signal intensities only: one when tied, two otherwise
        sc = ChannelScenario(eta_a=0.00316, eta_b=0.0316, p_d=1e-8, e_d=0.02)
        params, report = optimize_strategy(sc, strategy, ASYMPTOTIC, n_starts=1, seed=0)
        assert report.rate > 0.0
        assert len({params.s_a, params.s_b}) == expected

    def test_tied_coordinates_move_both_sides(self):
        coord = strategy_coordinates(Strategy.SYMMETRIC)[0]
        moved = optimizer._params(optimizer._moved(vector(finite_params()), coord, 0.25))
        assert moved.s_a == moved.s_b == 0.25
        assert moved == finite_params(s_a=0.25, s_b=0.25)

    def test_boxes_respect_decoy_ordering(self):
        x = vector(finite_params(mu_a=0.3, nu_a=0.05))
        for coord in strategy_coordinates(Strategy.FULLY_ASYMMETRIC):
            lo, hi = optimizer._box(x, coord)
            if coord == (2,):  # nu_a
                assert hi < 0.3
            if coord == (1,):  # mu_a
                assert lo > 0.05
            if coord == (10,):  # p_mu_b: 1 - p_s_b - p_nu_b - the vacuum floor
                assert hi == pytest.approx(0.299, abs=1e-12)
            moved = optimizer._params(optimizer._moved(x, coord, 0.5 * (lo + hi)))
            assert moved is not None  # stays constructible


def _recorded(f):
    """f, and the list of points it is evaluated at."""
    points = []

    def recording(v):
        points.append(v)
        return f(v)

    return recording, points


def _within_tolerance(a, b):
    return b - a <= LINE_TOLERANCE * 0.5 * (a + b)


class TestGoldenSection:
    def test_finds_parabola_peak(self):
        x, fx = golden_section_max(lambda v: -(v - 0.37) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.37, abs=1e-4)
        assert fx == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("lo, hi", [(0.5, 1.0), (1e-3, 0.99), (1e-4, 1.0), (0.02, 0.021)])
    def test_stops_once_the_bracket_is_within_tolerance(self, lo, hi):
        # on an increasing function every step raises a to the lower interior
        # point and keeps b = hi, so the n points evaluated so far, ascending,
        # give the bracket [points[n - 3], hi] (lo while n < 3)
        f, points = _recorded(lambda v: v)
        x, fx = golden_section_max(f, lo, hi)
        assert points == sorted(points)
        assert (x, fx) == (points[-1], points[-1])
        brackets = [(lo, hi)] + [(a, hi) for a in points]  # bracket after 2, 3, ... evaluations
        stop = next(k for k, (a, b) in enumerate(brackets) if _within_tolerance(a, b))
        assert len(points) == stop + 2 < LINE_EVALUATIONS

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda v: v, 0.0, 1e-9),
        (lambda v: math.sin(40.0 * v), 0.0, 1.0),
        (lambda v: -(v - 0.37) ** 2, 0.0, 1.0),
        (lambda v: math.nan, 1e-4, 1.0),
    ], ids=["tiny-box-at-zero", "oscillating", "parabola", "nan"])
    def test_never_exceeds_line_evaluations(self, f, lo, hi):
        recording, points = _recorded(f)
        golden_section_max(recording, lo, hi)
        assert 2 <= len(points) <= LINE_EVALUATIONS

    def test_decreasing_function_from_zero_ends_at_the_cap(self):
        # the bracket [0, b] is never within a share of its midpoint b / 2
        f, points = _recorded(lambda v: -v)
        x, fx = golden_section_max(f, 0.0, 1.0)
        assert len(points) == LINE_EVALUATIONS
        assert x == min(points) > 0.0
        assert fx == -x


class TestCoordinateDescent:
    def test_converges_on_concave_quadratic(self):
        def objective(params):
            return -(params.s_a - 0.31) ** 2 - 2.0 * (params.s_b - 0.07) ** 2

        init = draw_start(Strategy.FULLY_ASYMMETRIC, seed=0, index=0)
        best, value = coordinate_descent(objective, init, Strategy.FULLY_ASYMMETRIC)
        assert best.s_a == pytest.approx(0.31, abs=1e-3)
        assert best.s_b == pytest.approx(0.07, abs=1e-3)
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_nan_objectives_are_rejected(self):
        def objective(params):
            return float("nan") if params.s_a > 0.5 else params.s_a

        init = draw_start(Strategy.FULLY_ASYMMETRIC, seed=0, index=0)
        best, value = coordinate_descent(objective, init, Strategy.FULLY_ASYMMETRIC)
        assert math.isfinite(value)
        assert best.s_a <= 0.5 + 1e-9

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_all_nan_objective_ends_after_one_pass(self, strategy):
        calls = []

        def objective(params):
            calls.append(params)
            return math.nan

        init = draw_start(strategy, seed=0, index=0)
        best, value = coordinate_descent(objective, init, strategy)
        assert (best, value) == (init, -math.inf)
        # the start, then one line search of at most LINE_EVALUATIONS points per coordinate
        assert len(calls) <= 1 + len(strategy_coordinates(strategy)) * LINE_EVALUATIONS


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


def _traced_descent(descent, objective, init, strategy):
    """The points a descent hands to the objective, and its result, as bytes."""
    points = []

    def recording(params):
        points.append(_param_bits(params))
        return objective(params)

    params, rate = descent(recording, init, strategy)
    return points, _param_bits(params), _bits(rate)


def _finite_reference_descent(objective, init, strategy):
    """The reference descent over the finite-mode coordinates, the package descent's only space."""
    return coordinate_descent_reference(objective, init, strategy, FINITE)


class TestDescentRetracesReference:
    """The search-vector descent evaluates the string-keyed reference's points, bit for bit."""

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: f"{s.value}-finite")
    def test_synthetic_objective(self, strategy):
        assert len(strategy_coordinates(strategy)) == len(strategy_coordinates_reference(strategy, FINITE))
        for seed, index in ((0, 0), (3, 1), (11, 2)):
            init = draw_start(strategy, seed, index)
            mine = _traced_descent(coordinate_descent, _synthetic, init, strategy)
            reference = _traced_descent(_finite_reference_descent, _synthetic, init, strategy)
            assert len(mine[0]) > 31  # the start and more than one line search
            assert mine == reference

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_asymptotic_key_rate(self, strategy):
        # a cheap real objective: the descent moves every finite coordinate, the rate reads the signals
        scenario = ChannelScenario(eta_a=0.00316, eta_b=0.0316, p_d=1e-8, e_d=0.02)
        if strategy is Strategy.ADD_FIBRE:
            scenario = add_fibre_transform(scenario)
        objective = objective_for(scenario, ASYMPTOTIC)
        for index in range(2):
            init = draw_start(strategy, 5, index)
            mine = _traced_descent(coordinate_descent, objective, init, strategy)
            reference = _traced_descent(_finite_reference_descent, objective, init, strategy)
            assert mine == reference


class TestBracketTolerance:
    """The bracket rule against the fixed 30-evaluation search, on the finite golden sweep's point."""

    def test_finite_golden_point_keeps_its_rate_with_fewer_lp_solves(self):
        document = json.loads((Path(__file__).parent / "golden" / "finite_sweep.json").read_text(encoding="utf-8"))
        config = SweepConfig.from_dict(document)
        (loss_db,), (strategy,) = config.total_loss_db_grid, config.strategies
        strategy = Strategy(strategy)
        objective = objective_for(config.scenario_for(loss_db), config.evaluation_mode())
        init = draw_start(strategy, config.seed, 0)

        def solved(descent):
            optimizer._finite_lp.cache_clear()
            _, rate = descent()
            return rate, optimizer._finite_lp.cache_info().misses

        new_rate, new_solves = solved(lambda: coordinate_descent(objective, init, strategy))
        old_rate, old_solves = solved(
            lambda: coordinate_descent_reference(objective, init, strategy, FINITE, line_tolerance=None))
        assert old_rate > 0.0
        assert new_rate >= (1.0 - optimizer.REL_IMPROVEMENT) * old_rate
        assert new_solves < old_solves


class TestWarmSearch:
    """The finite search ranks points on bounds re-solved from each target's last basis; reports stay cold."""

    @staticmethod
    def _golden_point():
        document = json.loads((Path(__file__).parent / "golden" / "finite_sweep.json").read_text(encoding="utf-8"))
        config = SweepConfig.from_dict(document)
        (loss_db,), (strategy,) = config.total_loss_db_grid, config.strategies
        return config.scenario_for(loss_db), Strategy(strategy), config.evaluation_mode(), config.seed

    def test_golden_point_re_prices_most_targets(self):
        # a silent fallback to cold solves would re-price none and run phase 1 on every LP
        scenario, strategy, mode, seed = self._golden_point()
        objective, warm = optimizer._finite_objective(scenario, mode)
        params, _ = multistart(objective, strategy, 1, seed)
        assert (warm.lp_solves, warm.repriced, warm.dual_runs, warm.dual_pivots, warm.borrowed,
                warm.phase1_runs) == (1142, 5675, 1194, 2197, 30, 1)
        assert warm.give_ups == dict(dict.fromkeys(simplex.GIVE_UPS, 0), **{"spoiled_inverse": 9})
        assert _param_bits(params) == _param_bits(optimize_strategy(scenario, strategy, mode, 1, seed)[0])

    def test_a_skipped_phase_two_reads_what_phase_two_would_return(self, monkeypatch):
        # every target is read by simplex.column_values once its state is optimal: phase 2 from a copy of
        # that state returns the bits read, and none is read with a basic value outside [0, upper].  Those
        # not solved by phase 2 in the same solve (from a borrowed or phase-1 start) are the targets taken
        # from their own carried basis: proven optimal by rebase, or re-solved by reoptimize
        scenario, strategy, mode, seed = self._golden_point()
        column_values, reoptimize = simplex.column_values, simplex.reoptimize
        maximize_prepared = simplex.maximize_prepared
        in_reoptimize, skipped, starts = [False], [], [0]

        def re_solved(state, *pricing_and_data):
            in_reoptimize[0] = True
            try:
                return reoptimize(state, *pricing_and_data)
            finally:
                in_reoptimize[0] = False

        def solved_from_a_start(state, objective):
            starts[0] += not in_reoptimize[0]  # a phase 2 that reoptimize runs is not a start
            return maximize_prepared(state, objective)

        def read(stack, columns):
            values = column_values(stack, columns)
            for lp, (column, value) in enumerate(zip(columns, values)):
                state = stack[lp]
                assert ((state.x_basic >= 0.0) & (state.x_basic <= state.upper[state.basis])).all()
                objective = np.eye(state.n_structural)[column]
                x, _ = simplex.optimum(state, objective)
                again_x, again = maximize_prepared(state.copy(), objective)  # from a copy of the same state
                skipped.append((value.hex(), x.tobytes()) == (again.hex(), again_x.tobytes()))
            return values

        monkeypatch.setattr(simplex, "maximize_prepared", solved_from_a_start)
        monkeypatch.setattr(simplex, "reoptimize", re_solved)
        monkeypatch.setattr(simplex, "column_values", read)
        objective, warm = optimizer._finite_objective(scenario, mode)
        multistart(objective, strategy, 1, seed)
        assert len(skipped) == 5 * warm.lp_solves and all(skipped)
        assert len(skipped) - starts[0] == warm.repriced == 5675

    def test_a_dual_run_that_spoils_its_inverse_is_given_up(self, monkeypatch):
        # A descent of tools/search_cost.py: add_fibre at 30 dB, multistart seed 3.  Under an absolute pivot
        # tolerance of 1e-11 some dual runs there ended inside their boxes after pivots on elements near it,
        # with an inverse whose first-order error in the basic values reached 7e-2; read, one such run put a
        # bound 5.9e-2 below the cold one.  The pivot rule relative to the row keeps every error below
        # 1e-11 (5.4e-12 at most); the runs whose error still exceeds REBASE_TOLERANCE are given up, and no
        # warm bound falls below its cold one by more than WARM_AGREEMENT.
        config = SweepConfig(total_loss_db_grid=(30.0,), mismatch_ratio=0.1, mode="finite", n_pulses=1e12,
                             epsilon=1e-7, n_starts=1)
        scenario = add_fibre_transform(config.scenario_for(30.0))
        reoptimize, first_order_error, solve = simplex.reoptimize, simplex._first_order_error, decoy.solve_yield_bounds
        checked, runs, lowest = [], [], [0.0]  # runs: (first-order error at the end of a dual run, its outcome)

        def dual(state, *pricing_and_data):
            checked.clear()
            pivots, verdict = reoptimize(state, *pricing_and_data)
            runs.extend((value, verdict == "optimal") for value in checked)
            return pivots, verdict

        def error(state, a, b):
            checked.append(first_order_error(state, a, b))
            return checked[-1]

        def compared(problem, warm=None):
            bounds = solve(problem, warm)
            if warm is not None:
                lowest[0] = min(lowest[0], float((bounds - solve(problem)).min()))
            return bounds

        monkeypatch.setattr(simplex, "reoptimize", dual)
        monkeypatch.setattr(simplex, "_first_order_error", error)
        monkeypatch.setattr(decoy, "solve_yield_bounds", compared)
        objective, _ = optimizer._finite_objective(scenario, config.evaluation_mode())
        multistart(objective, Strategy.ADD_FIBRE, 1, 3)
        spoiled = [optimal for value, optimal in runs if value > simplex.REBASE_TOLERANCE]
        assert max(value for value, _ in runs) < 1e-11 and len(spoiled) == 3 and not any(spoiled)
        assert lowest[0] >= -WARM_AGREEMENT

    def test_the_report_is_the_cold_evaluation_of_the_winner(self):
        scenario, strategy, mode, seed = self._golden_point()
        params, report = optimize_strategy(scenario, strategy, mode, 1, seed)
        optimizer._finite_lp.cache_clear()
        assert _report_bits(evaluate_key_rate(scenario, params, mode)) == _report_bits(report)


class TestMultistart:
    def test_deterministic_reruns(self):
        one = multistart(_synthetic, Strategy.FULLY_ASYMMETRIC, 3, seed=9)
        two = multistart(_synthetic, Strategy.FULLY_ASYMMETRIC, 3, seed=9)
        assert one == two

    def test_single_start_equals_plain_descent(self):
        init = draw_start(Strategy.FULLY_ASYMMETRIC, seed=4, index=0)
        direct = coordinate_descent(_synthetic, init, Strategy.FULLY_ASYMMETRIC)
        assert multistart(_synthetic, Strategy.FULLY_ASYMMETRIC, 1, seed=4) == direct

    def test_more_starts_never_hurt(self):
        _, rate_one = multistart(_synthetic, Strategy.FULLY_ASYMMETRIC, 1, seed=2)
        _, rate_eight = multistart(_synthetic, Strategy.FULLY_ASYMMETRIC, 8, seed=2)
        assert rate_eight >= rate_one

    def test_needs_at_least_one_start(self):
        with pytest.raises(DomainError):
            multistart(lambda p: 0.0, Strategy.SYMMETRIC, 0, seed=0)

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: f"{s.value}-finite")
    def test_draws_retrace_reference(self, strategy):
        # the tie-table draw consumes the generator in the reference's order
        for seed in range(30):
            for index in range(6):
                mine = draw_start(strategy, seed, index)
                assert _param_bits(mine) == _param_bits(draw_start_reference(strategy, FINITE, seed, index))

    def test_draws_satisfy_invariants(self):
        for strategy in Strategy:
            for index in range(40):
                params = draw_start(strategy, seed=1, index=index)
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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(eta_a=log_uniform(-4.0, 0.0), eta_b=log_uniform(-4.0, 0.0), p_d=st.sampled_from([0.0, 1e-8, 1e-6]),
           e_d=st.floats(0.0, 0.1), intensities=st.lists(log_uniform(-4.0, 0.0), min_size=6, max_size=6),
           shares_a=dirichlet_shares(), shares_b=dirichlet_shares(), n_pulses=log_uniform(8.0, 14.0))
    def test_finite_phase_error_bound_never_falls_below_the_asymptotic_one(
            self, eta_a, eta_b, p_d, e_d, intensities, shares_a, shares_b, n_pulses):
        # the chain's soundness: every LP bound dominates the true yield it
        # stands for, and the pairs outside the bound matrix take 1
        s_a, s_b, *decoys = intensities
        mu_a, nu_a = sorted(decoys[:2], reverse=True)
        mu_b, nu_b = sorted(decoys[2:], reverse=True)
        params = ProtocolParameters(s_a, s_b, mu_a, nu_a, mu_b, nu_b, *shares_a, *shares_b)
        scenario = ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=p_d, e_d=e_d)
        finite = evaluate_key_rate(scenario, params, EvaluationMode.finite(n_pulses))
        assert finite.e_zz_upper >= evaluate_key_rate(scenario, params, ASYMPTOTIC).e_zz_upper

    def test_asymptotic_reports_true_yields(self):
        from tfqkd.channel import yield_grid

        sc = ChannelScenario(eta_a=0.3, eta_b=0.6, p_d=0.0, e_d=0.02)
        report = evaluate_key_rate(sc, finite_params(), ASYMPTOTIC)
        grid = yield_grid(sc)
        assert report.yield_bounds[1, 1] == pytest.approx(grid[1, 1], rel=1e-12)
        assert report.rate > 0.0
        assert report.rate == key_rate(report.p_xx, report.e_xx, report.e_zz_upper)  # the basis weight is 1
        assert report.lp_problem is None


#: Asymptotic scenarios over the sweeps' range and beyond: loss, mismatch, dark counts, misalignment and phase.
asymptotic_scenarios = st.builds(
    lambda loss, mismatch, p_d, e_d, phi: ChannelScenario(*split_total_loss(loss, mismatch), p_d=p_d, e_d=e_d, phi=phi),
    st.floats(0.0, 70.0), log_uniform(-3.0, 0.0), log_uniform(-10.0, -5.0), st.floats(0.0, 0.05), st.floats(-0.2, 0.2))


class TestAsymptoticRateGrid:
    """The batched kernel is the array form of the scalar asymptotic evaluation."""

    intensities = st.lists(st.floats(optimizer.INTENSITY_MIN, optimizer.INTENSITY_MAX), min_size=1, max_size=3)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(loss_db=st.floats(0.0, 70.0), mismatch=st.floats(0.0, 1.0, exclude_min=True),
           e_d=st.floats(0.0, 0.05), p_d=st.floats(0.0, 1e-6), phi=st.floats(-0.1, 0.1),
           s_a=intensities, s_b=intensities)
    def test_matches_scalar_evaluation(self, loss_db, mismatch, e_d, p_d, phi, s_a, s_b):
        eta_a, eta_b = split_total_loss(loss_db, mismatch)
        scenario = ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=p_d, e_d=e_d, phi=phi)
        edges = [optimizer.INTENSITY_MIN, optimizer.INTENSITY_MAX]
        s_a, s_b = edges + s_a, edges + s_b
        grid = asymptotic_rate_grid([scenario], [s_a], [s_b])
        assert grid.shape == (1, len(s_a), len(s_b))
        for i, a in enumerate(s_a):
            for j, b in enumerate(s_b):
                scalar = evaluate_key_rate(scenario, ProtocolParameters(a, b, 0.0, 0.0, 0.0, 0.0), ASYMPTOTIC).rate
                assert (grid[0, i, j] == 0.0) == (scalar == 0.0)
                assert grid[0, i, j] == pytest.approx(scalar, rel=1e-9, abs=0.0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data(), stack=st.lists(asymptotic_scenarios, min_size=1, max_size=5),
           n_a=st.integers(1, 4), n_b=st.integers(1, 4))
    def test_a_stack_is_its_scenarios_in_bits(self, data, stack, n_a, n_b):
        # one call over the stack, whose cat sums run as many terms as its largest amplitude needs, against
        # a stack of one per scenario and the one-scenario kernel as first written
        def draw(count):
            values = data.draw(st.lists(st.floats(0.0, optimizer.INTENSITY_MAX), min_size=count, max_size=count))
            return np.array(values).reshape(len(stack), -1)

        s_a, s_b = draw(len(stack) * n_a), draw(len(stack) * n_b)
        stacked = asymptotic_rate_grid(stack, s_a, s_b)
        assert stacked.shape == (len(stack), n_a, n_b)
        for k, scenario in enumerate(stack):
            alone = asymptotic_rate_grid([scenario], s_a[k:k + 1], s_b[k:k + 1])
            assert stacked[k].tobytes() == alone[0].tobytes()
            assert stacked[k].tobytes() == asymptotic_rate_grid_reference(scenario, s_a[k], s_b[k]).tobytes()

    def test_amplitudes_above_the_regime_are_unsupported(self):
        # s = 150 is an amplitude of 12.2, above MAX_AMPLITUDE = 10, for the point and the mesh alike
        scenario = ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=1e-8, e_d=0.02)
        with pytest.raises(UnsupportedAmplitudeError):
            evaluate_key_rate(scenario, ProtocolParameters(150.0, 0.01, 0.0, 0.0, 0.0, 0.0), ASYMPTOTIC)
        with pytest.raises(UnsupportedAmplitudeError):
            asymptotic_rate_grid([scenario], [[150.0]], [[0.01]])


class TestAsymptoticSearches:
    """The lockstep search gives every search the bits of the per-search loop as first written."""

    #: 60 dB at mismatch 1e-3 holds no key: a tied search keeps the lowest intensities, clipped at the box edge,
    #: and its cells shrink tenfold per round instead of fivefold, so it ends after 13 grids instead of 17
    CLIPPED = ChannelScenario(*split_total_loss(60.0, 1e-3), p_d=1e-8, e_d=0.02)

    @staticmethod
    def _traced(scenarios, tied):
        """asymptotic_searches' result, as bits, and the stack size of each of its kernel calls."""
        sizes, kernel = [], optimizer.asymptotic_rate_grid
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer, "asymptotic_rate_grid",
                          lambda stack, *values: sizes.append(len(stack)) or kernel(stack, *values))
            found = asymptotic_searches(scenarios, tied)
        return [tuple(map(_bits, point)) for point in found], sizes

    def test_the_clipped_search_ends_after_13_grids(self):
        (point, rounds), (untied, untied_rounds) = (asymptotic_search_reference(self.CLIPPED, tied) for tied in (1, 0))
        assert (point, rounds, untied_rounds) == ((optimizer.INTENSITY_MIN,) * 2, 13, 17)
        found, sizes = self._traced([self.CLIPPED, self.CLIPPED], [True, False])
        assert found == [tuple(map(_bits, point)), tuple(map(_bits, untied))]
        # one first grid per search, then the stack of both until the clipped search leaves it
        assert sizes == [1, 1] + [2] * 12 + [1] * 4

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(stack=st.lists(st.tuples(asymptotic_scenarios, st.sampled_from(list(Strategy))), max_size=5),
           positions=st.tuples(st.integers(0, 6), st.integers(0, 6)))
    def test_each_search_has_the_bits_of_the_per_search_loop(self, stack, positions):
        # the clipped search, tied, and a search with untied sides join every drawn stack
        stack.insert(positions[0], (self.CLIPPED, Strategy.SYMMETRIC))
        stack.insert(positions[1], (self.CLIPPED, Strategy.FULLY_ASYMMETRIC))
        scenarios = [add_fibre_transform(sc) if s is Strategy.ADD_FIBRE else sc for sc, s in stack]
        tied = [0 in TIED_SLOTS[s] for _, s in stack]
        expected = [asymptotic_search_reference(sc, t) for sc, t in zip(scenarios, tied)]
        found, sizes = self._traced(scenarios, tied)
        assert found == [tuple(map(_bits, point)) for point, _ in expected]
        rounds = [count for _, count in expected]
        assert sizes == [1] * len(stack) + [sum(count > k for count in rounds) for k in range(1, max(rounds))]
        for k, scenario in enumerate(scenarios):
            assert self._traced([scenario], tied[k:k + 1])[0] == found[k:k + 1]

    def test_each_true_yield_grid_is_looked_up_once(self):
        # 70 scenarios cycle through the 64-entry grid cache: a lookup per round would miss it every time
        scenarios = [ChannelScenario(*split_total_loss(float(loss), 0.1), p_d=1e-8, e_d=0.02) for loss in range(70)]
        optimizer._true_yield_grid.cache_clear()
        asymptotic_searches(scenarios, [True] * len(scenarios))
        info = optimizer._true_yield_grid.cache_info()
        assert (info.hits, info.misses) == (0, 70)

    def test_a_batch_is_its_points(self):
        # optimize_strategy is optimize_strategies of one point
        points = [(ChannelScenario(*split_total_loss(loss, 0.1), p_d=1e-8, e_d=0.02), strategy)
                  for loss in (30.0, 50.0) for strategy in Strategy]
        batch = optimize_strategies(points, ASYMPTOTIC, n_starts=4, seed=1)
        for (scenario, strategy), (params, report) in zip(points, batch):
            alone_params, alone_report = optimize_strategy(scenario, strategy, ASYMPTOTIC, n_starts=4, seed=1)
            assert _param_bits(params) == _param_bits(alone_params)
            assert _report_bits(report) == _report_bits(alone_report)


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
        solve = decoy.solve_yield_bounds

        def counting(problem, *warm):
            calls.append(problem)
            return solve(problem, *warm)

        monkeypatch.setattr(decoy, "solve_yield_bounds", counting)
        return calls

    def test_signal_line_search_solves_once(self, solves):
        signal = strategy_coordinates(Strategy.SYMMETRIC)[0]
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
        build = decoy.build_problem

        def contradictory(*args, **kwargs):
            problem = build(*args, **kwargs)
            return dataclasses.replace(problem, gain_upper=np.full_like(problem.gain_upper, -1.0))

        monkeypatch.setattr(decoy, "build_problem", contradictory)
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
        security.cat_state.cache_clear()
        optimizer._true_yield_grid.cache_clear()

    def test_warm_report_matches_cold_evaluation_in_bits(self):
        self._clear()
        params = finite_params(s_a=0.07, s_b=0.012)
        for s_a in (0.3, 0.07, 0.02):  # a one-sided line search: s_b repeats
            evaluate_key_rate(self.SCENARIO, dataclasses.replace(params, s_a=s_a), ASYMPTOTIC)
        info = security.cat_state.cache_info()
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

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_asymptotic_search_takes_no_seed(self, strategy):
        sc = ChannelScenario(eta_a=0.001, eta_b=0.05, p_d=1e-8, e_d=0.02)
        params, report = optimize_strategy(sc, strategy, ASYMPTOTIC, n_starts=1, seed=0)
        other_params, other_report = optimize_strategy(sc, strategy, ASYMPTOTIC, n_starts=5, seed=11)
        assert _param_bits(other_params) == _param_bits(params)
        assert _report_bits(other_report) == _report_bits(report)

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_swapping_the_channels_swaps_the_winner(self, strategy):
        sc = ChannelScenario(eta_a=0.00316, eta_b=0.0316, p_d=1e-8, e_d=0.02)
        mirror = dataclasses.replace(sc, eta_a=sc.eta_b, eta_b=sc.eta_a)
        params, report = optimize_strategy(sc, strategy, ASYMPTOTIC, n_starts=1, seed=0)
        swapped, swapped_report = optimize_strategy(mirror, strategy, ASYMPTOTIC, n_starts=1, seed=0)
        # the rate is flat at the top: rounding at 1e-13 of the rate moves the winner by ~1e-7
        assert swapped.s_a == pytest.approx(params.s_b, rel=1e-5)
        assert swapped.s_b == pytest.approx(params.s_a, rel=1e-5)
        assert swapped_report.rate == pytest.approx(report.rate, rel=1e-9)

    def test_padding_strategy_reports_padded_rate(self):
        sc = ChannelScenario(eta_a=0.001, eta_b=0.01, p_d=1e-8, e_d=0.02)
        _, padded = optimize_strategy(sc, Strategy.ADD_FIBRE, ASYMPTOTIC, n_starts=2, seed=0)
        _, symmetric_on_padded = optimize_strategy(
            add_fibre_transform(sc), Strategy.SYMMETRIC, ASYMPTOTIC, n_starts=2, seed=0,
        )
        assert padded.rate == pytest.approx(symmetric_on_padded.rate, rel=1e-12)
