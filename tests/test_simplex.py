import csv
import math
import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oracles import bland_run_simplex, dantzig_run_simplex
from tfqkd import simplex
from tfqkd.channel import ChannelScenario
from tfqkd.decoy import (
    PHOTON_CUTOFF,
    STACK_SIZE,
    TARGET_PAIRS,
    _equality_form,
    build_problem,
    observations_from_scenario,
)
from tfqkd.errors import DomainError, InfeasibleProblemError, UnboundedProblemError
from tfqkd.experiments import QberScanConfig, SweepConfig
from tfqkd.simplex import PreparedBasis, maximize_prepared, prepare

GOLDEN = Path(__file__).parent / "golden"


def maximize(objective, a, b, upper):
    """One-shot solve: phase 1 for the constraints, then phase 2 for the objective."""
    return maximize_prepared(prepare(a, b, upper), objective)


def test_simple_box_optimum():
    # max x0 + x1 with x0 + x1 + s = 1, everything in [0, 1]
    a = np.array([[1.0, 1.0, 1.0]])
    x, value = maximize(np.array([1.0, 1.0, 0.0]), a, np.array([1.0]), np.array([1.0, 1.0, 1.0]))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert x[2] == pytest.approx(0.0, abs=1e-12)


def test_upper_bounds_bind():
    # max 2 x0 + x1 with x0 + x1 = 1.2, x0 <= 0.5
    a = np.array([[1.0, 1.0]])
    x, value = maximize(np.array([2.0, 1.0]), a, np.array([1.2]), np.array([0.5, 1.0]))
    assert x[0] == pytest.approx(0.5, abs=1e-12)
    assert x[1] == pytest.approx(0.7, abs=1e-12)
    assert value == pytest.approx(1.7, abs=1e-12)


def test_phase_one_finds_interior_start():
    # rows force x0 + x1 >= 0.6 via a bounded slack: x0 + x1 + s = 1, s <= 0.4
    a = np.array([[1.0, 1.0, 1.0]])
    upper = np.array([1.0, 1.0, 0.4])
    x, value = maximize(np.array([-1.0, -2.0, 0.0]), a, np.array([1.0]), upper)
    # minimizing x0 + 2 x1 subject to x0 + x1 >= 0.6 puts everything on x0
    assert x[0] == pytest.approx(0.6, abs=1e-10)
    assert value == pytest.approx(-0.6, abs=1e-10)


def test_detects_infeasible_rows():
    # x0 + x1 = 3 cannot hold with both variables capped at 1
    a = np.array([[1.0, 1.0]])
    with pytest.raises(InfeasibleProblemError) as excinfo:
        prepare(a, np.array([3.0]), np.array([1.0, 1.0]))
    # the offending row comes back as its index, which decoy maps to a pair label
    assert excinfo.value.constraint == 0 and type(excinfo.value.constraint) is int


@pytest.mark.parametrize("name, value", [("a", np.nan), ("b", np.nan), ("upper", np.nan), ("a", np.inf), ("b", np.inf)])
def test_prepare_rejects_non_finite_data(name, value):
    # NaN rows used to pass the phase-1 residual test and read as feasible
    data = {"a": np.array([[1.0, 1.0]]), "b": np.array([1.0]), "upper": np.array([1.0, 1.0])}
    data[name].flat[0] = value
    with pytest.raises(DomainError):
        prepare(data["a"], data["b"], data["upper"])


def test_infinite_upper_bound_stays_legal():
    # max x0 with x0 + x1 = 1, x0 unbounded above
    x, value = maximize(np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]), np.array([np.inf, 1.0]))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_prepared_basis_is_reusable():
    a = np.array([[1.0, 2.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]])
    b = np.array([1.0, 0.3])
    upper = np.array([1.0, 1.0, 1.0, 1.0])
    basis = prepare(a, b, upper)
    for cost in ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]):
        mine = maximize_prepared(basis.copy(), np.array(cost))[1]
        again = maximize_prepared(basis.copy(), np.array(cost))[1]
        assert mine == again  # a copy of the snapshot is a start for every objective


def _rebase_one(state, objective, a, b, upper, new_matrix=False):
    """rebase of a stack of the one state: (its copy, carried, optimal for objective)."""
    work, carried, optimal = simplex.rebase(PreparedBasis.stacked([state]), np.array([objective]), a, b, upper,
                                            new_matrix)
    return work[0], carried[0], optimal[0]


def test_rebase_finds_a_basis_optimal_only_in_its_boxes():
    # max x0 with x0 + x1 + s = b, x0 <= 0.5: the optimum has x0 at its bound and x1 or s basic
    a = np.array([[1.0, 1.0, 1.0]])
    upper = np.array([0.5, 1.0, 1.0])
    objective = np.array([1.0, 0.0, 0.0])
    state = prepare(a, np.array([1.2]), upper)
    _, value = maximize_prepared(state, objective)
    assert value == 0.5
    # the same tableau and the same open boxes, with the basic value inside its box or on its bound 0
    for b in (1.1, 0.5):
        moved, carried, optimal = _rebase_one(state, objective, a, np.array([b]), upper)
        assert carried and optimal and moved.x_basic.tolist() == [b - 0.5]  # x1, exactly 0 at b = 0.5
        read_x, read = simplex.optimum(moved, objective)
        assert simplex.column_values(PreparedBasis.stacked([moved]), [0]).tolist() == [read]
        (x, value), pivots = _pivots_of(lambda: maximize_prepared(moved, objective))
        assert pivots == 0 and (read_x.tobytes(), read) == (x.tobytes(), value)
        assert value == 0.5 and x.sum() == pytest.approx(b, abs=1e-15)
    # the basic value falls below 0 or leaves its box: the basis is not optimal as it stands
    for b, box in ((0.4, upper), (1.2, np.array([0.5, 0.1, 0.1])), (-0.1, upper)):
        _, carried, optimal = _rebase_one(state, objective, a, np.array([b]), box)
        assert carried and not optimal
    # data that prepare rejects; a NaN box on s, nonbasic at 0, would leave the basic values inside their boxes
    for b, box in ((1.1, np.array([0.5, 1.0, math.nan])), (1.1, np.array([math.nan, 1.0, 1.0])),
                   (math.nan, upper), (math.inf, upper)):
        _, carried, optimal = simplex.rebase(PreparedBasis.stacked([state, state]), np.array([objective] * 2), a,
                                             np.array([b]), box)
        assert not carried.any() and not optimal.any()
    assert _rebase_one(state, objective, a, np.array([1.2]), upper)[2]  # state was not changed


def test_a_box_that_opens_makes_the_carried_basis_price_again():
    # max s with x0 + x1 + s = 1.2 and s boxed to 0: value 0, x1 basic at 0.2
    a = np.array([[1.0, 1.0, 1.0]])
    objective = np.array([0.0, 0.0, 1.0])
    state = prepare(a, np.array([1.2]), np.array([1.0, 1.0, 0.0]))
    assert maximize_prepared(state, objective)[1] == 0.0
    rebased, carried, optimal = _rebase_one(state, objective, a, np.array([1.2]), np.array([1.0, 1.0, 1.0]))
    assert carried and not optimal  # s may now enter
    assert simplex.optimum(rebased, objective)[1] == 0.0
    assert maximize_prepared(rebased, objective)[1] == 1.0


def test_rebase_rebuilds_the_tableau_on_a_new_matrix():
    # max x0 with x0 + x1 + s = 1.2, x0 <= 0.5, then the coefficient of x1 moves to 2
    a = np.array([[1.0, 1.0, 1.0]])
    upper = np.array([0.5, 1.0, 1.0])
    objective = np.array([1.0, 0.0, 0.0])
    state = prepare(a, np.array([1.2]), upper)
    maximize_prepared(state, objective)
    moved = np.array([[1.0, 2.0, 1.0]])
    rebased, carried, optimal = _rebase_one(state, objective, moved, np.array([1.2]), upper, new_matrix=True)
    # the rebuilt tableau is priced: x1 is basic at 0.35, in its box, and no column enters
    assert carried and optimal and rebased.x_basic.tolist() == [0.35]
    cold = maximize_prepared(prepare(moved, np.array([1.2]), upper), objective)
    (warm, pivots) = _pivots_of(lambda: maximize_prepared(rebased.copy(), objective))
    assert pivots == 0 and simplex.optimum(rebased, objective)[1] == warm[1]
    assert warm[1] == cold[1] == 0.5 and moved @ warm[0] == pytest.approx([1.2], abs=1e-15)
    # the artificial columns hold B^-1 of the new matrix, so the tableau is B^-1 [a | I]
    assert rebased.tableau == pytest.approx(rebased.tableau[:, 3:] @ np.concatenate((moved, np.eye(1)), axis=1))
    # a singular block (the basic column zeroed) or a non-finite matrix carries nothing over
    basic = int(rebased.basis[0])
    singular = moved.copy()
    singular[0, basic] = 0.0
    assert not _rebase_one(state, objective, singular, np.array([1.2]), upper, new_matrix=True)[1]
    for bad in (math.nan, math.inf):
        broken = moved.copy()
        broken[0, 0] = bad  # x0 is nonbasic at its upper bound
        assert not _rebase_one(state, objective, broken, np.array([1.2]), upper, new_matrix=True)[1]
        with pytest.raises(DomainError):
            prepare(broken, np.array([1.2]), upper)


def test_rebase_rebuilds_an_inverse_that_drifted():
    a = np.array([[1.0, 1.0, 1.0]])
    upper = np.array([0.5, 1.0, 1.0])
    objective = np.array([1.0, 0.0, 0.0])
    state = prepare(a, np.array([1.2]), upper)
    maximize_prepared(state, objective)
    drifted = state.copy()
    drifted.tableau[:, 3:] *= 1.0 + 10.0 * simplex.REBASE_TOLERANCE
    rebased, carried, optimal = _rebase_one(drifted, objective, a, np.array([1.1]), upper)
    fresh, _, _ = _rebase_one(state, objective, a, np.array([1.1]), upper, new_matrix=True)
    assert carried and optimal  # rebuilt, and priced as it stands
    assert rebased.tableau.tobytes() == fresh.tableau.tobytes()


def test_a_stack_with_one_singular_block_carries_the_others():
    # max x0 over x0 + x1 + s = 1.2 with x0 boxed to 0.5 (x1 basic) and to 2 (x0 basic): zeroing x1's
    # coefficient makes the first basis block singular and leaves the second one as it was
    a = np.array([[1.0, 1.0, 1.0]])
    objective = np.array([1.0, 0.0, 0.0])
    states = [prepare(a, np.array([1.2]), box) for box in (np.array([0.5, 1.0, 1.0]), np.array([2.0, 1.0, 1.0]))]
    for state in states:
        maximize_prepared(state, objective)
    assert [state.basis.tolist() for state in states] == [[1], [0]]
    singular = np.array([[1.0, 0.0, 1.0]])
    upper = np.array([2.0, 1.0, 1.0])
    stack = PreparedBasis.stacked(states)
    work, carried, optimal = simplex.rebase(stack, np.array([objective] * 2), singular, np.array([1.2]), upper,
                                            new_matrix=True)
    assert carried.tolist() == [False, True] and optimal.tolist() == [False, True]
    single, _, _ = _rebase_one(states[1], objective, singular, np.array([1.2]), upper, new_matrix=True)
    assert work[1].tableau.tobytes() == single.tableau.tobytes()
    assert work[1].x_basic.tobytes() == single.x_basic.tobytes()


def test_matches_reference_solver_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(40):
        m, n = rng.integers(2, 6), rng.integers(4, 12)
        a = rng.uniform(0.0, 1.0, size=(m, n))
        x_feasible = rng.uniform(0.0, 1.0, size=n)
        b = a @ x_feasible  # guarantees feasibility
        upper = np.ones(n)
        cost = rng.uniform(-1.0, 1.0, size=n)
        x, value = maximize(cost, a, b, upper)
        assert np.all(x >= -1e-9) and np.all(x <= upper + 1e-9)
        assert np.max(np.abs(a @ x - b)) < 1e-8
        reference = linprog(-cost, A_eq=a, b_eq=b, bounds=[(0.0, 1.0)] * n, method="highs")
        assert reference.success
        assert value == pytest.approx(-reference.fun, abs=2e-7)


def test_deterministic_reruns():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 1.0, size=(4, 9))
    b = a @ rng.uniform(0.0, 1.0, size=9)
    cost = rng.uniform(-1.0, 1.0, size=9)
    first = maximize(cost, a, b, np.ones(9))
    second = maximize(cost, a, b, np.ones(9))
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


def _beale_program():
    # Beale (1955): Dantzig's rule with smallest-index ties cycles forever
    # from the slack basis, which phase 1 reaches here
    a = np.array([
        [1.0, 0.0, 0.0, 0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.0, 1.0, 0.0, 0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ])
    cost = np.array([0.0, 0.0, 0.0, 0.75, -150.0, 1.0 / 50.0, -6.0])
    return a, np.array([0.0, 0.0, 1.0]), np.full(7, np.inf), [cost]


def test_beale_cycling_example_reaches_its_optimum():
    # the Bland fallback after a run of degenerate steps must break the cycle
    a, b, upper, (cost,) = _beale_program()
    x, value = maximize(cost, a, b, upper)
    assert value == pytest.approx(1.0 / 20.0, abs=1e-12)
    assert x == pytest.approx([3.0 / 100.0, 0.0, 0.0, 1.0 / 25.0, 0.0, 1.0, 0.0], abs=1e-12)


def _trace_solves(loop, a, b, upper, objectives):
    """Phase 1 and one phase 2 per objective with the given simplex loop.

    Returns the (x, objective) bytes of every solve, or the error raised,
    and for every loop call its pivot count, final basis, status, basic
    values and tableau bytes, and the degenerate budget it was given.
    """
    calls = []

    def recording(cost, state, degenerate_budget):
        pivots = loop(cost, state, degenerate_budget)
        calls.append((pivots, state.basis.tobytes(), state.status.tobytes(),
                      state.x_basic.tobytes(), state.tableau.tobytes(), degenerate_budget))
        return pivots

    with mock.patch.object(simplex, "_run_simplex", recording):
        try:
            basis = prepare(a, b, upper)
            results = []
            for objective in objectives:
                x, value = maximize_prepared(basis.copy(), objective)
                results.append((x.tobytes(), np.float64(value).tobytes()))
        except (InfeasibleProblemError, UnboundedProblemError, RuntimeError) as error:
            results = repr(error)
    return results, calls


_lean_loop = simplex._run_simplex  # the package loop, unpatched


def _budget_zero(cost, state, degenerate_budget):
    return _lean_loop(cost, state, 0)


def _bland_reference(cost, state, degenerate_budget):
    return bland_run_simplex(cost, state)


def _assert_retraces_reference(a, b, upper, objectives):
    lean = _trace_solves(_lean_loop, a, b, upper, objectives)
    reference = _trace_solves(dantzig_run_simplex, a, b, upper, objectives)
    assert lean == reference
    budgets = [call[-1] for call in lean[1]]
    assert budgets[:1] == [0] and set(budgets[1:]) <= {simplex._DANTZIG_DEGENERATE_LIMIT}
    return lean


def _assert_budget_zero_retraces_bland(a, b, upper, objectives):
    lean = _trace_solves(_budget_zero, a, b, upper, objectives)
    reference = _trace_solves(_bland_reference, a, b, upper, objectives)
    assert lean == reference
    return lean


def _random_program(seed, rows, columns, duplicate_row, zero_spans, tight_boxes, degenerate_row):
    rng = np.random.default_rng(seed)
    coefficients = rng.uniform(-1.0, 1.0, size=(rows, columns))
    coefficients[rng.uniform(size=coefficients.shape) < 0.3] = 0.0
    if duplicate_row and rows > 1:
        coefficients[-1] = coefficients[0]
    # range rows as in the decoy LP: one slack per row, some with zero span
    a = np.hstack([coefficients, np.eye(rows)])
    upper = rng.uniform(0.05, 0.5, size=columns + rows) if tight_boxes else np.ones(columns + rows)
    upper[columns + rng.permutation(rows)[:zero_spans]] = 0.0
    x_feasible = rng.uniform(0.0, 1.0, size=upper.size) * upper
    if degenerate_row:
        # row 0 right-hand side 0: its artificial can end phase 1 basic at
        # zero and leave in phase 2 with an empty box
        x_feasible[a[0] != 0.0] = 0.0
    b = a @ x_feasible  # feasible, with either sign
    objectives = [rng.uniform(-1.0, 1.0, size=upper.size), np.eye(upper.size)[rng.integers(upper.size)]]
    return a, b, upper, objectives


def _bound_flip_program():
    # x0..x3 have boxes far tighter than the row, so phase 1 moves each
    # across its whole box (a bound flip) before x4 replaces the artificial
    a = np.array([[1.0, 1.0, 1.0, 1.0, 1.0]])
    upper = np.array([0.1, 0.2, 0.3, 0.4, 5.0])
    return a, np.array([1.0]), upper, [np.array([1.0, 2.0, 3.0, 4.0, 0.0])]


def _artificial_leaving_program():
    # the zero-span slack of row 2 pins x1 to 0, so that row's artificial
    # ends phase 1 basic at zero; the second objective's phase 2 pivots it
    # out (Bland's rule does so for the first as well) and leaves it with a
    # positive reduced cost, so only its box pinned to [0, 0] keeps it from
    # entering again
    a = np.array([[-0.9, -0.2, 1.0, 0.0, 0.0], [0.3, -0.03, 0.0, 1.0, 0.0], [0.0, -0.4, 0.0, 0.0, 1.0]])
    upper = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    objectives = [np.array([-0.8, 0.0, 0.0, -0.05, 0.0]), np.array([0.0, 0.1, 0.0, 1.0, 0.0])]
    return a, np.array([0.4, 0.8, 0.0]), upper, objectives


def _decoy_targets(problem):
    a, b, ub = _equality_form(problem.coefficients, *problem.constraint_bounds())
    objectives = []
    for n, m in TARGET_PAIRS:
        objective = np.zeros(a.shape[1])
        objective[n * PHOTON_CUTOFF + m] = 1.0
        objectives.append(objective)
    return a, b, ub, objectives


def _degenerate_qber_scan_problem():
    config = QberScanConfig(s_a_grid=(0.01,))
    (s_a,) = config.s_a_grid
    assert s_a == config.nu  # the scan point whose decoy rows are duplicated
    obs = observations_from_scenario(
        config.scenario(), (s_a, config.nu, 0.0), (config.mu_b, config.nu, 0.0),
    )
    return build_problem(obs)


def _finite_sweep_problem(loss_db):
    config = SweepConfig.from_dict(json.loads((GOLDEN / "finite_sweep.json").read_text()))
    mode = config.evaluation_mode()
    (row,) = csv.DictReader((GOLDEN / "finite_sweep.csv").read_text().splitlines()[1:])
    value = {k: float(v) for k, v in row.items() if k.startswith(("mu_", "nu_", "p_"))}
    probabilities = {
        side: (value[f"p_mu_{side}"], value[f"p_nu_{side}"],
               1.0 - value[f"p_s_{side}"] - value[f"p_mu_{side}"] - value[f"p_nu_{side}"])
        for side in "ab"
    }
    obs = observations_from_scenario(
        config.scenario_for(loss_db),
        (value["mu_a"], value["nu_a"], 0.0), (value["mu_b"], value["nu_b"], 0.0),
        n_pulses=mode.n_pulses, probabilities_a=probabilities["a"], probabilities_b=probabilities["b"],
    )
    return build_problem(obs, sigma_multiplier=mode.sigma_multiplier)


_random_programs = given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
    columns=st.integers(1, 12),
    duplicate_row=st.booleans(),
    zero_spans=st.integers(0, 3),
    tight_boxes=st.booleans(),
    degenerate_row=st.booleans(),
)

_FIXED_PROGRAMS = {
    "bound_flips": _bound_flip_program,
    "artificial_leaving": _artificial_leaving_program,
    "degenerate_qber_scan": lambda: _decoy_targets(_degenerate_qber_scan_problem()),
    "finite_sweep_20dB": lambda: _decoy_targets(_finite_sweep_problem(20.0)),
    "finite_sweep_40dB": lambda: _decoy_targets(_finite_sweep_problem(40.0)),
}


class TestLeanLoopRetracesReference:
    """The package loop against the Dantzig reference loop, bit for bit,
    and at a degenerate budget of 0 against the original Bland loop."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @_random_programs
    def test_random_boxed_programs(self, **program):
        results, calls = _assert_retraces_reference(*_random_program(**program))
        assert isinstance(results, list)
        assert len(calls) == 3  # phase 1 and one phase 2 per objective

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @_random_programs
    def test_random_boxed_programs_at_budget_zero_retrace_bland(self, **program):
        results, calls = _assert_budget_zero_retraces_bland(*_random_program(**program))
        assert isinstance(results, list)
        assert len(calls) == 3

    @pytest.mark.parametrize("program", _FIXED_PROGRAMS)
    def test_budget_zero_retraces_bland(self, program):
        _assert_budget_zero_retraces_bland(*_FIXED_PROGRAMS[program]())

    def test_bound_flips_are_exercised(self):
        _, calls = _assert_retraces_reference(*_bound_flip_program())
        pivots, basis, status = calls[0][:3]
        assert pivots == 5
        assert np.frombuffer(basis, dtype=np.int64).tolist() == [4]
        assert np.frombuffer(status, dtype=np.int8)[:4].tolist() == [simplex._UPPER] * 4

    def test_artificial_leaving_in_phase_two_stays_out(self):
        a, *_ = program = _artificial_leaving_program()
        _, calls = _assert_retraces_reference(*program)
        artificial = a.shape[1] + 2
        assert artificial in np.frombuffer(calls[0][1], dtype=np.int64)
        assert artificial not in np.frombuffer(calls[2][1], dtype=np.int64)

    def test_degenerate_qber_scan_program(self):
        problem = _degenerate_qber_scan_problem()
        assert problem.warnings
        results, calls = _assert_retraces_reference(*_decoy_targets(problem))
        assert len(results) == len(TARGET_PAIRS)
        assert sum(pivots for pivots, *_ in calls) > 0

    @pytest.mark.parametrize("loss_db", [20.0, 40.0])
    def test_finite_sweep_program(self, loss_db):
        results, _ = _assert_retraces_reference(*_decoy_targets(_finite_sweep_problem(loss_db)))
        assert len(results) == len(TARGET_PAIRS)


@pytest.mark.parametrize("loss_db", [20.0, 40.0])
def test_dantzig_pricing_takes_fewer_phase_two_pivots_on_the_finite_sweep(loss_db):
    program = _decoy_targets(_finite_sweep_problem(loss_db))
    dantzig = _trace_solves(_lean_loop, *program)[1]
    bland = _trace_solves(_budget_zero, *program)[1]
    assert len(dantzig) == len(bland) == 1 + len(TARGET_PAIRS)
    assert dantzig[0][:5] == bland[0][:5]  # phase 1 is the same loop either way
    assert sum(call[0] for call in dantzig[1:]) < sum(call[0] for call in bland[1:])


# ---------------------------------------------------------------------------
# The lockstep stack against the scalar loop

_stack_loop = simplex._run_stack  # the package stack loop, unpatched


def _trace_stack(a, b, upper, objectives):
    """maximize_stack on stacked LP data, with every _run_stack call recorded per LP.

    Returns the values (None where the stack reports a failure) and, per
    LP, its loop calls in _trace_solves' layout: pivot count, final basis,
    status, basic values and tableau bytes, and the degenerate budget.
    """
    calls = []

    def recording(cost, stack, degenerate_budget):
        outcome = _stack_loop(cost, stack, degenerate_budget)
        if outcome is not None:
            order, pivots = outcome
            calls.append((order.copy(), [
                (int(pivots[slot]), stack.basis[slot].tobytes(), stack.status[slot].tobytes(),
                 stack.x_basic[slot].tobytes(), stack.tableau[slot].tobytes(), degenerate_budget)
                for slot in range(len(order))
            ]))
        return outcome

    with mock.patch.object(simplex, "_run_stack", recording):
        values = simplex.maximize_stack(a, b, upper, objectives)
    per_lp = [[] for _ in range(len(a))]
    prepared = None  # phase 1 leaves LP prepared[s] in slot s, which phase 2 starts from
    for order, records in calls:
        lps = order if prepared is None else prepared[order]
        prepared = order if prepared is None else prepared
        for lp, record in zip(lps, records):
            per_lp[lp].append(record)
    return values, per_lp


def _assert_stack_retraces_scalar_loop(programs, objectives):
    """Stack the programs (a, b, upper) of one shape and hold every LP to the scalar loop.

    Where the scalar path raises for some LP, the stack reports a failure;
    otherwise each LP's loop calls and maxima equal the scalar path's, bit
    for bit.  Returns the per-LP calls, or None after a failure.
    """
    a, b, upper = (np.array(parts) for parts in zip(*programs))
    values, per_lp = _trace_stack(a, b, upper, objectives)
    scalar = [_trace_solves(_lean_loop, *program, objectives) for program in programs]
    assert (values is None) == any(isinstance(results, str) for results, _ in scalar)
    if values is None:
        return None
    for lp, (results, calls) in enumerate(scalar):
        assert per_lp[lp] == calls, f"LP {lp} of {len(programs)}"
        assert [np.float64(value).tobytes() for value in values[lp]] == [value for _, value in results]
    return per_lp


def _decoy_stack(problems):
    """Equality forms of decoy problems as stacked programs, and their target objectives."""
    programs = [_decoy_targets(problem)[:3] for problem in problems]
    return programs, _decoy_targets(problems[0])[3]


def _scan_problems(config):
    """The QBER scan's decoy problems, one per grid point."""
    scenario = config.scenario()
    return [
        build_problem(observations_from_scenario(scenario, (max(v, config.nu), min(v, config.nu), 0.0),
                                                 (config.mu_b, config.nu, 0.0)))
        for v in config.s_a_grid
    ]


def _near_tie_program():
    # x0 enters first in phase 1 and meets three rows whose ratios 1 + 2u,
    # 1 + u and 1 (u one ulp of 1) lie within the 1e-15 tie window: the
    # scalar test keeps row 0, the smallest ratio is row 2's
    u = np.spacing(1.0)
    a = np.hstack([np.ones((3, 1)), np.eye(3)])
    return a, np.array([1.0 + 2.0 * u, 1.0 + u, 1.0]), np.full(4, np.inf), [np.array([1.0, 0.0, 0.0, 0.0])]


_STACKED_PROGRAMS = {
    **_FIXED_PROGRAMS,
    "near_tie": _near_tie_program,
    "beale_cycling": _beale_program,
}


def _golden_scan_config():
    return QberScanConfig.from_dict(json.loads((GOLDEN / "qber_scan.json").read_text()))


def _seed_one_scan_grid():
    """The benchmark's qber_scan grid at seed 1: 2,000 log-spaced points in
    [1e-3, 1] and the degenerate point s_a = nu = 0.01, shuffled."""
    grid = sorted({10.0 ** (-3.0 + 3.0 * i / 1999) for i in range(2000)} | {0.01})
    random.Random(1).shuffle(grid)
    return grid


class TestStackRetracesScalarLoop:
    """maximize_stack against the scalar loop, LP by LP, bit for bit."""

    @pytest.mark.parametrize("program", _STACKED_PROGRAMS)
    def test_fixed_programs(self, program):
        a, b, upper, objectives = _STACKED_PROGRAMS[program]()
        # the program, a copy at half the right-hand side, and the program again
        per_lp = _assert_stack_retraces_scalar_loop([(a, b, upper), (a, 0.5 * b, upper), (a, b, upper)], objectives)
        assert per_lp is not None and per_lp[0] == per_lp[2]

    @pytest.mark.parametrize("program", ["bound_flips", "near_tie"])
    def test_a_stack_of_one(self, program):
        a, b, upper, objectives = _STACKED_PROGRAMS[program]()
        assert _assert_stack_retraces_scalar_loop([(a, b, upper)], objectives) is not None

    def test_near_ties_take_the_scalar_ratio_test(self):
        a, b, upper, objectives = _near_tie_program()
        with mock.patch.object(simplex, "_ratio_test", wraps=simplex._ratio_test) as ratio_test:
            _, ((phase_one, *_),) = _trace_stack(a[None], b[None], upper[None], objectives)
        assert ratio_test.call_count >= 1
        # x0 holds row 0, the scalar test's choice, not row 2 of the smallest ratio
        assert np.frombuffer(phase_one[1], dtype=np.int64).tolist().index(0) == 0
        _assert_stack_retraces_scalar_loop([(a, b, upper)], objectives)

    def test_bound_flips_and_the_bland_fallback_are_exercised(self):
        a, b, upper, objectives = _bound_flip_program()
        per_lp = _assert_stack_retraces_scalar_loop([(a, b, upper)] * 2, objectives)
        assert per_lp[0][0][0] == 5  # four bound flips, then x4 replaces the artificial
        a, b, upper, objectives = _beale_program()
        with mock.patch.object(simplex, "_DANTZIG_DEGENERATE_LIMIT", 2):
            # a short budget makes Beale's cycle reach the Bland fallback within the stack
            _assert_stack_retraces_scalar_loop([(a, b, upper)] * 2, objectives)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 6), columns=st.integers(1, 12), stack=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 3), st.booleans(), st.booleans()),
        min_size=1, max_size=6))
    def test_random_boxed_programs(self, rows, columns, stack):
        programs = [_random_program(seed, rows, columns, *flags) for seed, *flags in stack]
        _assert_stack_retraces_scalar_loop([program[:3] for program in programs], programs[0][3])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(lps=st.lists(st.tuples(
        st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.floats(0.0, 0.1), st.sampled_from([0.0, 1e-8, 1e-6]),
        st.tuples(st.floats(1e-3, 1.0), st.floats(0.0, 1.0), st.floats(1e-3, 1.0), st.floats(0.0, 1.0)),
        st.one_of(st.none(), st.floats(8.0, 14.0))), min_size=1, max_size=5))
    def test_decoy_lps_asymptotic_and_finite(self, lps):
        problems = []
        for eta_a, eta_b, e_d, p_d, (mu_a, nu_share_a, mu_b, nu_share_b), log_pulses in lps:
            # a share of 1 makes the degenerate decoy set mu == nu
            decoys_a, decoys_b = (mu_a, mu_a * nu_share_a, 0.0), (mu_b, mu_b * nu_share_b, 0.0)
            scenario = ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=p_d, e_d=e_d)
            if log_pulses is None:
                obs = observations_from_scenario(scenario, decoys_a, decoys_b)
                problems.append(build_problem(obs))
            else:
                obs = observations_from_scenario(scenario, decoys_a, decoys_b, n_pulses=10.0**log_pulses,
                                                 probabilities_a=(0.1, 0.05, 0.05), probabilities_b=(0.2, 0.1, 0.1))
                problems.append(build_problem(obs, sigma_multiplier=5.3))
        assert _assert_stack_retraces_scalar_loop(*_decoy_stack(problems)) is not None

    def test_golden_scan_grid(self):
        config = _golden_scan_config()
        assert config.nu in config.s_a_grid  # the degenerate point s_a = nu
        assert _assert_stack_retraces_scalar_loop(*_decoy_stack(_scan_problems(config))) is not None

    def test_seed_one_scan_grid_in_stacks(self):
        config = QberScanConfig(s_a_grid=tuple(_seed_one_scan_grid()))
        problems = _scan_problems(config)
        # the stacks that yield_bounds draws: ceil(2001 / STACK_SIZE) of them, the last holding the rest
        stacks = [problems[start:start + STACK_SIZE] for start in range(0, len(problems), STACK_SIZE)]
        pivots = [0, 0]
        for stack in stacks:
            for calls in _assert_stack_retraces_scalar_loop(*_decoy_stack(stack)):
                pivots[0] += calls[0][0]
                pivots[1] += sum(call[0] for call in calls[1:])
        assert pivots == [18_006, 21_414]


def test_phase_one_start_negates_the_rows_of_negative_right_hand_sides():
    # each row with b < 0 holds -a, zeros as -0.0, next to the identity of the artificials; b becomes |b|
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, size=(3, 4, 6))
    a[rng.uniform(size=a.shape) < 0.3] = 0.0
    b = rng.uniform(-1.0, 1.0, size=(3, 4))
    b[0] = [-0.0, 0.0, -1.0, 1.0]
    state, cost = simplex._phase_one_start(a, b, np.ones((3, 6)))
    expected = np.concatenate([np.where(b[..., None] < 0.0, -a, a), np.broadcast_to(np.eye(4), (3, 4, 4))], axis=-1)
    assert state.tableau.tobytes() == expected.tobytes()
    assert state.rhs.tobytes() == np.abs(b).tobytes() and cost.tolist() == [0.0] * 6 + [-1.0] * 4


def _pivots_of(solve):
    """solve()'s result and the pivots that _run_simplex took inside it."""
    pivots = []
    loop = simplex._run_simplex

    def counting(cost, state, degenerate_budget):
        pivots.append(loop(cost, state, degenerate_budget))
        return pivots[-1]

    with mock.patch.object(simplex, "_run_simplex", counting):
        return solve(), sum(pivots)


class TestDualSimplex:
    """A carried basis that rebase did not find optimal, re-solved by reoptimize."""

    A = np.array([[1.0, 1.0, 1.0]])  # x0 + x1 + s = b

    def _carried(self, objective, box, new_box, b, new_b):
        """The optimal state at (b, box), carried by rebase to (new_b, new_box)."""
        state = prepare(self.A, np.array([b]), box)
        maximize_prepared(state, objective)
        carried, kept, optimal = _rebase_one(state, objective, self.A, np.array([new_b]), new_box)
        assert kept and not optimal
        return carried

    def test_the_dual_loop_reaches_the_cold_maximum_with_fewer_pivots(self):
        # max 2 x0 + x1, x0 <= 0.5: at b = 1.2 x1 is basic at 0.7; at b = 1.7 it would be 1.2, above its box
        objective, box = np.array([2.0, 1.0, 0.0]), np.array([0.5, 1.0, 1.0])
        carried = self._carried(objective, box, box, 1.2, 1.7)
        assert carried.x_basic.max() > 1.0
        (dual_pivots, optimal), phase_two_pivots = _pivots_of(
            lambda: simplex.reoptimize(carried, objective, self.A, np.array([1.7])))
        assert optimal and dual_pivots == 1 and phase_two_pivots == 0
        assert ((carried.x_basic >= 0.0) & (carried.x_basic <= carried.upper[carried.basis])).all()
        x, value = simplex.optimum(carried, objective)
        (cold_x, cold_value), cold_pivots = _pivots_of(lambda: maximize(objective, self.A, np.array([1.7]), box))
        assert value == cold_value == 2.0 and x.tobytes() == cold_x.tobytes()
        assert dual_pivots < cold_pivots
        # phase 2 from the restored state enters nothing and returns the same bits
        (again_x, again), again_pivots = _pivots_of(lambda: maximize_prepared(carried, objective))
        assert again_pivots == 0 and (again_x.tobytes(), again) == (x.tobytes(), value)

    def test_a_start_that_is_not_dual_feasible_is_given_up(self):
        # max 2 x0 + x1 + 2 s with s boxed to 0: once its box opens, s prices at +1 and no dual step is taken
        objective = np.array([2.0, 1.0, 2.0])
        carried = self._carried(objective, np.array([0.5, 1.0, 0.0]), np.array([0.5, 1.0, 1.0]), 1.2, 1.7)
        before = carried.copy()
        assert simplex.reoptimize(carried, objective, self.A, np.array([1.7])) == (0, False)
        assert carried.tableau.tobytes() == before.tableau.tobytes()

    def test_a_start_in_its_boxes_that_prices_a_column_in_runs_phase_two_from_its_own_basis(self):
        # max s with s boxed to 0 at b = 1: x0 sits at its upper bound 1 and x1 is basic at exactly 0.
        # Once the box of s opens, the carried basis still lies in its boxes, on a bound, and s prices
        # in at +1: phase 2 runs from that basis, so the target needs no other target's basis
        objective = np.array([0.0, 0.0, 1.0])
        carried = self._carried(objective, np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0]), 1.0, 1.0)
        assert carried.x_basic.tolist() == [0.0] and carried.basis.tolist() == [1]
        cost = np.concatenate((objective, [0.0]))
        scores = (cost - cost[carried.basis] @ carried.tableau) * simplex._signs(carried.status, carried.upper)
        assert scores.max() > simplex.COST_TOLERANCE
        outcome, phase_two_pivots = _pivots_of(lambda: simplex.reoptimize(carried, objective, self.A, np.array([1.0])))
        assert outcome == (0, True) and phase_two_pivots == 2
        x, value = simplex.optimum(carried, objective)
        cold_x, cold_value = maximize(objective, self.A, np.array([1.0]), np.array([1.0, 1.0, 1.0]))
        assert value == cold_value == 1.0 and x.tobytes() == cold_x.tobytes()

    def test_the_iteration_cap_gives_up(self, monkeypatch):
        objective, box = np.array([2.0, 1.0, 0.0]), np.array([0.5, 1.0, 1.0])
        monkeypatch.setattr(simplex, "_DUAL_ITERATIONS", 0)
        carried = self._carried(objective, box, box, 1.2, 1.7)
        assert simplex.reoptimize(carried, objective, self.A, np.array([1.7])) == (0, False)

    def test_an_infeasible_row_is_given_up(self):
        # b = -0.1 admits no point in the boxes: one pivot takes x1 up to 0 and x0 below it, and no
        # column moves x0 back up
        objective, box = np.array([2.0, 1.0, 0.0]), np.array([0.5, 1.0, 1.0])
        carried = self._carried(objective, box, box, 1.2, -0.1)
        assert simplex.reoptimize(carried, objective, self.A, np.array([-0.1])) == (1, False)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @_random_programs
    def test_random_steps_in_b_end_in_the_boxes_at_the_cold_maximum(self, **program):
        a, b, upper, objectives = _random_program(**program)
        rng = np.random.default_rng(program["seed"])
        try:
            state = prepare(a, b, upper)
        except InfeasibleProblemError:
            return
        objective = objectives[0]
        maximize_prepared(state, objective)
        step = b + rng.normal(0.0, 0.2, size=b.shape)
        restored, carried, optimal = _rebase_one(state, objective, a, step, upper)
        if not carried or optimal:
            return
        _, optimal = simplex.reoptimize(restored, objective, a, step)
        if not optimal:
            return
        # the state the loop reports optimal lies in its boxes and is what phase 2 returns from it
        assert ((restored.x_basic >= 0.0) & (restored.x_basic <= restored.upper[restored.basis])).all()
        x, value = simplex.optimum(restored, objective)
        again_x, again = maximize_prepared(restored, objective)
        assert (again_x.tobytes(), again) == (x.tobytes(), value)
        assert value == pytest.approx(maximize(objective, a, step, upper)[1], abs=1e-9)
