import csv
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oracles import bland_run_simplex
from tfqkd import simplex
from tfqkd.decoy import TARGET_PAIRS, PHOTON_CUTOFF, _equality_form, build_problem, observations_from_scenario
from tfqkd.errors import DomainError, InfeasibleProblemError, UnboundedProblemError
from tfqkd.experiments import QberScanConfig, SweepConfig
from tfqkd.simplex import maximize_prepared, prepare

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
        mine = maximize_prepared(basis, np.array(cost))[1]
        again = maximize_prepared(basis, np.array(cost))[1]
        assert mine == again  # snapshot is not consumed


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


def _trace_solves(loop, a, b, upper, objectives):
    """Phase 1 and one phase 2 per objective with the given simplex loop.

    Returns the (x, objective) bytes of every solve, or the error raised,
    and for every loop call its pivot count and final basis, status,
    basic values and tableau bytes.
    """
    calls = []

    def recording(cost, state):
        pivots = loop(cost, state)
        calls.append((pivots, state.basis.tobytes(), state.status.tobytes(),
                      state.x_basic.tobytes(), state.tableau.tobytes()))
        return pivots

    with mock.patch.object(simplex, "_run_simplex", recording):
        try:
            basis = prepare(a, b, upper)
            results = []
            for objective in objectives:
                x, value = maximize_prepared(basis, objective)
                results.append((x.tobytes(), np.float64(value).tobytes()))
        except (InfeasibleProblemError, UnboundedProblemError, RuntimeError) as error:
            results = repr(error)
    return results, calls


def _assert_retraces_reference(a, b, upper, objectives):
    lean = _trace_solves(simplex._run_simplex, a, b, upper, objectives)
    reference = _trace_solves(bland_run_simplex, a, b, upper, objectives)
    assert lean == reference
    return lean


class TestLeanLoopRetracesReference:
    """The package loop against the original Bland loop, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        columns=st.integers(1, 12),
        duplicate_row=st.booleans(),
        zero_spans=st.integers(0, 3),
        tight_boxes=st.booleans(),
        degenerate_row=st.booleans(),
    )
    def test_random_boxed_programs(self, seed, rows, columns, duplicate_row, zero_spans, tight_boxes,
                                   degenerate_row):
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
        results, calls = _assert_retraces_reference(a, b, upper, objectives)
        assert isinstance(results, list)
        assert len(calls) == 1 + len(objectives)

    def test_bound_flips_are_exercised(self):
        # x0..x3 have boxes far tighter than the row, so phase 1 moves each
        # across its whole box (a bound flip) before x4 replaces the artificial
        a = np.array([[1.0, 1.0, 1.0, 1.0, 1.0]])
        upper = np.array([0.1, 0.2, 0.3, 0.4, 5.0])
        _, calls = _assert_retraces_reference(a, np.array([1.0]), upper, [np.array([1.0, 2.0, 3.0, 4.0, 0.0])])
        pivots, basis, status = calls[0][:3]
        assert pivots == 5
        assert np.frombuffer(basis, dtype=np.int64).tolist() == [4]
        assert np.frombuffer(status, dtype=np.int8)[:4].tolist() == [simplex._UPPER] * 4

    def test_artificial_leaving_in_phase_two_stays_out(self):
        # the zero-span slack of row 2 pins x1 to 0, so that row's artificial
        # ends phase 1 basic at zero; phase 2 pivots it out, and with its box
        # pinned to [0, 0] it must never be chosen to enter again
        a = np.array([[-0.9, -0.2, 1.0, 0.0, 0.0], [0.3, -0.03, 0.0, 1.0, 0.0], [0.0, -0.4, 0.0, 0.0, 1.0]])
        upper = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        _, calls = _assert_retraces_reference(
            a, np.array([0.4, 0.8, 0.0]), upper, [np.array([-0.8, 0.0, 0.0, -0.05, 0.0])],
        )
        artificial = a.shape[1] + 2
        assert artificial in np.frombuffer(calls[0][1], dtype=np.int64)
        assert artificial not in np.frombuffer(calls[1][1], dtype=np.int64)

    @staticmethod
    def _decoy_targets(problem):
        a, b, ub = _equality_form(problem)
        objectives = []
        for n, m in TARGET_PAIRS:
            objective = np.zeros(a.shape[1])
            objective[n * PHOTON_CUTOFF + m] = 1.0
            objectives.append(objective)
        return a, b, ub, objectives

    def test_degenerate_qber_scan_program(self):
        config = QberScanConfig(s_a_grid=(0.01,))
        (s_a,) = config.s_a_grid
        assert s_a == config.nu  # the scan point whose decoy rows are duplicated
        obs = observations_from_scenario(
            config.scenario(), (s_a, config.nu, 0.0), (config.mu_b, config.nu, 0.0),
        )
        problem = build_problem(obs)
        assert problem.warnings
        results, calls = _assert_retraces_reference(*self._decoy_targets(problem))
        assert len(results) == len(TARGET_PAIRS)
        assert sum(pivots for pivots, *_ in calls) > 0

    @pytest.mark.parametrize("loss_db", [20.0, 40.0])
    def test_finite_sweep_program(self, loss_db):
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
        problem = build_problem(obs, sigma_multiplier=mode.sigma_multiplier)
        results, _ = _assert_retraces_reference(*self._decoy_targets(problem))
        assert len(results) == len(TARGET_PAIRS)

