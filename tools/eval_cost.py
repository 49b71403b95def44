"""Microseconds per evaluate_key_rate call in the three cases a search meets, and per yield LP.

    python tools/eval_cost.py

The scenario is the finite-sweep point of the benchmark: 40 dB total loss,
mismatch 0.1, e_d 0.02, p_d 1e-8, 1e12 pulses and epsilon 1e-7.  Three
evaluation cases are timed, each as REPEATS repeats of CALLS calls:

* finite_fixed_signals: the same finite point every call, so the decoy LP
  and both cat states come from their memos (a line search over a decoy
  or probability revisits its fixed side like this);
* finite_changed_signal: a new side-a signal every call at fixed decoys and
  probabilities, so the LP is memoised but side a's cat state is new;
* asymptotic: a new side-a signal every call in asymptotic mode, on the
  memoised true-yield grid.

Two decoy.yield_lp cases, each as REPEATS repeats of LP_CALLS calls, time
the LP that the first two cases take from the memo, end to end (gains,
build, both simplex phases):

* yield_lp_finite: the finite LP of that point, both sides with decoys
  (0.1, 0.01, 0) and selection probabilities (0.1, 0.05, p_omega);
* yield_lp_qber_exact: the exact LP of the QBER scan at unit transmittance,
  e_d 0.02 and no dark counts, both sides with decoys (0.1, 0.01, 0).

Two more cases time the finite search's re-solve path (decoy.WarmBases),
as REPEATS repeats of LP_CALLS calls, next to yield_lp_finite:

* yield_lp_finite_warm: one probability step at fixed decoys per call.
  The LP of yield_lp_finite is solved once with a WarmBases; each call then
  moves both sides' p_mu by a relative 1e-9 more than the last, never seen
  before, and re-solves from the stored bases, with the last LP's gains
  and coefficients; the case checks that rebase proved each still optimal
  (in its boxes, no column priced in), so that every target was read from
  its own basis and no call ran reoptimize or phase 1.

* yield_lp_finite_decoy_step: one decoy step per call.  The LP of
  yield_lp_finite is solved once with a WarmBases; each call then moves
  both sides' mu by a relative 1e-9 more than the last, which changes the
  LP's matrix, and re-solves from the stored bases, rebuilt on the new
  matrix from one inverse of each basis block; the case checks that every
  target was taken from its own basis, either proven optimal by rebase or
  re-solved by reoptimize (phase 2 or dual pivots), so that no call
  borrowed another target's basis or ran phase 1.

One decoy.yield_bounds case, timed as REPEATS repeats of STACK_CALLS calls,
times the stacked path of the QBER scan per LP, end to end as above:

* yield_lp_qber_stack: one stack of STACK_SIZE exact QBER-scan LPs, side a's
  strong decoy log-spaced over [1e-3, 1] (the weak decoy 0.01, or the strong
  one where it falls below 0.01) against side b's (0.1, 0.01, 0), in the
  scenario of yield_lp_qber_exact.  It reports microseconds per LP, to
  compare with the one-LP calls of yield_lp_qber_exact.

One decoy.build_stack case, timed as REPEATS repeats of LP_CALLS calls,
times the build alone of that stack, without the solve:

* problem_build_qber_stack: the LP arrays of the STACK_SIZE settings of
  yield_lp_qber_stack from one build_stack call (gains, Poisson rows,
  coefficients, tail masses), in microseconds per LP.

A table after the cases gives the cost of the stack size behind
decoy.STACK_SIZE: for stacks of STACK_SIZES settings, made as
yield_lp_qber_stack's are, the microseconds per LP of one yield_bounds call
that solves them as one stack (median and fastest of REPEATS repeats of
STACK_CALLS calls) and the tracemalloc peak of one such call in kB per LP.

Three cases time the asymptotic grid search (optimizer.asymptotic_searches)
per search.  The first two run REPEATS repeats of SWEEP_CALLS passes over
the twelve rows of the benchmark's mismatch-0.1 asymptotic sweep (30, 40
and 50 dB, e_d 0.02, p_d 1e-8, all four strategies, add_fibre on its
padded channel):

* asymptotic_search_alone: each row's search as a stack of one;
* asymptotic_search_lockstep: the twelve searches as one stack, in
  lockstep, as an asymptotic sweep runs them;
* asymptotic_search_long: the 280 searches of a 70-point loss curve (0 to
  69 dB, the same channel) as one stack, once per repeat.  Its 139
  distinct scenarios are more than the true-yield-grid cache holds (64),
  so each search builds its grid once.

Every case is warmed up once before timing.  Each line reports the median
over the repeats of the mean time per call (per LP for the stack, per
search for the searches), and the fastest repeat.  Only the standard library and numpy are used.
"""

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tfqkd import decoy  # noqa: E402  (needs src/ on the path)
from tfqkd.channel import ChannelScenario  # noqa: E402
from tfqkd.decoy import (  # noqa: E402
    STACK_SIZE, TARGET_PAIRS, WarmBases, build_stack, sigma_multiplier_from_epsilon, yield_bounds, yield_lp)
from tfqkd.experiments import split_total_loss  # noqa: E402
from tfqkd.optimizer import (  # noqa: E402
    TIED_SLOTS, EvaluationMode, ProtocolParameters, Strategy, add_fibre_transform, asymptotic_searches,
    evaluate_key_rate)

ETA_A, ETA_B = split_total_loss(40.0, 0.1)
SCENARIO = ChannelScenario(eta_a=ETA_A, eta_b=ETA_B, p_d=1e-8, e_d=0.02)
FINITE = EvaluationMode.finite(1e12, sigma_multiplier_from_epsilon(1e-7))
ASYMPTOTIC = EvaluationMode.asymptotic()
POINT = dict(s_a=0.3, s_b=0.03, mu_a=0.1, nu_a=0.01, mu_b=0.1, nu_b=0.01,
             p_s_a=0.8, p_mu_a=0.1, p_nu_a=0.05, p_s_b=0.8, p_mu_b=0.1, p_nu_b=0.05)
PARAMS = ProtocolParameters(**POINT)
DECOYS = (PARAMS.mu_a, PARAMS.nu_a, 0.0)
PROBABILITIES = (PARAMS.p_mu_a, PARAMS.p_nu_a, PARAMS.p_omega_a)
QBER_SCENARIO = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.02)
STACK_SIZES = (32, 64, 96, 128, 256)  # stack sizes of the table


def _qber_stack(size: int) -> list:
    """size QBER-scan settings: side a's strong decoy log-spaced over [1e-3, 1] against side b's DECOYS."""
    return [((max(v, 0.01), min(v, 0.01), 0.0), DECOYS)
            for v in (10.0 ** (-3.0 + 3.0 * i / (size - 1)) for i in range(size))]


QBER_STACK = _qber_stack(STACK_SIZE)
SWEEP = [(add_fibre_transform(scenario) if strategy is Strategy.ADD_FIBRE else scenario, 0 in TIED_SLOTS[strategy])
         for loss in (30.0, 40.0, 50.0)
         for scenario in (ChannelScenario(*split_total_loss(loss, 0.1), p_d=1e-8, e_d=0.02),)
         for strategy in Strategy]
LONG_SWEEP = [(add_fibre_transform(scenario) if strategy is Strategy.ADD_FIBRE else scenario,
               0 in TIED_SLOTS[strategy])
              for loss in range(70)
              for scenario in (ChannelScenario(*split_total_loss(float(loss), 0.1), p_d=1e-8, e_d=0.02),)
              for strategy in Strategy]
CALLS = 2000  # evaluate_key_rate calls per timed repeat
LP_CALLS = 200  # yield_lp calls per timed repeat
STACK_CALLS = 10  # yield_bounds calls per timed repeat
SWEEP_CALLS = 5  # passes over the sweep's searches per timed repeat
REPEATS = 9  # timed repeats per case


def _signals(start: int) -> list[float]:
    """CALLS distinct side-a signals near POINT's, none of them seen in an earlier repeat."""
    return [POINT["s_a"] * (1.0 + 1e-9 * (start + k)) for k in range(CALLS)]


def _time_case(mode: EvaluationMode, changed: bool) -> list[float]:
    per_call = []
    evaluate_key_rate(SCENARIO, ProtocolParameters(**POINT), mode)
    for repeat in range(REPEATS):
        s_a = _signals((repeat + 1) * CALLS) if changed else [POINT["s_a"]] * CALLS
        points = [ProtocolParameters(**{**POINT, "s_a": value}) for value in s_a]
        start = time.perf_counter()
        for params in points:
            evaluate_key_rate(SCENARIO, params, mode)
        per_call.append((time.perf_counter() - start) / CALLS * 1e6)
    return per_call


def _time_lp(scenario: ChannelScenario, mode: EvaluationMode, probabilities) -> list[float]:
    per_call = []
    yield_lp(scenario, DECOYS, DECOYS, mode, probabilities, probabilities)
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(LP_CALLS):
            yield_lp(scenario, DECOYS, DECOYS, mode, probabilities, probabilities)
        per_call.append((time.perf_counter() - start) / LP_CALLS * 1e6)
    return per_call


def _time_warm_step() -> list[float]:
    per_call = []
    warm = WarmBases()
    yield_lp(SCENARIO, DECOYS, DECOYS, FINITE, PROBABILITIES, PROBABILITIES, warm=warm)
    for repeat in range(REPEATS):
        steps = [(PROBABILITIES[0] * (1.0 + 1e-9 * (repeat * LP_CALLS + k + 1)), *PROBABILITIES[1:])
                 for k in range(LP_CALLS)]
        start = time.perf_counter()
        for probabilities in steps:
            yield_lp(SCENARIO, DECOYS, DECOYS, FINITE, probabilities, probabilities, warm=warm)
        per_call.append((time.perf_counter() - start) / LP_CALLS * 1e6)
    if warm.repriced != len(TARGET_PAIRS) * REPEATS * LP_CALLS or warm.dual_runs:
        raise RuntimeError(f"the warm case read {warm.repriced} targets from their own basis and ran reoptimize "
                           f"{warm.dual_runs} times, not every target of every step from a basis still optimal")
    return per_call


def _time_decoy_step() -> list[float]:
    per_call = []
    warm = WarmBases()
    yield_lp(SCENARIO, DECOYS, DECOYS, FINITE, PROBABILITIES, PROBABILITIES, warm=warm)
    for repeat in range(REPEATS):
        steps = [(DECOYS[0] * (1.0 + 1e-9 * (repeat * LP_CALLS + k + 1)), *DECOYS[1:]) for k in range(LP_CALLS)]
        start = time.perf_counter()
        for decoys in steps:
            yield_lp(SCENARIO, decoys, decoys, FINITE, PROBABILITIES, PROBABILITIES, warm=warm)
        per_call.append((time.perf_counter() - start) / LP_CALLS * 1e6)
    if warm.phase1_runs != 1 or warm.borrowed or warm.repriced != len(TARGET_PAIRS) * REPEATS * LP_CALLS:
        raise RuntimeError(f"the decoy-step case ran phase 1 {warm.phase1_runs} times, not only for its first LP, "
                           f"borrowed {warm.borrowed} starts and took {warm.repriced} targets from their own "
                           "basis, not every target of every step, proven optimal by rebase or re-solved by "
                           "reoptimize")
    return per_call


def _time_stack(stack: list = QBER_STACK) -> list[float]:
    per_lp = []
    yield_bounds(QBER_SCENARIO, stack)
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(STACK_CALLS):
            yield_bounds(QBER_SCENARIO, stack)
        per_lp.append((time.perf_counter() - start) / (STACK_CALLS * len(stack)) * 1e6)
    return per_lp


def _stack_size_row(size: int) -> tuple[list[float], float]:
    """_time_stack on size settings solved as one stack, and the tracemalloc peak of one call in kB per LP."""
    stack, kept = _qber_stack(size), decoy.STACK_SIZE
    decoy.STACK_SIZE = size
    try:
        per_lp = _time_stack(stack)
        tracemalloc.start()
        yield_bounds(QBER_SCENARIO, stack)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    finally:
        decoy.STACK_SIZE = kept
    return per_lp, peak / size / 1e3


def _time_build() -> list[float]:
    per_lp = []
    sides = list(zip(*QBER_STACK))
    build_stack(QBER_SCENARIO, *sides)
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(LP_CALLS):
            build_stack(QBER_SCENARIO, *sides)
        per_lp.append((time.perf_counter() - start) / (LP_CALLS * len(QBER_STACK)) * 1e6)
    return per_lp


def _time_searches(stacks: list, passes: int = SWEEP_CALLS) -> list[float]:
    per_search = []
    for stack in stacks:
        asymptotic_searches(*zip(*stack))
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(passes):
            for stack in stacks:
                asymptotic_searches(*zip(*stack))
        per_search.append((time.perf_counter() - start) / (passes * sum(map(len, stacks))) * 1e6)
    return per_search


def main() -> int:
    cases = (("finite_fixed_signals", lambda: _time_case(FINITE, False), CALLS, "us/call"),
             ("finite_changed_signal", lambda: _time_case(FINITE, True), CALLS, "us/call"),
             ("asymptotic", lambda: _time_case(ASYMPTOTIC, True), CALLS, "us/call"),
             ("yield_lp_finite", lambda: _time_lp(SCENARIO, FINITE, PROBABILITIES), LP_CALLS, "us/call"),
             ("yield_lp_finite_warm", _time_warm_step, LP_CALLS, "us/call"),
             ("yield_lp_finite_decoy_step", _time_decoy_step, LP_CALLS, "us/call"),
             ("yield_lp_qber_exact", lambda: _time_lp(QBER_SCENARIO, ASYMPTOTIC, None), LP_CALLS, "us/call"),
             ("yield_lp_qber_stack", _time_stack, STACK_CALLS, "us/LP"),
             ("problem_build_qber_stack", _time_build, LP_CALLS, "us/LP"),
             ("asymptotic_search_alone", lambda: _time_searches([[row] for row in SWEEP]), SWEEP_CALLS, "us/search"),
             ("asymptotic_search_lockstep", lambda: _time_searches([SWEEP]), SWEEP_CALLS, "us/search"),
             ("asymptotic_search_long", lambda: _time_searches([LONG_SWEEP], 1), 1, "us/search"))
    for name, run, calls, unit in cases:
        times = run()
        print(f"{name:<26} {statistics.median(times):7.1f} {unit:<9}  (fastest repeat {min(times):.1f}; "
              f"{REPEATS} x {calls} calls)")
    print(f"\nstack size (STACK_SIZE is {STACK_SIZE})   us/LP  fastest  peak kB/LP")
    for size in STACK_SIZES:
        times, peak = _stack_size_row(size)
        print(f"{size:<26} {statistics.median(times):7.1f}  {min(times):7.1f}  {peak:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
