"""Small dense simplex solver for box-constrained linear programs.

Solves   maximize c.x   subject to   A x = b,  0 <= x <= ub
with per-variable upper bounds handled implicitly (variables may sit
nonbasic at either bound), which keeps the tableau at the number of
equality rows rather than the number of box constraints.

Phase 2 enters the variable with the largest signed reduced cost
(Dantzig's rule; argmax keeps the first maximum, so ties go to the
smallest index).  After _DANTZIG_DEGENERATE_LIMIT degenerate steps in a
row (steps of length 0) it switches to Bland's smallest-index rule until
the next step that is not degenerate, which keeps the iteration
anti-cycling (Bland, Math. Oper. Res. 2:103, 1977).  Phase 1 enters by
Bland's rule alone (a degenerate budget of 0): on the decoy LP, Dantzig's
rule there took more pivots, not fewer.  The leaving row always follows
Bland's smallest basis index among tied ratios.  The iteration is fully
deterministic and no state survives between calls.

Feasibility is established once by a phase-1 pass with artificial
variables; copies of the resulting basis start phase 2, which runs in
place, for several objectives over the same constraints.  Final states,
stacked one per objective, can be carried to new data (rebase): the
artificial columns hold B^-1, so the basic values are recomputed
directly, and a new matrix, or a drifted B^-1, gets the tableaux rebuilt
from inverses of the basis blocks (LAPACK).  A state in its boxes,
0 <= x_B <= upper, that prices no column in is optimal, and its value is
read as it stands (column_values).  reoptimize takes every other one:
phase 2 in its boxes, dual pivots out of them (a step in b keeps the
reduced costs, so the basis still prices no column in; Koberstein, PhD
thesis, Paderborn 2005).  It ends where the basis is optimal, with an
inverse that still passes rebase's test, or gives the basis up, which is
then never read.

The tableaux are small (the decoy LP has 9 rows and 118 columns), so an
iteration costs mostly interpreter overhead, and the loop keeps that low
without changing a single decision or float.  A per-variable sign (+1 at
the lower bound, -1 at the upper bound, 0 when basic or when the box is
empty) turns the entering test into one signed comparison,
reduced * sign > COST_TOLERANCE, and Dantzig's choice into one argmax over
the same scores; negating by 1 is exact, so both select what the separate
lower/upper tests would.  The ratio test, _ratio_test, runs over plain
Python floats taken from the row arrays once per iteration.

Many independent LPs of one shape can instead run as a stack:
maximize_stack is prepare and maximize_prepared for every LP of the stack,
in lockstep, one objective at a time.  Each step prices all running LPs
with one np.matmul over the stack of (1, m) @ (m, n) products, the same
BLAS product per LP as the scalar loop's cost[basis] @ tableau, and takes
each LP's entering variable by the scalar rules (Bland's in phase 1,
Dantzig's with the Bland fallback in phase 2, by each LP's own run of
degenerate steps).  The ratio test runs on whole arrays: it takes the
smallest ratio and, among ratios exactly equal to it, the row whose basic
variable has the smallest index, or the bound flip when the entering
variable's own box is shorter.  That shortcut is taken only where every
other ratio, and the box, lies clearly above the step (by 1e-14 plus
1e-15 relative); within the 1e-15 window of the scalar test, where the
order of the rows matters, _ratio_test itself decides for that LP.  The
pivot updates the tableau one row at a time over the running LPs with the
scalar loop's expressions; an LP that does not pivot subtracts
+0.0 * +0.0, which leaves every entry as it was.  LPs that finish swap to
the back of the stack, so a step touches only the running ones.  Every LP
therefore takes the scalar loop's entering and leaving choices and ends
with its floats, bit for bit.  Where the scalar loop would raise for an
LP (iteration limit, unbounded step, no feasible point, non-finite data),
the stack reports a failure instead, so that its caller can run the
scalar path LP by LP and meet the first error in order.

A stack of one LP costs about five times the scalar loop (152 against
32 us per pivot on the decoy LP, setup included, on a shared 2-core
Xeon), so the finite search runs the scalar loop per target, on views
into its stack of bases; the scalar loop is also the reference that the
stack is tested against.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleProblemError, UnboundedProblemError

_LOWER, _UPPER, _BASIC = 0, 1, 2

COST_TOLERANCE = 1e-11
PIVOT_TOLERANCE = 1e-11
FEASIBILITY_TOLERANCE = 1e-9
#: Largest first-order error in a basic value that rebase accepts from a
#: carried or rebuilt tableau.
REBASE_TOLERANCE = 1e-12
_MAX_ITERATIONS = 50_000

#: Degenerate phase-2 steps in a row after which pricing falls back to
#: Bland's rule until a step makes progress.
_DANTZIG_DEGENERATE_LIMIT = 20

#: Pivots after which the dual loop gives up on a carried basis.
_DUAL_ITERATIONS = 20

_NO_ROW = np.iinfo(np.int64).max  # above every basis index


@dataclass
class PreparedBasis:
    """Feasible basis snapshot produced by phase 1.

    In a stack every array carries a leading axis with one entry per LP.
    """

    tableau: np.ndarray   # (m, n_total) = B^-1 A, artificial columns included
    rhs: np.ndarray       # B^-1 b, kept in sync through the same pivots
    basis: np.ndarray     # variable index occupying each row
    status: np.ndarray    # per-variable _LOWER/_UPPER/_BASIC
    x_basic: np.ndarray   # current values of the basic variables
    upper: np.ndarray     # per-variable upper bounds (artificials pinned to 0)
    n_structural: int
    _ARRAYS = ("tableau", "rhs", "basis", "status", "x_basic", "upper")  # the fields with one entry per LP

    def copy(self) -> "PreparedBasis":
        return PreparedBasis(
            self.tableau.copy(), self.rhs.copy(), self.basis.copy(), self.status.copy(),
            self.x_basic.copy(), self.upper.copy(), self.n_structural,
        )

    def __getitem__(self, lp) -> "PreparedBasis":
        """LP lp of a stack, whose arrays are views into the stack's for an integer lp."""
        return PreparedBasis(self.tableau[lp], self.rhs[lp], self.basis[lp], self.status[lp], self.x_basic[lp],
                             self.upper[lp], self.n_structural)

    def __setitem__(self, lp: int, state: "PreparedBasis") -> None:
        for name in self._ARRAYS:  # a copy of state in LP lp of the stack
            getattr(self, name)[lp] = getattr(state, name)

    @classmethod
    def stacked(cls, states: list) -> "PreparedBasis":
        """One stack of copies of states of one shape, in order."""
        return cls(*(np.array([getattr(state, name) for state in states]) for name in cls._ARRAYS),
                   states[0].n_structural)

    def refresh_basics(self) -> None:
        """Recompute basic values from the pivoted system, removing drift.

        x_B = B^-1 b - sum over nonbasic-at-upper columns of B^-1 A_j ub_j.
        """
        np.copyto(self.x_basic, self.rhs)
        at_upper = np.flatnonzero(self.status == _UPPER)
        if at_upper.size:
            self.x_basic -= self.tableau[:, at_upper] @ self.upper[at_upper]


def _refresh_stack(stack: PreparedBasis) -> None:
    """refresh_basics for every LP of a stack, with its products and bits."""
    np.copyto(stack.x_basic, stack.rhs)
    at_upper = stack.status == _UPPER
    for lp in at_upper.any(axis=1).nonzero()[0]:
        columns = at_upper[lp].nonzero()[0]
        stack.x_basic[lp] -= stack.tableau[lp][:, columns] @ stack.upper[lp, columns]


def _ratio_test(column: list, x_basic: list, basis: list, upper: list, step: float) -> tuple[float, int]:
    """Step length and leaving row (-1 for a bound flip) for one entering column.

    The step runs until a basic variable hits one of its bounds or the
    entering variable spans its own box (the given step).  Rows are scanned
    in order; a ratio within 1e-15 of the current step replaces it when its
    basic variable has the smaller index.
    """
    leaving_row = -1
    for i, (a, x_i) in enumerate(zip(column, x_basic)):
        if a > PIVOT_TOLERANCE:
            limit = max(0.0, x_i) / a
        elif a < -PIVOT_TOLERANCE:
            ub_i = upper[basis[i]]
            if not math.isfinite(ub_i):
                continue
            limit = (x_i - ub_i) / a
            if limit < 0.0:
                limit = 0.0
        else:
            continue
        if limit < step - 1e-15 or (
            leaving_row >= 0 and abs(limit - step) <= 1e-15 and basis[i] < basis[leaving_row]
        ):
            step = limit
            leaving_row = i
    return step, leaving_row


_SIGN_OF_STATUS = np.array([1.0, -1.0, 0.0])  # by _LOWER, _UPPER, _BASIC


def _signs(status: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """+1 at lower, -1 at upper, 0 when basic or when the box is empty."""
    return np.where(upper > 0.0, _SIGN_OF_STATUS.take(status), 0.0)


def _run_simplex(cost: np.ndarray, state: PreparedBasis, degenerate_budget: int) -> int:
    """Iterate to optimality for the given objective; returns iteration count.

    Enters by Dantzig's rule while fewer than ``degenerate_budget``
    degenerate steps ran in a row, by Bland's rule otherwise; a budget of
    0 is Bland's rule throughout.
    """
    tableau, basis, status, x_basic, upper = (
        state.tableau, state.basis, state.status, state.x_basic, state.upper,
    )
    sign = _signs(status, upper)
    upper_list = upper.tolist()
    basis_list = basis.tolist()
    iterations = 0
    degenerate_run = 0
    while True:
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            raise RuntimeError("simplex iteration limit exceeded")

        scores = (cost - cost[basis] @ tableau) * sign
        if degenerate_run < degenerate_budget:
            entering = int(scores.argmax())  # Dantzig: largest signed reduced cost
            if not scores[entering] > COST_TOLERANCE:
                return iterations - 1
        else:
            candidates = (scores > COST_TOLERANCE).nonzero()[0]
            if candidates.size == 0:
                return iterations - 1
            entering = int(candidates[0])  # Bland: smallest index
        direction = 1.0 if status[entering] == _LOWER else -1.0
        column = direction * tableau[:, entering]
        step, leaving_row = _ratio_test(column.tolist(), x_basic.tolist(), basis_list, upper_list,
                                        upper_list[entering])
        if not math.isfinite(step):
            raise UnboundedProblemError("objective unbounded along entering variable")

        degenerate_run = degenerate_run + 1 if step == 0.0 else 0
        x_basic -= step * column
        if leaving_row < 0:
            # Entering variable traverses its whole box: bound flip only.
            status[entering] = _UPPER if status[entering] == _LOWER else _LOWER
            sign[entering] = -sign[entering]
            continue

        entering_value = (0.0 if direction > 0.0 else upper_list[entering]) + direction * step
        _pivot(state, sign, leaving_row, entering, column[leaving_row] < 0.0)
        basis_list[leaving_row] = entering
        x_basic[leaving_row] = entering_value


def _pivot(state: PreparedBasis, sign: np.ndarray, row: int, entering: int, to_upper: bool) -> None:
    """Exchange row's basic variable, which leaves at its upper bound or at 0, for the entering one."""
    tableau, rhs = state.tableau, state.rhs
    leaving = state.basis[row]
    state.status[leaving] = _UPPER if to_upper else _LOWER
    if state.upper[leaving] > 0.0:
        sign[leaving] = -1.0 if to_upper else 1.0
    pivot = tableau[row, entering]
    tableau[row] /= pivot
    rhs[row] /= pivot
    factors = tableau[:, entering].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    rhs -= factors * rhs[row]
    state.status[entering] = _BASIC
    sign[entering] = 0.0
    state.basis[row] = entering


def _dual_ratio_test(rho: np.ndarray, slack: np.ndarray) -> int:
    """Entering candidate of a dual pivot by Harris's two passes (Harris, Math. Program. 5:1, 1973).

    Candidate k moves the leaving row's value toward its box at rate
    rho[k] > 0 and has the dual slack slack[k], its negated signed reduced
    cost.  Pass 1 takes the longest dual step that keeps every slack above
    -COST_TOLERANCE; pass 2 takes, among the candidates whose own ratio
    fits within it, the one with the largest rho (the first of equals), so
    no tiny pivot is taken where a larger one ties.
    """
    longest = ((slack + COST_TOLERANCE) / rho).min()
    return int(np.where(slack / rho <= longest, rho, 0.0).argmax())


def _run_stack(cost: np.ndarray, stack: PreparedBasis,
               degenerate_budget: int) -> tuple[np.ndarray, np.ndarray] | None:
    """_run_simplex on every LP of a stack in lockstep.

    LPs change slots as they finish.  Returns (order, iterations): slot s
    then holds the LP that started in slot order[s], which took
    iterations[s] iterations.  Returns None, leaving the stack in an
    unspecified state, where _run_simplex would raise for some LP of the
    stack, or where a ratio comes out NaN, which finite data never gives.
    """
    tableau, rhs, basis, status, x_basic, upper = (
        stack.tableau, stack.rhs, stack.basis, stack.status, stack.x_basic, stack.upper,
    )
    sign = _signs(status, upper)
    size, rows = rhs.shape
    order = np.arange(size)  # LP held in each slot
    iterations = np.zeros(size, dtype=np.int64)
    degenerate_run = np.zeros(size, dtype=np.int64)
    # the tableau row by row, so that swapping LPs makes no (LPs, m, n) copies
    per_lp = [*tableau.swapaxes(0, 1), rhs, basis, status, x_basic, upper, sign, order, iterations, degenerate_run]
    running = size  # LPs in slots [0, running) still iterate
    while running:
        iterations[:running] += 1
        if iterations[0] > _MAX_ITERATIONS:  # every running LP has taken the same number of steps
            return None
        live = np.s_[:running]
        scores = np.matmul(cost[basis[live]][:, None, :], tableau[live])[:, 0]
        np.subtract(cost, scores, out=scores)  # in place, so that a step makes one (LPs, n) array, not three
        scores *= sign[live]
        lps = np.arange(running)
        if degenerate_budget:
            entering = scores.argmax(axis=1)  # Dantzig: largest signed reduced cost
            finished = ~(scores[lps, entering] > COST_TOLERANCE)
            bland = np.flatnonzero(degenerate_run[live] >= degenerate_budget)
            if bland.size:
                improving = scores[bland] > COST_TOLERANCE
                entering[bland] = improving.argmax(axis=1)
                finished[bland] = ~improving.any(axis=1)
        else:
            improving = scores > COST_TOLERANCE
            entering = improving.argmax(axis=1)  # Bland: smallest index
            finished = ~improving[lps, entering]

        if finished.any():
            iterations[live][finished] -= 1
            # swap the finished LPs behind the running ones
            running -= int(finished.sum())
            holes = np.flatnonzero(finished[:running])
            movers = running + np.flatnonzero(~finished[running:])
            if holes.size:
                for array in per_lp + [entering]:
                    array[holes], array[movers] = array[movers], array[holes]
            if not running:
                break
            live = np.s_[:running]
            lps = np.arange(running)
            entering = entering[live]

        direction = sign[lps, entering]  # +1.0 from the lower bound, -1.0 from the upper
        column = direction[:, None] * tableau[lps, :, entering]
        x = x_basic[live]
        box = upper[lps, entering]

        # The ratio test on whole arrays.  A row that _ratio_test skips gets
        # an infinite ratio: its column is within the pivot tolerance, or
        # its bound is infinite, where (x - inf) / column is +inf already.
        positive = column > PIVOT_TOLERANCE
        limits = np.full(column.shape, np.inf)
        np.divide(np.where(positive, np.where(x > 0.0, x, 0.0), x - upper[lps[:, None], basis[live]]), column,
                  out=limits, where=positive | (column < -PIVOT_TOLERANCE))
        limits = np.where(limits < 0.0, 0.0, limits)
        low = limits.min(axis=1)
        tied = limits == low[:, None]
        flip = box < low
        leaving = np.where(flip, -1, np.where(tied, basis[live], _NO_ROW).argmin(axis=1))
        step = np.where(flip, box, limits[lps, leaving])
        if not np.isfinite(step).all():
            return None
        # where the next ratio, or the box, lies within reach of the 1e-15
        # window of _ratio_test, the order of the rows decides: it takes over
        following = np.where(flip, low, np.minimum(box, np.where(tied, np.inf, limits).min(axis=1)))
        for lp in np.flatnonzero(~(following - step > 1e-14 + 1e-15 * step)):
            step[lp], leaving[lp] = _ratio_test(column[lp].tolist(), x[lp].tolist(), basis[lp].tolist(),
                                                upper[lp].tolist(), float(box[lp]))

        degenerate_run[live] = np.where(step == 0.0, degenerate_run[live] + 1, 0)
        x -= step[:, None] * column

        flips = np.flatnonzero(leaving < 0)
        if flips.size:
            flipped = entering[flips]
            status[flips, flipped] = np.where(status[flips, flipped] == _LOWER, _UPPER, _LOWER)
            sign[flips, flipped] = -sign[flips, flipped]
        lp = np.flatnonzero(leaving >= 0)
        if not lp.size:
            continue
        row, var = leaving[lp], entering[lp]
        entering_value = np.where(direction[lp] > 0.0, 0.0, upper[lp, var]) + direction[lp] * step[lp]
        leaving_var = basis[lp, row]
        hit_upper = column[lp, row] < 0.0
        status[lp, leaving_var] = np.where(hit_upper, _UPPER, _LOWER)
        sign[lp, leaving_var] = np.where(upper[lp, leaving_var] > 0.0, np.where(hit_upper, -1.0, 1.0),
                                         sign[lp, leaving_var])

        pivot = tableau[lp, row, var]
        tableau[lp, row] /= pivot[:, None]
        rhs[lp, row] /= pivot
        factors = np.zeros((running, rows))
        factors[lp] = tableau[lp, :, var]
        factors[lp, row] = 0.0
        pivot_rows = np.zeros((running, tableau.shape[2]))
        pivot_rows[lp] = tableau[lp, row]
        # an LP that does not pivot subtracts +0.0 * +0.0, which leaves every
        # entry as it was, -0.0 included
        for i in range(rows):  # row by row, so no (running, m, n) temporary
            tableau[live, i] -= factors[:, i, None] * pivot_rows
        pivot_rhs = np.zeros(running)
        pivot_rhs[lp] = rhs[lp, row]
        rhs[live] -= factors * pivot_rhs[:, None]

        status[lp, var] = _BASIC
        sign[lp, var] = 0.0
        basis[lp, row] = var
        x_basic[lp, row] = entering_value

    return order, iterations


def _finite_data(a: np.ndarray, b: np.ndarray, upper: np.ndarray) -> bool:
    """LP data is usable when a and b are finite and upper holds no NaN (it may be infinite).

    NaN would pass the phase-1 residual test and read as feasible, and an
    infinite coefficient fills the tableau with NaN during the pivots.
    """
    return bool(np.isfinite(a).all() and np.isfinite(b).all() and not np.isnan(upper).any())


def _phase_one_start(a: np.ndarray, b: np.ndarray, upper: np.ndarray) -> tuple[PreparedBasis, np.ndarray]:
    """Artificial basis of phase 1 and its cost, for one LP or a stack of them.

    Rows with a negative right-hand side are negated, so that every
    artificial starts at a nonnegative value.
    """
    m, n = a.shape[-2:]
    flip = b < 0.0
    artificials = np.arange(n, n + m)
    tableau = np.zeros(a.shape[:-1] + (n + m,))
    tableau[..., :n] = a
    np.negative(tableau[..., :n], out=tableau[..., :n], where=flip[..., None])
    tableau[..., artificials - n, artificials] = 1.0
    b = np.abs(b)
    upper_full = np.concatenate([upper, np.full(upper.shape[:-1] + (m,), np.inf)], axis=-1)
    status = np.full(upper_full.shape, _LOWER, dtype=np.int8)
    status[..., n:] = _BASIC
    basis = np.zeros(b.shape, dtype=artificials.dtype) + artificials
    cost = np.zeros(n + m)
    cost[n:] = -1.0
    return PreparedBasis(tableau, b, basis, status, b.copy(), upper_full, n), cost


def _residuals(state: PreparedBasis) -> np.ndarray:
    """Value of each row's basic variable where it is an artificial, 0 elsewhere.

    After phase 1 a value above FEASIBILITY_TOLERANCE means the constraints
    admit no feasible point.
    """
    return np.where(state.basis >= state.n_structural, state.x_basic, 0.0)


def _solution(state: PreparedBasis) -> np.ndarray:
    """Structural variables of a refreshed state, per LP in a stack."""
    n = state.n_structural
    x = np.where(state.status[..., :n] == _UPPER, state.upper[..., :n], 0.0)
    structural = state.basis < n
    x[(*np.nonzero(structural)[:-1], state.basis[structural])] = state.x_basic[structural]
    return x


def prepare(a: np.ndarray, b: np.ndarray, upper: np.ndarray) -> PreparedBasis:
    """Phase 1: find a feasible basis for A x = b, 0 <= x <= upper.

    Raises DomainError when a or b is not finite or upper holds NaN
    (upper may be infinite), and InfeasibleProblemError carrying the
    most-violated row index in its ``constraint`` attribute when no
    feasible point exists.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not _finite_data(a, b, upper):
        raise DomainError("LP data must be finite (only an upper bound may be infinite)")
    state, phase1_cost = _phase_one_start(a, b, upper)
    _run_simplex(phase1_cost, state, 0)
    state.refresh_basics()
    residuals = _residuals(state)
    worst_row = int(residuals.argmax())
    if residuals[worst_row] > FEASIBILITY_TOLERANCE:
        raise InfeasibleProblemError(
            f"constraints admit no feasible point (residual {residuals[worst_row]:.3e})",
            constraint=worst_row,
        )
    state.upper[state.n_structural:] = 0.0  # pin artificials for any later objective
    return state


def maximize_prepared(state: PreparedBasis, objective: np.ndarray) -> tuple[np.ndarray, float]:
    """Phase 2 from a feasible state, in place: the state ends optimal, and rebase can carry it over to new data."""
    n = state.n_structural
    cost = np.zeros(state.upper.size)
    cost[:n] = np.asarray(objective, dtype=float)
    _run_simplex(cost, state, _DANTZIG_DEGENERATE_LIMIT)
    state.refresh_basics()
    return optimum(state, cost[:n])


def optimum(state: PreparedBasis, objective: np.ndarray) -> tuple[np.ndarray, float]:
    """The structural variables of a refreshed state and the objective's value there.

    This is what maximize_prepared returns once phase 2 finds the state
    optimal, so a state known to be optimal can be read without phase 2.
    """
    x = _solution(state)
    return x, float(objective @ x)


def rebase(stack: PreparedBasis, objectives: np.ndarray, a: np.ndarray, b: np.ndarray, upper: np.ndarray,
           new_matrix: bool = False) -> tuple[PreparedBasis, np.ndarray, np.ndarray]:
    """Each state of a stack under new data A x = b, 0 <= x <= upper: (copy, carried, optimal).

    State i ended prepare, maximize_prepared or reoptimize on the matrix a,
    or on another one when new_matrix is set.  Its artificial columns hold
    X, the inverse of its basis block B of [a | I]; the basic values are
    recomputed, X b minus the columns at their new upper bounds, and kept
    when X (A x - b), their first-order error at the basis point x, is
    within REBASE_TOLERANCE.  On a new matrix every tableau is rebuilt as
    X [a | I] from a fresh X, and a second pass of the same steps rebuilds
    those whose carried X fails (pivot drift).  carried[i] is False for a
    singular B, a fresh X that fails too, or data that prepare rejects.
    optimal[i]: carried state i lies in its boxes and prices no column in
    for objectives[i] (the test on which phase 2 stops), so optimum gives
    maximize_prepared's result.  Each product is taken per state, with the
    bits of the same steps on that state alone.
    """
    work, n = stack.copy(), stack.n_structural
    rebuilt = np.zeros(len(work.basis), dtype=bool)
    if not _finite_data(a, b, upper):
        return work, rebuilt, rebuilt.copy()
    work.upper[:, :n] = upper
    rebuild = np.full(rebuilt.shape, new_matrix)
    while True:
        if rebuild.any():
            full = np.concatenate((a, np.eye(len(b))), axis=1)
            work.tableau[rebuild] = _inverses(full[:, work.basis[rebuild]].swapaxes(0, 1)) @ full
        rebuilt |= rebuild
        np.matmul(work.tableau[:, :, n:], b, out=work.rhs)
        _refresh_stack(work)
        failed = ~(_first_order_error(work, a, b) <= REBASE_TOLERANCE)
        rebuild = failed & ~rebuilt
        if not rebuild.any():
            break
    lps, x = np.arange(len(work.basis))[:, None], work.x_basic
    cost = np.zeros(work.upper.shape)
    cost[:, :n] = objectives
    reduced = cost - np.matmul(cost[lps, work.basis][:, None], work.tableau)[:, 0]
    priced_in = (reduced * _signs(work.status, work.upper) > COST_TOLERANCE).any(axis=1)
    inside = ((x >= 0.0) & (x <= work.upper[lps, work.basis])).all(axis=1)
    return work, ~failed, ~failed & inside & ~priced_in


def _inverses(blocks: np.ndarray) -> np.ndarray:
    """The inverse of each block of a stack; NaN, which fails every first-order test, for a singular one."""
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError:  # one block at a time, to find the singular ones
        inverses = np.full(blocks.shape, np.nan)
        for lp, block in enumerate(blocks):
            with contextlib.suppress(np.linalg.LinAlgError):
                inverses[lp] = np.linalg.inv(block)
        return inverses


def _first_order_error(state: PreparedBasis, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |X (A x - b)| at the basis point x of each LP: the error that its inverse X leaves in the basic values."""
    n = state.n_structural
    x = np.where(state.status == _UPPER, state.upper, 0.0)
    x[(*np.indices(state.basis.shape, sparse=True)[:-1], state.basis)] = state.x_basic
    residual = np.matmul(a, x[..., :n, None])[..., 0] + x[..., n:] - b
    return np.abs(np.matmul(state.tableau[..., n:], residual[..., None])[..., 0]).max(axis=-1)


def column_values(stack: PreparedBasis, columns) -> np.ndarray:
    """Variable columns[i] at refreshed LP i of a stack: for the unit objective on that column, optimum's float."""
    return _solution(stack)[range(len(columns)), columns]


def reoptimize(state: PreparedBasis, objective: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[int, bool]:
    """Re-solve, in place, a state that rebase carried to A x = b and did not prove optimal.

    In its boxes [0, upper] the basis is feasible, and phase 2
    (maximize_prepared) runs from it.  Out of them it takes dual pivots:
    each takes the basic value furthest outside its box to the bound it
    crossed and enters the column of Harris's ratio test (_dual_ratio_test).
    Returns the dual pivots and whether the state ended optimal: in its
    boxes, no signed reduced cost above COST_TOLERANCE and, after any dual
    pivot, an inverse that passes rebase's first-order test on a and b.  It
    gives up, and leaves the state part-way, not to be read, when a column
    prices in out of the boxes or after a dual pivot, when no column moves
    the leaving value toward its box (no feasible point), after
    _DUAL_ITERATIONS pivots, or when the pivots spoiled the inverse (pivots
    near PIVOT_TOLERANCE have left first-order errors of 7e-2).
    """
    cost = np.zeros(state.upper.size)
    cost[:state.n_structural] = objective
    tableau, basis, x_basic, upper = state.tableau, state.basis, state.x_basic, state.upper
    sign = _signs(state.status, upper)
    pivots = 0
    while True:
        scores = (cost - cost[basis] @ tableau) * sign
        violation = np.maximum(-x_basic, x_basic - upper[basis])
        row = int(violation.argmax())
        if (scores > COST_TOLERANCE).any():
            if pivots or violation[row] > 0.0:
                return pivots, False
            maximize_prepared(state, objective)
            return 0, True
        if not violation[row] > 0.0:
            return pivots, not pivots or _first_order_error(state, a, b) <= REBASE_TOLERANCE
        below = x_basic[row] < 0.0
        rates = (sign if below else -sign) * tableau[row]  # how fast each column moves x_row away from its box
        candidates = np.flatnonzero(rates < -PIVOT_TOLERANCE)
        if pivots == _DUAL_ITERATIONS or not candidates.size:
            return pivots, False
        k = _dual_ratio_test(-rates[candidates], -scores[candidates])
        _pivot(state, sign, row, int(candidates[k]), not below)
        pivots += 1
        state.refresh_basics()


def _maximize_prepared_stack(stack: PreparedBasis, objective: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """maximize_prepared for every LP of a stack: (order, values), LP order[s]
    of the stack reaching values[s]; None where maximize_prepared raises."""
    work = stack.copy()
    n = work.n_structural
    cost = np.zeros(work.upper.shape[1])
    cost[:n] = objective
    outcome = _run_stack(cost, work, _DANTZIG_DEGENERATE_LIMIT)
    if outcome is None:
        return None
    _refresh_stack(work)
    return outcome[0], np.array([float(cost[:n] @ x) for x in _solution(work)])


def maximize_stack(a: np.ndarray, b: np.ndarray, upper: np.ndarray, objectives: np.ndarray) -> np.ndarray | None:
    """prepare and maximize_prepared for every LP of a stack, run in lockstep.

    a, b and upper stack the LPs' data along a leading axis, and each of
    the objectives is maximized over every LP.  values[i, t], the maximum
    of objectives[t] over LP i, is the float that maximize_prepared returns
    for LP i.  Returns None when the scalar path raises for some LP of the
    stack; running it LP by LP then raises the first of those errors.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not _finite_data(a, b, upper):
        return None
    stack, phase1_cost = _phase_one_start(a, b, upper)
    outcome = _run_stack(phase1_cost, stack, 0)
    if outcome is None:
        return None
    prepared_order = outcome[0]
    _refresh_stack(stack)
    if (_residuals(stack) > FEASIBILITY_TOLERANCE).any():
        return None
    stack.upper[:, stack.n_structural:] = 0.0
    values = np.empty((a.shape[0], len(objectives)))
    for target, objective in enumerate(objectives):
        outcome = _maximize_prepared_stack(stack, objective)
        if outcome is None:
            return None
        order, target_values = outcome
        values[prepared_order[order], target] = target_values
    return values
