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
variables; the resulting basis can be snapshotted and reused for several
objectives over the same constraints.

The tableaux are small (the decoy LP has 9 rows and 118 columns), so an
iteration costs mostly interpreter overhead, and the loop keeps that low
without changing a single decision or float.  A per-variable sign (+1 at
the lower bound, -1 at the upper bound, 0 when basic or when the box is
empty) turns the entering test into one signed comparison,
reduced * sign > COST_TOLERANCE, and Dantzig's choice into one argmax over
the same scores; negating by 1 is exact, so both select what the separate
lower/upper tests would.  The ratio test runs over
plain Python floats taken from the row arrays once per iteration, in the
same order and with the same expressions as a numpy-scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleProblemError, UnboundedProblemError

_LOWER, _UPPER, _BASIC = 0, 1, 2

COST_TOLERANCE = 1e-11
PIVOT_TOLERANCE = 1e-11
FEASIBILITY_TOLERANCE = 1e-9
_MAX_ITERATIONS = 50_000

#: Degenerate phase-2 steps in a row after which pricing falls back to
#: Bland's rule until a step makes progress.
_DANTZIG_DEGENERATE_LIMIT = 20


@dataclass
class PreparedBasis:
    """Feasible basis snapshot produced by phase 1."""

    tableau: np.ndarray   # (m, n_total) = B^-1 A, artificial columns included
    rhs: np.ndarray       # B^-1 b, kept in sync through the same pivots
    basis: np.ndarray     # variable index occupying each row
    status: np.ndarray    # per-variable _LOWER/_UPPER/_BASIC
    x_basic: np.ndarray   # current values of the basic variables
    upper: np.ndarray     # per-variable upper bounds (artificials pinned to 0)
    n_structural: int

    def copy(self) -> "PreparedBasis":
        return PreparedBasis(
            self.tableau.copy(), self.rhs.copy(), self.basis.copy(), self.status.copy(),
            self.x_basic.copy(), self.upper.copy(), self.n_structural,
        )

    def refresh_basics(self) -> None:
        """Recompute basic values from the pivoted system, removing drift.

        x_B = B^-1 b - sum over nonbasic-at-upper columns of B^-1 A_j ub_j.
        """
        values = self.rhs.copy()
        at_upper = np.flatnonzero(self.status == _UPPER)
        if at_upper.size:
            values -= self.tableau[:, at_upper] @ self.upper[at_upper]
        self.x_basic = values


def _run_simplex(cost: np.ndarray, state: PreparedBasis, degenerate_budget: int) -> int:
    """Iterate to optimality for the given objective; returns iteration count.

    Enters by Dantzig's rule while fewer than ``degenerate_budget``
    degenerate steps ran in a row, by Bland's rule otherwise; a budget of
    0 is Bland's rule throughout.
    """
    tableau, basis, status, x_basic, upper = (
        state.tableau, state.basis, state.status, state.x_basic, state.upper,
    )
    # +1 at lower, -1 at upper, 0 when basic or when the box is empty
    sign = np.where(upper > 0.0, np.where(status == _UPPER, -1.0, 1.0), 0.0)
    sign[status == _BASIC] = 0.0
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

        # Ratio test: step until a basic variable hits one of its bounds or
        # the entering variable spans its own box.
        step = upper_list[entering]
        leaving_row = -1
        for i, (a, x_i) in enumerate(zip(column.tolist(), x_basic.tolist())):
            if a > PIVOT_TOLERANCE:
                limit = max(0.0, x_i) / a
            elif a < -PIVOT_TOLERANCE:
                ub_i = upper_list[basis_list[i]]
                if not math.isfinite(ub_i):
                    continue
                limit = (x_i - ub_i) / a
                if limit < 0.0:
                    limit = 0.0
            else:
                continue
            if limit < step - 1e-15 or (
                leaving_row >= 0 and abs(limit - step) <= 1e-15
                and basis_list[i] < basis_list[leaving_row]
            ):
                step = limit
                leaving_row = i

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
        leaving_var = basis_list[leaving_row]
        hit_upper = column[leaving_row] < 0.0
        status[leaving_var] = _UPPER if hit_upper else _LOWER
        if upper_list[leaving_var] > 0.0:
            sign[leaving_var] = -1.0 if hit_upper else 1.0

        pivot = tableau[leaving_row, entering]
        tableau[leaving_row] /= pivot
        state.rhs[leaving_row] /= pivot
        factors = tableau[:, entering].copy()
        factors[leaving_row] = 0.0
        tableau -= factors[:, None] * tableau[leaving_row]
        state.rhs -= factors * state.rhs[leaving_row]

        status[entering] = _BASIC
        sign[entering] = 0.0
        basis[leaving_row] = entering
        basis_list[leaving_row] = entering
        x_basic[leaving_row] = entering_value


def prepare(a: np.ndarray, b: np.ndarray, upper: np.ndarray) -> PreparedBasis:
    """Phase 1: find a feasible basis for A x = b, 0 <= x <= upper.

    Raises DomainError when a or b is not finite or upper holds NaN
    (upper may be infinite), and InfeasibleProblemError carrying the
    most-violated row index in its ``constraint`` attribute when no
    feasible point exists.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    # NaN would pass the residual test below and read as feasible, and an
    # infinite coefficient fills the tableau with NaN during the pivots
    if not (np.isfinite(a).all() and np.isfinite(b).all()) or np.isnan(upper).any():
        raise DomainError("LP data must be finite (only an upper bound may be infinite)")
    m, n = a.shape
    flip = b < 0.0
    a = np.where(flip[:, None], -a, a)
    b = np.abs(b)

    tableau = np.hstack([a, np.eye(m)])
    upper_full = np.concatenate([np.asarray(upper, dtype=float), np.full(m, np.inf)])
    status = np.full(n + m, _LOWER, dtype=np.int8)
    status[n:] = _BASIC
    basis = np.arange(n, n + m)
    state = PreparedBasis(tableau, b.copy(), basis, status, b.copy(), upper_full, n)

    phase1_cost = np.zeros(n + m)
    phase1_cost[n:] = -1.0
    _run_simplex(phase1_cost, state, 0)
    state.refresh_basics()

    residual = 0.0
    worst_row = -1
    for row, var in enumerate(state.basis):
        if var >= n and state.x_basic[row] > residual:
            residual = state.x_basic[row]
            worst_row = row
    if residual > FEASIBILITY_TOLERANCE:
        raise InfeasibleProblemError(
            f"constraints admit no feasible point (residual {residual:.3e})",
            constraint=worst_row,
        )
    state.upper[n:] = 0.0  # pin artificials for any later objective
    return state


def maximize_prepared(state: PreparedBasis, objective: np.ndarray) -> tuple[np.ndarray, float]:
    """Phase 2 from a feasible snapshot; the snapshot itself is not mutated."""
    work = state.copy()
    n = work.n_structural
    cost = np.zeros(work.upper.size)
    cost[:n] = np.asarray(objective, dtype=float)
    _run_simplex(cost, work, _DANTZIG_DEGENERATE_LIMIT)
    work.refresh_basics()

    x = np.where(work.status[:n] == _UPPER, work.upper[:n], 0.0)
    for row, var in enumerate(work.basis):
        if var < n:
            x[var] = work.x_basic[row]
    return x, float(cost[:n] @ x)
