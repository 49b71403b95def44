"""Per-layer tracing of tfqkd from outside the program.

For the length of a traced pass, each module-level function named in
TARGETS is replaced by a wrapper that records a span: calls, inclusive
seconds, and self seconds (the span minus the spans it caused).  Modules
import each other's functions by name, so every binding of the function in
a loaded tfqkd module is replaced, and all of them are restored after the
pass.  Spans stay in memory; metrics are derived once the run ends.

A target that a later version of the program renames or removes drops
only the metrics that need it, with a note; it never stops the run.

Two private names are used.  ``simplex._run_simplex`` is wrapped because
the pivot count it returns is the only outlet for LP iterations:
``maximize_prepared`` discards it.  ``optimizer._true_yield_grid`` is only
read, through the public ``cache_info()`` of its cache.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

#: Wrapped function ("module.name" inside tfqkd) -> layer it belongs to.
TARGETS = {
    "channel.x_basis_gain": "channel",
    "channel.x_basis_qber": "channel",
    "channel.z_basis_gain": "channel",
    "channel.yield_grid": "channel",
    "channel.first_order_diagnostics": "channel",
    "security.cat_coefficients": "security",
    "security.phase_error_upper_bound": "security",
    "security.phase_error_bound_from_matrix": "security",
    "security.key_rate": "security",
    "decoy.observations_from_scenario": "decoy",
    "decoy.build_problem": "decoy",
    "decoy.solve_yield_bounds": "decoy",
    "simplex.prepare": "simplex",
    "simplex.maximize_prepared": "simplex",
    "simplex._run_simplex": "simplex",
    "optimizer.optimize_strategy": "optimizer",
    "optimizer.multistart": "optimizer",
    "optimizer.coordinate_descent": "optimizer",
    "optimizer.golden_section_max": "optimizer",
    "optimizer.evaluate_key_rate": "optimizer",
    "cli.main": "experiments",
    "experiments.run_sweep": "experiments",
    "experiments.run_qber_scan": "experiments",
    "experiments.write_csv": "experiments",
}

#: Cached functions whose public cache_info() is read after each pass.
CACHED = ("optimizer._true_yield_grid",)

PHASE1, PHASE2 = "simplex.prepare", "simplex.maximize_prepared"


def _layer_targets(layer: str) -> tuple[str, ...]:
    return tuple(t for t, owner in TARGETS.items() if owner == layer)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when nothing was recorded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _share_within_1pct(groups: list[list[float]]) -> float:
    total = sum(len(rates) for rates in groups)
    near = sum(1 for rates in groups for r in rates if r >= max(rates) - 0.01 * abs(max(rates)))
    return near / total if total else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Per-layer metric -> (unit, targets it needs, value from a finished Tracer
#: and the rows one cycle produced).  Counts and seconds are per cycle
#: through the workload's inputs.  A layer total needs no single target: it
#: sums whichever of the layer's targets still exist.
PER_LAYER = {
    "optimizer.evals": ("count", ("optimizer.evaluate_key_rate",),
                        lambda t, rows: t.per_cycle(t.calls["optimizer.evaluate_key_rate"])),
    "optimizer.evals_per_row": ("count", ("optimizer.evaluate_key_rate",),
                                lambda t, rows: _ratio(t.per_cycle(t.calls["optimizer.evaluate_key_rate"]), rows)),
    "optimizer.eval_ms.p50": ("ms", ("optimizer.evaluate_key_rate",),
                              lambda t, rows: 1e3 * _percentile(t.eval_s, 0.50)),
    "optimizer.eval_ms.p99": ("ms", ("optimizer.evaluate_key_rate",),
                              lambda t, rows: 1e3 * _percentile(t.eval_s, 0.99)),
    "optimizer.line_searches": ("count", ("optimizer.golden_section_max",),
                                lambda t, rows: t.per_cycle(t.calls["optimizer.golden_section_max"])),
    "optimizer.self_s": ("s", (),
                         lambda t, rows: t.per_cycle(t.layer_self_s["optimizer"])),
    "optimizer.starts_within_1pct_ratio": ("ratio", ("optimizer.multistart", "optimizer.coordinate_descent"),
                                           lambda t, rows: _share_within_1pct(t.start_rates)),
    "optimizer.yield_grid_cache_hit_ratio": ("ratio", ("optimizer._true_yield_grid",),
                                             lambda t, rows: _ratio(t.cache_hits, t.cache_hits + t.cache_misses)),
    "decoy.build_calls": ("count", ("decoy.build_problem",),
                          lambda t, rows: t.per_cycle(t.calls["decoy.build_problem"])),
    "decoy.build_s": ("s", ("decoy.observations_from_scenario", "decoy.build_problem"),
                      lambda t, rows: t.per_cycle(t.total_s["decoy.observations_from_scenario"]
                                                 + t.total_s["decoy.build_problem"])),
    "decoy.solve_calls": ("count", ("decoy.solve_yield_bounds",),
                          lambda t, rows: t.per_cycle(t.calls["decoy.solve_yield_bounds"])),
    "decoy.solve_self_s": ("s", ("decoy.solve_yield_bounds", PHASE1, PHASE2),
                           lambda t, rows: t.per_cycle(t.self_s["decoy.solve_yield_bounds"])),
    "simplex.phase1_calls": ("count", (PHASE1,), lambda t, rows: t.per_cycle(t.calls[PHASE1])),
    "simplex.phase1_s": ("s", (PHASE1,), lambda t, rows: t.per_cycle(t.total_s[PHASE1])),
    "simplex.phase1_pivots.mean": ("count", (PHASE1, "simplex._run_simplex"),
                                   lambda t, rows: _mean(t.pivots[PHASE1])),
    "simplex.phase2_calls": ("count", (PHASE2,), lambda t, rows: t.per_cycle(t.calls[PHASE2])),
    "simplex.phase2_s": ("s", (PHASE2,), lambda t, rows: t.per_cycle(t.total_s[PHASE2])),
    "simplex.phase2_pivots.mean": ("count", (PHASE2, "simplex._run_simplex"),
                                   lambda t, rows: _mean(t.pivots[PHASE2])),
    "simplex.phase2_pivots.p99": ("count", (PHASE2, "simplex._run_simplex"),
                                  lambda t, rows: _percentile(t.pivots[PHASE2], 0.99)),
    "simplex.pivots_total": ("count", (PHASE1, PHASE2, "simplex._run_simplex"),
                             lambda t, rows: t.per_cycle(sum(t.pivots[PHASE1]) + sum(t.pivots[PHASE2]))),
    "security.calls": ("count", (),
                       lambda t, rows: t.per_cycle(sum(t.calls[n] for n in _layer_targets("security")))),
    "security.s": ("s", (), lambda t, rows: t.per_cycle(t.layer_s["security"])),
    "channel.calls": ("count", (),
                      lambda t, rows: t.per_cycle(sum(t.calls[n] for n in _layer_targets("channel")))),
    "channel.s": ("s", (), lambda t, rows: t.per_cycle(t.layer_s["channel"])),
    "experiments.rows": ("count", (), lambda t, rows: rows),
    "experiments.self_s": ("s", (),
                           lambda t, rows: t.per_cycle(t.layer_self_s["experiments"])),
    "experiments.csv_write_s": ("s", ("experiments.write_csv",),
                                lambda t, rows: t.per_cycle(t.total_s["experiments.write_csv"])),
}

#: Which end-to-end metric each layer should move, and where it should not.
LAYER_MAP = {
    "optimizer": "moves wall_s on asym_sweep and finite_opt, and result_ratio.min on both; "
                 "predicts no change on qber_scan",
    "decoy": "moves wall_s on qber_scan first and on finite_opt second",
    "simplex": "phase 2 moves wall_s on finite_opt, phase 1 moves wall_s on qber_scan; "
               "predicts no change on asym_sweep",
    "security": "moves wall_s on asym_sweep",
    "channel": "moves wall_s on asym_sweep",
    "experiments": "moves setup_s and wall_s on every workload",
    "trace": "trace.overhead_ratio is traced over untraced wall time of the same input",
}


class _Frame:
    __slots__ = ("target", "layer", "child_s", "starts")

    def __init__(self, target: str, layer: str):
        self.target, self.layer, self.child_s, self.starts = target, layer, 0.0, None


class Tracer:
    """Spans and counters for the traced passes of one run."""

    def __init__(self, targets: dict[str, str] | None = None):
        self.targets = dict(TARGETS if targets is None else targets)
        self.notes: list[str] = []
        self.missing: set[str] = set()
        self.cycles = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.eval_s: list[float] = []
        self.pivots: dict[str, list[int]] = {PHASE1: [], PHASE2: []}
        self.start_rates: list[list[float]] = []
        self.cache_hits = self.cache_misses = 0
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []
        self._observers = {
            "optimizer.evaluate_key_rate": self._observe_eval,
            "simplex._run_simplex": self._observe_pivots,
            "optimizer.coordinate_descent": self._observe_start,
            "optimizer.multistart": self._observe_multistart,
        }

    def per_cycle(self, value: float) -> float:
        return value / self.cycles if self.cycles else 0.0

    def _drop(self, target: str, reason: str) -> None:
        if target not in self.missing:
            self.missing.add(target)
            self.notes.append(f"tfqkd.{target}: {reason}")

    @staticmethod
    def _resolve(target: str):
        module_name, _, attribute = target.partition(".")
        try:
            module = importlib.import_module(f"tfqkd.{module_name}")
        except ImportError:
            return None
        return getattr(module, attribute, None)

    def install(self) -> None:
        """Replace every binding of each target in the loaded tfqkd modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for target, layer in self.targets.items():
            original = self._resolve(target)
            if not callable(original):
                self._drop(target, "not found; metrics that need it are dropped")
                continue
            wrapper = self._wrap(target, layer, original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "tfqkd" or name.startswith("tfqkd.")):
                    continue
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._restore.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._restore):
            setattr(module, attribute, original)
        self._restore.clear()

    def pass_done(self) -> None:
        """Close one traced pass: read the caches it filled."""
        for target in CACHED:
            info = getattr(self._resolve(target), "cache_info", None)
            if not callable(info):
                self._drop(target, "no cache_info(); metrics that need it are dropped")
                continue
            stats = info()
            self.cache_hits += stats.hits
            self.cache_misses += stats.misses

    def _wrap(self, target: str, layer: str, function):
        stack = self._stack
        observer = self._observers.get(target)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = _Frame(target, layer)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self._close(frame, elapsed)
            if observer is not None and target not in self.missing:
                try:
                    observer(frame, result, elapsed)
                except Exception as error:  # a changed return shape must not stop the run
                    self._drop(target, f"unexpected result ({error!r}); metrics that need it are dropped")
            return result

        return traced

    def _close(self, frame: _Frame, elapsed: float) -> None:
        self.calls[frame.target] += 1
        self.total_s[frame.target] += elapsed
        own = elapsed - frame.child_s
        self.self_s[frame.target] += own
        self.layer_self_s[frame.layer] += own
        if self._stack:
            self._stack[-1].child_s += elapsed
        if all(f.layer != frame.layer for f in self._stack):
            self.layer_s[frame.layer] += elapsed

    def _observe_eval(self, frame: _Frame, result, elapsed: float) -> None:
        self.eval_s.append(elapsed)

    def _observe_pivots(self, frame: _Frame, result, elapsed: float) -> None:
        parent = self._stack[-1].target if self._stack else None
        if parent in self.pivots:
            self.pivots[parent].append(int(result))

    def _observe_start(self, frame: _Frame, result, elapsed: float) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent.target == "optimizer.multistart":
            if parent.starts is None:
                parent.starts = []
            parent.starts.append(float(result[1]))

    def _observe_multistart(self, frame: _Frame, result, elapsed: float) -> None:
        if frame.starts:
            self.start_rates.append(frame.starts)

    def metrics(self, cycles: int, rows_per_cycle: float) -> dict[str, dict]:
        """Every per-layer metric whose targets were all traced, with its unit."""
        self.cycles = cycles
        out = {}
        for name, (unit, needs, compute) in PER_LAYER.items():
            lost = sorted(n for n in needs if n in self.missing or n not in {*self.targets, *CACHED})
            if lost:
                self.notes.append(f"dropped {name}: needs {', '.join('tfqkd.' + n for n in lost)}")
                continue
            out[name] = {"value": float(compute(self, rows_per_cycle)), "unit": unit}
        return out
