"""Benchmark of tfqkd: strategy sweeps, a finite-size optimization and a QBER scan.

    python3 perfbench/run.py --workload asym_sweep --seed 1 --seconds 30 --trace 0

Runs one workload single-process, from the program in ``src/`` of this
checkout, for about ``--seconds`` seconds and checks every output against
the committed reference rows.  With ``--trace 0`` it reports the
end-to-end metrics, with times scaled to a reference machine speed (see
CALIBRATION_S); with ``--trace 1`` it alternates untraced and traced
passes of the same input and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, the passes and any notes.  Exits with code 2, printing no result,
when the program cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# Single-threaded numerics, pinned before numpy is first imported.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "references"
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 5

#: Reported times are scaled to the machine speed at which the calibration
#: kernel takes exactly this long, about its time on an idle 2-core Xeon.
#: On a shared machine the same pass can take twice as long from one minute
#: to the next; the kernel, run before and after every timed step, slows
#: down with it.  See README.md.
CALIBRATION_S = 0.020

#: End-to-end metric -> unit.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "result_ratio.min": "ratio",
    "ok_rows_ratio": "ratio",
}

_SETUP_PROBE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.write_inputs(workloads.pass_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1'), "
    "Path(sys.argv[6]))"
)


class ProgramMissing(Exception):
    """tfqkd cannot be imported from this checkout's src/."""


def import_program() -> None:
    """Put this checkout's src/ first on the path and make sure tfqkd loads from it."""
    for entry in (str(BENCH_DIR), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        import tfqkd
    except ImportError as error:
        raise ProgramMissing(f"cannot import tfqkd from {SRC}: {error}") from None
    if SRC not in Path(tfqkd.__file__).resolve().parents:
        raise ProgramMissing(f"tfqkd loaded from {tfqkd.__file__}, not from {SRC}")


def machine_facts() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


class _Tally:
    """Rows attempted and failed over a run, the worst quality ratio, and notes."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.ratio_min = math.inf
        self.notes: list[str] = []

    def add(self, check) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.ratio_min = min(self.ratio_min, check.ratio_min)
        self.notes.extend(check.notes)


def _calibration_kernel() -> float:
    """Seconds taken by fixed work that shares no code with tfqkd.

    Scalar math, like the channel and security layers, then small dense
    pivots on a 9-row tableau, like the simplex.  A machine slowdown hits
    the two kinds of work differently, so the kernel carries both.
    """
    import numpy

    base = numpy.random.default_rng(0).random((9, 118)) + 0.5
    start = time.perf_counter()
    total = 0.0
    for i in range(80_000):
        total += math.sqrt(i) * math.exp(-i * 1e-5)
    for _ in range(100):
        tableau = base.copy()
        for row in range(9):
            column = 7 * row
            tableau[row] /= tableau[row, column]
            factors = tableau[:, column].copy()
            factors[row] = 0.0
            tableau -= numpy.outer(factors, tableau[row])
            total += sum(math.exp(-abs(a)) for a in tableau[:, column])
    return time.perf_counter() - start


def _speed_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two kernel runs to the reference speed."""
    return 2.0 * CALIBRATION_S / (before + after)


def _timed_pass(workloads, entry, directory: Path, tracer=None):
    """One pass over one input with fresh caches: (wall s, cpu s, speed scale, outcomes)."""
    workloads.clear_caches()
    before = _calibration_kernel()
    if tracer is not None:
        tracer.install()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        outcomes = workloads.run_pass(entry, directory)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.pass_done()
    return wall, cpu, _speed_scale(before, _calibration_kernel()), outcomes


def _setup_seconds(workload: str, seed: int, smoke: bool, directory: Path) -> float:
    """Median time, at the reference speed, from a fresh interpreter to tfqkd imported and inputs written."""
    argv = [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR),
            workload, str(seed), "1" if smoke else "0", str(directory)]
    times = []
    for _ in range(SETUP_REPEATS):
        before = _calibration_kernel()
        start = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms, which quantizes the time
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        times.append(elapsed * _speed_scale(before, _calibration_kernel()))
    return statistics.median(times)


def _cycle_seconds(times: dict[str, list[float]]) -> float:
    """Seconds for one cycle through the inputs: the sum of each input's median pass."""
    return sum(statistics.median(values) for values in times.values())


def measure(workload: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
            reference_dir: Path = REFERENCE_DIR, out_dir: Path = OUT_DIR, tracer=None) -> tuple[dict, dict]:
    """Run one workload; returns (result, details).

    Passes cycle through the workload's inputs while the next one is
    expected to end within ``seconds``.  Every input runs at least once;
    a traced run stops only after whole cycles.
    """
    import tracing
    import workloads

    references = workloads.load_references(workload, reference_dir, smoke)
    inputs = workloads.pass_inputs(workload, seed, smoke)
    directory = out_dir / workload
    workloads.write_inputs(inputs, directory)
    if trace:
        workloads.write_inputs(inputs, directory / "traced")
    tally = _Tally()
    details: dict = {"workload": workload, "seed": seed, "trace": int(trace)}

    setup_s = None if trace else _setup_seconds(workload, seed, smoke, out_dir / f"{workload}-setup")
    walls, cpus, raw_walls = defaultdict(list), defaultdict(list), defaultdict(list)
    overhead, iterations, rows = [], [], 0
    first_output: dict[str, bytes] = {}
    tracer = tracer if tracer is not None else (tracing.Tracer() if trace else None)
    start = time.perf_counter()
    while True:
        iteration_start = time.perf_counter()
        entry = inputs[len(iterations) % len(inputs)]
        wall, cpu, scale, outcomes = _timed_pass(workloads, entry, directory)
        walls[entry.label].append(wall * scale)
        cpus[entry.label].append(cpu * scale)
        raw_walls[entry.label].append(wall)
        if trace:
            traced_wall, _, traced_scale, traced = _timed_pass(workloads, entry, directory / "traced", tracer)
            overhead.append(traced_wall * traced_scale / (wall * scale))
            for (job, _, plain), (_, code, payload) in zip(outcomes, traced):
                check = workloads.check(job, code, payload, references)
                if payload != plain:
                    check = check.all_failed(f"{job.label}: traced CSV differs from the untraced CSV")
                tally.add(check)
                rows += check.attempted
        else:
            for job, code, payload in outcomes:
                check = workloads.check(job, code, payload, references)
                if first_output.setdefault(job.label, payload) != payload:
                    check = check.all_failed(f"{job.label}: CSV differs from an earlier pass of the same input")
                tally.add(check)
        now = time.perf_counter()
        iterations.append(now - iteration_start)
        done = len(iterations)
        if trace:
            # whole cycles only, so per-layer counts weigh every input alike and repeat exactly
            if done % len(inputs) == 0 and now - start + sum(iterations[-len(inputs):]) > seconds:
                break
        elif done >= len(inputs) and now - start + max(iterations) > seconds:
            break

    details.update(passes=len(iterations), wall_s=dict(walls), raw_wall_s=dict(raw_walls), notes=tally.notes)
    if trace:
        cycles = len(iterations) // len(inputs)
        metrics = tracer.metrics(cycles=cycles, rows_per_cycle=rows / cycles)
        metrics["trace.overhead_ratio"] = {"value": statistics.median(overhead), "unit": "ratio"}
        details.update(layer_map=tracing.LAYER_MAP, notes=tally.notes + tracer.notes)
    else:
        values = {
            "wall_s": _cycle_seconds(walls),
            "cpu_s": _cycle_seconds(cpus),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "result_ratio.min": tally.ratio_min if math.isfinite(tally.ratio_min) else 0.0,
            "ok_rows_ratio": (tally.attempted - tally.failed) / tally.attempted if tally.attempted else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("asym_sweep", "finite_opt", "qber_scan"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ProgramMissing as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_facts()}), flush=True)
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
