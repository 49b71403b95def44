"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench

References for the tiny workloads are made from the current program into a
temporary directory, so these tests check the harness, not the program's
numbers.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracing

run.import_program()

import workloads  # noqa: E402  (needs the program on the path)
from make_references import write_references  # noqa: E402
from tfqkd import experiments  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_references(tmp_path_factory):
    directory = tmp_path_factory.mktemp("references")
    write_references(directory, smoke=True)
    return directory


SEED = 3


def _measure(references, tmp_path, workload, trace=False, **options):
    """One pass (one pair when tracing) of a tiny workload."""
    return run.measure(workload, seed=SEED, seconds=0.0, trace=trace, smoke=True,
                       reference_dir=references, out_dir=tmp_path / "out", **options)


def _first_sweep_label():
    return workloads.pass_inputs("asym_sweep", SEED, smoke=True)[0].jobs[0].label


def _corrupt(references, workload, label, edit):
    path = references / workload / f"{label}.csv"
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(smoke_references, tmp_path, workload):
    result, _ = _measure(smoke_references, tmp_path, workload)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["result_ratio.min"]["value"] == 1.0
    assert all(m["value"] > 0.0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["asym_sweep", "qber_scan"])
def test_every_per_layer_metric_is_emitted_with_its_unit(smoke_references, tmp_path, workload):
    result, details = _measure(smoke_references, tmp_path, workload, trace=True)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and not details["notes"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "asym_sweep":
        assert metrics["optimizer.evals"] > 0 and metrics["simplex.phase1_calls"] == 0
    else:
        assert metrics["optimizer.evals"] == 0 and metrics["simplex.phase1_pivots.mean"] > 0


def test_corrupted_scan_reference_row_fails(smoke_references, tmp_path):
    references = tmp_path / "references"
    shutil.copytree(smoke_references, references)
    # scale e_zz_upper of one row by 1 + 1e-8, outside the 1e-9 tolerance
    _corrupt(references, "qber_scan", "grid", lambda line: ",".join(
        line.split(",")[:3] + [repr(float(line.split(",")[3]) * (1.0 + 1e-8))]))
    result, details = _measure(references, tmp_path, "qber_scan")
    assert not result["correct"] and result["failed"] == 1
    assert any("differs from the reference" in note for note in details["notes"])


def test_corrupted_sweep_reference_rate_lowers_the_ratio(smoke_references, tmp_path):
    references = tmp_path / "references"
    shutil.copytree(smoke_references, references)

    def double_rate(line):
        cells = line.split(",")
        cells[2] = repr(2.0 * float(cells[2]))
        return ",".join(cells)

    _corrupt(references, "asym_sweep", _first_sweep_label(), double_rate)
    result, _ = _measure(references, tmp_path, "asym_sweep")
    assert math.isclose(result["metrics"]["result_ratio.min"]["value"], 0.5)


def test_missing_sweep_reference_row_fails(smoke_references, tmp_path):
    references = tmp_path / "references"
    shutil.copytree(smoke_references, references)
    _corrupt(references, "asym_sweep", _first_sweep_label(), lambda line: line.replace("40.0,", "45.0,", 1))
    result, _ = _measure(references, tmp_path, "asym_sweep")
    assert not result["correct"] and result["failed"] == 2
    assert result["metrics"]["result_ratio.min"]["value"] == 0.0


def test_sweep_row_must_reproduce_its_rate_bit_for_bit(smoke_references):
    job = workloads.reference_inputs("asym_sweep", smoke=True)[0].jobs[0]
    reference = workloads.load_references("asym_sweep", smoke_references, smoke=True)[job.label]
    assert workloads.check_sweep(job, reference, reference).failed == 0
    tampered = [dict(reference[0], key_rate=repr(math.nextafter(float(reference[0]["key_rate"]), 1.0)))]
    check = workloads.check_sweep(job, tampered + reference[1:], reference)
    assert check.failed == 1 and "does not reproduce" in check.notes[0]


def test_unreadable_output_fails_the_job_not_the_run(smoke_references):
    job = workloads.reference_inputs("asym_sweep", smoke=True)[0].jobs[0]
    references = workloads.load_references("asym_sweep", smoke_references, smoke=True)
    payload = b"# header\nloss_db,strategy,key_rate\n40.0,symmetric,not-a-number\n"
    check = workloads.check(job, 0, payload, references)
    assert check.failed == check.attempted == len(references[job.label])
    assert "unreadable output" in check.notes[0]


def test_renamed_trace_target_drops_only_its_metrics(smoke_references, tmp_path):
    targets = dict(tracing.TARGETS)
    targets["simplex._run_simplex_renamed"] = targets.pop("simplex._run_simplex")
    result, details = _measure(smoke_references, tmp_path, "qber_scan", trace=True,
                               tracer=tracing.Tracer(targets))
    dropped = {"simplex.phase1_pivots.mean", "simplex.phase2_pivots.mean",
               "simplex.phase2_pivots.p99", "simplex.pivots_total"}
    expected = {m["name"] for m in BENCHMARK["per_layer"]} - dropped
    assert result["correct"] and set(result["metrics"]) == expected
    assert any("_run_simplex_renamed" in note for note in details["notes"])


def test_traced_csv_must_match_untraced_csv(smoke_references, tmp_path):
    class Tampering(tracing.Tracer):
        """Changes the version written into the CSV header while installed."""

        def install(self):
            super().install()
            self._restore.append((experiments, "__version__", experiments.__version__))
            experiments.__version__ = "tampered"

    result, details = _measure(smoke_references, tmp_path, "qber_scan", trace=True, tracer=Tampering())
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any("traced CSV differs" in note for note in details["notes"])
    assert experiments.__version__ != "tampered"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qber_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0 and completed.stdout == ""
    assert "cannot import tfqkd" in completed.stderr
