"""The scripts in tools/ run end to end, in this process, on inputs shrunk by patching their module constants.

Only exit statuses and line counts are checked: the times, digests and rates
that the scripts print depend on the CPU.
"""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str, monkeypatch):
    """The script tools/<name>.py as a fresh module; the sys.path entry it adds is undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shrink(monkeypatch, module, **values):
    for name, value in values.items():
        assert hasattr(module, name), name
        monkeypatch.setattr(module, name, value)


def test_bounds_digest(monkeypatch, capsys):
    tool = _load("bounds_digest", monkeypatch)
    _shrink(monkeypatch, tool, FINITE_SWEEP={**tool.FINITE_SWEEP, "strategies": ["signal_only"]})
    assert tool.main() == 0
    assert len(capsys.readouterr().out.splitlines()) == 4  # finite bounds, rows and LP dumps, scan rows


def test_eval_cost(monkeypatch, capsys):
    tool = _load("eval_cost", monkeypatch)
    _shrink(monkeypatch, tool, REPEATS=1, CALLS=2, LP_CALLS=2, STACK_CALLS=1, SWEEP_CALLS=1,
            STACK_SIZES=(2, 3), SWEEP=tool.SWEEP[:2], LONG_SWEEP=tool.LONG_SWEEP[:3])
    assert tool.main() == 0
    # thirteen cases, a blank line and the header of the stack-size table, and one row per stack size
    assert len(capsys.readouterr().out.splitlines()) == 13 + 2 + 2


def test_search_cost_and_its_baseline(monkeypatch, capsys, tmp_path):
    tool = _load("search_cost", monkeypatch)
    _shrink(monkeypatch, tool, LOSSES_DB=(50.0,), SEEDS=range(1))  # the cheapest of its losses
    monkeypatch.setattr(sys, "argv", ["search_cost.py"])
    assert tool.main() == 0
    output = capsys.readouterr().out
    rows = len(tool.CONFIG.strategies)  # one descent per strategy
    assert len(output.splitlines()) == 1 + rows + 1  # the header, the rows and the total
    baseline = tmp_path / "baseline.tsv"
    baseline.write_text(output, encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["search_cost.py", "--baseline", str(baseline)])
    assert tool.main() == 0  # the same descents on the same source: every cell matches its baseline
    # and three summary lines: the range of the rate ratios, the cells at rate 0 and the cells that differ
    assert len(capsys.readouterr().out.splitlines()) == 1 + rows + 1 + 3
