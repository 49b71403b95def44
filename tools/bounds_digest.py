"""SHA-256 digests of the bits the yield-LP path produces, to check a change for bit identity.

    python tools/bounds_digest.py

Four lines, each a digest and what it covers:

* finite_bounds: every bound matrix that decoy.solve_yield_bounds returns
  while the benchmark's finite sweep runs (40 dB total loss, mismatch 0.1,
  1e12 pulses, epsilon 1e-7, strategies symmetric and signal_only, one
  start, seed 1), in the order returned, each matrix's bytes fed to one
  hash; the line also gives their count;
* finite_rows and finite_lp_dumps: the CSV and the LP dump that
  ``tfqkd sweep --dump-lp`` writes for that sweep;
* scan_rows: the CSV that ``tfqkd qber-scan`` writes for 2,001 points
  (2,000 log-spaced over [1e-3, 1] and the degenerate s_a = nu = 0.01),
  shuffled by random.Random(1).

Each run goes through tfqkd.cli.main in this process, on one worker.  A
change meant to keep every bit prints the same lines as its parent: copy
this script into the parent's tree and run it there too.  Only the
standard library and numpy are used.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tfqkd import cli, decoy  # noqa: E402  (needs src/ on the path)

FINITE_SWEEP = {"total_loss_db_grid": [40.0], "mismatch_ratio": 0.1, "mode": "finite", "n_pulses": 1e12,
                "epsilon": 1e-7, "strategies": ["symmetric", "signal_only"], "n_starts": 1, "seed": 1}
SCAN_NU = 0.01
SCAN_SEED = 1


def _scan_grid() -> list[float]:
    """2,000 points log-spaced over [1e-3, 1] and s_a = nu, sorted, then shuffled by SCAN_SEED."""
    grid = sorted({10.0 ** (-3.0 + 3.0 * i / 1999) for i in range(2000)} | {SCAN_NU})
    random.Random(SCAN_SEED).shuffle(grid)
    return grid


def _run(directory: Path, name: str, command: str, document: dict, *flags: str) -> Path:
    """Write the document, run the command on it, and return the CSV path; a nonzero exit raises."""
    config, out = directory / f"{name}.json", directory / f"{name}.csv"
    config.write_text(json.dumps(document), encoding="ascii")
    code = cli.main([command, "--config", str(config), "--out", str(out), *flags])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"tfqkd {command} exited with {code} on {name}")
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    bounds, solve, count = hashlib.sha256(), decoy.solve_yield_bounds, 0

    def recording(*args, **kwargs):
        nonlocal count
        matrix = solve(*args, **kwargs)
        bounds.update(matrix.tobytes())
        count += 1
        return matrix

    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        decoy.solve_yield_bounds = recording
        try:
            sweep = _run(directory, "finite", "sweep", FINITE_SWEEP, "--dump-lp")
        finally:
            decoy.solve_yield_bounds = solve
        scan = _run(directory, "scan", "qber-scan", {"s_a_grid": _scan_grid(), "nu": SCAN_NU})
        print(f"finite_bounds    {bounds.hexdigest()}  ({count} matrices)")
        print(f"finite_rows      {_digest(sweep)}")
        print(f"finite_lp_dumps  {_digest(Path(str(sweep) + '.lp.txt'))}")
        print(f"scan_rows        {_digest(scan)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
