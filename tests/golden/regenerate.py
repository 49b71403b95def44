"""Rewrite golden CLI outputs from their configurations.

    python tests/golden/regenerate.py [NAME ...]

Runs ``tfqkd.cli.main`` on ``NAME.json`` in this directory and writes
``NAME.csv`` next to it; sweeps run with ``--dump-lp``, so a finite sweep
also writes ``NAME.csv.lp.txt``.  A document with an ``s_a_grid`` is a
QBER scan, any other a sweep.  Without names every configuration here is
rerun.  Regenerate only the files a change is meant to alter, and say why
in that change; the other goldens must come out byte-identical.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from tfqkd.cli import main  # noqa: E402  (needs src/ on the path)


def regenerate(name: str) -> int:
    config = GOLDEN / f"{name}.json"
    out = GOLDEN / f"{name}.csv"
    if "s_a_grid" in json.loads(config.read_text(encoding="utf-8")):
        argv = ["qber-scan", "--config", str(config), "--out", str(out)]
    else:
        argv = ["sweep", "--config", str(config), "--out", str(out), "--dump-lp"]
    return main(argv)


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(path.stem for path in GOLDEN.glob("*.json"))
    codes = [regenerate(name) for name in names]
    sys.exit(max(codes))
