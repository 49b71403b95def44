"""Command-line front end.

Two subcommands, both reading a JSON configuration and writing CSV:

    tfqkd sweep --config cfg.json --out rates.csv [--workers N] [--dump-lp]
    tfqkd qber-scan --config cfg.json --out qber.csv

Exit codes: 0 on success, 2 on configuration errors, 3 on runtime errors.
All behaviour is controlled by explicit configuration; no environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .experiments import (
    QBER_SCAN_COLUMNS,
    SWEEP_COLUMNS,
    QberScanConfig,
    SweepConfig,
    run_qber_scan,
    run_sweep,
    write_csv,
    write_lp_dumps,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise ConfigError(f"cannot read configuration {path}: {error}") from None
    except UnicodeDecodeError as error:
        raise ConfigError(f"configuration {path} is not UTF-8 text: {error}") from None
    except json.JSONDecodeError as error:
        raise ConfigError(f"configuration {path} is not valid JSON: {error}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfqkd",
        description="Key-rate sweeps and QBER scans for twin-field QKD over asymmetric channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="optimize strategies over a total-loss grid")
    sweep.add_argument("--config", required=True, help="JSON sweep configuration")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--workers", type=int, default=1, help="parallel sweep-point workers")
    sweep.add_argument(
        "--dump-lp", action="store_true",
        help="finite mode: also write the yield LPs at the optimized parameters to <out>.lp.txt",
    )

    scan = sub.add_parser("qber-scan", help="error rates versus intensity asymmetry")
    scan.add_argument("--config", required=True, help="JSON scan configuration")
    scan.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        document = _load_document(args.config)
        if args.command == "sweep":
            config = SweepConfig.from_dict(document)
            if args.workers < 1:
                raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        else:
            config = QberScanConfig.from_dict(document)
    except ConfigError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "sweep":
            rows, problems = run_sweep(config, workers=args.workers)
            write_csv(args.out, SWEEP_COLUMNS, rows, document)
            if args.dump_lp and any(problem is not None for problem in problems):
                write_lp_dumps(args.out + ".lp.txt", rows, problems)
        else:
            rows = run_qber_scan(config)
            write_csv(args.out, QBER_SCAN_COLUMNS, rows, document)
    except (OSError, OverflowError, RuntimeError, ValueError) as error:
        print(f"runtime error: {error}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
