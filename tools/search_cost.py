"""Cost and outcome of one finite-mode descent per strategy, loss and multistart seed.

    python tools/search_cost.py [--baseline FILE]

The inputs are the finite sweep of the benchmark's finite_opt workload at
three total losses: mismatch 0.1, e_d 0.02, p_d 1e-8, 1e12 pulses and
epsilon 1e-7, at 30, 40 and 50 dB.  For each of the four strategies, each
loss and each multistart seed 0-7, one start runs as optimize_strategy
runs it, with the search's own yield-LP source (optimizer._finite_objective).
Each row reports the objective evaluations, the yield LPs solved, and
from the search's decoy.WarmBases the target maxima taken from their own
stored basis rather than solved after phase 1; the simplex.reoptimize
runs, one per carried basis that rebase did not prove optimal (out of its
boxes, or pricing a column in; a basis that rebase proves optimal, its
tableau rebuilt after a decoy step included, runs none), and their dual
pivots; and the targets that started from another target's basis; the
reoptimize runs that gave up, by reason (a column of each of
simplex.GIVE_UPS), whose targets start from another target's basis too;
then the winner's rate as evaluate_key_rate gives it on a cold LP memo,
the rate a sweep reports, in repr so that rows compare bit for bit.  The
last line sums every count and counts the descents that ended at rate 0.

With --baseline, FILE is an earlier output of this script (say, from the
parent commit's source); each row then also reports its rate as a ratio
to the baseline's, and a summary gives the range of the ratios between
nonzero rates, the cells whose rate is zero on either side, and the cells
whose evaluation count or rate bits differ from the baseline's; the script
then exits with status 1 when any cell differs, so that one run checks a
change for bit identity.  Only the standard library and numpy are used.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tfqkd import optimizer  # noqa: E402  (needs src/ on the path)
from tfqkd.decoy import TARGET_PAIRS  # noqa: E402
from tfqkd.simplex import GIVE_UPS  # noqa: E402
from tfqkd.experiments import SweepConfig  # noqa: E402
from tfqkd.optimizer import Strategy, add_fibre_transform, evaluate_key_rate, multistart  # noqa: E402

LOSSES_DB = (30.0, 40.0, 50.0)
SEEDS = range(8)
CONFIG = SweepConfig(total_loss_db_grid=LOSSES_DB, mismatch_ratio=0.1, mode="finite", n_pulses=1e12,
                     epsilon=1e-7, n_starts=1)
#: WarmBases counters of each row, by column.
COUNTERS = {"lp_solves": "lp_solves", "repriced_targets": "repriced", "reoptimize_runs": "dual_runs",
            "dual_pivots": "dual_pivots", "borrowed_starts": "borrowed"}
HEADER = ("strategy", "loss_db", "seed", "evaluations", *COUNTERS, *GIVE_UPS, "rate")


def descent_cost(strategy: Strategy, loss_db: float, seed: int) -> tuple[int, list[int], float]:
    """Evaluations, the COUNTERS and give-ups by reason, and the winner's cold rate of one start of the finite search."""
    scenario = CONFIG.scenario_for(loss_db)
    working = add_fibre_transform(scenario) if strategy is Strategy.ADD_FIBRE else scenario
    mode = CONFIG.evaluation_mode()
    search, warm = optimizer._finite_objective(working, mode)
    evaluations = 0

    def objective(params):
        nonlocal evaluations
        evaluations += 1
        return search(params)

    params, _ = multistart(objective, strategy, 1, seed)
    optimizer._finite_lp.cache_clear()
    counts = [getattr(warm, name) for name in COUNTERS.values()] + [warm.give_ups[reason] for reason in GIVE_UPS]
    return evaluations, counts, evaluate_key_rate(working, params, mode).rate


def _read_baseline(path: str) -> dict:
    """(strategy, loss_db, seed) -> (evaluations, rate) of each row, by the columns its header names."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    evaluations, rate = header.index("evaluations"), header.index("rate")
    rows = [line.split("\t") for line in lines[1:] if not line.startswith("#")]
    return {tuple(row[:3]): (int(row[evaluations]), row[rate]) for row in rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="an earlier output of this script to compare rates with")
    args = parser.parse_args()
    baseline = _read_baseline(args.baseline) if args.baseline else None
    print("\t".join(HEADER + (("rate_ratio",) if baseline else ())), flush=True)
    total_evaluations = zero_rates = 0
    totals = [0] * (len(COUNTERS) + len(GIVE_UPS))
    ratios, zero_cells, changed_cells = [], [], []
    for name in CONFIG.strategies:
        for loss_db in LOSSES_DB:
            for seed in SEEDS:
                evaluations, counts, rate = descent_cost(Strategy(name), loss_db, seed)
                total_evaluations += evaluations
                totals = [total + count for total, count in zip(totals, counts)]
                zero_rates += rate == 0.0
                row = [name, repr(loss_db), str(seed), str(evaluations), *map(str, counts), repr(rate)]
                if baseline:
                    cell = f"{name}/{loss_db:g}dB/seed{seed}"
                    old_evaluations, old_rate = baseline[tuple(row[:3])]
                    old = float(old_rate)
                    if rate > 0.0 and old > 0.0:
                        ratios.append(rate / old)
                        row.append(repr(rate / old))
                    else:
                        row.append("-")
                    if rate == 0.0 or old == 0.0:
                        zero_cells.append(f"{cell} ({old!r} -> {rate!r})")
                    if (old_evaluations, old_rate) != (evaluations, repr(rate)):
                        changed_cells.append(f"{cell} ({old_evaluations} -> {evaluations} evaluations, "
                                             f"{old_rate} -> {rate!r})")
                print("\t".join(row), flush=True)
    solves, repriced, reoptimize_runs, dual_pivots, borrowed = totals[:len(COUNTERS)]
    give_ups = ", ".join(f"{count} {reason}" for reason, count in zip(GIVE_UPS, totals[len(COUNTERS):]))
    print(f"# total: {total_evaluations} evaluations, {solves} LP solves, {repriced} targets from their own basis "
          f"of {len(TARGET_PAIRS) * solves}, {reoptimize_runs} reoptimize runs with {dual_pivots} dual pivots, "
          f"{borrowed} borrowed starts, {zero_rates} of {len(CONFIG.strategies) * len(LOSSES_DB) * len(SEEDS)} "
          f"descents at rate 0; reoptimize gave up {sum(totals[len(COUNTERS):])} times: {give_ups}")
    if baseline:
        if ratios:
            print(f"# nonzero rate ratios to the baseline: min {min(ratios)!r}, max {max(ratios)!r}")
        print(f"# cells at rate 0 on either side: {'; '.join(zero_cells) or 'none'}")
        print(f"# cells whose evaluations or rate bits differ from the baseline: {'; '.join(changed_cells) or 'none'}")
    return 1 if changed_cells else 0


if __name__ == "__main__":
    sys.exit(main())
