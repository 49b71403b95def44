import csv
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tfqkd import experiments
from tfqkd.cli import main
from tfqkd.decoy import STACK_SIZE, LpProblem
from tfqkd.errors import ConfigError, DomainError
from tfqkd.experiments import (
    QBER_SCAN_COLUMNS,
    SWEEP_COLUMNS,
    QberScanConfig,
    SweepConfig,
    run_qber_scan,
    run_sweep,
    split_total_loss,
    write_csv,
    write_lp_dumps,
)

from oracles import qber_scan_reference

GOLDEN = Path(__file__).parent / "golden"

TINY_SWEEP = {
    "total_loss_db_grid": [30.0],
    "mismatch_ratio": 0.1,
    "strategies": ["symmetric", "fully_asymmetric"],
    "n_starts": 1,
    "seed": 7,
}

#: Two finite rows at 20 dB, one start each.
FINITE_SWEEP = dict(TINY_SWEEP, total_loss_db_grid=[20.0], mode="finite", strategies=["symmetric", "signal_only"])


@pytest.fixture(scope="module")
def finite_run(tmp_path_factory):
    """One finite-size CLI sweep with --dump-lp, shared by every finite test.

    The configuration is the TINY_SWEEP point in finite mode at 20 dB with
    the symmetric strategy; its outputs are also the finite golden files.
    """
    out = tmp_path_factory.mktemp("finite") / "finite_sweep.csv"
    code = main(["sweep", "--config", str(GOLDEN / "finite_sweep.json"), "--out", str(out), "--dump-lp"])
    return code, out, Path(str(out) + ".lp.txt")


def _csv_rows(path):
    return list(csv.DictReader(path.read_text().splitlines()[1:]))


class TestLossSplit:
    def test_product_matches_total(self):
        for loss in (0.0, 13.0, 40.0, 87.5):
            eta_a, eta_b = split_total_loss(loss, 0.1)
            assert eta_a * eta_b == pytest.approx(10.0 ** (-loss / 10.0), rel=1e-12)
            if eta_b < 1.0:  # the requested ratio holds whenever the cap is idle
                assert eta_a / eta_b == pytest.approx(0.1, rel=1e-12)

    def test_cap_pushes_excess_loss_to_one_side(self):
        eta_a, eta_b = split_total_loss(10.0, 1e-4)
        assert eta_b == 1.0
        assert eta_a == pytest.approx(0.1, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(Exception):
            split_total_loss(-1.0, 0.1)
        with pytest.raises(Exception):
            split_total_loss(10.0, 0.0)
        # these used to return (nan, nan) and (0.0, 0.0)
        for loss in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="finite"):
                split_total_loss(loss, 0.1)


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig.from_dict(dict(TINY_SWEEP))
        assert config.p_d == 1e-8
        assert config.e_d == 0.02
        assert config.mode == "asymptotic"
        assert config.n_pulses == 1e12
        assert config.epsilon == 1e-7

    def test_unknown_field_is_an_error(self):
        document = dict(TINY_SWEEP, wavelength=1550)
        with pytest.raises(ConfigError, match="wavelength"):
            SweepConfig.from_dict(document)

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="mismatch_ratio"):
            SweepConfig.from_dict({"total_loss_db_grid": [10.0]})

    @pytest.mark.parametrize("patch", [
        {"total_loss_db_grid": []},
        {"mismatch_ratio": 0.0},
        {"mismatch_ratio": 1.5},
        {"mode": "sometimes"},
        {"strategies": ["bogus"]},
        {"strategies": []},
        {"n_starts": 0},
        {"epsilon": 1.0},
        {"n_pulses": -1.0},
        {"n_starts": 2.5},
        {"n_starts": True},
        {"seed": 1.5},
        {"seed": -1},
        {"strategies": "symmetric"},
        {"total_loss_db_grid": "30"},
        {"p_d": -1.0},
        {"p_d": 1.0},
        {"e_d": 1.5},
        {"e_d": -0.01},
        {"phi": "x"},
        {"phi": float("nan")},
        {"phi": float("inf")},
        {"total_loss_db_grid": [30.0, float("nan")]},
        {"total_loss_db_grid": [float("inf")]},
        {"n_pulses": float("nan")},
        {"phi": True},
        # +inf used to pass: exit 0 with unwidened finite rows, or exit 3
        {"mode": "finite", "n_pulses": float("inf")},
        {"n_pulses": float("inf")},
        # a null pulse count with a sigma multiplier is no mode at all
        {"mode": "finite", "n_pulses": None},
        {"n_pulses": None},
        # a bool or a string used to be read as a number: true as 1.0, "30" as 30.0
        {"mismatch_ratio": True},
        {"e_d": False},
        {"n_pulses": True},
        {"total_loss_db_grid": ["30"]},
        {"total_loss_db_grid": [True]},
        # a repeated entry used to pass: a repeated loss wrote two identical rows,
        # a repeated strategy was silently dropped
        {"total_loss_db_grid": [20.0, 20.0]},
        {"strategies": ["symmetric", "symmetric"]},
        # its z-score rounds to 0.0, which used to surface as a sigma multiplier error
        {"epsilon": 0.97},
    ])
    def test_invalid_values(self, patch):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(dict(TINY_SWEEP, **patch))

    def test_direct_construction_raises_config_errors(self):
        # the domain types' range errors surface as ConfigError without from_dict too
        with pytest.raises(ConfigError, match="not a valid Strategy"):
            SweepConfig(total_loss_db_grid=(10.0,), mismatch_ratio=0.1, strategies=("bogus",))
        with pytest.raises(ConfigError, match="finite"):
            SweepConfig(total_loss_db_grid=(10.0,), mismatch_ratio=0.1, phi=float("nan"))
        with pytest.raises(ConfigError):
            QberScanConfig(s_a_grid=(0.1,), e_d=1.5)

    @pytest.mark.parametrize("mode", ["asymptotic", "finite"])
    def test_an_epsilon_near_one_is_named_in_the_error(self, mode):
        with pytest.raises(ConfigError, match="failure probability 0.97 "):
            SweepConfig.from_dict(dict(TINY_SWEEP, mode=mode, epsilon=0.97))

    def test_finite_mode_maps_epsilon_to_z_score(self):
        config = SweepConfig.from_dict(dict(TINY_SWEEP, mode="finite"))
        assert config.evaluation_mode().sigma_multiplier == 5.3

    def test_explicit_sigma_override(self, tmp_path):
        # epsilon is the one input that sets the confidence width
        document = dict(TINY_SWEEP, mode="finite", sigma_multiplier=3.0)
        with pytest.raises(ConfigError, match="unknown configuration field.*sigma_multiplier"):
            SweepConfig.from_dict(document)
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(document))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    def test_strategy_order_is_canonical(self):
        config = SweepConfig.from_dict(dict(TINY_SWEEP, strategies=["fully_asymmetric", "symmetric"]))
        names = [s.value for s in config.ordered_strategies()]
        assert names == ["symmetric", "fully_asymmetric"]


class TestQberScanConfig:
    def test_defaults_and_validation(self):
        config = QberScanConfig.from_dict({"s_a_grid": [0.01, 0.1, 1.0]})
        assert config.s_b == 0.1
        assert config.mu_b == 0.1
        assert config.nu == 0.01
        with pytest.raises(ConfigError):
            QberScanConfig.from_dict({"s_a_grid": []})
        with pytest.raises(ConfigError, match="extra"):
            QberScanConfig.from_dict({"s_a_grid": [0.1], "extra": 1})
        with pytest.raises(ConfigError, match="list"):
            QberScanConfig.from_dict({"s_a_grid": "1"})

    @pytest.mark.parametrize("document", [
        {"s_a_grid": [float("nan")]},
        {"s_a_grid": [0.1, float("inf")]},
        {"s_a_grid": [0.1], "s_b": float("nan")},
        {"s_a_grid": [0.1], "s_b": float("inf")},
        {"s_a_grid": [0.1], "mu_b": float("nan")},
        {"s_a_grid": [0.1], "mu_b": float("inf")},
        {"s_a_grid": [0.1], "s_b": True},
        {"s_a_grid": ["0.1"]},
    ])
    def test_non_finite_values_are_config_errors(self, document, tmp_path):
        # the non-finite values used to pass parsing and end in a runtime
        # error (NaN QBER), exit 3; the bool and the string were read as numbers
        with pytest.raises(ConfigError, match="finite"):
            QberScanConfig.from_dict(document)
        config = tmp_path / "scan.json"
        config.write_text(json.dumps(document))  # written as the JSON extensions NaN/Infinity
        assert main(["qber-scan", "--config", str(config), "--out", str(tmp_path / "scan.csv")]) == 2

    def test_scan_shape(self):
        rows = run_qber_scan(QberScanConfig(s_a_grid=(0.01, 0.02, 0.1, 0.5, 1.0)))
        ratios = [r.ratio for r in rows]
        assert ratios == pytest.approx([0.1, 0.2, 1.0, 5.0, 10.0], rel=1e-12)
        balanced = rows[2]
        assert balanced.e_xx_full == pytest.approx(0.0182, abs=0.002)
        # error grows with asymmetry on both flanks
        assert rows[0].e_xx_full > 3 * balanced.e_xx_full
        assert rows[-1].e_xx_full > 3 * balanced.e_xx_full

    def test_stacked_scan_matches_the_point_by_point_loop(self):
        # three stacks of the decoy LP, the last of one, and the degenerate point s_a = nu
        grid = [10.0 ** (-3.0 + 3.0 * i / (2 * STACK_SIZE)) for i in range(2 * STACK_SIZE + 1)]
        config = QberScanConfig(s_a_grid=tuple(grid[:20] + [0.01] + grid[20:]))
        assert run_qber_scan(config) == qber_scan_reference(config)

    def test_degenerate_decoy_point_spikes(self):
        rows = run_qber_scan(QberScanConfig(s_a_grid=(0.01, 0.1)))
        assert rows[0].e_zz_upper > 1.2 * rows[1].e_zz_upper


class TestSweep:
    def test_rows_in_configuration_order(self):
        config = SweepConfig.from_dict(dict(TINY_SWEEP, total_loss_db_grid=[40.0, 30.0]))
        rows, _ = run_sweep(config)
        keys = [(r.loss_db, r.strategy) for r in rows]
        assert keys == [
            (40.0, "symmetric"), (40.0, "fully_asymmetric"),
            (30.0, "symmetric"), (30.0, "fully_asymmetric"),
        ]
        for row in rows:
            assert row.key_rate >= 0.0
            assert 0.0 <= row.e_xx <= 1.0
            assert row.mu_a is None  # asymptotic rows carry no decoy columns

    def test_worker_pool_matches_serial_execution(self):
        # finite rows search on state of their own, which must not leak across rows or processes
        for document in (TINY_SWEEP, FINITE_SWEEP):
            config = SweepConfig.from_dict(dict(document))
            (rows, problems), (serial_rows, serial_problems) = run_sweep(config, workers=2), run_sweep(config)
            assert rows == serial_rows
            assert [p and p.to_text() for p in problems] == [p and p.to_text() for p in serial_problems]

    @staticmethod
    def _serial_pool(monkeypatch) -> list:
        """Stand in a pool that records its size and runs jobs in this process; returns the sizes."""
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "_process_pool", SerialPool)
        return pools

    def test_worker_pool_is_capped_at_the_job_count(self, monkeypatch):
        pools = self._serial_pool(monkeypatch)
        monkeypatch.setattr(experiments, "_sweep_rows", lambda config, jobs: [(job, None) for job in jobs])
        config = SweepConfig.from_dict(dict(FINITE_SWEEP))  # two finite jobs, one per share
        rows, problems = run_sweep(config, workers=64)
        assert pools == [2]
        assert rows == [(20.0, "symmetric"), (20.0, "signal_only")]
        assert problems == [None, None]
        run_sweep(config, workers=2)
        assert pools == [2, 2]

    def test_jobs_are_dealt_round_robin_into_one_share_per_worker(self, monkeypatch):
        pools, shares = self._serial_pool(monkeypatch), []
        monkeypatch.setattr(experiments, "_sweep_rows",
                            lambda config, jobs: shares.append(jobs) or [(job, None) for job in jobs])
        config = SweepConfig.from_dict(dict(TINY_SWEEP, total_loss_db_grid=[30.0, 40.0, 50.0]))
        jobs = [(loss, name) for loss in (30.0, 40.0, 50.0) for name in ("symmetric", "fully_asymmetric")]
        rows, _ = run_sweep(config, workers=4)
        assert pools == [4]
        assert shares == [jobs[0::4], jobs[1::4], jobs[2::4], jobs[3::4]]
        assert rows == jobs
        shares.clear()
        assert run_sweep(config)[0] == jobs
        assert pools == [4] and shares == [jobs]  # one worker: one share, no pool

    def test_dealt_asymptotic_shares_write_the_bytes_of_one_share(self, monkeypatch, tmp_path):
        # each share searches its rows in lockstep; no search depends on the others in its stack
        pools = self._serial_pool(monkeypatch)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(dict(TINY_SWEEP, total_loss_db_grid=[30.0, 40.0, 50.0])))
        outputs = []
        for workers in ("4", "1"):
            out = tmp_path / f"workers{workers}.csv"
            assert main(["sweep", "--config", str(config), "--out", str(out), "--workers", workers]) == 0
            outputs.append(out.read_bytes())
        assert pools == [4]
        assert outputs[0] == outputs[1]

    def test_finite_rows_carry_probabilities(self, finite_run):
        _, out, _ = finite_run
        (row,) = _csv_rows(out)
        assert 0.0 < float(row["p_s_a"]) < 1.0
        assert float(row["mu_a"]) > float(row["nu_a"]) > 0.0

    def test_lp_dumps_on_request(self, finite_run):
        _, _, dump = finite_run
        text = dump.read_text()
        assert text.startswith("=== loss_db=20.0 strategy=symmetric ===\ndecoy yield LP")
        assert text.count("=== loss_db=") == 1

    def test_lp_dumps_follow_row_order(self, tmp_path):
        def problem(label):
            return LpProblem(
                coefficients=np.zeros((1, 100)), gain_lower=np.zeros(1), gain_upper=np.ones(1),
                slack_mass=np.zeros(1), pair_labels=(label,),
            )

        keys = [(loss, strategy) for loss in (30.0, 20.0, 30.0) for strategy in ("symmetric", "signal_only")]
        rows = [SimpleNamespace(loss_db=loss, strategy=strategy) for loss, strategy in keys]
        problems = [problem(f"row{i}") for i in range(len(rows))]
        problems[3] = None  # a row without an LP gets no section
        path = tmp_path / "dump.lp.txt"
        write_lp_dumps(str(path), rows, problems)
        expected = []
        for row, lp in zip(rows, problems):
            if lp is not None:
                expected += [f"=== loss_db={row.loss_db!r} strategy={row.strategy} ===", lp.to_text()]
        assert path.read_text() == "\n".join(expected) + "\n"


class TestCsv:
    def test_byte_identical_reruns(self, tmp_path):
        config = SweepConfig.from_dict(dict(TINY_SWEEP))
        rows, _ = run_sweep(config)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(str(first), SWEEP_COLUMNS, rows, dict(TINY_SWEEP))
        write_csv(str(second), SWEEP_COLUMNS, rows, dict(TINY_SWEEP))
        assert first.read_bytes() == second.read_bytes()

    def test_header_carries_version_and_hash(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ("a",), [], {"x": 1})
        header, columns = path.read_text().splitlines()
        assert header.startswith("# tfqkd 0.1.0 config_sha256=")
        assert len(header.rsplit("=", 1)[1]) == 64
        assert columns == "a"

    def test_empty_cells_for_missing_values(self, tmp_path):
        config = SweepConfig.from_dict(dict(TINY_SWEEP, total_loss_db_grid=[25.0]))
        rows, _ = run_sweep(config)
        path = tmp_path / "out.csv"
        write_csv(str(path), SWEEP_COLUMNS, rows, dict(TINY_SWEEP))
        body = path.read_text().splitlines()[2]
        assert ",,," in body  # absent decoy columns stay empty

    def test_cells_are_plain_parseable_numbers(self, tmp_path):
        config = SweepConfig.from_dict(dict(TINY_SWEEP, total_loss_db_grid=[25.0]))
        path = tmp_path / "out.csv"
        write_csv(str(path), SWEEP_COLUMNS, run_sweep(config)[0], dict(TINY_SWEEP))
        text = path.read_text()
        assert "np.float" not in text and "(" not in text.splitlines()[2]
        for line in text.splitlines()[2:]:
            for cell in line.split(","):
                if cell and not cell[0].isalpha():
                    float(cell)  # must round-trip as a number


class TestCli:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_sweep_round_trip(self, tmp_path):
        config = self._write(tmp_path, "sweep.json", TINY_SWEEP)
        out = tmp_path / "rates.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2 + 2  # header + columns + two rows

    def test_qber_scan_round_trip(self, tmp_path):
        config = self._write(tmp_path, "scan.json", {"s_a_grid": [0.05, 0.1, 0.2]})
        out = tmp_path / "scan.csv"
        assert main(["qber-scan", "--config", config, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ",".join(QBER_SCAN_COLUMNS)
        assert len(lines) == 2 + 3

    def test_unknown_field_exits_with_config_error(self, tmp_path):
        config = self._write(tmp_path, "bad.json", dict(TINY_SWEEP, shoe_size=43))
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2

    def test_non_integer_start_count_exits_with_config_error(self, tmp_path):
        config = self._write(tmp_path, "bad.json", dict(TINY_SWEEP, n_starts=2.5))
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2

    def test_malformed_json_exits_with_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    def test_undecodable_config_exits_with_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"s_a_grid": [0.1], "note": "\xe9"}')
        assert main(["qber-scan", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        message = capsys.readouterr().err
        assert message.startswith("configuration error:") and message.count("\n") == 1

    def test_overflowing_scan_intensity_exits_with_runtime_error(self, tmp_path, capsys):
        # expm1 of the arriving intensity overflows; 1000.0 still evaluates
        config = self._write(tmp_path, "scan.json", {"s_a_grid": [1500.0]})
        assert main(["qber-scan", "--config", config, "--out", str(tmp_path / "x.csv")]) == 3
        message = capsys.readouterr().err
        assert message.startswith("runtime error:") and message.count("\n") == 1

    def test_overflow_message_names_the_arriving_intensities(self, tmp_path, capsys):
        config = self._write(tmp_path, "scan.json", {"s_a_grid": [1500.0]})
        assert main(["qber-scan", "--config", config, "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == "runtime error: arriving intensities 1500.0, 0.1 overflow the X-basis gain\n"

    @pytest.mark.parametrize("grid, message", [
        ([0.5, 1500.0], "decoy arriving intensities 0.5, 2000.0 overflow the Z-basis gain"),
        ([1500.0, 0.5], "arriving intensities 1500.0, 0.1 overflow the X-basis gain"),
    ])
    def test_the_first_failing_point_names_the_error(self, tmp_path, capsys, grid, message):
        # point by point, as the grid is written, and a point's X-basis columns
        # before its LP: 0.5 fails in its LP, 1500.0 in its X-basis columns
        config = self._write(tmp_path, "scan.json", {"s_a_grid": grid, "mu_b": 2000.0})
        assert main(["qber-scan", "--config", config, "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == f"runtime error: {message}\n"

    def test_decoy_overflow_message_names_the_decoy_arriving_intensities(self, tmp_path, capsys):
        # the decoy pair (0.5, 2000.0) overflows the Z-basis gain of the phase-error LP
        config = self._write(tmp_path, "scan.json", {"s_a_grid": [0.5], "mu_b": 2000.0})
        assert main(["qber-scan", "--config", config, "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            "runtime error: decoy arriving intensities 0.5, 2000.0 overflow the Z-basis gain\n"
        )

    def test_missing_config_file_exits_with_config_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.json"), "--out", "x.csv"]) == 2

    def test_unwritable_output_exits_with_runtime_error(self, tmp_path):
        config = self._write(tmp_path, "sweep.json", TINY_SWEEP)
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file where a directory is needed
        out = blocker / "sub" / "rates.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 3

    def test_lp_dump_flag_writes_audit_file(self, finite_run):
        code, _, dump = finite_run
        assert code == 0
        assert dump.exists()
        assert "decoy yield LP" in dump.read_text()


class TestGolden:
    """CLI outputs must match the committed files byte for byte."""

    def test_asymptotic_sweep(self, tmp_path):
        out = tmp_path / "asymptotic_sweep.csv"
        config = str(GOLDEN / "asymptotic_sweep.json")
        assert main(["sweep", "--config", config, "--out", str(out), "--dump-lp"]) == 0
        assert out.read_bytes() == (GOLDEN / "asymptotic_sweep.csv").read_bytes()
        assert not Path(str(out) + ".lp.txt").exists()  # asymptotic rows have no LP

    def test_asymptotic_sweep_at_hundredfold_mismatch(self, tmp_path):
        out = tmp_path / "asymptotic_sweep_mismatch001.csv"
        config = str(GOLDEN / "asymptotic_sweep_mismatch001.json")
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "asymptotic_sweep_mismatch001.csv").read_bytes()

    #: Key rates of the asymptotic goldens when the multistart coordinate descent
    #: (4 and 2 starts) produced them, before the grid search replaced it.
    MULTISTART_RATES = {
        "asymptotic_sweep": {
            ("20.0", "symmetric"): 0.0002854343659253268,
            ("20.0", "add_fibre"): 0.0008515931822320577,
            ("20.0", "signal_only"): 0.0019503270688916382,
            ("20.0", "fully_asymmetric"): 0.0019503270688916382,
            ("40.0", "symmetric"): 2.522452427592556e-05,
            ("40.0", "add_fibre"): 8.353329710093553e-05,
            ("40.0", "signal_only"): 0.0001839573585726456,
            ("40.0", "fully_asymmetric"): 0.0001839573585726456,
        },
        "asymptotic_sweep_mismatch001": {
            ("30.0", "symmetric"): 2.5513395187183814e-06,
            ("30.0", "add_fibre"): 8.353329710093549e-05,
            ("30.0", "fully_asymmetric"): 0.0002466797766166555,
            ("50.0", "symmetric"): 2.264784332963549e-07,
            ("50.0", "add_fibre"): 8.301120198211865e-06,
            ("50.0", "fully_asymmetric"): 2.423401710670985e-05,
        },
    }

    @pytest.mark.parametrize("name", sorted(MULTISTART_RATES))
    def test_asymptotic_rates_never_fall_below_the_multistart_ones(self, name):
        rows = _csv_rows(GOLDEN / f"{name}.csv")
        previous = self.MULTISTART_RATES[name]
        assert {(row["loss_db"], row["strategy"]) for row in rows} == set(previous)
        for row in rows:
            assert float(row["key_rate"]) >= previous[(row["loss_db"], row["strategy"])] * (1.0 - 1e-12)

    def test_finite_sweep(self, finite_run):
        code, out, dump = finite_run
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "finite_sweep.csv").read_bytes()
        assert dump.read_bytes() == (GOLDEN / "finite_sweep.csv.lp.txt").read_bytes()

    def test_qber_scan(self, tmp_path):
        out = tmp_path / "qber_scan.csv"
        assert main(["qber-scan", "--config", str(GOLDEN / "qber_scan.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "qber_scan.csv").read_bytes()
