"""Sweep front end: configuration parsing, loss grids, CSV output.

A sweep optimizes each requested strategy at every point of a total-loss
grid with a fixed channel mismatch, and writes one CSV row per
(loss, strategy).  A QBER scan reproduces the two diagnostic curves of
the channel model: the X-basis error rate versus signal asymmetry (full
expression and first-order approximation) and the LP-bounded phase-error
rate versus decoy asymmetry.

Configurations are single JSON documents with snake_case fields; unknown
fields are rejected so experiment records stay unambiguous.  A
configuration checks the shape of its document (lists, integers, numbers,
non-empty fields, the spelling of the mode) and the scan intensities,
which no domain type bounds; every other value range belongs to the
domain type that uses it (ChannelScenario, split_total_loss,
EvaluationMode, sigma_multiplier_from_epsilon, Strategy), built once at
parse time, and its error becomes a ConfigError.  Output files are
byte-identical for identical configurations: rows are emitted in
configuration order regardless of worker scheduling, floats are written
with shortest round-trip formatting, and the header carries the tool
version and a hash of the configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, fields as dataclass_fields

from . import __version__
from .channel import (
    ArrivingIntensities,
    ChannelScenario,
    first_order_diagnostics,
    x_basis_gain,
    x_basis_qber,
)
from .decoy import EvaluationMode, LpProblem, sigma_multiplier_from_epsilon, yield_bounds
from .errors import ConfigError, DomainError
from .optimizer import PARAMETER_NAMES, Strategy, optimize_strategies
from .security import cat_state, key_rate, phase_error_upper_bound


def split_total_loss(total_loss_db: float, mismatch_ratio: float) -> tuple[float, float]:
    """Transmittances (eta_a, eta_b) for a total loss and a fixed ratio.

    Solves eta_a * eta_b = 10^(-L/10) with eta_a = x * eta_b, so
    eta_b = 10^(-L/20) / sqrt(x).  If that exceeds 1 the B side is capped
    and the excess loss lands entirely on the A side.
    """
    # written as 0 <= x < inf so that NaN is rejected too
    if not 0.0 <= total_loss_db < math.inf:
        raise DomainError(f"total loss must be finite and nonnegative, got {total_loss_db}")
    if not (0.0 < mismatch_ratio <= 1.0):
        raise DomainError(f"mismatch ratio must lie in (0, 1], got {mismatch_ratio}")
    eta_total = 10.0 ** (-total_loss_db / 10.0)
    eta_b = 10.0 ** (-total_loss_db / 20.0) / math.sqrt(mismatch_ratio)
    if eta_b > 1.0:
        return eta_total, 1.0
    return mismatch_ratio * eta_b, eta_b


def _parse_config(cls, document: dict, required: tuple[str, ...]):
    if not isinstance(document, dict):
        raise ConfigError("configuration must be a JSON object")
    known = {f.name for f in dataclass_fields(cls)}
    unknown = sorted(set(document) - known)
    if unknown:
        raise ConfigError(f"unknown configuration field(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(document))
    if missing:
        raise ConfigError(f"missing configuration field(s): {', '.join(missing)}")
    return _config_checked(cls, **document)


def _config_checked(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except (DomainError, TypeError, ValueError) as error:
        raise ConfigError(str(error)) from None


def _require_lists(config, *names: str) -> None:
    # a JSON string would otherwise be read as a sequence of characters
    for name in names:
        if not isinstance(getattr(config, name), (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {getattr(config, name)!r}")


def _require_type(config, *names: str, kind=(int, float), noun: str = "a finite number") -> None:
    # checked by type: a bool is an int to Python, and float() would parse a string
    for name in names:
        value = getattr(config, name)
        for entry in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(entry, bool) or not isinstance(entry, kind):
                raise ConfigError(f"{name}: {entry!r} is not {noun}")


@dataclass(frozen=True)
class SweepConfig:
    """Strategy-comparison sweep over a total-loss grid."""

    total_loss_db_grid: tuple[float, ...]
    mismatch_ratio: float
    p_d: float = 1e-8
    e_d: float = 0.02
    phi: float = 0.0
    mode: str = "asymptotic"
    n_pulses: float = 1e12
    epsilon: float = 1e-7
    strategies: tuple[str, ...] = tuple(s.value for s in Strategy)
    n_starts: int = 4
    seed: int = 1

    def __post_init__(self):
        _require_lists(self, "total_loss_db_grid", "strategies")
        _require_type(self, "total_loss_db_grid", "mismatch_ratio", "p_d", "e_d", "phi", "n_pulses", "epsilon")
        _require_type(self, "n_starts", "seed", kind=int, noun="an integer")
        object.__setattr__(self, "total_loss_db_grid", tuple(float(v) for v in self.total_loss_db_grid))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if len(self.total_loss_db_grid) == 0:
            raise ConfigError("total_loss_db_grid must not be empty")
        if len(self.strategies) == 0:
            raise ConfigError("strategies must not be empty")
        if self.mode not in ("asymptotic", "finite"):
            raise ConfigError(f"mode must be 'asymptotic' or 'finite', got {self.mode!r}")
        if self.n_starts < 1:
            raise ConfigError(f"n_starts must be at least 1, got {self.n_starts}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        # the domain types own the range rules; building each once checks
        # every value, and _config_checked turns their errors into ConfigError
        for loss in self.total_loss_db_grid:
            _config_checked(self.scenario_for, loss)
        _config_checked(self.evaluation_mode)
        for name in self.strategies:
            _config_checked(Strategy, name)
        for name in ("total_loss_db_grid", "strategies"):  # one row per (loss, strategy)
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} must not repeat an entry, got {list(getattr(self, name))}")

    @classmethod
    def from_dict(cls, document: dict) -> "SweepConfig":
        return _parse_config(cls, document, required=("total_loss_db_grid", "mismatch_ratio"))

    def evaluation_mode(self) -> EvaluationMode:
        # the finite mode is built, and epsilon mapped, whatever the mode, so
        # that parsing checks n_pulses and epsilon
        finite = EvaluationMode.finite(self.n_pulses, sigma_multiplier_from_epsilon(self.epsilon))
        return finite if self.mode == "finite" else EvaluationMode.asymptotic()

    def scenario_for(self, total_loss_db: float) -> ChannelScenario:
        eta_a, eta_b = split_total_loss(total_loss_db, self.mismatch_ratio)
        return ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=self.p_d, e_d=self.e_d, phi=self.phi)

    def ordered_strategies(self) -> tuple[Strategy, ...]:
        requested = set(self.strategies)
        return tuple(s for s in Strategy if s.value in requested)


@dataclass(frozen=True)
class QberScanConfig:
    """Error-rate diagnostics versus intensity asymmetry.

    The scan grid serves as the A-side signal intensity for the X-basis
    columns and as the A-side strong decoy for the LP-bounded phase-error
    column, against fixed B-side values; transmittances are unity, dark
    counts and phase mismatch zero (interference-limited setting).
    """

    s_a_grid: tuple[float, ...]
    s_b: float = 0.1
    mu_b: float = 0.1
    nu: float = 0.01
    e_d: float = 0.02

    def __post_init__(self):
        _require_lists(self, "s_a_grid")
        _require_type(self, "s_a_grid", "s_b", "mu_b", "nu", "e_d")
        object.__setattr__(self, "s_a_grid", tuple(float(v) for v in self.s_a_grid))
        if len(self.s_a_grid) == 0:
            raise ConfigError("s_a_grid must not be empty")
        # written as 0 < x < inf so that NaN is rejected too
        if not all(0.0 < v < math.inf for v in self.s_a_grid):
            raise ConfigError("s_a_grid entries must be positive and finite")
        if not (0.0 < self.s_b < math.inf and 0.0 < self.mu_b < math.inf):
            raise ConfigError("s_b and mu_b must be positive and finite")
        if not (0.0 < self.nu <= self.mu_b):
            raise ConfigError(f"nu must lie in (0, mu_b], got {self.nu}")
        _config_checked(self.scenario)  # checks e_d

    @classmethod
    def from_dict(cls, document: dict) -> "QberScanConfig":
        return _parse_config(cls, document, required=("s_a_grid",))

    def scenario(self) -> ChannelScenario:
        return ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=self.e_d, phi=0.0)


#: One CSV row per (loss, strategy); the parameter columns are the ProtocolParameters fields.
SWEEP_COLUMNS = ("loss_db", "strategy", "key_rate", "key_rate_raw", *PARAMETER_NAMES, "e_xx", "e_zz_upper", "p_xx")
# a module-level type named here, so rows pickle to and from sweep workers
SweepRow = namedtuple("SweepRow", SWEEP_COLUMNS, module=__name__)


def _sweep_rows(config: SweepConfig, jobs: list[tuple[float, str]]) -> list[tuple[SweepRow, LpProblem | None]]:
    """The row and the yield LP of each (loss, strategy) job, from one optimize_strategies call."""
    mode = config.evaluation_mode()
    points = [(config.scenario_for(loss), Strategy(name)) for loss, name in jobs]
    outcomes = []
    for (loss_db, strategy), (params, report) in zip(
            jobs, optimize_strategies(points, mode, n_starts=config.n_starts, seed=config.seed)):
        values = {name: getattr(params, name) for name in PARAMETER_NAMES}
        if not mode.is_finite:  # blank the zero decoys asymptotic rates do not use; the probabilities are None
            values.update(mu_a=None, nu_a=None, mu_b=None, nu_b=None)
        row = SweepRow(loss_db=loss_db, strategy=strategy, key_rate=report.rate,
                       key_rate_raw=key_rate(report.p_xx, report.e_xx, report.e_zz_upper), **values,
                       e_xx=report.e_xx, e_zz_upper=report.e_zz_upper, p_xx=report.p_xx)
        outcomes.append((row, report.lp_problem))
    return outcomes


def _process_pool(workers: int):
    """A pool of worker processes; concurrent.futures is imported only when a sweep deals several shares."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_sweep(config: SweepConfig, workers: int = 1) -> tuple[list[SweepRow], list[LpProblem | None]]:
    """One optimized row per (loss, strategy), in configuration order.

    Jobs are dealt round-robin into min(workers, jobs) shares, each one
    _sweep_rows call (asymptotic rows search in lockstep), several shares on
    a process pool.  Rows are reassembled in order and none depends on its
    share, so the result does not depend on workers.  Returns (rows,
    problems): problems[i] is row i's yield LP, None for asymptotic rows.
    """
    jobs = [
        (loss, strategy.value)
        for loss in config.total_loss_db_grid
        for strategy in config.ordered_strategies()
    ]
    shares = min(workers, len(jobs))
    if shares > 1:
        outcomes = [None] * len(jobs)
        with _process_pool(shares) as pool:
            dealt = [jobs[k::shares] for k in range(shares)]
            for k, rows in enumerate(pool.map(_sweep_rows, [config] * shares, dealt)):
                outcomes[k::shares] = rows
    else:
        outcomes = _sweep_rows(config, jobs)
    return [row for row, _ in outcomes], [problem for _, problem in outcomes]


QBER_SCAN_COLUMNS = ("ratio", "e_xx_full", "e_xx_first_order", "e_zz_upper")
QberScanRow = namedtuple("QberScanRow", QBER_SCAN_COLUMNS, module=__name__)


def run_qber_scan(config: QberScanConfig):
    """Error rates versus the asymmetry of arriving intensities.

    For each scan value v the X-basis columns use signal intensities
    (v, s_b), and the phase-error column bounds the yields by LP from the
    decoy sets {v, nu, 0} versus {mu_b, nu, 0} with signal states fixed at
    (s_b, s_b) for the cat-state weights.  The LPs of the whole grid go to
    decoy.yield_bounds, which solves them in stacks.  A failing point raises
    in grid order, its X-basis columns before its LP.
    """
    scenario = config.scenario()
    p_xx_signal = x_basis_gain(scenario, ArrivingIntensities.from_sources(scenario, config.s_b, config.s_b))
    # the decoy set is a set: a scan value below nu simply swaps roles
    decoys_a = [(v, config.nu, 0.0) if v >= config.nu else (config.nu, v, 0.0) for v in config.s_a_grid]
    decoys_b = [(config.mu_b, config.nu, 0.0)] * len(decoys_a)
    x_columns = []
    for value in config.s_a_grid:
        try:
            gamma = ArrivingIntensities.from_sources(scenario, value, config.s_b)
            x_columns.append((x_basis_qber(scenario, gamma), first_order_diagnostics(scenario, gamma)))
        except Exception:  # the points before this one raise their first LP error, if any, before its own
            yield_bounds(scenario, decoys_a[:len(x_columns)], decoys_b[:len(x_columns)])
            raise
    bound_matrices = yield_bounds(scenario, decoys_a, decoys_b)
    # the signal's cat rows, broadcast as one stack slice per bound matrix: one bound call for the whole grid
    cat = tuple(part[:, None] for part in cat_state(math.sqrt(config.s_b), bound_matrices.shape[-1]))
    phase_errors = phase_error_upper_bound(cat, cat, bound_matrices)[:, 0, 0].tolist()
    return [QberScanRow(ratio=value / config.s_b, e_xx_full=e_full, e_xx_first_order=e_first,
                        e_zz_upper=min(1.0, phase_error / p_xx_signal))
            for value, (e_full, e_first), phase_error in zip(config.s_a_grid, x_columns, phase_errors)]


def config_digest(document: dict) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # covers numpy scalars; repr of the plain float round-trips
        return repr(float(value))
    return str(value)


def write_csv(path: str, columns: tuple[str, ...], rows, config_document: dict) -> None:
    """CSV with a commented header carrying the tool version and config hash."""
    lines = [f"# tfqkd {__version__} config_sha256={config_digest(config_document)}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(getattr(row, c)) for c in columns))
    payload = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(payload)


def write_lp_dumps(path: str, rows, problems) -> None:
    """LP audit dumps, one section per sweep row that has an LP, in row order."""
    sections = []
    for row, problem in zip(rows, problems):
        if problem is not None:
            sections.append(f"=== loss_db={row.loss_db!r} strategy={row.strategy} ===")
            sections.append(problem.to_text())
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(sections) + "\n")
