"""Experiment orchestration: synthetic benchmarks, tabular runs, sweeps.

Subcommands
-----------
synth           binary-group Gaussian benchmark vs the exact oracle
multiclass      multi-group Gaussian benchmark (perfect parity)
tradeoff        tolerance sweep reusing a single score-model fit
oracle-compare  fitted thresholds and accuracy vs their population optima
tabular         CSV benchmark: fit on train, calibrate on validation

Reports are deterministic for a fixed config: every per-task seed is derived
from the master seed by the documented rule ``SeedSequence([seed, rep])``
(three child integers: population, train sample, test sample), floats are
serialized with ``repr``, and wall-clock timings go to stderr only, so
re-running a config reproduces the report byte for byte.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import functools
import hashlib
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import gaussian as ga
from . import scores as sc
from . import tabular as tb
from .core import MEASURES, FairnessConstraint, ThresholdRule, fork_map
from .metrics import GroupedScores, ThresholdCurve, evaluate
from .solve import solve, solve_multiclass_dp
from .synth import SynthSpec, draw_population, sample

REPORT_VERSION = 1

COLUMNS = {
    "synth": [
        "measure", "delta", "reps",
        "disparity_mean", "disparity_sd",
        "acc_mean", "acc_sd",
        "oracle_acc_mean", "oracle_acc_sd",
        "pop_acc_gap_mean", "pop_acc_gap_max",
        "cal_disparity_mean",
    ],
    "multiclass": [
        "n_groups", "reps",
        "ddp_mean", "ddp_sd",
        "acc_mean", "acc_sd",
        "oracle_acc_mean", "oracle_acc_sd",
        "pop_acc_gap_mean", "pop_acc_gap_max",
        "sum_t_max",
    ],
    "tradeoff": ["measure", "delta", "disparity", "accuracy", "cal_disparity", "cal_plugin_accuracy"],
    "oracle-compare": [
        "measure", "delta", "reps",
        "t_err_mean", "t_err_max",
        "q0_err_mean", "q1_err_mean",
        "pop_acc_gap_mean", "pop_acc_gap_max",
        "disparity_mean",
    ],
    "tabular": [
        "measure", "delta", "reps",
        "disparity_mean", "disparity_sd",
        "acc_mean", "acc_sd",
        "cal_disparity_mean",
    ],
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    measure: str = "dp"
    deltas: Optional[tuple] = None  # None: the runner's default grid
    cost: float = 0.5
    reps: int = 20
    seed: int = 0
    n_train: int = 20000
    n_test: int = 5000
    dim: int = 10
    sigma: float = 1.0
    n_groups: int = 2
    fixed_population: bool = False
    randomize: bool = False
    epochs: int = 500
    learning_rate: float = 1.0
    per_group: bool = True
    data_path: Optional[str] = None
    schema_path: Optional[str] = None
    fractions: tuple = (0.7, 0.1, 0.2)
    n_deltas: int = 50  # tradeoff grid size when deltas not given explicitly
    out: Optional[str] = None
    format: str = "table"
    jobs: int = 1

    def __post_init__(self):
        if self.kind not in COLUMNS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.deltas is not None and not all(0.0 <= d < float("inf") for d in self.deltas):  # also rejects nan
            raise ValueError("delta values must be finite and >= 0")
        if self.deltas is not None and not len(self.deltas):
            raise ValueError("deltas (--delta) must list at least one tolerance")
        if len(self.fractions) != 3:
            raise ValueError("fractions must give three parts: train, validation, test")
        object.__setattr__(self, "fractions", tuple(self.fractions))  # hashable, for the memo key
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        for name in ("n_train", "n_test", "jobs", "epochs", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} (--{name.replace('_', '-')}) must be >= 1")
        for name in ("sigma", "learning_rate"):
            if not 0.0 < getattr(self, name) < float("inf"):  # also rejects nan
                raise ValueError(f"{name} (--{name.replace('_', '-')}) must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed (--seed) must be >= 0")
        if self.n_deltas < 1:
            raise ValueError("n_deltas must be >= 1")
        if not 0.0 <= self.cost <= 1.0:  # also rejects nan
            raise ValueError("cost must lie in [0, 1]")
        if self.kind == "tabular" and not self.data_path:
            raise ValueError("tabular runs need --data pointing at a CSV file")
        if self.data_path and self.kind not in ("tabular", "tradeoff"):
            raise ValueError(
                f"{self.kind} runs draw synthetic data: data_path (--data) applies to tabular and tradeoff only"
            )
        if self.schema_path and not self.data_path:
            raise ValueError("schema_path (--schema) describes a CSV file: it applies only with data_path (--data)")
        defaults = {f.name: f.default for f in fields(self)}
        if self.fractions != defaults["fractions"] and not self.data_path:
            raise ValueError("fractions split a CSV file: they apply only with data_path (--data)")
        if self.n_deltas != defaults["n_deltas"]:
            if self.kind != "tradeoff":
                raise ValueError(f"n_deltas (--n-deltas) sizes the tradeoff grid: it does not apply to {self.kind}")
            if self.deltas is not None:
                raise ValueError("n_deltas (--n-deltas) sizes the default grid, which deltas (--delta) replace")
        if self.kind == "multiclass":
            if self.n_groups < 2:
                raise ValueError("multiclass compares at least two groups: n_groups (--groups) must be >= 2")
            if self.dim != defaults["dim"]:
                raise ValueError("multiclass populations have one dimension per group: dim (--dim) does not apply")
            if self.cost != 0.5:
                raise ValueError(
                    "cost must be 0.5 for multiclass: its solver covers the cost-1/2 family only"
                )
            if self.measure != "dp":
                raise ValueError("multiclass solves perfect demographic parity: measure (--measure) must be dp")
            if self.deltas is not None:
                raise ValueError("multiclass solves perfect demographic parity: deltas (--delta) do not apply")
            if self.randomize:
                raise ValueError("multiclass rules are deterministic: randomize (--randomize) does not apply")
        elif self.n_groups != 2:
            raise ValueError(f"{self.kind} runs compare two groups: n_groups (--groups) applies to multiclass only")
        if self.data_path:
            for name in ("dim", "sigma", "n_train", "n_test", "fixed_population"):
                if getattr(self, name) != defaults[name]:
                    flag = "--" + name.replace("_", "-")
                    raise ValueError(f"CSV data fixes the rows: {name} ({flag}) applies to synthetic data only")
        if self.format not in ("csv", "json", "table"):
            raise ValueError(f"unknown format {self.format!r}")

    def delta_grid(self) -> tuple:
        if self.deltas is not None:
            return self.deltas
        return (0.0, 0.1, 0.2, 0.3) if self.measure == "dp" else (0.0, 0.04, 0.08, 0.12)


def rep_seeds(master: int, rep: int) -> tuple:
    """Documented split rule: three child seeds per repetition index."""
    state = np.random.SeedSequence([master, rep]).generate_state(3, dtype=np.uint64)
    return tuple(int(v) for v in state)


def _data(cfg: ExperimentConfig, rep: int) -> tuple:
    """(population, train, validation, test) of repetition ``rep``.

    CSV data (``data_path``) is split with the repetition's first seed and has
    no population; its validation part is None when empty.  Synthetic data
    has no validation part: the population is drawn from the first seed (the
    master seed with ``fixed_population``), train and test from the other two.
    A multiclass train sample has ``n_train`` rows per group.
    """
    pop_seed, train_seed, test_seed = rep_seeds(cfg.seed, rep)
    if cfg.data_path:
        return (None, *_load_tabular_splits(cfg, split_seed=pop_seed))
    seed = cfg.seed if cfg.fixed_population else pop_seed
    if cfg.kind == "multiclass":
        pop = draw_population(SynthSpec.multiclass(cfg.n_groups, sigma=cfg.sigma, seed=seed))
        n_train = cfg.n_train * cfg.n_groups
    else:
        pop = draw_population(SynthSpec.binary(dim=cfg.dim, sigma=cfg.sigma, seed=seed))
        n_train = cfg.n_train
    return pop, sample(pop, n_train, train_seed), None, sample(pop, cfg.n_test, test_seed)


def _fit_and_score(cfg, train, val, test) -> tuple:
    """Fit on ``train``; the grouped scores of the calibration sample (the
    validation part when there is one, else ``train``) and of ``test``."""
    model = sc.fit_logistic(
        train, sc.TrainConfig(learning_rate=cfg.learning_rate, epochs=cfg.epochs, per_group=cfg.per_group)
    )
    return tuple(GroupedScores.from_dataset(d, sc.score_dataset(model, d))
                 for d in (val if val is not None else train, test))


# Fields that only the solve and the report read: they change neither the data nor the fit.
SOLVE_ONLY = ("measure", "deltas", "cost", "randomize", "n_deltas", "format", "out", "jobs")


@functools.lru_cache(maxsize=1)
def _scored(data_cfg: ExperimentConfig, rep: int, files) -> tuple:
    """(population, calibration scores, test scores) of repetition ``rep``.

    ``data_cfg`` has every ``SOLVE_ONLY`` field at its default, and ``files``
    holds the SHA-256 of the CSV and of the schema file given, so runner
    calls that differ only in measure, tolerances, cost, randomization or
    output share one draw, fit and scoring, while any other field, or a
    rewritten file, misses.  Only the last entry is kept; its grouped scores
    and population are read-only.
    """
    pop, *samples = _data(data_cfg, rep)
    return (pop, *_fit_and_score(data_cfg, *samples))


def _scored_rep(cfg: ExperimentConfig, rep: int) -> tuple:
    paths = (cfg.data_path, cfg.schema_path) if cfg.data_path else ()
    files = tuple(hashlib.sha256(Path(p).read_bytes()).digest() for p in paths if p)
    defaults = {f.name: f.default for f in fields(cfg) if f.name in SOLVE_ONLY}
    return _scored(replace(cfg, **defaults), rep, files)


def _constraint(cfg, delta) -> FairnessConstraint:
    return FairnessConstraint(cfg.measure, float(delta), cfg.cost)


def _cells(cfg: ExperimentConfig, deltas, gs_cal, gs_test, pop=None) -> list:
    """One cell per tolerance: solve on ``gs_cal``, evaluate on ``gs_test``.

    Given the population, a cell also holds the oracle columns: the exact
    fair-optimal rule's accuracy and the fitted rule's distance from it.
    """
    n_ay = gs_test.n_ay
    for y, _ in MEASURES[cfg.measure]:
        if y is not None and not n_ay[:, y].all():
            a = int(np.argmin(n_ay[:, y]))
            raise ValueError(
                f"the test sample has no row of group {a} with label {y}, which the {cfg.measure} disparity reads"
            )
    if pop is not None:
        curve = ThresholdCurve(cfg.measure, pop.p_a, pop.p_ya, cfg.cost)
    out = []
    for delta in deltas:
        res = solve(gs_cal, _constraint(cfg, delta), cfg.randomize)
        rep_eval = evaluate(res.rule, gs_test, cfg.cost)
        cell = {
            "delta": float(delta),
            "disparity": rep_eval.disparity(cfg.measure),
            "acc": rep_eval.accuracy,
            "cal_disparity": res.achieved_disparity,
            "cal_plugin_accuracy": res.plugin_accuracy,
        }
        if pop is not None:
            t_or = ga.t_star(pop, cfg.measure, delta, cfg.cost)
            q0, q1 = curve.thresholds(t_or)
            oracle_acc = ga.fair_accuracy(pop, ThresholdRule(np.array([q0, q1])))
            cell.update(
                oracle_acc=oracle_acc,
                pop_acc_gap=abs(oracle_acc - ga.fair_accuracy(pop, res.rule)),
                t_err=abs(res.t_hat - t_or),
                q0_err=abs(res.rule.thresholds[0] - q0),
                q1_err=abs(res.rule.thresholds[1] - q1),
            )
        out.append(cell)
    return out


# ---------------------------------------------------------------------------
# Per-repetition workers
# ---------------------------------------------------------------------------


def _binary_rep(cfg, rep):
    """Repetition ``rep``'s cells over the tolerance grid."""
    pop, gs_cal, gs_test = _scored_rep(cfg, rep)
    return _cells(cfg, cfg.delta_grid(), gs_cal, gs_test, pop)


def _multiclass_rep(cfg, rep):
    pop, *samples = _data(cfg, rep)
    gs_train, gs_test = _fit_and_score(cfg, *samples)
    del samples  # the features are scored: free them before the solve
    res = solve_multiclass_dp(gs_train)
    rep_eval = evaluate(res.rule, gs_test)
    orc = ga.oracle_multiclass_dp(pop)
    return {
        "ddp": rep_eval.rate_gap_sum,
        "acc": rep_eval.accuracy,
        "oracle_acc": orc.accuracy,
        "pop_acc_gap": abs(orc.accuracy - ga.fair_accuracy(pop, res.rule)),
        "sum_t": abs(res.sum_t),
    }


_STATS = {
    "mean": lambda v: float(v.mean()),
    "sd": lambda v: float(v.std(ddof=1)) if v.size > 1 else 0.0,
    "max": lambda v: float(v.max()),
}


def _aggregate(kind: str, cells: list, **fixed) -> dict:
    """One report row over the repetitions' cells.

    A column ``<key>_mean``, ``<key>_sd`` or ``<key>_max`` summarizes
    ``cell[key]`` across the cells; every other column comes from ``fixed``.
    """
    row = {}
    for col in COLUMNS[kind]:
        key, _, stat = col.rpartition("_")
        if stat in _STATS:
            row[col] = _STATS[stat](np.asarray([c[key] for c in cells], dtype=np.float64))
        else:
            row[col] = fixed[col]
    return row


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_binary(cfg: ExperimentConfig) -> tuple:
    """``cfg.reps`` repetitions of fit and tolerance grid; one row per tolerance."""
    per_rep = fork_map(functools.partial(_binary_rep, cfg), cfg.reps, cfg.jobs)
    rows = [
        _aggregate(cfg.kind, cells, measure=cfg.measure, delta=cells[0]["delta"], reps=cfg.reps)
        for cells in zip(*per_rep)
    ]
    return rows, {}


def run_multiclass(cfg: ExperimentConfig) -> tuple:
    cells = fork_map(functools.partial(_multiclass_rep, cfg), cfg.reps, cfg.jobs)
    return [_aggregate(cfg.kind, cells, n_groups=cfg.n_groups, reps=cfg.reps)], {}


def run_tradeoff(cfg: ExperimentConfig) -> tuple:
    """Tolerance sweep over repetition 0's own fit, calibrated as a binary
    run is; the fit count is reported for auditing."""
    _, *samples = _data(cfg, 0)
    sc.reset_fit_count()
    t0 = time.perf_counter()
    gs_cal, gs_test = _fit_and_score(cfg, *samples)
    fit_seconds = time.perf_counter() - t0
    if cfg.deltas is not None:
        deltas = cfg.deltas
    else:
        # default grid: from perfect fairness up to the unconstrained disparity
        res0 = solve(gs_cal, _constraint(cfg, 0.0), cfg.randomize)
        deltas = np.linspace(0.0, abs(res0.disparity_at_zero), cfg.n_deltas).tolist()
    t0 = time.perf_counter()
    cells = _cells(cfg, sorted(deltas), gs_cal, gs_test)
    sweep_seconds = time.perf_counter() - t0
    # one cell per row, so every column comes from the cell
    rows = [_aggregate(cfg.kind, [], measure=cfg.measure, accuracy=c["acc"], **c) for c in cells]
    meta = {
        "fit_count": sc.fit_count(),
        "fit_seconds": fit_seconds,
        "sweep_seconds": sweep_seconds,
    }
    return rows, meta


def _load_tabular_splits(cfg: ExperimentConfig, split_seed: int):
    """Split raw rows first, then fit the encoding on the training part only."""
    schema = tb.ColumnSchema.load(cfg.schema_path) if cfg.schema_path else tb.adult_schema()
    rows = tb.read_rows(cfg.data_path, schema)
    parts = [[rows[i] for i in idx] for idx in tb.split_indices(len(rows), cfg.fractions, split_seed)]
    for name, part in (("train", parts[0]), ("test", parts[2])):
        if not part:
            raise ValueError(
                f"the {name} part of the split is empty: fractions {cfg.fractions} of {len(rows)} rows"
            )
    tb.fit_schema(schema, parts[0])
    train, _ = tb.encode_rows(parts[0], schema)
    val, _ = tb.encode_rows(parts[1], schema) if parts[1] else (None, None)
    test, _ = tb.encode_rows(parts[2], schema)
    return train, val, test


RUNNERS = {
    "synth": run_binary,
    "multiclass": run_multiclass,
    "tradeoff": run_tradeoff,
    # the same runs; the report columns select the oracle-tracking statistics
    "oracle-compare": run_binary,
    # --data is required, so the runs have no population and no oracle columns
    "tabular": run_binary,
}


# ---------------------------------------------------------------------------
# Report serialization (deterministic)
# ---------------------------------------------------------------------------


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv(kind: str, rows: list) -> str:
    buf = io.StringIO()
    writer = csv_mod.writer(buf, lineterminator="\n")
    cols = COLUMNS[kind]
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in cols])
    return buf.getvalue()


def report_json(kind: str, cfg: ExperimentConfig, rows: list) -> str:
    payload = {
        "report_version": REPORT_VERSION,
        "kind": kind,
        "config": asdict(cfg),
        "columns": COLUMNS[kind],
        "rows": rows,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_table(kind: str, rows: list) -> str:
    """Human-readable table; mean columns fold in the sd as mean (sd)."""
    display = [c for c in COLUMNS[kind] if not c.endswith("_sd")]
    lines = []
    rendered = []
    for row in rows:
        cells = []
        for c in display:
            v = row[c]
            sd_key = c.replace("_mean", "_sd")
            if c.endswith("_mean") and sd_key in row:
                cells.append(f"{v:.3f} ({row[sd_key]:.3f})")
            elif isinstance(v, float):
                cells.append(f"{v:.4f}")
            else:
                cells.append(str(v))
        rendered.append(cells)
    headers = [c.replace("_mean", "") for c in display]
    widths = [max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h) for i, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def render(kind: str, cfg: ExperimentConfig, rows: list, fmt: str) -> str:
    if fmt == "csv":
        return report_csv(kind, rows)
    if fmt == "json":
        return report_json(kind, cfg, rows)
    return report_table(kind, rows)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_deltas(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def build_parser() -> argparse.ArgumentParser:
    """Each flag's ``dest`` is the :class:`ExperimentConfig` field it sets; a
    flag left out is absent from the parsed namespace."""
    parser = argparse.ArgumentParser(
        prog="fairthresh",
        description="Fairness-constrained group-threshold calibration experiments",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in RUNNERS:
        p = sub.add_parser(kind, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--delta", dest="deltas", type=_parse_deltas,
                       help="comma-separated tolerance list, e.g. 0,0.05,0.1")
        p.add_argument("--measure", choices=MEASURES)
        p.add_argument("--cost", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json", "table"))
        p.add_argument("--n-train", type=int)
        p.add_argument("--n-test", type=int)
        p.add_argument("--dim", type=int)
        p.add_argument("--sigma", type=float)
        p.add_argument("--groups", dest="n_groups", type=int, help="number of protected groups")
        p.add_argument("--epochs", type=int)
        p.add_argument("--learning-rate", type=float)
        p.add_argument("--joint-model", dest="per_group", action="store_const", const=False,
                       help="share feature weights across groups (one-hot encoding)")
        p.add_argument("--randomize", action="store_true",
                       help="randomize boundary ties for exact tolerance")
        p.add_argument("--fixed-population", action="store_true")
        p.add_argument("--n-deltas", type=int, help="tradeoff grid size")
        p.add_argument("--data", dest="data_path", help="CSV path for tabular and tradeoff runs")
        p.add_argument("--schema", dest="schema_path", help="column-schema JSON path")
        p.add_argument("--jobs", type=int)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's fields, overridden by the flags given."""
    flags = vars(args).copy()
    path, loaded = flags.pop("config", None), {}
    if path:
        with open(path, "r", encoding="utf-8-sig") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        loaded.pop("kind", None)
    fields = {**loaded, **flags}
    for name in ("deltas", "fractions"):  # JSON lists
        if name in fields:
            if not isinstance(fields[name], (list, tuple)):
                raise ValueError(f"config field {name!r} must be a list")
            fields[name] = tuple(fields[name])
    return ExperimentConfig(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        t0 = time.perf_counter()
        rows, meta = RUNNERS[cfg.kind](cfg)
        elapsed = time.perf_counter() - t0
        report = render(cfg.kind, cfg, rows, cfg.format)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(report)
            sys.stdout.write(report_table(cfg.kind, rows))
        else:
            sys.stdout.write(report)
        print(json.dumps(dict(meta, seconds=round(elapsed, 3)), sort_keys=True), file=sys.stderr)
        return 0
    except Exception as exc:  # structured failure summary, nonzero exit
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
