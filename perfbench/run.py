"""Benchmark of the fairthresh CLI runners, with every report checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth --seed 1 --seconds 40 --trace 0

Each workload drives ``fairthresh.cli.RUNNERS[kind](ExperimentConfig(...))``
with ``jobs=1`` in one process, as a closed loop with one caller: the next
runner call starts only after the previous one returned. Every report is
compared with the committed reference in ``perfbench/reference/``.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
wraps each layer's public functions (see ``tracer.py``), reports per-layer
metrics instead and writes its spans to ``.perfbench/``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Workloads, metrics and the table of which layer
should move which end-to-end metric are in ``perfbench/LAYERS.md``.
"""

import os
import sys

# Fixed BLAS/OpenMP thread count, set before numpy loads. Thread count
# changes reduction order, so it can change both timings and report bits;
# one thread never exceeds nproc.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYERS, MEASURES, Tracer, TracerError  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
SPAN_DIR = ROOT / ".perfbench"

# A report matches its reference when integers and strings are equal and
# every float is finite and within FLOAT_TOL * max(1, |reference|). Report
# floats are rates, accuracies and disparities in [-1, 1] built from float64
# sums of at most 1e5 terms: reordering such a sum moves it by at most about
# n * eps = 2e-11. The smallest real change a report can show is one row of
# a 5,000-row test set, 2e-4. The tolerance sits between the two.
FLOAT_TOL = 1e-9
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "passed/attempted",
}
# Printed with the end-to-end metrics but left out of the result line: each
# is 0 or a seed-dependent value at a correct commit, so it cannot carry a
# regression bound. The reference check gates them instead.
REPORTED_UNITS = {
    "fail_ratio": "failed/attempted",
    "oracle_gap_max": "accuracy",
    "cal_excess_max": "disparity",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/item"
    if name.endswith(".self_ms"):
        return "ms/item"
    if name.endswith((".share", "_ratio")):
        return "ratio"
    return {
        "solve.solve.candidates": "cands/item",
        "solve.solve.saturated": "solves/item",
        "scores.fit_logistic.row_epochs": "rowepochs/item",
        "cli.report_identical": "ratio",
    }[name]


PER_LAYER_NAMES = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_ms", "share")]
    + [f"solve.solve.{m}.self_ms" for m in MEASURES]
    + ["solve.solve.candidates", "solve.solve.scanned_ratio", "solve.solve.saturated",
       "scores.fit_logistic.row_epochs", "cli.report_identical", "trace.overhead_ratio"]
)

_BINARY = {"n_train": 20000, "n_test": 5000, "dim": 10, "epochs": 500,
           "learning_rate": 1.0, "per_group": True}
_COMMON_LAYERS = ("synth.draw_population", "synth.sample", "scores.fit_logistic",
                  "scores.score_dataset", "metrics.grouped_scores", "metrics.evaluate")
# Sizes of the untimed warm-up call, small enough to take milliseconds.
TINY = {"n_train": 400, "n_test": 200, "epochs": 5}


@dataclass(frozen=True)
class Workload:
    """One item per data seed: a runner call for each of ``measures``. Seeds
    ``0..pool-1`` have committed references, and one pass over them takes
    about 35 s on the 2-vCPU host the benchmark was tuned on."""

    name: str
    kind: str
    measures: tuple
    pool: int
    sizes: dict
    layers: tuple  # traced layers every run of this workload must call

    def config(self, cli, seed: int, measure: str):
        return cli.ExperimentConfig(kind=self.kind, measure=measure, seed=seed, jobs=1,
                                    **self.sizes)

    def passes(self, run_seed: int):
        """Endless passes over the data-seed pool, each in an order drawn from
        ``run_seed``. Every pass does the same work, so run-to-run spread
        measures the machine and not the cost of one seed's data."""
        rng = np.random.default_rng(run_seed)
        while True:
            yield [int(seed) for seed in rng.permutation(self.pool)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth", "synth", MEASURES, 10, dict(_BINARY, reps=1),
                 _COMMON_LAYERS + ("solve.solve", "gaussian.t_star", "gaussian.fair_accuracy")),
        Workload("multiclass", "multiclass", ("dp",), 13, dict(_BINARY, reps=1, n_groups=5),
                 _COMMON_LAYERS + ("solve.solve_multiclass_dp", "gaussian.fair_accuracy",
                                   "gaussian.oracle_multiclass_dp")),
    )
}


# ---------------------------------------------------------------------------
# Program under test
# ---------------------------------------------------------------------------


def import_program():
    """Import ``fairthresh.cli`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "fairthresh" / "__init__.py").is_file():
        raise SystemExit(f"no fairthresh sources under {src}")
    sys.path.insert(0, str(src))
    from fairthresh import cli

    if Path(cli.__file__).resolve().parent != src / "fairthresh":
        raise SystemExit(f"fairthresh was imported from {cli.__file__}, not from {src}")
    return cli


def run_call(cli, kind: str, cfg) -> tuple:
    rows, _meta = cli.RUNNERS[kind](cfg)
    return rows, cli.report_csv(kind, rows)


def warm_up(cli, workload: Workload) -> None:
    """One tiny call, so lazy imports and first-call costs precede timing."""
    tiny = replace(workload, sizes=dict(workload.sizes, **TINY))
    run_call(cli, workload.kind, tiny.config(cli, 0, workload.measures[-1]))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_sha():
    """Commit of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():  # keep git from finding an enclosing repository
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(cli) -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    for line in (cpuinfo.read_text() if cpuinfo.is_file() else "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    sources = sorted(Path(cli.__file__).parent.glob("*.py"))
    return {
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": digest("".join(p.name + p.read_text(encoding="utf-8") for p in sources)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# Reference check
# ---------------------------------------------------------------------------


def make_references(cli, workload: Workload) -> dict:
    """Run every pool call once; key ``<seed>/<measure>``."""
    refs = {}
    for seed in range(workload.pool):
        for measure in workload.measures:
            rows, csv = run_call(cli, workload.kind, workload.config(cli, seed, measure))
            for row in rows:
                if not all(math.isfinite(v) for v in row.values() if isinstance(v, float)):
                    raise ValueError(f"non-finite value in reference {seed}/{measure}: {row}")
            refs[f"{seed}/{measure}"] = {"csv": csv, "sha256": digest(csv),
                                         "rows": json.loads(json.dumps(rows))}
    return refs


def load_references(workload: Workload) -> dict:
    with open(REFERENCE_DIR / f"{workload.name}.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload["float_tol"] != FLOAT_TOL:
        raise ValueError("reference file was made for another float tolerance")
    return payload["items"]


def row_matches(row: dict, ref: dict) -> bool:
    if set(row) != set(ref):
        return False
    for key, want in ref.items():
        got = row[key]
        if isinstance(want, float):
            if not (isinstance(got, (int, float)) and math.isfinite(got)
                    and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))):
                return False
        elif got != want:
            return False
    return True


def report_matches(rows, ref_rows) -> bool:
    """``rows`` is None when the runner call raised."""
    return (rows is not None and len(rows) == len(ref_rows)
            and all(row_matches(r, w) for r, w in zip(rows, ref_rows)))


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Item:
    """One data seed's runner calls, one per measure of the workload; every
    item of a workload does the same kind and amount of work."""

    seconds: float
    failed: bool
    identical: bool
    rows: list
    csvs: list  # per measure; None where the call raised


def timed_item(cli, workload, refs, seed, tracer, index) -> Item:
    reports = []
    t0 = time.perf_counter()
    for measure in workload.measures:
        rows = csv = None
        try:
            with tracer.item(index) if tracer else nullcontext():
                rows, csv = run_call(cli, workload.kind, workload.config(cli, seed, measure))
        except Exception:  # a failing call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
        reports.append((refs[f"{seed}/{measure}"], rows, csv))
    elapsed = time.perf_counter() - t0
    return Item(
        elapsed,
        failed=any(not report_matches(rows, ref["rows"]) for ref, rows, _ in reports),
        identical=all(csv is not None and digest(csv) == ref["sha256"] for ref, _, csv in reports),
        rows=[row for _, rows, _ in reports for row in rows or ()],
        csvs=[csv for _, _, csv in reports],
    )


def measure(cli, workload, refs, run_seed, seconds, tracer=None) -> list:
    """Closed loop over as many whole passes of the pool as fit in ``seconds``
    (at least one); one item per data seed."""
    items = []
    start = time.perf_counter()
    for done, seeds in enumerate(workload.passes(run_seed)):
        if done and (time.perf_counter() - start) * (done + 1) / done > seconds:
            break
        for seed in seeds:
            items.append(timed_item(cli, workload, refs, seed, tracer, len(items)))
    return items


def setup_seconds(workload: Workload) -> list:
    """Wall time of fresh processes that import the program and warm it up."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name],
                       check=True, timeout=150, cwd=ROOT, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def tail(sorted_values: list) -> tuple:
    """Highest order statistic with at least ten samples above it, and its
    percentile; the maximum when that statistic would lie below the median
    (twenty samples or fewer)."""
    n = len(sorted_values)
    if n > 20:
        return sorted_values[n - 11], 100.0 * (n - 10) / n
    return sorted_values[-1], 100.0


def quality(items) -> tuple:
    """Largest oracle accuracy gap and calibration excess over the tolerance."""
    gaps, excess = [], []
    for item in items:
        for row in item.rows:
            if "pop_acc_gap_max" in row:
                gaps.append(row["pop_acc_gap_max"])
            if "cal_disparity_mean" in row:
                excess.append(max(0.0, abs(row["cal_disparity_mean"]) - row["delta"]))
    return (max(gaps) if gaps else None), (max(excess) if excess else None)


def _line(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<34} {shown:>12} {unit}{'  ' + note if note else ''}")


def run_workload(cli, workload: Workload, refs: dict, seed: int, seconds: float, trace: bool) -> dict:
    print("perfbench env " + json.dumps(environment(cli), sort_keys=True))
    tracer = Tracer() if trace else None
    setups = [] if trace else setup_seconds(workload)
    warm_up(cli, workload)
    if trace:
        first = next(workload.passes(seed))[0]
        _, untraced_csv = run_call(cli, workload.kind, workload.config(cli, first, workload.measures[0]))
        with tracer.installed(cli):
            items = measure(cli, workload, refs, seed, seconds, tracer)
        if digest(items[0].csvs[0] or "") != digest(untraced_csv):
            raise TracerError("traced report digest differs from the untraced one")
    else:
        items = measure(cli, workload, refs, seed, seconds)

    attempted = len(items)
    failed = sum(i.failed for i in items)
    identical = sum(i.identical for i in items)
    busy = sum(i.seconds for i in items)
    print(f"perfbench {workload.name} seed={seed} trace={int(trace)}: {attempted} items "
          f"({attempted * len(workload.measures)} runner calls), {busy:.2f} s busy")
    if trace:
        metrics = tracer.layer_metrics(attempted, workload.layers,
                                       workload.measures if "solve.solve" in workload.layers else ())
        metrics["cli.report_identical"] = identical / attempted
        for name in PER_LAYER_NAMES:
            note = "computed: rows x epochs" if name.endswith("row_epochs") else ""
            _line(name, metrics[name], per_layer_unit(name), note)
        SPAN_DIR.mkdir(exist_ok=True)
        with open(SPAN_DIR / f"spans-{workload.name}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        units = {name: per_layer_unit(name) for name in PER_LAYER_NAMES}
    else:
        latencies = sorted(i.seconds for i in items)
        tail_s, tail_pct = tail(latencies)
        gap, excess = quality(items)
        metrics = {
            "items_per_s": (attempted - failed) / busy,
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_tail_ms": tail_s * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": 1.0 - failed / attempted,
        }
        notes = {"item_tail_ms": f"p{tail_pct:.0f} of {len(latencies)} samples",
                 "setup_s": f"median of {len(setups)} set-ups",
                 "peak_rss_mb": "benchmark process"}
        for name, unit in END_TO_END_UNITS.items():
            _line(name, metrics[name], unit, notes.get(name, ""))
        _line("fail_ratio", failed / attempted, REPORTED_UNITS["fail_ratio"], f"{failed} of {attempted}")
        _line("oracle_gap_max", gap, REPORTED_UNITS["oracle_gap_max"])
        _line("cal_excess_max", excess, REPORTED_UNITS["cal_excess_max"])
        _line("report_identical", identical / attempted, "ratio", f"{identical} of {attempted}")
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    cli = import_program()
    refs = load_references(workload)
    run_workload(cli, workload, refs, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
