"""Self-test of the benchmark on tiny configs.

    python3 perfbench/selftest.py

Checks, for every workload, that the untraced run prints every end-to-end
metric of BENCHMARK.json and the traced run every per-layer metric, each by
name and with its unit; that a report value moved beyond the float tolerance
is counted as failed while one moved within it is not; and that the tracer
refuses a layer name that has vanished or a layer that was never called.
Exits non-zero on the first failed check.
"""

import contextlib
import copy
import io
import json
import sys
from dataclasses import replace

import run
from tracer import Tracer, TracerError

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_captured(cli, workload, refs, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_workload(cli, workload, refs, seed=0, seconds=0.2, trace=trace)
    text = out.getvalue()
    check(json.loads(text.splitlines()[-1]) == result, "last line is not the result object")
    return result, text


def check_metrics(workload, trace, result, text):
    listed = SPEC["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in listed},
          f"{workload.name} trace={trace}: result metrics differ from BENCHMARK.json")
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        check(result["metrics"][name]["unit"] == unit, f"{name}: unit is not {unit}")
        check(any(line.split()[:1] == [name] and f" {unit}" in line for line in text.splitlines()),
              f"{workload.name} trace={trace}: {name} not printed with unit {unit}")
    if not trace:
        for name in run.REPORTED_UNITS:
            check(any(line.split()[:1] == [name] for line in text.splitlines()), f"{name} not printed")


def perturbed(refs, delta):
    """References with the accuracy of the first row moved by ``delta``."""
    refs = copy.deepcopy(refs)
    for ref in refs.values():
        row = ref["rows"][0]
        row["acc_mean"] += delta
    return refs


def main() -> int:
    cli = run.import_program()
    for workload in run.WORKLOADS.values():
        tiny = replace(workload, pool=2, sizes=dict(workload.sizes, **run.TINY))
        refs = run.make_references(cli, tiny)
        for trace in (False, True):
            result, text = run_captured(cli, tiny, refs, trace)
            check(result["correct"] and result["failed"] == 0, f"{tiny.name}: clean run failed")
            check_metrics(tiny, trace, result, text)
        result, text = run_captured(cli, tiny, perturbed(refs, 1e-6), trace=False)
        check(not result["correct"] and result["failed"] >= 1,
              f"{tiny.name}: a value moved by 1e-6 was not counted as failed")
        check(any(line.split()[:1] == ["fail_ratio"] and float(line.split()[1]) > 0
                  for line in text.splitlines()), f"{tiny.name}: fail_ratio stayed 0")
        result, _ = run_captured(cli, tiny, perturbed(refs, 1e-12), trace=False)
        check(result["correct"], f"{tiny.name}: a value moved by 1e-12 was counted as failed")
        print(f"selftest {tiny.name}: ok")

    saved = cli.evaluate
    del cli.evaluate
    try:
        with contextlib.suppress(TracerError), Tracer().installed(cli):
            check(False, "tracer accepted a vanished layer name")
    finally:
        cli.evaluate = saved
    with contextlib.suppress(TracerError):
        Tracer().layer_metrics(1, ("solve.solve",), ())
        check(False, "tracer accepted a layer that was never called")
    print("selftest tracer: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
