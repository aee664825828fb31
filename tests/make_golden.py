"""Golden CSV reports for every CLI runner, and the script that writes them.

``tests/test_golden.py`` re-runs each case below and compares its report with
``tests/golden/<name>.csv`` cell by cell, so a refactor is checked against the
reports of the code it replaced rather than only against itself.  The configs
are small (a few hundred rows, tens of epochs) so the whole set runs in about
a second.

Regenerate the files only when a report is meant to change, and say why in
the change log::

    PYTHONPATH=src python tests/make_golden.py

A refactor that must keep every report byte for byte checks that with
``--check``, which writes nothing and exits nonzero naming each case whose
report differs from its golden file, with its largest cell move and column::

    PYTHONPATH=src python tests/make_golden.py --check
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import tempfile
from pathlib import Path

from fairthresh import cli
from fairthresh import tabular as tb
from fairthresh.synth import SynthSpec, draw_population, sample

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SMALL = ["--n-train", "600", "--n-test", "300", "--epochs", "30", "--reps", "2", "--dim", "4"]

# name -> argv; "{data}" and "{schema}" are replaced by the tabular fixture paths
CASES = {
    "synth_dp": ["synth", "--seed", "11", *SMALL],
    "synth_eo": ["synth", "--measure", "eo", "--seed", "12", "--delta", "0,0.05", *SMALL],
    "synth_pe": ["synth", "--measure", "pe", "--seed", "13", "--delta", "0,0.05", *SMALL],
    "synth_oa": ["synth", "--measure", "oa", "--seed", "14", "--delta", "0,0.05", *SMALL],
    "synth_dp_randomize": ["synth", "--seed", "15", "--randomize", "--delta", "0,0.1", *SMALL],
    "synth_eo_randomize": ["synth", "--measure", "eo", "--seed", "16", "--randomize",
                           "--delta", "0,0.05", *SMALL],
    "synth_dp_cost": ["synth", "--seed", "17", "--cost", "0.3", "--delta", "0,0.1,0.3", *SMALL],
    "synth_pe_joint": ["synth", "--measure", "pe", "--seed", "18", "--joint-model",
                       "--delta", "0,0.05", *SMALL],
    "multiclass": ["multiclass", "--groups", "3", "--seed", "19", "--n-train", "300",
                   "--n-test", "300", "--epochs", "30", "--reps", "2"],
    "tradeoff_dp": ["tradeoff", "--seed", "20", "--n-deltas", "6", *SMALL],
    "tradeoff_oa_randomize": ["tradeoff", "--measure", "oa", "--seed", "21",
                              "--n-deltas", "6", "--randomize", *SMALL],
    "oracle_compare_dp": ["oracle-compare", "--seed", "22", "--delta", "0,0.1,0.2", *SMALL],
    "oracle_compare_eo": ["oracle-compare", "--measure", "eo", "--seed", "23",
                          "--delta", "0,0.05", *SMALL],
    "tabular_dp": ["tabular", "--data", "{data}", "--schema", "{schema}", "--seed", "24",
                   "--delta", "0,0.1", "--reps", "2", "--epochs", "30"],
    "tabular_oa_joint": ["tabular", "--data", "{data}", "--schema", "{schema}", "--measure", "oa",
                         "--seed", "25", "--delta", "0,0.05", "--reps", "2", "--epochs", "30",
                         "--joint-model"],
}


def export_csv(data, path) -> None:
    """Write a dataset as x0..x{d-1},group,label with full-precision floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(data.dim)] + ["group", "label"])
        for i in range(data.n):
            writer.writerow(
                [repr(float(v)) for v in data.features[i]]
                + [int(data.group[i]), int(data.label[i])]
            )


def export_schema(dim: int) -> tb.ColumnSchema:
    """Schema matching :func:`export_csv` output: numeric x0..x{d-1}, group, label."""
    cols = [tb.ColumnSpec(name=f"x{j}", kind="numeric") for j in range(dim)]
    cols.append(tb.ColumnSpec(name="group", kind="protected", positive_values=("1",)))
    cols.append(tb.ColumnSpec(name="label", kind="label", positive_values=("1",)))
    return tb.ColumnSchema(columns=cols)


def write_tabular_fixture(directory) -> dict:
    """A CSV written by ``export_csv`` from a fixed synthetic sample, and its schema."""
    directory = Path(directory)
    data = sample(draw_population(SynthSpec.binary(dim=3, seed=1)), 900, seed=2)
    paths = {"data": directory / "data.csv", "schema": directory / "schema.json"}
    export_csv(data, paths["data"])
    export_schema(3).save(paths["schema"])
    return {k: str(v) for k, v in paths.items()}


def render_case(name: str, fixture: dict) -> str:
    """The CSV report of one case, built the way ``fairthresh ... --format csv`` builds it."""
    argv = [arg.format(**fixture) for arg in CASES[name]] + ["--format", "csv"]
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    rows, _ = cli.RUNNERS[cfg.kind](cfg)
    return cli.render(cfg.kind, cfg, rows, "csv")


def largest_move(golden: str, report: str) -> str:
    """The largest absolute difference between float cells of two CSV reports, and its column."""
    want, got = (list(csv.reader(io.StringIO(text))) for text in (golden, report))
    if want[0] != got[0] or len(want) != len(got):
        return "header or row count differs"
    moves = []
    for w_row, g_row in zip(want[1:], got[1:]):
        for col, w, g in zip(want[0], w_row, g_row):
            if w != g:
                try:
                    moves.append((abs(float(g) - float(w)), col))
                except ValueError:
                    return f"text cell differs in {col}"
    if not moves:
        return "equal cells, different bytes"
    diff, col = max(moves)
    return f"largest |diff| {diff:.2g} in {col}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write, or check, the golden CSV reports.")
    parser.add_argument("--check", action="store_true",
                        help="compare each report with its golden file byte for byte; write nothing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fixture = write_tabular_fixture(tmp)
        reports = {name: render_case(name, fixture) for name in CASES}
    if args.check:
        differ = []
        for name, text in reports.items():
            path = GOLDEN_DIR / f"{name}.csv"
            if not path.is_file() or path.read_bytes() != text.encode("utf-8"):
                differ.append(path.name)
                move = largest_move(path.read_text(encoding="utf-8"), text) if path.is_file() else "no golden file"
                print(f"differs from golden: {path.name} ({move})", file=sys.stderr)
        print(f"{len(CASES) - len(differ)} of {len(CASES)} reports match {GOLDEN_DIR} byte for byte")
        return 1 if differ else 0
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in reports.items():
        (GOLDEN_DIR / f"{name}.csv").write_text(text, encoding="utf-8")
    print(f"wrote {len(CASES)} reports to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
