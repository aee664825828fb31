"""Digests and row values of the perfbench-sized reports, for bounding how far a change moves them.

Runs each call of every perfbench workload once (``perfbench/run.py``'s
``make_references``: synth seeds 0-9 x dp/eo/pe/oa and multiclass
``--groups 5`` seeds 0-12, 53 reports) and prints one line per report::

    <workload> <seed>/<measure> <sha256 of the CSV report>

``--rows FILE`` also writes every report's digest and row values to FILE as
JSON.  ``--compare OLD NEW`` runs nothing: it reads two such files and prints
how many reports of each workload are byte-identical, and the largest |delta|
of every (workload, column) in which some report moved.  To bound a change,
run from the root of each checkout and compare::

    python tests/report_digest.py --rows old.json    # in the parent's checkout
    python tests/report_digest.py --rows new.json    # in the changed checkout
    python tests/report_digest.py --compare old.json new.json

``--parent REV`` does all three in one command: it checks ``REV`` out with
``git worktree add --detach`` into a temporary directory, runs that tree's
own ``report_digest.py --rows`` and then this checkout's, prints the
``--compare`` table, and removes the worktree, also when a run fails.

``perfbench/run.py`` is imported before numpy loads, so its one-BLAS-thread
setting applies, and it imports ``fairthresh`` from the same checkout's
``src/``.  A run takes about ten seconds on a 2-vCPU host.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)


def digest_reports(rows_path=None) -> None:
    cli = run.import_program()
    reports = {}
    for name, workload in run.WORKLOADS.items():
        for key, ref in run.make_references(cli, workload).items():
            print(f"{name} {key} {ref['sha256']}", flush=True)
            reports[f"{name} {key}"] = {"sha256": ref["sha256"], "rows": ref["rows"]}
    if rows_path is not None:
        Path(rows_path).write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")


def compare(old_path, new_path) -> int:
    """Print the identical-report count per workload and the largest move per (workload, column)."""
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (old_path, new_path))
    if set(old) != set(new):
        print(f"reports differ: only old {sorted(set(old) - set(new))}, only new {sorted(set(new) - set(old))}")
        return 1
    same, total, moves = defaultdict(int), defaultdict(int), {}
    for report in sorted(old):
        workload = report.split()[0]
        total[workload] += 1
        same[workload] += old[report]["sha256"] == new[report]["sha256"]
        if len(old[report]["rows"]) != len(new[report]["rows"]):
            print(f"{report}: {len(old[report]['rows'])} rows before, {len(new[report]['rows'])} after")
            return 1
        for before, after in zip(old[report]["rows"], new[report]["rows"]):
            for column in sorted(set(before) | set(after)):
                a, b = before.get(column), after.get(column)
                if isinstance(a, float) and isinstance(b, (int, float)):
                    gap = abs(b - a)
                elif a == b:
                    gap = 0.0
                else:
                    print(f"{report} {column}: {a!r} before, {b!r} after")
                    return 1
                if gap > moves.get((workload, column), (0.0, ""))[0]:
                    moves[(workload, column)] = (gap, report)
    for workload in total:
        print(f"{workload}: {same[workload]} of {total[workload]} reports byte-identical")
    for (workload, column), (gap, report) in sorted(moves.items()):
        print(f"{workload} {column}: largest |delta| {gap:.3g} ({report})")
    return 0


def compare_with(rev) -> int:
    """Write the reports of commit ``rev`` and of this checkout, each run by
    its own tree's script, and compare them."""
    with tempfile.TemporaryDirectory() as tmp:
        tree, old, new = (Path(tmp) / name for name in ("tree", "old.json", "new.json"))
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", str(tree), rev], check=True, stdout=subprocess.DEVNULL)
        try:
            for checkout, rows in ((tree, old), (ROOT, new)):
                subprocess.run([sys.executable, "tests/report_digest.py", "--rows", str(rows)],
                               cwd=checkout, check=True, stdout=subprocess.DEVNULL)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
        return compare(old, new)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", metavar="FILE", help="also write every report's digest and rows to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --rows files")
    parser.add_argument("--parent", metavar="REV", help="compare the reports of commit REV with this checkout's")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.parent:
        return compare_with(args.parent)
    digest_reports(args.rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
