"""One SHA-256 per perfbench-sized report, for checking that a refactor keeps every bit.

Runs each call of every perfbench workload once (``perfbench/run.py``'s
``make_references``: synth seeds 0-9 x dp/eo/pe/oa and multiclass
``--groups 5`` seeds 0-12, 53 reports) and prints one line per report::

    <workload> <seed>/<measure> <sha256 of the CSV report>

Run it from the root of each checkout and compare the two outputs::

    python tests/report_digest.py > new.txt
    diff old.txt new.txt

``perfbench/run.py`` is imported before numpy loads, so its one-BLAS-thread
setting applies, and it imports ``fairthresh`` from the same checkout's
``src/``.  The run takes about ten seconds on a 2-vCPU host.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)


def main() -> int:
    cli = run.import_program()
    for name, workload in run.WORKLOADS.items():
        for key, ref in run.make_references(cli, workload).items():
            print(f"{name} {key} {ref['sha256']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
