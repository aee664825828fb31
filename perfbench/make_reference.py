"""Regenerate the committed reference reports of the benchmark workloads.

    python3 perfbench/make_reference.py [workload ...]

Each file under perfbench/reference/ holds, per runner call of the
workload's seed pool, the CSV bytes from ``cli.report_csv``, their SHA-256
and the row values they were made from, plus the environment that made them.
Only regenerate when a change of results is intended and stated.
"""

import json
import sys

import run

if __name__ == "__main__":
    cli = run.import_program()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        payload = {
            "workload": name,
            "kind": workload.kind,
            "sizes": workload.sizes,
            "float_tol": run.FLOAT_TOL,
            "environment": run.environment(cli),
            "items": run.make_references(cli, workload),
        }
        with open(run.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(payload['items'])} reference reports")
