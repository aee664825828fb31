"""Seed 0 of each perfbench workload, run through ``perfbench/run.py``'s
``run_call`` and checked row by row against ``perfbench/reference/`` with its
``row_matches``, so that a float-level change that would fail the
benchmark's reference check fails here first.  Reads perfbench, changes
nothing there."""

import os
import sys
from pathlib import Path

import pytest

from fairthresh import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # run.py pins the BLAS thread count in os.environ, which child processes
    # of later tests would inherit; the setting does not outlive the import
    environ = dict(os.environ)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
        os.environ.clear()
        os.environ.update(environ)
    return run


@pytest.mark.parametrize("name", ["synth", "multiclass"])
def test_seed_0_reports_match_the_perfbench_reference(bench, name):
    workload = bench.WORKLOADS[name]
    refs = bench.load_references(workload)
    for measure in workload.measures:
        rows, _csv = bench.run_call(cli, workload.kind, workload.config(cli, 0, measure))
        want = refs[f"0/{measure}"]["rows"]
        assert len(rows) == len(want), measure
        for i, (row, ref) in enumerate(zip(rows, want)):
            assert bench.row_matches(row, ref), (measure, i, row, ref)
