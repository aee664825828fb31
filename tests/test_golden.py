"""Every CLI runner's CSV report against the committed golden reports.

Integer and text cells must match exactly, float cells within
1e-9 * max(1, |golden|); see ``tests/make_golden.py`` for the cases.
"""

import csv
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from make_golden import CASES, GOLDEN_DIR, render_case, write_tabular_fixture

FLOAT_TOL = 1e-9


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    return write_tabular_fixture(tmp_path_factory.mktemp("golden"))


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        int(want)
        return False  # integer cells (reps, n_groups) must match exactly
    except ValueError:
        pass
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= FLOAT_TOL * max(1.0, abs(w))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, fixture_paths):
    want = list(csv.reader(io.StringIO((GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8"))))
    got = list(csv.reader(io.StringIO(render_case(name, fixture_paths))))
    assert got[0] == want[0], "column header changed"
    assert len(got) == len(want), "row count changed"
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        for col, g, w in zip(want[0], g_row, w_row):
            assert _cells_match(g, w), f"row {i}, column {col}: got {g}, golden {w}"


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not (REPO / ".git").exists() or not shutil.which("git"), reason="needs a git checkout")
def test_the_parent_check_removes_its_worktree_when_a_run_fails(tmp_path):
    # a stand-in interpreter that notes where it ran and fails
    fail = tmp_path / "fail.sh"
    fail.write_text(f"#!/bin/sh\npwd > {tmp_path / 'ran'}\nexit 1\n")
    fail.chmod(0o755)
    script = (f"import subprocess, sys; sys.path.insert(0, {str(REPO / 'tests')!r}); import report_digest\n"
              f"sys.executable = {str(fail)!r}\n"
              "try:\n    report_digest.compare_with('HEAD')\n"
              "except subprocess.CalledProcessError:\n    print('run failed')\n")
    worktrees = ["git", "-C", str(REPO), "worktree", "list", "--porcelain"]
    before = subprocess.run(worktrees, capture_output=True, text=True, check=True).stdout
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, TMPDIR=str(scratch)))
    assert done.stdout == "run failed\n", done.stderr
    ran = Path((tmp_path / "ran").read_text().strip()).resolve()
    assert ran.parent.parent == scratch.resolve() and ran.name == "tree"  # the parent's run, in its worktree
    assert not ran.exists() and not any(scratch.iterdir())
    assert subprocess.run(worktrees, capture_output=True, text=True, check=True).stdout == before
