import csv
import json
import os
import shutil
import subprocess
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from fairthresh import cli
from fairthresh import scores as sc
from fairthresh import tabular as tb
from fairthresh.core import MEASURES
from fairthresh.synth import SynthSpec, draw_population, sample

from make_golden import export_csv, export_schema

FAST = ["--n-train", "1500", "--n-test", "800", "--epochs", "80", "--reps", "2"]


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_synth_smoke(capsys):
    code, out, err = run_main(["synth", "--seed", "5", *FAST], capsys)
    assert code == 0
    assert "disparity" in out and "oracle_acc" in out
    assert json.loads(err.strip())["seconds"] >= 0


# Imports the CLI, runs a tiny oa synth call (it reaches t_star) and a tiny
# multiclass call (it reaches the multiclass oracle), then prints every loaded
# scipy module.
_STARTUP = """
import sys
from fairthresh import cli
tiny = ["--n-train", "300", "--n-test", "200", "--epochs", "5", "--reps", "1", "--format", "csv"]
assert cli.main(["synth", "--measure", "oa", "--delta", "0,0.05", *tiny]) == 0
assert cli.main(["multiclass", "--groups", "3", *tiny]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _last_line_of_fresh_run(code: str) -> str:
    """The last line that ``code`` prints in a fresh interpreter that imports this checkout's fairthresh."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    return out.stdout.splitlines()[-1]


def test_the_program_runs_on_numpy_without_scipy():
    assert _last_line_of_fresh_run(_STARTUP) == "[]"


# A tiny synth run at --jobs 1 for each measure, then the loaded modules of
# those that a serial run does not need: numpy.ma (which np.unique loads) and
# the process pool's
_SERIAL = """
import sys
from fairthresh import cli
tiny = ["--n-train", "300", "--n-test", "200", "--epochs", "5", "--reps", "2", "--jobs", "1", "--format", "csv"]
for measure in ("dp", "eo", "pe", "oa"):
    assert cli.main(["synth", "--measure", measure, *tiny]) == 0
print(sorted(m for m in ("numpy.ma", "multiprocessing", "concurrent.futures.process") if m in sys.modules))
"""


def test_a_serial_synth_run_loads_neither_numpy_ma_nor_a_process_pool():
    assert _last_line_of_fresh_run(_SERIAL) == "[]"


# A multiclass run on two usable CPUs whose group fits fork a child, then
# the number of forks and the loaded modules of the process pool, which
# fork_map does not use
_FORKING = """
import os, sys
from fairthresh import cli
os.sched_getaffinity = lambda pid: {0, 1}
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
assert cli.main(["multiclass", "--groups", "5", "--n-train", "4000", "--n-test", "500", "--epochs", "200",
                 "--reps", "1", "--format", "csv"]) == 0
print(len(forks), sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
"""


def test_a_forking_multiclass_fit_loads_no_process_pool():
    assert _last_line_of_fresh_run(_FORKING) == "1 []"


def test_synth_csv_report_byte_identical(tmp_path, capsys):
    argv = ["synth", "--seed", "5", "--format", "csv", *FAST]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(p1)]) == 0
    assert cli.main(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    capsys.readouterr()


def test_synth_eo_measure(capsys):
    code, out, _ = run_main(
        ["synth", "--measure", "eo", "--delta", "0,0.05", "--seed", "2", *FAST], capsys
    )
    assert code == 0
    assert out.count("\neo") == 2


def test_multiclass_smoke(capsys):
    code, out, _ = run_main(
        ["multiclass", "--groups", "3", "--seed", "3", "--n-train", "800",
         "--n-test", "500", "--epochs", "60", "--reps", "2"],
        capsys,
    )
    assert code == 0
    assert "ddp" in out


def test_tradeoff_single_fit(capsys):
    code, out, err = run_main(
        ["tradeoff", "--seed", "4", "--n-train", "1200", "--n-test", "600",
         "--epochs", "60", "--n-deltas", "8", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report_version"] == cli.REPORT_VERSION
    assert len(payload["rows"]) == 8
    meta = json.loads(err.strip())
    assert meta["fit_count"] == 1
    deltas = [r["delta"] for r in payload["rows"]]
    assert deltas == sorted(deltas)
    # solving-sample plug-in accuracy never decreases with the tolerance
    cal_acc = [r["cal_plugin_accuracy"] for r in payload["rows"]]
    assert all(b >= a - 1e-12 for a, b in zip(cal_acc, cal_acc[1:]))


def test_oracle_compare_smoke(capsys):
    code, out, _ = run_main(
        ["oracle-compare", "--seed", "6", "--delta", "0.1,0.2", *FAST], capsys
    )
    assert code == 0
    assert "t_err" in out


def test_tabular_run(tmp_path, capsys):
    pop = draw_population(SynthSpec.binary(dim=3, seed=1))
    data = sample(pop, 1200, seed=2)
    csv_path = tmp_path / "data.csv"
    export_csv(data, csv_path)
    schema_path = tmp_path / "schema.json"
    export_schema(3).save(schema_path)
    code, out, _ = run_main(
        ["tabular", "--data", str(csv_path), "--schema", str(schema_path),
         "--delta", "0,0.1", "--reps", "2", "--epochs", "60", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert "cal_disparity" in out


def _tabular_files(tmp_path, n=300):
    data = sample(draw_population(SynthSpec.binary(dim=3, seed=1)), n, seed=2)
    paths = tmp_path / "data.csv", tmp_path / "schema.json"
    export_csv(data, paths[0])
    export_schema(3).save(paths[1])
    return [str(p) for p in paths]


def _error(err):
    return json.loads(err.strip().splitlines()[-1])


def _lettered_files(tmp_path, group_values, letters=None):
    """Rows whose protected values are ``letters`` (default 400 values, each a, b, c or z),
    and a schema listing ``group_values``."""
    if letters is None:
        letters = np.random.default_rng(3).choice(list("abcz"), size=400)
    data = sample(draw_population(SynthSpec.binary(dim=3, seed=1)), len(letters), seed=2)
    paths = tmp_path / "data.csv", tmp_path / "schema.json"
    with open(paths[0], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "x2", "group", "label"])
        for x, g, y in zip(data.features, letters, data.label):
            writer.writerow([*(repr(float(v)) for v in x), g, int(y)])
    schema = export_schema(3)
    schema.columns[3] = tb.ColumnSpec(name="group", kind="protected", group_values=group_values)
    schema.save(paths[1])
    return data, letters, [str(p) for p in paths]


def test_listed_group_values_are_the_groups_in_order(tmp_path, capsys):
    data, letters, (csv_path, schema_path) = _lettered_files(tmp_path, ("a", "b"))
    schema = tb.ColumnSchema.load(schema_path)
    loaded, report = tb.encode_rows(tb.read_rows(csv_path, schema), schema)
    kept = np.isin(letters, ("a", "b"))
    assert 0 < report.n_dropped == int((~kept).sum())  # the c and z rows
    assert loaded.group.tolist() == [0 if v == "a" else 1 for v in letters[kept]]
    assert np.array_equal(loaded.features, data.features[kept])
    code, out, _ = run_main(["tabular", "--data", csv_path, "--schema", schema_path,
                             "--reps", "1", "--epochs", "10"], capsys)
    assert code == 0 and "cal_disparity" in out


def test_three_listed_group_values_are_rejected_by_binary_measures(tmp_path, capsys):
    _, _, (csv_path, schema_path) = _lettered_files(tmp_path, ("a", "b", "c"))
    code, out, err = run_main(["tabular", "--data", csv_path, "--schema", schema_path,
                               "--reps", "1", "--epochs", "10"], capsys)
    assert code == 1 and out == ""
    assert _error(err) == {"error": "ValueError", "message": "binary measures require exactly two groups"}


@pytest.mark.parametrize("seed", range(6))
def test_a_group_missing_from_a_split_part_is_a_structured_error(tmp_path, capsys, seed):
    # the schema lists a, b and c, and c is on one row only, so at least one part of
    # every split lacks group 2; the run must not compare a with b alone
    letters = np.random.default_rng(3).choice(list("ab"), size=300)
    letters[0] = "c"
    _, _, (csv_path, schema_path) = _lettered_files(tmp_path, ("a", "b", "c"), letters)
    code, out, err = run_main(["tabular", "--data", csv_path, "--schema", schema_path,
                               "--reps", "1", "--epochs", "10", "--seed", str(seed)], capsys)
    assert code == 1 and out == ""
    message = _error(err)["message"]
    assert (message in ("validation part: empty protected group 2", "test part: empty protected group 2")
            or message.startswith("group 2 has no training rows"))


def test_nan_delta_is_structured_error(capsys):
    code, out, err = run_main(["synth", "--delta", "0,nan", *FAST], capsys)
    assert code == 1 and out == ""
    assert _error(err) == {"error": "ValueError", "message": "delta values must be finite and >= 0"}


@pytest.mark.parametrize("argv, message", [
    (["tradeoff", "--n-deltas", "0"], "n_deltas (--n-deltas) must be >= 1"),
    (["tradeoff", "--n-deltas", "-3"], "n_deltas (--n-deltas) must be >= 1"),
    (["synth", "--cost", "7"], "cost must lie in [0, 1]"),
    (["synth", "--cost", "nan"], "cost must lie in [0, 1]"),
    (["multiclass", "--cost", "0.3"],
     "cost must be 0.5 for multiclass: its solver covers the cost-1/2 family only"),
    (["oracle-compare", "--data", "data.csv"],
     "oracle-compare runs draw synthetic data: data_path (--data) applies to tabular and tradeoff only"),
    (["multiclass", "--measure", "eo"],
     "multiclass solves perfect demographic parity: measure (--measure) must be dp"),
    (["multiclass", "--delta", "0.1"],
     "multiclass solves perfect demographic parity: deltas (--delta) do not apply"),
    (["multiclass", "--randomize"],
     "multiclass rules are deterministic: randomize (--randomize) does not apply"),
    (["synth", "--schema", "schema.json"],
     "schema_path (--schema) describes a CSV file: it applies only with data_path (--data)"),
    # every binary population has p_ya[1] = 0.7, so at cost 0.7 group 1's oa cutoff cannot move
    (["synth", "--measure", "oa", "--cost", "0.7", "--reps", "3"],
     "bracket failure in shift search: the oa family at cost 0.7 cannot reach tolerance 0.0; "
     "group 1's cutoff is pinned at the cost"),
    (["oracle-compare", "--measure", "eo", "--cost", "-0.1"], "cost must lie in [0, 1]"),
    (["synth", "--groups", "3"], "synth runs compare two groups: n_groups (--groups) applies to multiclass only"),
    (["tradeoff", "--groups", "3"], "tradeoff runs compare two groups: n_groups (--groups) applies to multiclass only"),
    (["synth", "--n-deltas", "7"], "n_deltas (--n-deltas) sizes the tradeoff grid: it does not apply to synth"),
    (["tradeoff", "--delta", "0,0.1", "--n-deltas", "9"],
     "n_deltas (--n-deltas) sizes the default grid, which deltas (--delta) replace"),
    (["multiclass", "--dim", "4"],
     "multiclass populations have one dimension per group: dim (--dim) does not apply"),
    (["synth", "--jobs", "0"], "jobs (--jobs) must be >= 1"),
    (["synth", "--jobs", "-5"], "jobs (--jobs) must be >= 1"),
    (["synth", "--n-train", "0"], "n_train (--n-train) must be >= 1"),
    (["multiclass", "--n-test", "0"], "n_test (--n-test) must be >= 1"),
    (["synth", "--delta", ""], "deltas (--delta) must list at least one tolerance"),
    (["tradeoff", "--delta", ""], "deltas (--delta) must list at least one tolerance"),
    (["synth", "--epochs", "0"], "epochs (--epochs) must be >= 1"),
    (["synth", "--dim", "0"], "dim (--dim) must be >= 1"),
    (["synth", "--learning-rate", "0"], "learning_rate (--learning-rate) must be finite and > 0"),
    (["synth", "--learning-rate", "nan"], "learning_rate (--learning-rate) must be finite and > 0"),
    (["synth", "--learning-rate", "inf"], "learning_rate (--learning-rate) must be finite and > 0"),
    (["synth", "--sigma", "0"], "sigma (--sigma) must be finite and > 0"),
    (["synth", "--sigma", "inf"], "sigma (--sigma) must be finite and > 0"),
    (["synth", "--seed", "-1"], "seed (--seed) must be >= 0"),
    (["multiclass", "--groups", "1"], "multiclass compares at least two groups: n_groups (--groups) must be >= 2"),
    (["synth", "--delta", "0,inf", "--format", "json"], "delta values must be finite and >= 0"),
    (["synth", "--reps", "0"], "reps (--reps) must be >= 1"),
])
def test_bad_n_deltas_and_cost_are_structured_errors(capsys, argv, message):
    # FAST first, so that a row's own --n-train or --n-test wins
    code, out, err = run_main([argv[0], *FAST, *argv[1:]], capsys)
    assert code == 1 and out == ""
    assert _error(err) == {"error": "ValueError", "message": message}


def test_an_empty_test_stratum_is_a_structured_error(capsys):
    # one group of the six test rows has no label-1 row: its TPR, and the eo disparity, would be nan
    argv = ["synth", "--measure", "eo", "--n-train", "300", "--n-test", "6", "--epochs", "5",
            "--reps", "1", "--dim", "3", "--seed", "5", "--format", "csv"]
    code, out, err = run_main(argv, capsys)
    assert code == 1 and out == ""
    assert _error(err) == {
        "error": "ValueError",
        "message": "the test sample has no row of group 0 with label 1, which the eo disparity reads",
    }
    code, out, _ = run_main([*argv[:2], "dp", *argv[3:]], capsys)  # dp reads only the group marginals
    assert code == 0 and "nan" not in out


@pytest.mark.parametrize("measure, cost", [("eo", "0.3"), ("pe", "0.7")])
def test_the_cost_moves_every_binary_measure(capsys, measure, cost):
    argv = ["synth", *FAST, "--measure", measure, "--format", "csv"]
    reports = []
    for extra in (["--cost", cost], []):
        code, out, _ = run_main(argv + extra, capsys)
        assert code == 0 and "nan" not in out
        reports.append(list(csv.DictReader(out.splitlines())))
    assert [r["measure"] for r in reports[0]] == [measure] * 4
    assert [r["acc_mean"] for r in reports[0]] != [r["acc_mean"] for r in reports[1]]


@pytest.mark.parametrize("kind", ["tabular", "tradeoff"])
@pytest.mark.parametrize("flags", [["--dim", "3"], ["--sigma", "2"], ["--n-train", "100"],
                                   ["--n-test", "100"], ["--fixed-population"]])
def test_csv_runs_reject_synthetic_data_settings(capsys, kind, flags):
    code, out, err = run_main([kind, "--data", "data.csv", *flags], capsys)
    assert code == 1 and out == ""
    flag = flags[0]
    name = flag[2:].replace("-", "_")
    assert _error(err) == {
        "error": "ValueError",
        "message": f"CSV data fixes the rows: {name} ({flag}) applies to synthetic data only",
    }


def test_multiclass_two_group_ddp_is_the_summed_absolute_gap(capsys):
    # the per-rep signed gaps rate_1 - rate_0 are -0.349, -0.684 and +0.392;
    # their mean, -0.214, was reported before
    code, out, _ = run_main(
        ["multiclass", "--n-train", "3", "--n-test", "200", "--epochs", "10",
         "--reps", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["n_groups"] == 2
    assert row["ddp_mean"] == pytest.approx((0.349 + 0.684 + 0.392) / 3, abs=1e-3)


@pytest.mark.parametrize("fractions, message", [
    ([0.5, 0.5], "fractions must give three parts: train, validation, test"),
    ([0.9, 0.1, 0.0], "the test part of the split is empty"),
    ([0.0, 0.5, 0.5], "the train part of the split is empty"),
])
def test_bad_split_fractions_are_structured_errors(tmp_path, capsys, fractions, message):
    data, schema = _tabular_files(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fractions": fractions}))
    code, _, err = run_main(
        ["tabular", "--config", str(cfg_path), "--data", data, "--schema", schema,
         "--delta", "0", "--reps", "1", "--epochs", "10"],
        capsys,
    )
    assert code == 1
    payload = _error(err)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(message)


def test_fractions_without_a_csv_are_a_structured_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fractions": [0.6, 0.2, 0.2]}))
    code, out, err = run_main(["synth", "--config", str(cfg_path), *FAST], capsys)
    assert code == 1 and out == ""
    assert _error(err) == {
        "error": "ValueError",
        "message": "fractions split a CSV file: they apply only with data_path (--data)",
    }


def test_empty_validation_part_calibrates_on_train(tmp_path, capsys):
    data, schema = _tabular_files(tmp_path)
    cfg = cli.ExperimentConfig(kind="tabular", data_path=data, schema_path=schema,
                               fractions=(0.8, 0.0, 0.2))
    train, val, test = cli._load_tabular_splits(cfg, split_seed=3)
    assert val is None and (train.n, test.n) == (240, 60)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fractions": [0.8, 0.0, 0.2]}))
    code, out, _ = run_main(
        ["tabular", "--config", str(cfg_path), "--data", data, "--schema", schema,
         "--delta", "0", "--reps", "1", "--epochs", "10"],
        capsys,
    )
    assert code == 0 and "cal_disparity" in out


def test_missing_data_is_structured_error(capsys):
    code, out, err = run_main(["tabular", "--delta", "0"], capsys)
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert "tabular" in payload["message"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "measure": "dp", "deltas": [0.0, 0.2], "reps": 2, "seed": 8,
        "n_train": 900, "n_test": 500, "epochs": 50,
    }))
    code, out, _ = run_main(
        ["synth", "--config", str(cfg_path), "--format", "csv", "--reps", "1"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("measure,delta,reps")
    assert len(lines) == 3  # header + two deltas
    assert lines[1].split(",")[2] == "1"  # flag overrode the config reps


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config file {path} must hold a JSON object"),
    ('{"deltas": 0.1}', "config field 'deltas' must be a list of numbers"),
    ('{"fractions": 0.5}', "config field 'fractions' must be a list of numbers"),
])
def test_malformed_config_file_is_a_structured_error(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code, out, err = run_main(["synth", "--config", str(cfg_path), *FAST], capsys)
    assert code == 1 and out == ""
    payload = _error(err)
    assert payload["error"] == "ValueError"
    assert payload["message"] == message.format(path=cfg_path)


@pytest.mark.parametrize("value, message", [
    ({"randomize": "false"}, "config field 'randomize' must be true or false"),
    ({"fixed_population": "no"}, "config field 'fixed_population' must be true or false"),
    ({"per_group": 0}, "config field 'per_group' must be true or false"),
    ({"out": True}, "config field 'out' must be a string"),
    ({"out": 5}, "config field 'out' must be a string"),
    ({"reps": "2"}, "config field 'reps' must be an integer"),
    ({"reps": True}, "config field 'reps' must be an integer"),
    ({"seed": 1.0}, "config field 'seed' must be an integer"),
    ({"cost": "0.3"}, "config field 'cost' must be a number"),
    ({"sigma": False}, "config field 'sigma' must be a number"),
    ({"deltas": ["0.1"]}, "config field 'deltas' must be a list of numbers"),
    ({"deltas": [0.1, True]}, "config field 'deltas' must be a list of numbers"),
])
def test_config_values_are_checked_against_their_field_types(tmp_path, capsys, value, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(value))
    code, out, err = run_main(["synth", "--config", str(cfg_path), *FAST[:-2]], capsys)  # reps from the file
    assert code == 1 and out == ""
    assert _error(err) == {"error": "ValueError", "message": message}
    with pytest.raises(ValueError) as exc:  # library callers get the same check
        cli.ExperimentConfig(kind="synth", **value)
    assert str(exc.value) == message


def test_number_fields_take_integers_and_numpy_scalars():
    cfg = cli.ExperimentConfig(kind="synth", cost=0, sigma=2, reps=np.int64(3), deltas=[0, np.float64(0.1)])
    assert (cfg.cost, cfg.sigma, cfg.reps, cfg.deltas) == (0, 2, 3, (0, 0.1))


@pytest.mark.parametrize("kind", ["synth", "oracle-compare", "tradeoff", "tabular"])
def test_an_unknown_measure_in_a_config_file_fails_before_any_work(tmp_path, capsys, monkeypatch, kind):
    data, schema = _tabular_files(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"measure": "xx"}))
    monkeypatch.setattr(cli, "_data", None)  # any draw or load would fail with a TypeError
    files = ["--data", data, "--schema", schema] if kind in ("tradeoff", "tabular") else FAST
    code, out, err = run_main([kind, "--config", str(cfg_path), *files], capsys)
    assert code == 1 and out == ""
    assert _error(err) == {"error": "ValueError", "message": "unknown measure 'xx'"}


def _split_run(tmp_path, capsys, fractions, part, column, value, n=60, seed=123, args=("--epochs", "10")):
    """A one-rep tabular run at ``seed`` on ``n`` rows split by ``fractions``,
    with ``column`` set to ``value`` on every row of split part ``part``."""
    data, schema = _tabular_files(tmp_path, n=n)
    with open(data, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for i in tb.split_indices(n, fractions, cli.rep_seeds(seed, 0)[0])[part]:
        rows[1 + i][column] = value
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fractions": fractions}))
    return run_main(["tabular", "--config", str(cfg_path), "--data", data, "--schema", schema,
                     "--seed", str(seed), "--reps", "1", *args], capsys)


@pytest.mark.parametrize("part, name", [(0, "train"), (1, "validation"), (2, "test")])
def test_a_split_part_with_no_usable_row_is_named(tmp_path, capsys, part, name):
    # at (0.84, 0.07, 0.09) the validation part has 5 rows; an empty one would calibrate on train
    code, out, err = _split_run(tmp_path, capsys, [0.84, 0.07, 0.09], part, 0, "?")
    assert code == 1 and out == ""
    assert _error(err) == {"error": "ValueError", "message": f"{name} part: zero usable rows"}


@pytest.mark.parametrize("part, name", [(1, "validation"), (2, "test")])
def test_a_split_part_without_a_group_is_named(tmp_path, capsys, part, name):
    # at (0.6, 0.2, 0.2) each part holds both groups until its group-1 rows are recoded to 0
    code, out, err = _split_run(tmp_path, capsys, [0.6, 0.2, 0.2], part, 3, "0")
    assert code == 1 and out == ""
    assert _error(err) == {"error": "ValueError", "message": f"{name} part: empty protected group 1"}


def test_a_joint_fit_rejects_a_training_part_without_a_group(tmp_path, capsys):
    # every training row recoded to group 0, at the default fractions
    code, out, err = _split_run(tmp_path, capsys, [0.7, 0.1, 0.2], 0, 3, "0", n=300, seed=0,
                                args=("--joint-model", "--delta", "0,0.1", "--epochs", "50"))
    assert code == 1 and out == ""
    assert _error(err) == {"error": "ValueError",
                           "message": "group 1 has no training rows; the score model needs rows of every group"}


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"deltas": [0.0, 0.2], "reps": 3}), encoding="utf-8-sig")
    cfg = cli.config_from_args(cli.build_parser().parse_args(["synth", "--config", str(cfg_path)]))
    assert (cfg.deltas, cfg.reps) == ((0.0, 0.2), 3)


def test_jobs_parallel_matches_sequential(tmp_path):
    argv = ["synth", "--seed", "9", "--format", "csv", *FAST]
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    assert cli.main(argv + ["--out", str(seq), "--jobs", "1"]) == 0
    assert cli.main(argv + ["--out", str(par), "--jobs", "2"]) == 0
    assert seq.read_bytes() == par.read_bytes()


def test_jobs_forks_no_more_workers_than_repetitions(monkeypatch, capsys, forks):
    # eight usable CPUs, six jobs, two repetitions (FAST): two processes, this
    # one and one forked child, not six
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    code, _, _ = run_main(["synth", "--seed", "9", "--format", "csv", "--jobs", "6", *FAST], capsys)
    assert code == 0
    assert forks == [os.getpid()]


def test_a_fit_inside_the_callers_own_jobs_share_forks_nothing(monkeypatch, capsys, forks):
    # forking pays for every fit here: at --jobs 1 each repetition's fit
    # forks a child, but at --jobs 2 the one fork is the repetitions' own,
    # and the fit of the repetition this process runs forks nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(sc, "_FORK_SAVING", 1)
    argv = ["synth", "--seed", "9", "--format", "csv", *FAST]
    code, serial, _ = run_main(argv + ["--jobs", "1"], capsys)
    assert code == 0 and forks == [os.getpid()] * 2
    forks.clear()
    code, parallel, _ = run_main(argv + ["--jobs", "2"], capsys)
    assert code == 0 and forks == [os.getpid()]
    assert parallel == serial


def test_rep_seed_rule_is_stable():
    # the documented derivation must never change silently
    assert cli.rep_seeds(0, 0) == cli.rep_seeds(0, 0)
    assert cli.rep_seeds(0, 0) != cli.rep_seeds(0, 1)
    assert cli.rep_seeds(1, 0) != cli.rep_seeds(0, 0)


@pytest.mark.parametrize("kind", sorted(cli.COLUMNS))
def test_json_rows_carry_exactly_the_report_columns(tmp_path, capsys, kind):
    data, schema = _tabular_files(tmp_path)
    argv = [kind, "--format", "json", "--reps", "2", "--epochs", "10"]
    if kind == "tradeoff":
        argv += ["--n-deltas", "3"]
    if kind == "tabular":
        argv += ["--data", data, "--schema", schema, "--delta", "0,0.1"]
    else:
        argv += ["--n-train", "300", "--n-test", "200"]
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(sorted(row) == sorted(cli.COLUMNS[kind]) for row in rows)


def test_every_flag_sets_the_config_field_of_its_dest():
    names = {f.name for f in fields(cli.ExperimentConfig)}
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "kind").choices
    assert sorted(subparsers) == sorted(cli.RUNNERS)
    for kind, sub in subparsers.items():
        dests = {a.dest for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}
        assert dests and dests <= names, (kind, dests - names)


# ---------------------------------------------------------------------------
# The binary runners reuse the last scored repetition
# ---------------------------------------------------------------------------

SMALL = dict(seed=3, n_train=600, n_test=300, epochs=40, reps=1)


def _csv_report(cfg):
    rows, _ = cli.RUNNERS[cfg.kind](cfg)
    return cli.report_csv(cfg.kind, rows)


def test_binary_runs_on_one_sample_share_one_fit():
    cfgs = [cli.ExperimentConfig(kind="synth", measure=m, **SMALL) for m in MEASURES]
    cfgs.append(replace(cfgs[0], deltas=(0.05,), cost=0.3, randomize=True))
    cold = []
    for cfg in cfgs:
        cli._scored_memo.clear()
        cold.append(_csv_report(cfg))
    cli._scored_memo.clear()
    fits = cli._fit_count
    assert [_csv_report(cfg) for cfg in cfgs] == cold
    assert cli._fit_count - fits == 1


@pytest.mark.parametrize("flags", [["--seed", "4"], ["--epochs", "41"], ["--joint-model"], ["--dim", "4"]])
def test_a_new_sample_or_train_config_refits(capsys, flags):
    argv = ["synth", "--seed", "3", "--n-train", "600", "--n-test", "300", "--epochs", "40", "--reps", "1"]
    assert cli.main(argv) == 0
    fits = cli._fit_count
    assert cli.main([*argv, "--measure", "eo"]) == 0
    assert cli._fit_count == fits
    assert cli.main([*argv, *flags]) == 0  # the last of a repeated flag wins
    assert cli._fit_count - fits == 1
    capsys.readouterr()


def test_tradeoff_fits_after_a_binary_run_on_the_same_sample():
    synth = cli.ExperimentConfig(kind="synth", **SMALL)
    tradeoff = cli.ExperimentConfig(kind="tradeoff", n_deltas=3, **SMALL)
    # the same training sample and training settings: reused, the fit would not count
    (_, a, _, _), (_, b, _, _) = cli._data(synth, 0), cli._data(tradeoff, 0)
    assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("features", "group", "label"))
    cli.run_binary(synth)
    for _ in range(2):
        _, meta = cli.run_tradeoff(tradeoff)
        assert meta["fit_count"] == 1


def test_memoized_grouped_scores_are_read_only():
    _, gs_cal, gs_test = cli._scored_rep(cli.ExperimentConfig(kind="synth", **SMALL), 0)
    for arr in (gs_cal.by_group[0], gs_cal.by_group_label[1][0], gs_test.by_group[1], gs_test.by_group_label[0][1]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


# A changed value for every field outside ``SOLVE_ONLY``; the file fields on a CSV run.
KEYED = {
    "kind": "oracle-compare", "reps": 2, "seed": 4, "n_train": 601, "n_test": 301, "dim": 4,
    "sigma": 1.5, "n_groups": 3, "fixed_population": True, "epochs": 41, "learning_rate": 0.5,
    "per_group": False, "data_path": "copy.csv", "schema_path": "copy.json",
    "fractions": (0.6, 0.2, 0.2),
}
FILE_FIELDS = ("data_path", "schema_path", "fractions")


def test_every_config_field_is_keyed_or_solve_only():
    assert sorted([*KEYED, *cli.SOLVE_ONLY]) == sorted(f.name for f in fields(cli.ExperimentConfig))


def test_a_config_given_list_fractions_can_key_the_memo():
    cfg = cli.ExperimentConfig(kind="synth", fractions=[0.7, 0.1, 0.2])
    assert cfg == cli.ExperimentConfig(kind="synth") and hash(cfg) == hash(cli.ExperimentConfig(kind="synth"))


def _base(tmp_path, name):
    if name not in FILE_FIELDS:
        return cli.ExperimentConfig(kind="synth", **SMALL)
    data, schema = _tabular_files(tmp_path)
    return cli.ExperimentConfig(kind="tabular", data_path=data, schema_path=schema, reps=1, epochs=10)


@pytest.mark.parametrize("name", sorted(KEYED))
def test_changing_a_data_or_fit_field_misses_the_memo(tmp_path, name):
    base = _base(tmp_path, name)
    if name == "n_groups":  # only multiclass runs take another group count
        base = replace(base, kind="multiclass")
    value = KEYED[name]
    if name in ("data_path", "schema_path"):  # the same bytes under another path
        value = str(tmp_path / value)
        shutil.copyfile(getattr(base, name), value)
    fits = cli._fit_count
    cli._scored_rep(base, 0)
    cli._scored_rep(replace(base, **{name: value}), 0)
    assert cli._fit_count - fits == 2


def test_a_miss_drops_the_memoized_repetition_before_the_next_draw(monkeypatch):
    base = cli.ExperimentConfig(kind="synth", **SMALL)
    pop, *grouped = cli._scored_rep(base, 0)
    held = [weakref.ref(obj) for obj in (pop, *grouped)]
    del pop, grouped
    alive_at_draw, data = [], cli._data

    def recording(*args):
        alive_at_draw.append([r() is not None for r in held])
        return data(*args)

    monkeypatch.setattr(cli, "_data", recording)
    cli._scored_rep(replace(base, seed=4), 0)
    assert alive_at_draw == [[False, False, False]]


def test_changing_only_solve_fields_hits_the_memo(tmp_path):
    base = cli.ExperimentConfig(kind="synth", **SMALL)
    first = cli._scored_rep(base, 0)
    other = replace(base, deltas=(0.1,), cost=0.3, randomize=True,
                    format="csv", out=str(tmp_path / "r.csv"), jobs=2)
    assert cli._scored_rep(other, 0) is first
    assert cli._scored_rep(replace(other, measure="eo", cost=0.5), 0) is first
    tradeoff = replace(base, kind="tradeoff")
    first = cli._scored_rep(tradeoff, 0)
    assert cli._scored_rep(replace(tradeoff, n_deltas=7), 0) is first  # it only picks tolerances


@pytest.mark.parametrize("which", [0, 1])
def test_rewriting_the_csv_or_the_schema_refits(tmp_path, which):
    paths = _tabular_files(tmp_path)
    cfg = cli.ExperimentConfig(kind="tabular", data_path=paths[0], schema_path=paths[1], reps=1, epochs=10)
    first = cli._scored_rep(cfg, 0)
    assert cli._scored_rep(cfg, 0) is first
    if which == 0:
        export_csv(sample(draw_population(SynthSpec.binary(dim=3, seed=1)), 300, seed=3), paths[0])
    else:
        with open(paths[1], "a", encoding="utf-8") as fh:
            fh.write("\n")
    fits = cli._fit_count
    cli._scored_rep(cfg, 0)
    assert cli._fit_count - fits == 1


def test_tradeoff_calibrates_on_the_part_tabular_calibrates_on(tmp_path, capsys):
    data, schema = _tabular_files(tmp_path, n=600)
    common = ["--data", data, "--schema", schema, "--delta", "0,0.05,0.1", "--reps", "1",
              "--epochs", "20", "--seed", "2", "--format", "json"]
    code, out, _ = run_main(["tabular", *common], capsys)
    assert code == 0
    tabular = [r["cal_disparity_mean"] for r in json.loads(out)["rows"]]
    code, out, _ = run_main(["tradeoff", *common], capsys)
    assert code == 0
    assert [r["cal_disparity"] for r in json.loads(out)["rows"]] == tabular


@pytest.mark.parametrize("text, message", [
    ('{"has_header": true}', ": no 'columns' field"),
    ('{"columns": [{"name": "x0"}]}', ": column 0 has no 'kind' field"),
    ('{"columns": [{"kind": "numeric"}]}', ": column 0 has no 'name' field"),
    ('{"columns": [{"name": "x0", "kind": "bogus"}]}', ": unknown column kind 'bogus'"),
    ('{"columns": [', " is not valid JSON: Expecting"),
    # a string would be read as its characters, and a label without positive
    # values would read every label as 0
    ('{"columns": [{"name": "y", "kind": "label", "positive_values": ">50K"}]}',
     ": column 'y': 'positive_values' must be a list of strings"),
    ('{"columns": [{"name": "y", "kind": "label", "positive_values": null}]}',
     ": column 'y': 'positive_values' must be a list of strings"),
    ('{"columns": [{"name": "g", "kind": "protected", "group_values": [0, 1]}]}',
     ": column 'g': 'group_values' must be a list of strings"),
    ('{"columns": [{"name": "c", "kind": "categorical", "vocabulary": "ab"}]}',
     ": column 'c': 'vocabulary' must be a list of strings"),
    ('{"columns": [{"name": "y", "kind": "label"}]}', ": column 'y': a label column needs 'positive_values'"),
    ('{"columns": [{"name": "y", "kind": "label", "positive_values": []}]}',
     ": column 'y': a label column needs 'positive_values'"),
    ('{"has_header": "false", "columns": [{"name": "y", "kind": "label", "positive_values": ["1"]}]}',
     ": 'has_header' must be true or false"),
    # a protected column without values would read every row as group 0, and one
    # with both would silently use its group values
    ('{"columns": [{"name": "g", "kind": "protected"}]}',
     ": column 'g': a protected column lists exactly one of 'positive_values' and 'group_values'"),
    ('{"columns": [{"name": "g", "kind": "protected", "positive_values": ["1"], "group_values": ["0", "1"]}]}',
     ": column 'g': a protected column lists exactly one of 'positive_values' and 'group_values'"),
    ('{"columns": [{"name": "g", "kind": "protected", "positive_value": ["1"]}]}',
     ": column 'g': unknown field 'positive_value'"),
    ('{"columns": 5}', ": 'columns' must be a list of column objects"),
    ('{"columns": [{"name": "g", "kind": "protected", "group_values": ["a", "a"]}]}',
     ": column 'g': 'group_values' lists 'a' twice"),
])
def test_corrupt_schema_is_structured_error(tmp_path, capsys, text, message):
    data, _ = _tabular_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_main(["tabular", "--data", data, "--schema", str(bad), "--reps", "1"], capsys)
    assert code == 1 and out == ""
    payload = _error(err)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(f"schema file {bad}{message}")
