import hashlib
import io
import subprocess
import sys

import numpy as np
import pytest

from fairthresh import tabular as tb


def toy_schema():
    return tb.ColumnSchema(
        columns=[
            tb.ColumnSpec(name="age", kind="numeric"),
            tb.ColumnSpec(name="color", kind="categorical"),
            tb.ColumnSpec(name="sex", kind="protected", positive_values=("M",)),
            tb.ColumnSpec(name="hired", kind="label", positive_values=("yes",)),
        ]
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


TOY = "age,color,sex,hired\n31,red,M,yes\n45,blue,F,no\n27,red,F,yes\n"


def load(path, schema):
    """Read a CSV, fit any unfitted vocabulary on its rows, and encode them."""
    rows = tb.read_rows(path, schema)
    if not schema.fitted:
        tb.fit_schema(schema, rows)
    return tb.encode_rows(rows, schema)


def test_load_csv_feature_width(tmp_path):
    path = write(tmp_path, "toy.csv", TOY)
    schema = toy_schema()
    data, report = load(path, schema)
    # one numeric column plus a two-level one-hot
    assert data.features.shape == (3, 3)
    assert [c.vocabulary for c in schema.columns if c.kind == "categorical"] == [("blue", "red")]
    assert data.group.tolist() == [1, 0, 0]
    assert data.label.tolist() == [1, 0, 1]
    assert data.features[0].tolist() == [31.0, 0.0, 1.0]


def test_load_csv_empty_file(tmp_path):
    path = write(tmp_path, "empty.csv", "")
    with pytest.raises(ValueError, match="empty file"):
        tb.read_rows(path, toy_schema())


def test_load_csv_header_mismatch(tmp_path):
    path = write(tmp_path, "bad.csv", "a,b,c,d\n1,red,M,yes\n")
    with pytest.raises(ValueError, match="header mismatch"):
        tb.read_rows(path, toy_schema())


def test_unparseable_numeric_drops_row(tmp_path):
    path = write(tmp_path, "toy.csv", TOY + "?,red,M,yes\n")
    data, report = load(path, toy_schema())
    assert data.n == 3
    assert report.n_dropped == 1


def test_wrong_width_rows_are_dropped_and_counted(tmp_path):
    # four data rows: one short (no color field to fit a vocabulary on), one long
    text = "age,color,sex,hired\n31,red,M,yes\n45\n27,red,F,yes\n52,green,M,no,extra\n"
    schema = toy_schema()
    path = write(tmp_path, "toy.csv", text)
    data, report = load(path, schema)
    assert (len(tb.read_rows(path, schema)), report.n_dropped, data.n) == (4, 2, 2)
    assert schema.columns[1].vocabulary == ("red",)  # the long row's value is not fitted either


def test_vocabularies_are_learned_from_the_rows_kept_only(tmp_path):
    # the non-finite and the missing-label rows are dropped, so neither of
    # their colors is fitted: the kept row is not encoded as [31, 0, 0, 1]
    text = "age,color,sex,hired\n31,red,M,yes\nnan,green,F,no\n27,blue,F,?\n"
    schema = toy_schema()
    data, report = load(write(tmp_path, "toy.csv", text), schema)
    assert schema.columns[1].vocabulary == ("red",)
    assert (report.n_dropped, data.features.tolist()) == (2, [[31.0, 1.0]])


def test_an_all_empty_row_is_read_dropped_and_counted(tmp_path):
    # ",,," has four empty fields, unlike a blank line, which has none
    text = "age,color,sex,hired\n31,red,M,yes\n,,,\n\n27,red,F,yes\n"
    path = write(tmp_path, "toy.csv", text)
    data, report = load(path, toy_schema())
    assert (len(tb.read_rows(path, toy_schema())), report.n_dropped, data.n) == (3, 1, 2)


ROW = ["31", "red", "M", "yes"]


@pytest.mark.parametrize("bad", [
    ROW[:3],  # short
    ROW + ["extra"],  # long
    *(ROW[:j] + [m] + ROW[j + 1:] for m in ("", "?") for j in range(4)),  # missing, in each column kind
    ["3l", *ROW[1:]],  # a number that does not parse
    *([x, *ROW[1:]] for x in ("nan", "inf", "-inf", "1e999")),  # or is not finite
    [*ROW[:2], "X", "yes"],  # a protected value outside group_values
])
def test_each_unusable_row_is_dropped_and_counted(bad):
    schema = tb.ColumnSchema(columns=[
        tb.ColumnSpec(name="age", kind="numeric"),
        tb.ColumnSpec(name="color", kind="categorical", vocabulary=("blue", "red")),
        tb.ColumnSpec(name="sex", kind="protected", group_values=("F", "M")),
        tb.ColumnSpec(name="hired", kind="label", positive_values=("yes",)),
    ])
    good = [ROW, ["45", "blue", "F", "no"], ["27", "red", "F", "yes"]]
    data, report = tb.encode_rows([good[0], bad, *good[1:]], schema)
    assert report.n_dropped == 1 and report.n_unseen_categories == 0
    assert data.features.tolist() == [[31.0, 0.0, 1.0], [45.0, 1.0, 0.0], [27.0, 0.0, 1.0]]
    assert (data.group.tolist(), data.label.tolist()) == ([1, 0, 0], [1, 0, 1])


def test_a_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet programs often save UTF-8 with a leading BOM
    schema = toy_schema()
    schema.columns[1].vocabulary = ("blue", "red")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(schema.to_json(), encoding="utf-8-sig")
    loaded = tb.ColumnSchema.load(schema_path)
    assert loaded.to_json() == schema.to_json()
    path = tmp_path / "bom.csv"
    path.write_text(TOY, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    data, report = load(path, loaded)
    expect, _ = load(write(tmp_path, "toy.csv", TOY), schema)
    assert data.features.tolist() == expect.features.tolist() and report.n_dropped == 0


def test_all_rows_unusable(tmp_path):
    path = write(tmp_path, "toy.csv", "age,color,sex,hired\n?,red,M,yes\n")
    with pytest.raises(ValueError, match="zero usable rows"):
        load(path, toy_schema())


def test_unseen_category_encodes_to_zeros(tmp_path):
    train = write(tmp_path, "train.csv", TOY)
    schema = tb.fit_schema(toy_schema(), tb.read_rows(train, toy_schema()))  # {blue, red}
    test = write(tmp_path, "test.csv", "age,color,sex,hired\n52,green,M,no\n")
    with pytest.warns(UserWarning, match="outside the fitted vocabulary"):
        data, report = tb.encode_rows(tb.read_rows(test, schema), schema)
    assert report.n_unseen_categories == 1
    assert data.features[0].tolist() == [52.0, 0.0, 0.0]


def test_encoding_is_pure_function_of_fitted_schema(tmp_path):
    # fitting on the training file then encoding other rows must not change
    # the schema: no vocabulary leakage from evaluation data
    train = write(tmp_path, "train.csv", TOY)
    schema = tb.fit_schema(toy_schema(), tb.read_rows(train, toy_schema()))
    vocab_before = schema.columns[1].vocabulary
    test = write(tmp_path, "test.csv", "age,color,sex,hired\n52,green,M,no\n")
    with pytest.warns(UserWarning):
        load(test, schema)
    assert schema.columns[1].vocabulary == vocab_before


def test_unfitted_schema_is_rejected(tmp_path):
    rows = tb.read_rows(write(tmp_path, "toy.csv", TOY), toy_schema())
    with pytest.raises(ValueError, match="unfitted categorical"):
        tb.encode_rows(rows, toy_schema())


def test_schema_json_round_trip(tmp_path):
    schema = toy_schema()
    schema.columns[1].vocabulary = ("blue", "red")
    path = tmp_path / "schema.json"
    schema.save(path)
    loaded = tb.ColumnSchema.load(path)
    assert loaded.to_json() == schema.to_json()


def test_schema_validation():
    with pytest.raises(ValueError, match="label"):
        tb.ColumnSchema(columns=[tb.ColumnSpec(name="a", kind="numeric")])


# ---------------------------------------------------------------------- split


def _parts(n, fractions, seed):
    return [idx.size for idx in tb.split_indices(n, fractions, seed)]


def test_split_sizes():
    assert _parts(10, (0.8, 0.2, 0.0), seed=1) == [8, 2, 0]
    assert _parts(200, (0.7, 0.1, 0.2), seed=5) == [140, 20, 40]
    # part i ends at round((f_0 + ... + f_i) * n); the last part takes the rest
    assert _parts(7, (0.5, 0.25, 0.25), seed=0) == [4, 1, 2]


def test_split_deterministic():
    a = tb.split_indices(40, (0.5, 0.25, 0.25), seed=3)
    b = tb.split_indices(40, (0.5, 0.25, 0.25), seed=3)
    c = tb.split_indices(40, (0.5, 0.25, 0.25), seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_split_stratum_counts_sum_to_totals():
    rng = np.random.default_rng(5)
    group, label = rng.integers(0, 2, 200), rng.integers(0, 2, 200)
    total = np.zeros((2, 2), dtype=int)
    for idx in tb.split_indices(200, (0.6, 0.2, 0.2), seed=7):
        np.add.at(total, (group[idx], label[idx]), 1)
    expect = np.zeros((2, 2), dtype=int)
    np.add.at(expect, (group, label), 1)
    assert np.array_equal(total, expect)


def test_split_uses_the_shared_index_split():
    # every index lands in exactly one part, in a seeded order
    idx = tb.split_indices(200, (0.7, 0.1, 0.2), seed=5)
    flat = np.concatenate(idx)
    assert sorted(flat.tolist()) == list(range(200))
    assert np.array_equal(flat, np.random.default_rng(5).permutation(200))


def test_split_validation():
    for bad in ((0.5, 0.6), (-0.1, 1.1), (float("nan"), 0.5, 0.5)):
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            tb.split_indices(10, bad, seed=0)


# ---------------------------------------------------------------------- fetch


def test_fetch_verifies_checksum(tmp_path):
    blob = tmp_path / "file.bin"
    blob.write_bytes(b"hello")
    import hashlib

    good = hashlib.sha256(b"hello").hexdigest()
    manifest = tb.FetchManifest(url="file://unused", sha256=good, filename="file.bin")
    assert tb.fetch(manifest, dest_dir=tmp_path) == blob
    bad = tb.FetchManifest(url="file://unused", sha256="0" * 64, filename="file.bin")
    with pytest.raises(ValueError, match="checksum mismatch"):
        tb.fetch(bad, dest_dir=tmp_path)


class _FakeResponse(io.BytesIO):
    """A urlopen response; with ``fail_after`` the stream breaks after that many bytes."""

    def __init__(self, payload, fail_after=None):
        super().__init__(payload if fail_after is None else payload[:fail_after])
        self.breaks = fail_after is not None

    def read(self, size=-1):
        chunk = super().read(size)
        if not chunk and self.breaks:
            raise ConnectionResetError("connection dropped")
        return chunk


def _serve(monkeypatch, responses):
    calls = []

    def urlopen(url, timeout=None):
        calls.append(url)
        return responses.pop(0)

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    return calls


def test_fetch_downloads_verifies_and_moves_into_place(tmp_path, monkeypatch):
    payload = b"a,b\n1,2\n" * 1000
    manifest = tb.FetchManifest(url="https://example.invalid/d.csv",
                                sha256=hashlib.sha256(payload).hexdigest(), filename="d.csv")
    calls = _serve(monkeypatch, [_FakeResponse(payload)])
    target = tb.fetch(manifest, dest_dir=tmp_path)
    assert target == tmp_path / "d.csv" and target.read_bytes() == payload
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]
    assert tb.fetch(manifest, dest_dir=tmp_path) == target  # cached: no second download
    assert len(calls) == 1


def test_fetch_bad_or_partial_download_does_not_poison_the_cache(tmp_path, monkeypatch):
    payload = b"x" * 5000
    manifest = tb.FetchManifest(url="https://example.invalid/d.bin",
                                sha256=hashlib.sha256(payload).hexdigest(), filename="d.bin")
    calls = _serve(monkeypatch, [
        _FakeResponse(b"y" * 5000),  # wrong content
        _FakeResponse(payload, fail_after=1024),  # interrupted
        _FakeResponse(payload),
    ])
    with pytest.raises(ValueError, match="checksum mismatch"):
        tb.fetch(manifest, dest_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConnectionResetError):
        tb.fetch(manifest, dest_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
    # the next call downloads again and succeeds
    assert tb.fetch(manifest, dest_dir=tmp_path).read_bytes() == payload
    assert len(calls) == 3


def test_data_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(tb.DATA_DIR_ENV, str(tmp_path))
    assert tb.data_dir() == tmp_path


def test_adult_schema_shape():
    schema = tb.adult_schema()
    assert not schema.has_header
    kinds = [c.kind for c in schema.columns]
    assert kinds.count("label") == 1 and kinds.count("protected") == 1
    assert len(schema.columns) == 15


def test_importing_the_cli_leaves_out_the_download_stack():
    # urllib.request brings ssl, http.client and email, about half of the
    # CLI's import time; only fetch imports it
    code = "import sys, fairthresh.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
