import hashlib
import io

import numpy as np
import pytest

import fairthresh as ft
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


def test_load_csv_feature_width(tmp_path):
    path = write(tmp_path, "toy.csv", TOY)
    data, report = tb.load_csv(path, toy_schema())
    # one numeric column plus a two-level one-hot
    assert data.features.shape == (3, 3)
    assert report.feature_names == ["age", "color=blue", "color=red"]
    assert data.group.tolist() == [1, 0, 0]
    assert data.label.tolist() == [1, 0, 1]
    assert data.features[0].tolist() == [31.0, 0.0, 1.0]


def test_load_csv_empty_file(tmp_path):
    path = write(tmp_path, "empty.csv", "")
    with pytest.raises(ValueError, match="empty file"):
        tb.load_csv(path, toy_schema())


def test_load_csv_header_mismatch(tmp_path):
    path = write(tmp_path, "bad.csv", "a,b,c,d\n1,red,M,yes\n")
    with pytest.raises(ValueError, match="header mismatch"):
        tb.load_csv(path, toy_schema())


def test_unparseable_numeric_drops_row(tmp_path):
    path = write(tmp_path, "toy.csv", TOY + "?,red,M,yes\n")
    data, report = tb.load_csv(path, toy_schema())
    assert data.n == 3
    assert report.n_dropped == 1


def test_all_rows_unusable(tmp_path):
    path = write(tmp_path, "toy.csv", "age,color,sex,hired\n?,red,M,yes\n")
    with pytest.raises(ValueError, match="zero usable rows"):
        tb.load_csv(path, toy_schema())


def test_unseen_category_encodes_to_zeros(tmp_path):
    train = write(tmp_path, "train.csv", TOY)
    schema = toy_schema()
    tb.load_csv(train, schema)  # fits the vocabulary: {blue, red}
    test = write(tmp_path, "test.csv", "age,color,sex,hired\n52,green,M,no\n")
    with pytest.warns(UserWarning, match="outside the fitted vocabulary"):
        data, report = tb.load_csv(test, schema)
    assert report.n_unseen_categories == 1
    assert data.features[0].tolist() == [52.0, 0.0, 0.0]


def test_encoding_is_pure_function_of_fitted_schema(tmp_path):
    # fitting on the training file then encoding other rows must not change
    # the schema: no vocabulary leakage from evaluation data
    train = write(tmp_path, "train.csv", TOY)
    schema = toy_schema()
    tb.load_csv(train, schema)
    vocab_before = schema.columns[1].vocabulary
    test = write(tmp_path, "test.csv", "age,color,sex,hired\n52,green,M,no\n")
    with pytest.warns(UserWarning):
        tb.load_csv(test, schema)
    assert schema.columns[1].vocabulary == vocab_before


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


def _dataset(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return ft.Dataset(
        rng.normal(size=(n, 2)), rng.integers(0, 2, n), rng.integers(0, 2, n)
    )


def test_split_sizes():
    data = _dataset(10)
    with pytest.warns(UserWarning):
        parts, report = tb.split(data, (0.8, 0.2, 0.0), seed=1)
    assert report.sizes == (8, 2, 0)
    assert parts[2] is None


def test_split_deterministic():
    data = _dataset(40)
    (a1, b1, c1), _ = tb.split(data, (0.5, 0.25, 0.25), seed=3)
    (a2, b2, c2), _ = tb.split(data, (0.5, 0.25, 0.25), seed=3)
    assert np.array_equal(a1.features, a2.features)
    assert np.array_equal(c1.label, c2.label)


def test_split_stratum_counts_sum_to_totals():
    data = _dataset(200, seed=5)
    parts, report = tb.split(data, (0.6, 0.2, 0.2), seed=7)
    total = sum(c for c in report.stratum_counts if c is not None)
    expect = np.zeros((2, 2), dtype=int)
    np.add.at(expect, (data.group, data.label), 1)
    assert np.array_equal(total, expect)


def test_split_uses_the_shared_index_split():
    data = _dataset(200, seed=2)
    parts, report = tb.split(data, (0.7, 0.1, 0.2), seed=5)
    idx = tb.split_indices(data.n, (0.7, 0.1, 0.2), seed=5)
    assert report.sizes == (140, 20, 40) == tuple(i.size for i in idx)
    for part, i in zip(parts, idx):
        assert np.array_equal(part.features, data.features[i])
    assert sorted(np.concatenate(idx).tolist()) == list(range(200))


def test_split_validation():
    data = _dataset(10)
    with pytest.raises(ValueError):
        tb.split(data, (0.5, 0.6), seed=0)
    with pytest.raises(ValueError):
        tb.split(data, (-0.1, 1.1), seed=0)


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

    monkeypatch.setattr(tb.urllib.request, "urlopen", urlopen)
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
