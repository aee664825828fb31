"""CSV ingestion for real tabular benchmarks: schema, encoding, splitting.

A :class:`ColumnSchema` names each column and its role.  Numeric columns are parsed as
floats; categorical columns are one-hot encoded against a vocabulary learned from the
training rows kept (values unseen at fit time encode to all zeros and are counted).  A row is
dropped and counted when it has the wrong width, a missing cell (empty or ``?``; never
imputed), a number that does not parse or is not finite (``nan``, ``inf``, ``1e999``) or
a protected value outside ``group_values``.  Exactly one column is the binary label and
exactly one the protected attribute.  No dataset ships with the package: real data is
acquired through a fetch manifest (URL plus SHA-256) into a local cache.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import tempfile
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .core import Dataset

DATA_DIR_ENV = "FAIRTHRESH_DATA_DIR"

COLUMN_KINDS = ("numeric", "categorical", "protected", "label")
_MISSING = ("", "?")  # missing-value markers: a row holding one is dropped, never imputed


@dataclass
class ColumnSpec:
    name: str
    kind: str
    positive_values: tuple = ()  # label / binary protected membership
    group_values: tuple = ()  # ordered values for a multi-class protected column
    vocabulary: tuple = ()  # fitted categories, categorical columns only

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")
        for key in ("positive_values", "group_values", "vocabulary"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
                raise ValueError(f"column {self.name!r}: {key!r} must be a list of strings")
            setattr(self, key, tuple(values))
        if self.kind == "label" and not self.positive_values:
            raise ValueError(f"column {self.name!r}: a label column needs 'positive_values'")


@dataclass
class ColumnSchema:
    """Column roles for one CSV layout; ``has_header`` files are checked by name."""

    columns: list
    has_header: bool = True

    def __post_init__(self):
        if not isinstance(self.has_header, bool):
            raise ValueError("'has_header' must be true or false")
        kinds = [c.kind for c in self.columns]
        if kinds.count("label") != 1:
            raise ValueError("schema needs exactly one label column")
        if kinds.count("protected") != 1:
            raise ValueError("schema needs exactly one protected column")

    @property
    def fitted(self) -> bool:
        return all(c.vocabulary for c in self.columns if c.kind == "categorical")

    def feature_names(self) -> list:
        names = []
        for c in self.columns:
            if c.kind == "numeric":
                names.append(c.name)
            elif c.kind == "categorical":
                names.extend(f"{c.name}={v}" for v in c.vocabulary)
        return names

    def to_json(self) -> str:
        return json.dumps({"has_header": self.has_header, "columns": [asdict(c) for c in self.columns]}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ColumnSchema":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "columns" not in obj:
            raise ValueError("no 'columns' field")
        cols = []
        for i, c in enumerate(obj["columns"]):
            for key in ("name", "kind"):
                if not isinstance(c, dict) or key not in c:
                    raise ValueError(f"column {i} has no {key!r} field")
            cols.append(ColumnSpec(**{f.name: c[f.name] for f in fields(ColumnSpec) if f.name in c}))
        return cls(columns=cols, has_header=obj.get("has_header", True))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ColumnSchema":
        """Read a schema file; a malformed one raises a ValueError that names the file."""
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8-sig"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"schema file {path} is not valid JSON: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"schema file {path}: {exc}") from None


@dataclass
class LoadReport:
    n_dropped: int = 0
    n_unseen_categories: int = 0


def read_rows(path, schema: ColumnSchema) -> list:
    """Raw parsed rows (lists of stripped strings), header checked if present;
    a UTF-8 byte-order mark and blank lines are skipped, and :func:`encode_rows`
    drops and counts the rows it cannot use, all-empty ones (``,,,``) too."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows = [[cell.strip() for cell in row] for row in reader if row]
    if not rows:
        raise ValueError("empty file")
    if schema.has_header:
        header = rows.pop(0)
        expected = [c.name for c in schema.columns]
        if header != expected:
            raise ValueError(f"header mismatch: expected {expected}, found {header}")
    return rows


def fit_schema(schema: ColumnSchema, rows: list) -> ColumnSchema:
    """Learn categorical vocabularies from the (training) rows that :func:`encode_rows` keeps.

    A category seen only on a dropped row would be an all-zero training
    feature.  The row rule (:func:`_encode_row`) is applied with every
    vocabulary empty, as it never reads a categorical cell, and "zero usable
    rows" is raised when it keeps no row.
    """
    categorical = [(j, col) for j, col in enumerate(schema.columns) if col.kind == "categorical"]
    for _, col in categorical:
        col.vocabulary = ()
    kept = []
    for row in rows:
        try:
            _encode_row(row, schema.columns)
        except ValueError:
            continue
        kept.append(row)
    if not kept:
        raise ValueError("zero usable rows")
    for j, col in categorical:
        col.vocabulary = tuple(sorted({r[j] for r in kept}))
    return schema


def _encode_row(row: list, columns: list) -> tuple:
    """One row's ``(features, group, label, unseen)``; raises ValueError when
    the row has the wrong width, a missing cell, a number that does not parse
    or is not finite, or a protected value outside ``group_values``."""
    if len(row) != len(columns) or any(cell in _MISSING for cell in row):
        raise ValueError("unusable row")
    vec, group, label, unseen = [], None, None, 0
    for cell, col in zip(row, columns):
        if col.kind == "numeric":
            vec.append(float(cell))
        elif col.kind == "categorical":
            vec.extend(float(cell == v) for v in col.vocabulary)
            unseen += cell not in col.vocabulary
        elif col.kind == "protected":
            group = col.group_values.index(cell) if col.group_values else int(cell in col.positive_values)
        else:  # label
            label = int(cell in col.positive_values)
    if not all(map(math.isfinite, vec)):
        raise ValueError("non-finite number")
    return vec, group, label, unseen


def encode_rows(rows: list, schema: ColumnSchema) -> tuple:
    """Encode parsed rows against a fitted schema; returns (Dataset, LoadReport).
    Each row :func:`_encode_row` rejects is dropped and counted; unseen categories count on kept rows."""
    if not schema.fitted:
        raise ValueError("schema has unfitted categorical vocabularies")
    report, encoded = LoadReport(), []
    for row in rows:
        try:
            encoded.append(_encode_row(row, schema.columns))
        except ValueError:
            report.n_dropped += 1
    if not encoded:
        raise ValueError("zero usable rows")
    feats, groups, labels, unseen = zip(*encoded)
    report.n_unseen_categories = sum(unseen)
    if report.n_unseen_categories:
        warnings.warn(
            f"{report.n_unseen_categories} categorical values outside the fitted "
            "vocabulary encoded as all-zeros"
        )
    protected = next(c for c in schema.columns if c.kind == "protected")
    return Dataset(
        features=np.asarray(feats, dtype=np.float64),
        group=np.asarray(groups, dtype=np.int64),
        label=np.asarray(labels, dtype=np.int64),
        n_groups=len(protected.group_values) or 2,  # the schema's, so every part of a split agrees
    ), report


def split_indices(n: int, fractions, seed: int) -> list:
    """Seeded permutation of range(n), cut into len(fractions) contiguous parts.

    Part i ends at round((f_0 + ... + f_i) * n); the last part takes the rest.
    """
    fr = [float(f) for f in fractions]
    if not all(f >= 0 for f in fr) or not abs(sum(fr) - 1.0) <= 1e-9:
        raise ValueError("fractions must be non-negative and sum to 1")
    order = np.random.default_rng(seed).permutation(n)
    bounds = [0]
    acc = 0.0
    for f in fr[:-1]:
        acc += f
        bounds.append(int(round(acc * n)))
    bounds.append(n)
    return [order[bounds[i] : bounds[i + 1]] for i in range(len(fr))]


# ---------------------------------------------------------------------------
# Fetching real data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FetchManifest:
    url: str
    sha256: str
    filename: str


def data_dir() -> Path:
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "fairthresh"


def _verify(path: Path, manifest: FetchManifest) -> None:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != manifest.sha256:
        raise ValueError(
            f"checksum mismatch for {manifest.filename}: expected {manifest.sha256}, got {digest}"
        )


def fetch(manifest: FetchManifest, dest_dir: Optional[Path] = None, timeout: float = 60.0) -> Path:
    """Download (if absent) and checksum-verify a data file; returns its path.

    The download goes to a temporary file in the cache directory and replaces
    the target only once its checksum matches, so an interrupted or corrupt
    download never sits at the target.  ``urllib.request`` is imported here,
    not with the module: with ``ssl`` and ``http.client`` it costs about half
    of ``import fairthresh.cli``, which every run pays and few runs download.
    """
    import urllib.request

    dest = Path(dest_dir) if dest_dir else data_dir()
    dest.mkdir(parents=True, exist_ok=True)
    target = dest / manifest.filename
    if target.exists():
        _verify(target, manifest)
        return target
    fd, tmp = tempfile.mkstemp(dir=dest, prefix=f".{manifest.filename}.", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh, urllib.request.urlopen(manifest.url, timeout=timeout) as resp:
            shutil.copyfileobj(resp, fh)
        _verify(Path(tmp), manifest)
        os.replace(tmp, target)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return target


# The census-income benchmark: headerless CSV, 14 feature columns plus the
# income label; the protected attribute is sex.
ADULT_MANIFEST = FetchManifest(
    url="https://archive.ics.uci.edu/ml/machine-learning-databases/adult/adult.data",
    sha256="5b00264637dbfec36bdeaab5676b0b309ff9eb788d63554ca0a249491c86603d",
    filename="adult.data",
)


def adult_schema() -> ColumnSchema:
    """Column roles for the census-income file (our own encoding choices)."""
    cat = lambda name: ColumnSpec(name=name, kind="categorical")
    num = lambda name: ColumnSpec(name=name, kind="numeric")
    return ColumnSchema(
        has_header=False,
        columns=[
            num("age"),
            cat("workclass"),
            num("fnlwgt"),
            cat("education"),
            num("education-num"),
            cat("marital-status"),
            cat("occupation"),
            cat("relationship"),
            cat("race"),
            ColumnSpec(name="sex", kind="protected", positive_values=("Male",)),
            num("capital-gain"),
            num("capital-loss"),
            num("hours-per-week"),
            cat("native-country"),
            ColumnSpec(name="income", kind="label", positive_values=(">50K",)),
        ],
    )
