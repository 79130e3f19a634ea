"""Parsing and preprocessing for the 13-column forest-fires weather table.

The input layout is the classic Montesinho / UCI "forestfires" CSV:
X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area (comma separated,
"." decimal point, LF or CRLF). Every transform here is a pure function:
it returns a new :class:`Dataset` and appends an entry to the dataset's
provenance trail, so pipelines stay replayable and diffable.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass

import numpy as np

MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
          "jul", "aug", "sep", "oct", "nov", "dec")
DAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

CANONICAL_COLUMNS = ("X", "Y", "month", "day", "FFMC", "DMC", "DC",
                     "ISI", "temp", "RH", "wind", "rain", "area")

VOCABULARIES = {"month": MONTHS, "day": DAYS}

# inclusive (lo, hi) bounds; None means unbounded on that side
_RANGES = {
    "X": (1, 9),
    "Y": (2, 9),
    "FFMC": (0.0, 101.0),
    "RH": (0.0, 100.0),
    "DMC": (0.0, None),
    "DC": (0.0, None),
    "ISI": (0.0, None),
    "wind": (0.0, None),
    "rain": (0.0, None),
    "area": (0.0, None),
}

_INT_COLUMNS = frozenset({"X", "Y"})


class DatasetError(ValueError):
    """Base class for dataset parsing and transform failures."""


class MissingColumn(DatasetError):
    def __init__(self, name):
        super().__init__(f"missing column: {name}")
        self.name = name


class UnknownColumn(DatasetError):
    def __init__(self, name):
        super().__init__(f"unknown column: {name}")
        self.name = name


class BadCell(DatasetError):
    def __init__(self, row, column, text):
        super().__init__(f"row {row}, column {column}: cannot parse {text!r}")
        self.row = row
        self.column = column
        self.text = text


class RangeViolation(DatasetError):
    def __init__(self, row, column, value):
        super().__init__(f"row {row}, column {column}: value {value!r} out of range")
        self.row = row
        self.column = column
        self.value = value


class ZeroVariance(DatasetError):
    def __init__(self, column):
        super().__init__(f"column {column} has zero variance")
        self.column = column


class TooFewRows(DatasetError):
    pass


class UnknownToken(DatasetError):
    def __init__(self, row, column, token):
        super().__init__(f"row {row}, column {column}: unknown token {token!r}")
        self.row = row
        self.column = column
        self.token = token


class NegativeInput(DatasetError):
    pass


class SingleClass(DatasetError):
    pass


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # "numeric" | "categorical"


@dataclass(frozen=True)
class WeatherRecord:
    """One sensor/dataset row: grid cell, calendar, weather, fire codes, burned area."""
    x: int
    y: int
    month: str
    day: str
    ffmc: float
    dmc: float
    dc: float
    isi: float
    temp: float
    rh: float
    wind: float
    rain: float
    area: float


class Dataset:
    """Immutable table: schema + row tuples + append-only provenance trail."""

    def __init__(self, schema, rows, provenance=()):
        self.schema = tuple(schema)
        self.rows = tuple(tuple(r) for r in rows)
        self.provenance = tuple(provenance)
        self._index = {c.name: i for i, c in enumerate(self.schema)}
        for r in self.rows:
            if len(r) != len(self.schema):
                raise DatasetError(
                    f"row width {len(r)} does not match schema width {len(self.schema)}")

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and self.schema == other.schema and self.rows == other.rows)

    def __hash__(self):
        return hash((self.schema, self.rows))

    @property
    def column_names(self):
        return tuple(c.name for c in self.schema)

    def column_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumn(name) from None

    def column(self, name):
        i = self.column_index(name)
        return [r[i] for r in self.rows]

    def numeric_columns(self):
        return tuple(c.name for c in self.schema if c.kind == "numeric")

    def with_rows(self, rows, step):
        return Dataset(self.schema, rows, self.provenance + (step,))

    def replaced(self, schema, rows, step):
        return Dataset(schema, rows, self.provenance + (step,))

    def records(self):
        """View rows as WeatherRecords; requires the canonical 13-column schema."""
        if self.column_names != CANONICAL_COLUMNS:
            raise DatasetError("dataset does not have the canonical 13-column schema")
        return [WeatherRecord(*r) for r in self.rows]

    def provenance_json(self):
        return json.dumps({"steps": list(self.provenance)}, sort_keys=True)


def _canonical_schema():
    return tuple(
        Column(name, "categorical" if name in VOCABULARIES else "numeric")
        for name in CANONICAL_COLUMNS)


def _check_range(row, name, value):
    bounds = _RANGES.get(name)
    if bounds is None:
        return
    lo, hi = bounds
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise RangeViolation(row, name, value)


def _parse_cell(rownum, name, text):
    text = text.strip()
    if name in VOCABULARIES:
        token = text.lower()
        if token not in VOCABULARIES[name]:
            raise RangeViolation(rownum, name, token)
        return token
    try:
        value = int(text) if name in _INT_COLUMNS else float(text)
    except ValueError:
        raise BadCell(rownum, name, text) from None
    if not math.isfinite(value):
        raise BadCell(rownum, name, text)
    _check_range(rownum, name, value)
    return value


_LOWER_TO_CANONICAL = {name.lower(): name for name in CANONICAL_COLUMNS}
_CANONICAL_ORDER = tuple(range(len(CANONICAL_COLUMNS)))


def _header_order(fields):
    """Index of each canonical column in a header row (any case, any order)."""
    positions = {}
    for i, raw in enumerate(fields):
        canonical = _LOWER_TO_CANONICAL.get(raw.strip().lower())
        if canonical is None:
            raise UnknownColumn(raw.strip())
        positions[canonical] = i
    for name in CANONICAL_COLUMNS:
        if name not in positions:
            raise MissingColumn(name)
    return tuple(positions[name] for name in CANONICAL_COLUMNS)


def _parse_row(rownum, fields, order=_CANONICAL_ORDER):
    if len(fields) != len(CANONICAL_COLUMNS):
        raise BadCell(rownum, "<row>", ",".join(fields))
    return tuple(_parse_cell(rownum, name, fields[i])
                 for name, i in zip(CANONICAL_COLUMNS, order))


def _rows(lines, header):
    """Value tuples in canonical column order from CSV lines; blank rows are
    skipped and ``header`` is read as iter_records describes."""
    rows = (f for f in csv.reader(lines) if len(f) > 1 or (f and f[0].strip()))
    first, rownum = None, 0
    try:
        first = next(rows, None)
        if first is None:
            if header:
                raise MissingColumn(CANONICAL_COLUMNS[0])
            return
        order = _CANONICAL_ORDER
        if header or (header is None
                      and {f.strip().lower() for f in first} == _LOWER_TO_CANONICAL.keys()):
            order = _header_order(first)
        else:
            rows = itertools.chain([first], rows)
        for fields in rows:
            yield _parse_row(rownum, fields, order)
            rownum += 1
    except csv.Error as exc:
        where = "header" if header and first is None else f"row {rownum}"
        raise DatasetError(f"{where}: {exc}") from None


def parse_record_fields(fields, rownum=0):
    """Parse one headerless record given in canonical column order."""
    return WeatherRecord(*_parse_row(rownum, fields))


def parse_dataset(csv_text):
    """Parse the 13-column CSV into a Dataset of WeatherRecord rows.

    The header is matched case-insensitively and columns may appear in any
    order; rows are re-keyed by header name. Quoted cells are accepted when
    well formed, but this schema never needs quoting and malformed quoting
    surfaces as a BadCell (wrong cell count after CSV splitting).
    """
    lines = io.StringIO(csv_text) if isinstance(csv_text, str) else csv_text
    return Dataset(_canonical_schema(), _rows(lines, header=True), ({"name": "parse"},))


def iter_records(lines, header=True):
    """Lazily parse records from an iterable of CSV lines, by the same rules
    as parse_dataset.

    header=True requires the first non-blank row to name the 13 columns,
    header=False reads every row as a record in canonical order, and
    header=None takes the first row as a header exactly when its cells are
    the 13 names.
    """
    for values in _rows(lines, header):
        yield WeatherRecord(*values)


def serialize_csv(d: Dataset) -> str:
    """Re-serialize with the same dialect; floats use repr so values round-trip."""
    out = [",".join(d.column_names)]
    for row in d.rows:
        out.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(out) + "\n"


def log_transform_area(d: Dataset) -> Dataset:
    """Replace area with ln(1 + area); defined at the zero-burn rows that dominate."""
    i = d.column_index("area")
    for n, row in enumerate(d.rows):
        if row[i] < 0:
            raise NegativeInput(f"row {n}: area {row[i]} < 0")
    rows = [row[:i] + (math.log1p(row[i]),) + row[i + 1:] for row in d.rows]
    return d.with_rows(rows, {"name": "log1p", "column": "area"})


@dataclass(frozen=True)
class NormParams:
    """Per-column (mean, population stddev) recorded by zscore_normalize."""
    params: dict

    def mean(self, column):
        return self.params[column][0]

    def stddev(self, column):
        return self.params[column][1]


def zscore_normalize(d: Dataset, columns):
    """Standardize the named numeric columns to zero mean and unit variance.

    Population (not sample) standard deviation, so the normalized column has
    population variance exactly 1.
    """
    params = {}
    rows = [list(r) for r in d.rows]
    for name in columns:
        i = d.column_index(name)
        if d.schema[i].kind != "numeric":
            raise UnknownColumn(name)
        values = np.array([r[i] for r in d.rows], dtype=float)
        mean = float(values.mean())
        std = float(values.std())  # population
        if std == 0.0:
            raise ZeroVariance(name)
        params[name] = (mean, std)
        for r in rows:
            r[i] = (r[i] - mean) / std
    step = {"name": "zscore", "columns": list(columns)}
    return d.with_rows([tuple(r) for r in rows], step), NormParams(params)


def denormalize(d: Dataset, norm: NormParams) -> Dataset:
    """Invert zscore_normalize using the recorded parameters."""
    rows = [list(r) for r in d.rows]
    for name, (mean, std) in norm.params.items():
        i = d.column_index(name)
        for r in rows:
            r[i] = r[i] * std + mean
    step = {"name": "denormalize", "columns": sorted(norm.params)}
    return d.with_rows([tuple(r) for r in rows], step)


def one_hot_encode(d: Dataset, columns) -> Dataset:
    """Replace each categorical column, in place, by one 0/1 column per token.

    New columns are named "<col>=<token>" and laid out in calendar
    (vocabulary) order, so the output schema is stable.
    """
    for name in columns:
        i = d.column_index(name)
        if d.schema[i].kind != "categorical" or name not in VOCABULARIES:
            raise UnknownColumn(name)

    encode = set(columns)
    schema = []
    for col in d.schema:
        if col.name in encode:
            schema.extend(Column(f"{col.name}={tok}", "numeric")
                          for tok in VOCABULARIES[col.name])
        else:
            schema.append(col)

    rows = []
    for n, row in enumerate(d.rows):
        out = []
        for col, value in zip(d.schema, row):
            if col.name in encode:
                vocab = VOCABULARIES[col.name]
                if value not in vocab:
                    raise UnknownToken(n, col.name, value)
                out.extend(1 if tok == value else 0 for tok in vocab)
            else:
                out.append(value)
        rows.append(tuple(out))
    step = {"name": "one_hot", "columns": list(columns)}
    return d.replaced(schema, rows, step)


def ordinal_encode(d: Dataset, columns=("month", "day")) -> Dataset:
    """Map month/day tokens to calendar ordinals (jan=1..dec=12, mon=1..sun=7).

    Gives the 13-column table an all-numeric view, e.g. for a full-schema
    correlation heatmap.
    """
    for name in columns:
        i = d.column_index(name)
        if name not in VOCABULARIES:
            raise UnknownColumn(name)
    schema = [Column(c.name, "numeric") if c.name in set(columns) else c
              for c in d.schema]
    rows = []
    for n, row in enumerate(d.rows):
        out = list(row)
        for name in columns:
            i = d.column_index(name)
            vocab = VOCABULARIES[name]
            if out[i] not in vocab:
                raise UnknownToken(n, name, out[i])
            out[i] = vocab.index(out[i]) + 1
        rows.append(tuple(out))
    step = {"name": "ordinal", "columns": list(columns)}
    return d.replaced(schema, rows, step)


class CorrelationMatrix:
    """Pearson coefficients over the numeric columns; symmetric, unit diagonal."""

    def __init__(self, labels, values):
        self.labels = tuple(labels)
        self.values = np.asarray(values, dtype=float)

    def value(self, a, b):
        return float(self.values[self.labels.index(a), self.labels.index(b)])

    def pairs(self):
        for i, a in enumerate(self.labels):
            for j in range(i + 1, len(self.labels)):
                yield a, self.labels[j], float(self.values[i, j])


def correlation_matrix(d: Dataset) -> CorrelationMatrix:
    """Pearson correlation over every numeric column pair."""
    if len(d.rows) < 2:
        raise TooFewRows(f"need >= 2 rows, have {len(d.rows)}")
    labels = d.numeric_columns()
    data = np.array([[float(v) for v in d.column(name)] for name in labels])
    for name, col in zip(labels, data):
        if col.std() == 0.0:
            raise ZeroVariance(name)
    values = np.corrcoef(data)
    # enforce exact symmetry and unit diagonal against float noise
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 1.0)
    return CorrelationMatrix(labels, np.clip(values, -1.0, 1.0))


def filter_outliers(d: Dataset, column, method="zscore", threshold=None) -> Dataset:
    """Drop rows whose column value is outlying.

    zscore: |v - mean| / stddev > threshold (default 3.0, population stddev).
    iqr: v outside [Q1 - k*IQR, Q3 + k*IQR] (default k = 1.5), quartiles by
    linear interpolation between order statistics.
    """
    i = d.column_index(column)
    if d.schema[i].kind != "numeric":
        raise UnknownColumn(column)
    values = np.array([float(r[i]) for r in d.rows])

    if method == "zscore":
        t = 3.0 if threshold is None else float(threshold)
        std = values.std()
        if std == 0.0:
            raise ZeroVariance(column)
        keep = np.abs(values - values.mean()) / std <= t
    elif method == "iqr":
        k = 1.5 if threshold is None else float(threshold)
        q1, q3 = np.percentile(values, [25.0, 75.0])
        iqr = q3 - q1
        keep = (values >= q1 - k * iqr) & (values <= q3 + k * iqr)
    else:
        raise DatasetError(f"unknown outlier method: {method}")

    rows = [r for r, ok in zip(d.rows, keep) if ok]
    step = {"name": "filter_outliers", "column": column, "method": method,
            "removed": int(len(d.rows) - len(rows))}
    return d.with_rows(rows, step)


def _class_labels(d: Dataset, label_column):
    i = d.column_index(label_column)
    if d.schema[i].kind == "categorical":
        return [r[i] for r in d.rows]
    # numeric label: binarize as "value > 0"
    return [r[i] > 0 for r in d.rows]


def resample(d: Dataset, label_column, strategy="oversample", seed=0) -> Dataset:
    """Balance class counts exactly by seeded duplication or deletion.

    oversample: duplicate seeded uniform draws from each minority class until
    all classes reach the majority count (duplicates appended at the end).
    undersample: keep a seeded uniform subset of each majority class, original
    order preserved. The same seed always yields the identical Dataset.
    """
    labels = _class_labels(d, label_column)
    by_class = {}
    for idx, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(idx)
    if len(by_class) < 2:
        raise SingleClass(f"column {label_column} has a single class")

    rng = random.Random(seed)
    classes = sorted(by_class, key=repr)
    counts = {c: len(by_class[c]) for c in classes}

    if strategy == "oversample":
        target = max(counts.values())
        rows = list(d.rows)
        for c in classes:
            pool = by_class[c]
            for _ in range(target - counts[c]):
                rows.append(d.rows[pool[rng.randrange(len(pool))]])
    elif strategy == "undersample":
        target = min(counts.values())
        kept = set()
        for c in classes:
            kept.update(sorted(rng.sample(by_class[c], target)))
        rows = [r for idx, r in enumerate(d.rows) if idx in kept]
    else:
        raise DatasetError(f"unknown resample strategy: {strategy}")

    step = {"name": "resample", "column": label_column,
            "strategy": strategy, "seed": seed}
    return d.with_rows(rows, step)
