"""Dataset loading, numeric quantization into intervals, splits, folds and row bitsets."""

from __future__ import annotations

import csv
import math
import random
import reprlib
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from .core import (NUMBER, FeatureSpace, Instance, SpaceError, integer, json_field,
                   read_json)

ALLOWED_INTERVALS = (4, 5, 6)


class IngestError(ValueError):
    """Load or quantization failure, with row/column context in the message."""


@dataclass(frozen=True)
class Dataset:
    """A tabular dataset over categorical features, plus an optional class column.

    A column with domain None holds raw floats and is awaiting quantization;
    everything downstream of `quantize` sees value indices only. The class
    column is kept out of the feature space (rule mining drops it anyway).
    """

    names: tuple[str, ...]
    domains: tuple[Optional[tuple[str, ...]], ...]
    rows: tuple[tuple, ...]
    class_name: Optional[str] = None
    class_domain: Optional[tuple[str, ...]] = None
    class_labels: Optional[tuple[int, ...]] = None
    class_position: Optional[int] = None

    def __post_init__(self):
        if len(self.names) != len(self.domains):
            raise IngestError("column names and domains disagree")
        for r, row in enumerate(self.rows):
            if len(row) != len(self.names):
                raise IngestError("row %d has %d cells, expected %d"
                                  % (r, len(row), len(self.names)))
            for c, (dom, cell) in enumerate(zip(self.domains, row)):
                if dom is not None and not (type(cell) is int and 0 <= cell < len(dom)):
                    integer(cell, "row %d, column %r: value index" % (r, self.names[c]),
                            IngestError, 0, len(dom))  # raises
        if self.class_labels is not None:
            if self.class_domain is None:
                raise IngestError("class labels have no class domain")
            if len(self.class_labels) != len(self.rows):
                raise IngestError("class labels do not cover all rows")
            for r, c in enumerate(self.class_labels):
                if not (type(c) is int and 0 <= c < len(self.class_domain)):
                    integer(c, "row %d: class label index" % r, IngestError, 0,
                            len(self.class_domain))  # raises

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def numeric_columns(self) -> tuple[str, ...]:
        return tuple(n for n, d in zip(self.names, self.domains) if d is None)

    @property
    def space(self) -> FeatureSpace:
        if self.numeric_columns:
            raise IngestError("columns %s are numeric; quantize first"
                              % (list(self.numeric_columns),))
        return FeatureSpace.make(zip(self.names, self.domains))

    def instances(self) -> list[Instance]:
        self.space  # raises while a column is numeric; `__post_init__` checked the cells
        return [Instance(tuple(row)) for row in self.rows]

    def row_labels(self, r: int) -> dict[str, str]:
        """Feature name -> value label for one row (quantized datasets only)."""
        out = {}
        row = self.rows[integer(r, "row index", IngestError, 0, len(self.rows))]
        for name, dom, cell in zip(self.names, self.domains, row):
            if dom is None:
                raise IngestError("column %r is numeric; quantize first" % name)
            out[name] = dom[cell]
        return out

    def take(self, indices: Sequence[int]) -> "Dataset":
        """The rows at the indices, in their order; each index is checked by `integer`."""
        n = len(self.rows)
        indices = [integer(i, "row index", IngestError, 0, n) for i in indices]
        rows = tuple(self.rows[i] for i in indices)
        labels = tuple(self.class_labels[i] for i in indices) \
            if self.class_labels is not None else None
        return replace(self, rows=rows, class_labels=labels)

    def write_csv(self, path) -> None:
        """Write back as CSV with value labels, class column in its original position."""
        lines = [list(self.names)] + [[repr(cell) if dom is None else dom[cell]
                                       for dom, cell in zip(self.domains, row)]
                                      for row in self.rows]
        if self.class_name is not None:
            pos = len(self.names) if self.class_position is None else self.class_position
            labels = [self.class_name] + [self.class_domain[c] for c in self.class_labels]
            for cells, label in zip(lines, labels):
                cells.insert(pos, label)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(lines)


def row_bitsets(space: FeatureSpace, insts: Sequence[Instance]) -> list[list[int]]:
    """Row bitsets per feature value: bit i of cols[f][v] is set iff row i has f = v."""
    cols = []
    for f in range(space.m):
        column = [inst.values[f] for inst in reversed(insts)]
        cols.append([int("".join("1" if x == v else "0" for x in column) or "0", 2)
                     for v in range(len(space.domain(f)))])
    return cols


def _try_float(cell: str) -> Optional[float]:
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def load_csv(path, class_column: Optional[str] = "last") -> Dataset:
    """Load a headered CSV; a UTF-8 byte-order mark before the header is dropped.

    Categorical domains are built in first-appearance order. Columns whose
    cells all parse as finite floats are numeric (awaiting quantization); a
    column with a `nan` or `inf` cell is categorical. The last column is the
    class unless `class_column` names another one or is None for a
    class-free table. Column names must be distinct.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise IngestError("%s: %s" % (path, exc)) from None
    if not rows:
        raise IngestError("%s: empty file, expected a header row" % path)
    header, table = rows[0], rows[1:]
    for r, row in enumerate(table):
        if len(row) != len(header):
            raise IngestError("%s: row %d has %d cells, expected %d"
                              % (path, r + 1, len(row), len(header)))
    if not header:
        raise IngestError("%s: header row is empty" % path)
    for c, name in enumerate(header):
        if name in header[:c]:
            raise IngestError("%s: column %r appears twice in the header" % (path, name))

    if class_column == "last":
        class_pos = len(header) - 1
    elif class_column is None:
        class_pos = None
    else:
        if class_column not in header:
            raise IngestError("%s: class column %r not in header" % (path, class_column))
        class_pos = header.index(class_column)

    names, domains, columns = [], [], []
    class_name = class_domain = class_labels = None
    for c, name in enumerate(header):
        cells = [row[c] for row in table]
        for r, cell in enumerate(cells):
            if cell == "":
                raise IngestError("%s: row %d, column %r: empty cell" % (path, r + 1, name))
        if c == class_pos:
            class_name = name
            class_domain, class_labels = _index_labels(path, name, cells, minimum=2)
            continue
        floats = [_try_float(cell) for cell in cells]
        names.append(name)
        if cells and None not in floats:
            domains.append(None)
            columns.append(floats)
        else:
            dom, idx = _index_labels(path, name, cells, minimum=2)
            domains.append(dom)
            columns.append(idx)

    rows = tuple(tuple(col[r] for col in columns) for r in range(len(table)))
    return Dataset(tuple(names), tuple(domains), rows, class_name,
                   class_domain, class_labels, class_pos)


def _index_labels(path, name, cells, minimum):
    domain: list[str] = []
    seen: dict[str, int] = {}
    idx = []
    for cell in cells:
        if cell not in seen:
            seen[cell] = len(domain)
            domain.append(cell)
        idx.append(seen[cell])
    if cells and len(domain) < minimum:
        raise IngestError("%s: column %r has a domain of size %d (< %d)"
                          % (path, name, len(domain), minimum))
    return tuple(domain), tuple(idx)


@dataclass(frozen=True)
class ColumnBins:
    """Fitted bins for one numeric column: strictly increasing interior cut
    points and distinct interval labels."""

    cuts: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.cuts, self.cuts[1:])):
            raise IngestError("cut points must be strictly increasing: %s" % (self.cuts,))
        if len(self.labels) != len(self.cuts) + 1:
            raise IngestError("expected %d interval labels, got %d"
                              % (len(self.cuts) + 1, len(self.labels)))
        if len(set(self.labels)) < len(self.labels):
            raise IngestError("interval labels must be distinct: %s" % (self.labels,))

    def interval(self, x: float) -> int:
        # values on a cut point go to the lower interval; out-of-range clamps
        return bisect_left(self.cuts, x)

    @classmethod
    def from_cuts(cls, cuts: Sequence[float]) -> "ColumnBins":
        cuts = tuple(float(c) for c in cuts)
        # %g's 6 significant digits, or the fewest more that tell the cuts apart
        digits = next((p for p in range(6, 17)
                       if len({"%.*g" % (p, c) for c in cuts}) == len(cuts)), 17)
        text = ["%.*g" % (digits, c) for c in cuts]
        labels = ["<=" + text[0]]
        labels += ["(%s,%s]" % ab for ab in zip(text, text[1:])]
        labels.append(">" + text[-1])
        return cls(cuts, tuple(labels))


@dataclass(frozen=True)
class QuantizationSpec:
    """Per-column fitted bins; persisting this makes runs reproducible bit-for-bit."""

    columns: Mapping[str, ColumnBins] = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {"format": "kxp.qspec/1",
                "columns": {name: {"cuts": list(b.cuts), "labels": list(b.labels)}
                            for name, b in self.columns.items()}}

    @classmethod
    def from_obj(cls, obj: Mapping) -> "QuantizationSpec":
        """A spec from its JSON object; a malformed one raises IngestError or
        SpaceError naming the field or column."""
        fmt = obj.get("format") if isinstance(obj, dict) else None
        if fmt != "kxp.qspec/1":
            raise IngestError("unrecognized quantization spec format %r" % fmt)
        out = {}
        for name, spec in json_field(obj, "columns", dict).items():
            where = "columns[%r]" % name
            cuts = json_field(spec, "cuts", list, where)
            labels = json_field(spec, "labels", list, where)
            if not (all(type(x) in (int, float) and math.isfinite(x) for x in cuts)
                    and all(isinstance(label, str) for label in labels)):
                raise IngestError("%s: expected finite numbers as cuts and "
                                  "strings as labels" % where)
            try:
                out[name] = ColumnBins(tuple(cuts), tuple(labels))
            except IngestError as exc:
                raise IngestError("%s: %s" % (where, exc)) from None
        return cls(out)

    @classmethod
    def load(cls, path) -> "QuantizationSpec":
        """Read a spec file; any fault in it raises IngestError naming the file."""
        obj = read_json(path, IngestError)
        try:
            return cls.from_obj(obj)
        except (IngestError, SpaceError) as exc:
            raise IngestError("%s: %s" % (path, exc)) from None


def check_interval_count(q: int, force: bool = False) -> None:
    """Raise unless `q` is an integer in {4, 5, 6} or, with force=True, at least 2."""
    if integer(q, "interval count", IngestError, 2) not in ALLOWED_INTERVALS and not force:
        raise IngestError("interval count %d not in %s (use force to override)"
                          % (q, list(ALLOWED_INTERVALS)))


def fit_quantization(ds: Dataset, q: int = 5, force: bool = False) -> QuantizationSpec:
    """Fit `q` equal-width bins on each numeric column (train data only).

    `q` is an interval count in {4, 5, 6}; pass force=True to allow other
    counts >= 2.
    """
    check_interval_count(q, force)
    columns = {}
    for c, name in enumerate(ds.names):
        if ds.domains[c] is not None:
            continue
        values = [row[c] for row in ds.rows]
        if not values:
            raise IngestError("column %r has no rows to fit on" % name)
        lo, hi = min(values), max(values)
        if lo == hi:
            raise IngestError("column %r is constant (%g); cannot quantize" % (name, lo))
        cuts = [lo + (hi - lo) * i / q for i in range(1, q)]
        columns[name] = ColumnBins.from_cuts(cuts)
    return QuantizationSpec(columns)


def quantize(ds: Dataset, spec: QuantizationSpec) -> Dataset:
    """Map numeric columns to interval indices using the fitted cut points.

    The spec must cover exactly the numeric columns. Columns already carrying
    the spec's interval labels pass through unchanged, so re-applying a spec
    is the identity.
    """
    missing = set(ds.numeric_columns) - set(spec.columns)
    if missing:
        raise IngestError("no bins for numeric columns %s" % sorted(missing))
    domains = list(ds.domains)
    binned = []  # (column index, bins) of each numeric column
    for name, bins in spec.columns.items():
        if name not in ds.names:
            raise IngestError("spec covers unknown column %r" % name)
        c = ds.names.index(name)
        if ds.domains[c] is not None:
            if ds.domains[c] != bins.labels:
                raise IngestError("column %r is categorical and does not match "
                                  "the spec's intervals" % name)
            continue
        domains[c] = bins.labels
        binned.append((c, bins))
    rows = []
    for row in ds.rows:
        cells = list(row)
        for c, bins in binned:
            cells[c] = bins.interval(cells[c])
        rows.append(tuple(cells))
    return replace(ds, domains=tuple(domains), rows=tuple(rows))


def check_split_fraction(fraction: float) -> None:
    """Raise unless `fraction` is a number (a bool is none) in (0, 1)."""
    if type(fraction) not in NUMBER or not 0.0 < fraction < 1.0:
        raise IngestError("split fraction must be in (0, 1), got %s" % reprlib.repr(fraction))


def split_indices(n: int, fraction: float = 0.8,
                  seed: int = 0) -> tuple[list[int], list[int]]:
    check_split_fraction(fraction)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    n_train = min(max(int(round(n * fraction)), 1), n - 1)
    return sorted(order[:n_train]), sorted(order[n_train:])


def split(ds: Dataset, fraction: float = 0.8, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Random train/test partition; exact, disjoint and deterministic under seed."""
    train_idx, test_idx = split_indices(ds.n_rows, fraction, seed)
    return ds.take(train_idx), ds.take(test_idx)


def fold_indices(n: int, k: int = 5, seed: int = 0) -> list[tuple[list[int], list[int]]]:
    if integer(k, "fold count", IngestError, 2) > n:
        raise IngestError("cannot make %d folds from %d rows" % (k, n))
    order = list(range(n))
    random.Random(seed).shuffle(order)
    base, extra = divmod(n, k)
    out, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test_idx = set(order[start:start + size])
        start += size
        out.append((sorted(set(order) - test_idx), sorted(test_idx)))
    return out


def folds(ds: Dataset, k: int = 5, seed: int = 0) -> list[tuple[Dataset, Dataset]]:
    """k cross-validation pairs; the k test chunks are disjoint and cover all rows."""
    return [(ds.take(train_idx), ds.take(test_idx))
            for train_idx, test_idx in fold_indices(ds.n_rows, k, seed)]
