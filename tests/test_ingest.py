import random
import re

import pytest

from kxp import (Dataset, IngestError, QuantizationSpec, fit_quantization, folds,
                 load_csv, quantize, split)
from kxp.core import write_json
from kxp.ingest import ColumnBins, check_split_fraction, split_indices

from util import random_table


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_toy_table(toy_ds):
    assert toy_ds.n_rows == 6
    assert toy_ds.names == ("Education", "Status", "Occupation", "Relationship",
                            "Sex", "Hours/w")
    assert toy_ds.class_name == "Target"
    assert toy_ds.class_domain == (">=50k", "<50k")
    assert toy_ds.space.size() == 4 * 3 * 4 * 4 * 2 * 3
    assert toy_ds.class_labels == (0, 0, 0, 0, 1, 0)


def test_domains_first_appearance_order(toy_ds):
    assert toy_ds.space.domain(0) == ("HighSchool", "Bachelors", "Masters", "Dropout")
    assert toy_ds.space.domain(4) == ("Male", "Female")


def test_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "a,b\nx,y\nonly-one\n")
    with pytest.raises(IngestError, match="row 2"):
        load_csv(path)


def test_single_row_rejected(tmp_path):
    path = write(tmp_path, "a,b,c\nx,y,z\n")
    with pytest.raises(IngestError, match="domain of size 1"):
        load_csv(path)


def test_empty_cell_rejected(tmp_path):
    path = write(tmp_path, "a,b\nx,\nz,w\n")
    with pytest.raises(IngestError, match="empty cell"):
        load_csv(path)


def test_class_column_hints(tmp_path):
    path = write(tmp_path, "a,t,b\nx,yes,p\ny,no,q\nx,no,p\n")
    ds = load_csv(path, class_column="t")
    assert ds.class_name == "t" and ds.names == ("a", "b")
    ds2 = load_csv(path, class_column=None)
    assert ds2.class_name is None and ds2.names == ("a", "t", "b")
    with pytest.raises(IngestError):
        load_csv(path, class_column="missing")
    with pytest.raises(IngestError, match="class column 1 not in header"):
        load_csv(path, class_column=1)  # a column is chosen by name only


def test_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b,Y\nx,p,yes\ny,q,no\n")
    assert load_csv(path).names == ("a", "b")
    ds = load_csv(path, class_column="a")
    assert ds.class_name == "a" and ds.names == ("b", "Y")


@pytest.mark.parametrize("header, class_column", [("a,b,a", "a"), ("a,a,Y", "last")])
def test_repeated_column_name_rejected(tmp_path, header, class_column):
    path = write(tmp_path, header + "\nx,p,yes\ny,q,no\n")
    with pytest.raises(IngestError) as err:
        load_csv(path, class_column=class_column)
    assert str(err.value) == "%s: column 'a' appears twice in the header" % path


def test_numeric_detection_and_quantize(tmp_path):
    rows = "\n".join("%d,%s,lab%d" % (i, "g1" if i % 2 else "g2", i % 2)
                     for i in range(10))
    path = write(tmp_path, "num,cat,Y\n" + rows + "\n")
    ds = load_csv(path)
    assert ds.numeric_columns == ("num",)
    with pytest.raises(IngestError, match="quantize first"):
        ds.space
    spec = fit_quantization(ds, 4)
    q = quantize(ds, spec)
    assert q.numeric_columns == ()
    assert len(q.space.domain(0)) == 4
    # idempotent under the same spec
    assert quantize(q, spec) == q


@pytest.mark.parametrize("cells", [("1", "2", "NaN", "3"), ("nan", "1", "2", "3"),
                                   ("1", "inf", "2", "3"), ("-Infinity", "1", "2", "3")])
def test_non_finite_cells_keep_a_column_categorical(tmp_path, cells):
    rows = "".join("%s,c%d\n" % (cell, r % 2) for r, cell in enumerate(cells))
    ds = load_csv(write(tmp_path, "a,Y\n" + rows))
    assert ds.numeric_columns == ()
    assert ds.space.domain(0) == cells


def test_quantize_cut_semantics():
    bins = ColumnBins.from_cuts([40.0, 45.0])
    assert bins.labels == ("<=40", "(40,45]", ">45")
    assert bins.interval(40.0) == 0      # boundary goes to the lower interval
    assert bins.interval(40.5) == 1
    assert bins.interval(45.0) == 1
    assert bins.interval(45.01) == 2
    assert bins.interval(-100.0) == 0    # clamp below
    assert bins.interval(1e9) == 2       # clamp above


def test_equal_width_fit(tmp_path):
    path = write(tmp_path, "x,Y\n" + "\n".join("%d,c%d" % (v, v % 2)
                                               for v in range(0, 11)) + "\n")
    ds = load_csv(path)
    spec = fit_quantization(ds, 5)
    assert spec.columns["x"].cuts == (2.0, 4.0, 6.0, 8.0)


def test_constant_column_rejected(tmp_path):
    path = write(tmp_path, "x,Y\n3,a\n3,b\n3,a\n")
    ds = load_csv(path)
    with pytest.raises(IngestError, match="constant"):
        fit_quantization(ds, 4)


def test_interval_count_whitelist(tmp_path):
    path = write(tmp_path, "x,Y\n1,a\n2,b\n3,a\n")
    ds = load_csv(path)
    with pytest.raises(IngestError, match="not in"):
        fit_quantization(ds, 3)
    assert len(fit_quantization(ds, 3, force=True).columns["x"].labels) == 3


def test_interval_count_checked_without_numeric_columns(toy_ds):
    # the count is refused whether or not a column needs it
    assert not toy_ds.numeric_columns
    with pytest.raises(IngestError, match="interval count 3 not in"):
        fit_quantization(toy_ds, 3)
    with pytest.raises(IngestError, match=re.escape("interval count 1 out of range [2, inf)")):
        fit_quantization(toy_ds, 1, force=True)
    assert fit_quantization(toy_ds, 3, force=True).columns == {}


def test_quantize_spec_coverage_errors(tmp_path):
    path = write(tmp_path, "x,y,Y\n1,2,a\n2,4,b\n3,6,a\n")
    ds = load_csv(path)
    spec = fit_quantization(ds.take([0, 1, 2]), 4)
    partial = QuantizationSpec({"x": spec.columns["x"]})
    with pytest.raises(IngestError, match="no bins"):
        quantize(ds, partial)
    alien = QuantizationSpec({**spec.columns, "zz": spec.columns["x"]})
    with pytest.raises(IngestError, match="unknown column"):
        quantize(ds, alien)


def test_qspec_round_trip(tmp_path):
    spec = QuantizationSpec({"x": ColumnBins.from_cuts([1.0, 2.0, 3.0])})
    path = tmp_path / "spec.json"
    write_json(path, spec.to_obj())
    assert QuantizationSpec.load(path) == spec


def test_qspec_load_names_file_and_field(tmp_path):
    good = {"format": "kxp.qspec/1",
            "columns": {"x": {"cuts": [1.0, 2.0], "labels": ["a", "b", "c"]}}}
    bad = {
        "list": ([], "unrecognized quantization spec format None"),
        "no-columns": ({"format": "kxp.qspec/1"}, "missing field 'columns'"),
        "decreasing": ({**good, "columns": {"x": {"cuts": [2.0, 1.0],
                                                  "labels": ["a", "b", "c"]}}},
                       "columns['x']: cut points must be strictly increasing"),
        "no-labels": ({**good, "columns": {"x": {"cuts": [1.0]}}},
                      "columns['x']: missing field 'labels'"),
        "text-cut": ({**good, "columns": {"x": {"cuts": ["1"], "labels": ["a", "b"]}}},
                     "columns['x']: expected finite numbers as cuts"),
        "repeated-label": ({**good, "columns": {"x": {"cuts": [1.0, 2.0],
                                                      "labels": ["a", "b", "a"]}}},
                           "columns['x']: interval labels must be distinct"),
    }
    path = tmp_path / "good.json"
    write_json(path, good)
    assert QuantizationSpec.load(path).columns["x"].cuts == (1.0, 2.0)
    for name, (obj, message) in bad.items():
        path = tmp_path / (name + ".json")
        write_json(path, obj)
        with pytest.raises(IngestError) as err:
            QuantizationSpec.load(path)
        assert str(err.value).startswith("%s: %s" % (path, message)), name


def test_interval_labels_are_distinct():
    """Cuts print with %g's 6 significant digits unless that repeats one; then
    with the fewest more digits that tell them apart. A spec whose labels
    repeat is refused, naming the column."""
    assert ColumnBins.from_cuts([2e-7, 0.5, 1234567.0]).labels == \
        ("<=2e-07", "(2e-07,0.5]", "(0.5,1.23457e+06]", ">1.23457e+06")
    assert ColumnBins.from_cuts([1.0, 1.000001]).labels == \
        ("<=1", "(1,1.000001]", ">1.000001")
    close = [1.0, 1.0 + 2 ** -52, 1.0 + 2 ** -51]
    labels = ColumnBins.from_cuts(close).labels
    assert len(set(labels)) == 4 and labels[0] == "<=1"
    spec = {"format": "kxp.qspec/1",
            "columns": {"age": {"cuts": [1.0, 1.0000005, 1.000001],
                                "labels": ["<=1", "(1,1]", "(1,1]", ">1"]}}}
    with pytest.raises(IngestError, match=r"^columns\['age'\]: interval labels must be "
                                          r"distinct: \('<=1', '\(1,1\]', '\(1,1\]', '>1'\)"):
        QuantizationSpec.from_obj(spec)
    with pytest.raises(IngestError, match="interval labels must be distinct"):
        ColumnBins((1.0, 2.0), ("a", "b", "a"))


def test_split_basics(toy_ds):
    train, test = split(toy_ds, 0.8, seed=3)
    assert train.n_rows + test.n_rows == 6
    assert split(toy_ds, 0.8, seed=3) == (train, test)
    with pytest.raises(IngestError):
        split(toy_ds, 1.0)
    with pytest.raises(IngestError):
        split(toy_ds, 0.0)
    # a fraction that is not a number, a bool included, is named
    for bad, shown in (("0.5", "'0.5'"), (True, "True"), (None, "None")):
        for call in (lambda: check_split_fraction(bad), lambda: split(toy_ds, bad),
                     lambda: split_indices(6, bad)):
            with pytest.raises(IngestError, match=re.escape(
                    "split fraction must be in (0, 1), got " + shown)):
                call()


def test_split_eight_two(tmp_path):
    rows = "\n".join("r%d,c%d" % (i, i % 2) for i in range(10))
    ds = load_csv(write(tmp_path, "x,Y\n" + rows + "\n"))
    train, test = split(ds, 0.8, seed=0)
    assert (train.n_rows, test.n_rows) == (8, 2)


def test_folds_partition(tmp_path):
    rows = "\n".join("r%d,c%d" % (i, i % 2) for i in range(10))
    ds = load_csv(write(tmp_path, "x,Y\n" + rows + "\n"))
    pairs = folds(ds, k=5, seed=1)
    assert len(pairs) == 5
    seen = []
    for train, test in pairs:
        assert (train.n_rows, test.n_rows) == (8, 2)
        seen.extend(test.rows)
    assert sorted(seen) == sorted(ds.rows)
    assert folds(ds, k=5, seed=1) == pairs
    with pytest.raises(IngestError):
        folds(ds.take([0, 1, 2]), k=5)


def test_write_csv_round_trip(tmp_path, toy_ds):
    out = tmp_path / "round.csv"
    toy_ds.write_csv(out)
    again = load_csv(out)
    assert again == toy_ds


def test_write_csv_round_trips_raw_numeric_cells(tmp_path):
    path = write(tmp_path, "x,Y\n1234567.891,a\n-0.000123456789,b\n1e300,a\n")
    ds = load_csv(path)
    out = tmp_path / "round.csv"
    ds.write_csv(out)
    again = load_csv(out)
    assert again == ds
    assert [row[0] for row in again.rows] == [1234567.891, -0.000123456789, 1e300]


def test_dataset_invariants_are_checked():
    """Each check of `Dataset.__post_init__` raises `IngestError` naming the
    fault, and a numeric column has no row labels."""
    two = (("a", "b"), ("x", "y"))
    cases = [
        (dict(names=("p",), domains=two, rows=()), "column names and domains disagree"),
        (dict(names=("p", "q"), domains=two, rows=((0,),)), "row 0 has 1 cells, expected 2"),
        (dict(names=("p", "q"), domains=two, rows=((0, 1), (1, 2))),
         "row 1, column 'q': value index 2 out of range [0, 2)"),
        (dict(names=("p", "q"), domains=two, rows=((0, 1), (1, 0)), class_name="c",
              class_domain=("n", "y"), class_labels=(0,)),
         "class labels do not cover all rows"),
        (dict(names=("p", "q"), domains=two, rows=((0, 1), (1, 0)), class_name="c",
              class_domain=("n", "y"), class_labels=(0, 2)),
         "row 1: class label index 2 out of range [0, 2)"),
        # a label is a value index too: not a string, a bool or a float
        (dict(names=("p", "q"), domains=two, rows=((0, 1), (1, 0)), class_name="c",
              class_domain=("n", "y"), class_labels=(0, "y")),
         "row 1: class label index 'y' is not an integer"),
        (dict(names=("p", "q"), domains=two, rows=((0, 1), (1, 0)), class_name="c",
              class_domain=("n", "y"), class_labels=(True, 0)),
         "row 0: class label index True is not an integer"),
        (dict(names=("p", "q"), domains=two, rows=((0, 1), (1, 0)), class_name="c",
              class_domain=("n", "y"), class_labels=(0, 0.0)),
         "row 1: class label index 0.0 is not an integer"),
        # a bool is not a value index, though it is an int
        (dict(names=("p",), domains=(("a", "b"),), rows=((True,), (1,))),
         "row 0, column 'p': value index True is not an integer"),
        (dict(names=("p",), domains=(("a", "b"),), rows=((0,), (1,)), class_labels=(0, 1)),
         "class labels have no class domain"),
    ]
    for fields, message in cases:
        with pytest.raises(IngestError, match=re.escape(message)):
            Dataset(**fields)
    raw = Dataset(("p", "x"), (("a", "b"), None), ((0, 1.5), (1, 2.5)))
    with pytest.raises(IngestError, match="column 'x' is numeric; quantize first"):
        raw.row_labels(0)
    # a row index is an integer in [0, n_rows): no negative one, bool or float
    for bad, verdict in ((-1, "out of range [0, 2)"), (2, "out of range [0, 2)"),
                         (True, "is not an integer"), (1.0, "is not an integer")):
        message = re.escape("row index %r %s" % (bad, verdict))
        with pytest.raises(IngestError, match=message):
            raw.take([0, bad])
        with pytest.raises(IngestError, match=message):
            raw.row_labels(bad)


def test_instances_equal_the_space_built_ones():
    """`Dataset.instances` builds each row's instance directly, as
    `FeatureSpace.instance` would, on random tables of every shape."""
    rng = random.Random(2828)
    for _ in range(60):
        ds = random_table(rng, rng.randint(0, 30), n_classes=rng.choice((2, 3)),
                          duplicate=rng.random() < 0.3, constant=rng.random() < 0.3,
                          binary=rng.random() < 0.3)
        space = ds.space
        assert ds.instances() == [space.instance(row) for row in ds.rows]
    raw = Dataset(("p", "x"), (("a", "b"), None), ((0, 1.5), (1, 2.5)))
    with pytest.raises(IngestError, match="numeric; quantize first"):
        raw.instances()


def test_empty_file_and_empty_header_rejected(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(IngestError, match="empty file, expected a header row"):
        load_csv(path)
    path = write(tmp_path, "\n")
    with pytest.raises(IngestError, match="header row is empty"):
        load_csv(path)


def test_bin_and_fold_counts_are_checked(toy_ds):
    with pytest.raises(IngestError, match="expected 2 interval labels, got 1"):
        ColumnBins((1.0,), ("low",))
    with pytest.raises(IngestError, match=re.escape("fold count 1 out of range [2, inf)")):
        folds(toy_ds, k=1)
    # a count that is not an integer, a bool included, is an input error
    for bad in (2.0, True, "2"):
        with pytest.raises(IngestError, match=re.escape("fold count %r is not an integer"
                                                        % (bad,))):
            folds(toy_ds, k=bad)
    for bad, force in ((5.0, False), (4.0, True), (True, True)):
        with pytest.raises(IngestError, match=re.escape("interval count %r is not an integer"
                                                        % (bad,))):
            fit_quantization(toy_ds, bad, force=force)
    empty = Dataset(("x",), (None,), ())
    with pytest.raises(IngestError, match="column 'x' has no rows to fit on"):
        fit_quantization(empty, 4)


def test_quantize_rejects_a_categorical_column_the_spec_does_not_match():
    ds = Dataset(("x",), (("a", "b"),), ((0,), (1,)))
    spec = QuantizationSpec({"x": ColumnBins((1.0,), ("lo", "hi"))})
    with pytest.raises(IngestError, match="column 'x' is categorical and does not "
                       "match the spec's intervals"):
        quantize(ds, spec)
    labelled = Dataset(("x",), (("lo", "hi"),), ((0,), (1,)))
    assert quantize(labelled, spec) == labelled
