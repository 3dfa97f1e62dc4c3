import csv
import json
import random
from pathlib import Path

import pytest

from kxp.cli import main

from util import planted_dataset

DATA = Path(__file__).parent.parent / "data"
TOY = str(DATA / "adult_toy.csv")
DL = str(DATA / "adult_toy_dl.json")
BT = str(DATA / "adult_toy_bt.json")
SMALL = str(DATA / "adult_small_dl.json")


def read_jsonl(path):
    return [json.loads(l) for l in Path(path).read_text().splitlines() if l.strip()]


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items()
                if k not in ("created", "timings")}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def numeric_csv(tmp_path, n=40):
    path = tmp_path / "numeric.csv"
    rows = ["num,cat,Y"]
    for i in range(n):
        rows.append("%f,%s,%s" % (i * 1.5, "ab"[i % 2], "yn"[(i // 2) % 2]))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_usage_errors_exit_1():
    assert main([]) == 1
    assert main(["mine"]) == 1
    assert main(["explain", DL, TOY, "--kind", "bogus", "--out", "x"]) == 1


def test_missing_file_exits_2(tmp_path):
    out = str(tmp_path / "r.jsonl")
    assert main(["mine", str(tmp_path / "nope.csv"), "--out", out]) == 2


def test_internal_invariant_exits_3(monkeypatch, tmp_path):
    import kxp.cli as cli

    def boom(args):
        raise AssertionError("invariant violated")

    monkeypatch.setattr(cli, "cmd_mine", boom)
    parser = cli.build_parser()
    args = parser.parse_args(["mine", TOY, "--out", str(tmp_path / "r.jsonl")])
    args.func = boom
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    monkeypatch.setattr(parser, "parse_args", lambda argv: args)
    assert main(["mine", TOY, "--out", str(tmp_path / "r.jsonl")]) == 3


def test_mine_ignores_jobs_environment(monkeypatch, tmp_path):
    # --jobs has no environment default, so no variable can break parsing
    monkeypatch.setenv("KXP_JOBS", "x")
    assert main(["mine", TOY, "--max-size", "1", "--out",
                 str(tmp_path / "r.jsonl")]) == 0


def test_quantize_roundtrip(tmp_path):
    csv = numeric_csv(tmp_path)
    prefix = str(tmp_path / "quant")
    assert main(["quantize", csv, "--q", "6", "--out-prefix", prefix]) == 0
    spec = json.loads(Path(prefix + ".qspec.json").read_text())
    assert spec["format"] == "kxp.qspec/1"
    assert len(spec["columns"]["num"]["labels"]) == 6
    assert spec["manifest"]["command"] == "quantize"
    assert main(["quantize", csv, "--q", "3", "--out-prefix", prefix]) == 2
    assert main(["quantize", csv, "--q", "3", "--force",
                 "--out-prefix", prefix]) == 0


def test_quantize_labels_tell_close_cuts_apart(tmp_path):
    # at %g's 6 digits three of these intervals would all read (1,1]
    table = tmp_path / "close.csv"
    table.write_text("a,Y\n" + "".join("%s,%s\n" % (x, y) for x, y in [
        ("1.0", "p"), ("1.000001", "q"), ("1.0000005", "p"), ("1.0000002", "q"),
        ("1.0000008", "p")]))
    prefix = str(tmp_path / "quant")
    assert main(["quantize", str(table), "--q", "5", "--out-prefix", prefix]) == 0
    labels = json.loads(Path(prefix + ".qspec.json").read_text())["columns"]["a"]["labels"]
    assert labels == ["<=1.0000002", "(1.0000002,1.0000004]", "(1.0000004,1.0000006]",
                      "(1.0000006,1.0000008]", ">1.0000008"]
    rows = list(csv.reader(Path(prefix + ".csv").read_text().splitlines()))
    assert [row[0] for row in rows] == ["a", labels[0], labels[4], labels[2],
                                        labels[0], labels[3]]


def test_quantize_checks_interval_count_without_numeric_columns(tmp_path, capsys):
    prefix = tmp_path / "ident"
    assert main(["quantize", TOY, "--q", "3", "--out-prefix", str(prefix)]) == 2
    assert "interval count 3 not in [4, 5, 6]" in capsys.readouterr().err
    assert main(["quantize", TOY, "--q", "1", "--force",
                 "--out-prefix", str(prefix)]) == 2
    assert "interval count 1 out of range [2, inf)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_xval_rules_checks_interval_count_without_numeric_columns(tmp_path, capsys):
    out = tmp_path / "xval.json"
    common = ["xval-rules", TOY, "--k", "2", "--max-size", "1", "--out", str(out)]
    assert main(common + ["--q", "3"]) == 2
    assert "interval count 3 not in [4, 5, 6]" in capsys.readouterr().err
    assert main(common + ["--q", "1", "--force"]) == 2
    assert "interval count 1 out of range [2, inf)" in capsys.readouterr().err
    assert not out.exists()
    assert main(common + ["--q", "3", "--force"]) == 0
    assert json.loads(out.read_text())["manifest"]["limits"]["q"] == 3


@pytest.mark.parametrize("cell", ["NaN", "inf"])
@pytest.mark.parametrize("row", [0, 2])
def test_quantize_keeps_non_finite_columns_categorical(tmp_path, cell, row):
    cells = ["1", "2", "3", "4"]
    cells[row] = cell
    csv = tmp_path / "odd.csv"
    csv.write_text("a,b,Y\n" + "".join("%s,%d,c%d\n" % (x, 10 * r, r % 2)
                                       for r, x in enumerate(cells)))
    prefix = str(tmp_path / "quant")
    assert main(["quantize", str(csv), "--q", "4", "--out-prefix", prefix]) == 0
    spec = json.loads(Path(prefix + ".qspec.json").read_text())
    assert list(spec["columns"]) == ["b"]
    out = Path(prefix + ".csv").read_text().splitlines()
    assert [line.split(",")[0] for line in out] == ["a"] + cells


def test_quantize_categorical_identity(tmp_path):
    prefix = str(tmp_path / "ident")
    assert main(["quantize", TOY, "--q", "5", "--out-prefix", prefix]) == 0
    spec = json.loads(Path(prefix + ".qspec.json").read_text())
    assert spec["columns"] == {}
    assert Path(prefix + ".csv").read_text() == Path(TOY).read_text()


def test_mine_writes_lattice_rules(tmp_path):
    out = str(tmp_path / "rules.jsonl")
    assert main(["mine", TOY, "--max-size", "2", "--out", out]) == 0
    lines = read_jsonl(out)
    assert lines[0]["format"] == "kxp.rules/1"
    assert lines[0]["engine"] == "lattice"
    husband = [l for l in lines[1:]
               if l["then"] == {"feature": "Status", "op": "==", "value": "Married"}
               and l["if"] == [{"feature": "Relationship", "op": "==",
                                "value": "Husband"}]]
    assert husband


def test_non_utf8_csv_names_the_file(tmp_path, capsys):
    csv = tmp_path / "latin1.csv"
    csv.write_bytes(b"a,b,Y\nx,\xff,y\n")
    assert main(["mine", str(csv), "--out", str(tmp_path / "r.jsonl")]) == 2
    assert "error: %s: 'utf-8' codec can't decode byte 0xff" % csv \
        in capsys.readouterr().err


def test_mine_csv_headers_with_bom_or_repeated_name(tmp_path, capsys):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbfa,b,Y\nx,p,yes\ny,q,no\n")
    out = tmp_path / "r.jsonl"
    assert main(["mine", str(bom), "--class-column", "a", "--out", str(out)]) == 0
    assert [f["name"] for f in read_jsonl(out)[0]["features"]] == ["b", "Y"]
    for header, class_column in (("a,b,a", "a"), ("a,a,Y", "last")):
        twice = tmp_path / "twice.csv"
        twice.write_text(header + "\nx,p,yes\ny,q,no\n")
        out = tmp_path / ("r-%s.jsonl" % header)
        assert main(["mine", str(twice), "--class-column", class_column,
                     "--out", str(out)]) == 2
        assert "error: %s: column 'a' appears twice" % twice in capsys.readouterr().err
        assert not out.exists()


def test_mine_empty_dataset(tmp_path):
    csv = tmp_path / "empty.csv"
    csv.write_text("a,b,Y\n")
    out = str(tmp_path / "rules.jsonl")
    assert main(["mine", str(csv), "--out", out]) == 0
    lines = read_jsonl(out)
    assert len(lines) == 1 and lines[0]["truncated"] is False


def test_mine_rejects_nonpositive_max_rules(tmp_path):
    out = tmp_path / "r.jsonl"
    assert main(["mine", TOY, "--max-rules", "0", "--out", str(out)]) == 2
    assert main(["mine", TOY, "--max-rules", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_mine_rejects_nan_or_negative_time_budget(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    for bad, shown in (("nan", "nan"), ("-1", "-1.0")):
        assert main(["mine", TOY, "--time-budget", bad, "--out", str(out)]) == 2
        assert "time budget must be >= 0 seconds, got %s" % shown \
            in capsys.readouterr().err
    assert not out.exists()


def test_mine_rejects_unquantized(tmp_path):
    assert main(["mine", numeric_csv(tmp_path), "--out",
                 str(tmp_path / "r.jsonl")]) == 2


def test_mine_reproducible_modulo_manifest(tmp_path):
    out = str(tmp_path / "rules.jsonl")
    argv = ["mine", TOY, "--max-size", "2", "--out", out]
    assert main(argv) == 0
    a = read_jsonl(out)
    assert main(argv) == 0
    b = read_jsonl(out)
    assert a[1:] == b[1:]
    assert strip_volatile(a[0]) == strip_volatile(b[0])


def test_xval_rules_report(tmp_path):
    out = str(tmp_path / "xval.json")
    assert main(["xval-rules", TOY, "--k", "3", "--max-size", "2",
                 "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["format"] == "kxp.xval/1"
    assert set(report["per_size"]) == {"1", "2"}
    assert report["all"]["rules"] > 0
    # seed 17 lands every duplicated row pattern in both chunks, so the
    # test side never leaves the training distribution: all rules exact
    out2 = str(tmp_path / "xval2.json")
    doubled = tmp_path / "doubled.csv"
    doubled.write_text(Path(TOY).read_text() +
                       "".join(Path(TOY).read_text().splitlines(True)[1:]))
    assert main(["xval-rules", str(doubled), "--k", "2", "--seed", "17",
                 "--max-size", "1", "--out", out2]) == 0
    report2 = json.loads(Path(out2).read_text())
    assert report2["all"]["mean_accuracy"] == 1.0


def test_explain_enumeration_and_formats(tmp_path):
    out = str(tmp_path / "expl.jsonl")
    assert main(["explain", DL, TOY, "--kind", "cxp", "--instances", "0",
                 "--enum", "20", "--out", out]) == 0
    lines = read_jsonl(out)
    assert lines[0]["format"] == "kxp.explanations/1"
    rec = lines[1]
    assert rec["n_found"] == 4 and rec["exhausted"]
    assert [e["features"] for e in rec["explanations"]] == \
        [["Education"], ["Status"], ["Occupation"], ["Relationship"]]
    summary = json.loads(Path(out + ".summary.json").read_text())
    assert summary["avg_smallest_size"] == 1.0


def test_explain_compare_and_skip(tmp_path, capsys):
    rules = str(tmp_path / "marital.jsonl")
    from kxp import Rule, load_csv
    from kxp.miner import save_rules
    ds = load_csv(TOY)
    sp = ds.space
    rule = Rule(frozenset({sp.literal("Sex", "Male"),
                           sp.literal("Relationship", "Not-in-family")}),
                sp.literal("Status", "Separated"), id=0, support=1,
                consistency=1.0)
    save_rules(rules, sp, [rule])
    out = str(tmp_path / "expl.jsonl")
    assert main(["explain", SMALL, TOY, "--compare", "--out", out]) == 2
    assert "error: --compare needs --knowledge" in capsys.readouterr().err
    assert main(["explain", SMALL, TOY, "--kind", "axp", "--instances", "all",
                 "--knowledge", rules, "--compare", "--enum", "1",
                 "--out", out]) == 0
    summary = json.loads(Path(out + ".summary.json").read_text())
    avg = summary["avg_smallest_size"]
    assert avg["with_knowledge"] <= avg["without_knowledge"]
    # a knowledge-violating instance, and one with a label the model's space
    # lacks, are skipped and logged, not fatal
    bad = tmp_path / "bad.csv"
    bad.write_text("Education,Status,Occupation,Relationship,Sex,Hours/w,Target\n"
                   "Dropout,Married,Service,Not-in-family,Male,<=40,<50k\n"
                   "Dropout,Separated,Service,Not-in-family,Male,<=40,<50k\n"
                   "HighSchool,Married,Sales,Husband,Female,40to45,>=50k\n"
                   "Masters,Widowed,Sales,Husband,Male,<=40,>=50k\n")
    out2 = str(tmp_path / "expl2.jsonl")
    assert main(["explain", SMALL, str(bad), "--kind", "axp",
                 "--knowledge", rules, "--instances", "all",
                 "--enum", "1", "--out", out2]) == 0
    lines = read_jsonl(out2)
    skipped = [l for l in lines if l.get("type") == "skipped"]
    assert skipped == [
        {"type": "skipped", "index": 0, "reason": "instance violates the knowledge base"},
        {"type": "skipped", "index": 3,
         "reason": "unknown value 'Widowed' for feature 'Status'"}]
    assert sorted({l["index"] for l in lines if l.get("type") == "result"}) == [1, 2]


def test_explain_compare_sizes_two_vs_three(tmp_path):
    # the two-rule DL walkthrough instance: smallest why-answer has 3 features
    # on its own and 2 once the marital constraint is supplied
    rules = str(tmp_path / "marital.jsonl")
    from kxp import Rule, load_csv
    from kxp.miner import save_rules
    sp = load_csv(TOY).space
    save_rules(rules, sp, [Rule(frozenset({sp.literal("Sex", "Male"),
                                           sp.literal("Relationship",
                                                      "Not-in-family")}),
                                sp.literal("Status", "Separated"), id=0)])
    out = str(tmp_path / "expl.jsonl")
    assert main(["explain", SMALL, TOY, "--kind", "axp", "--instances", "4",
                 "--knowledge", rules, "--compare", "--enum", "1",
                 "--out", out]) == 0
    recs = {r["knowledge"]: r for r in read_jsonl(out) if r.get("type") == "result"}
    assert recs[False]["explanations"][0]["size"] == 3
    assert recs[True]["explanations"][0]["size"] == 2


def test_explain_compare_summary_prints_zero_sizes(tmp_path, capsys):
    # a constant model's smallest why-answer is empty: size 0.0, not missing
    from kxp import load_csv
    from kxp.miner import save_rules
    from kxp.models import DecisionList, save_model
    sp = load_csv(TOY).space
    model = str(tmp_path / "const.json")
    save_model(DecisionList(sp, (">=50k", "<50k"), (), default=0), model)
    rules = str(tmp_path / "none.jsonl")
    save_rules(rules, sp, [])
    out = str(tmp_path / "expl.jsonl")
    assert main(["explain", model, TOY, "--kind", "axp", "--instances", "all",
                 "--knowledge", rules, "--compare", "--enum", "1",
                 "--out", out]) == 0
    summary = json.loads(Path(out + ".summary.json").read_text())
    assert summary["avg_smallest_size"] == {"without_knowledge": 0.0,
                                            "with_knowledge": 0.0}
    assert "average smallest axp size: 0.000 without knowledge, 0.000 with" \
        in capsys.readouterr().out


def test_explain_jobs_parallel_matches_serial(tmp_path):
    out1 = str(tmp_path / "serial.jsonl")
    out2 = str(tmp_path / "par.jsonl")
    assert main(["explain", DL, TOY, "--kind", "axp", "--instances", "all",
                 "--enum", "2", "--out", out1]) == 0
    assert main(["explain", DL, TOY, "--kind", "axp", "--instances", "all",
                 "--enum", "2", "--jobs", "2", "--out", out2]) == 0
    assert strip_volatile(read_jsonl(out1)[1:]) == strip_volatile(read_jsonl(out2)[1:])


def test_explain_jobs_start_no_more_workers_than_tasks(monkeypatch, tmp_path):
    """A task is one row with all its knowledge settings, so under --compare
    a row's two records come from one call. A pool gets at most one worker
    per row and takes the rows in chunks of ceil(rows / (4 * workers)); one
    row runs serially; the manifest keeps --jobs as given. The pool is a
    fake that runs the rows in this process, so no worker is started."""
    import kxp.cli as cli
    pools, calls = [], []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            self.workers = max_workers
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            pools.append((self.workers, chunksize))
            for task in tasks:
                calls.append(fn(task))
                yield calls[-1]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    rules = str(tmp_path / "rules.jsonl")
    assert main(["mine", TOY, "--max-size", "2", "--out", rules]) == 0
    # the toy's six rows repeated, so that 17 distinct row indices exist
    table = str(tmp_path / "toy17.csv")
    header, *body = Path(TOY).read_text().splitlines()
    Path(table).write_text("\n".join([header] + [body[i % 6] for i in range(17)]) + "\n")
    nine, seventeen = (",".join(map(str, range(n))) for n in (9, 17))
    for instances, jobs, pool in (("0,1", "64", [(2, 1)]), ("0", "64", []),
                                  (nine, "2", [(2, 2)]), (seventeen, "2", [(2, 3)]),
                                  (seventeen, "3", [(3, 2)])):
        argv = ["explain", DL, table, "--instances", instances, "--enum", "2",
                "--knowledge", rules, "--compare"]
        serial, out = str(tmp_path / "serial.jsonl"), str(tmp_path / "jobs.jsonl")
        assert main(argv + ["--out", serial]) == 0
        pools.clear()
        calls.clear()
        assert main(argv + ["--jobs", jobs, "--out", out]) == 0
        assert pools == pool
        records = read_jsonl(out)
        assert records[0]["manifest"]["limits"]["jobs"] == int(jobs)
        assert records[1:] == read_jsonl(serial)[1:]
        rows = [int(i) for i in instances.split(",")]
        assert len(records) == 1 + 2 * len(rows)
        if pool:
            assert [[(r["index"], r["knowledge"]) for r in call] for call in calls] \
                == [[(i, False), (i, True)] for i in rows]


def test_explain_jobs_2_writes_the_bytes_of_jobs_1(tmp_path):
    """`kxp explain --compare` writes byte-equal records and summary with
    --jobs 2 and --jobs 1 (only the manifest differs), over more rows than
    two workers take in one chunk each, with a knowledge-incompatible row
    among them reported as skipped."""
    from kxp.models import save_model, train_boosted
    ds = planted_dataset(random.Random(8), 200)
    header = ",".join(ds.names + (ds.class_name,))
    def line(row, y):
        return ",".join([ds.domains[f][v] for f, v in enumerate(row)] + [ds.class_domain[y]])
    table, model, rules = (str(tmp_path / name) for name in ("t.csv", "m.json", "k.jsonl"))
    Path(table).write_text("\n".join([header] + list(map(line, ds.rows, ds.class_labels))) + "\n")
    save_model(train_boosted(ds, rounds=6, depth=2), model)
    assert main(["mine", table, "--max-size", "2", "--out", rules]) == 0
    # row 7 breaks the planted dependency f0=v0 -> f1=v0, which is mined
    rows = list(zip(ds.rows[:19], ds.class_labels))
    rows[7] = ((0, 1) + ds.rows[7][2:], rows[7][1])
    Path(table).write_text("\n".join([header] + [line(*r) for r in rows]) + "\n")
    outputs = []
    for jobs in ("1", "2"):
        out, summary = str(tmp_path / "e.jsonl"), str(tmp_path / "s.json")
        assert main(["explain", model, table, "--kind", "axp", "--knowledge", rules,
                     "--compare", "--enum", "3", "--instances", "all", "--jobs", jobs,
                     "--summary", summary, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert json.loads(lines[0])["manifest"]["limits"]["jobs"] == int(jobs)
        doc = json.loads(Path(summary).read_text())
        del doc["manifest"]
        outputs.append((lines[1:], json.dumps(doc, indent=2, sort_keys=True)))
    assert outputs[0] == outputs[1]
    lines = outputs[0][0]
    assert json.loads(lines[0]) == {"type": "skipped", "index": 7,
                                    "reason": "instance violates the knowledge base"}
    assert [(r["index"], r["knowledge"]) for r in map(json.loads, lines[1:])] \
        == [(i, k) for i in range(19) if i != 7 for k in (False, True)]
    assert json.loads(outputs[0][1])["skipped"] == 1


def test_explain_records_do_not_depend_on_jobs_or_row_order(tmp_path):
    """`kxp explain` gives equal records, keyed by (index, knowledge), with
    --jobs 1, with --jobs 2 and with the --instances order reversed. A
    worker's oracle keeps its store from row to row, so an enumeration's
    oracle calls depend on the rows explained before it (here they differ
    for some records); the records hold nothing that does."""
    from kxp.models import save_model, train_boosted
    ds = planted_dataset(random.Random(5), 200)
    lines = [",".join(ds.names + (ds.class_name,))]
    lines += [",".join([ds.domains[f][v] for f, v in enumerate(row)] + [ds.class_domain[y]])
              for row, y in zip(ds.rows, ds.class_labels)]
    table, model, rules = (str(tmp_path / name) for name in ("t.csv", "m.json", "k.jsonl"))
    Path(table).write_text("\n".join(lines) + "\n")
    save_model(train_boosted(ds, rounds=6, depth=2), model)
    assert main(["mine", table, "--max-size", "2", "--out", rules]) == 0
    rows = [str(i) for i in range(12)]
    runs = []
    for instances, jobs in ((rows, "1"), (rows, "2"), (rows[::-1], "1")):
        out = str(tmp_path / "expl.jsonl")
        assert main(["explain", model, table, "--kind", "axp", "--knowledge", rules,
                     "--compare", "--enum", "4", "--instances", ",".join(instances),
                     "--jobs", jobs, "--out", out]) == 0
        runs.append({(r["index"], r["knowledge"]): r for r in read_jsonl(out)[1:]})
    assert len(runs[0]) == 24 and runs[0] == runs[1] == runs[2]


def test_explain_records_are_byte_stable(tmp_path):
    rules = str(tmp_path / "rules.jsonl")
    assert main(["mine", TOY, "--max-size", "2", "--out", rules]) == 0
    outs = [str(tmp_path / ("run%d.jsonl" % i)) for i in range(2)]
    for out in outs:
        assert main(["explain", DL, TOY, "--kind", "cxp", "--instances", "all",
                     "--enum", "3", "--knowledge", rules, "--compare",
                     "--out", out]) == 0
    a, b = (Path(out).read_text().splitlines()[1:] for out in outs)
    assert len(a) == 12 and a == b
    assert all("time" not in json.loads(line) and "calls" not in json.loads(line)
               for line in a)


def test_explain_test_selection(tmp_path):
    out = str(tmp_path / "expl.jsonl")
    assert main(["explain", DL, TOY, "--instances", "test",
                 "--split-fraction", "0.8", "--split-seed", "7",
                 "--enum", "1", "--out", out]) == 0
    recs = [l for l in read_jsonl(out) if l.get("type") == "result"]
    assert len(recs) == 1  # 6 rows, 0.8 split -> 1 test row


def test_attribute_cli(tmp_path):
    rules = str(tmp_path / "marital.jsonl")
    from kxp import Rule, load_csv
    from kxp.miner import save_rules
    ds = load_csv(TOY)
    sp = ds.space
    save_rules(rules, sp, [Rule(frozenset({sp.literal("Sex", "Male"),
                                           sp.literal("Relationship",
                                                      "Not-in-family")}),
                                sp.literal("Status", "Separated"), id=0)])
    out = str(tmp_path / "attr.json")
    assert main(["attribute", SMALL, TOY, "--instance", "4",
                 "--knowledge", rules, "--axp", "Relationship,Sex",
                 "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["axp"] == ["Relationship", "Sex"]
    assert len(report["rules"]) == 1 and report["rules"][0]["ids"] == [0]
    # the plain AXp needs no rules at all
    out2 = str(tmp_path / "attr2.json")
    assert main(["attribute", SMALL, TOY, "--instance", "4",
                 "--knowledge", rules, "--axp", "Status,Relationship,Sex",
                 "--out", out2]) == 0
    assert json.loads(Path(out2).read_text())["rules"] == []


def test_attribute_row_that_breaks_the_knowledge_exits_2(tmp_path, capsys):
    """Rules mined from some rows can break another row: `attribute` rejects
    it before any explanation, naming the flag, the rules file and the first
    broken rule by its ids and text, and writes nothing."""
    lines = Path(TOY).read_text().splitlines()
    part = tmp_path / "part.csv"
    part.write_text("\n".join([lines[0]] + [lines[1 + i] for i in (0, 2, 4, 5)]) + "\n")
    rules = str(tmp_path / "rules.jsonl")
    assert main(["mine", str(part), "--max-size", "1", "--out", rules]) == 0
    out = tmp_path / "attr.json"
    assert main(["attribute", DL, TOY, "--instance", "1", "--knowledge", rules,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--instance: row 1 breaks rule [0] of %s: IF Occupation = Sales THEN " \
        "Education = HighSchool" % rules in err
    assert not out.exists()


def test_assess_cli(tmp_path):
    subsets = tmp_path / "subsets.json"
    subsets.write_text(json.dumps({
        "format": "kxp.subsets/1",
        "records": [
            {"index": 0, "features": ["Education", "Status", "Occupation",
                                      "Relationship"]},
            {"index": 0, "features": ["Education", "Status", "Occupation",
                                      "Relationship", "Sex", "Hours/w"]},
            {"index": 0, "features": []},
        ]}))
    out = str(tmp_path / "assess.json")
    assert main(["assess", DL, TOY, str(subsets), "--kind", "axp",
                 "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    recs = report["records"]
    assert [r["correct_plain"] for r in recs] == [True, True, False]
    assert recs[0]["reduced_size"] == 4 and recs[1]["reduced_size"] == 4
    assert report["percent_correct_plain"] == pytest.approx(200 / 3)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "kxp.subsets/1",
                               "records": [{"index": 0,
                                            "features": ["NoSuch"]}]}))
    assert main(["assess", DL, TOY, str(bad), "--out",
                 str(tmp_path / "x.json")]) == 2


def test_assess_knowledge_can_only_help(tmp_path):
    rules = str(tmp_path / "marital.jsonl")
    from kxp import Rule, load_csv
    from kxp.miner import save_rules
    ds = load_csv(TOY)
    sp = ds.space
    save_rules(rules, sp, [Rule(frozenset({sp.literal("Sex", "Male"),
                                           sp.literal("Relationship",
                                                      "Not-in-family")}),
                                sp.literal("Status", "Separated"), id=0)])
    subsets = tmp_path / "subsets.json"
    subsets.write_text(json.dumps({
        "format": "kxp.subsets/1",
        "records": [{"index": 4, "features": ["Relationship", "Sex"]},
                    {"index": 4, "features": ["Status", "Relationship", "Sex"]}]}))
    out = str(tmp_path / "assess.json")
    assert main(["assess", SMALL, TOY, str(subsets), "--kind", "axp",
                 "--knowledge", rules, "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["percent_correct_with_knowledge"] \
        >= report["percent_correct_plain"]
    assert report["records"][0]["correct_plain"] is False
    assert report["records"][0]["correct_with_knowledge"] is True
    # a row that violates the knowledge is skipped, not judged
    bad = tmp_path / "bad.csv"
    bad.write_text("Education,Status,Occupation,Relationship,Sex,Hours/w,Target\n"
                   "Dropout,Married,Service,Not-in-family,Male,<=40,<50k\n"
                   "Dropout,Separated,Service,Not-in-family,Male,<=40,<50k\n"
                   "HighSchool,Married,Sales,Husband,Female,40to45,>=50k\n")
    subsets.write_text(json.dumps({
        "format": "kxp.subsets/1",
        "records": [{"index": 0, "features": ["Status"]},
                    {"index": 1, "features": ["Status", "Relationship", "Sex"]}]}))
    assert main(["assess", SMALL, str(bad), str(subsets), "--kind", "axp",
                 "--knowledge", rules, "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["records"][0] == {"index": 0, "skipped": True}
    assert report["skipped"] == 1 and "skipped" not in report["records"][1]


def test_one_oracle_per_command(builds, tmp_path):
    """Each command's rows share the thread's oracle, so each command
    builds one. Under `explain --compare` and `assess --knowledge` the first
    K-free row builds it over the empty base, and K's clauses enter it at
    the first row under K. The counts are the same for 3 rows and for 6."""
    rules = str(tmp_path / "rules.jsonl")
    assert main(["mine", TOY, "--max-size", "2", "--out", rules]) == 0
    for rows in (3, 6):
        subsets = tmp_path / "subsets.json"
        subsets.write_text(json.dumps({"format": "kxp.subsets/1", "records": [
            {"index": i, "features": ["Education", "Status", "Occupation",
                                      "Relationship", "Sex"]} for i in range(rows)]}))
        builds.clear()
        out = tmp_path / "expl.jsonl"
        assert main(["explain", DL, TOY, "--instances",
                     ",".join(map(str, range(rows))), "--knowledge", rules,
                     "--compare", "--enum", "3", "--out", str(out)]) == 0
        assert len([r for r in read_jsonl(out) if r.get("type") == "result"]) == 2 * rows
        assert len(builds) == 1
        builds.clear()
        out = tmp_path / "assess.json"
        assert main(["assess", DL, TOY, str(subsets), "--knowledge", rules,
                     "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert len(records) == rows and all("reduced_size" in r for r in records)
        assert len(builds) == 1
        builds.clear()
        out = tmp_path / "attribute.json"
        assert main(["attribute", DL, TOY, "--instance", str(rows - 1), "--knowledge",
                     rules, "--axp", "auto", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["axp"]
        assert len(builds) == 1


def test_bad_feature_names_name_their_source(tmp_path, capsys):
    rules = str(tmp_path / "rules.jsonl")
    assert main(["mine", TOY, "--max-size", "1", "--out", rules]) == 0
    subsets = tmp_path / "subsets.json"
    out = tmp_path / "out.json"
    for names, message in (
            (["Nope"], "unknown feature 'Nope'"),
            (["Relationship", "Sex", "Relationship"],
             "feature 'Relationship' named more than once")):
        subsets.write_text(json.dumps({"format": "kxp.subsets/1", "records": [
            {"index": 0, "features": ["Education"]},
            {"index": 1, "features": names}]}))
        assert main(["assess", DL, TOY, str(subsets), "--out", str(out)]) == 2
        assert "error: %s: records[1]: %s" % (subsets, message) \
            in capsys.readouterr().err
        assert main(["attribute", DL, TOY, "--instance", "0", "--knowledge", rules,
                     "--axp", ",".join(names), "--out", str(out)]) == 2
        assert "error: --axp: %s" % message in capsys.readouterr().err
        assert not out.exists()


def test_row_indices_outside_the_dataset_exit_2(tmp_path, capsys):
    rules = str(tmp_path / "rules.jsonl")
    assert main(["mine", TOY, "--max-size", "1", "--out", rules]) == 0
    for index in (-1, 6, 99):
        out = tmp_path / ("out%d.json" % index)
        assert main(["explain", DL, TOY, "--instances", "0,%d" % index,
                     "--out", str(out)]) == 2
        assert "--instances: row index %d" % index in capsys.readouterr().err
        assert main(["attribute", DL, TOY, "--instance", str(index),
                     "--knowledge", rules, "--out", str(out)]) == 2
        assert "--instance: row index %d" % index in capsys.readouterr().err
        subsets = tmp_path / "subsets.json"
        subsets.write_text(json.dumps({"format": "kxp.subsets/1", "records": [
            {"index": 0, "features": ["Education"]},
            {"index": index, "features": ["Education"]}]}))
        assert main(["assess", DL, TOY, str(subsets), "--out", str(out)]) == 2
        assert "%s: row index %d" % (subsets, index) in capsys.readouterr().err
        assert not out.exists()


def test_explain_non_integer_instances_exit_2(tmp_path, capsys):
    out = tmp_path / "expl.jsonl"
    for instances, message in (("0,abc", "'abc' is not a row index"),
                               ("0,1, 0", "--instances: row 0 named more than once"),
                               # only the plain decimal spelling of an index
                               ("1_0", "'1_0' is not a row index"),
                               ("01", "'01' is not a row index"),
                               ("+1", "'+1' is not a row index"),
                               ("\u0663", "'\u0663' is not a row index"),
                               ("-1", "--instances: row index -1 out of range [0, 6)")):
        assert main(["explain", DL, TOY, "--instances", instances, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_explain_rejects_enum_and_jobs_below_one(tmp_path, capsys):
    out = tmp_path / "expl.jsonl"
    for flag, value, message in (
            ("--enum", "0", "--enum 0 out of range [1, inf)"),
            ("--enum", "-1", "--enum -1 out of range [1, inf)"),
            ("--jobs", "0", "--jobs 0 out of range [1, inf)"),
            ("--jobs", "-3", "--jobs -3 out of range [1, inf)"),
            # checked although --instances names rows, not the test split
            ("--split-fraction", "7", "split fraction must be in (0, 1), got 7")):
        assert main(["explain", DL, TOY, "--instances", "0", flag, value,
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_assess_rejects_malformed_subsets_files(tmp_path, capsys):
    cases = [
        ({"format": "kxp.subsets/1",
          "records": [{"index": 0, "features": "Education"}]},
         "records[0]: field 'features': expected a list, got 'Education'"),
        ({"format": "kxp.subsets/1", "records": [{"index": 0}]},
         "records[0]: missing field 'features'"),
        ({"format": "kxp.subsets/1", "records": [{"features": []}]},
         "records[0]: missing field 'index'"),
        ({"format": "kxp.subsets/1", "records": [{"index": 0, "features": [3]}]},
         "records[0]: field 'features': expected a list of strings"),
        ({"format": "kxp.subsets/1", "records": [5]},
         "records[0]: expected an object, got 5"),
        ({"format": "kxp.subsets/1", "records": {}},
         "field 'records': expected a list, got {}"),
        ([{"index": 0, "features": []}], "unrecognized subsets format None"),
    ]
    out = tmp_path / "assess.json"
    for doc, message in cases:
        subsets = tmp_path / "subsets.json"
        subsets.write_text(json.dumps(doc))
        assert main(["assess", DL, TOY, str(subsets), "--out", str(out)]) == 2
        assert "error: %s: %s" % (subsets, message) in capsys.readouterr().err
    subsets.write_text("{not json")
    assert main(["assess", DL, TOY, str(subsets), "--out", str(out)]) == 2
    assert "%s: invalid JSON" % subsets in capsys.readouterr().err
    assert not out.exists()


def test_malformed_model_names_file_and_field(tmp_path, capsys):
    dl = json.loads(Path(DL).read_text())
    bt = json.loads(Path(BT).read_text())
    no_kind = {k: v for k, v in dl.items() if k != "kind"}
    bad_class = json.loads(json.dumps(dl))
    bad_class["rules"][1]["then"] = "rich"
    bad_op = json.loads(json.dumps(dl))
    bad_op["rules"][0]["if"][0]["op"] = "<"
    float_leaf = json.loads(json.dumps(bt))
    float_leaf["trees"][0][1] = {"leaf": 1.5}
    no_domain = json.loads(json.dumps(dl))
    del no_domain["features"][2]["domain"]
    number_value = json.loads(json.dumps(dl))
    number_value["rules"][0]["if"][0]["value"] = 0
    bool_feature = json.loads(json.dumps(dl))
    bool_feature["rules"][1]["if"][0]["feature"] = True
    bool_leaf = json.loads(json.dumps(bt))
    bool_leaf["trees"][0][0]["yes"]["no"] = {"leaf": True}
    cases = [
        (no_kind, "missing field 'kind'"),
        (bad_class, "rules[1]: unknown class 'rich'"),
        ({**dl, "rules": 5}, "field 'rules': expected a list, got 5"),
        (bad_op, "rules[0]: bad literal op '<'"),
        (float_leaf, "trees[0][1]: field 'leaf': expected an integer, got 1.5"),
        ({**bt, "trees": [7]}, "trees: expected a list of tree lists"),
        (no_domain, "features[2]: missing field 'domain'"),
        (number_value, "rules[0]: field 'value': expected a string, got 0"),
        (bool_feature, "rules[1]: field 'feature': expected a string, got True"),
        ({**bt, "scale": True}, "field 'scale': expected an integer, got True"),
        (bool_leaf, "trees[0][0].yes.no: field 'leaf': expected an integer, got True"),
        ([dl], "unrecognized model format None"),
        ({**dl, "classes": [">=50k", "<50k", "<50k"]},
         "classes[2]: repeated label '<50k'"),
        ({**bt, "classes": [1, [2]]}, "classes[0]: label 1 is not a string"),
        ({**bt, "classes": [">=50k", ["<50k"]]},
         "classes[1]: label ['<50k'] is not a string"),
    ]
    model = tmp_path / "model.json"
    for obj, message in cases:
        model.write_text(json.dumps(obj))
        assert main(["explain", str(model), TOY, "--out",
                     str(tmp_path / "o.jsonl")]) == 2
        assert "error: %s: %s" % (model, message) in capsys.readouterr().err


def test_malformed_rules_file_names_line(tmp_path, capsys):
    rules = tmp_path / "rules.jsonl"
    assert main(["mine", TOY, "--max-size", "1", "--out", str(rules)]) == 0
    header, first, *rest = rules.read_text().splitlines()
    status = lambda op, v: {"feature": "Status", "op": op, "value": v}
    sex = {"feature": "Sex", "op": "==", "value": "Male"}
    cases = [
        ([header, first, "{oops"], ":3: Expecting property name"),
        ([header, first, json.dumps({"if": [], "id": 9})], ":3: missing field 'then'"),
        # != literals that exclude Status's whole domain: validate_rule
        ([header, json.dumps({"if": [status("!=", v) for v in
                                     ("Married", "Separated", "Never-Married")],
                              "then": sex})],
         ":2: != literals exclude the whole domain"),
        ([header, "", json.dumps({"if": [status("==", "Single")], "then": sex})],
         ":3: unknown value 'Single'"),
        (['{"format": "kxp.rules/1"}'], ":1: missing field 'features'"),
        ([header, json.dumps({"if": [status("==", 0)], "then": sex})],
         ":2: if[0]: field 'value': expected a string, got 0"),
        ([header, json.dumps({"if": [], "then": {**sex, "feature": 4}})],
         ":2: then: field 'feature': expected a string, got 4"),
        ([], ":0: empty rules file"),
        (['{"format": "kxp.rules/2"}'], ":1: unrecognized rules format 'kxp.rules/2'"),
        ([json.dumps({**json.loads(header), "features": json.loads(header)["features"]
                      + [{"name": "Age", "domain": ["young", "old"]}]}),
          json.dumps({"if": [{"feature": "Age", "op": "==", "value": "old"}],
                      "then": sex})],
         ": unknown feature 'Age'"),
        ([json.dumps({**json.loads(header), "truncated": "no"}), first],
         ":1: field 'truncated': expected a boolean, got 'no'"),
        # the ids become provenance, so one names one rule
        ([header, first, json.dumps({**json.loads(rest[0]), "id": json.loads(first)["id"]})],
         ":3: field 'id': %d repeats an earlier rule's id" % json.loads(first)["id"]),
        ([header, json.dumps({**json.loads(first), "size": 2})],
         ":2: field 'size': 2 is not the antecedent's size 1"),
    ]
    # mining stats may be null, else typed: the ids become provenance
    for key, value, kind in [("id", {"a": 1}, "an integer"), ("id", "x", "an integer"),
                             ("id", True, "an integer"), ("size", 1.5, "an integer"),
                             ("support", 2.5, "an integer"),
                             ("support", False, "an integer"),
                             ("consistency", "high", "a number"),
                             ("consistency", True, "a number")]:
        cases.append(([header, json.dumps({**json.loads(first), key: value})],
                      ":2: field %r: expected %s, got %r" % (key, kind, value)))
    bad = tmp_path / "bad.jsonl"
    for lines, message in cases:
        bad.write_text("\n".join(lines) + "\n")
        assert main(["explain", DL, TOY, "--knowledge", str(bad), "--out",
                     str(tmp_path / "o.jsonl")]) == 2
        assert "error: %s%s" % (bad, message) in capsys.readouterr().err


def test_non_utf8_rules_file_names_the_line(tmp_path, capsys):
    rules = tmp_path / "rules.jsonl"
    assert main(["mine", TOY, "--max-size", "1", "--out", str(rules)]) == 0
    lines = rules.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"then", b"th\xffen")
    rules.write_bytes(b"".join(lines))
    assert main(["explain", DL, TOY, "--knowledge", str(rules), "--out",
                 str(tmp_path / "o.jsonl")]) == 2
    assert "error: %s:3: 'utf-8' codec can't decode byte 0xff" % rules \
        in capsys.readouterr().err


def test_internal_key_error_exits_3(monkeypatch, tmp_path, capsys):
    # a KeyError is a bug in kxp, not an input error
    import kxp.cli as cli

    def boom(args):
        raise KeyError("features")

    parser = cli.build_parser()
    args = parser.parse_args(["mine", TOY, "--out", str(tmp_path / "r.jsonl")])
    args.func = boom
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    monkeypatch.setattr(parser, "parse_args", lambda argv: args)
    assert main(["mine", TOY, "--out", str(tmp_path / "r.jsonl")]) == 3
    assert "internal error: KeyError: 'features'" in capsys.readouterr().err
