"""Command-line surface: quantize, mine, cross-validate, explain, attribute, assess.

Every output file carries a run manifest (inputs hashed, seeds, limits,
versions); payload records are deterministic given the same inputs, so
re-running a manifest reproduces them byte for byte (the manifest's own
`created`/`timings` fields are the only volatile bytes).

Exit codes: 0 success, 1 usage, 2 input error (a malformed or unreadable
input file, or a bad flag value), 3 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__
from .core import (FeatureSpace, Instance, Kind, SpaceError, integer, json_field,
                   read_json, write_json)
from .explain import (ExplainError, attribute_rules, check_explanation,
                      enumerate_smallest, find_axp, reduce_explanation)
from .ingest import (Dataset, IngestError, check_interval_count,
                     check_split_fraction, fit_quantization, fold_indices,
                     load_csv, quantize, split_indices)
from .miner import (ExtractionLimit, MinerError, extract_all, load_knowledge,
                    rule_accuracy, save_rules)
from .models import ModelError, load_model
from .oracle import OracleError

EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3
SUBSETS_FORMAT = "kxp.subsets/1"

_INPUT_ERRORS = (IngestError, MinerError, ModelError, OracleError, ExplainError,
                 SpaceError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _manifest(command: str, args: argparse.Namespace, inputs: list,
              seeds: Optional[dict] = None, limits: Optional[dict] = None) -> dict:
    return {"format": "kxp.manifest/1",
            "version": __version__,
            "command": command,
            "argv": list(getattr(args, "_argv", [])),
            "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                       for p in inputs},
            "seeds": seeds or {},
            "limits": limits or {},
            "created": datetime.now(timezone.utc).isoformat(),
            "timings": {}}


def _load_csv(path, args) -> Dataset:
    """Load a CSV with the `--class-column` setting (`none`: no class)."""
    return load_csv(path, class_column=None if args.class_column == "none" else args.class_column)


def _load_categorical(path, args) -> Dataset:
    """`_load_csv`, rejecting numeric columns (they need `kxp quantize`)."""
    ds = _load_csv(path, args)
    if ds.numeric_columns:
        raise IngestError("%s: numeric columns %s present; run `kxp quantize` first"
                          % (path, list(ds.numeric_columns)))
    return ds


def _row_instance(model, ds: Dataset, index, source: str) -> Instance:
    """Row `index` of the dataset in the model's space; `source` names where
    the index came from (a flag or a file) for the error message."""
    integer(index, "%s: row index" % source, IngestError, 0, ds.n_rows)
    return model.space.instance_from_labels(ds.row_labels(index))


def _feature_indices(space: FeatureSpace, names: list, source: str) -> list[int]:
    """The sorted indices of the named features; `source` names where the
    names came from (a flag or a file's record) for the error message."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ExplainError("%s: feature %r named more than once" % (source, name))
    try:
        return sorted(space.feature_index(n) for n in names)
    except SpaceError as exc:
        raise ExplainError("%s: %s" % (source, exc)) from None


def _load_inputs(args):
    """The model, the dataset, the knowledge base rebound onto the model's
    space (None without `--knowledge`), and their paths for the manifest."""
    model = load_model(args.model)
    ds = _load_categorical(args.dataset, args)
    kb = load_knowledge(args.knowledge, model.space) if args.knowledge else None
    return model, ds, kb, [p for p in (args.model, args.dataset, args.knowledge) if p]


def _mining_limits(args) -> tuple[ExtractionLimit, dict]:
    """The extraction limit the mining flags set, and its manifest record."""
    record = {"max_size": args.max_size, "max_rules": args.max_rules,
              "time_budget": args.time_budget, "min_support": args.min_support}
    return ExtractionLimit(**record), record


# ---------------------------------------------------------------------------
# quantize

def cmd_quantize(args) -> int:
    ds = _load_csv(args.csv, args)
    spec = fit_quantization(ds, args.q, force=args.force)
    out_csv = args.out_prefix + ".csv"
    out_spec = args.out_prefix + ".qspec.json"
    t0 = time.perf_counter()
    quantized = quantize(ds, spec)
    quantized.write_csv(out_csv)
    manifest = _manifest("quantize", args, [args.csv],
                         limits={"q": args.q, "force": args.force})
    manifest["timings"]["wall"] = time.perf_counter() - t0
    obj = spec.to_obj()
    obj["manifest"] = manifest
    write_json(out_spec, obj)
    print("quantized %d rows, %d numeric columns -> %s (+ %s)"
          % (ds.n_rows, len(spec.columns), out_csv, out_spec))
    return EXIT_OK


# ---------------------------------------------------------------------------
# mine

def cmd_mine(args) -> int:
    ds = _load_categorical(args.dataset, args)
    limit, record = _mining_limits(args)
    manifest = _manifest("mine", args, [args.dataset], limits=record)
    t0 = time.perf_counter()
    if ds.n_rows == 0:
        manifest["timings"]["wall"] = time.perf_counter() - t0
        save_rules(args.out, FeatureSpace(()), [], truncated=False, manifest=manifest)
        print("empty dataset: wrote 0 rules -> %s" % args.out)
        return EXIT_OK
    kb = extract_all(ds, limit)
    manifest["timings"]["wall"] = time.perf_counter() - t0
    manifest["truncated"] = kb.truncated
    save_rules(args.out, ds.space, kb.rules, truncated=kb.truncated, manifest=manifest)
    print("mined %d rules%s -> %s"
          % (len(kb.rules), " [truncated]" if kb.truncated else "", args.out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# xval-rules

def cmd_xval_rules(args) -> int:
    ds = _load_csv(args.csv, args)
    check_interval_count(args.q, args.force)  # also on a table without numeric columns
    limit, record = _mining_limits(args)
    manifest = _manifest("xval-rules", args, [args.csv],
                         seeds={"fold_seed": args.seed},
                         limits={"k": args.k, "q": args.q, **record})
    t0 = time.perf_counter()
    per_fold = []
    for train_idx, test_idx in fold_indices(ds.n_rows, args.k, args.seed):
        train, test = ds.take(train_idx), ds.take(test_idx)
        if ds.numeric_columns:
            spec = fit_quantization(train, args.q, force=args.force)
            train, test = quantize(train, spec), quantize(test, spec)
        kb = extract_all(train, limit)
        sizes: dict[int, list[float]] = {}
        for rule in kb.rules:
            sizes.setdefault(rule.size, []).append(rule_accuracy(rule, test))
        per_fold.append({"truncated": kb.truncated, "sizes": sizes,
                         "n_rules": len(kb.rules)})
    wall = time.perf_counter() - t0

    def pooled(size=None):
        # the mean of the folds' mean accuracies, and the rules over all folds
        pools = [[a for s, accs in f["sizes"].items() for a in accs if size in (None, s)]
                 for f in per_fold]
        means = [sum(pool) / len(pool) for pool in pools if pool]
        return {"mean_accuracy": sum(means) / len(means) if means else None,
                "rules": sum(map(len, pools))}

    report_sizes = {str(s): pooled(s) for s in range(1, limit.max_size + 1)}
    overall = pooled()
    manifest["timings"]["wall"] = wall
    report = {"format": "kxp.xval/1", "manifest": manifest, "folds": args.k,
              "per_size": report_sizes, "all": overall,
              "truncated_folds": sum(1 for f in per_fold if f["truncated"])}
    write_json(args.out, report)

    columns = [("rule" + s, r) for s, r in report_sizes.items()] + [("rule_all", overall)]
    width = max(len(h) for h, _ in columns) + 2
    print("".join(h.rjust(width) for h, _ in columns))
    print("".join(("-" if r["mean_accuracy"] is None else "%.4f" % r["mean_accuracy"])
                  .rjust(width) for _, r in columns))
    return EXIT_OK


# ---------------------------------------------------------------------------
# explain

_WORKER: dict = {}


def _init_worker(model_obj, kb_obj, kind, n):
    # tasks pass no oracle: a process's rows share its thread's (kxp.explain)
    _WORKER.update(model=model_obj, kb=kb_obj, kind=kind, n=n)


def _run_row(task):
    """The records of one row, one per knowledge setting in the task's order
    (K-free first): a row's enumerations run in one process, so they share
    its oracle and certificate store."""
    index, values, settings = task
    model, kb, kind, n = _WORKER["model"], _WORKER["kb"], _WORKER["kind"], _WORKER["n"]
    inst = Instance(values)
    records = []
    for use_kb in settings:
        res = enumerate_smallest(kind, model, inst, knowledge=kb if use_kb else None, n=n)
        records.append({"type": "result", "index": index, "kind": kind.value,
                        "knowledge": use_kb,
                        "explanations": [{"features": e.feature_names(model.space),
                                          "size": e.size} for e in res.explanations],
                        "n_found": len(res.explanations), "exhausted": res.exhausted})
    return records


def cmd_explain(args) -> int:
    for flag, value in (("--enum", args.enum), ("--jobs", args.jobs)):
        integer(value, flag, ExplainError, 1)
    check_split_fraction(args.split_fraction)  # whatever --instances says
    model, ds, kb, inputs = _load_inputs(args)
    if args.compare and kb is None:
        raise ExplainError("--compare needs --knowledge")
    kind = Kind(args.kind)

    if args.instances == "all":
        indices = list(range(ds.n_rows))
    elif args.instances == "test":
        indices = split_indices(ds.n_rows, args.split_fraction, args.split_seed)[1]
    else:
        indices = []
        for token in [t.strip() for t in args.instances.split(",") if t.strip()]:
            try:  # only the plain decimal spelling: not 01, +1, 1_0 or other digits
                index = int(token)
                if str(index) != token:
                    raise ValueError
            except ValueError:
                raise IngestError("--instances: %r is not a row index" % token) from None
            if index in indices:
                raise IngestError("--instances: row %d named more than once" % index)
            indices.append(index)

    settings = (False,) if kb is None else (False, True) if args.compare else (True,)
    skipped = []
    tasks = []  # one per row, with all its settings
    for i in indices:
        try:
            inst = _row_instance(model, ds, i, "--instances")
        except SpaceError as exc:
            skipped.append({"type": "skipped", "index": i, "reason": str(exc)})
            continue
        if kb is not None and not kb.satisfied_by(inst):
            skipped.append({"type": "skipped", "index": i,
                            "reason": "instance violates the knowledge base"})
            continue
        tasks.append((i, inst.values, settings))

    manifest = _manifest("explain", args, inputs, seeds={"split_seed": args.split_seed},
                         limits={"kind": kind.value, "enum": args.enum,
                                 "instances": args.instances,
                                 "compare": args.compare, "jobs": args.jobs})
    t0 = time.perf_counter()
    workers = min(args.jobs, len(tasks))  # a pool may start every worker at once
    if workers > 1:
        # rows go out in chunks, by multiprocessing.Pool.map's default rule:
        # about four chunks per worker, not one round trip per row
        chunksize = -(-len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(model, kb, kind, args.enum)) as pool:
            rows = list(pool.map(_run_row, tasks, chunksize=chunksize))
    else:
        _init_worker(model, kb, kind, args.enum)
        rows = [_run_row(t) for t in tasks]
    records = [rec for row in rows for rec in row]
    manifest["timings"]["wall"] = time.perf_counter() - t0

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": "kxp.explanations/1", "manifest": manifest},
                            sort_keys=True) + "\n")
        for rec in skipped + records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    summary = _summarize_explanations(records, skipped, kind, args.compare)
    summary["format"] = "kxp.explain-summary/1"
    summary["manifest"] = manifest
    write_json(args.summary or args.out + ".summary.json", summary)
    if skipped:
        print("skipped %d knowledge-incompatible or untranslatable instances"
              % len(skipped), file=sys.stderr)
    for line in summary["text"]:
        print(line)
    return EXIT_OK


def _summarize_explanations(records, skipped, kind, compare) -> dict:
    def smallest_sizes(use_kb):
        return [r["explanations"][0]["size"] for r in records
                if r["knowledge"] == use_kb and r["explanations"]]

    def avg(xs):
        return sum(xs) / len(xs) if xs else None

    summary = {"kind": kind.value, "instances": len({r["index"] for r in records}),
               "skipped": len(skipped)}
    if compare:
        before, after = avg(smallest_sizes(False)), avg(smallest_sizes(True))
        summary["avg_smallest_size"] = {"without_knowledge": before,
                                        "with_knowledge": after}
        nan = float("nan")
        summary["text"] = ["average smallest %s size: %.3f without knowledge, %.3f with"
                           % (kind.value, nan if before is None else before,
                              nan if after is None else after)]
    else:
        sizes = smallest_sizes(any(r["knowledge"] for r in records))
        summary["avg_smallest_size"] = avg(sizes)
        summary["text"] = ["average smallest %s size over %d instances: %s"
                           % (kind.value, len(sizes),
                              "n/a" if not sizes else "%.3f" % avg(sizes))]
    return summary


# ---------------------------------------------------------------------------
# attribute

def cmd_attribute(args) -> int:
    model, ds, kb, inputs = _load_inputs(args)
    inst = _row_instance(model, ds, args.instance, "--instance")
    if not kb.satisfied_by(inst):  # a rules file's clauses each keep their rules
        clause = next(c for c in kb.clauses if not c.satisfied_by(inst))
        raise ExplainError("--instance: row %d breaks rule [%s] of %s: %s"
                           % (args.instance, ",".join(map(str, kb.provenance[clause])),
                              args.knowledge, kb.sources[clause][0].render(model.space)))
    if args.axp == "auto":
        features = sorted(find_axp(model, inst, knowledge=kb).features)
    else:
        names = [t.strip() for t in args.axp.split(",") if t.strip()]
        features = _feature_indices(model.space, names, "--axp")
    manifest = _manifest("attribute", args, inputs,
                         limits={"instance": args.instance, "axp": args.axp})
    t0 = time.perf_counter()
    used = attribute_rules(model, inst, kb, features)
    manifest["timings"]["wall"] = time.perf_counter() - t0
    rules_out = [{"ids": list(used.provenance[c]), "rule": used.sources[c][0].render(model.space)}
                 for c in used.clauses]
    report = {"format": "kxp.attribution/1", "manifest": manifest,
              "instance": args.instance,
              "axp": [model.space.names[f] for f in features],
              "rules": rules_out}
    write_json(args.out, report)
    print("AXp {%s} uses %d knowledge rule(s)"
          % (", ".join(report["axp"]), len(rules_out)))
    for r in rules_out:
        print("  [%s] %s" % (",".join(str(i) for i in r["ids"]), r["rule"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# assess

def _load_subsets(path) -> list[dict]:
    """The records of a subsets file, each with an `index` and a list of
    feature names; any other structure raises ExplainError naming the file."""
    doc = read_json(path, ExplainError)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != SUBSETS_FORMAT:
        raise ExplainError("%s: unrecognized subsets format %r" % (path, fmt))
    try:
        records = json_field(doc, "records", list)
        for i, rec in enumerate(records):
            where = "records[%d]" % i
            json_field(rec, "index", int, where)
            names = json_field(rec, "features", list, where)
            if not all(isinstance(n, str) for n in names):
                raise SpaceError("%s: field 'features': expected a list of strings" % where)
    except SpaceError as exc:
        raise ExplainError("%s: %s" % (path, exc)) from None
    return records


def cmd_assess(args) -> int:
    model, ds, kb, inputs = _load_inputs(args)
    kind = Kind(args.kind)
    records = _load_subsets(args.explanations)
    manifest = _manifest("assess", args, inputs + [args.explanations],
                         limits={"kind": kind.value})
    t0 = time.perf_counter()
    rows = []
    for i, rec in enumerate(records):
        index = rec["index"]
        features = _feature_indices(model.space, rec["features"],
                                    "%s: records[%d]" % (args.explanations, i))
        inst = _row_instance(model, ds, index, args.explanations)
        if kb is not None and not kb.satisfied_by(inst):
            rows.append({"index": index, "skipped": True})
            continue
        verdict = check_explanation(features, kind, model, inst)
        row = {"index": index, "features": rec["features"], "size": len(features),
               "correct_plain": verdict}
        if kb is not None:
            verdict = row["correct_with_knowledge"] = check_explanation(
                features, kind, model, inst, knowledge=kb)
        if verdict:
            reduced = reduce_explanation(features, kind, model, inst, knowledge=kb)
            row["reduced_size"] = reduced.size
        rows.append(row)
    manifest["timings"]["wall"] = time.perf_counter() - t0

    judged = [r for r in rows if not r.get("skipped")]
    def pct(key):
        vals = [r[key] for r in judged if key in r]
        return 100.0 * sum(vals) / len(vals) if vals else None
    report = {"format": "kxp.assess/1", "manifest": manifest, "kind": kind.value,
              "records": rows, "skipped": len(rows) - len(judged),
              "percent_correct_plain": pct("correct_plain"),
              "percent_correct_with_knowledge": pct("correct_with_knowledge")}
    write_json(args.out, report)
    print("assessed %d records: %.1f%% correct without knowledge%s"
          % (len(judged), report["percent_correct_plain"] or 0.0,
             "" if kb is None else ", %.1f%% with knowledge"
             % (report["percent_correct_with_knowledge"] or 0.0)))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="kxp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups that several subcommands share, declared once
    mining = argparse.ArgumentParser(add_help=False)
    mining.add_argument("--max-size", type=int, default=5)
    mining.add_argument("--min-support", type=int, default=1)
    mining.add_argument("--max-rules", type=int, default=None)
    mining.add_argument("--time-budget", type=float, default=None)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("model")
    inputs.add_argument("dataset")

    p = sub.add_parser("quantize", help="bin numeric CSV columns into intervals")
    p.add_argument("csv")
    p.add_argument("--q", type=int, default=5, help="intervals per column (4, 5 or 6)")
    p.add_argument("--force", action="store_true", help="allow other interval counts")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("mine", parents=[mining],
                       help="extract 100%%-consistent rules from a dataset")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("xval-rules", parents=[mining],
                       help="k-fold rule accuracy protocol")
    p.add_argument("csv")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_xval_rules)

    p = sub.add_parser("explain", parents=[inputs],
                       help="enumerate smallest explanations per instance")
    p.add_argument("--kind", choices=("axp", "cxp"), default="axp")
    p.add_argument("--knowledge", default=None, help="rules file to apply")
    p.add_argument("--enum", type=int, default=20, help="explanations per instance")
    p.add_argument("--instances", default="all", help="'all', 'test' or index list")
    p.add_argument("--split-fraction", type=float, default=0.8)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--compare", action="store_true",
                   help="run both with and without knowledge")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("attribute", parents=[inputs],
                       help="which knowledge rules an AXp relies on")
    p.add_argument("--instance", type=int, required=True)
    p.add_argument("--knowledge", required=True)
    p.add_argument("--axp", default="auto",
                   help="comma-separated feature names, or 'auto'")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("assess", parents=[inputs],
                       help="check and reduce external explanation files")
    p.add_argument("explanations", help="feature-subset file (kxp.subsets/1)")
    p.add_argument("--kind", choices=("axp", "cxp"), default="axp")
    p.add_argument("--knowledge", default=None)
    p.set_defaults(func=cmd_assess)

    for name, p in sub.choices.items():
        p.add_argument("--class-column", default="last")
        if name != "quantize":  # which writes to --out-prefix
            p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    args._argv = argv
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug in kxp, not bad input
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
