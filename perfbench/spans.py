"""In-memory span tracing around kxp's public calls.

The benchmark installs wrappers at run time; nothing under `src/` changes.
A span records its name, start, end, parent span and the request it belongs
to. Spans stay in memory and are written out as JSONL when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import kxp
import kxp.cli
import kxp.explain
import kxp.ingest
import kxp.miner
import kxp.models
import kxp.oracle

MODULES = (kxp, kxp.ingest, kxp.miner, kxp.models, kxp.oracle, kxp.explain,
           kxp.cli)

# span name -> (module holding the original, attribute); the wrapper replaces
# every binding of the original in MODULES, so calls through re-exports and
# `from .x import y` names are traced too.
FUNCTIONS = {
    "ingest.load_csv": (kxp.ingest, "load_csv"),
    "ingest.quantize": (kxp.ingest, "quantize"),
    "miner.extract_all": (kxp.miner, "extract_all"),
    "miner.save_rules": (kxp.miner, "save_rules"),
    "miner.load_knowledge": (kxp.miner, "load_knowledge"),
    "models.train_decision_list": (kxp.models, "train_decision_list"),
    "models.train_boosted": (kxp.models, "train_boosted"),
    "explain.minimum_hitting_set": (kxp.explain, "minimum_hitting_set"),
    "explain.enumerate_smallest": (kxp.explain, "enumerate_smallest"),
    "explain.attribute_rules": (kxp.explain, "attribute_rules"),
    "explain.check_explanation": (kxp.explain, "check_explanation"),
    "explain.reduce_explanation": (kxp.explain, "reduce_explanation"),
    "cli.main": (kxp.cli, "main"),
}
METHODS = {
    "oracle.build": (kxp.oracle.EntailmentOracle, "__init__"),
    "oracle.query": (kxp.oracle.EntailmentOracle, "query"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 at the top
    request: str
    note: object = None  # small per-call fact: query outcome, CLI command

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; `install` wraps the traced calls, `uninstall` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = ""
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def request(self, request_id: str):
        """Tag every span opened inside the block with one request id."""
        outer, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = outer

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self._request)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result
        return traced

    def install(self) -> None:
        for name, (home, attr) in FUNCTIONS.items():
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for mod in MODULES:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for name, (cls, attr) in METHODS.items():
            original = getattr(cls, attr)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "request": s.request,
                                     "note": s.note}) + "\n")


# span name -> fn(call args, result) giving the small fact kept on the span
NOTES = {
    "oracle.query": lambda args, res: res.entails,
    "miner.extract_all": lambda args, res: len(res.rules),
    "explain.enumerate_smallest": lambda args, res: [len(res.explanations),
                                                     res.exhausted],
    "explain.attribute_rules": lambda args, res: len(res),
    "cli.main": lambda args, res: args[0][0] if args and args[0] else "",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


EXPLAIN_CALLS = ("explain.enumerate_smallest", "explain.attribute_rules",
                 "explain.check_explanation", "explain.reduce_explanation")


def percentile(xs: list[float], p: int) -> float:
    """The p-th percentile by rank (nearest rank above); 0 when empty."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(p / 100 * len(xs)))]


def exact_counts(spans: list[Span]) -> dict:
    """The counts that must repeat exactly for the same inputs and code."""
    return {
        "oracle.queries": sum(s.name == "oracle.query" for s in spans),
        "explain.mhs_calls": sum(s.name == "explain.minimum_hitting_set" for s in spans),
        "explain.emitted": sum(s.note[0] for s in spans
                               if s.name == "explain.enumerate_smallest"),
        "miner.rules": sum(s.note for s in spans if s.name == "miner.extract_all"
                           and not s.request.endswith("/budget")),
    }


def layer_metrics(all_spans: list[Span], keep, round_s: float) -> dict:
    """Per-layer metrics over the spans for which `keep(span)` holds.

    Self times and call ownership are worked out on the whole span list,
    since a kept span's parent may sit anywhere in it.
    """
    selfs = self_times(all_spans)
    # nearest explain-API span at or above each span
    owners: list[Optional[str]] = []
    for s in all_spans:
        inherited = owners[s.parent] if s.parent >= 0 else None
        owners.append(s.name if s.name in EXPLAIN_CALLS else inherited)
    kept = [i for i, s in enumerate(all_spans) if keep(s)]
    spans = [all_spans[i] for i in kept]
    owner = [owners[i] for i in kept]

    def total(name, where=lambda s: True):
        return sum(s.duration for s in spans if s.name == name and where(s))

    def count(name, under=None):
        return sum(1 for s, o in zip(spans, owner) if s.name == name
                   and (under is None or o in under))

    queries = [s for s in spans if s.name == "oracle.query"]
    query_us = [s.duration * 1e6 for s in queries]
    enums = [s for s in spans if s.name == "explain.enumerate_smallest"]
    counts = exact_counts(spans)
    enum_queries = count("oracle.query", ("explain.enumerate_smallest",))
    audit = ("explain.check_explanation", "explain.reduce_explanation")
    cli = {}
    for s in spans:
        if s.name == "cli.main":
            cli[s.note] = cli.get(s.note, 0.0) + s.duration
    not_budget = lambda s: not s.request.endswith("/budget")
    return {
        "ingest.load_csv_s": (total("ingest.load_csv"), "s"),
        "ingest.quantize_s": (total("ingest.quantize"), "s"),
        "miner.extract_s": (total("miner.extract_all", not_budget), "s"),
        "miner.rules": (counts["miner.rules"], "count"),
        "miner.rules_io_s": (total("miner.save_rules") + total("miner.load_knowledge"), "s"),
        "miner.budget_rules": (sum(s.note for s in spans if s.name == "miner.extract_all"
                                   and not not_budget(s)), "count"),
        "models.train_dl_s": (total("models.train_decision_list"), "s"),
        "models.train_bt_s": (total("models.train_boosted"), "s"),
        "oracle.queries": (counts["oracle.queries"], "count"),
        "oracle.entails_ratio": (sum(bool(s.note) for s in queries) / len(queries)
                                 if queries else 0.0, "ratio"),
        "oracle.query_s": (sum(s.duration for s in queries), "s"),
        "oracle.query_us.p50": (percentile(query_us, 50), "us"),
        "oracle.query_us.p99": (percentile(query_us, 99), "us"),
        "oracle.builds": (count("oracle.build"), "count"),
        "oracle.build_s": (total("oracle.build"), "s"),
        "explain.mhs_calls": (counts["explain.mhs_calls"], "count"),
        "explain.mhs_s": (total("explain.minimum_hitting_set"), "s"),
        "explain.self_s": (sum(selfs[i] for i in kept
                               if all_spans[i].name in EXPLAIN_CALLS), "s"),
        "explain.emitted": (counts["explain.emitted"], "count"),
        "explain.yield": (counts["explain.emitted"] / enum_queries
                          if enum_queries else 0.0, "ratio"),
        "explain.exhausted_ratio": (sum(bool(s.note[1]) for s in enums) / len(enums)
                                    if enums else 0.0, "ratio"),
        "explain.attr_queries": (count("oracle.query", ("explain.attribute_rules",)), "count"),
        "explain.attr_builds": (count("oracle.build", ("explain.attribute_rules",)), "count"),
        "explain.attr_kept": (sum(s.note for s in spans
                                  if s.name == "explain.attribute_rules"), "count"),
        "explain.audit_queries": (count("oracle.query", audit), "count"),
        "cli.explain_s": (cli.get("explain", 0.0), "s"),
        "cli.attribute_s": (cli.get("attribute", 0.0), "s"),
        "cli.assess_s": (cli.get("assess", 0.0), "s"),
        "trace.round_s": (round_s, "s"),
    }
