"""The four benchmark workloads: set-up, one timed round, and output checks.

A workload's round is a fixed amount of work, so every round of a run gives
the same outputs and the same operation counts; run.py repeats rounds until
the run's time is used. Checks run outside the timed region, on the first
round's outputs. Each workload names its operations through `Recorder.op`,
which times them and, in a traced run, tags their spans with a request id.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import gen
from kxp import (EntailmentOracle, ExtractionLimit, Kind, KnowledgeBase,
                 fit_quantization, rule_to_clause)
from kxp import cli, explain, ingest, miner, models
from kxp.core import Rule

# Traced calls go through their modules (ingest.load_csv, not a name imported
# here), so that the wrappers a traced run installs see them.

# explain-dl, explain-bt and cli explain the W1 table of seed BASE_SEED (the
# ROADMAP's W1): the model and K come from it, and the run seed picks which
# slice rows are explained. Models trained or drawn per seed made the cost of
# explaining vary by a third from seed to seed, more than any bound allows.
BASE_SEED = "0"
SLICE_ROWS = 250
K_MAX_SIZE = 2
# set-up runs at least SETUPS times and until SETUP_SECONDS have passed;
# setup_s is the median of those runs
SETUPS = 3
SETUP_SECONDS = 2.0


# Speed probe: a fixed pure-Python loop timed before and after every timed
# operation, and every PROBE_EVERY seconds during it from a timer signal. On
# a shared machine, identical work ran up to 1.7x slower for a minute or more
# while other tenants were busy, and the probe slowed by the same factor.
# Each operation's time, less the probes run inside it, is scaled by
# PROBE_S / (the mean of its probes): it reads as wall time on a machine
# where the probe takes PROBE_S, about this loop's time on an idle core of
# a 2.1 GHz, 2-core machine. An operation that runs kxp's process pool gets
# no probes inside and is scaled by the mean of all of the run's probes.
PROBE_LOOPS = 8000
PROBE_S = 0.00085
PROBE_EVERY = 0.25


def probe() -> float:
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        d[i & 63] = d.get(i & 63, 0) + i
    return time.perf_counter() - t0


class Meter:
    """Times operations, probe-scaled; owns the probe timer and the tracer.

    Use as a context manager: the timer signal is armed inside the block.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._probes: list[float] = []  # every probe of the run
        self._last = 0.0
        self._inside: Optional[list[float]] = None
        self._handler = None

    def __enter__(self) -> "Meter":
        self._last = self._probe()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _tick(self, signum, frame) -> None:
        if self._inside is not None:
            self._inside.append(self._probe())

    def _probe(self) -> float:
        t = probe()
        self._probes.append(t)
        return t

    @contextlib.contextmanager
    def timed(self, out: list, pool: bool = False):
        """Append (wall time, probe-scaled time) of the block to `out`.

        With `pool`, the block runs kxp's process pool, whose workers keep
        every core busy; a probe inside it would slow because of kxp's own
        load. So no probe runs inside it, and its time is scaled by the mean
        of every probe the run has taken, which spans seconds on both cores:
        a few probes next to it would catch the speed of one core at one
        moment.
        """
        before = self._last
        self._inside = None if pool else []
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            inside, self._inside = self._inside or [], None
        self._last = self._probe()
        dt -= sum(inside)
        if pool:
            mean = statistics.mean(self._probes)
        else:
            mean = (before + self._last + sum(inside)) / (2 + len(inside))
        out.append((dt, dt * PROBE_S / mean))


class Recorder:
    """Times a round's operations by kind; tags spans when a tracer is on.

    Every round runs the same operations in the same order, so the k-th
    sample of a kind is the same operation in every round. `samples` holds
    probe-scaled times and `wall` the raw wall times.
    """

    def __init__(self, meter: Meter, prefix: str):
        self.meter = meter
        self.prefix = prefix
        self.samples: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def op(self, kind: str, request: str, pool: bool = False):
        tracer = self.meter.tracer
        out: list = []
        with tracer.request(self.prefix + request) if tracer else contextlib.nullcontext():
            with self.meter.timed(out, pool):
                yield
        self.wall.setdefault(kind, []).append(out[0][0])
        self.samples.setdefault(kind, []).append(out[0][1])


@dataclass
class Checks:
    """Checked operations, and how many of them failed a check.

    `begin` starts the checks of one operation; an operation fails once,
    however many of its checks fail.
    """

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    _current_failed: bool = False

    def begin(self) -> None:
        self.attempted += 1
        self._current_failed = False

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            if not self._current_failed:
                self.failed += 1
                self._current_failed = True
            if len(self.notes) < 20:
                self.notes.append(what)


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _load_w1(path: str):
    raw = ingest.load_csv(path)
    return ingest.quantize(raw, fit_quantization(raw, gen.W1_SIZES[gen.W1_NUMERIC]))


def _minimal_checks(checks: Checks, kind: Kind, features, model, inst, kb,
                    oracle, what: str) -> None:
    """The set satisfies the kind's condition and no one-smaller subset does."""
    fset = frozenset(features)
    checks.expect(explain.check_explanation(fset, kind, model, inst, knowledge=kb,
                                            oracle=oracle),
                  what + ": not an explanation")
    for f in sorted(fset):
        checks.expect(not explain.check_explanation(fset - {f}, kind, model, inst,
                                                    knowledge=kb, oracle=oracle),
                      what + ": not minimal without feature %d" % f)


def _timed_setups(make, meter: Meter) -> tuple[object, list[float]]:
    """Run set-up repeatedly; returns the last state and probe-scaled times."""
    rec = Recorder(meter, "setup/")
    runs = 0
    while runs < SETUPS or sum(rec.wall["setup"]) < SETUP_SECONDS:
        with rec.op("setup", str(runs)):
            state = make()
        runs += 1
    return state, rec.samples["setup"]


# ---------------------------------------------------------------------------
# prepare: CSV -> quantize -> mine (max size 3) -> rules file, trainers, and
# the miner's time budget on a uniform table

class Prepare:
    name = "prepare"
    # one op per call, so that each call gets its own probes and figure
    parts = ("load", "quantize", "extract", "rules_io", "train_dl", "train_bt",
             "budget")
    request_kind = None  # a request is the whole pipeline

    def setup(self, seed: str, work: str, meter: Meter):
        def make():
            path = os.path.join(work, "w1.csv")
            _write_csv(path, gen.w1_csv_rows(seed))
            return {"csv": path, "rules": os.path.join(work, "rules.jsonl"),
                    "uniform": gen.uniform_dataset(seed)}
        return _timed_setups(make, meter)

    def round(self, state: dict, rec: Recorder) -> dict:
        out = {}
        with rec.op("load", "mine"):
            raw = ingest.load_csv(state["csv"])
        with rec.op("quantize", "mine"):
            ds = ingest.quantize(raw, fit_quantization(raw, gen.W1_SIZES[gen.W1_NUMERIC]))
        with rec.op("extract", "mine"):
            kb = miner.extract_all(ds, ExtractionLimit(max_size=3))
        with rec.op("rules_io", "mine"):
            miner.save_rules(state["rules"], ds.space, kb.rules, truncated=kb.truncated)
            reloaded = miner.load_knowledge(state["rules"])
        with rec.op("train_dl", "train"):
            dl = models.train_decision_list(ds)
        with rec.op("train_bt", "train"):
            bt = models.train_boosted(ds, rounds=10, depth=2)
        with rec.op("budget", "budget"):
            budget = miner.extract_all(state["uniform"],
                                 ExtractionLimit(max_size=3, time_budget=0.2))
        with open(state["rules"], "rb") as fh:
            rules_bytes = fh.read()
        out.update(ds=ds, kb=kb, reloaded=reloaded, budget=budget,
                   digest=[rules_bytes.decode("utf-8"), models.model_to_obj(dl),
                           models.model_to_obj(bt)],
                   counts={"miner.rules": len(kb.rules)})
        return out

    def check(self, state: dict, out: dict, checks: Checks) -> None:
        ds, kb = out["ds"], out["kb"]
        insts = ds.instances()
        checks.begin()  # extract
        for rule in kb.rules:
            checks.expect(not any(rule.violated_by(v) for v in insts),
                          "rule %s is violated" % rule.render(ds.space))
        clauses = set(kb.clauses)
        for antecedent, consequent in gen.planted_rules(ds.space):
            clause = rule_to_clause(ds.space, Rule(antecedent, consequent))
            checks.expect(clause in clauses, "planted rule %s missing"
                          % Rule(antecedent, consequent).render(ds.space))
        checks.begin()  # rules_io
        checks.expect(out["reloaded"].clauses == kb.clauses,
                      "rules file does not load back to the mined clauses")
        checks.begin()  # budget
        uniform = state["uniform"].instances()
        for rule in out["budget"].rules:
            checks.expect(not any(rule.violated_by(v) for v in uniform),
                          "budget rule is violated")

    def named(self, samples) -> dict:
        def total(*kinds):
            return [sum(samples[k][0] for k in kinds)]
        return {"mine_s": ("s", total("load", "quantize", "extract", "rules_io")),
                "train_s": ("s", total("train_dl", "train_bt")),
                "budget_wall_s": ("s", samples["budget"])}


# ---------------------------------------------------------------------------
# explain-dl / explain-bt: enumerations per (instance, kind, with/without K)

@dataclass
class Problem:
    """A model and K over W1, and the slice rows a run explains."""

    model: object
    kb: KnowledgeBase
    slice: object
    rows: list[int]
    instances: list
    seed: str
    files: dict = field(default_factory=dict)


def _problem(seed: str, work: str, model_kind: str, n: int) -> Problem:
    path = os.path.join(work, "w1.csv")
    _write_csv(path, gen.w1_csv_rows(BASE_SEED))
    ds = _load_w1(path)
    sl = ds.take(range(SLICE_ROWS))
    kb = miner.extract_all(sl, ExtractionLimit(max_size=K_MAX_SIZE))
    insts = sl.instances()
    if model_kind == "dl":
        model = models.train_decision_list(ds)
        rules = model.rules
        cost = lambda v: next((j for j, r in enumerate(rules) if r.matches(v)), len(rules))
    else:
        model = gen.random_ensemble(ds.space, insts)
        cost = lambda v: model.group_score(0, v)
    # one row, drawn by the seed, from each of n strata of the slice ordered by
    # a cost proxy (the DL rule that fires, the BT score), so that every seed
    # explains the same mix of cheap and dear rows
    order = sorted(range(len(insts)), key=lambda i: (cost(insts[i]), i))
    rng = random.Random("rows:" + seed)
    rows = []
    for k in range(n):
        lo, hi = k * len(order) // n, (k + 1) * len(order) // n
        rows.append(order[lo + rng.randrange(hi - lo)])
    return Problem(model, kb, sl, rows, [insts[i] for i in rows], seed)


class Explain:
    parts = ("explain", "attribute", "audit")
    request_kind = "explain"

    def __init__(self, name: str, model_kind: str, instances: int, n: int,
                 audit: bool):
        self.name = name
        self.model_kind = model_kind
        self.instances = instances
        self.n = n
        self.audit = audit  # attribution and the external-subset audit

    def setup(self, seed: str, work: str, meter: Meter):
        return _timed_setups(
            lambda: _problem(seed, work, self.model_kind, self.instances), meter)

    def round(self, p: Problem, rec: Recorder) -> dict:
        results = [self._instance(p, i, v, rec)
                   for i, v in zip(p.rows, p.instances)]
        return {"results": results, "digest": [r["digest"] for r in results],
                "counts": {"explain.emitted": sum(
                    len(e.explanations) for r in results for e in r["enum"].values())}}

    def _instance(self, p: Problem, i: int, v, rec: Recorder) -> dict:
        rid = "i%d" % i
        enum = {}
        for kind in (Kind.AXP, Kind.CXP):
            for use_k in (False, True):
                with rec.op("explain", "%s/%s/%s" % (rid, kind.value, "k" if use_k else "-")):
                    enum[kind, use_k] = explain.enumerate_smallest(
                        kind, p.model, v, knowledge=p.kb if use_k else None, n=self.n)
        out = {"i": i, "v": v, "enum": enum, "attr": None, "audit": None}
        digest = [i] + [[kind.value, use_k, [sorted(e.features) for e in res.explanations],
                         res.exhausted] for (kind, use_k), res in enum.items()]
        if self.audit:
            free, assisted = enum[Kind.AXP, False], enum[Kind.AXP, True]
            # K was needed when the smallest K-assisted AXp beats every K-free one
            if assisted.explanations[0].size < free.explanations[0].size:
                axp = assisted.explanations[0].features
                with rec.op("attribute", rid + "/attribute"):
                    used = explain.attribute_rules(p.model, v, p.kb, axp)
                out["attr"] = (axp, used)
                digest.append(sorted(sorted((l.feature, l.negated, l.value)
                                            for l in c.literals)
                                     for c in used.clauses))
            base = free.explanations[0].features
            extra = [f for f in range(p.model.space.m) if f not in base]
            rng = random.Random("audit:%s/%d" % (p.seed, i))
            subset = base | {rng.choice(extra)} if extra else base
            with rec.op("audit", rid + "/audit"):
                ok = explain.check_explanation(subset, Kind.AXP, p.model, v, knowledge=p.kb)
                reduced = explain.reduce_explanation(
                    subset, Kind.AXP, p.model, v, knowledge=p.kb) if ok else None
            out["audit"] = (subset, ok, reduced)
            digest.append([sorted(subset), ok,
                           sorted(reduced.features) if reduced else None])
        out["digest"] = digest
        return out

    def check(self, p: Problem, out: dict, checks: Checks) -> None:
        oracles = {False: EntailmentOracle(p.model, None),
                   True: EntailmentOracle(p.model, p.kb)}
        for r in out["results"]:
            v = r["v"]
            for (kind, use_k), res in r["enum"].items():
                checks.begin()
                what = "row %d %s k=%s" % (r["i"], kind.value, use_k)
                sizes = [e.size for e in res.explanations]
                checks.expect(bool(sizes) and sizes == sorted(sizes),
                              what + ": nothing emitted, or sizes decrease")
                for e in res.explanations:
                    _minimal_checks(checks, kind, e.features, p.model, v,
                                    p.kb if use_k else None, oracles[use_k], what)
            if r["attr"] is not None:
                checks.begin()
                axp, used = r["attr"]
                _attribution_checks(checks, p, v, axp, used,
                                    "row %d attribution" % r["i"])
            if r["audit"] is not None:
                checks.begin()
                subset, ok, reduced = r["audit"]
                what = "row %d audit" % r["i"]
                checks.expect(ok, what + ": a K-free AXp plus one feature fails under K")
                if reduced is not None:
                    checks.expect(reduced.features <= subset, what + ": reduced grew")
                    _minimal_checks(checks, Kind.AXP, reduced.features, p.model,
                                    v, p.kb, oracles[True], what)

    def named(self, samples) -> dict:
        busy = samples["explain"]
        out = {"explain_ms.p50": ("ms", busy, 50),
               "explain_ms.p90": ("ms", busy, 90),
               "explain_per_s": ("1/s", [len(busy) / sum(busy)])}
        if self.audit:
            out.update({"attribute_ms.p50": ("ms", samples.get("attribute", []), 50),
                        "attribute_ms.p90": ("ms", samples.get("attribute", []), 90),
                        "audit_ms.p50": ("ms", samples["audit"], 50)})
        return out


def _attribution_checks(checks: Checks, p: Problem, v, axp, used: KnowledgeBase,
                        what: str) -> None:
    """The attributed clauses entail the AXp, and each of them is needed."""
    checks.expect(explain.check_explanation(axp, Kind.AXP, p.model, v, knowledge=used),
                  what + ": does not entail the AXp")
    for c in used.clauses:
        rest = used.subset(x for x in used.clauses if x != c)
        checks.expect(not explain.check_explanation(axp, Kind.AXP, p.model, v, knowledge=rest),
                      what + ": not minimal")


# ---------------------------------------------------------------------------
# cli: explain --compare --jobs 2, attribute, assess, on files made in set-up

CLI_JOBS = 2
CLI_FILES = ("model.json", "slice.csv", "rules.jsonl", "subsets.json",
             "explain.jsonl", "attribute.json", "assess.json")


def _smallest_axp(p: Problem, v, kb: Optional[KnowledgeBase]):
    return explain.enumerate_smallest(Kind.AXP, p.model, v, knowledge=kb, n=1).explanations[0]


class Cli:
    name = "cli"
    parts = ("explain", "attribute", "assess")
    request_kind = None  # a request is the three-command sequence

    def __init__(self, instances: int):
        self.instances = instances

    def setup(self, seed: str, work: str, meter: Meter):
        def make():
            p = _problem(seed, work, "dl", self.instances)
            self._write_inputs(p, work)
            return p
        return _timed_setups(make, meter)

    def _write_inputs(self, p: Problem, work: str) -> None:
        f = {name: os.path.join(work, name) for name in CLI_FILES}
        space = p.model.space
        models.save_model(p.model, f["model.json"])
        p.slice.write_csv(f["slice.csv"])
        miner.save_rules(f["rules.jsonl"], p.slice.space, p.kb.rules, truncated=p.kb.truncated)
        # the assessed subsets: each row's smallest K-free AXp plus one
        # seeded extra feature
        records = []
        rng = random.Random("subsets:" + p.seed)
        for i, v in zip(p.rows, p.instances):
            free = _smallest_axp(p, v, None)
            extra = [g for g in range(space.m) if g not in free.features]
            subset = free.features | {rng.choice(extra)} if extra else free.features
            records.append({"index": i, "features": [space.names[g] for g in sorted(subset)]})
        with open(f["subsets.json"], "w", encoding="utf-8") as fh:
            json.dump({"format": "kxp.subsets/1", "records": records}, fh)
        # attribution runs on the first slice row where K shrinks the smallest
        # AXp; the model and K do not depend on the seed, so neither does that
        # row nor the cost of finding it
        f["attribute_at"] = next(
            (i for i, v in enumerate(p.slice.instances())
             if _smallest_axp(p, v, p.kb).size < _smallest_axp(p, v, None).size), 0)
        p.files = f

    def round(self, p: Problem, rec: Recorder) -> dict:
        f = p.files
        common = [f["model.json"], f["slice.csv"]]
        argvs = [
            ["explain"] + common + [
                "--kind", "axp", "--enum", "20", "--knowledge", f["rules.jsonl"],
                "--compare", "--jobs", str(CLI_JOBS), "--instances",
                ",".join(map(str, p.rows)), "--out", f["explain.jsonl"]],
            ["attribute"] + common + [
                "--instance", str(f["attribute_at"]), "--knowledge",
                f["rules.jsonl"], "--out", f["attribute.json"]],
            ["assess"] + common + [
                f["subsets.json"], "--kind", "axp", "--knowledge",
                f["rules.jsonl"], "--out", f["assess.json"]],
        ]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                with rec.op(argv[0], argv[0], pool="--jobs" in argv):
                    codes.append(cli.main(argv))
        payloads = self._payloads(f)
        return {"codes": codes, "payloads": payloads,
                "digest": [codes, payloads["stripped"]],
                "counts": {"cli.records": len(payloads["records"])}}

    @staticmethod
    def _payloads(f: dict) -> dict:
        with open(f["explain.jsonl"], encoding="utf-8") as fh:
            lines = [json.loads(ln) for ln in fh]
        with open(f["explain.jsonl"] + ".summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        docs = {}
        for name in ("attribute.json", "assess.json"):
            with open(f[name], encoding="utf-8") as fh:
                docs[name] = json.load(fh)
        # volatile: the manifest, and per record the wall time and the oracle
        # call count (a faster oracle may need fewer calls for the same answer)
        stripped = [{k: v for k, v in r.items() if k not in ("time", "calls")}
                    for r in lines[1:]]
        for doc in [lines[0], summary] + list(docs.values()):
            stripped.append({k: v for k, v in doc.items() if k != "manifest"})
        return {"records": [r for r in lines[1:] if r.get("type") == "result"],
                "docs": docs, "stripped": stripped}

    def check(self, p: Problem, out: dict, checks: Checks) -> None:
        """One checked operation per command: its exit code and payload."""
        model, space, payloads = p.model, p.model.space, out["payloads"]
        codes = dict(zip(self.parts, out["codes"]))
        checks.begin()
        checks.expect(codes["explain"] == 0, "kxp explain exited %d" % codes["explain"])
        records = payloads["records"]
        checks.expect(len(records) == 2 * len(p.rows),
                      "explain wrote %d records" % len(records))
        oracles = {False: EntailmentOracle(model, None),
                   True: EntailmentOracle(model, p.kb)}
        by_row = dict(zip(p.rows, p.instances))
        for r in records:
            what = "cli row %d k=%s" % (r["index"], r["knowledge"])
            sizes = [e["size"] for e in r["explanations"]]
            checks.expect(bool(sizes) and sizes == sorted(sizes),
                          what + ": nothing emitted, or sizes decrease")
            for e in r["explanations"]:
                feats = [space.feature_index(n) for n in e["features"]]
                _minimal_checks(checks, Kind.AXP, feats, model, by_row[r["index"]],
                                p.kb if r["knowledge"] else None,
                                oracles[r["knowledge"]], what)
        checks.begin()
        checks.expect(codes["attribute"] == 0, "kxp attribute exited %d" % codes["attribute"])
        attr = payloads["docs"]["attribute.json"]
        ids = [tuple(r["ids"]) for r in attr["rules"]]
        used = p.kb.subset(c for c in p.kb.clauses if tuple(p.kb.provenance[c]) in ids)
        checks.expect(len(used) == len(ids), "cli attribution names unknown rules")
        _attribution_checks(checks, p, p.slice.instances()[attr["instance"]],
                            [space.feature_index(n) for n in attr["axp"]], used,
                            "cli attribution")
        checks.begin()
        checks.expect(codes["assess"] == 0, "kxp assess exited %d" % codes["assess"])
        for r in payloads["docs"]["assess.json"]["records"]:
            checks.expect(r.get("correct_with_knowledge") is True
                          and r.get("reduced_size", r["size"] + 1) <= r["size"],
                          "cli assess row %d" % r["index"])

    def named(self, samples) -> dict:
        return {"cli_s": ("s", [sum(samples[k][0] for k in self.parts)])}


WORKLOADS = {
    "prepare": Prepare(),
    "explain-dl": Explain("explain-dl", "dl", instances=96, n=20, audit=True),
    "explain-bt": Explain("explain-bt", "bt", instances=192, n=10, audit=False),
    "cli": Cli(instances=96),
}
