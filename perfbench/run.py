"""kxp benchmark: one seeded workload per run, or every workload in turn.

    python3 perfbench/run.py --workload explain-dl --seed 3 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 18

Run from the repository root; kxp is imported from ./src. A run sets up its
inputs from the seed, repeats the workload's fixed round until --seconds
have been measured, checks the first round's outputs, and prints a run
record line followed, as the last line, by the result:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones from a
traced run. METRICS.md defines every metric. `--workload all` runs each
workload untraced and traced in a child process and prints every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-runs"
DIGESTS = HERE / "digests.json"
NAMES = ("prepare", "explain-dl", "explain-bt", "cli")


def fail(message: str) -> None:
    print("perfbench: %s" % message, file=sys.stderr)
    raise SystemExit(2)


def import_kxp() -> None:
    if not (SRC / "kxp" / "__init__.py").is_file():
        fail("no kxp sources at %s; run from a checkout of the repository" % SRC)
    sys.path.insert(0, str(SRC))
    import kxp
    if Path(kxp.__file__).resolve().parent != (SRC / "kxp").resolve():
        fail("imported kxp from %s, not from %s" % (kxp.__file__, SRC))


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def files_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def output_digest(parts) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def per_operation(per_round: list[dict], reduce) -> dict:
    """Each operation's times over the rounds that repeated it, reduced to one."""
    return {kind: [reduce(xs) for xs in zip(*(r[kind] for r in per_round))]
            for kind in per_round[0]}


def summarize(spec: tuple) -> tuple[float, int]:
    """(value, sample count) of a named metric given as (unit, samples[, pct])."""
    from spans import percentile
    unit, xs = spec[0], spec[1]
    if not xs:
        return 0.0, 0
    if len(spec) == 3:
        value = percentile(xs, spec[2])
    else:
        value = statistics.median(xs)
    return value * (1000.0 if unit == "ms" else 1.0), len(xs)


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    import spans
    import workloads
    from spans import percentile
    from workloads import Checks, Meter, Recorder

    wl = workloads.WORKLOADS[name]
    work = OUT / ("work-%d" % os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if traced else None
    try:
        if tracer:
            tracer.install()
        try:
            with Meter(tracer) as meter:
                state, setup_times = wl.setup(str(seed), str(work), meter)
                rounds, per_round, walls, digests, round_counts = [], [], [], [], []
                first = None
                start = time.perf_counter()
                # stop before a round that would end past --seconds
                while not rounds or (time.perf_counter() - start
                                     + statistics.mean(rounds) <= seconds):
                    rec = Recorder(meter, "r%d/" % len(rounds))
                    t0 = time.perf_counter()
                    out = wl.round(state, rec)
                    rounds.append(time.perf_counter() - t0)
                    per_round.append(rec.samples)
                    walls.append(rec.wall)
                    digests.append(output_digest(out["digest"]))
                    round_counts.append(out["counts"])
                    if first is None:
                        first = out
        finally:
            if tracer:
                tracer.uninstall()

        # checked operations: round 0's, then one digest check per later
        # round and, for a recorded seed, one against the recorded digest
        checks = Checks()
        wl.check(state, first, checks)
        for k, d in enumerate(digests[1:], 1):
            checks.begin()
            checks.expect(d == digests[0], "round %d gave other outputs than round 0" % k)
        nondeterminism = [
            "round %d counts %s differ from round 0" % (k, c)
            for k, c in enumerate(round_counts[1:], 1) if c != round_counts[0]]
        if tracer:
            by_round = [spans.exact_counts([s for s in tracer.spans
                                            if s.request.startswith("r%d/" % k)])
                        for k in range(len(rounds))]
            nondeterminism += ["round %d traced counts %s differ from round 0" % (k, c)
                               for k, c in enumerate(by_round[1:], 1) if c != by_round[0]]
        recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed)) \
            if DIGESTS.is_file() else None
        digest_status = "unrecorded" if recorded is None else \
            "match" if recorded == digests[0] else "MISMATCH"
        if recorded is not None:
            checks.begin()
            checks.expect(recorded == digests[0],
                          "outputs differ from the digest recorded for seed %d" % seed)

        samples = per_operation(per_round, statistics.median)
        round_s = sum(sum(samples.get(kind, [])) for kind in wl.parts)
        wall = per_operation(walls, min)
        wall_round_s = sum(sum(wall.get(kind, [])) for kind in wl.parts)
        requests = samples[wl.request_kind] if wl.request_kind else [round_s]
        if tracer:
            keep = lambda s: s.request == "setup/0" or s.request.startswith("r0/")
            layers = spans.layer_metrics(tracer.spans, keep, rounds[0])
            layers["cli.records"] = (first["counts"].get("cli.records", 0), "count")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            counts = {k: layers[k][0] for k in spans.exact_counts([])}
            tracer.write_jsonl(OUT / ("spans-%s.jsonl" % name))
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
                "round_s": {"value": round_s, "unit": "s"},
                "request_ms.p50": {"value": 1000.0 * percentile(requests, 50), "unit": "ms"},
                "request_ms.p90": {"value": 1000.0 * percentile(requests, 90), "unit": "ms"},
            }
            counts = dict(first["counts"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    named = {}
    for metric, spec in wl.named(samples).items():
        value, n = summarize(spec)
        named[metric] = {"value": value, "unit": spec[0], "samples": n}
    named["setup_s"] = {"value": statistics.median(setup_times), "unit": "s",
                        "samples": len(setup_times)}
    if not traced:
        named["peak_rss_mb"] = dict(metrics["peak_rss_mb"], samples=1)
    named["fail_ratio"] = {"value": checks.failed / checks.attempted, "unit": "ratio",
                           "samples": checks.attempted}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(), "source": files_digest(SRC / "kxp"),
        "bench": files_digest(HERE),
        "rounds": len(rounds), "round_walls": rounds, "wall_round_s": wall_round_s,
        "parts_s": {kind: sum(samples.get(kind, [])) for kind in wl.parts},
        "wall_parts_s": {kind: sum(wall.get(kind, [])) for kind in wl.parts},
        "samples": {"setup_s": len(setup_times), "round_s": len(rounds),
                    "request_ms": len(requests)},
        "digest": digests[0], "digest_status": digest_status,
        "counts": counts, "named": named, "check_failures": checks.notes,
    }
    record["nondeterminism"] = nondeterminism + compare_with_log(record)
    for note in record["nondeterminism"]:
        print("perfbench: nondeterminism: %s" % note, file=sys.stderr)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return {"record": record,
            "result": {"correct": checks.failed == 0, "attempted": checks.attempted,
                       "failed": checks.failed, "metrics": metrics}}


def compare_with_log(record: dict) -> list[str]:
    """Exact counts must repeat across runs of the same sources and inputs."""
    path = OUT / "runs.jsonl"
    if not path.is_file():
        return []
    fields = ("source", "bench", "workload", "seed", "trace")
    key = tuple(record[f] for f in fields)
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            old = json.loads(line)
        except json.JSONDecodeError:
            continue
        if tuple(old.get(f) for f in fields) == key \
                and old.get("counts") != record["counts"]:
            out.append("counts %s differ from an earlier run's %s"
                       % (record["counts"], old.get("counts")))
            break
    return out


def run_all(seed: int, seconds: int) -> int:
    """Each workload untraced then traced, each in its own process."""
    status = 0
    for name in NAMES:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print("%s trace=%d failed (exit %d):\n%s"
                      % (name, trace, proc.returncode, proc.stderr), file=sys.stderr)
                status = 1
                break
            results[trace] = (json.loads(lines[-2])["run"], json.loads(lines[-1]))
        if len(results) < 2:
            continue
        (run0, res0), (run1, res1) = results[0], results[1]
        print("== %s  seed %d  correct %s  failed %d/%d  digest %s"
              % (name, seed, res0["correct"] and res1["correct"],
                 res0["failed"], res0["attempted"], run0["digest_status"]))
        for metric, m in {**res0["metrics"], **run0["named"]}.items():
            print("  %-22s %14.6g %-6s" % (metric, m["value"], m["unit"]))
        overhead = run1["wall_round_s"] / run0["wall_round_s"] - 1
        print("  %-22s %14.6g %-6s" % ("trace_overhead", overhead, "ratio"))
        for metric, m in res1["metrics"].items():
            print("  %-22s %14.6g %-6s" % (metric, m["value"], m["unit"]))
        status |= 0 if res0["correct"] and res1["correct"] else 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    import_kxp()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run": out["record"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
