"""Record output digests of correct runs into perfbench/digests.json.

    python3 perfbench/record_digests.py

Reads the run log (.perfbench-runs/runs.jsonl) and takes the digest of every
correct run made on the current kxp sources; a later run's digest replaces
an earlier one made with other benchmark files. A run whose seed is
recorded must then reproduce that digest, so a change to a contract output
(rules file bytes, explanation sets and their order, attributions, CLI
payloads) fails the benchmark. Record only from a commit whose outputs are
trusted.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, OUT, SRC, files_digest


def main() -> int:
    source = files_digest(SRC / "kxp")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    seen = {}  # (benchmark files, workload, seed) -> digest
    for line in (OUT / "runs.jsonl").read_text(encoding="utf-8").splitlines():
        run = json.loads(line)
        if run["source"] != source or run["check_failures"] or run["nondeterminism"]:
            continue
        key = (run["bench"], run["workload"], run["seed"])
        if seen.setdefault(key, run["digest"]) != run["digest"]:
            print("%s seed %d: two runs of the same files gave digests %s and %s"
                  % (run["workload"], run["seed"], seen[key], run["digest"]),
                  file=sys.stderr)
            return 1
        table.setdefault(run["workload"], {})[str(run["seed"])] = run["digest"]
    table = {w: dict(sorted(s.items(), key=lambda kv: int(kv[0])))
             for w, s in sorted(table.items())}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    print("digests for %s" % {w: len(s) for w, s in table.items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
