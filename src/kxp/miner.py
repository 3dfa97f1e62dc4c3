"""Mining background rules that are 100% consistent with training data.

One level-wise pass over the antecedent lattice serves every target. The
subset-minimal antecedents of exact rules are the free itemsets (generators:
literal sets whose rows differ from every immediate subset's) whose rows all
carry the target value while no immediate subset's rows do (Bastide et al.,
CL 2000; Zaki, KDD 2000). So the pass keeps only free, supported nodes, built
from column bitsets computed once, and tests each node against the values of
one covered row. The rules are then replayed per target feature-value in
size-then-lexicographic order and blocked in clausal form, so that no clause
is ever emitted twice across targets.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (Clause, FeatureSpace, Instance, KnowledgeBase, Literal, Rule,
                   SpaceError, integer, json_field, number, rebind_knowledge,
                   rule_to_clause, space_from_obj, space_to_obj, validate_rule)
from .ingest import Dataset, row_bitsets

RULES_FORMAT = "kxp.rules/1"


class MinerError(ValueError):
    pass


@dataclass(frozen=True)
class ExtractionLimit:
    """Truncation knobs: antecedent size applies per rule, count/time globally.
    A count that breaks `integer` (counts are >= 1), or a time budget that is
    not a `number` >= 0, raises MinerError."""

    max_size: int = 5
    max_rules: Optional[int] = None
    time_budget: Optional[float] = None  # seconds over the whole extraction
    min_support: int = 1

    def __post_init__(self):
        for name, value in (("max antecedent size", self.max_size),
                            ("min support", self.min_support),
                            ("max rules", 1 if self.max_rules is None else self.max_rules)):
            integer(value, name, MinerError, 1)
        budget = self.time_budget
        if budget is not None and not (number(budget) and budget >= 0):
            raise MinerError("time budget must be >= 0 seconds, got %r" % (budget,))


# The level loop reads the clock once per this many candidate nodes, so a
# time budget overshoots by at most one batch of node work.
BUDGET_CHECK_NODES = 512


def _out_of_time(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _antecedent_literals(space: FeatureSpace) -> list[Literal]:
    # = literals for every value; != only where the domain has 3+ values
    # (binary != normalizes to the complementary =)
    lits = space.equalities()
    lits += [space.negate(l) for l in lits if len(space.domain(l.feature)) >= 3]
    return sorted(lits)


Found = dict[tuple[int, int], list[tuple[frozenset[Literal], int]]]


def _mine(space: FeatureSpace, insts: list[Instance], limit: ExtractionLimit,
          deadline: Optional[float]) -> tuple[Found, bool]:
    """Minimal antecedents of every exact rule, from one pass over free itemsets.

    Nodes are literal sets in index order, level by level. A node is kept only
    if it is free (its rows differ from every immediate subset's rows) and
    covers at least `min_support` rows. A node's antecedent is minimal for
    target f = v iff its rows all have f = v and no immediate subset's rows
    do; only the values of one covered row can qualify. Returns
    {(f, v): [(antecedent, support)]} in size-then-lexicographic order, and
    whether the time budget cut the pass.
    """
    n = len(insts)
    full = (1 << n) - 1
    found: Found = {}
    if _out_of_time(deadline):
        return found, True
    if n < limit.min_support:
        return found, False
    cols = row_bitsets(space, insts)
    # rows where f != v: a node's rows lie in column f = v iff they miss these
    outside = [[full & ~c for c in fcols] for fcols in cols]
    vals = [inst.values for inst in insts]
    lits = _antecedent_literals(space)
    lit_rows = [outside[l.feature][l.value] if l.negated else cols[l.feature][l.value]
                for l in lits]
    feat = [l.feature for l in lits]
    neg = [l.negated for l in lits]

    def record(key: tuple[int, ...], rows: int, subsets: list[int], fmask: int) -> None:
        row = vals[(rows & -rows).bit_length() - 1]
        for f in range(space.m):
            if fmask >> f & 1:
                continue
            v = row[f]
            out = outside[f][v]
            if rows & out or not all(s & out for s in subsets):
                continue
            found.setdefault((f, v), []).append(
                (frozenset(lits[j] for j in key), rows.bit_count()))

    record((), full, [], 0)
    # a level: groups of (prefix, [(last literal, rows)]) in lexicographic
    # order, and every node's rows by key for the immediate-subset lookups
    level: list[tuple[tuple[int, ...], list[tuple[int, int]]]] = [((), [])]
    index: dict[tuple[int, ...], int] = {}
    work = 0
    for j, rows in enumerate(lit_rows):
        if rows == full or rows.bit_count() < limit.min_support:
            continue
        record((j,), rows, [full], 1 << feat[j])
        if limit.max_size > 1:
            level[0][1].append((j, rows))
            index[(j,)] = rows
    for size in range(2, limit.max_size + 1):
        last_level = size == limit.max_size  # its nodes are never extended
        next_level = []
        next_index: dict[tuple[int, ...], int] = {}
        for prefix, members in level:
            pmask = 0
            for j in prefix:
                pmask |= 1 << feat[j]
            for ia, (a, ra) in enumerate(members):
                node = prefix + (a,)
                fmask = pmask | 1 << feat[a]
                children = []
                for b, rb in members[ia + 1:]:
                    work += 1
                    if work == BUDGET_CHECK_NODES:
                        work = 0
                        if _out_of_time(deadline):
                            return found, True
                    # a second literal on an =-pinned feature covers no row or
                    # the same rows; other structurally redundant sets (every
                    # value of a feature excluded) cover no row
                    if feat[b] == feat[a] and not neg[a]:
                        continue
                    rows = ra & rb
                    if rows == ra or rows == rb or rows.bit_count() < limit.min_support:
                        continue
                    subsets = [ra, rb]
                    for x in range(len(prefix)):
                        sub = index.get(prefix[:x] + prefix[x + 1:] + (a, b))
                        if sub is None or sub == rows:
                            break
                        subsets.append(sub)
                    else:
                        key = node + (b,)
                        record(key, rows, subsets, fmask | 1 << feat[b])
                        if not last_level:
                            children.append((b, rows))
                            next_index[key] = rows
                if children:
                    next_level.append((node, children))
        level, index = next_level, next_index
        if not level:
            break
    return found, False


def _knowledge(train: Dataset, targets: Iterable[Literal], blocked: set[Clause],
               limit: ExtractionLimit) -> KnowledgeBase:
    """Mine once; the targets' rules in mining order, minus blocked clauses, up
    to `limit.max_rules`, flagged `truncated` when the count or time budget
    cut the run."""
    space, insts = train.space, train.instances()
    deadline = None if limit.time_budget is None else time.monotonic() + limit.time_budget
    found, truncated = _mine(space, insts, limit, deadline)
    rules: list[Rule] = []
    for target in targets:
        for antecedent, support in found.get((target.feature, target.value), ()):
            rule = Rule(antecedent, target, id=len(rules), support=support, consistency=1.0)
            clause = rule_to_clause(space, rule)
            if clause in blocked:
                continue
            blocked.add(clause)
            rules.append(rule)
            if len(rules) == limit.max_rules:
                return KnowledgeBase.from_rules(space, rules, truncated=True)
    return KnowledgeBase.from_rules(space, rules, truncated=truncated)


def enumerate_min_rules(train: Dataset, target: Literal,
                        blocked: Iterable[Clause] = (),
                        limit: ExtractionLimit = ExtractionLimit()) -> KnowledgeBase:
    """All consistency-preserving rules with subset-minimal antecedents for one target.

    Emission order is nondecreasing in antecedent size, lexicographic within a
    size; clauses in `blocked` (and clauses already emitted) are suppressed.
    The rules come as a knowledge base, flagged `truncated` as in
    `extract_all` when the count or time budget cut the run.
    """
    if target.negated:
        raise MinerError("targets must be = literals")
    if not train.space.has(target):
        raise MinerError("target outside the space: feature %r, value index %r"
                         % (target.feature, target.value))
    return _knowledge(train, [target], set(blocked), limit)


def extract_all(train: Dataset, limit: ExtractionLimit = ExtractionLimit()) -> KnowledgeBase:
    """Mine every feature-value target, blocking emitted clauses between targets.

    Targets are replayed in (feature, value) order, so which reading of a
    clause is kept depends on that order. The class column never
    participates (it is held outside the feature space). Exhausting the count
    or time budget returns the partial knowledge base with its truncation
    flag set.
    """
    return _knowledge(train, train.space.equalities(), set(), limit)


def rule_accuracy(rule: Rule, test: Dataset) -> float:
    """1 - (fraction of test rows that falsify the rule's clausal form)."""
    insts = test.instances()
    if not insts:
        raise MinerError("cannot score a rule on an empty dataset")
    violations = sum(1 for inst in insts if rule.violated_by(inst))
    return 1.0 - violations / len(insts)


# ---------------------------------------------------------------------------
# line-oriented rule files: a header line declaring the feature space, then
# one JSON rule per line; the blocked-clause set is reconstructible from it

def save_rules(path, space: FeatureSpace, rules: Iterable[Rule],
               truncated: bool = False, manifest: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # "engine" is a constant of the format, which `load_rules` never reads
        header = {"format": RULES_FORMAT, "engine": "lattice", "truncated": truncated,
                  "features": space_to_obj(space)}
        if manifest is not None:
            header["manifest"] = manifest
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rule in rules:
            obj = {"id": rule.id, "size": rule.size,
                   "if": [l.to_obj(space) for l in sorted(rule.antecedent)],
                   "then": rule.consequent.to_obj(space),
                   "support": rule.support, "consistency": rule.consistency}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def load_rules(path) -> tuple[FeatureSpace, list[Rule], dict]:
    """Returns (declared space, rules, header metadata); a malformed line, a
    repeated rule id, a `size` other than the antecedent's, or a rule
    `validate_rule` rejects, raises MinerError naming file and line."""
    n = 0  # the line being parsed, for the error message
    try:
        with open(path, "rb") as fh:  # decoded by line, so a bad byte's line is known
            lines = [(n, ln) for n, ln in enumerate(fh, 1) if ln.strip()]
        if not lines:
            raise MinerError("empty rules file")
        n = lines[0][0]
        header = json.loads(lines[0][1].decode("utf-8"))
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != RULES_FORMAT:
            raise MinerError("unrecognized rules format %r" % fmt)
        space = space_from_obj(json_field(header, "features", list))
        if "truncated" in header:
            json_field(header, "truncated", bool)
        rules, ids = [], set()
        for n, ln in lines[1:]:
            obj = json.loads(ln.decode("utf-8"))
            ante = json_field(obj, "if", list)
            # mining stats are optional; the ids become knowledge provenance
            rule_id, size, *stats = [
                None if obj.get(key) is None else json_field(obj, key, kind)
                for key, kind in (("id", int), ("size", int), ("support", int),
                                  ("consistency", number))]
            rule = Rule(frozenset(Literal.from_obj(space, l, "if[%d]" % i)
                                  for i, l in enumerate(ante)),
                        Literal.from_obj(space, json_field(obj, "then"), "then"),
                        rule_id, *stats)
            if size is not None and size != rule.size:
                raise MinerError("field 'size': %d is not the antecedent's size %d"
                                 % (size, rule.size))
            if rule_id is not None:
                if rule_id in ids:
                    raise MinerError("field 'id': %d repeats an earlier rule's id"
                                     % rule_id)
                ids.add(rule_id)
            validate_rule(space, rule)
            rules.append(rule)
    except ValueError as exc:  # encoding, JSON syntax, SpaceError, MinerError
        raise MinerError("%s:%d: %s" % (path, n, exc)) from None
    return space, rules, header


def load_knowledge(path, target_space: Optional[FeatureSpace] = None) -> KnowledgeBase:
    """Load a rules file as a knowledge base, rebound onto `target_space` if given."""
    space, rules, header = load_rules(path)
    kb = KnowledgeBase.from_rules(space, rules, truncated=header.get("truncated", False))
    try:
        return kb if target_space in (None, space) else rebind_knowledge(kb, space, target_space)
    except SpaceError as exc:  # a name or label the target space lacks
        raise MinerError("%s: %s" % (path, exc)) from None
