import dataclasses
import itertools
import random
import re

import pytest

from kxp import (Dataset, ExtractionLimit, FeatureSpace, Instance, KnowledgeBase,
                 Literal, MinerError, Rule, enumerate_min_rules, extract_all,
                 rule_accuracy, rule_to_clause)
from kxp import miner
from kxp.core import rebind_knowledge, rebind_rule
from kxp.miner import load_knowledge, load_rules, save_rules

from util import (brute_force_extract_all, brute_force_min_rules, planted_dataset,
                  planted_rules, random_space)

RNG_DATASETS = 25


def tiny_dataset(rng, space, n_rows):
    rows = tuple(tuple(rng.randrange(len(space.domain(f)))
                       for f in range(space.m)) for _ in range(n_rows))
    return Dataset(space.names, tuple(d for _, d in space.features), rows)


def texts(space, rules):
    return {r.render(space) for r in rules}


def unblocked_rules(ds, limit):
    """Every target's rules, with no clause blocked across targets (so both
    readings of a binary clause can occur), their ids renumbered."""
    rules = [r for target in ds.space.equalities()
             for r in enumerate_min_rules(ds, target, limit=limit).rules]
    return [dataclasses.replace(r, id=i) for i, r in enumerate(rules)]


def test_status_married_rules(toy_ds):
    sp = toy_ds.space
    kb = enumerate_min_rules(toy_ds, sp.literal("Status", "Married"),
                             limit=ExtractionLimit(max_size=2))
    assert not kb.truncated
    got = texts(sp, kb.rules)
    assert "IF Relationship = Husband THEN Status = Married" in got
    assert "IF Relationship = Wife THEN Status = Married" in got


def test_relationship_husband_rule(toy_ds):
    sp = toy_ds.space
    rules = enumerate_min_rules(toy_ds, sp.literal("Relationship", "Husband"),
                                limit=ExtractionLimit(max_size=2)).rules
    assert "IF Status = Married AND Sex = Male THEN Relationship = Husband" \
        in texts(sp, rules)


def test_blocked_clause_suppresses_duplicate(toy_ds):
    sp = toy_ds.space
    husband = Rule(frozenset({sp.literal("Status", "Married"),
                              sp.literal("Sex", "Male")}),
                   sp.literal("Relationship", "Husband"))
    blocked = {rule_to_clause(sp, husband)}
    rules = enumerate_min_rules(toy_ds, sp.literal("Sex", "Female"),
                                blocked=blocked,
                                limit=ExtractionLimit(max_size=2)).rules
    dup = "IF Status = Married AND Relationship != Husband THEN Sex = Female"
    assert dup not in texts(sp, rules)
    unblocked = enumerate_min_rules(toy_ds, sp.literal("Sex", "Female"),
                                    limit=ExtractionLimit(max_size=2)).rules
    assert dup in texts(sp, unblocked)


def test_extract_all_blocks_across_targets(toy_ds):
    sp = toy_ds.space
    kb = extract_all(toy_ds, ExtractionLimit(max_size=2))
    assert not kb.truncated
    # no two emitted rules share a clause
    clauses = [rule_to_clause(sp, r) for r in kb.rules]
    assert len(set(clauses)) == len(clauses) == len(kb)
    got = texts(sp, kb.rules)
    assert "IF Relationship = Husband THEN Status = Married" in got
    assert "IF Status = Married AND Sex = Male THEN Relationship = Husband" in got
    # the duplicate reading under the Sex = Female target was suppressed
    assert "IF Status = Married AND Relationship != Husband THEN Sex = Female" \
        not in got
    # every clause satisfied by every train row
    for inst in toy_ds.instances():
        assert all(c.satisfied_by(inst) for c in kb.clauses)


def test_emitted_rules_satisfy_contract(toy_ds):
    sp = toy_ds.space
    insts = toy_ds.instances()
    kb = extract_all(toy_ds, ExtractionLimit(max_size=3))
    for rule in kb.rules:
        assert not any(rule.violated_by(i) for i in insts)
        support = sum(1 for i in insts
                      if rule.matches(i) and rule.consequent.holds(i))
        assert support == rule.support >= 1
        # single-literal deletion breaks consistency or support
        for lit in rule.antecedent:
            smaller = rule.antecedent - {lit}
            rows = [i for i in insts if all(l.holds(i) for l in smaller)]
            sup = sum(1 for i in rows if rule.consequent.holds(i))
            consistent = all(rule.consequent.holds(i) for i in rows)
            assert not (consistent and sup >= 1)


def test_emission_order_nondecreasing(toy_ds):
    sp = toy_ds.space
    rules = enumerate_min_rules(toy_ds, sp.literal("Relationship", "Husband"),
                                limit=ExtractionLimit(max_size=3)).rules
    sizes = [r.size for r in rules]
    assert sizes == sorted(sizes)
    ids = [r.id for r in rules]
    assert ids == sorted(ids)


def test_matches_bruteforce_on_random_data():
    rng = random.Random(1234)
    for trial in range(RNG_DATASETS):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        ds = tiny_dataset(rng, sp, rng.randint(3, 10))
        f = rng.randrange(sp.m)
        target = sp.literal(f, rng.randrange(len(sp.domain(f))))
        min_sup = rng.choice((1, 1, 2))
        limit = ExtractionLimit(max_size=3, min_support=min_sup)
        fast = enumerate_min_rules(ds, target, limit=limit).rules
        slow = brute_force_min_rules(ds, target, max_size=3, min_support=min_sup)
        fast_set = {(r.antecedent, r.consequent) for r in fast}
        slow_set = {(r.antecedent, r.consequent) for r in slow}
        assert fast_set == slow_set, "trial %d" % trial


def test_binary_dataset_matches_bruteforce():
    rng = random.Random(77)
    sp = FeatureSpace.make([("x%d" % i, ["0", "1"]) for i in range(4)])
    for _ in range(10):
        ds = tiny_dataset(rng, sp, 8)
        target = sp.literal(0, rng.randrange(2))
        fast = enumerate_min_rules(ds, target, limit=ExtractionLimit(max_size=3)).rules
        slow = brute_force_min_rules(ds, target, max_size=3)
        assert {(r.antecedent, r.consequent) for r in fast} \
            == {(r.antecedent, r.consequent) for r in slow}


def test_extract_all_matches_bruteforce_pipeline():
    """Order, ids, supports and the truncation flag, with and without cuts."""
    rng = random.Random(20240611)
    for trial in range(300):
        sp = random_space(rng, min_features=2, max_features=4, max_domain=4)
        ds = tiny_dataset(rng, sp, rng.randint(0, 40))
        # the brute force scans every antecedent: size 4 only on 2-3 features
        max_size = rng.randint(1, 4 if sp.m <= 3 else 3)
        min_support = rng.randint(1, 3)
        max_rules = rng.randint(1, 12) if rng.random() < 0.3 else None
        kb = extract_all(ds, ExtractionLimit(max_size=max_size, min_support=min_support,
                                             max_rules=max_rules))
        slow, truncated = brute_force_extract_all(ds, max_size, min_support, max_rules)
        assert [(r.id, r.antecedent, r.consequent, r.support) for r in kb.rules] \
            == [(r.id, r.antecedent, r.consequent, r.support) for r in slow], \
            "trial %d" % trial
        assert kb.truncated == truncated, "trial %d" % trial


def test_planted_dependencies_come_back_as_exact_rules():
    ds = planted_dataset(random.Random(7), 400)
    sp = ds.space
    kb = extract_all(ds, ExtractionLimit(max_size=2))
    insts = ds.instances()
    assert all(not any(r.violated_by(v) for v in insts) for r in kb.rules)
    clauses = set(kb.clauses)
    for rule in planted_rules(sp):
        assert rule_to_clause(sp, rule) in clauses, rule.render(sp)


def test_time_budget_stops_within_one_node_batch(monkeypatch):
    """With a clock that ticks once per read, the pass reads it once per
    batch of nodes and stops at the first read at or past the deadline."""
    ds = planted_dataset(random.Random(3), 120)
    reads = []

    def clock():
        reads.append(None)
        return float(len(reads))

    monkeypatch.setattr(miner.time, "monotonic", clock)
    batch = miner.BUDGET_CHECK_NODES
    monkeypatch.setattr(miner, "BUDGET_CHECK_NODES", 1)
    never = ExtractionLimit(max_size=3, time_budget=1e9)
    full = extract_all(ds, never)
    nodes = len(reads) - 2  # the deadline, the check before the pass
    assert not full.truncated and nodes > 3 * batch

    monkeypatch.setattr(miner, "BUDGET_CHECK_NODES", batch)
    reads.clear()
    assert extract_all(ds, never) == full
    assert len(reads) == 2 + nodes // batch

    insts = ds.instances()
    for k in range(4):
        reads.clear()
        # the deadline is read 1 + k + 0.5: the (k + 2)-th read passes it
        kb = extract_all(ds, ExtractionLimit(max_size=3, time_budget=k + 0.5))
        assert kb.truncated and len(reads) == k + 2
        assert set(kb.clauses) <= set(full.clauses)
        assert all(not any(r.violated_by(v) for v in insts) for r in kb.rules)


def test_target_must_be_equality(toy_ds):
    """A target is an = literal in the data's space; one outside it names its
    feature and value index."""
    sp = toy_ds.space
    with pytest.raises(MinerError):
        enumerate_min_rules(toy_ds, sp.literal("Status", "Married", negated=True))
    for target in (Literal(99, False, 0), Literal(0, False, 99)):
        with pytest.raises(MinerError, match=re.escape(
                "target outside the space: feature %d, value index %d"
                % (target.feature, target.value))):
            enumerate_min_rules(toy_ds, target)


def test_empty_dataset_gives_empty_kb(toy_ds):
    empty = toy_ds.take([])
    kb = extract_all(empty, ExtractionLimit(max_size=2))
    assert len(kb) == 0 and not kb.truncated


def test_rule_count_budget_truncates(toy_ds):
    kb = extract_all(toy_ds, ExtractionLimit(max_size=2, max_rules=5))
    assert len(kb.rules) == 5 and kb.truncated


def test_time_budget_truncates(toy_ds):
    kb = extract_all(toy_ds, ExtractionLimit(max_size=5, time_budget=0.0))
    assert kb.truncated


def test_one_target_time_budget_truncates(toy_ds):
    """The one-target miner keeps the truncation flag: the same target
    gives rules without a budget and an empty, truncated result at 0 s."""
    target = toy_ds.space.literal("Status", "Married")
    full = enumerate_min_rules(toy_ds, target, limit=ExtractionLimit(max_size=2))
    assert len(full.rules) > 0 and not full.truncated
    cut = enumerate_min_rules(toy_ds, target,
                              limit=ExtractionLimit(max_size=2, time_budget=0.0))
    assert cut.truncated and len(cut.rules) < len(full.rules)


def test_limit_validation():
    # a count that is not an int, or is a bool, is no count
    for field, name in (("max_size", "max antecedent size"),
                        ("min_support", "min support"), ("max_rules", "max rules")):
        for bad in (0, -1, 2.5, 1.5, 2.0, True, "2"):
            verdict = "out of range [1, inf)" if type(bad) is int else "is not an integer"
            with pytest.raises(MinerError, match=re.escape("%s %r %s" % (name, bad, verdict))):
                ExtractionLimit(**{field: bad})
    for bad, shown in ((float("nan"), "nan"), (-1.0, "-1.0"), (-1e-9, "-1e-09"),
                       (True, "True"), ("1", "'1'")):
        with pytest.raises(MinerError, match="time budget must be >= 0 seconds, got %s"
                           % shown):
            ExtractionLimit(time_budget=bad)
    for fine in (0, 2, 0.0, 0.5, float("inf")):
        assert ExtractionLimit(time_budget=fine).time_budget == fine


def test_one_target_rule_budget(toy_ds):
    target = toy_ds.space.literal("Status", "Married")
    everything = enumerate_min_rules(toy_ds, target, limit=ExtractionLimit(max_size=2))
    assert len(everything) >= 3 and not everything.truncated
    for max_rules in (1, 2, 3):
        got = enumerate_min_rules(toy_ds, target, limit=ExtractionLimit(
            max_size=2, max_rules=max_rules))
        assert got.rules == everything.rules[:max_rules] and got.truncated


# ---------------------------------------------------------------------------
# the rule language and what the knowledge implies

def test_one_negated_rule_implies_the_equality_rules():
    sp = FeatureSpace.make([("x1", ["0", "1", "2"]), ("x2", ["0", "1", "2"])])
    # both rows with x1 != 0 have x2 = 1
    ds = Dataset(sp.names, tuple(d for _, d in sp.features),
                 ((0, 0), (1, 1), (2, 1)))
    lattice = enumerate_min_rules(ds, sp.literal("x2", "1"),
                                  limit=ExtractionLimit(max_size=1)).rules
    negated, = [r for r in lattice if r.render(sp) == "IF x1 != 0 THEN x2 = 1"]
    # on every point of the space, the != rule implies both = rules
    for value in ("1", "2"):
        rule = Rule(frozenset({sp.literal("x1", value)}), sp.literal("x2", "1"))
        assert not any(rule.violated_by(p) for p in sp.points()
                       if not negated.violated_by(p))


def test_mined_knowledge_implies_every_exact_rule_within_the_limits():
    """No point the knowledge of `extract_all` admits violates an exact rule
    within its limits: an antecedent of up to `max_size` = and != literals
    that covers at least `min_support` rows, and an = consequent on another
    feature that holds on every row the antecedent covers."""
    rng = random.Random(41)
    checked = 0
    for _ in range(600):
        sp = random_space(rng, max_features=4, max_domain=4)
        ds = tiny_dataset(rng, sp, rng.randint(2, 12))
        max_size, min_support = rng.randint(1, 3), rng.randint(1, 2)
        kb = extract_all(ds, ExtractionLimit(max_size=max_size, min_support=min_support))
        assert not kb.truncated
        targets = sp.equalities()
        # a binary feature's != literal normalizes to the other = literal
        lits = sorted(set(targets) | {sp.negate(l) for l in targets})

        def holds_on(objs):  # per literal, the objects it holds on as a bit mask
            return {l: sum(1 << i for i, o in enumerate(objs) if l.holds(o))
                    for l in lits}

        points = [p for p in sp.points() if kb.satisfied_by(p)]
        rows, admitted = holds_on(ds.instances()), holds_on(points)
        for size in range(max_size + 1):
            for ante in itertools.combinations(lits, size):
                covered, where = (1 << ds.n_rows) - 1, (1 << len(points)) - 1
                for l in ante:
                    covered &= rows[l]
                    where &= admitted[l]
                if covered.bit_count() < min_support:
                    continue
                for target in targets:
                    if covered & ~rows[target] or any(
                            l.feature == target.feature for l in ante):
                        continue
                    checked += 1
                    assert not where & ~admitted[target], \
                        Rule(frozenset(ante), target).render(sp)
    assert checked > 80000, checked


# ---------------------------------------------------------------------------
# accuracy and file round trips

def test_rule_accuracy_values(toy_ds):
    sp = toy_ds.space
    consistent = Rule(frozenset({sp.literal("Relationship", "Husband")}),
                      sp.literal("Status", "Married"))
    assert rule_accuracy(consistent, toy_ds) == 1.0
    wrong = Rule(frozenset({sp.literal("Education", "Dropout")}),
                 sp.literal("Sex", "Female"))
    # dropouts are male in both matching rows: 2 violations out of 6
    assert rule_accuracy(wrong, toy_ds) == pytest.approx(4 / 6)
    with pytest.raises(MinerError):
        rule_accuracy(consistent, toy_ds.take([]))


def test_rules_file_round_trip(tmp_path, toy_ds):
    sp = toy_ds.space
    kb = extract_all(toy_ds, ExtractionLimit(max_size=2))
    path = tmp_path / "rules.jsonl"
    save_rules(path, sp, kb.rules, truncated=kb.truncated)
    space2, rules2, header = load_rules(path)
    assert space2 == sp
    assert [(r.antecedent, r.consequent, r.id, r.support) for r in rules2] \
        == [(r.antecedent, r.consequent, r.id, r.support) for r in kb.rules]
    kb2 = load_knowledge(path)
    assert set(kb2.clauses) == set(kb.clauses)
    assert kb2.truncated == kb.truncated


def test_load_knowledge_rebinds(tmp_path, toy_ds, toy_dl):
    path = tmp_path / "rules.jsonl"
    kb = extract_all(toy_ds, ExtractionLimit(max_size=1))
    save_rules(path, toy_ds.space, kb.rules)
    moved = load_knowledge(path, toy_dl.space)
    assert len(moved) == len(kb)
    for inst in toy_ds.instances():
        translated = toy_dl.space.instance_from_labels(
            {n: toy_ds.space.domain(i)[inst.values[i]]
             for i, n in enumerate(toy_ds.names)})
        assert moved.satisfied_by(translated)


def test_load_knowledge_keeps_both_readings_when_a_domain_grows(tmp_path):
    # a = 1 always implies b = 1, so the unblocked rules hold both readings of
    # one binary clause; in a space where a is ternary they are two clauses.
    # Files written by the older equality-only miner say "engine": "eclat";
    # loading never reads the field.
    sp = FeatureSpace.make([("a", ["0", "1"]), ("b", ["0", "1"])])
    ds = Dataset(sp.names, tuple(d for _, d in sp.features), ((0, 0), (0, 1), (1, 1)))
    rules = unblocked_rules(ds, ExtractionLimit(max_size=1))
    assert [r.render(sp) for r in rules] == ["IF b = 0 THEN a = 0", "IF a = 1 THEN b = 1"]
    path = tmp_path / "rules.jsonl"
    save_rules(path, sp, rules)
    header, *lines = path.read_text().splitlines(True)
    assert '"engine": "lattice"' in header
    path.write_text(header.replace('"engine": "lattice"', '"engine": "eclat"') + "".join(lines))
    kb = load_knowledge(path)
    assert len(kb) == 1 and kb.provenance[kb.clauses[0]] == (0, 1)
    big = FeatureSpace.make([("b", ["1", "0"]), ("a", ["0", "1", "2"])])
    moved = load_knowledge(path, big)
    want = {rule_to_clause(big, rebind_rule(r, sp, big)): (r.id,) for r in rules}
    assert len(want) == 2
    assert dict(moved.provenance) == want and set(moved.clauses) == set(want)
    # b = 0 -> a = 0 is enforced: a = 2 with b = 0 violates it
    assert not moved.satisfied_by(big.instance(["0", "2"]))


def test_load_knowledge_enforces_every_rule_of_the_file(tmp_path):
    # loaded onto a space whose domains grow and whose features reorder, the
    # knowledge base holds on exactly the points where every rule of the file
    # holds, and cites every rule id
    rng = random.Random(23)
    path = tmp_path / "rules.jsonl"
    for trial in range(40):
        sp = random_space(rng, max_features=4, max_domain=3)
        ds = tiny_dataset(rng, sp, rng.randint(3, 20))
        rules = unblocked_rules(ds, ExtractionLimit(max_size=2)) if trial % 2 \
            else extract_all(ds, ExtractionLimit(max_size=2)).rules
        save_rules(path, sp, rules)
        features = [(name, list(dom) + ["extra"] * (rng.random() < 0.5))
                    for name, dom in sp.features]
        rng.shuffle(features)
        target = FeatureSpace.make(features)
        kb = load_knowledge(path, target)
        moved = [rebind_rule(r, sp, target) for r in rules]
        for values in itertools.product(*(range(len(d)) for _, d in features)):
            inst = Instance(values)
            assert kb.satisfied_by(inst) == all(
                r.consequent.holds(inst) or not all(l.holds(inst) for l in r.antecedent)
                for r in moved)
        assert sorted(i for ids in kb.provenance.values() for i in ids) \
            == sorted(r.id for r in rules)


def test_rebind_knowledge_enforces_every_rule():
    """Rebound onto a space whose domains grow and whose features reorder, a
    mined or an unblocked knowledge base holds on exactly the points where
    every one of its rules, rebound, holds, and cites every rule id. Some
    unblocked clauses hold two readings of one binary clause, which split in
    two."""
    rng = random.Random(31)
    seen = {"mined": 0, "unblocked": 0, "split": 0}
    for trial in range(60):
        sp = random_space(rng, max_features=4, max_domain=3)
        ds = tiny_dataset(rng, sp, rng.randint(3, 20))
        source = ("mined", "unblocked")[trial % 2]
        if source == "mined":
            kb = extract_all(ds, ExtractionLimit(max_size=2))
            mined = kb.rules
        else:
            mined = unblocked_rules(ds, ExtractionLimit(max_size=2))
            kb = KnowledgeBase.from_rules(sp, mined)
        features = [(name, list(dom) + ["extra"] * (rng.random() < 0.5))
                    for name, dom in sp.features]
        rng.shuffle(features)
        target = FeatureSpace.make(features)
        moved = rebind_knowledge(kb, sp, target)
        rules = [rebind_rule(r, sp, target) for r in mined]
        for values in itertools.product(*(range(len(d)) for _, d in features)):
            inst = Instance(values)
            assert moved.satisfied_by(inst) == all(not r.violated_by(inst) for r in rules)
        assert sorted(i for ids in moved.provenance.values() for i in ids) \
            == sorted(r.id for r in mined)
        seen[source] += bool(kb)
        seen["split"] += len(moved) > len(kb)
    assert all(seen.values()), seen
