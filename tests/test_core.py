import random
import re

import pytest

from kxp import (Clause, FeatureSpace, KnowledgeBase, Literal, Rule,
                 SpaceError, rule_to_clause, validate_rule)
from kxp.core import rebind_knowledge, rebind_literal, space_from_obj
from kxp.miner import load_knowledge, save_rules

from util import random_instance, random_knowledge, random_space


def test_space_invariants():
    with pytest.raises(SpaceError):
        FeatureSpace.make([("x", ["a", "b"]), ("x", ["c", "d"])])
    with pytest.raises(SpaceError):
        FeatureSpace.make([("x", ["only"])])
    with pytest.raises(SpaceError):
        FeatureSpace.make([("x", ["a", "a"])])
    sp = FeatureSpace.make([("x", ["a", "b", "c"]), ("y", ["0", "1"])])
    assert sp.size() == 6
    assert sp.m == 2


def test_space_size_is_exact_big_integer():
    sp = FeatureSpace.make([("f%d" % i, [str(j) for j in range(10)])
                            for i in range(30)])
    assert sp.size() == 10 ** 30


def test_binary_negation_normalizes():
    sp = FeatureSpace.make([("sex", ["M", "F"]), ("edu", ["a", "b", "c"])])
    lit = sp.literal("sex", "M", negated=True)
    assert not lit.negated and lit.value == sp.value_index(0, "F")
    # ternary domains keep the negation
    lit2 = sp.literal("edu", "a", negated=True)
    assert lit2.negated
    # double negation comes back home
    assert sp.negate(sp.negate(lit2)) == lit2
    assert sp.negate(lit) == sp.literal("sex", "M")


def test_literal_satisfied_on_table_rows(toy_ds):
    sp = toy_ds.space
    rows = toy_ds.instances()
    assert sp.literal("Relationship", "Husband").holds(rows[0])
    assert not sp.literal("Sex", "Male", negated=True).holds(rows[0])
    assert not sp.literal("Education", "Masters").holds(rows[4])


def test_literal_out_of_range():
    sp = FeatureSpace.make([("x", ["a", "b"])])
    with pytest.raises(SpaceError):
        sp.literal("x", 5)
    with pytest.raises(SpaceError):
        sp.literal(3, 0)
    # a literal built outside the space is rejected where a rule is checked
    y = FeatureSpace.make([("x", ["a", "b"]), ("y", ["0", "1"])])
    assert not y.has(Literal(feature=4, negated=False, value=0))
    assert not y.has(Literal(feature=0, negated=False, value=2)) and y.has(sp.literal("x", "b"))
    with pytest.raises(SpaceError):
        validate_rule(y, Rule(frozenset({Literal(feature=4, negated=False, value=0)}),
                              y.literal("y", "1")))


def test_clause_rejects_tautology():
    sp = FeatureSpace.make([("x", ["a", "b", "c"])])
    with pytest.raises(SpaceError):
        Clause.of([sp.literal("x", "a"), sp.literal("x", "a", negated=True)])
    with pytest.raises(SpaceError):
        Clause.of([])
    c = Clause.of([sp.literal("x", "a"), sp.literal("x", "b")])
    assert len(c) == 2


def test_rule_invariants():
    sp = FeatureSpace.make([("x", ["a", "b", "c"]), ("y", ["0", "1"])])
    with pytest.raises(SpaceError):
        Rule(frozenset({sp.literal("y", "0")}), sp.literal("y", "1"))
    bad = Rule(frozenset({sp.literal("x", "a"), sp.literal("x", "b")}),
               sp.literal("y", "1"))
    with pytest.raises(SpaceError):
        validate_rule(sp, bad)
    all_neq = Rule(frozenset({sp.literal("x", v, negated=True) for v in range(3)}),
                   sp.literal("y", "1"))
    with pytest.raises(SpaceError):
        validate_rule(sp, all_neq)


def test_rule_to_clause_married_husband(toy_ds):
    sp = toy_ds.space
    rule = Rule(frozenset({sp.literal("Status", "Married"),
                           sp.literal("Sex", "Male")}),
                sp.literal("Relationship", "Husband"))
    clause = rule_to_clause(sp, rule)
    # Status != Married survives (ternary); Sex != Male normalizes to Sex = Female
    assert clause.literals == frozenset({
        sp.literal("Status", "Married", negated=True),
        sp.literal("Sex", "Female"),
        sp.literal("Relationship", "Husband")})
    assert len(clause) == rule.size + 1


def test_rule_to_clause_trivial_cases():
    sp = FeatureSpace.make([("a", ["0", "1", "2"]), ("b", ["0", "1", "2"])])
    unit = rule_to_clause(sp, Rule(frozenset(), sp.literal("b", "1")))
    assert unit.literals == frozenset({sp.literal("b", "1")})
    flipped = rule_to_clause(
        sp, Rule(frozenset({sp.literal("a", "0", negated=True)}), sp.literal("b", "1")))
    assert flipped.literals == frozenset({sp.literal("a", "0"), sp.literal("b", "1")})


def test_clause_rule_round_trip_random():
    rng = random.Random(42)
    for _ in range(200):
        sp = random_space(rng, max_features=5, max_domain=4)
        feats = rng.sample(range(sp.m), rng.randint(0, min(3, sp.m - 1)))
        consequent_f = next(f for f in range(sp.m) if f not in feats)
        ante = frozenset(
            sp.literal(f, rng.randrange(len(sp.domain(f))),
                       negated=rng.random() < 0.4) for f in feats)
        rule = Rule(ante, sp.literal(consequent_f,
                                     rng.randrange(len(sp.domain(consequent_f)))))
        clause = rule_to_clause(sp, rule)
        assert len(clause) == rule.size + 1
        # a falsifying point matches the antecedent and dodges the consequent
        for _ in range(10):
            inst = random_instance(rng, sp)
            assert (not clause.satisfied_by(inst)) == rule.violated_by(inst)


def test_knowledge_base_conjunction_semantics():
    rng = random.Random(7)
    sp = random_space(rng, min_features=3, max_features=3, max_domain=3)
    v = random_instance(rng, sp)
    kb = random_knowledge(rng, sp, v, max_clauses=4)
    for inst in sp.points():
        assert kb.satisfied_by(inst) == all(c.satisfied_by(inst) for c in kb.clauses)
    assert kb.satisfied_by(v)


def test_knowledge_base_rejects_duplicates():
    sp = FeatureSpace.make([("x", ["a", "b"])])
    c = Clause.of([sp.literal("x", "a")])
    with pytest.raises(SpaceError):
        KnowledgeBase((c, c))


def test_knowledge_from_rules_merges_provenance():
    sp = FeatureSpace.make([("a", ["0", "1"]), ("b", ["0", "1"])])
    # the two readings of one binary clause
    r1 = Rule(frozenset({sp.literal("a", "1")}), sp.literal("b", "1"), id=0)
    r2 = Rule(frozenset({sp.literal("b", "0")}), sp.literal("a", "0"), id=1)
    assert rule_to_clause(sp, r1) == rule_to_clause(sp, r2)
    kb = KnowledgeBase.from_rules(sp, [r1, r2])
    assert len(kb) == 1
    assert kb.provenance[kb.clauses[0]] == (0, 1)


def test_knowledge_subset_keeps_each_clauses_rule():
    sp = FeatureSpace.make([("a", ["0", "1", "2"]), ("b", ["0", "1", "2"]),
                            ("c", ["0", "1"])])
    rules = [Rule(frozenset({sp.literal("a", "0")}), sp.literal("b", "0"), id=0),
             Rule(frozenset({sp.literal("a", "1")}), sp.literal("b", "1"), id=1),
             Rule(frozenset({sp.literal("b", "2")}), sp.literal("c", "1"), id=2)]
    kb = KnowledgeBase.from_rules(sp, rules, truncated=True)
    c0, c1, c2 = kb.clauses
    # reordered clauses keep their own rules and provenance
    sub = kb.subset([c2, c0])
    assert sub.clauses == (c2, c0)
    assert sub.rules == (rules[2], rules[0])
    assert sub.provenance == {c2: (2,), c0: (0,)}
    assert sub.truncated
    # a clause from outside the knowledge base has no rule; the others keep theirs
    outside = Clause.of([sp.literal("c", "0")])
    sub = kb.subset([c0, outside])
    assert sub.clauses == (c0, outside)
    assert sub.rules == (rules[0],)
    assert sub.provenance == {c0: (0,), outside: ()}
    assert KnowledgeBase((c0, c1)).subset([c1]).rules == ()


def test_rebind_onto_larger_space(toy_ds, toy_dl):
    sp_csv = toy_ds.space
    rule = Rule(frozenset({sp_csv.literal("Relationship", "Husband")}),
                sp_csv.literal("Status", "Married"), id=0)
    kb = KnowledgeBase.from_rules(sp_csv, [rule])
    moved = rebind_knowledge(kb, sp_csv, toy_dl.space)
    # the model space has the extra Own-child value; labels carry over
    lit = rebind_literal(sp_csv.literal("Relationship", "Husband"),
                         sp_csv, toy_dl.space)
    assert toy_dl.space.render_literal(lit) == "Relationship = Husband"
    assert len(moved) == 1
    with pytest.raises(SpaceError):
        rebind_knowledge(kb, sp_csv,
                         FeatureSpace.make([("Other", ["x", "y"])]))
    # a literal outside the space it is rebound from is named, not an IndexError
    sp = FeatureSpace.make([("a", ["0", "1"]), ("b", ["0", "1"])])
    big = FeatureSpace.make([("b", ["1", "0"]), ("a", ["0", "1", "2"])])
    kb = KnowledgeBase.from_rules(sp, [
        Rule(frozenset({sp.literal("a", "1")}), sp.literal("b", "1"), id=0),
        Rule(frozenset({sp.literal("b", "0")}), sp.literal("a", "0"), id=1)])
    with pytest.raises(SpaceError, match=re.escape(
            "literal outside the space it is rebound from: feature 1, value index 1")):
        rebind_knowledge(kb, FeatureSpace.make([("a", ["0", "1"])]), big)


def test_rebind_keeps_provenance_and_clauses(tmp_path):
    sp = FeatureSpace.make([("a", ["0", "1"]), ("b", ["0", "1"])])
    # the target space orders the features differently and grows a's domain
    big = FeatureSpace.make([("b", ["1", "0"]), ("a", ["0", "1", "2"])])
    r1 = Rule(frozenset({sp.literal("a", "1")}), sp.literal("b", "1"), id=0)
    r2 = Rule(frozenset({sp.literal("b", "0")}), sp.literal("a", "0"), id=1)
    kb = KnowledgeBase.from_rules(sp, [r1, r2], truncated=True)
    assert len(kb) == 1 and kb.rules == (r1, r2)
    moved = rebind_knowledge(kb, sp, big)
    # the two readings of one binary clause differ once a's domain grows:
    # `a = 1` negates to `a != 1` in the ternary domain, and each keeps its id
    assert moved.clauses == (Clause.of([big.literal("a", "1", negated=True),
                                        big.literal("b", "1")]),
                             Clause.of([big.literal("b", "1"), big.literal("a", "0")]))
    assert moved.provenance == {moved.clauses[0]: (0,), moved.clauses[1]: (1,)}
    assert [r.render(big) for r in moved.rules] == ["IF a = 1 THEN b = 1",
                                                    "IF b = 0 THEN a = 0"]
    assert moved.truncated
    assert not moved.satisfied_by(big.instance(["0", "2"]))  # breaks b = 0 -> a = 0
    # a rules file loads onto the same clauses
    path = tmp_path / "rules.jsonl"
    save_rules(path, sp, [r1, r2])
    loaded = load_knowledge(path, big)
    assert loaded.clauses == moved.clauses and loaded.provenance == moved.provenance
    # a knowledge base built from clauses keeps them, literal by literal
    clauses = (Clause.of([sp.literal("a", "0"), sp.literal("b", "1")]),
               Clause.of([sp.literal("b", "0")]))
    moved = rebind_knowledge(KnowledgeBase(clauses), sp, big)
    assert moved.clauses == (Clause.of([big.literal("a", "0"), big.literal("b", "1")]),
                             Clause.of([big.literal("b", "0")]))
    assert moved.rules == ()


def test_instance_builders():
    sp = FeatureSpace.make([("x", ["a", "b"]), ("y", ["0", "1", "2"])])
    inst = sp.instance(["b", 2])
    assert inst.values == (1, 2)
    with pytest.raises(SpaceError):
        sp.instance(["b"])
    with pytest.raises(SpaceError):
        sp.instance(["b", "9"])
    with pytest.raises(SpaceError):
        sp.instance_from_labels({"x": "a"})
    assert sp.instance_from_labels({"x": "a", "y": "1"}).values == (0, 1)
    # an index is an int, not a bool or a float, for instances and literals
    for bad in (True, 1.0):
        with pytest.raises(SpaceError, match=re.escape(
                "feature 'x' value index %r is not an integer" % bad)):
            sp.instance([bad, 0])
        with pytest.raises(SpaceError, match=re.escape(
                "feature 'y' value index %r is not an integer" % bad)):
            sp.literal(1, bad)
        with pytest.raises(SpaceError, match=re.escape(
                "feature index %r is not an integer" % bad)):
            sp.literal(bad, 0)
    with pytest.raises(SpaceError, match=re.escape("feature index 2 out of range [0, 2)")):
        sp.literal(2, 0)
    assert len(list(sp.points())) == 6


def test_instances_labels_and_rules_outside_the_space():
    """A value index outside its domain, or a domain label that is not a
    string, raises `SpaceError`; a rule with no antecedent renders as TRUE."""
    sp = FeatureSpace.make([("x", ["a", "b", "c"]), ("y", ["0", "1"])])
    with pytest.raises(SpaceError, match=re.escape("feature 'y' value index 2 out of range "
                                                   "[0, 2)")):
        sp.instance([0, 2])
    with pytest.raises(SpaceError, match=r"features\[1\]: field 'domain': expected "
                       "a list of strings"):
        space_from_obj([{"name": "x", "domain": ["a", "b"]},
                        {"name": "y", "domain": ["0", 1]}])
    assert Rule(frozenset(), sp.literal("y", "1")).render(sp) == "IF TRUE THEN y = 1"
    # an index that is not an integer (a bool neither) lies outside the space
    for lit, named in ((Literal(1.0, False, 0), "feature 1.0, value index 0"),
                       (Literal("x", False, 0), "feature 'x', value index 0"),
                       (Literal(0, False, 1.0), "feature 0, value index 1.0"),
                       (Literal(True, False, 0), "feature True, value index 0"),
                       (Literal(1, False, 2), "feature 1, value index 2")):
        assert not sp.has(lit)
        consequent = Literal(0 if lit.feature == 1 else 1, False, 1)
        with pytest.raises(SpaceError, match="^%s$" % re.escape(
                "antecedent literal out of range: " + named)):
            validate_rule(sp, Rule(frozenset({lit}), consequent))
