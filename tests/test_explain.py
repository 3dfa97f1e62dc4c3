import copy
import hashlib
import random
import re
import sys
import threading

import pytest

from kxp import (Clause, ExtractionLimit, Instance, Kind, KnowledgeBase, Literal,
                 Rule, extract_all)
import kxp.explain as explain_module
from kxp.explain import (EnumerationResult, ExplainError, _HittingSets,
                         attribute_rules, check_explanation, enumerate_smallest,
                         find_axp, find_cxp, minimum_hitting_set,
                         reduce_explanation)
from kxp.oracle import EntailmentOracle, OracleError

from util import (all_minimal_explanations, all_minimal_hitting_sets,
                  assert_counterexample, entails_bruteforce,
                  minimum_hitting_set_bruteforce,
                  random_bt, random_dl, random_instance, random_knowledge,
                  random_model, random_single_score_bt, random_space,
                  reference_attribution)


def F(space, *names):
    return frozenset(space.feature_index(n) for n in names)


def names_of(space, features):
    return sorted(space.names[f] for f in features)


# ---------------------------------------------------------------------------
# worked examples

def test_axp_unique_four_features(toy_dl, toy_bt, row1):
    for model in (toy_dl, toy_bt):
        axp = find_axp(model, row1)
        assert axp.features == F(model.space, "Education", "Status",
                                 "Occupation", "Relationship")
        assert not axp.knowledge_assisted


def test_cxp_singletons(toy_dl, toy_bt, row1):
    for model in (toy_dl, toy_bt):
        cxp = find_cxp(model, row1)
        assert len(cxp.features) == 1
        assert cxp.features < F(model.space, "Education", "Status",
                                "Occupation", "Relationship")


def test_enumerate_cxp_is_exactly_four_singletons(toy_dl, toy_bt, row1):
    for model in (toy_dl, toy_bt):
        res = enumerate_smallest(Kind.CXP, model, row1, n=20)
        assert res.exhausted
        expected = [F(model.space, n) for n in
                    ("Education", "Status", "Occupation", "Relationship")]
        assert res.feature_sets == expected


def test_enumerate_axp_single(toy_dl, toy_bt, row1):
    for model in (toy_dl, toy_bt):
        res = enumerate_smallest(Kind.AXP, model, row1, n=20)
        assert res.exhausted
        assert res.feature_sets == [F(model.space, "Education", "Status",
                                      "Occupation", "Relationship")]


def test_two_rule_dl_axp_shrinks_with_knowledge(small_dl, separated_male,
                                                marital_constraint):
    sp = small_dl.space
    plain = find_axp(small_dl, separated_male)
    assert plain.features == F(sp, "Status", "Relationship", "Sex")
    assisted = find_axp(small_dl, separated_male, knowledge=marital_constraint)
    assert assisted.features == F(sp, "Relationship", "Sex")
    assert assisted.knowledge_assisted


def test_two_rule_dl_cxp_landscape(small_dl, separated_male, marital_constraint):
    sp = small_dl.space
    no_kb = enumerate_smallest(Kind.CXP, small_dl, separated_male, n=1)
    assert no_kb.feature_sets == [F(sp, "Status")]
    # the Status flip is knowledge-inconsistent, so {Status} stops being a CXp
    assert not check_explanation(F(sp, "Status"), Kind.CXP, small_dl,
                                 separated_male, knowledge=marital_constraint)
    # growing it minimally (ascending) restores validity at {Status, Relationship}
    grown = None
    for f in sorted(set(range(sp.m)) - F(sp, "Status")):
        cand = F(sp, "Status") | {f}
        if check_explanation(cand, Kind.CXP, small_dl, separated_male,
                             knowledge=marital_constraint):
            grown = cand
            break
    assert grown == F(sp, "Status", "Relationship")
    # its knowledge-free reduction is contained in it
    reduced = reduce_explanation(grown, Kind.CXP, small_dl, separated_male)
    assert reduced.features <= grown


def test_remark_threshold_classifier(threshold_dl, bool3_space):
    sp = bool3_space
    v = sp.instance(["1", "1", "0"])
    phi = KnowledgeBase.from_rules(sp, [
        Rule(frozenset({sp.literal("c", "0")}), sp.literal("a", "1"), id=0),
        Rule(frozenset({sp.literal("c", "0")}), sp.literal("b", "1"), id=1)])
    assert find_axp(threshold_dl, v).features == F(sp, "a", "b")
    assert find_axp(threshold_dl, v, knowledge=phi).features == F(sp, "c")


def test_remark_parity_classifier(parity_dl, bool3_space):
    sp = bool3_space
    v = sp.instance(["1", "1", "1"])
    phi = KnowledgeBase.from_rules(sp, [
        Rule(frozenset({sp.literal("a", "1")}), sp.literal("b", "1"), id=0),
        Rule(frozenset({sp.literal("b", "1")}), sp.literal("a", "1"), id=1)])
    assert reduce_explanation({0}, Kind.CXP, parity_dl, v).features == F(sp, "a")
    res = enumerate_smallest(Kind.CXP, parity_dl, v, knowledge=phi, n=20)
    assert res.exhausted and res.feature_sets == [F(sp, "c")]


# ---------------------------------------------------------------------------
# check / reduce

def test_check_explanation_trivial_bounds(toy_dl, row1):
    sp = toy_dl.space
    assert check_explanation(range(sp.m), Kind.AXP, toy_dl, row1)
    assert not check_explanation([], Kind.AXP, toy_dl, row1)
    with pytest.raises(ExplainError):
        check_explanation([99], Kind.AXP, toy_dl, row1)


def test_check_explanation_knowledge_flip(small_dl, separated_male,
                                          marital_constraint):
    sp = small_dl.space
    target = F(sp, "Relationship", "Sex")
    assert not check_explanation(target, Kind.AXP, small_dl, separated_male)
    assert check_explanation(target, Kind.AXP, small_dl, separated_male,
                             knowledge=marital_constraint)


def test_reduce_is_fixpoint_on_minimal(toy_dl, row1):
    axp = find_axp(toy_dl, row1)
    again = reduce_explanation(axp.features, Kind.AXP, toy_dl, row1)
    assert again.features == axp.features


def test_reduce_full_set_reaches_minimal(toy_dl, row1):
    reduced = reduce_explanation(range(toy_dl.space.m), Kind.AXP, toy_dl, row1)
    assert reduced.features == F(toy_dl.space, "Education", "Status",
                                 "Occupation", "Relationship")


def test_reduce_strict_shrink_of_oversized():
    rng = random.Random(404)
    shrunk = {Kind.AXP: 0, Kind.CXP: 0}
    for _ in range(30):
        sp = random_space(rng, min_features=3, max_features=4)
        model = random_model(rng, sp)
        v = random_instance(rng, sp)
        full = frozenset(range(sp.m))
        for kind in Kind:
            minimal = all_minimal_explanations(model, v, model.classify(v),
                                               KnowledgeBase(), kind)
            if not minimal:  # no point of another class: no CXp at all
                assert kind is Kind.CXP
                with pytest.raises(ExplainError, match="admits no counterexample"):
                    reduce_explanation(full, kind, model, v)
                continue
            reduced = reduce_explanation(full, kind, model, v)
            assert reduced.kind is kind and reduced.features in minimal
            if full not in minimal:
                assert reduced.features < full
                shrunk[kind] += 1
    assert all(shrunk.values())


def test_seed_preconditions_raise(toy_dl, row1):
    with pytest.raises(ExplainError):
        reduce_explanation([4, 5], Kind.AXP, toy_dl, row1)  # Sex+Hours cannot entail
    with pytest.raises(ExplainError):
        reduce_explanation([4], Kind.CXP, toy_dl, row1)     # freeing Sex flips nothing
    # a feature outside the space is rejected the same way for both kinds
    seed = list(range(toy_dl.space.m)) + [99]
    outside = re.escape("feature index 99 out of range [0, %d)" % toy_dl.space.m)
    for kind in Kind:
        for call in (lambda: reduce_explanation(seed, kind, toy_dl, row1),
                     lambda: check_explanation(seed, kind, toy_dl, row1)):
            with pytest.raises(ExplainError, match=outside):
                call()
    with pytest.raises(ExplainError, match=outside):
        attribute_rules(toy_dl, row1, KnowledgeBase(), seed)


def test_axp_call_budget(toy_dl, row1):
    m = toy_dl.space.m
    for find in (find_axp, find_cxp):
        oracle = EntailmentOracle(toy_dl)
        first = find(toy_dl, row1, oracle=oracle)
        # one validation call plus one deletion test per feature
        assert oracle.calls == m + 1
        searched = oracle.calls - oracle.store_hits
        # asked again, every question is answered from the store, and
        # `calls` still counts each one
        assert find(toy_dl, row1, oracle=oracle) == first
        assert oracle.calls == 2 * (m + 1)
        assert oracle.calls - oracle.store_hits == searched


def test_mismatched_oracle_rejected(small_dl, toy_dl, separated_male,
                                    marital_constraint):
    # an oracle built without K takes K's clauses when a call names them
    plain_oracle = EntailmentOracle(small_dl)
    assert find_axp(small_dl, separated_male, knowledge=marital_constraint,
                    oracle=plain_oracle) \
        == find_axp(small_dl, separated_male, knowledge=marital_constraint,
                    oracle=EntailmentOracle(small_dl, marital_constraint))
    with pytest.raises(ExplainError, match="different model"):
        find_axp(small_dl, separated_male, oracle=EntailmentOracle(toy_dl))
    # an oracle over K answers without K: knowledge=None is the empty subset
    kb_oracle = EntailmentOracle(small_dl, marital_constraint)
    plain = find_axp(small_dl, separated_male)
    assert find_axp(small_dl, separated_male, oracle=kb_oracle) == plain
    assisted = find_axp(small_dl, separated_male, knowledge=marital_constraint,
                        oracle=kb_oracle)
    assert assisted.features < plain.features and assisted.knowledge_assisted


def test_oracle_over_another_model_rejected(toy_ds, toy_dl, toy_bt):
    v = toy_dl.space.instance_from_labels(toy_ds.row_labels(5))
    assert names_of(toy_dl.space, find_axp(toy_dl, v).features) == ["Relationship"]
    bt_oracle = EntailmentOracle(toy_bt)
    calls = [lambda: find_axp(toy_dl, v, oracle=bt_oracle),
             lambda: find_cxp(toy_dl, v, oracle=bt_oracle),
             lambda: check_explanation([3], Kind.AXP, toy_dl, v, oracle=bt_oracle),
             lambda: reduce_explanation([3], Kind.AXP, toy_dl, v, oracle=bt_oracle),
             lambda: enumerate_smallest(Kind.AXP, toy_dl, v, oracle=bt_oracle),
             lambda: attribute_rules(toy_dl, v, KnowledgeBase(), [3], oracle=bt_oracle)]
    for call in calls:
        with pytest.raises(ExplainError, match="different model"):
            call()
    assert bt_oracle.calls == 0


def test_instance_of_the_wrong_length_is_rejected_before_use(toy_dl, toy_bt, row1):
    """Every entry point checks an instance's length before it classifies
    it: an OracleError names both counts, and the supplied oracle is asked
    nothing."""
    m = toy_dl.space.m
    short, long = Instance(row1.values[:2]), Instance(row1.values + (0, 0))
    for model in (toy_dl, toy_bt):
        for v in (short, long):
            oracle = EntailmentOracle(model)
            calls = [lambda: find_axp(model, v, oracle=oracle),
                     lambda: find_cxp(model, v, oracle=oracle),
                     lambda: check_explanation([0], Kind.AXP, model, v, oracle=oracle),
                     lambda: reduce_explanation([0], Kind.CXP, model, v, oracle=oracle),
                     lambda: enumerate_smallest(Kind.CXP, model, v, oracle=oracle),
                     lambda: attribute_rules(model, v, KnowledgeBase(), [0],
                                             oracle=oracle)]
            for call in calls:
                with pytest.raises(OracleError, match="instance has %d values, space "
                                   "has %d features" % (len(v.values), m)):
                    call()
            assert oracle.calls == 0


def test_non_integer_values_and_indices_are_rejected_before_use(toy_dl, toy_bt, row1):
    """A float instance value, or a float feature index that equals a valid
    one, is an input error naming the value at every entry point, the
    oracle's own (a float contested class too) and the hitting-set solver's
    included; the supplied oracle is asked nothing."""
    m = toy_dl.space.m
    value = Instance((float(row1.values[0]),) + row1.values[1:])
    seed = [0, 1.0] + list(range(2, m))  # the float survives the set: it comes first
    for model in (toy_dl, toy_bt):
        oracle = EntailmentOracle(model)
        on_value = [lambda: find_axp(model, value, oracle=oracle),
                    lambda: find_cxp(model, value, oracle=oracle),
                    lambda: check_explanation([0], Kind.AXP, model, value, oracle=oracle),
                    lambda: reduce_explanation([0], Kind.CXP, model, value, oracle=oracle),
                    lambda: enumerate_smallest(Kind.CXP, model, value, oracle=oracle),
                    lambda: attribute_rules(model, value, KnowledgeBase(), [0],
                                            oracle=oracle),
                    lambda: oracle.query({0}, value, 0),
                    lambda: oracle.compatible(value)]
        for call in on_value:
            with pytest.raises(OracleError, match="feature 0 value %r is not an integer"
                               % value.values[0]):
                call()
        on_index = [lambda: reduce_explanation(seed, Kind.AXP, model, row1, oracle=oracle),
                    lambda: check_explanation(seed, Kind.AXP, model, row1, oracle=oracle),
                    lambda: reduce_explanation(seed, Kind.CXP, model, row1, oracle=oracle),
                    lambda: attribute_rules(model, row1, KnowledgeBase(), seed,
                                            oracle=oracle)]
        for call in on_index:
            with pytest.raises(ExplainError, match="feature index 1.0 is not an integer"):
                call()
        with pytest.raises(OracleError, match="fixed feature index 1.0 is not an integer"):
            oracle.query(seed, row1, 0)
        with pytest.raises(OracleError, match="contested class 0.0 is not an integer"):
            oracle.query(seed[:1], row1, 0.0)
        assert oracle.calls == 0
    for sets, blocked in (([{1.0}], []), ([{1}], [{0, 1.0}]), ([{True}], [])):
        with pytest.raises(ExplainError, match=r"element (1\.0|True) is not an integer"):
            minimum_hitting_set(sets, blocked, 3)


def test_knowledge_outside_the_space_is_rejected_before_use(toy_dl, toy_bt, row1):
    """A clause with a literal on a feature the space lacks, or on a value
    index outside its feature's domain, or with an index that is not an
    integer, is an input error naming both at
    every entry point, at the oracle's build and in its `query` and
    `compatible`; a supplied oracle is asked nothing and enters no clause
    of the base, not even its valid ones."""
    sp = toy_dl.space
    valid = Clause.of([sp.literal(0, row1.values[0])])
    bad = {(20, 0): Clause.of([Literal(20, False, 0), Literal(1, False, 0)]),
           (0, 9): Clause.of([Literal(0, False, 9)]),
           (1.0, 0): Clause.of([Literal(1.0, False, 0)]),
           (0, 1.0): Clause.of([Literal(0, True, 1.0), Literal(1, False, 0)])}
    for model in (toy_dl, toy_bt):
        for (feature, value), clause in bad.items():
            kb = KnowledgeBase((valid, clause))
            message = re.escape("knowledge literal outside the model's space: "
                                "feature %r, value index %r" % (feature, value))
            oracle = EntailmentOracle(model)
            entry_points = [
                lambda o: find_axp(model, row1, knowledge=kb, oracle=o),
                lambda o: find_cxp(model, row1, knowledge=kb, oracle=o),
                lambda o: check_explanation([0], Kind.AXP, model, row1, knowledge=kb,
                                            oracle=o),
                lambda o: reduce_explanation(range(sp.m), Kind.AXP, model, row1,
                                             knowledge=kb, oracle=o),
                lambda o: enumerate_smallest(Kind.CXP, model, row1, knowledge=kb,
                                             oracle=o),
                lambda o: attribute_rules(model, row1, kb, range(sp.m), oracle=o)]
            for call in entry_points:
                for o in (oracle, None):
                    with pytest.raises(OracleError, match=message):
                        call(o)
            with pytest.raises(OracleError, match=message):
                oracle.query({0}, row1, 0, kb)
            with pytest.raises(OracleError, match=message):
                oracle.compatible(row1, kb)
            with pytest.raises(OracleError, match=message):
                EntailmentOracle(model, kb)
            assert oracle.calls == 0 and not oracle._kb_ids


# ---------------------------------------------------------------------------
# the hitting-set engine

def test_minimum_hitting_set_basics():
    assert minimum_hitting_set([], [], 4) == frozenset()
    assert minimum_hitting_set([{1, 3}], [], 4) == frozenset({1})
    assert minimum_hitting_set([{1, 3}, {3, 2}], [], 4) == frozenset({3})
    assert minimum_hitting_set([{0}, {1}], [], 4) == frozenset({0, 1})
    # blocking the optimum forces the next candidate
    assert minimum_hitting_set([{1, 3}, {3, 2}], [{3}], 4) == frozenset({1, 2})
    # empty dual or empty blocked emission: infeasible
    assert minimum_hitting_set([set()], [], 4) is None
    assert minimum_hitting_set([{1}], [set()], 4) is None


def test_minimum_hitting_set_matches_bruteforce():
    rng = random.Random(123)
    for _ in range(150):
        m = rng.randint(2, 6)
        sets = [frozenset(rng.sample(range(m), rng.randint(1, m)))
                for _ in range(rng.randint(0, 5))]
        answer = minimum_hitting_set(sets, [], m)
        brute = all_minimal_hitting_sets(sets, m) if sets else [frozenset()]
        if not brute:
            assert answer is None
            continue
        best = min(len(s) for s in brute)
        assert answer is not None and len(answer) == best
        assert all(answer & s for s in sets)
        # lexicographically first among the smallest
        smallest = sorted(sorted(s) for s in brute if len(s) == best)
        assert sorted(answer) == smallest[0]


def test_minimum_hitting_set_rejects_elements_outside_universe():
    for sets, blocked, element in (([{5}], [], 5), ([{-1}], [], -1),
                                   ([{1}], [{0, 4}], 4)):
        with pytest.raises(ExplainError,
                           match=re.escape("element %d out of range [0, 4)" % element)):
            minimum_hitting_set(sets, blocked, 4)


def _grow_step(rng, m, last):
    """One set to hit or to block. Like the enumerator's, most sets to hit
    miss the last answer and most blocked sets are the last answer; now and
    then a set is empty."""
    if rng.random() < 0.03:
        return rng.random() < 0.5, frozenset()
    pool = list(range(m))
    if rng.random() < 0.5:
        if rng.random() < 0.7 and last is not None and len(last) < m:
            pool = [e for e in pool if e not in last]
        return True, frozenset(rng.sample(pool, rng.randint(1, len(pool))))
    if rng.random() < 0.6 and last:
        return False, last
    return False, frozenset(rng.sample(pool, rng.randint(1, min(3, m))))


def test_incremental_hitting_sets_match_bruteforce():
    """Grown one set at a time, the incremental solver (which takes and
    gives masks), the one-shot `minimum_hitting_set` and the brute-force
    reference agree after every step, through the empty answer and
    infeasibility."""
    rng = random.Random(4096)
    outcomes = {"empty": 0, "none": 0, "same size": 0, "larger": 0}

    def elements(mask):
        return None if mask is None else frozenset(e for e in range(m) if mask >> e & 1)

    for _ in range(400):
        m = rng.randint(1, 8)
        hs, sets, blocked = _HittingSets(m), [], []
        last = elements(hs.minimum())
        assert last == frozenset()
        for _ in range(rng.randint(1, 14)):
            to_hit, chosen = _grow_step(rng, m, last)
            mask = sum(1 << e for e in chosen)
            if to_hit:
                sets.append(chosen)
                hs.hit(mask)
            else:
                blocked.append(chosen)
                hs.block(mask)
            got = elements(hs.minimum())
            assert got == minimum_hitting_set(sets, blocked, m)
            assert got == minimum_hitting_set_bruteforce(sets, blocked, m)
            if got is None:
                outcomes["none"] += 1
            elif not got:
                outcomes["empty"] += 1
            elif last is not None:
                outcomes["same size" if len(got) == len(last) else "larger"] += 1
            if got is None and last is None:
                break  # infeasible twice: later steps stay infeasible
            last = got
    assert min(outcomes.values()) >= 20, outcomes


# ---------------------------------------------------------------------------
# enumeration equals the brute-force explanation sets

def test_enumeration_matches_bruteforce_sets():
    rng = random.Random(314)
    for trial in range(40):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        model = random_model(rng, sp)
        v = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, v) if rng.random() < 0.5 else KnowledgeBase()
        c = model.classify(v)
        for kind in (Kind.AXP, Kind.CXP):
            res = enumerate_smallest(kind, model, v, knowledge=kb, n=200)
            brute = all_minimal_explanations(model, v, c, kb, kind)
            assert res.exhausted
            assert set(res.feature_sets) == set(brute), "trial %d" % trial
            sizes = [len(s) for s in res.feature_sets]
            assert sizes == sorted(sizes)


# sha256 over `_enumeration_pin_texts`, recorded when a stored witness came
# to answer any query; before that, the same texts had the same digest
ENUMERATION_PIN = "79573328d358c01b9733357da43a913ca5480f790f832c8b767a33cad844803c"


def _enumeration_pin_texts():
    """(feature sets in emission order, exhausted) of seeded enumerations on ten random spaces: 2- and 3-class decision lists and
    boosted trees, AXp and CXp, without and with knowledge, truncated (n=3)
    or run to exhaustion."""
    rng = random.Random(1111)
    texts = []
    for _ in range(10):
        sp = random_space(rng, min_features=6, max_features=10, max_domain=4)
        models = [random_dl(rng, sp, n_classes=2, max_rules=12),
                  random_dl(rng, sp, n_classes=3, max_rules=12),
                  random_bt(rng, sp, n_classes=2, max_trees=8, depth=3),
                  random_bt(rng, sp, n_classes=3, max_trees=8, depth=3)]
        for model in models:
            v = random_instance(rng, sp)
            kb = random_knowledge(rng, sp, v, max_clauses=5)
            for knowledge in (None, kb):
                for kind in Kind:
                    res = enumerate_smallest(kind, model, v, knowledge=knowledge,
                                             n=rng.choice((3, 200)))
                    texts.append(repr(([sorted(s) for s in res.feature_sets],
                                       res.exhausted)))
    return texts


def test_enumeration_outputs_pinned():
    texts = _enumeration_pin_texts()
    assert len(texts) == 10 * 4 * 2 * 2
    digest = hashlib.sha256("\0".join(texts).encode("utf-8")).hexdigest()
    assert digest == ENUMERATION_PIN


def _answer(call, oracle):
    """What one explain call returns through the oracle (None: none), or the
    ExplainError it raises. Of an enumeration, the sets and `exhausted`:
    its `oracle_calls` depends on what the oracle was asked before."""
    try:
        got = call(oracle)
    except ExplainError as exc:
        return "ExplainError: %s" % exc
    if isinstance(got, EnumerationResult):
        return got.explanations, got.exhausted
    return got


def _outcome(call, oracle):
    """`_answer` through the oracle, and how many queries it answered for
    it, unless it enumerated (its answer is a tuple)."""
    calls0 = oracle.calls
    answer = _answer(call, oracle)
    return answer, None if isinstance(answer, tuple) else oracle.calls - calls0


def test_shared_oracle_matches_fresh_oracles():
    """One oracle over (model, K), shared across rows and knowledge subsets,
    answers every explain call as a fresh oracle over the subset does."""
    rng = random.Random(1789)
    subsets = strict = 0
    for trial in range(30):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        make = random_dl if trial % 2 else random_bt
        model = make(rng, sp, n_classes=(2, 3)[trial // 2 % 2])
        v = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, v, max_clauses=5)
        shared = EntailmentOracle(model, kb)
        rows = [v] + [u for u in (random_instance(rng, sp) for _ in range(2))
                      if kb.satisfied_by(u)]
        for u in rows:
            picks = [None, kb] + [kb.subset(rng.sample(kb.clauses,
                                                       rng.randrange(len(kb))))
                                  for _ in range(2 if kb else 0)]
            for knowledge in picks:
                seed = frozenset(rng.sample(range(sp.m), rng.randint(1, sp.m)))
                n = rng.randint(1, 6)
                calls = [lambda o: find_axp(model, u, knowledge=knowledge, oracle=o),
                         lambda o: find_cxp(model, u, knowledge=knowledge, oracle=o),
                         lambda o: reduce_explanation(seed, Kind.AXP, model, u,
                                                      knowledge=knowledge, oracle=o),
                         lambda o: attribute_rules(
                             model, u, knowledge or KnowledgeBase(), find_axp(
                                 model, u, knowledge=knowledge, oracle=o).features,
                             oracle=o)]
                for kind in Kind:
                    calls += [
                        lambda o, kind=kind: check_explanation(
                            seed, kind, model, u, knowledge=knowledge, oracle=o),
                        lambda o, kind=kind: reduce_explanation(
                            seed, kind, model, u, knowledge=knowledge, oracle=o),
                        lambda o, kind=kind: enumerate_smallest(
                            kind, model, u, knowledge=knowledge, n=n, oracle=o)]
                for call in calls:
                    fresh = EntailmentOracle(model, knowledge)
                    assert _outcome(call, shared) == _outcome(call, fresh), trial
                subsets += 1
                strict += len(knowledge or ()) < len(kb)
    assert subsets > 200 and strict > 100


def _slot_cases(rng, sp):
    """(model, bases, rows): a list with `!=` literals and three classes, a
    single-score and a multiclass ensemble, each with knowledge bases named
    none, k, strict (a strict subset of k), super (k and more) and disjoint
    (no clause of k), and rows that satisfy every base."""
    v = random_instance(rng, sp)
    single = random_single_score_bt(rng, sp)
    dl = random_dl(rng, sp, n_classes=3)
    while not any(l.negated for rule in dl.rules for l in rule.antecedent):
        dl = random_dl(rng, sp, n_classes=3)
    models = [dl, single, random_bt(rng, sp, n_classes=3, depth=3)]
    cases = []
    for model in models:
        k = random_knowledge(rng, sp, v, max_clauses=4)
        while len(k) < 2:
            k = random_knowledge(rng, sp, v, max_clauses=4)
        extra = []
        while not extra:
            extra = [c for c in random_knowledge(rng, sp, v, max_clauses=4).clauses
                     if c not in k.clauses]
        bases = {"none": None, "k": k,
                 "strict": k.subset(rng.sample(k.clauses, len(k) - 1)),
                 "super": KnowledgeBase(k.clauses + tuple(extra)),
                 "disjoint": KnowledgeBase(tuple(extra))}
        rows = [v] + [u for u in (random_instance(rng, sp) for _ in range(6))
                      if bases["super"].satisfied_by(u)]
        cases.append((model, bases, rows))
    return cases


def _explain_calls(model, u, knowledge, rng):
    """One of each explain entry point on (model, u, knowledge), each a
    function of the oracle to pass (None: none)."""
    m = model.space.m
    seed = frozenset(rng.sample(range(m), rng.randint(1, m)))
    n = rng.randint(1, 6)
    kind = rng.choice(list(Kind))
    return [
        lambda o: find_axp(model, u, knowledge=knowledge, oracle=o),
        lambda o: reduce_explanation(seed, Kind.CXP, model, u, knowledge=knowledge,
                                     oracle=o),
        lambda o: check_explanation(seed, kind, model, u, knowledge=knowledge, oracle=o),
        lambda o: reduce_explanation(seed, kind, model, u, knowledge=knowledge, oracle=o),
        lambda o: enumerate_smallest(kind, model, u, knowledge=knowledge, n=n, oracle=o),
        lambda o: attribute_rules(model, u, knowledge or KnowledgeBase(), find_axp(
            model, u, knowledge=knowledge, oracle=o).features, oracle=o)]


def test_calls_without_oracle_match_fresh_oracles(builds):
    """Calls that pass no oracle, interleaved over three models and five
    knowledge bases (none, K, a strict subset, a superset, a disjoint base),
    answer as the same call on a fresh oracle does, while most of them reuse the oracle an earlier call built."""
    rng = random.Random(4242)
    calls = shared_builds = 0
    for _ in range(4):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        cases = _slot_cases(rng, sp)
        model, bases, rows = cases[0]
        for _ in range(60):
            if rng.random() < 0.25:
                model, bases, rows = rng.choice(cases)
            knowledge = bases[rng.choice(list(bases))]
            u = rng.choice(rows)
            for call in _explain_calls(model, u, knowledge, rng):
                fresh = _answer(call, EntailmentOracle(model, knowledge))
                built = len(builds)
                assert _answer(call, None) == fresh
                shared_builds += len(builds) - built
                calls += 1
    assert calls == 4 * 60 * 6 and shared_builds < calls // 5, shared_builds


def test_calls_without_oracle_build_per_model(builds):
    """Calls on one model object build one oracle whatever knowledge they
    name: K-free, K, a subset, a disjoint base and a superset of K all ask
    it. Only an equal model that is another object builds again."""
    rng = random.Random(77)
    sp = random_space(rng, min_features=4, max_features=5)
    model, bases, rows = _slot_cases(rng, sp)[2]
    k, v = bases["k"], rows[0]
    builds.clear()
    steps = [(model, None, 1), (model, k, 1), (model, None, 1),
             (model, bases["strict"], 1), (model, k, 1),
             (copy.copy(model), k, 2), (model, k, 3),
             (model, bases["disjoint"], 3), (model, bases["super"], 3),
             (model, k, 3), (model, bases["disjoint"], 3), (model, None, 3)]
    for other, knowledge, expected in steps:
        enumerate_smallest(Kind.AXP, other, v, knowledge=knowledge, n=3)
        find_cxp(other, v, knowledge=knowledge)
        assert len(builds) == expected


def test_threads_without_oracle_keep_their_own():
    """Threads enumerating on one model at the same time give the serial
    sets and `exhausted`, each on an oracle of its own."""
    rng = random.Random(31)
    sp = random_space(rng, min_features=4, max_features=5)
    model, bases, rows = _slot_cases(rng, sp)[2]
    tasks = [(kind, u, bases[name]) for u in rows[:3] for kind in Kind
             for name in ("none", "k", "strict")]
    serial = [enumerate_smallest(kind, model, u, knowledge=kb, n=4,
                                 oracle=EntailmentOracle(model, kb))
              for kind, u, kb in tasks]
    workers = 4
    start = threading.Barrier(workers)
    got, used = {}, {}

    def work(w):
        start.wait(timeout=10)
        got[w] = [enumerate_smallest(kind, model, u, knowledge=kb, n=4)
                  for kind, u, kb in tasks]
        used[w] = explain_module._slot.oracle

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    sets = [(res.explanations, res.exhausted) for res in serial]
    assert all([(res.explanations, res.exhausted) for res in got[w]] == sets
               for w in range(workers))
    assert len({id(o) for o in used.values()}) == workers


def test_enumerations_do_not_depend_on_the_rows_before(monkeypatch):
    """A list, a single-score and a 3-class ensemble on each of three spaces,
    with and without K: one shared oracle enumerates the AXps and CXps of the
    same rows in order, and another in reversed order. The sets and
    `exhausted` are equal, though `oracle_calls` is not for some, so stored
    witnesses did seed other duals. Every witness an oracle returned passes
    direct evaluation."""
    rng = random.Random(2121)
    enumerations = differ = witnesses = 0
    for _ in range(3):
        sp = random_space(rng, min_features=5, max_features=7, max_domain=3)
        v = random_instance(rng, sp)
        single = random_single_score_bt(rng, sp)
        for model in (random_dl(rng, sp, n_classes=rng.choice((2, 3))), single,
                      random_bt(rng, sp, n_classes=3, depth=3)):
            kb = random_knowledge(rng, sp, v, max_clauses=5)
            rows = [v] + [u for u in (random_instance(rng, sp) for _ in range(6))
                          if kb.satisfied_by(u)]
            tasks = [(kind, u, knowledge) for u in rows for knowledge in (None, kb)
                     for kind in Kind]
            runs = []
            for order in (range(len(tasks)), reversed(range(len(tasks)))):
                oracle, answers = EntailmentOracle(model, kb), []
                query = oracle.query

                def recorded(fixed, u, c, knowledge=None, query=query, answers=answers):
                    fixed = frozenset(f for f in range(sp.m) if fixed >> f & 1)
                    answers.append((fixed, u, c, knowledge, query(fixed, u, c, knowledge)))
                    return answers[-1][-1]

                monkeypatch.setattr(oracle, "query", recorded)
                results = {}
                for i in order:
                    kind, u, knowledge = tasks[i]
                    results[i] = enumerate_smallest(kind, model, u, knowledge=knowledge,
                                                    n=6, oracle=oracle)
                runs.append(results)
                for fixed, u, c, knowledge, res in answers:
                    if res.witness is not None:
                        active = kb if knowledge is None else knowledge
                        assert_counterexample(model, active, fixed, u, c, res.witness)
                        witnesses += 1
            forward, reverse = runs
            for i in range(len(tasks)):
                a, b = forward[i], reverse[i]
                assert (a.explanations, a.exhausted) == (b.explanations, b.exhausted)
                differ += a.oracle_calls != b.oracle_calls
                enumerations += 1
    assert enumerations == 120 and witnesses > 1000, (enumerations, witnesses)
    assert differ >= 20, differ  # so stored witnesses did seed other duals


QUESTION_PIN = (3748, "834764d399c27d10")


def _asked(call, *args, **kwargs):
    """The call's answer, or None when its seed fails (no counterexample)."""
    try:
        return call(*args, **kwargs)
    except ExplainError:
        return None


def test_question_sequence_pinned(monkeypatch):
    """Seeded explain calls on one shared oracle per model (a 3-class list,
    a single-score and a 3-class ensemble on each of four spaces), with and
    without K, attributions under K and under a strict subset included. Every
    question the oracles are asked, in order, as its fixed set, contested
    class, the ids of the clauses in force, status and witness, hashes to
    the pin: the explain layer asks the same questions in the same order."""
    rng = random.Random(5150)
    questions = []
    for _ in range(4):
        sp = random_space(rng, min_features=4, max_features=6, max_domain=3)
        v = random_instance(rng, sp)
        for model in (random_dl(rng, sp, n_classes=3), random_single_score_bt(rng, sp),
                      random_bt(rng, sp, n_classes=3, depth=3)):
            kb = random_knowledge(rng, sp, v, max_clauses=5)
            rows = [v] + [u for u in (random_instance(rng, sp) for _ in range(4))
                          if kb.satisfied_by(u)]
            oracle = EntailmentOracle(model, kb)
            ids = {clause: i for i, clause in enumerate(kb.clauses)}
            query = oracle.query

            def recorded(fixed, u, c, knowledge=None, query=query, ids=ids):
                res = query(fixed, u, c, knowledge)
                fixed = [f for f in range(sp.m) if fixed >> f & 1]
                active = range(len(ids)) if knowledge is None \
                    else sorted(ids[clause] for clause in knowledge.clauses)
                questions.append("%s %d %s %s %s" % (
                    fixed, c, list(active), res.status.value,
                    res.witness and list(res.witness.values)))
                return res

            monkeypatch.setattr(oracle, "query", recorded)
            strict = kb.subset(kb.clauses[1:])
            for u in rows:
                for knowledge in (None, kb):
                    for kind in Kind:
                        enumerate_smallest(kind, model, u, knowledge=knowledge, n=4,
                                           oracle=oracle)
                        _asked(reduce_explanation, range(sp.m), kind, model, u,
                               knowledge=knowledge, oracle=oracle)
                    _asked(find_cxp, model, u, knowledge=knowledge, oracle=oracle)
                    axp = find_axp(model, u, knowledge=knowledge, oracle=oracle)
                    check_explanation(axp.features, Kind.CXP, model, u,
                                      knowledge=knowledge, oracle=oracle)
                for knowledge in (kb, strict):
                    axp = find_axp(model, u, knowledge=knowledge, oracle=oracle)
                    attribute_rules(model, u, knowledge, axp.features, oracle=oracle)
    digest = hashlib.sha256("\n".join(questions).encode("utf-8")).hexdigest()
    assert (len(questions), digest[:16]) == QUESTION_PIN


def test_enumeration_truncates_at_n(toy_dl, row1):
    res = enumerate_smallest(Kind.CXP, toy_dl, row1, n=2)
    assert len(res.explanations) == 2 and not res.exhausted


def test_enumeration_rejects_n_below_one(toy_dl, row1):
    oracle = EntailmentOracle(toy_dl, None)
    for n in (0, -3):
        with pytest.raises(ExplainError, match=re.escape("n %d out of range [1, inf)" % n)):
            enumerate_smallest(Kind.AXP, toy_dl, row1, n=n, oracle=oracle)
    assert oracle.calls == 0


def test_unknown_kinds_and_negative_universes_are_input_errors(toy_dl, row1):
    oracle = EntailmentOracle(toy_dl)
    calls = [lambda: enumerate_smallest("AXP", toy_dl, row1, oracle=oracle),
             lambda: check_explanation([0], "AXP", toy_dl, row1, oracle=oracle),
             lambda: reduce_explanation([0], 3, toy_dl, row1, oracle=oracle)]
    for call, kind in zip(calls, ("'AXP'", "'AXP'", "3")):
        with pytest.raises(ExplainError, match="kind %s is not one of axp, cxp" % kind):
            call()
    assert oracle.calls == 0
    assert check_explanation(range(toy_dl.space.m), "axp", toy_dl, row1, oracle=oracle)
    for universe in (-1, -5):
        with pytest.raises(ExplainError, match=re.escape("universe %d out of range [0, inf)"
                                                         % universe)):
            minimum_hitting_set([], [], universe)
    assert minimum_hitting_set([], [], 0) == frozenset()


def test_non_integer_counts_are_input_errors(toy_dl, row1):
    oracle = EntailmentOracle(toy_dl, None)
    for n in (1.5, True):
        with pytest.raises(ExplainError, match="n %r is not an integer" % (n,)):
            enumerate_smallest(Kind.AXP, toy_dl, row1, n=n, oracle=oracle)
    assert oracle.calls == 0
    with pytest.raises(ExplainError, match="universe 3.0 is not an integer"):
        minimum_hitting_set([{1}], [], 3.0)


def test_axps_and_cxps_hit_each_other():
    """Every AXp of an exhaustive AXp enumeration intersects every CXp of an
    exhaustive CXp enumeration."""
    rng = random.Random(99)
    for _ in range(20):
        sp = random_space(rng, min_features=3, max_features=4)
        model = random_model(rng, sp)
        v = random_instance(rng, sp)
        axps = enumerate_smallest(Kind.AXP, model, v, n=50)
        cxps = enumerate_smallest(Kind.CXP, model, v, n=50)
        assert axps.exhausted and cxps.exhausted
        for axp in axps.feature_sets:
            for cxp in cxps.feature_sets:
                assert axp & cxp, "duality violated"


def test_every_emission_is_minimal():
    rng = random.Random(2718)
    for _ in range(20):
        sp = random_space(rng, min_features=3, max_features=4)
        model = random_model(rng, sp)
        v = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, v)
        for kind in (Kind.AXP, Kind.CXP):
            res = enumerate_smallest(kind, model, v, knowledge=kb, n=50)
            for fs in res.feature_sets:
                assert check_explanation(fs, kind, model, v, knowledge=kb)
                for f in fs:
                    assert not check_explanation(fs - {f}, kind, model, v,
                                                 knowledge=kb)


# ---------------------------------------------------------------------------
# attribution

def test_attribute_single_responsible_rule(small_dl, separated_male,
                                           marital_constraint):
    sp = small_dl.space
    used = attribute_rules(small_dl, separated_male, marital_constraint,
                           F(sp, "Relationship", "Sex"))
    assert len(used) == 1
    assert used.provenance[used.clauses[0]] == (0,)


def test_attribute_empty_for_plain_axp(small_dl, separated_male,
                                       marital_constraint):
    sp = small_dl.space
    used = attribute_rules(small_dl, separated_male, marital_constraint,
                           F(sp, "Status", "Relationship", "Sex"))
    assert len(used) == 0


def test_attribute_without_knowledge_is_empty(small_dl, separated_male):
    # None is no knowledge, as in the other entry points
    axp = find_axp(small_dl, separated_male).features
    used = attribute_rules(small_dl, separated_male, None, axp)
    assert isinstance(used, KnowledgeBase) and len(used) == 0


def test_attribute_precondition(small_dl, separated_male, marital_constraint):
    with pytest.raises(ExplainError):
        attribute_rules(small_dl, separated_male, marital_constraint,
                        F(small_dl.space, "Sex"))


def test_attribute_minimality_random():
    rng = random.Random(555)
    checked = 0
    while checked < 25:
        sp = random_space(rng, min_features=3, max_features=4)
        model = random_model(rng, sp)
        v = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, v, max_clauses=4)
        if not kb:
            continue
        axp = find_axp(model, v, knowledge=kb)
        used = attribute_rules(model, v, kb, axp.features)
        oracle = EntailmentOracle(model, used)
        assert oracle.query(axp.features, v, model.classify(v)).entails
        for clause in used.clauses:
            rest = KnowledgeBase(tuple(c for c in used.clauses if c != clause))
            weaker = EntailmentOracle(model, rest)
            assert not weaker.query(axp.features, v, model.classify(v)).entails
        checked += 1


def test_attribution_matches_reference_with_one_oracle(builds):
    rng = random.Random(808)
    cases = needed_knowledge = 0
    while cases < 60:
        sp = random_space(rng, min_features=3, max_features=5)
        make = random_dl if cases % 2 else random_bt
        model = make(rng, sp, n_classes=rng.choice((2, 3)))
        v = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, v, max_clauses=6)
        if not kb:
            continue
        c = model.classify(v)
        # the AXp search and the attribution share one oracle, and no
        # deletion trial builds another
        built = len(builds)
        axp = find_axp(model, v, knowledge=kb).features
        got = attribute_rules(model, v, kb, axp)
        assert len(builds) - built == 1
        expected = reference_attribution(model, v, kb, axp, c)
        assert got.clauses == expected.clauses
        assert got.provenance == expected.provenance
        cases += 1
        needed_knowledge += bool(got)
    assert needed_knowledge >= 10


# per row of data/adult_toy.csv, the queries an attribution over the 65
# clauses mined at antecedent size 1 asks, for the toy list and the toy
# ensemble alike; the deletion loop alone asks |K| + 2 = 67
ATTRIBUTION_QUERIES = [15, 12, 12, 12, 12, 12]


def test_attribution_skips_the_trials_a_core_decides(toy_ds, toy_dl, toy_bt):
    kb = extract_all(toy_ds, ExtractionLimit(max_size=1))
    assert len(kb) == 65
    for name, model in (("list", toy_dl), ("ensemble", toy_bt)):
        asked = []
        for i in range(len(toy_ds.rows)):
            v = model.space.instance_from_labels(toy_ds.row_labels(i))
            oracle = EntailmentOracle(model, kb)
            axp = find_axp(model, v, knowledge=kb, oracle=oracle).features
            calls = oracle.calls
            attribute_rules(model, v, kb, axp, oracle=oracle)
            asked.append(oracle.calls - calls)
        assert asked == ATTRIBUTION_QUERIES, name
        assert max(asked) < (len(kb) + 2) / 2


def test_cores_entail_and_attributions_match_reference():
    """Every core an entailment leaves lies within the subset in force,
    entails the query by itself, on a fresh oracle over exactly its clauses
    and by brute force, and equals the core a fresh oracle over the whole K
    leaves for the same query: it does not depend on the questions the warm
    oracle was asked before. Attributions, which skip the deletion trials a core
    decides, match the fresh-oracle reference on a warm shared oracle.
    Decision lists, single-score and 3-class ensembles, K of up to 16
    clauses, under the whole K and under strict subsets."""
    rng = random.Random(2406)
    makers = (lambda sp: random_dl(rng, sp, n_classes=3),
              lambda sp: random_single_score_bt(rng, sp),
              lambda sp: random_bt(rng, sp, n_classes=3, depth=3))
    cores = smaller = forcing = attributions = 0
    for case in range(45):
        sp = random_space(rng, min_features=4, max_features=5)
        v = random_instance(rng, sp)
        model = makers[case % 3](sp)
        kb = random_knowledge(rng, sp, v, max_clauses=16)
        oracle = EntailmentOracle(model, kb)
        strict = [kb.subset(rng.sample(kb.clauses, rng.randrange(len(kb))))
                  for _ in range(2)] if kb else []
        rows = [v] + [u for u in (random_instance(rng, sp) for _ in range(4))
                      if kb.satisfied_by(u)]
        for u in rows:
            c = model.classify(u)
            for _ in range(24):  # the subset switches often, and each switch
                knowledge = rng.choice((None, *strict))  # starts from the empty trail
                active = set((kb if knowledge is None else knowledge).clauses)
                fixed = frozenset(rng.sample(range(sp.m), rng.randint(0, sp.m)))
                res = oracle.query(fixed, u, c, knowledge)
                found = oracle._core_clauses()
                if found is None:
                    continue
                assert res.entails
                fresh = EntailmentOracle(model, kb)  # an empty store and trail
                fresh.query(fixed, u, c, knowledge)
                assert fresh._core_clauses() == found, (fixed, u, c)
                core = KnowledgeBase(tuple(found))
                assert set(core.clauses) <= active
                assert EntailmentOracle(model, core).query(fixed, u, c).entails
                assert entails_bruteforce(model, core, fixed, u, c).entails
                cores += 1
                smaller += len(core) < len(active)
                forcing += any(len(clause.literals) > 1 for clause in core.clauses)
            for knowledge in (kb, *strict):
                axp = find_axp(model, u, knowledge=knowledge, oracle=oracle).features
                got = attribute_rules(model, u, knowledge, axp, oracle=oracle)
                expected = reference_attribution(model, u, knowledge, axp, c)
                assert got.clauses == expected.clauses
                attributions += 1
    # most cores leave some clause of the subset out, many hold one that forced
    assert attributions > 150 and cores > 100, (attributions, cores)
    assert smaller > 60 and forcing > 50, (smaller, forcing)
