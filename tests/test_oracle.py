import hashlib
import random
from collections import Counter, deque

import pytest

import kxp.oracle as oracle_module
from kxp import (Clause, FeatureSpace, Instance, Kind, KnowledgeBase, attribute_rules,
                 check_explanation, enumerate_smallest, find_axp)
from kxp.models import DecisionList, DLRule, ModelError
from kxp.oracle import EntailmentOracle, OracleError, OracleResult, Status

from util import (_dl_cnf, assert_counterexample, assert_oracle_invariants,
                  check_compatible, dimacs_satisfiable, entails_bruteforce,
                  mask_values, propagation_fixpoint, query_to_dimacs, random_bt,
                  random_dl, random_instance, random_knowledge, random_model,
                  random_single_score_bt, random_space, recursive_search,
                  tree_tested_features, wide_decision_list)


def Q(model, inst, fixed, contested=None, kb=None):
    """A query's arguments, in the order `query_to_dimacs` and
    `entails_bruteforce` take them."""
    c = model.classify(inst) if contested is None else contested
    return model, kb if kb is not None else KnowledgeBase(), frozenset(fixed), inst, c


def entails(model, kb, fixed, inst, c):
    return EntailmentOracle(model, kb).query(fixed, inst, c)


def feature_ids(space, names):
    return {space.feature_index(n) for n in names}


def test_fixed_four_features_entail(toy_dl, toy_bt, row1):
    for model in (toy_dl, toy_bt):
        fixed = feature_ids(model.space,
                            ["Education", "Status", "Occupation", "Relationship"])
        q = Q(model, row1, fixed)
        assert entails(*q).status is Status.ENTAILS
        assert entails_bruteforce(*q).status is Status.ENTAILS


def test_dropping_occupation_gives_counterexample(toy_dl, toy_bt, row1):
    for model in (toy_dl, toy_bt):
        sp = model.space
        fixed = feature_ids(sp, ["Education", "Status", "Relationship"])
        res = entails(*Q(model, row1, fixed))
        assert res.status is Status.COUNTEREXAMPLE
        # any witness must have flipped the class; the brute-force one flips
        # Occupation to Service, the only flipping value
        brute = entails_bruteforce(*Q(model, row1, fixed))
        occ = sp.feature_index("Occupation")
        assert sp.domain(occ)[brute.witness.values[occ]] == "Service"


def test_knowledge_enables_entailment(small_dl, separated_male, marital_constraint):
    sp = small_dl.space
    fixed = feature_ids(sp, ["Relationship", "Sex"])
    no_kb = Q(small_dl, separated_male, fixed)
    assert entails(*no_kb).status is Status.COUNTEREXAMPLE
    with_kb = Q(small_dl, separated_male, fixed, kb=marital_constraint)
    assert entails(*with_kb).status is Status.ENTAILS
    assert entails_bruteforce(*with_kb).status is Status.ENTAILS


def test_incompatible_instance_rejected(small_dl, marital_constraint):
    sp = small_dl.space
    bad = sp.instance_from_labels({
        "Education": "Dropout", "Status": "Married", "Occupation": "Service",
        "Relationship": "Not-in-family", "Sex": "Male", "Hours/w": "<=40"})
    assert not marital_constraint.satisfied_by(bad)
    with pytest.raises(OracleError, match="incompatible"):
        query_to_dimacs(*Q(small_dl, bad, set(), kb=marital_constraint))
    with pytest.raises(OracleError, match="incompatible"):
        find_axp(small_dl, bad, knowledge=marital_constraint)


def test_compatibility_read_from_clause_masks():
    """`compatible` agrees with `check_compatible`, which walks the clauses,
    on random models, knowledge, instances and subsets (none given, the
    base, a random subset, empty), each asked of one long-lived oracle
    between queries whose statuses stay those of brute force. An explain
    call raises `check_compatible`'s message, the first broken clause
    rendered in feature names and value labels, exactly when the instance
    is incompatible."""
    rng = random.Random(6060)
    seen = Counter()
    for _ in range(150):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=4)
        model = random_model(rng, sp, n_classes=rng.choice((2, 3)))
        v = random_instance(rng, sp)
        kb = _mixed_knowledge(rng, sp, v, rng.randint(1, 6))
        oracle = EntailmentOracle(model, kb)
        for _ in range(6):
            u = v if rng.random() < 0.3 else random_instance(rng, sp)
            subset = rng.choice((None, kb, KnowledgeBase(), kb.subset(
                rng.sample(kb.clauses, rng.randint(0, len(kb))))))
            active = kb if subset is None else subset
            try:
                check_compatible(u, active, sp)
                message = None
            except OracleError as exc:
                message = str(exc)
            assert oracle.compatible(u, subset) == (message is None)
            seen[message is None] += 1
            if message is None:
                find_axp(model, u, knowledge=active, oracle=oracle)
            else:
                with pytest.raises(OracleError) as err:
                    find_axp(model, u, knowledge=active, oracle=oracle)
                assert str(err.value) == message and "Literal(" not in message
            fixed = frozenset(rng.sample(range(sp.m), rng.randint(0, sp.m)))
            c = rng.randrange(model.class_count())
            assert oracle.query(fixed, u, c, subset).status \
                is entails_bruteforce(model, active, fixed, u, c).status
    assert min(seen.values()) >= 250, seen
    with pytest.raises(OracleError, match="feature 0 value 4 out of range"):
        EntailmentOracle(model, kb).compatible(Instance((4,) + v.values[1:]))


def test_malformed_queries_rejected(small_dl, separated_male, marital_constraint):
    sp = small_dl.space
    last = sp.m - 1
    values = separated_male.values
    cases = [
        ({sp.m}, separated_male, 0,
         r"fixed feature index %d out of range \[0, %d\)" % (sp.m, sp.m)),
        ({-1}, separated_male, 0, r"fixed feature index -1 out of range \[0, %d\)" % sp.m),
        (set(), separated_male, 2, r"contested class 2 out of range \[0, 2\)"),
        (set(), Instance(values[:-1]), 0,
         "instance has %d values, space has %d features" % (last, sp.m)),
        (set(), Instance(values[:-1] + (len(sp.domain(last)),)), 0,
         "feature %d value %d out of range" % (last, len(sp.domain(last)))),
        # a bool is no value index
        (set(), Instance((True,) + values[1:]), 0, "feature 0 value True is not an integer"),
        (-1, separated_male, 0, r"fixed mask -1 out of range \[0, %d\)" % (1 << sp.m)),
        (1 << sp.m, separated_male, 0,
         r"fixed mask %d out of range \[0, %d\)" % (1 << sp.m, 1 << sp.m)),
        (True, separated_male, 0, "fixed mask True is not an integer"),
    ]
    oracle = EntailmentOracle(small_dl, marital_constraint)
    for fixed, inst, c, message in cases:
        with pytest.raises(OracleError, match=message):
            oracle.query(fixed, inst, c)
        with pytest.raises(OracleError, match=message):
            query_to_dimacs(small_dl, marital_constraint, fixed, inst, c)


def test_an_instance_is_checked_once_and_no_check_is_lost(small_dl, separated_male,
                                                          marital_constraint):
    """The oracle skips the value check for the instance object that last
    passed it, if its values are a tuple. Still, a malformed instance asked
    after a valid one raises; an instance whose values are a list, mutated
    between two queries, raises on the second; and each explain entry point
    rejects a malformed instance before its first question."""
    sp = small_dl.space
    values = separated_male.values
    oracle = EntailmentOracle(small_dl, marital_constraint)
    out = len(sp.domain(0))
    bad = Instance((out,) + values[1:])
    message = "feature 0 value %d out of range" % out
    for inst, error in ((bad, message),
                        (Instance(values[:-1]), "instance has %d values" % (sp.m - 1))):
        oracle.query(0, separated_male, 0)
        with pytest.raises(OracleError, match=error):
            oracle.query(0, inst, 0)
    expected = oracle.query(1, separated_male, 0)
    listed = Instance(list(values))
    assert oracle.query({0}, listed, 0) == expected
    listed.values[0] = out
    with pytest.raises(OracleError, match=message):
        oracle.query({0}, listed, 0)
    calls = oracle.calls
    entries = (lambda: enumerate_smallest(Kind.AXP, small_dl, bad, oracle=oracle),
               lambda: find_axp(small_dl, bad, oracle=oracle),
               lambda: check_explanation([0], Kind.CXP, small_dl, bad, oracle=oracle),
               lambda: attribute_rules(small_dl, bad, marital_constraint, [0],
                                       oracle=oracle))
    for entry in entries:
        oracle.query(0, separated_male, 0)
        calls += 1
        with pytest.raises(OracleError, match=message):
            entry()
        assert oracle.calls == calls


def test_mask_and_index_queries_agree():
    """`query` takes the fixed features as indices or as a mask. On random
    lists, single-score and 3-class ensembles, with and without K and under
    random subsets of it, two fresh oracles, one asked by masks and one by
    the same index sets in several iterable forms, give the same status and
    witness to every question; the status is the brute-force one and every
    witness passes direct evaluation."""
    rng = random.Random(2929)
    seen = Counter()
    for _ in range(12):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        v = random_instance(rng, sp)
        for model in (random_dl(rng, sp, n_classes=rng.choice((2, 3))),
                      random_single_score_bt(rng, sp), random_bt(rng, sp, n_classes=3)):
            kb = random_knowledge(rng, sp, v, max_clauses=5)
            by_mask, by_index = EntailmentOracle(model, kb), EntailmentOracle(model, kb)
            for _ in range(40):
                u = v if rng.random() < 0.5 else random_instance(rng, sp)
                knowledge = rng.choice((None, KnowledgeBase(), kb.subset(
                    rng.sample(kb.clauses, rng.randint(0, len(kb))))))
                fixed = rng.sample(range(sp.m), rng.randint(0, sp.m))
                c = rng.randrange(model.class_count())
                form = rng.choice((set, frozenset, list, tuple, iter))
                res = by_mask.query(sum(1 << f for f in fixed), u, c, knowledge)
                assert res == by_index.query(form(fixed), u, c, knowledge)
                active = kb if knowledge is None else knowledge
                assert res.status is entails_bruteforce(model, active, fixed, u, c).status
                if res.witness is not None:
                    assert_counterexample(model, active, fixed, u, c, res.witness)
                seen[res.status, knowledge is None] += 1
    assert len(seen) == 4 and min(seen.values()) >= 150, seen


def test_all_fixed_entails(toy_dl, row1):
    q = Q(toy_dl, row1, range(toy_dl.space.m))
    assert entails(*q).entails and entails_bruteforce(*q).entails


def test_constant_model_entails_everywhere():
    sp = FeatureSpace.make([("x", ["a", "b"]), ("y", ["0", "1"])])
    const = DecisionList(sp, ("p", "q"), (), default=0)
    inst = sp.instance(["a", "0"])
    q = Q(const, inst, set())
    assert entails(*q).entails and entails_bruteforce(*q).entails


def test_bruteforce_bound_refused():
    sp = FeatureSpace.make([("f%d" % i, ["a", "b", "c", "d"]) for i in range(15)])
    model = DecisionList(sp, ("p", "q"), (), default=0)
    inst = Instance((0,) * 15)
    with pytest.raises(OracleError, match=str(sp.size())):
        entails_bruteforce(*Q(model, inst, set()))


def test_bruteforce_witness_is_lexicographic_first(toy_dl, row1):
    res = entails_bruteforce(*Q(toy_dl, row1, set()))
    # the first point in value-index order that the DL classifies below 50k
    # and that is it: Education=HighSchool...Occupation=Service path
    assert res.status is Status.COUNTEREXAMPLE
    expected = min(p.values for p in toy_dl.space.points()
                   if toy_dl.classify(p) != toy_dl.classify(row1))
    assert res.witness.values == expected


def test_encoding_faithful_on_full_toy_space(toy_dl, toy_bt):
    # for every point, fixing everything entails exactly the classified class
    for model in (toy_dl, toy_bt):
        oracle = EntailmentOracle(model)
        allf = frozenset(range(model.space.m))
        for point in model.space.points():
            predicted = model.classify(point)
            for c in range(len(model.classes)):
                res = oracle.query(allf, point, c)
                assert res.entails == (predicted == c)


def test_oracle_matches_bruteforce_randomized():
    rng = random.Random(2024)
    for trial in range(150):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        model = random_model(rng, sp, n_classes=rng.choice((2, 2, 3)))
        inst = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, inst)
        fixed = frozenset(rng.sample(range(sp.m), rng.randint(0, sp.m)))
        c = model.classify(inst)
        fast, slow = EntailmentOracle(model, kb).query(fixed, inst, c), \
            entails_bruteforce(model, kb, fixed, inst, c)
        assert fast.status == slow.status, "trial %d disagrees" % trial
        if fast.witness is not None:
            w = fast.witness
            assert all(w.values[f] == inst.values[f] for f in fixed)
            assert kb.satisfied_by(w)
            assert model.classify(w) != c


def test_monotone_in_fixed_set():
    rng = random.Random(77)
    for _ in range(40):
        sp = random_space(rng, min_features=3, max_features=4)
        model = random_model(rng, sp)
        inst = random_instance(rng, sp)
        oracle = EntailmentOracle(model)
        c = model.classify(inst)
        fixed = set(rng.sample(range(sp.m), rng.randint(0, sp.m - 1)))
        if oracle.query(fixed, inst, c).entails:
            grown = fixed | {rng.randrange(sp.m)}
            assert oracle.query(grown, inst, c).entails


def test_knowledge_only_strengthens_entailment():
    rng = random.Random(88)
    for _ in range(40):
        sp = random_space(rng, min_features=3, max_features=4)
        model = random_model(rng, sp)
        inst = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, inst)
        c = model.classify(inst)
        fixed = set(rng.sample(range(sp.m), rng.randint(0, sp.m)))
        if EntailmentOracle(model).query(fixed, inst, c).entails:
            assert EntailmentOracle(model, kb).query(fixed, inst, c).entails


def test_oracle_reuse_is_stateless_across_queries(toy_dl, row1):
    oracle = EntailmentOracle(toy_dl)
    fixed = feature_ids(toy_dl.space, ["Education", "Status", "Occupation",
                                       "Relationship"])
    first = [oracle.query(fixed, row1, toy_dl.classify(row1)).status
             for _ in range(3)]
    loose = oracle.query(set(), row1, toy_dl.classify(row1))
    second = oracle.query(fixed, row1, toy_dl.classify(row1)).status
    assert first == [Status.ENTAILS] * 3
    assert loose.status is Status.COUNTEREXAMPLE and second is Status.ENTAILS
    # the repeats of the entailment come from the store, and so does the
    # repeated counterexample, with the witness it was kept with
    hits = oracle.store_hits
    again = oracle.query(set(), row1, toy_dl.classify(row1))
    assert again == loose and oracle.store_hits == hits + 1
    # `calls` counts every question, stored or searched
    assert (oracle.calls, oracle.store_hits) == (6, 4)


def test_dimacs_dump_cross_checked_small():
    rng = random.Random(31)
    sp = FeatureSpace.make([("a", ["0", "1"]), ("b", ["0", "1"]),
                            ("c", ["0", "1"])])
    queries = []
    for _ in range(25):
        model = random_dl(rng, sp, max_rules=2)
        inst = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, inst, max_clauses=2)
        fixed = frozenset(rng.sample(range(3), rng.randint(0, 3)))
        queries.append((model, kb, fixed, inst, model.classify(inst)))
    # binary and ternary domains; two- and three-class DLs whose challenge for
    # the contested class is [], None, one literal or several; unit clauses
    ternary = FeatureSpace.make([("a", ["0", "1"]), ("b", ["0", "1", "2"]),
                                 ("c", ["0", "1", "2"])])
    for space in (sp, ternary):
        for _ in range(12):
            for model in _challenge_models(rng, space, max_rules=2)[:4]:
                inst = random_instance(rng, space)
                kb = _mixed_knowledge(rng, space, inst, rng.randint(0, 3))
                fixed = frozenset(rng.sample(range(3), rng.randint(0, 3)))
                queries.append((model, kb, fixed, inst,
                                rng.randrange(model.class_count())))
    challenges, units = set(), 0
    for model, kb, fixed, inst, c in queries:
        ch = _dl_cnf(model, c)[1]
        challenges.add(ch if ch is None else min(len(ch), 2))
        units += sum(len(clause.literals) == 1 for clause in kb.clauses)
        text = query_to_dimacs(model, kb, fixed, inst, c)
        counterexample = not entails(model, kb, fixed, inst, c).entails
        assert dimacs_satisfiable(text) == counterexample
    assert challenges == {None, 0, 1, 2} and units > 0


def test_dimacs_bt_dump_structure(toy_bt, row1):
    text = query_to_dimacs(*Q(toy_bt, row1, {0, 1}))
    assert "p cnf" in text
    assert "score comparison is not encoded" in text
    # one leaf variable per leaf of the three trees
    assert text.count("c var") >= 12


# sha256 over the dumps of `_dimacs_pin_texts`, recorded when the dump read
# the decision-list clauses from the oracle's clause database
DIMACS_PIN = "5f05a1af2b087ece6099ab4535e54ddba21c8125f83199748c075d9be251184f"


def _dimacs_pin_texts():
    """`query_to_dimacs` texts on four random spaces. Models: 2- and 3-class
    lists, constant lists, a list with an empty-antecedent rule, single-score
    and multiclass ensembles. Each is queried without and with knowledge under
    every contested class."""
    rng = random.Random(1010)
    texts = []
    for _ in range(4):
        sp = random_space(rng, min_features=3, max_features=4, max_domain=3)
        base = random_dl(rng, sp, n_classes=2, max_rules=4)
        empty = DecisionList(sp, base.classes, base.rules[:1]
                             + (DLRule(frozenset(), 1 - base.default),)
                             + base.rules[1:], base.default)
        models = [base, random_dl(rng, sp, n_classes=3, max_rules=4), empty,
                  DecisionList(sp, ("c0", "c1", "c2"), (), default=rng.randrange(3)),
                  random_single_score_bt(rng, sp), random_bt(rng, sp, n_classes=3)]
        for model in models:
            v = random_instance(rng, sp)
            for kb in (KnowledgeBase(), _mixed_knowledge(rng, sp, v, rng.randint(1, 4))):
                for c in range(model.class_count()):
                    fixed = frozenset(rng.sample(range(sp.m), rng.randint(0, sp.m)))
                    texts.append(query_to_dimacs(model, kb, fixed, v, c))
    return texts


def test_dimacs_dump_pinned():
    texts = _dimacs_pin_texts()
    assert len(texts) == 4 * 2 * (2 + 3 + 2 + 3 + 2 + 3)
    digest = hashlib.sha256("\0".join(texts).encode("utf-8")).hexdigest()
    assert digest == DIMACS_PIN


# ---------------------------------------------------------------------------
# one oracle, many knowledge subsets and contested classes

def _challenge_models(rng, sp, max_rules=8):
    """Decision lists whose class challenges are [], None, one literal or
    several literals, and single-score and multiclass boosted trees."""
    three = ("c0", "c1", "c2")
    f = rng.randrange(sp.m)
    single = DLRule(frozenset({sp.literal(f, rng.randrange(len(sp.domain(f))))}), 1)
    return [random_dl(rng, sp, n_classes=2, max_rules=max_rules),
            random_dl(rng, sp, n_classes=3, max_rules=max_rules),
            DecisionList(sp, three, (), default=rng.randrange(3)),
            DecisionList(sp, ("c0", "c1"), (single,), default=0),
            random_bt(rng, sp, n_classes=2), random_bt(rng, sp, n_classes=3)]


def _mixed_knowledge(rng, sp, v, n_clauses):
    """Clauses of one to three literals, each holding on v."""
    clauses = []
    while len(clauses) < n_clauses:
        feats = rng.sample(range(sp.m), rng.choice((1, 1, 2, 3)))
        lits = [sp.literal(f, rng.randrange(len(sp.domain(f)))) for f in feats]
        if not any(l.holds(v) for l in lits):
            lits[0] = sp.literal(lits[0].feature, v.values[lits[0].feature])
        clause = Clause.of(lits)
        if clause not in clauses:
            clauses.append(clause)
    return KnowledgeBase(tuple(clauses))


def _ask_shared(shared, model, active, fixed, v, c, subset):
    """The shared oracle's answer under `subset`, and whether its store gave
    it. The status equals a fresh oracle's over `active` and brute force's. A
    searched witness equals the fresh oracle's; a stored one is some earlier
    query's, so every witness is checked by direct evaluation."""
    hits = shared.store_hits
    got = shared.query(fixed, v, c, subset)
    stored = shared.store_hits > hits
    assert_oracle_invariants(shared)
    fresh = EntailmentOracle(model, active).query(fixed, v, c)
    assert got.status is fresh.status \
        is entails_bruteforce(model, active, fixed, v, c).status
    if got.witness is not None:
        assert_counterexample(model, active, fixed, v, c, got.witness)
        assert stored or got.witness == fresh.witness
    return got, stored


def test_knowledge_subsets_match_fresh_oracles():
    rng = random.Random(4242)
    queries = 0
    answers = Counter()  # per (from the store, status)
    for _ in range(25):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        for model in _challenge_models(rng, sp):
            v = random_instance(rng, sp)
            kb = _mixed_knowledge(rng, sp, v, rng.randint(1, 6))
            shared = EntailmentOracle(model, kb)
            for _ in range(6):
                fixed = frozenset(rng.sample(range(sp.m), rng.randint(0, sp.m)))
                c = rng.randrange(model.class_count())
                subset = None if rng.random() < 0.2 else kb.subset(
                    rng.sample(kb.clauses, rng.randint(0, len(kb))))
                active = kb if subset is None else subset
                got, stored = _ask_shared(shared, model, active, fixed, v, c, subset)
                answers[stored, got.status] += 1
                queries += 1
    assert queries == 25 * 6 * 6
    # counterexamples searched on the kept trail, and answered from the store
    assert answers[False, Status.COUNTEREXAMPLE] >= 340, answers
    assert answers[True, Status.COUNTEREXAMPLE] >= 200, answers


def test_knowledge_subset_outside_the_oracle_enters(small_dl, separated_male,
                                                    marital_constraint):
    """A clause a query names that the oracle was not built with enters it
    for good, and the query is answered as a fresh oracle over the named
    knowledge answers it; `None` still asks the build's base."""
    oracle = EntailmentOracle(small_dl, marital_constraint)
    sp = small_dl.space
    foreign = Clause.of([sp.literal("Sex", "Male")])
    assert foreign not in marital_constraint.clauses
    for knowledge in (KnowledgeBase((foreign,)), KnowledgeBase(),
                      KnowledgeBase(marital_constraint.clauses + (foreign,)), None):
        for fixed in (set(), {0, 2}, {sp.feature_index("Sex")}):
            fresh = EntailmentOracle(small_dl, knowledge)
            assert oracle.query(fixed, separated_male, 0, knowledge).status \
                is fresh.query(fixed, separated_male, 0).status
            assert_oracle_invariants(oracle)
    assert list(oracle._kb_ids) == list(marital_constraint.clauses) + [foreign]
    assert oracle.knowledge is marital_constraint
    plain = EntailmentOracle(small_dl)
    assert plain.query(set(), separated_male, 0, marital_constraint).status \
        is EntailmentOracle(small_dl, marital_constraint).query(
            set(), separated_male, 0).status
    assert list(plain._kb_ids) == list(marital_constraint.clauses)


def test_clauses_enter_mid_life():
    """An oracle built over K1, then asked in turn under a base K2 with
    clauses outside K1, subsets of K1 and K2 together, None (K1) and the
    empty base, answers every status as a fresh oracle over the asked
    knowledge and brute force do, and every witness passes direct
    evaluation (`_ask_shared`); its clause bookkeeping matches the clauses
    entered after every query. Some witness kept as plain under K1 breaks a
    clause of K2, so an oracle that left it plain when that clause entered
    would answer a query under K2 with it."""
    rng = random.Random(2525)
    queries = stale = 0
    answers = Counter()
    for _ in range(20):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        v = random_instance(rng, sp)
        models = [random_dl(rng, sp, n_classes=2), random_dl(rng, sp, n_classes=3),
                  random_single_score_bt(rng, sp), random_bt(rng, sp, n_classes=3)]
        for model in models:
            k1 = _mixed_knowledge(rng, sp, v, rng.randint(1, 3))
            k2 = _mixed_knowledge(rng, sp, v, rng.randint(2, 4))
            while set(k2.clauses) <= set(k1.clauses):
                k2 = _mixed_knowledge(rng, sp, v, rng.randint(2, 4))
            union = list(dict.fromkeys(k1.clauses + k2.clauses))
            oracle = EntailmentOracle(model, k1)
            entered = list(k1.clauses)
            # K1 and no clause first, so the store holds plain witnesses
            steps = [None, KnowledgeBase(), None] + [rng.choice(
                (k2, None, KnowledgeBase(), "subset")) for _ in range(8)]
            for subset in steps:
                if subset == "subset":
                    subset = KnowledgeBase(tuple(rng.sample(union, rng.randint(1, len(union)))))
                active = k1 if subset is None else subset
                if subset is not None:
                    new = [c for c in subset.clauses if c not in oracle._kb_ids]
                    store = oracle._witnesses
                    stale += any(store.plain >> i & 1 and not clause.satisfied_by(
                        Instance(values)) for i, (_, values, _) in enumerate(store.entries)
                        for clause in new)
                    entered += new
                fixed = frozenset(rng.sample(range(sp.m), rng.randint(0, sp.m - 1)))
                c = rng.choice((model.classify(v), rng.randrange(model.class_count())))
                got, stored = _ask_shared(oracle, model, active, fixed, v, c, subset)
                answers[stored, got.status] += 1
                queries += 1
                assert list(oracle._kb_ids) == entered
    assert queries == 20 * 4 * 11
    assert stale >= 20, stale
    assert answers[True, Status.COUNTEREXAMPLE] >= 50, answers
    assert answers[False, Status.ENTAILS] >= 50, answers


def test_witness_fails_direct_evaluation(monkeypatch):
    """A witness the search returns is checked against the query itself: one
    that breaks an active clause, is classified as the contested class, or
    disagrees on a fixed feature raises. One that breaks only a clause the
    query's knowledge subset switches off is a counterexample, and raises
    again once the clause is back."""
    sp = FeatureSpace.make([(name, ["0", "1"]) for name in "abc"])
    model = DecisionList(sp, ("p", "q"), (DLRule(frozenset({sp.literal("a", "1")}), 1),),
                         default=0)
    bc = Clause.of([sp.literal("b", "0"), sp.literal("c", "0")])
    ac = Clause.of([sp.literal("a", "1"), sp.literal("c", "0")])
    kb = KnowledgeBase((bc, ac))
    v = sp.instance(["0", "0", "0"])
    oracle = EntailmentOracle(model, kb)
    breaks_bc = sp.instance(["1", "1", "1"])
    assert not bc.satisfied_by(breaks_bc) and ac.satisfied_by(breaks_bc)
    monkeypatch.setattr(oracle, "_search", lambda contested: breaks_bc)
    res = oracle.query(set(), v, 0, kb.subset([ac]))
    assert (res.status, res.witness) == (Status.COUNTEREXAMPLE, breaks_bc)
    cases = [(set(), breaks_bc, None), (set(), breaks_bc, kb),
             (set(), v, None),  # v is classified p
             ({1}, sp.instance(["1", "1", "0"]), None)]
    for fixed, witness, knowledge in cases:
        monkeypatch.setattr(oracle, "_search", lambda contested: witness)
        with pytest.raises(AssertionError, match="witness fails direct evaluation"):
            oracle.query(fixed, v, 0, knowledge)
        res = EntailmentOracle(model, kb).query(fixed, v, 0, knowledge)
        assert res.status is Status.COUNTEREXAMPLE and res.witness != witness


# ---------------------------------------------------------------------------
# ensemble bounds when knowledge propagation fixes tree-tested features

def _tested_feature_knowledge(rng, sp, v, tested):
    """Unit and binary clauses over tree-tested features, each holding on v.

    A binary clause reads "a = x -> b = v[b]", so deciding or fixing a = x
    fixes b by propagation; a unit clause excludes one value other than v's.
    """
    clauses = []
    for _ in range(rng.randint(1, 4)):
        a, b = rng.sample(tested, 2)
        x = rng.randrange(len(sp.domain(a)))
        clauses.append(Clause.of([sp.literal(a, x, negated=True),
                                  sp.literal(b, v.values[b])]))
    for _ in range(rng.randint(0, 2)):
        f = rng.choice(tested)
        others = [x for x in range(len(sp.domain(f))) if x != v.values[f]]
        clauses.append(Clause.of([sp.literal(f, rng.choice(others), negated=True)]))
    return KnowledgeBase(tuple(dict.fromkeys(clauses)))


def test_bt_bounds_after_knowledge_propagation():
    rng = random.Random(5150)
    queries = 0
    while queries < 600:
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        model = random_bt(rng, sp, n_classes=rng.choice((2, 2, 3)), depth=3)
        tested = tree_tested_features(model)
        if len(tested) < 2:
            continue
        v = random_instance(rng, sp)
        kb = _tested_feature_knowledge(rng, sp, v, tested)
        oracle = EntailmentOracle(model, kb)
        for _ in range(6):
            fixed = frozenset(rng.sample(range(sp.m), rng.randint(0, sp.m - 1)))
            c = model.classify(v) if rng.random() < 0.7 \
                else rng.randrange(model.class_count())
            got = oracle.query(fixed, v, c)  # asserts its own witness
            brute = entails_bruteforce(model, kb, fixed, v, c)
            assert got.status is brute.status
            queries += 1


# ---------------------------------------------------------------------------
# one long-lived oracle keeps its trail across interleaved queries

class _Boom(Exception):
    pass


def _kept_trail_cases(rng, sp):
    """(model, knowledge, instance pool) for DLs with two and three classes,
    a constant DL, and single-score and multiclass BTs whose knowledge is
    over tree-tested features. The knowledge holds on the pool's first
    instance; for each clause the pool also holds a point falsifying it."""
    v = random_instance(rng, sp)
    dls = [random_dl(rng, sp, n_classes=2), random_dl(rng, sp, n_classes=3),
           DecisionList(sp, ("c0", "c1", "c2"), (), default=rng.randrange(3))]
    cases = [(model, _mixed_knowledge(rng, sp, v, rng.randint(2, 5)))
             for model in dls]
    for model in (random_single_score_bt(rng, sp),
                  random_bt(rng, sp, n_classes=3, depth=3)):
        tested = tree_tested_features(model)
        kb = (_tested_feature_knowledge(rng, sp, v, tested) if len(tested) >= 2
              else _mixed_knowledge(rng, sp, v, 2))
        cases.append((model, kb))
    out = []
    for model, kb in cases:
        pool = [v] + [random_instance(rng, sp) for _ in range(2)]
        for clause in kb.clauses:
            values = list(v.values)
            for lit in clause.literals:
                values[lit.feature] = lit.value if lit.negated else \
                    (lit.value + 1) % len(sp.domain(lit.feature))
            pool.append(Instance(tuple(values)))
        out.append((model, kb, pool))
    return out


def test_kept_trail_matches_fresh_oracles(monkeypatch):
    """Fifteen long-lived oracles (five models on each of three spaces)
    answer 140 interleaved queries each, 2,100 in all. Every status equals a
    fresh oracle's and brute force's; a searched witness equals the fresh
    oracle's, and a stored one passes direct evaluation. The queries mix the sequences explanations make: shared prefixes, one feature
    dropped (AXp shrink) or added (CXp shrink), other contested classes,
    knowledge subsets None, full, strict and empty, and root conflicts. Some
    follow a rejected query or a query whose propagation raised partway."""
    rng = random.Random(9090)
    counts = dict.fromkeys(("queries", "conflicts", "errors", "raised", "searched",
                            "stored"), 0)
    patterns = ("drop", "add", "drop", "add", "prefix", "contested", "subset",
                "instance", "conflict", "error", "raise")
    for _ in range(3):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        everything = frozenset(range(sp.m))
        for model, kb, pool in _kept_trail_cases(rng, sp):
            shared = EntailmentOracle(model, kb)
            v, fixed, c, subset = pool[0], frozenset(), model.classify(pool[0]), None
            for _ in range(140):
                pattern = rng.choice(patterns)
                if pattern == "drop" and fixed:
                    fixed -= {rng.choice(sorted(fixed))}
                elif pattern == "add" and fixed != everything:
                    fixed |= {rng.choice(sorted(everything - fixed))}
                elif pattern == "prefix":
                    head = sorted(fixed)[:rng.randint(0, len(fixed))]
                    fixed = frozenset(head).union(
                        rng.sample(range(sp.m), rng.randint(0, sp.m)))
                elif pattern == "contested":
                    c = rng.randrange(model.class_count())
                elif pattern == "subset":
                    subset = rng.choice((None, kb, KnowledgeBase(), kb.subset(
                        rng.sample(kb.clauses, rng.randint(0, len(kb) - 1)))))
                elif pattern == "instance":
                    v = rng.choice(pool)
                elif pattern == "conflict":
                    clause = rng.choice(kb.clauses)
                    v = pool[3 + kb.clauses.index(clause)]
                    fixed |= {lit.feature for lit in clause.literals}
                    subset = rng.choice((None, kb))
                elif pattern == "error":
                    with pytest.raises(OracleError):
                        shared.query({sp.m}, v, c)
                    counts["errors"] += 1
                active = kb if subset is None else subset
                if pattern == "raise":
                    calls, stop = [0], rng.randint(1, 3)
                    propagate = shared._propagate

                    def exploding(queue):
                        ok = propagate(queue)
                        calls[0] += 1
                        if calls[0] >= stop:
                            raise _Boom
                        return ok

                    with monkeypatch.context() as patch:
                        patch.setattr(shared, "_propagate", exploding)
                        # a stored answer would not propagate
                        patch.setattr(shared._entailed, "within", lambda *args: False)
                        patch.setattr(shared._witnesses, "agreeing", lambda *args: None)
                        try:
                            shared.query(fixed, v, c, subset)
                        except _Boom:
                            counts["raised"] += 1
                    assert_oracle_invariants(shared)
                got, stored = _ask_shared(shared, model, active, fixed, v, c, subset)
                if not got.entails:  # counterexamples searched and stored
                    counts["stored" if stored else "searched"] += 1
                counts["queries"] += 1
                counts["conflicts"] += any(  # the fixed values falsify a clause
                    all(lit.feature in fixed and not lit.holds(v) for lit in cl.literals)
                    for cl in active.clauses)
    assert counts["queries"] >= 2000
    assert min(counts.values()) > 0, counts
    assert counts["searched"] >= 100 and counts["stored"] >= 500, counts


# ---------------------------------------------------------------------------
# the certificate store answers from earlier entailments and witnesses

def test_certificate_store_matches_fresh_oracles(monkeypatch):
    """Long-lived oracles over lists (with `!=` literals, and constant ones),
    single-score and multiclass ensembles run deletion loops in both
    directions, the way AXp and CXp shrinks ask, over several instances,
    contested classes and knowledge subsets (None, full, strict and empty),
    interleaved. Every answer is checked as `_ask_shared` says. A second
    pass keeps only the newest three certificates of each kind, so old ones
    are replaced throughout."""
    rng = random.Random(1717)
    passes = ((oracle_module._STORE_SIZE, 4), (3, 3))  # (store size, spaces)
    hits = {size: {Status.ENTAILS: 0, Status.COUNTEREXAMPLE: 0} for size, _ in passes}
    queries, replaced, searched_cex = 0, 0, 0
    for size, spaces in passes:
        monkeypatch.setattr(oracle_module, "_STORE_SIZE", size)
        for _ in range(spaces):
            sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
            everything = frozenset(range(sp.m))
            for model, kb, pool in _kept_trail_cases(rng, sp):
                shared = EntailmentOracle(model, kb)
                searched = {Status.ENTAILS: 0, Status.COUNTEREXAMPLE: 0}
                strict = kb.subset(rng.sample(kb.clauses, len(kb) - 1))
                for _ in range(14):
                    v = rng.choice(pool)
                    c = model.classify(v) if rng.random() < 0.6 \
                        else rng.randrange(model.class_count())
                    subset = rng.choice((None, kb, strict, KnowledgeBase()))
                    active = kb if subset is None else subset
                    # AXp shrink: drop each feature in turn from the fixed
                    # set; CXp shrink: free each in turn, fixing the rest
                    axp = rng.random() < 0.5
                    kept = set(everything) if axp else set()
                    for f in rng.sample(sorted(everything), sp.m):
                        fixed = frozenset(kept - {f}) if axp else frozenset(kept | {f})
                        got, stored = _ask_shared(shared, model, active, fixed, v, c,
                                                  subset)
                        (hits[size] if stored else searched)[got.status] += 1
                        if rng.random() < 0.2:  # a searched answer is kept, unless
                            before = shared.store_hits  # under a strict subset
                            assert shared.query(fixed, v, c, subset) == got
                            assert_oracle_invariants(shared)
                            assert (shared.store_hits > before) \
                                == (stored or len(active) in (0, len(kb)))
                        if got.entails != axp:
                            kept = set(fixed)
                        queries += 1
                replaced += sum(max(0, n - size) for n in searched.values())
                searched_cex += searched[Status.COUNTEREXAMPLE]
    assert queries >= 2000 and replaced >= 250 and searched_cex >= 200, searched_cex
    full, small = (hits[size] for size, _ in passes)
    assert full[Status.ENTAILS] >= 250 and full[Status.COUNTEREXAMPLE] >= 120, hits
    assert min(small.values()) >= 100, hits


def test_certificate_store_rule(threshold_dl, bool3_space):
    """Answers are kept only under the whole base or no clause. An
    entailment found under the whole base answers only there, one found
    under no clause everywhere; a witness that breaks a clause answers only
    under no clause. A query under a strict subset keeps nothing."""
    L = bool3_space.literal
    b1, c1 = Clause.of([L("b", "1")]), Clause.of([L("c", "1")])
    kb = KnowledgeBase((b1, c1))
    v = Instance((1, 1, 1))  # positive: at least two of three set
    subsets = {"whole": None, "b": KnowledgeBase((b1,)), "c": KnowledgeBase((c1,)),
               "none": KnowledgeBase()}

    def ask(oracle, fixed, name):
        """(status, answered from the store) of a query."""
        before = oracle.store_hits
        res = oracle.query(fixed, v, 1, subsets[name])
        return res.status, oracle.store_hits > before

    def kept(oracle):
        return len(oracle._entailed.entries), len(oracle._witnesses.entries)

    ENT, CEX = Status.ENTAILS, Status.COUNTEREXAMPLE
    # fixing a entails under b or c: found under the whole base, the
    # entailment answers only there
    oracle = EntailmentOracle(threshold_dl, kb)
    assert ask(oracle, {0}, "whole") == (ENT, False) and kept(oracle) == (1, 0)
    assert ask(oracle, {0}, "b") == (ENT, False)
    assert ask(oracle, {0}, "c") == (ENT, False)
    assert kept(oracle) == (1, 0)  # strict subsets keep nothing
    assert ask(oracle, {0}, "none") == (CEX, False)  # witness (1, 0, 0)
    assert ask(oracle, {0}, "whole") == (ENT, True)
    # fixing a and b entails under no clause, so under every subset
    oracle = EntailmentOracle(threshold_dl, kb)
    assert ask(oracle, {0, 1}, "none") == (ENT, False)
    for name in ("whole", "b", "c", "none"):
        assert ask(oracle, {0, 1}, name) == (ENT, True)
    # the search's witness (0, 0, 0) breaks both clauses: it answers under
    # no clause only
    oracle = EntailmentOracle(threshold_dl, kb)
    assert ask(oracle, set(), "none") == (CEX, False) and kept(oracle) == (0, 1)
    assert ask(oracle, set(), "none") == (CEX, True)
    assert ask(oracle, set(), "b") == (CEX, False)  # witness (0, 1, 0)
    assert ask(oracle, set(), "c") == (CEX, False)
    assert ask(oracle, set(), "whole") == (ENT, False)
    assert kept(oracle) == (1, 1)  # the whole base's entailment only


def test_certificate_store_matches_a_linear_scan(monkeypatch):
    """One store kind serves entailments and witnesses. Random entries, some
    assigning a few features (none, at times) and some every feature, are
    added well past eviction into a store of five ids. After each add,
    `within` and `agreeing` answer as a scan of the five live entries does,
    reading every entry and only the plain ones. The store takes feature
    sets as masks."""
    rng = random.Random(2323)

    def mask(features):
        return sum(1 << f for f in features)

    size = 5
    monkeypatch.setattr(oracle_module, "_STORE_SIZE", size)
    seen = Counter()
    for _ in range(40):
        m = rng.randint(1, 4)
        sizes = [rng.randint(1, 3) for _ in range(m)]
        classes = rng.randint(2, 3)
        store = oracle_module._Certificates(sizes, classes)
        live = {}  # id -> (features, values, class, plain), as added
        for n in range(4 * size):
            features = tuple(range(m)) if rng.random() < 0.4 else \
                tuple(rng.sample(range(m), rng.randint(0, m)))
            entry = (features, tuple(rng.randrange(k) for k in sizes),
                     rng.randrange(classes), rng.random() < 0.5)
            store.add(mask(features), *entry[1:])
            seen["evicted"] += n % size in live
            live[n % size] = entry
            for _ in range(6):
                fixed = set(rng.sample(range(m), rng.randint(0, m)))
                values = tuple(rng.randrange(k) for k in sizes)
                c = rng.randrange(classes)
                for every in (True, False):
                    usable = [live[i] for i in sorted(live) if every or live[i][3]]
                    within = any(cls == c and all(f in fixed and vals[f] == values[f]
                                                  for f in feats)
                                 for feats, vals, cls, _ in usable)
                    agreeing = [vals for feats, vals, cls, _ in usable if cls != c
                                and all(f in feats and vals[f] == values[f] for f in fixed)]
                    assert store.within(mask(fixed), values, c, every) is within
                    assert store.agreeing(mask(fixed), values, c, every) == \
                        (agreeing[0] if agreeing else None)
                    seen["within", every] += within
                    seen["agreeing", every] += bool(agreeing)
    assert len(seen) == 5 and min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# the trail is the oracle's only undo log

def test_trail_is_the_only_undo_log():
    """Random forcings of both polarities and random undos on 2- and 3-class
    ensembles and lists, with `!=` literals on their larger domains. After
    every step `alive` equals its recomputation over the domains; a change
    is one trail entry (the feature, its previous mask and the previous
    `alive`) and queues the literals it falsifies, `f = x` for each removed
    value x in ascending order, then `f != v` when v is the one value left;
    no change leaves the trail and the queue alone; `_undo_to(m)` restores
    the domains and `alive` of trail length m."""
    rng = random.Random(1503)
    seen = dict.fromkeys(("fix", "multi_rm", "unchanged", "emptied", "undo",
                          "bt", "dl"), 0)
    for _ in range(60):
        sp = random_space(rng, min_features=2, max_features=5, max_domain=4)
        n = rng.choice((2, 3))
        if rng.random() < 0.7:
            model, kind = random_bt(rng, sp, n_classes=n, depth=3), "bt"
        else:
            model, kind = random_dl(rng, sp, n_classes=n), "dl"
        seen[kind] += 1
        oracle = EntailmentOracle(model)
        states = [(list(oracle.dom), oracle._live.alive)]  # per trail length
        for _ in range(80):
            if rng.random() < 0.25:
                mark = rng.randrange(len(oracle.trail) + 1)
                oracle._undo_to(mark)
                del states[mark + 1:]
                assert (oracle.dom, oracle._live.alive) == states[mark]
                seen["undo"] += 1
            else:
                f, negated = rng.randrange(sp.m), rng.random() < 0.5
                v = rng.randrange(len(sp.domain(f)))
                values = mask_values(oracle.dom[f])
                kept = [x for x in values if (x != v) == negated]
                previous = (f, oracle.dom[f], oracle._live.alive)
                queue = deque()
                assert oracle._force((f, v, negated), queue) == bool(kept)
                if kept in ([], values):
                    seen["emptied" if not kept else "unchanged"] += 1
                    assert (oracle.dom, oracle._live.alive) == states[-1]
                    assert len(oracle.trail) == len(states) - 1 and not queue
                else:
                    removed = [x for x in values if x not in kept]
                    fix = [(f, kept[0], True)] if len(kept) == 1 else []
                    seen["fix"] += bool(fix)
                    seen["multi_rm"] += len(removed) > 1
                    assert oracle.dom[f] == sum(1 << x for x in kept)
                    assert oracle.trail[len(states) - 1:] == [previous]
                    assert list(queue) == [(f, x, False) for x in removed] + fix
                    states.append((list(oracle.dom), oracle._live.alive))
            assert_oracle_invariants(oracle)
    assert min(seen.values()) > 0, seen


def test_search_loop_matches_the_recursion(monkeypatch):
    """Long-lived oracles over random lists, single-score and 3-class
    ensembles, with and without knowledge, answer the same random queries
    as twins whose search is `recursive_search`. Every status and witness
    is equal, and so is each query's increase in `nodes`: the loop tries
    the same values in the same order as the recursion."""
    rng = random.Random(1919)
    searched, nodes, deepest = 0, 0, 0
    for _ in range(40):
        sp = random_space(rng, min_features=4, max_features=7, max_domain=4)
        v = random_instance(rng, sp)
        for model in (random_dl(rng, sp, n_classes=rng.choice((2, 3))),
                      random_single_score_bt(rng, sp),
                      random_bt(rng, sp, n_classes=3, depth=3)):
            for kb in (KnowledgeBase(), random_knowledge(rng, sp, v, max_clauses=5)):
                loop, recursion = EntailmentOracle(model, kb), EntailmentOracle(model, kb)
                monkeypatch.setattr(recursion, "_search",
                                    lambda c, oracle=recursion: recursive_search(oracle, c))
                for _ in range(30):
                    u = v if rng.random() < 0.5 else random_instance(rng, sp)
                    fixed = frozenset(rng.sample(range(sp.m), rng.randint(0, sp.m)))
                    c = rng.randrange(model.class_count())
                    before = loop.nodes, recursion.nodes
                    got, want = loop.query(fixed, u, c), recursion.query(fixed, u, c)
                    assert (got.status, got.witness) == (want.status, want.witness)
                    grown = loop.nodes - before[0]
                    assert grown == recursion.nodes - before[1]
                    assert loop.trail == recursion.trail
                    searched += grown > 0
                    nodes += grown
                    deepest = max(deepest, grown)
    assert searched >= 2000 and nodes >= 8000 and deepest >= 100, (searched, nodes, deepest)


def test_the_search_is_not_bound_by_the_recursion_limit():
    """Refuting class a from the all-n point of a 1,200-feature list decides
    every feature, deeper than Python's default recursion limit: the oracle
    finds the witness, `find_axp` the one feature its rule reads, and the
    smallest CXp is that feature."""
    model = wide_decision_list(1200)
    v = Instance((0,) * 1200)
    got = EntailmentOracle(model).query(0, v, 0)
    assert_counterexample(model, KnowledgeBase(), (), v, 0, got.witness)
    assert find_axp(model, v).features == {1199}
    assert [e.features for e in enumerate_smallest(Kind.CXP, model, v, n=1).explanations] \
        == [{1199}]


def test_propagation_matches_a_sweep_to_fixpoint():
    """Random sequences of assumptions, both polarities, under random
    knowledge subsets of clauses of 2-4 literals, with `!=` literals on the
    larger domains: after each `_assume` the domains equal those of sweeping
    every active clause to a fixpoint from the domains before it, and a
    conflict is reported exactly when the assumed literal is false or the
    sweep finds one, with the domains left as they were."""
    rng = random.Random(2907)
    seen = dict.fromkeys(("forced", "conflict", "subsets"), 0)
    for _ in range(60):
        sp = random_space(rng, min_features=4, max_features=6, max_domain=4)
        clauses = set()
        for _ in range(rng.randint(2, 14)):
            lits = set()
            for _ in range(rng.randint(2, 4)):
                f = rng.randrange(sp.m)
                negated = rng.random() < 0.3 and len(sp.domain(f)) >= 3
                lits.add(sp.literal(f, rng.randrange(len(sp.domain(f))), negated))
            if len(lits) >= 2 and len({(l.feature, l.value) for l in lits}) == len(lits):
                clauses.add(Clause.of(lits))  # two or more literals, no tautology
        kb = KnowledgeBase(tuple(sorted(clauses, key=lambda cl: sorted(cl.literals))))
        oracle = EntailmentOracle(random_dl(rng, sp), kb)
        for _ in range(6):
            subset = None if rng.random() < 0.3 else kb.subset(
                rng.sample(kb.clauses, rng.randint(0, len(kb))))
            seen["subsets"] += subset is not None
            oracle._switch(subset)
            oracle._undo_to(0)
            for _ in range(rng.randint(1, 8)):
                f = rng.randrange(sp.m)
                slit = (f, rng.randrange(len(sp.domain(f))), rng.random() < 0.4)
                before = list(oracle.dom)
                var, value, negated = slit
                forced = list(before)
                forced[var] &= ~(1 << value) if negated else 1 << value
                expected = propagation_fixpoint(oracle.clauses, oracle._active, forced) \
                    if forced[var] else None
                assert oracle._assume(slit) == (expected is not None), slit
                assert oracle.dom == (before if expected is None else expected), slit
                seen["conflict"] += expected is None and bool(forced[var])
                seen["forced"] += expected is not None and expected != forced
                assert_oracle_invariants(oracle)
    assert min(seen.values()) > 20, seen


# sha256 over `_answer_pin_lines`, recorded when a stored witness came to
# answer any query; before that, the same lines had the same digest
ANSWER_PIN = "c540a0f52f28bb3b8ed59a63a465c012241c096f5e41fcd8d2781eac52277c30"


def _tested_features(model):
    """The features the model's trees or rules test."""
    if isinstance(model, DecisionList):
        return sorted({lit.feature for rule in model.rules for lit in rule.antecedent})
    return tree_tested_features(model)


def _answer_pin_lines():
    """Answers to seeded queries on three random spaces. Models: single-score
    and 3-class ensembles of depth 3 and 4, 2- and 3-class lists, each
    without and with knowledge over the features it tests. Every query is
    asked, under K or a random subset of it, of one long-lived oracle per
    (model, K), whose status is a line and whose witness, perhaps an earlier
    query's, passes direct evaluation; and of a fresh oracle, whose status
    and witness are a line."""
    rng = random.Random(2468)
    lines = []
    for _ in range(3):
        sp = random_space(rng, min_features=5, max_features=8, max_domain=4)
        v = random_instance(rng, sp)
        models = [random_dl(rng, sp, n_classes=2), random_dl(rng, sp, n_classes=3)]
        for depth in (3, 4):
            models += [random_single_score_bt(rng, sp, depth),
                       random_bt(rng, sp, n_classes=3, depth=depth)]
        for model in models:
            tested = _tested_features(model)
            with_k = (_tested_feature_knowledge(rng, sp, v, tested) if len(tested) >= 2
                      else _mixed_knowledge(rng, sp, v, 2))
            for kb in (KnowledgeBase(), with_k):
                pool = [v] + [p for p in (random_instance(rng, sp) for _ in range(12))
                              if kb.satisfied_by(p)]
                shared = EntailmentOracle(model, kb)
                fixed = frozenset()
                for _ in range(40):
                    if rng.random() < 0.5:
                        fixed = frozenset(rng.sample(range(sp.m), rng.randint(sp.m // 2, sp.m)))
                    elif fixed and rng.random() < 0.4:
                        fixed -= {rng.choice(sorted(fixed))}
                    else:
                        fixed |= {rng.randrange(sp.m)}
                    inst = rng.choice(pool)
                    c = rng.randrange(model.class_count())
                    subset = None if rng.random() < 0.7 else kb.subset(
                        rng.sample(kb.clauses, rng.randint(0, len(kb))))
                    res = shared.query(fixed, inst, c, subset)
                    if res.witness is not None:
                        assert_counterexample(model, kb if subset is None else subset,
                                              fixed, inst, c, res.witness)
                    fresh = EntailmentOracle(model, kb).query(fixed, inst, c, subset)
                    lines += [res.status.value, "%s %s" % (
                        fresh.status.value, fresh.witness and fresh.witness.values)]
    return lines


def test_oracle_answers_pinned():
    lines = _answer_pin_lines()
    assert len(lines) == 3 * 6 * 2 * 40 * 2
    assert sum(line.startswith("entails") for line in lines) > len(lines) // 5
    assert sum(line.startswith("counterexample") for line in lines) > len(lines) // 5
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == ANSWER_PIN


def test_result_invariant_and_unsupported_models(toy_dl, row1):
    with pytest.raises(OracleError, match="counterexamples carry a witness; "
                       "entailments do not"):
        OracleResult(Status.ENTAILS, row1)
    with pytest.raises(OracleError, match="counterexamples carry a witness"):
        OracleResult(Status.COUNTEREXAMPLE)

    class Stump:
        space = toy_dl.space

    with pytest.raises(ModelError, match="unsupported model type 'Stump'"):
        EntailmentOracle(Stump())
