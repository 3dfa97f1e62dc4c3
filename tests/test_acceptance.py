"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The scaled criteria (rule accuracy, knowledge impact) use the public
breast-cancer dataset (569 rows) bundled with scikit-learn.
"""

import random
import time

import pytest

from kxp import (ExtractionLimit, Instance, Kind, KnowledgeBase, Rule,
                 enumerate_min_rules, extract_all, find_axp, find_cxp,
                 fit_quantization, folds, load_csv, quantize, rule_accuracy,
                 rule_to_clause, split, train_boosted, train_decision_list)
from kxp.explain import (attribute_rules, check_explanation, enumerate_smallest,
                         reduce_explanation)
from kxp.oracle import EntailmentOracle

from util import (all_minimal_hitting_sets, brute_force_min_rules,
                  entails_bruteforce, explanation_sets_bruteforce, planted_dataset,
                  random_instance, random_knowledge, random_model, random_space)


def report(tag, message, elapsed=None):
    suffix = "" if elapsed is None else " (%.1fs)" % elapsed
    print("[%s] PASS %s%s" % (tag, message, suffix))


def F(space, *names):
    return frozenset(space.feature_index(n) for n in names)


# ---------------------------------------------------------------------------
# criterion 1: worked-example exactness

def test_c1a_four_rule_dl_worked_example(toy_dl, row1):
    t0 = time.monotonic()
    sp = toy_dl.space
    expected_axp = F(sp, "Education", "Status", "Occupation", "Relationship")
    assert find_axp(toy_dl, row1).features == expected_axp
    axps = enumerate_smallest(Kind.AXP, toy_dl, row1, n=20)
    assert axps.exhausted and axps.feature_sets == [expected_axp]
    cxps = enumerate_smallest(Kind.CXP, toy_dl, row1, n=20)
    assert cxps.exhausted
    assert set(cxps.feature_sets) == {F(sp, "Education"), F(sp, "Status"),
                                      F(sp, "Occupation"), F(sp, "Relationship")}
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("C1a", "four-rule DL: unique AXp and the four singleton CXps, exact",
           elapsed)


def test_c1b_boosted_worked_example(toy_bt, row1):
    t0 = time.monotonic()
    sp = toy_bt.space
    assert toy_bt.group_score(0, row1) == 1642
    assert toy_bt.classes[toy_bt.classify(row1)] == ">=50k"
    vals = list(row1.values)
    vals[sp.feature_index("Occupation")] = sp.value_index(
        sp.feature_index("Occupation"), "Service")
    pert = Instance(tuple(vals))
    from kxp.models import _walk
    # per-tree weights after the Occupation flip, and their exact total;
    # the flip drives the score negative, so the prediction changes
    assert [_walk(t, pert).weight for t in toy_bt.trees[0]] == [1063, -2231, -128]
    assert toy_bt.group_score(0, pert) == 1063 - 2231 - 128 == -1296
    assert toy_bt.classes[toy_bt.classify(pert)] == "<50k"
    expected_axp = F(sp, "Education", "Status", "Occupation", "Relationship")
    axps = enumerate_smallest(Kind.AXP, toy_bt, row1, n=20)
    cxps = enumerate_smallest(Kind.CXP, toy_bt, row1, n=20)
    assert axps.exhausted and axps.feature_sets == [expected_axp]
    assert cxps.exhausted
    assert set(cxps.feature_sets) == {F(sp, "Education"), F(sp, "Status"),
                                      F(sp, "Occupation"), F(sp, "Relationship")}
    report("C1b", "boosted trees: fixed-point scores 1642 / -1296 and the "
                  "same explanation sets as the DL, exact",
           time.monotonic() - t0)


def test_c1c_two_rule_dl_knowledge_walkthrough(small_dl, separated_male,
                                               marital_constraint):
    sp = small_dl.space
    assert find_axp(small_dl, separated_male).features \
        == F(sp, "Status", "Relationship", "Sex")
    assert find_axp(small_dl, separated_male,
                    knowledge=marital_constraint).features \
        == F(sp, "Relationship", "Sex")
    no_kb = enumerate_smallest(Kind.CXP, small_dl, separated_male, n=1)
    assert no_kb.feature_sets == [F(sp, "Status")]
    # under the constraint {Status} stops being a CXp, and its minimal
    # feature-order extension back to validity is exactly {Status, Relationship}
    assert not check_explanation(F(sp, "Status"), Kind.CXP, small_dl,
                                 separated_male, knowledge=marital_constraint)
    grown = next(F(sp, "Status") | {f}
                 for f in sorted(set(range(sp.m)) - F(sp, "Status"))
                 if check_explanation(F(sp, "Status") | {f}, Kind.CXP, small_dl,
                                      separated_male,
                                      knowledge=marital_constraint))
    assert grown == F(sp, "Status", "Relationship")
    assert reduce_explanation(grown, Kind.CXP, small_dl,
                              separated_male).features <= grown
    # the full knowledge-assisted CXp landscape, for the record
    with_kb = enumerate_smallest(Kind.CXP, small_dl, separated_male,
                                 knowledge=marital_constraint, n=20)
    assert with_kb.exhausted
    assert set(with_kb.feature_sets) == {F(sp, "Relationship"), F(sp, "Sex")}
    report("C1c", "two-rule DL: AXp {Status,Relationship,Sex} -> "
                  "{Relationship,Sex}; CXp {Status} invalidated and grown to "
                  "{Status,Relationship}, exact")


def test_c1d_remark_constructions(threshold_dl, parity_dl, bool3_space):
    sp = bool3_space
    v = sp.instance(["1", "1", "0"])
    phi = KnowledgeBase.from_rules(sp, [
        Rule(frozenset({sp.literal("c", "0")}), sp.literal("a", "1"), id=0),
        Rule(frozenset({sp.literal("c", "0")}), sp.literal("b", "1"), id=1)])
    assert find_axp(threshold_dl, v).features == F(sp, "a", "b")
    plain = enumerate_smallest(Kind.AXP, threshold_dl, v, n=20)
    assert plain.exhausted and plain.feature_sets == [F(sp, "a", "b")]
    assert find_axp(threshold_dl, v, knowledge=phi).features == F(sp, "c")

    v3 = sp.instance(["1", "1", "1"])
    ab = KnowledgeBase.from_rules(sp, [
        Rule(frozenset({sp.literal("a", "1")}), sp.literal("b", "1"), id=0),
        Rule(frozenset({sp.literal("b", "1")}), sp.literal("a", "1"), id=1)])
    assert reduce_explanation({0}, Kind.CXP, parity_dl, v3).features == F(sp, "a")
    assisted = enumerate_smallest(Kind.CXP, parity_dl, v3, knowledge=ab, n=20)
    assert assisted.exhausted and assisted.feature_sets == [F(sp, "c")]
    report("C1d", "threshold and parity constructions: {c} vs {a,b}; {c} the "
                  "only knowledge-assisted CXp, exact")


def test_c1e_mined_rules_and_duplicate_blocking(toy_ds):
    sp = toy_ds.space
    rules = enumerate_min_rules(toy_ds, sp.literal("Relationship", "Husband"),
                                limit=ExtractionLimit(max_size=2)).rules
    texts = {r.render(sp) for r in rules}
    assert "IF Status = Married AND Sex = Male THEN Relationship = Husband" \
        in texts
    kb = extract_all(toy_ds, ExtractionLimit(max_size=2))
    assert len(set(kb.clauses)) == len(kb.clauses)
    emitted = {r.render(sp) for r in kb.rules}
    assert "IF Status = Married AND Sex = Male THEN Relationship = Husband" \
        in emitted
    # the clausal duplicate under the later Sex = Female target never reappears
    assert "IF Status = Married AND Relationship != Husband THEN Sex = Female" \
        not in emitted
    husband = next(r for r in kb.rules
                   if r.render(sp) == "IF Status = Married AND Sex = Male "
                                      "THEN Relationship = Husband")
    assert kb.provenance[rule_to_clause(sp, husband)] == (husband.id,)
    report("C1e", "married/husband rules mined from the toy table; the blocked "
                  "clause yields no second emission")


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence on randomized queries

def test_c2_oracle_equals_bruteforce_1000_queries():
    t0 = time.monotonic()
    rng = random.Random(20240)
    n_queries = 0
    disagreements = 0
    while n_queries < 1000:
        sp = random_space(rng, min_features=3, max_features=7, max_domain=4)
        if sp.size() > 10 ** 5:
            continue
        model = random_model(rng, sp, n_classes=rng.choice((2, 2, 3)))
        oracle = EntailmentOracle(model)
        for _ in range(5):
            inst = random_instance(rng, sp)
            kb = random_knowledge(rng, sp, inst)
            fixed = frozenset(rng.sample(range(sp.m), rng.randint(0, sp.m)))
            c = model.classify(inst)
            fast = EntailmentOracle(model, kb).query(fixed, inst, c) \
                if kb else oracle.query(fixed, inst, c)
            slow = entails_bruteforce(model, kb, fixed, inst, c)
            if fast.status != slow.status:
                disagreements += 1
            if fast.witness is not None:
                w = fast.witness
                assert all(w.values[f] == inst.values[f] for f in fixed)
                assert kb.satisfied_by(w)
                assert model.classify(w) != c
            n_queries += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert elapsed < 300
    report("C2", "%d randomized queries, search vs exhaustive scan: 0 "
                 "disagreements" % n_queries, elapsed)


# ---------------------------------------------------------------------------
# criteria 3 and 4: duality and monotonicity on a shared random corpus

@pytest.fixture(scope="module")
def duality_corpus():
    rng = random.Random(31337)
    corpus = []
    for _ in range(200):
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        model = random_model(rng, sp, n_classes=rng.choice((2, 2, 3)))
        v = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, v)
        plain = explanation_sets_bruteforce(model, v, KnowledgeBase())
        assisted = explanation_sets_bruteforce(model, v, kb)
        corpus.append((model, v, kb, plain, assisted))
    return corpus


def test_c3_hitting_set_duality_and_enumeration(duality_corpus):
    t0 = time.monotonic()
    failures = 0
    for model, v, kb, plain, assisted in duality_corpus:
        m = model.space.m
        for setting, sets in ((KnowledgeBase(), plain), (kb, assisted)):
            axps, cxps = sets[Kind.AXP], sets[Kind.CXP]
            if set(axps) != set(all_minimal_hitting_sets(cxps, m)):
                failures += 1
            if set(cxps) != set(all_minimal_hitting_sets(axps, m)):
                failures += 1
            for kind, expected in ((Kind.AXP, axps), (Kind.CXP, cxps)):
                res = enumerate_smallest(kind, model, v, knowledge=setting,
                                         n=4 ** m)
                if not res.exhausted or set(res.feature_sets) != set(expected):
                    failures += 1
                sizes = [len(s) for s in res.feature_sets]
                if sizes != sorted(sizes):
                    failures += 1
    assert failures == 0
    report("C3", "duality on %d random models, with and without knowledge: "
                 "brute-force AXp/CXp sets are mutual minimal hitting sets and "
                 "the enumerator reproduces them, 0 failures"
                 % len(duality_corpus), time.monotonic() - t0)


def test_c4_knowledge_monotonicity(duality_corpus):
    t0 = time.monotonic()
    checked = 0
    for model, v, kb, plain, assisted in duality_corpus:
        # every knowledge-free minimal AXp contains an assisted one
        for x in plain[Kind.AXP]:
            assert any(xp <= x for xp in assisted[Kind.AXP])
        # every assisted minimal CXp contains a knowledge-free one
        for yp in assisted[Kind.CXP]:
            assert any(y <= yp for y in plain[Kind.CXP])
        assert min(len(s) for s in assisted[Kind.AXP]) \
            <= min(len(s) for s in plain[Kind.AXP])
        if assisted[Kind.CXP]:
            assert min(len(s) for s in assisted[Kind.CXP]) \
                >= min(len(s) for s in plain[Kind.CXP])
        checked += 1
    assert checked == len(duality_corpus)
    report("C4", "knowledge monotonicity holds on 100%% of %d instances "
                 "(AXp containment, CXp containment, min-size inequalities)"
                 % checked, time.monotonic() - t0)


# ---------------------------------------------------------------------------
# criterion 5: miner contracts

def check_miner_contract(ds, kb):
    insts = ds.instances()
    for inst in insts:
        assert all(c.satisfied_by(inst) for c in kb.clauses)
    for rule in kb.rules:
        for lit in rule.antecedent:
            smaller = rule.antecedent - {lit}
            rows = [i for i in insts if all(l.holds(i) for l in smaller)]
            support = sum(1 for i in rows if rule.consequent.holds(i))
            consistent = all(rule.consequent.holds(i) for i in rows)
            assert not (consistent and support >= 1), \
                "non-minimal antecedent in %r" % (rule,)


def test_c5_miner_contracts(toy_ds):
    t0 = time.monotonic()
    kb = extract_all(toy_ds, ExtractionLimit(max_size=3))
    check_miner_contract(toy_ds, kb)

    from kxp import Dataset
    rng = random.Random(4242)
    trials = 0
    for _ in range(30):
        sp = random_space(rng, min_features=3, max_features=6, max_domain=3)
        rows = tuple(tuple(rng.randrange(len(sp.domain(f)))
                           for f in range(sp.m))
                     for _ in range(rng.randint(4, 12)))
        ds = Dataset(sp.names, tuple(d for _, d in sp.features), rows)
        kb = extract_all(ds, ExtractionLimit(max_size=3))
        check_miner_contract(ds, kb)
        f = rng.randrange(sp.m)
        target = sp.literal(f, rng.randrange(len(sp.domain(f))))
        fast = enumerate_min_rules(ds, target, limit=ExtractionLimit(max_size=3)).rules
        slow = brute_force_min_rules(ds, target, max_size=3)
        assert {(r.antecedent, r.consequent) for r in fast} \
            == {(r.antecedent, r.consequent) for r in slow}
        trials += 1
    report("C5", "miner contracts: soundness and single-deletion minimality on "
                 "every run; lattice equals brute force on %d small datasets"
           % trials, time.monotonic() - t0)


# ---------------------------------------------------------------------------
# criteria 6 and 8 run on a public 569-row dataset

@pytest.fixture(scope="module")
def cancer_csv(tmp_path_factory):
    sklearn = pytest.importorskip("sklearn.datasets")
    data = sklearn.load_breast_cancer()
    path = tmp_path_factory.mktemp("cancer") / "breast_cancer.csv"
    with open(path, "w", encoding="utf-8") as fh:
        names = [n.replace(" ", "_") for n in data.feature_names]
        fh.write(",".join(names + ["diagnosis"]) + "\n")
        for row, label in zip(data.data, data.target):
            cells = ["%.6g" % x for x in row]
            fh.write(",".join(cells + [data.target_names[label]]) + "\n")
    return path


def test_c6_rule_accuracy_on_public_dataset(cancer_csv):
    t0 = time.monotonic()
    ds = load_csv(cancer_csv)
    assert ds.n_rows >= 500
    limit = ExtractionLimit(max_size=5, max_rules=2000, time_budget=30.0)
    fold_means = []
    total_rules = 0
    first = True
    for train, test in folds(ds, 5, seed=0):
        spec = fit_quantization(train, 5)
        train_q, test_q = quantize(train, spec), quantize(test, spec)
        kb = extract_all(train_q, limit)
        assert kb.rules, "no rules mined"
        assert all(r.size <= 5 for r in kb.rules)
        for inst in train_q.instances():
            assert all(c.satisfied_by(inst) for c in kb.clauses)
        if first:
            check_miner_contract(train_q, kb)  # minimality at scale, one fold
            first = False
        accs = [rule_accuracy(r, test_q) for r in kb.rules]
        fold_means.append(sum(accs) / len(accs))
        total_rules += len(accs)
    mean_acc = sum(fold_means) / len(fold_means)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    assert mean_acc >= 0.98, "5-fold mean rule accuracy %.4f" % mean_acc
    report("C6", "5-fold mean accuracy of %d size-<=5 rules on the 569-row "
                 "public dataset: %.4f (>= 0.98)" % (total_rules, mean_acc),
           elapsed)


# ---------------------------------------------------------------------------
# criterion 7: attribution

def test_c7_attribution_contract():
    t0 = time.monotonic()
    rng = random.Random(616)
    checked = 0
    empty_matches = 0
    while checked < 100:
        sp = random_space(rng, min_features=3, max_features=5, max_domain=3)
        model = random_model(rng, sp)
        v = random_instance(rng, sp)
        kb = random_knowledge(rng, sp, v, max_clauses=4)
        if not kb:
            continue
        c = model.classify(v)
        axp = find_axp(model, v, knowledge=kb)
        used = attribute_rules(model, v, kb, axp.features)
        assert EntailmentOracle(model, used).query(axp.features, v, c).entails
        for clause in used.clauses:
            rest = KnowledgeBase(tuple(cl for cl in used.clauses if cl != clause))
            assert not EntailmentOracle(model, rest).query(
                axp.features, v, c).entails
        plain_holds = EntailmentOracle(model).query(axp.features, v, c).entails
        assert (len(used) == 0) == plain_holds
        if plain_holds:
            empty_matches += 1
        checked += 1
    report("C7", "attribution on %d knowledge-assisted AXps: returned rules "
                 "entail, each member necessary, empty fast path taken %d "
                 "times exactly when no knowledge was needed"
           % (checked, empty_matches), time.monotonic() - t0)


# ---------------------------------------------------------------------------
# criterion 8: directional knowledge impact at scale

def test_c8_knowledge_shrinks_axps_grows_cxps(cancer_csv):
    t0 = time.monotonic()
    ds = load_csv(cancer_csv)
    train, test = split(ds, 0.8, seed=1)
    spec = fit_quantization(train, 5)
    train_q, test_q = quantize(train, spec), quantize(test, spec)
    kb = extract_all(train_q, ExtractionLimit(max_size=5, max_rules=600,
                                              time_budget=20.0))
    assert kb.rules
    models = {"dl": train_decision_list(train_q),
              "bt": train_boosted(train_q, rounds=10, depth=2)}
    insts = [i for i in test_q.instances() if kb.satisfied_by(i)][:12]
    assert len(insts) >= 5, "too few knowledge-compatible test instances"
    for name, model in models.items():
        plain_oracle = EntailmentOracle(model)
        kb_oracle = EntailmentOracle(model, kb)
        axp_plain, axp_kb, cxp_plain, cxp_kb = [], [], [], []
        for inst in insts:
            for kind, bucket, oracle, knowledge in (
                    (Kind.AXP, axp_plain, plain_oracle, None),
                    (Kind.AXP, axp_kb, kb_oracle, kb),
                    (Kind.CXP, cxp_plain, plain_oracle, None),
                    (Kind.CXP, cxp_kb, kb_oracle, kb)):
                res = enumerate_smallest(kind, model, inst, knowledge=knowledge,
                                         n=1, oracle=oracle)
                assert res.explanations, "no explanation found"
                bucket.append(res.explanations[0].size)
        for with_kb, without in zip(axp_kb, axp_plain):
            assert with_kb <= without
        for with_kb, without in zip(cxp_kb, cxp_plain):
            assert with_kb >= without
        avg = lambda xs: sum(xs) / len(xs)
        assert avg(axp_kb) < avg(axp_plain), \
            "%s: average smallest AXp did not shrink" % name
        assert avg(cxp_kb) >= avg(cxp_plain)
        report("C8-%s" % name,
               "avg smallest AXp %.2f -> %.2f, avg smallest CXp %.2f -> %.2f "
               "over %d instances with %d mined rules"
               % (avg(axp_plain), avg(axp_kb), avg(cxp_plain), avg(cxp_kb),
                  len(insts), len(kb.rules)))
    report("C8", "mined knowledge strictly shrinks average smallest AXps and "
                 "never shrinks CXps on both model families",
           time.monotonic() - t0)


def test_c8_planted_knowledge_never_grows_smallest_axps():
    """C8's AXp half on the planted-dependency table, without scikit-learn:
    the class (f1=v0 AND f4=v0) OR f5=v0 leans on planted dependencies, so
    mined rules can stand in for fixed features."""
    t0 = time.monotonic()
    ds = planted_dataset(random.Random(11), 300)
    kb = extract_all(ds, ExtractionLimit(max_size=2))
    insts = ds.instances()[:40]  # training rows: every mined rule holds on them
    shrunk = {}
    for name, model in (("dl", train_decision_list(ds)), ("bt", train_boosted(ds))):
        plain_oracle, kb_oracle = EntailmentOracle(model), EntailmentOracle(model, kb)
        shrunk[name] = 0
        for inst in insts:
            without = enumerate_smallest(Kind.AXP, model, inst, n=1, oracle=plain_oracle)
            with_kb = enumerate_smallest(Kind.AXP, model, inst, knowledge=kb, n=1,
                                         oracle=kb_oracle)
            size, size_kb = without.explanations[0].size, with_kb.explanations[0].size
            assert size_kb <= size, name
            shrunk[name] += size_kb < size
    assert shrunk["dl"] > 0
    report("C8-planted", "%d mined rules never grew a smallest AXp over %d rows; "
                         "they shrank it on %d DL and %d BT rows"
           % (len(kb.rules), len(insts), shrunk["dl"], shrunk["bt"]),
           time.monotonic() - t0)
