import hashlib
import json
import random
import re
from collections import Counter, deque
from dataclasses import replace
from itertools import product

import pytest

from kxp import models
from kxp import (Dataset, Instance, load_model, save_model, train_boosted,
                 train_decision_list)
from kxp.core import Literal
from kxp.models import (BoostedEnsemble, DecisionList, DLRule, Leaf, ModelError, Node,
                        model_from_obj, model_to_obj, _walk)
from kxp.oracle import EntailmentOracle, _collect_paths

from util import (dl_possible_reference, group_bounds, mask_values, planted_dataset,
                  random_bt, random_dl, random_instance, random_space, random_table,
                  reference_boosted, reference_decision_list, tree_bounds,
                  tree_tested_features)


def cls_of(model, inst):
    return model.classes[model.classify(inst)]


def test_dl_first_match_semantics(toy_dl, toy_ds, row1):
    assert cls_of(toy_dl, row1) == ">=50k"  # the married-husband rule fires
    sp = toy_dl.space
    dropout = sp.instance_from_labels({
        "Education": "Dropout", "Status": "Married", "Occupation": "Sales",
        "Relationship": "Husband", "Sex": "Male", "Hours/w": "40to45"})
    # the dropout rule wins although the husband rule would match later
    assert cls_of(toy_dl, dropout) == "<50k"
    nobody = sp.instance_from_labels({
        "Education": "HighSchool", "Status": "Separated", "Occupation": "Sales",
        "Relationship": "Unmarried", "Sex": "Male", "Hours/w": "40to45"})
    assert cls_of(toy_dl, nobody) == "<50k"  # default


def test_dl_rule_order_matters(toy_dl, toy_ds):
    sp = toy_dl.space
    swapped = DecisionList(sp, toy_dl.classes,
                           (toy_dl.rules[2], toy_dl.rules[0]) + toy_dl.rules[1:2]
                           + toy_dl.rules[3:], toy_dl.default)
    dropout_husband = sp.instance_from_labels({
        "Education": "Dropout", "Status": "Married", "Occupation": "Sales",
        "Relationship": "Husband", "Sex": "Male", "Hours/w": "40to45"})
    assert cls_of(toy_dl, dropout_husband) == "<50k"
    assert cls_of(swapped, dropout_husband) == ">=50k"


def test_dl_classify_returns_the_first_matching_rule():
    """`DecisionList.classify` reads each rule's literals inline. On random
    lists with `!=` literals and empty antecedents, and on constant lists
    (no rule), it returns the class of the first rule whose `matches` holds,
    or the default when none does."""
    rng = random.Random(4343)
    seen = Counter()
    for _ in range(200):
        sp = random_space(rng, min_features=2, max_features=5, max_domain=4)
        classes = tuple("c%d" % i for i in range(rng.choice((2, 3))))
        rules = []
        for _ in range(rng.randint(0, 6)):
            feats = rng.sample(range(sp.m), rng.randint(0, min(3, sp.m)))
            ante = frozenset(sp.literal(f, rng.randrange(len(sp.domain(f))),
                                        rng.random() < 0.5) for f in feats)
            rules.append(DLRule(ante, rng.randrange(len(classes))))
        model = DecisionList(sp, classes, tuple(rules), rng.randrange(len(classes)))
        for _ in range(10):
            v = random_instance(rng, sp)
            first = next((rule for rule in model.rules if rule.matches(v)), None)
            assert model.classify(v) == (model.default if first is None else first.cls)
            seen["constant" if not rules else "default" if first is None
                 else "empty" if not first.antecedent
                 else "negated" if any(lit.negated for lit in first.antecedent)
                 else "equal"] += 1
    assert len(seen) == 5 and min(seen.values()) >= 150, seen


def test_bt_worked_scores(toy_bt, row1):
    assert toy_bt.group_score(0, row1) == 1642
    assert cls_of(toy_bt, row1) == ">=50k"
    sp = toy_bt.space
    vals = list(row1.values)
    vals[sp.feature_index("Occupation")] = sp.value_index(2, "Service")
    pert = Instance(tuple(vals))
    leaves = [_walk(t, pert).weight for t in toy_bt.trees[0]]
    assert leaves == [1063, -2231, -128]
    assert toy_bt.group_score(0, pert) == -1296
    assert cls_of(toy_bt, pert) == "<50k"


def test_bt_zero_score_is_negative_class(toy_bt, row1):
    zeroed = BoostedEnsemble(toy_bt.space, toy_bt.classes, 4,
                             ((Leaf(0),),), positive=0)
    # a zero score does not reach the strictly-positive bar
    assert zeroed.classify(row1) == 1


def test_multiclass_argmax_lowest_tie():
    rng = random.Random(5)
    sp = random_space(rng, min_features=2, max_features=2)
    classes = ("c0", "c1", "c2")
    zero = BoostedEnsemble(sp, classes, 4,
                           ((Leaf(0),), (Leaf(0),), (Leaf(0),)))
    assert zero.classify(random_instance(rng, sp)) == 0
    tied = BoostedEnsemble(sp, classes, 4,
                           ((Leaf(3),), (Leaf(7),), (Leaf(7),)))
    assert tied.classify(random_instance(rng, sp)) == 1


def test_model_validation():
    sp = random_space(random.Random(0), min_features=2, max_features=2)
    with pytest.raises(ModelError):
        DecisionList(sp, ("a",), (), 0)
    with pytest.raises(ModelError):
        DecisionList(sp, ("a", "b"), (), 5)
    with pytest.raises(ModelError):
        BoostedEnsemble(sp, ("a", "b"), 4, ((Leaf(1),), (Leaf(1),)), positive=0)
    with pytest.raises(ModelError):
        BoostedEnsemble(sp, ("a", "b", "c"), 4, ((Leaf(1),),))
    with pytest.raises(ModelError, match=r"classes\[2\]: repeated label 'a'"):
        DecisionList(sp, ("a", "b", "a"), (), 0)
    with pytest.raises(ModelError, match=r"classes\[1\]: label 2 is not a string"):
        BoostedEnsemble(sp, ("a", 2), 4, ((Leaf(1),),), positive=0)
    with pytest.raises(ModelError, match="leaf weight True is not an integer"):
        BoostedEnsemble(sp, ("a", "b"), 4, ((Leaf(True),),), positive=0)


def test_model_round_trip_byte_stable(tmp_path, toy_dl, toy_bt, small_dl):
    for name, model in (("dl", toy_dl), ("bt", toy_bt), ("small", small_dl)):
        p1 = tmp_path / (name + "-1.json")
        p2 = tmp_path / (name + "-2.json")
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert load_model(p2) == model


def test_model_obj_rejects_junk():
    with pytest.raises(ModelError):
        model_from_obj({"format": "nope"})
    obj = model_to_obj(DecisionList(
        random_space(random.Random(1), min_features=2, max_features=2),
        ("a", "b"), (), 0))
    obj["kind"] = "mystery"
    with pytest.raises(ModelError):
        model_from_obj(obj)


def test_model_obj_rejects_bad_class_labels(toy_dl, toy_bt):
    """Repeated or non-string labels, checked before any rule or tree reads
    them; a list label raises ModelError, not a TypeError from hashing."""
    for model in (toy_dl, toy_bt):
        high, low = model.classes
        for classes, message in (([high, low, low], r"classes\[2\]: repeated label"),
                                 ([1, [2]], r"classes\[0\]: label 1 is not a string"),
                                 ([high, [low]], r"classes\[1\]: label \[.*\] is not")):
            obj = model_to_obj(model)
            obj["classes"] = classes
            with pytest.raises(ModelError, match=message):
                model_from_obj(obj)


def test_random_model_round_trips():
    rng = random.Random(9)
    for _ in range(30):
        sp = random_space(rng)
        model = random_dl(rng, sp) if rng.random() < 0.5 else random_bt(rng, sp)
        assert model_from_obj(json.loads(json.dumps(model_to_obj(model)))) == model


def test_dl_encoding_shape(toy_dl):
    """Rule j of the list is bit j of the oracle's live set, all alive on the
    full space; `other[c]` masks the rules of the classes other than c, and
    literal maps to the rules whose antecedent holds it, which die when it
    is falsified. The class test reads the oracle's own domains."""
    oracle = EntailmentOracle(toy_dl)
    live, rules = oracle._live, toy_dl.rules
    assert live.alive == (1 << len(rules)) - 1 == 0b1111
    assert live.other == [sum(1 << j for j, rule in enumerate(rules) if rule.cls != c)
                          for c in range(2)] == [0b0011, 0b1100]
    dying = {}
    for j, rule in enumerate(rules):
        for l in rule.antecedent:
            slit = (l.feature, l.value, l.negated)
            dying[slit] = dying.get(slit, 0) | 1 << j
    assert live.dying == dying == {(0, 3, False): 0b0001, (2, 2, False): 0b0010,
                                   (1, 0, False): 0b1100, (3, 0, False): 0b0100,
                                   (3, 1, False): 0b1000}
    assert live.default == toy_dl.default and live.dom is oracle.dom
    # on the full space both classes can be challenged
    assert all(oracle._possible(c) for c in range(2))


def test_search_order_puts_tree_tested_features_first(toy_dl, toy_bt):
    """The search decides the features whose literals kill leaves first:
    for an ensemble exactly the features its trees test. A list's rule
    literals leave its order at the feature order, whatever the rules test."""
    rng = random.Random(157)
    for model in [toy_dl] + [random_dl(rng, random_space(rng)) for _ in range(10)]:
        dl = EntailmentOracle(model)
        assert dl._live.dying and dl._order == list(range(model.space.m))
    bt = EntailmentOracle(toy_bt)
    tested = tree_tested_features(toy_bt)
    assert sorted({var for var, _, _ in bt._live.dying}) == tested
    assert bt._order == tested + sorted(set(range(toy_bt.space.m)) - set(tested))


def _class_test_models(rng, sp):
    """Binary and 3-class lists (with `!=` literals on ternary features), a
    constant list, and a list with an empty-antecedent rule."""
    n = rng.choice((2, 3))
    classes = tuple("c%d" % c for c in range(n))
    pick = rng.random()
    if pick < 0.15:
        return DecisionList(sp, classes, (), default=rng.randrange(n))
    model = random_dl(rng, sp, n_classes=n, max_rules=6)
    if pick < 0.35:
        at = rng.randint(0, len(model.rules))
        rules = model.rules[:at] + (DLRule(frozenset(), rng.randrange(n)),) \
            + model.rules[at:]
        return DecisionList(sp, classes, rules, model.default)
    return model


def test_dl_class_test_sound_and_exact():
    """The oracle's decision-list class test on random partial domains
    answers False only when every completion is classified contested; on
    singleton domains it equals `classify(point) != contested`."""
    rng = random.Random(6060)
    seen = dict.fromkeys(("false", "true_unreachable", "negated", "empty",
                          "constant"), 0)
    for _ in range(250):
        sp = random_space(rng, min_features=2, max_features=4, max_domain=3)
        model = _class_test_models(rng, sp)
        oracle = EntailmentOracle(model)
        n = model.class_count()
        seen["negated"] += any(l.negated for r in model.rules for l in r.antecedent)
        seen["empty"] += any(not r.antecedent for r in model.rules)
        seen["constant"] += not model.rules
        sizes = [len(sp.domain(f)) for f in range(sp.m)]
        for _ in range(8):
            dom = [set(rng.sample(range(k), rng.randint(1, k))) for k in sizes]
            classes = {model.classify(Instance(p))
                       for p in product(*(sorted(d) for d in dom))}
            _remove_all_but(oracle, dom)
            for c in range(n):
                possible = oracle._possible(c)
                if not possible:
                    assert classes == {c}, (model, dom, c)
                    seen["false"] += 1
                elif classes == {c}:
                    seen["true_unreachable"] += 1
            oracle._undo_to(0)
        for _ in range(4):
            point = random_instance(rng, sp)
            _remove_all_but(oracle, [{v} for v in point.values])
            for c in range(n):
                assert oracle._possible(c) == \
                    (model.classify(point) != c), (model, point, c)
            oracle._undo_to(0)
    assert min(seen.values()) > 0, seen


def _remove_all_but(oracle, dom):
    """Reduce the oracle's domains to the value sets `dom` through `_force`
    with negated literals, so the live rules follow."""
    for f, keep in enumerate(dom):
        for v in mask_values(oracle.dom[f]):
            if v not in keep:
                assert oracle._force((f, v, True), deque())
    assert oracle.dom == [sum(1 << v for v in d) for d in dom]


def test_dl_class_test_matches_literal_reference():
    """The live-rule class test against the literal-by-literal reference on
    random lists (with `!=` literals), constant lists and lists with an
    empty-antecedent rule, after every step of random forcings of both
    polarities and random undos. Contested rules that surely fire before
    another class's first live rule are what make it answer False."""
    rng = random.Random(1111)
    seen = dict.fromkeys(("false", "true", "sure_before_other", "undo", "negated",
                          "empty", "constant"), 0)
    for _ in range(150):
        sp = random_space(rng, min_features=2, max_features=4, max_domain=4)
        model = _class_test_models(rng, sp)
        oracle = EntailmentOracle(model)
        seen["negated"] += any(l.negated for r in model.rules for l in r.antecedent)
        seen["empty"] += any(not r.antecedent for r in model.rules)
        seen["constant"] += not model.rules
        for _ in range(30):
            if rng.random() < 0.25:
                oracle._undo_to(rng.randrange(len(oracle.trail) + 1))
                seen["undo"] += 1
            else:
                f = rng.randrange(sp.m)
                oracle._force((f, rng.randrange(len(sp.domain(f))), rng.random() < 0.6),
                              deque())
            for c in range(model.class_count()):
                want = dl_possible_reference(model, oracle.dom, c)
                assert oracle._possible(c) == want, (model, oracle.dom, c)
                seen["true" if want else "false"] += 1
                live = oracle._live
                seen["sure_before_other"] += not want and \
                    bool(live.alive & live.other[c])
    assert min(seen.values()) > 0, seen


def test_bt_exactly_one_leaf_per_tree(toy_bt):
    # the oracle's leaf paths of each tree partition the space
    per_tree = []
    for tree in (t for group in toy_bt.trees for t in group):
        leaves = []
        _collect_paths(tree, [], leaves)
        per_tree.append(leaves)
    assert all(len(leaves) == 4 for leaves in per_tree)

    def holds(slit, inst):
        var, value, negated = slit
        return (inst.values[var] != value) if negated \
            else (inst.values[var] == value)

    for inst in toy_bt.space.points():
        for leaves in per_tree:
            active = [w for path, w in leaves
                      if all(holds(sl, inst) for sl in path)]
            assert len(active) == 1


def _assert_bounds_match(model, oracle):
    """After a sync, the oracle's [lo, hi] per tree and per group equal the
    recursive reference over its current domains."""
    live, dom = oracle._live, [set(mask_values(d)) for d in oracle.dom]
    live.sync()
    trees = [tree for group in model.trees for tree in group]
    assert list(zip(live.lo, live.hi)) == [tree_bounds(t, dom) for t in trees]
    assert list(zip(live.group_lo, live.group_hi)) == \
        [group_bounds(model, g, dom) for g in range(len(model.trees))]


def test_bt_bounds_are_sound(toy_bt):
    """Trail-kept bounds on random partial domains reached by removals
    (`_force` with a negated literal), fixings (with a positive one, on full
    and reduced domains) and undos, read after one or several changes: equal
    to the reference, sound for completions of the domains, exact once every
    feature is fixed, and back to the full-domain bounds after undoing
    everything. Fixing f to v is one trail entry holding the previous mask,
    and queues the literals it falsifies: `f = x` for each other value x,
    then `f != v`."""
    rng = random.Random(11)
    models = [toy_bt] + [random_bt(rng, random_space(rng, max_domain=4),
                                   n_classes=rng.choice((2, 3)), depth=3)
                         for _ in range(30)]
    fixed_from = {"full": 0, "reduced": 0}
    for model in models:
        sp = model.space
        oracle = EntailmentOracle(model)
        marks = [0]
        for _ in range(80):
            step = rng.random()
            f = rng.randrange(sp.m)
            values = mask_values(oracle.dom[f])
            v = rng.choice(values)
            if step < 0.3:
                mark = rng.choice(marks)
                oracle._undo_to(mark)
                marks = [k for k in marks if k <= mark]
            elif step < 0.6 and len(values) > 1:
                others = [x for x in values if x != v]
                fixed_from["full" if len(values) == len(sp.domain(f))
                           else "reduced"] += 1
                queue, before = deque(), len(oracle.trail)
                previous = (f, oracle.dom[f], oracle._live.alive)
                assert oracle._force((f, v, False), queue)
                assert oracle.dom[f] == 1 << v
                assert oracle.trail[before:] == [previous]
                assert list(queue) == [(f, x, False) for x in others] + [(f, v, True)]
                marks.append(len(oracle.trail))
            elif oracle._force((f, v, True), deque()):
                marks.append(len(oracle.trail))
            if rng.random() < 0.3:
                continue  # read the bounds after several changes
            _assert_bounds_match(model, oracle)
            point = Instance(tuple(rng.choice(mask_values(d)) for d in oracle.dom))
            for g in range(len(model.trees)):
                lo, hi = oracle._live.group_lo[g], oracle._live.group_hi[g]
                assert lo <= model.group_score(g, point) <= hi
        # singleton domains: one live leaf per tree, so the bounds are exact
        oracle._undo_to(0)
        point = random_instance(rng, sp)
        for f in range(sp.m):
            if rng.random() < 0.5:
                assert oracle._force((f, point.values[f], False), deque())
            else:
                for v in mask_values(oracle.dom[f]):
                    if v != point.values[f]:
                        assert oracle._force((f, v, True), deque())
            _assert_bounds_match(model, oracle)
        exact = [model.group_score(g, point) for g in range(len(model.trees))]
        assert oracle._live.group_lo == oracle._live.group_hi == exact
        oracle._undo_to(0)
        _assert_bounds_match(model, oracle)
    assert min(fixed_from.values()) >= 80, fixed_from


def test_trainers_produce_valid_models(tmp_path, toy_ds):
    dl = train_decision_list(toy_ds)
    bt = train_boosted(toy_ds, rounds=6)
    insts = toy_ds.instances()
    labels = toy_ds.class_labels
    dl_acc = sum(dl.classify(i) == l for i, l in zip(insts, labels)) / len(insts)
    bt_acc = sum(bt.classify(i) == l for i, l in zip(insts, labels)) / len(insts)
    assert dl_acc >= 0.8 and bt_acc >= 0.8
    save_model(dl, tmp_path / "dl.json")
    save_model(bt, tmp_path / "bt.json")
    assert load_model(tmp_path / "dl.json") == dl
    assert load_model(tmp_path / "bt.json") == bt


def test_fixed_point_matches_float_summation(toy_bt):
    rng = random.Random(3)
    sp = toy_bt.space
    d = toy_bt.scale
    n_trees = len(toy_bt.trees[0])
    for _ in range(200):
        inst = random_instance(rng, sp)
        int_score = toy_bt.group_score(0, inst)
        float_score = sum(_walk(t, inst).weight / 10 ** d for t in toy_bt.trees[0])
        assert abs(int_score / 10 ** d - float_score) <= n_trees * 10 ** -d
        assert (int_score > 0) == (float_score > 1e-12)


def test_train_boosted_matches_reference_fit():
    """Leaf for leaf against exhaustive best-gain splits, binary and multiclass,
    with duplicate columns and Boolean features (exactly tied and mirrored
    gains) and two tables of several hundred rows."""
    rng = random.Random(515)
    for trial in range(14):
        n_classes = 2 if trial % 2 == 0 else 3
        if trial < 8:
            sp = random_space(rng, min_features=3, max_features=5, max_domain=4)
            rows = tuple(random_instance(rng, sp).values for _ in range(rng.randint(20, 60)))
            labels = tuple(rng.randrange(n_classes) if rng.random() < 0.3
                           else (r[0] + r[1]) % n_classes for r in rows)
            ds = Dataset(sp.names, tuple(d for _, d in sp.features), rows, "y",
                         tuple("c%d" % c for c in range(n_classes)), labels)
        else:
            ds = random_table(rng, rng.randint(300, 500) if trial >= 12 else rng.randint(20, 60),
                              n_classes, duplicate=True, binary=trial >= 10)
        rounds, depth = rng.randint(1, 6), rng.randint(1, 3)
        got = train_boosted(ds, rounds=rounds, depth=depth)
        assert got == reference_boosted(ds, rounds, depth), "trial %d" % trial


@pytest.mark.parametrize("args", [
    {"rounds": 0}, {"rounds": -2}, {"rounds": 1.5}, {"rounds": True},
    {"depth": -1}, {"depth": 1.5}, {"depth": True}, {"depth": "2"},
])
def test_train_boosted_rejects_bad_counts(toy_ds, args):
    [(name, value)] = args.items()
    least = {"rounds": 1, "depth": 0}[name]
    verdict = "out of range [%d, inf)" % least if type(value) is int else "is not an integer"
    with pytest.raises(ModelError, match=re.escape("%s %r %s" % (name, value, verdict))):
        train_boosted(toy_ds, **args)


def test_train_boosted_accepts_least_counts(toy_ds):
    model = train_boosted(toy_ds, rounds=1, depth=0)
    assert len(model.trees[0]) == 1 and isinstance(model.trees[0][0], Leaf)


def test_gain_estimate_within_slack():
    """The sums-only estimate of a split's gain stays within the skip slack
    of the exact two-pass gain, also far from zero mean."""
    rng = random.Random(2001)
    worst = 0.0
    for trial in range(240):
        n = rng.randint(8, 5000) if trial % 8 == 0 else rng.randint(8, 400)
        scale = 10 ** rng.uniform(-4, 2)
        offset = rng.choice((0.0, 1.0, 1e3)) * rng.uniform(-1, 1) * scale
        r = [offset + rng.gauss(0.0, scale) for _ in range(n)]
        ny = rng.randint(1, n - 1)
        chosen = set(rng.sample(range(n), ny))
        yes = [x for i, x in enumerate(r) if i in chosen]
        no = [x for i, x in enumerate(r) if i not in chosen]
        total = sum(r)
        mean = total / n
        exact = models._exact_gain(sum((x - mean) ** 2 for x in r), yes, no)
        estimate = models._gain_estimate(total, n, sum(yes), ny)
        slack = models._GAIN_SLACK * n * (1 + sum(x * x for x in r))
        worst = max(worst, abs(exact - estimate) / slack)
    assert worst <= 1, worst


def test_most_splits_skip_the_exact_gain(monkeypatch):
    """On a planted table, fewer than a quarter of the tests that pass the
    leaf-size floor reach the exact gain, and the model is unchanged."""
    ds = planted_dataset(random.Random(77), 600)
    expected = train_boosted(ds, rounds=10, depth=2)
    calls = Counter()
    for name in ("_gain_estimate", "_exact_gain"):
        def counted(*args, inner=getattr(models, name), name=name):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(models, name, counted)
    assert train_boosted(ds, rounds=10, depth=2) == expected
    assert 0 < 4 * calls["_exact_gain"] < calls["_gain_estimate"], calls


def _pinned_tables():
    """About forty seeded training tables with their boosting rounds and depth."""
    rng = random.Random(2020)
    tables = []
    for t in range(42):
        if t % 6 == 0:
            ds = planted_dataset(rng, rng.randint(40, 240))
        else:
            ds = random_table(rng, rng.randint(12, 160),
                              n_classes=2 if t % 3 else rng.randint(3, 4),
                              duplicate=t % 4 == 1, constant=t % 5 == 2, binary=t % 2 == 1)
        tables.append((ds, rng.randint(1, 10), rng.randint(1, 3)))
    return tables


# sha256 over the canonical JSON of both trainers' models on `_pinned_tables`,
# recorded with the row-by-row trainers that the bitset and column ones replaced
TRAINER_PIN = "ee28da552c346894c3606d532fa49b1ddaf99429fc365c87ce1d313ba5a9b48b"


def test_trainer_outputs_pinned():
    h = hashlib.sha256()
    for ds, rounds, depth in _pinned_tables():
        for model in (train_decision_list(ds), train_boosted(ds, rounds=rounds, depth=depth)):
            h.update(json.dumps(model_to_obj(model), sort_keys=True).encode("utf-8") + b"\n")
    assert h.hexdigest() == TRAINER_PIN


def _covering_tables():
    """Tables for the decision-list trainer, each with its case."""
    rng = random.Random(1987)
    out = []
    for t in range(24):
        out.append(("mixed %d" % t, random_table(
            rng, rng.randint(8, 120), n_classes=2 if t % 2 else rng.randint(3, 4),
            duplicate=t % 3 == 0, constant=t % 4 == 1, binary=t % 5 == 2)))
    for t in range(4):
        out.append(("tiny %d" % t, random_table(rng, rng.randint(0, 7), n_classes=2 + t % 2)))
    for t in range(3):
        ds = random_table(rng, rng.randint(5, 40), n_classes=3)
        out.append(("pure %d" % t, replace(ds, class_labels=(t,) * ds.n_rows)))
    for t in range(3):  # random labels: long lists, cut at 32 rules or when no test fits
        out.append(("capped %d" % t, random_table(rng, 400, n_classes=2 + t % 2,
                                                  max_domain=5, noise=1.0)))
    for t in range(4):  # separable labels: covering ends with no row left
        out.append(("covered %d" % t, random_table(rng, rng.randint(30, 150),
                                                   n_classes=2 + t % 3, noise=0.0)))
    return out


def test_train_decision_list_matches_reference():
    """Rule for rule against the row-by-row covering, over every case it has."""

    def majority(ds, rows):
        counts = Counter(ds.class_labels[i] for i in rows)
        return max(range(len(ds.class_domain)), key=lambda c: (counts[c], -c))

    seen = Counter()
    for name, ds in _covering_tables():
        got = train_decision_list(ds)
        assert got == reference_decision_list(ds), name
        insts = ds.instances()
        left = [i for i, inst in enumerate(insts)
                if not any(rule.matches(inst) for rule in got.rules)]
        seen["no rules"] += not got.rules
        seen["capped"] += len(got.rules) == 32
        seen["none left"] += bool(insts) and not left
        # the rows left decide the default, and all rows would not
        seen["left decide"] += bool(left) and majority(ds, left) != majority(ds, range(len(insts)))
        seen["multiclass"] += len(ds.class_domain) > 2
    assert min(seen[case] for case in ("no rules", "capped", "none left", "left decide",
                                       "multiclass")) >= 2, seen


def test_model_invariants_are_checked(toy_dl, toy_bt):
    """A rule class or an ensemble's `positive` out of range, and a rule
    literal or a tree test outside the space, raise `ModelError`."""
    sp = toy_dl.space
    outside = Literal(0, False, len(sp.domain(0)))
    assert not sp.has(outside)
    inside = sp.literal(0, 0)
    with pytest.raises(ModelError, match="rule 1: class index 2 out of range"):
        DecisionList(sp, ("p", "q"), (DLRule(frozenset({inside}), 0),
                                      DLRule(frozenset({inside}), 2)), default=0)
    for bad, named in ((outside, "feature 0, value index %d" % len(sp.domain(0))),
                       (Literal(1.0, False, 0), "feature 1.0, value index 0"),
                       (Literal("Sex", False, 0), "feature 'Sex', value index 0"),
                       (Literal(0, False, True), "feature 0, value index True")):
        with pytest.raises(ModelError, match="^%s$" % re.escape(
                "rule 0 references an invalid feature-value: " + named)):
            DecisionList(sp, ("p", "q"), (DLRule(frozenset({bad}), 1),), default=0)
        with pytest.raises(ModelError, match="^%s$" % re.escape(
                "tree node references an invalid feature-value: " + named)):
            BoostedEnsemble(sp, ("p", "q"), 0, ((Node(bad, Leaf(1), Leaf(-1)),),),
                            positive=1)
    with pytest.raises(ModelError, match="positive class index 2 out of range"):
        BoostedEnsemble(sp, ("p", "q"), 0, ((Leaf(1),),), positive=2)
    # a class index or a scale that is a bool or a float, or a negative
    # scale, is no integer in range either
    for bad in (True, 1.0):
        with pytest.raises(ModelError, match=re.escape(
                "default class index %r is not an integer" % bad)):
            DecisionList(sp, ("p", "q"), (DLRule(frozenset(), 1),), bad)
        with pytest.raises(ModelError, match=re.escape(
                "rule 0: class index %r is not an integer" % bad)):
            DecisionList(sp, ("p", "q"), (DLRule(frozenset(), bad),), 0)
        with pytest.raises(ModelError, match=re.escape(
                "positive class index %r is not an integer" % bad)):
            BoostedEnsemble(sp, ("p", "q"), 0, ((Leaf(1),),), positive=bad)
        with pytest.raises(ModelError, match=re.escape("scale %r is not an integer" % bad)):
            BoostedEnsemble(sp, ("p", "q"), bad, ((Leaf(1),),), positive=1)
    with pytest.raises(ModelError, match=re.escape("scale -1 out of range [0, inf)")):
        BoostedEnsemble(sp, ("p", "q"), -1, ((Leaf(1),),), positive=1)


def test_trainers_need_a_class_column(toy_ds):
    unlabelled = replace(toy_ds, class_name=None, class_domain=None, class_labels=None,
                         class_position=None)
    for train in (train_decision_list, lambda ds: train_boosted(ds, 2, 1)):
        with pytest.raises(ModelError, match="dataset has no class column"):
            train(unlabelled)


def test_list_trainer_stops_a_rule_no_literal_can_extend():
    """Rows equal on every feature but of two classes: the rule takes one
    literal per feature and, with none left, stops short of purity."""
    ds = Dataset(("a", "b"), (("0", "1"), ("0", "1")), ((0, 0), (0, 0), (0, 0), (1, 1)),
                 "y", ("p", "q"), (0, 1, 0, 1))
    model = train_decision_list(ds)
    sp = ds.space
    assert model.rules[0] == DLRule(frozenset({sp.literal("a", "0"), sp.literal("b", "0")}), 0)
    assert model == reference_decision_list(ds)
