"""Independent reference implementations the tests check the package against.

Everything here is deliberately brute force: exhaustive lattice scans,
full-subset enumeration against the exhaustive oracle, and powerset hitting
set computation. None of it shares code paths with the implementations under
test beyond the core vocabulary types, except `reference_attribution`, which
builds a fresh oracle per knowledge subset to check the one-oracle version.
`reference_decision_list` is the row-by-row greedy covering the bitset
trainer is checked against. `tree_bounds` is the recursive score bound the oracle's trail-kept bounds are
checked against, and `dl_possible_reference` the literal-by-literal decision
list class test its live-rule bits are checked against. `query_to_dimacs`
writes a query as CNF with its own encoding of a decision list, which
`dimacs_satisfiable` decides; it shares only the oracle's input checks.
`propagation_fixpoint` sweeps every active clause until none changes a
domain, the reference for the oracle's unit propagation.
`assert_oracle_invariants` recomputes the oracle's live set from its domains,
and its occurrence masks and clause masks from the clauses it entered.
`check_compatible` walks a base's clauses for the first one an instance
breaks.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from kxp import (Clause, Dataset, FeatureSpace, Instance, Kind, KnowledgeBase,
                 Rule, rule_to_clause)
from kxp.models import BoostedEnsemble, DecisionList, DLRule, Leaf, Node
from kxp.oracle import EntailmentOracle, OracleError, OracleResult, Status


# ---------------------------------------------------------------------------
# reference rule miner: unpruned scan of the whole antecedent lattice

def candidate_literals(space: FeatureSpace, target):
    lits = []
    for f in range(space.m):
        if f == target.feature:
            continue
        for v in range(len(space.domain(f))):
            lits.append(space.literal(f, v))
        if len(space.domain(f)) >= 3:
            for v in range(len(space.domain(f))):
                lits.append(space.literal(f, v, negated=True))
    return sorted(lits)


def brute_force_min_rules(train: Dataset, target, blocked=(), max_size=3,
                          min_support=1):
    """All rules meeting consistency/support/subset-minimality, clausally deduped."""
    space = train.space
    insts = train.instances()
    lits = candidate_literals(space, target)
    every_row = frozenset(range(len(insts)))
    lit_rows = {l: frozenset(i for i, inst in enumerate(insts) if l.holds(inst))
                for l in lits}
    target_rows = frozenset(i for i, inst in enumerate(insts) if target.holds(inst))

    def ok(antecedent):
        rows = every_row.intersection(*(lit_rows[l] for l in antecedent))
        support = len(rows & target_rows)
        return rows <= target_rows and support >= min_support, support

    emitted = []
    clauses = set(blocked)
    for size in range(0, max_size + 1):
        for combo in combinations(lits, size):
            good, support = ok(combo)
            if not good:
                continue
            minimal = True
            for k in range(len(combo)):
                for sub in combinations(combo, k):
                    if ok(sub)[0]:
                        minimal = False
                        break
                if not minimal:
                    break
            if not minimal:
                continue
            rule = Rule(frozenset(combo), target, support=support, consistency=1.0)
            clause = rule_to_clause(space, rule)
            if clause in clauses:
                continue
            clauses.add(clause)
            emitted.append(rule)
    return emitted


def brute_force_extract_all(train: Dataset, max_size=3, min_support=1,
                            max_rules=None):
    """The per-target mining pipeline: brute-force rules per (feature, value)
    target in order, blocking clauses across targets, with a rule-count cut.

    Returns (rules with ids, truncated). The cut must be >= 1.
    """
    space = train.space
    rules, blocked, truncated = [], set(), False
    for f in range(space.m):
        for v in range(len(space.domain(f))):
            budget = None if max_rules is None else max_rules - len(rules)
            got = brute_force_min_rules(train, space.literal(f, v), blocked,
                                        max_size, min_support)
            if budget is not None and len(got) >= budget:
                got, truncated = got[:budget], True
            for rule in got:
                rules.append(Rule(rule.antecedent, rule.consequent, id=len(rules),
                                  support=rule.support, consistency=1.0))
                blocked.add(rule_to_clause(space, rule))
            if max_rules is not None and len(rules) >= max_rules:
                return rules, True
    return rules, truncated


def planted_dataset(rng: random.Random, rows: int) -> Dataset:
    """A table of 8 uniform categorical features with three planted dependencies:

    - f0=v0 -> f1=v0
    - f2=v1 AND f3=v1 -> f4=v0
    - f5 = (f6 + f7) mod |D5|

    The class `y` is `yes` iff (f1=v0 AND f4=v0) OR f5=v0; it is derived
    from the features, so it draws nothing from `rng`.
    """
    sizes = (2, 3, 4, 3, 2, 5, 4, 3)
    out = []
    for _ in range(rows):
        x = [rng.randrange(k) for k in sizes]
        if x[0] == 0:
            x[1] = 0
        if x[2] == 1 and x[3] == 1:
            x[4] = 0
        x[5] = (x[6] + x[7]) % sizes[5]
        out.append(tuple(x))
    labels = tuple(int((x[1] == 0 and x[4] == 0) or x[5] == 0) for x in out)
    return Dataset(tuple("f%d" % f for f in range(len(sizes))),
                   tuple(tuple("v%d" % v for v in range(k)) for k in sizes),
                   tuple(out), "y", ("no", "yes"), labels)


def planted_rules(space: FeatureSpace) -> list[Rule]:
    """The dependencies of `planted_dataset` as exact rules, one per (f6, f7) pair for f5."""
    lit = space.literal
    out = [Rule(frozenset({lit(0, "v0")}), lit(1, "v0")),
           Rule(frozenset({lit(2, "v1"), lit(3, "v1")}), lit(4, "v0"))]
    d5, d6, d7 = (len(space.domain(f)) for f in (5, 6, 7))
    for a in range(d6):
        for b in range(d7):
            out.append(Rule(frozenset({lit(6, a), lit(7, b)}), lit(5, (a + b) % d5)))
    return out


# ---------------------------------------------------------------------------
# reference boosted-tree trainer: exhaustive best-gain split at every node

def reference_boosted(train: Dataset, rounds: int, depth: int, lr: float = 0.5,
                      scale: int = 4, min_leaf: int = 4) -> BoostedEnsemble:
    """Least-squares boosting of `= literal` regression trees, fitted plainly.

    Each node tries every feature-value test in (feature, value) order and
    keeps the first with the largest gain (a later test must win by 1e-12);
    leaves hold the residual mean scaled by lr to fixed point. One score per
    class (one-vs-rest), or one positive-class score for binary labels.
    """
    space = train.space
    insts = train.instances()
    labels = train.class_labels
    tests = [space.literal(f, v) for f in range(space.m)
             for v in range(len(space.domain(f)))]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def sse(values, centre):
        return sum((x - centre) ** 2 for x in values)

    def fit(rows, residual, levels):
        here = mean([residual[i] for i in rows])
        if levels == 0 or len(rows) < 2 * min_leaf:
            return Leaf(here), False
        total = sse([residual[i] for i in rows], here)
        best = None
        for test in tests:
            yes = [i for i in rows if test.holds(insts[i])]
            no = [i for i in rows if not test.holds(insts[i])]
            if len(yes) < min_leaf or len(no) < min_leaf:
                continue
            ry = [residual[i] for i in yes]
            rn = [residual[i] for i in no]
            gain = total - (sse(ry, mean(ry)) + sse(rn, mean(rn)))
            if best is None or gain > best[0] + 1e-12:
                best = (gain, test, yes, no)
        if best is None or best[0] <= 1e-9:
            return Leaf(here), False
        _, test, yes, no = best
        return Node(test, fit(yes, residual, levels - 1)[0],
                    fit(no, residual, levels - 1)[0]), True

    def to_fixed(tree):
        if isinstance(tree, Leaf):
            return Leaf(int(round(tree.weight * lr * 10 ** scale)))
        return Node(tree.test, to_fixed(tree.yes), to_fixed(tree.no))

    def leaf_of(tree, inst):
        while isinstance(tree, Node):
            tree = tree.yes if tree.test.holds(inst) else tree.no
        return tree.weight

    def boost(positive):
        target = [1.0 if y == positive else -1.0 for y in labels]
        score = [0.0] * len(insts)
        group = []
        for _ in range(rounds):
            residual = [t - s for t, s in zip(target, score)]
            tree, split = fit(list(range(len(insts))), residual, depth)
            tree = to_fixed(tree)
            group.append(tree)
            score = [s + leaf_of(tree, inst) / 10 ** scale
                     for s, inst in zip(score, insts)]
            if not split:
                break
        return tuple(group)

    classes = train.class_domain
    if len(classes) == 2:
        return BoostedEnsemble(space, classes, scale, (boost(1),), positive=1)
    return BoostedEnsemble(space, classes, scale,
                           tuple(boost(c) for c in range(len(classes))))


# ---------------------------------------------------------------------------
# reference decision-list trainer: greedy sequential covering, row by row

def reference_decision_list(train: Dataset, max_rules: int = 32,
                            max_antecedent: int = 3) -> DecisionList:
    """Greedy sequential covering (Rivest's decision lists; CN2), plainly.

    Each rule targets the majority class of the rows still uncovered (ties
    to the lower class index). It adds `=` tests on features it does not
    test yet, each the first in (feature, value) order with the highest
    (precision, target rows) over the rows it still covers, until those
    rows are all of the target class or it has `max_antecedent` tests.
    Covering stops at `max_rules` rules, when no rows remain, or when no
    test covers a target row. The default class is the majority of the rows
    left, or of all rows when none are.
    """
    space = train.space
    insts = train.instances()
    labels = train.class_labels
    k = len(train.class_domain)
    tests = [space.literal(f, v) for f in range(space.m)
             for v in range(len(space.domain(f)))]

    def majority(rows):
        counts = [0] * k
        for i in rows:
            counts[labels[i]] += 1
        return max(range(k), key=lambda c: (counts[c], -c))

    remaining = list(range(len(insts)))
    rules = []
    while remaining and len(rules) < max_rules:
        target = majority(remaining)
        covered = remaining
        chosen = []
        while (len(chosen) < max_antecedent
               and any(labels[i] != target for i in covered)):
            used = {lit.feature for lit in chosen}
            best = None
            for test in tests:
                if test.feature in used:
                    continue
                rows = [i for i in covered if test.holds(insts[i])]
                hits = len([i for i in rows if labels[i] == target])
                if hits == 0:
                    continue
                score = (hits / len(rows), hits)
                if best is None or score > best[0]:
                    best = (score, test, rows)
            if best is None:
                break
            chosen.append(best[1])
            covered = best[2]
        if not chosen:
            break
        rules.append(DLRule(frozenset(chosen), target))
        remaining = [i for i in remaining if i not in covered]
    return DecisionList(space, train.class_domain, tuple(rules),
                        majority(remaining or range(len(insts))))


def random_table(rng: random.Random, rows: int, n_classes: int = 2,
                 max_domain: int = 4, noise: float = 0.3, duplicate: bool = False,
                 constant: bool = False, binary: bool = False) -> Dataset:
    """A random labelled table: the class is (f0 + f1) mod n_classes, or
    random with probability `noise`. `duplicate` appends a copy of f0,
    `constant` a column that holds one value, `binary` a Boolean column."""
    sp = random_space(rng, min_features=3, max_features=5, max_domain=max_domain)
    domains = [d for _, d in sp.features]
    values = [list(random_instance(rng, sp).values) for _ in range(rows)]
    if duplicate:
        domains.append(domains[0])
        for x in values:
            x.append(x[0])
    if constant:
        domains.append(("v0", "v1", "v2"))
        held = rng.randrange(3)
        for x in values:
            x.append(held)
    if binary:
        domains.append(("v0", "v1"))
        for x in values:
            x.append(rng.randrange(2))
    labels = tuple(rng.randrange(n_classes) if rng.random() < noise
                   else (x[0] + x[1]) % n_classes for x in values)
    return Dataset(tuple("f%d" % f for f in range(len(domains))), tuple(domains),
                   tuple(map(tuple, values)), "y",
                   tuple("c%d" % c for c in range(n_classes)), labels)


# ---------------------------------------------------------------------------
# reference ensemble bounds: a recursive walk over the values still allowed

def tree_bounds(tree, allowed) -> tuple[int, int]:
    """[lo, hi] over the leaves reachable when each feature f takes a value
    in allowed[f]."""
    if isinstance(tree, Leaf):
        return tree.weight, tree.weight
    dom = allowed[tree.test.feature]
    v = tree.test.value
    other = len(dom) > 1 or v not in dom  # some allowed value differs from v
    if tree.test.negated:
        can_yes, can_no = other, v in dom
    else:
        can_yes, can_no = v in dom, other
    lo, hi = None, None
    if can_yes:
        lo, hi = tree_bounds(tree.yes, allowed)
    if can_no:
        nlo, nhi = tree_bounds(tree.no, allowed)
        lo = nlo if lo is None else min(lo, nlo)
        hi = nhi if hi is None else max(hi, nhi)
    return lo, hi


def group_bounds(model: BoostedEnsemble, group: int, allowed) -> tuple[int, int]:
    """The sums of the group's tree bounds."""
    bounds = [tree_bounds(tree, allowed) for tree in model.trees[group]]
    return sum(lo for lo, _ in bounds), sum(hi for _, hi in bounds)


def mask_values(mask: int) -> list[int]:
    """The values an oracle domain mask allows, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def dl_possible_reference(model: DecisionList, dom: list[int], contested: int) -> bool:
    """The decision-list class test read literal by literal: can a point
    within the domain masks be classified other than contested? Rules go in
    list order; a rule with a literal that no allowed value satisfies is
    skipped. The first other rule answers True if its class differs, False
    if it is contested and surely fires (each literal holds on every allowed
    value); past the last rule the default answers."""
    for rule in model.rules:
        holding = [[(v == lit.value) != lit.negated for v in mask_values(dom[lit.feature])]
                   for lit in rule.antecedent]
        if not all(any(h) for h in holding):
            continue
        if rule.cls != contested:
            return True
        if all(all(h) for h in holding):
            return False
    return model.default != contested


def tree_tested_features(model: BoostedEnsemble) -> list[int]:
    """The features some tree of the ensemble tests, ascending."""
    def tested(tree):
        if isinstance(tree, Leaf):
            return set()
        return {tree.test.feature} | tested(tree.yes) | tested(tree.no)

    return sorted(set().union(*(tested(t) for group in model.trees for t in group)))


# ---------------------------------------------------------------------------
# reference attribution: deletion over knowledge clauses, one fresh oracle per
# trial (the algorithm before oracles took a knowledge subset per query)

def reference_attribution(model, v, kb: KnowledgeBase, axp, c) -> KnowledgeBase:
    fset = frozenset(axp)

    def holds(clauses) -> bool:
        return EntailmentOracle(model, KnowledgeBase(tuple(clauses))).query(
            fset, v, c).entails

    assert holds(kb.clauses)
    if holds(()):
        return kb.subset([])
    kept = list(kb.clauses)
    for clause in kb.clauses:
        trial = [cl for cl in kept if cl != clause]
        if holds(trial):
            kept = trial
    return kb.subset(kept)


# ---------------------------------------------------------------------------
# reference oracle: a scan of every point that agrees with the fixed features

DEFAULT_BRUTE_BOUND = 10_000_000


def entails_bruteforce(model, knowledge, fixed, instance, contested,
                       bound=DEFAULT_BRUTE_BOUND) -> OracleResult:
    """Exhaustive reference oracle; first witness in lexicographic instance order."""
    space = model.space
    fixed = set(fixed)
    size = space.size()
    if size > bound:
        raise OracleError("feature space has %d points, above the brute-force "
                          "bound %d" % (size, bound))
    ranges = [[instance.values[f]] if f in fixed else range(len(space.domain(f)))
              for f in range(space.m)]
    for combo in product(*ranges):
        point = Instance(tuple(combo))
        if not knowledge.satisfied_by(point):
            continue
        if model.classify(point) != contested:
            return OracleResult(Status.COUNTEREXAMPLE, point)
    return OracleResult(Status.ENTAILS)


def check_compatible(instance: Instance, knowledge: KnowledgeBase,
                     space: FeatureSpace) -> None:
    """Raise the explain layer's `OracleError` unless the instance satisfies
    every clause, naming the first broken one by its rendered literals."""
    for clause in knowledge.clauses:
        if not clause.satisfied_by(instance):
            raise OracleError("instance is incompatible with the knowledge clause %s"
                              % " OR ".join(space.render_literal(l)
                                            for l in sorted(clause.literals)))


def assert_counterexample(model, active, fixed, v, c, witness) -> None:
    """Direct evaluation of a witness to the query (fixed features of v,
    contested class c, knowledge `active`): a point of the model's space
    that agrees with v on `fixed`, satisfies every clause of `active` and
    is classified other than c."""
    space = model.space
    assert witness is not None and len(witness.values) == space.m
    assert all(0 <= x < len(space.domain(f)) for f, x in enumerate(witness.values))
    assert all(witness.values[f] == v.values[f] for f in fixed)
    assert active.satisfied_by(witness)
    assert model.classify(witness) != c


# ---------------------------------------------------------------------------
# reference explanation sets via the exhaustive oracle

def weak_explanation(model, v, c, kb, kind, features) -> bool:
    m = model.space.m
    fset = frozenset(features)
    if Kind(kind) is Kind.AXP:
        return entails_bruteforce(model, kb, fset, v, c).entails
    return not entails_bruteforce(model, kb, frozenset(range(m)) - fset, v, c).entails


def all_minimal_explanations(model, v, c, kb, kind):
    """Every subset-minimal AXp/CXp, by scanning all 2^m feature subsets."""
    m = model.space.m
    out = []
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            fset = frozenset(combo)
            if not weak_explanation(model, v, c, kb, kind, fset):
                continue
            if all(not weak_explanation(model, v, c, kb, kind, fset - {f})
                   for f in fset):
                out.append(fset)
    return out


def explanation_sets_bruteforce(model, v, kb):
    """Minimal AXp and CXp sets from one exhaustive pass over the space.

    Classifies every point once, then answers all 2^m weak-set queries by
    scanning the admissible differing points. Only for small spaces.
    """
    space = model.space
    m = space.m
    c = model.classify(v)
    bad_points = []  # knowledge-consistent points classified differently
    for p in space.points():
        if model.classify(p) != c and kb.satisfied_by(p):
            bad_points.append(p.values)

    def weak_axp(fset):
        return not any(all(bp[f] == v.values[f] for f in fset)
                       for bp in bad_points)

    def weak_cxp(fset):
        outside = [f for f in range(m) if f not in fset]
        return any(all(bp[f] == v.values[f] for f in outside)
                   for bp in bad_points)

    def minimal(weak):
        out = []
        for size in range(m + 1):
            for combo in combinations(range(m), size):
                fset = frozenset(combo)
                if weak(fset) and all(not weak(fset - {f}) for f in fset):
                    out.append(fset)
        return out

    return {Kind.AXP: minimal(weak_axp), Kind.CXP: minimal(weak_cxp)}


def all_minimal_hitting_sets(sets, m):
    """Inclusion-minimal hitting sets of a collection, by powerset scan."""
    sets = [frozenset(s) for s in sets]

    def hits(candidate):
        return all(candidate & s for s in sets)

    out = []
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            cand = frozenset(combo)
            if hits(cand) and all(not hits(cand - {f}) for f in cand):
                out.append(cand)
    return out


def minimum_hitting_set_bruteforce(sets, blocked, m):
    """The first subset of range(m) in (size, sorted tuple) order that hits
    every set and contains no blocked set; None when there is none."""
    sets = [frozenset(s) for s in sets]
    blocked = [frozenset(b) for b in blocked]
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            cand = frozenset(combo)
            if all(cand & s for s in sets) and not any(b <= cand for b in blocked):
                return cand
    return None


# ---------------------------------------------------------------------------
# random instance generators (seeded by the caller)

def random_space(rng: random.Random, min_features=3, max_features=5,
                 max_domain=3) -> FeatureSpace:
    m = rng.randint(min_features, max_features)
    feats = []
    for i in range(m):
        d = rng.randint(2, max_domain)
        feats.append(("f%d" % i, ["v%d" % j for j in range(d)]))
    return FeatureSpace.make(feats)


def random_instance(rng: random.Random, space: FeatureSpace) -> Instance:
    return Instance(tuple(rng.randrange(len(space.domain(f)))
                          for f in range(space.m)))


def random_dl(rng: random.Random, space: FeatureSpace, n_classes=2,
              max_rules=8) -> DecisionList:
    classes = tuple("c%d" % i for i in range(n_classes))
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        feats = rng.sample(range(space.m), rng.randint(1, min(3, space.m)))
        ante = set()
        for f in feats:
            negated = rng.random() < 0.3 and len(space.domain(f)) >= 3
            ante.add(space.literal(f, rng.randrange(len(space.domain(f))), negated))
        rules.append(DLRule(frozenset(ante), rng.randrange(n_classes)))
    return DecisionList(space, classes, tuple(rules), rng.randrange(n_classes))


def _random_tree(rng: random.Random, space: FeatureSpace, depth: int) -> Node | Leaf:
    if depth == 0 or rng.random() < 0.25:
        return Leaf(rng.randint(-400, 400))
    f = rng.randrange(space.m)
    negated = rng.random() < 0.25 and len(space.domain(f)) >= 3
    lit = space.literal(f, rng.randrange(len(space.domain(f))), negated)
    return Node(lit, _random_tree(rng, space, depth - 1),
                _random_tree(rng, space, depth - 1))


def random_bt(rng: random.Random, space: FeatureSpace, n_classes=2,
              max_trees=6, depth=2) -> BoostedEnsemble:
    classes = tuple("c%d" % i for i in range(n_classes))
    if n_classes == 2 and rng.random() < 0.5:
        group = tuple(_random_tree(rng, space, depth)
                      for _ in range(rng.randint(1, max_trees)))
        return BoostedEnsemble(space, classes, 4, (group,),
                               positive=rng.randrange(2))
    trees = tuple(tuple(_random_tree(rng, space, depth)
                        for _ in range(rng.randint(1, max_trees)))
                  for _ in range(n_classes))
    return BoostedEnsemble(space, classes, 4, trees)


def random_single_score_bt(rng: random.Random, space: FeatureSpace,
                           depth=3) -> BoostedEnsemble:
    """A binary `random_bt` drawn again until it has one score group."""
    while True:
        model = random_bt(rng, space, n_classes=2, depth=depth)
        if model.positive is not None:
            return model


def random_model(rng: random.Random, space: FeatureSpace, n_classes=2):
    if rng.random() < 0.5:
        return random_dl(rng, space, n_classes)
    return random_bt(rng, space, n_classes)


def random_knowledge(rng: random.Random, space: FeatureSpace, v: Instance,
                     max_clauses=4) -> KnowledgeBase:
    """Random clause set guaranteed compatible with v (each clause holds on v)."""
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        feats = rng.sample(range(space.m), rng.randint(1, min(3, space.m)))
        lits = []
        for f in feats:
            negated = rng.random() < 0.3 and len(space.domain(f)) >= 3
            lits.append(space.literal(f, rng.randrange(len(space.domain(f))), negated))
        if not any(l.holds(v) for l in lits):
            f = lits[0].feature
            lits[0] = space.literal(f, v.values[f])
        clause = Clause.of(lits)
        if clause not in clauses:
            clauses.append(clause)
    return KnowledgeBase(tuple(clauses))


# ---------------------------------------------------------------------------
# a tiny DIMACS reader/evaluator for cross-checking CNF dumps

def parse_dimacs(text: str):
    n_vars = 0
    clauses = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            n_vars = int(line.split()[2])
            continue
        lits = [int(t) for t in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    return n_vars, clauses


def dimacs_satisfiable(text: str) -> bool:
    """Exhaustive CNF check: only usable for small variable counts."""
    n, clauses = parse_dimacs(text)
    assert n <= 22, "dimacs evaluator is exhaustive; formula too large"
    for bits in range(1 << n):
        def val(lit):
            var = abs(lit)
            on = bits >> (var - 1) & 1
            return bool(on) if lit > 0 else not on
        if all(any(val(l) for l in clause) for clause in clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# DIMACS dump of one query, for cross-checking the oracle with a CNF decider.
# Literals are (variable, value, negated) triples: variables below m are the
# features; the rule-chain Booleans are numbered from m up, value 1 true.

def _slit(lit) -> tuple[int, int, bool]:
    return (lit.feature, lit.value, lit.negated)


def _flip(slit):
    var, value, negated = slit
    return (var, value, not negated)


def _dl_cnf(model: DecisionList, contested: int):
    """A decision list as clauses over rule j's Booleans m + 3j on: match
    (its antecedent holds), fire (it is the first match) and prefix (no rule
    up to j matched); and the clause asking for another class than
    `contested`: None when vacuous (no rules, another default), [] when
    unsatisfiable (every rule and the default are contested)."""
    clauses = []

    def define(var, parts):  # var <-> AND(parts)
        clauses.extend([(var, 0, False), sl] for sl in parts)
        clauses.append([(var, 1, False)] + [_flip(sl) for sl in parts])

    challenge = []
    prefix = []  # the previous rule's prefix; none before rule 0
    var = model.space.m
    for rule in model.rules:
        match, fire, ahead = var, var + 1, var + 2
        var += 3
        define(match, [_slit(l) for l in sorted(rule.antecedent)])
        define(fire, prefix + [(match, 1, False)])
        define(ahead, prefix + [(match, 0, False)])
        prefix = [(ahead, 1, False)]
        if rule.cls != contested:
            challenge.append((fire, 1, False))
    if model.default != contested:
        if not prefix:
            return clauses, None
        challenge += prefix
    return clauses, challenge


def _leaf_paths(tree, path=()):
    """(path literals, weight) for each leaf, yes-branch first."""
    if isinstance(tree, Leaf):
        return [(list(path), tree.weight)]
    sl = _slit(tree.test)
    return _leaf_paths(tree.yes, path + (sl,)) + _leaf_paths(tree.no, path + (_flip(sl),))


def query_to_dimacs(model, knowledge, fixed, instance, contested) -> str:
    """CNF image of one query over one-hot indicators.

    The clauses are the one-hot domain clauses, the fixed features' units,
    a decision list's rule chain, the knowledge clauses, and then the list's
    challenge to `contested` (an empty clause when no point can meet it) or
    an ensemble's leaf clauses. Indicator id = 1 + offset(feature) + value
    index, where offset is the sum of the domain sizes of earlier features.
    For decision lists the dump is equisatisfiable with the query; for
    ensembles the score comparison is not clausal and is omitted (a comment
    line says so). The query is validated as the oracle validates it.
    """
    oracle = EntailmentOracle(model, knowledge)
    mask = oracle._checked(fixed, instance, contested)
    fixed = [f for f in range(model.space.m) if mask >> f & 1]
    check_compatible(instance, oracle.knowledge, model.space)
    space = oracle.space
    offsets = []
    total = 0
    for f in range(space.m):
        offsets.append(total)
        total += len(space.domain(f))

    def ind(f, d):
        return 1 + offsets[f] + d

    def slit_dimacs(slit):
        var, value, negated = slit
        if var < space.m:
            lit = ind(var, value)
            return -lit if negated else lit
        lit = total + (var - space.m) + 1  # a rule-chain Boolean
        positive = (value == 1) != negated
        return lit if positive else -lit

    lines = []
    clauses = []
    comments = ["c entailment query: fixed=%s contested=%d"
                % (sorted(fixed), contested)]
    for f in range(space.m):
        name, domain = space.features[f]
        for d, label in enumerate(domain):
            comments.append("c var %d = [%s = %s]" % (ind(f, d), name, label))
        ids = [ind(f, d) for d in range(len(domain))]
        clauses.append(ids)
        clauses.extend([-a, -b] for a, b in combinations(ids, 2))
    for f in sorted(fixed):
        clauses.append([ind(f, instance.values[f])])

    is_dl = isinstance(model, DecisionList)
    rule_cnf, challenge = _dl_cnf(model, contested) if is_dl else ([], None)
    kb_cnf = [[_slit(l) for l in clause.literals] for clause in oracle.knowledge.clauses]
    cnf = rule_cnf + kb_cnf + ([challenge] if challenge is not None else [])
    clauses.extend([slit_dimacs(sl) for sl in slits] for slits in cnf)
    n_vars = total
    if is_dl:
        n_vars += 3 * len(model.rules)
        comments.append("c aux vars %d..%d: rule match/fire/prefix chain"
                        % (total + 1, n_vars))
    else:  # leaf clauses only: the score comparison is not clausal
        leaf_id = n_vars
        for tree in (t for group in model.trees for t in group):
            tree_vars = []
            for path, weight in _leaf_paths(tree):
                leaf_id += 1
                tree_vars.append(leaf_id)
                comments.append("c var %d = leaf with weight %d" % (leaf_id, weight))
                for sl in path:
                    clauses.append([-leaf_id, slit_dimacs(sl)])
                clauses.append([leaf_id] + [-slit_dimacs(sl) for sl in path])
            clauses.append(list(tree_vars))
            clauses.extend([-a, -b] for a, b in combinations(tree_vars, 2))
        n_vars = leaf_id
        comments.append("c note: the class-score comparison is not encoded; "
                        "this dump covers the propositional part only")

    lines.extend(comments)
    lines.append("p cnf %d %d" % (n_vars, len(clauses)))
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the oracle's propagation state, recomputed from scratch

def _live_bits(model, dom) -> int:
    """`alive` recomputed from scratch: bit i is set when each literal on the
    path of leaf i (trees in order, each tree's leaves by ascending weight),
    or in the antecedent of rule i of a list, can still hold under the
    domain masks."""
    def can_hold(var, value, negated):
        return dom[var] != 1 << value if negated else value in mask_values(dom[var])

    if isinstance(model, DecisionList):
        conjunctions = [[_slit(l) for l in rule.antecedent] for rule in model.rules]
    else:
        conjunctions = [path for tree in (tree for group in model.trees for tree in group)
                        for path, _ in sorted(_leaf_paths(tree), key=lambda leaf: leaf[1])]
    return sum(1 << bit for bit, lits in enumerate(conjunctions)
               if all(can_hold(*slit) for slit in lits))


def propagation_fixpoint(clauses, active: int, dom: list[int]):
    """Unit propagation of the active clauses of two or more solver literals
    over the domain masks, by sweeping every such clause until a sweep
    changes nothing: a clause with no true literal and one that can hold
    makes it hold. The domains at the fixpoint, or None once a clause has
    every literal false."""
    dom = [set(mask_values(d)) for d in dom]

    def can_hold(var, value, negated):
        return dom[var] != {value} if negated else value in dom[var]

    def true(var, value, negated):
        return value not in dom[var] if negated else dom[var] == {value}

    changed = True
    while changed:
        changed = False
        for ci, lits in enumerate(clauses):
            if not active >> ci & 1 or len(lits) < 2 or any(true(*l) for l in lits):
                continue
            open_lits = [l for l in lits if can_hold(*l)]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                var, value, negated = open_lits[0]
                dom[var] = dom[var] - {value} if negated else {value}
                changed = True
    return [sum(1 << v for v in d) for d in dom]


def assert_oracle_invariants(oracle: EntailmentOracle) -> None:
    """The occurrence masks and the live set agree with the oracle's clauses
    and domains: `occurs` maps each solver literal to exactly the ids of the
    clauses of two or more literals that hold it, a unit clause is listed
    nowhere, and `alive` equals its recomputation. The clauses entered agree
    with the bookkeeping: `_kb_ids` numbers them 0, 1, ... in order, each
    id's solver literals are its clause's, `_all` masks every id, and the
    `_satisfies` row of each (feature, value) holds exactly the ids of the
    clauses that value satisfies."""
    entered = list(oracle._kb_ids)
    assert list(oracle._kb_ids.values()) == list(range(len(entered)))
    assert len(oracle.clauses) == len(entered)
    assert oracle._all == (1 << len(entered)) - 1
    assert oracle._kb_ids.keys() >= set(oracle.knowledge.clauses)
    for ci, clause in enumerate(entered):
        assert sorted(oracle.clauses[ci]) == sorted(_slit(l) for l in clause.literals)
    for f, row in enumerate(oracle._satisfies):
        assert len(row) == len(oracle.space.domain(f))
        for value, mask in enumerate(row):
            assert mask == sum(1 << ci for ci, clause in enumerate(entered)
                               if any(l.feature == f and (l.value == value) != l.negated
                                      for l in clause.literals)), (f, value)
    occurs = {}
    for ci, slits in enumerate(oracle.clauses):
        if len(slits) > 1:
            for slit in slits:
                occurs[slit] = occurs.get(slit, 0) | 1 << ci
    assert oracle.occurs == occurs, (oracle.occurs, occurs)
    assert oracle._live.alive == _live_bits(oracle.model, oracle.dom)
