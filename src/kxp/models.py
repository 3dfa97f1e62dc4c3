"""Decision lists and boosted tree ensembles: classification, model files, trainers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Mapping, Optional, Union

from .core import (FeatureSpace, Instance, Literal, SpaceError, integer, json_field,
                   read_json, space_from_obj, space_to_obj, write_json)
from .ingest import Dataset, row_bitsets

MODEL_FORMAT = "kxp.model/1"


class ModelError(ValueError):
    """Malformed model structure or file."""


def _check_classes(classes: tuple) -> None:
    """At least two class labels, each a string and none repeated."""
    if len(classes) < 2:
        raise ModelError("need at least two classes")
    for i, label in enumerate(classes):
        if not isinstance(label, str):
            raise ModelError("classes[%d]: label %r is not a string" % (i, label))
        if label in classes[:i]:
            raise ModelError("classes[%d]: repeated label %r" % (i, label))


@dataclass(frozen=True)
class DLRule:
    antecedent: frozenset[Literal]
    cls: int

    def matches(self, inst: Instance) -> bool:
        return all(lit.holds(inst) for lit in self.antecedent)


@dataclass(frozen=True)
class DecisionList:
    """First-match rule list with a default class; classification is total."""

    space: FeatureSpace
    classes: tuple[str, ...]
    rules: tuple[DLRule, ...]
    default: int

    def __post_init__(self):
        _check_classes(self.classes)
        integer(self.default, "default class index", ModelError, 0, len(self.classes))
        for r, rule in enumerate(self.rules):
            integer(rule.cls, "rule %d: class index" % r, ModelError, 0, len(self.classes))
            for lit in rule.antecedent:
                if not self.space.has(lit):
                    raise ModelError("rule %d references an invalid feature-value: "
                                     "feature %r, value index %r" % (r, lit.feature, lit.value))

    def classify(self, inst: Instance) -> int:
        values = inst.values
        for rule in self.rules:
            for lit in rule.antecedent:  # `DLRule.matches`, inline
                if (values[lit.feature] == lit.value) == lit.negated:
                    break
            else:
                return rule.cls
        return self.default

    def class_count(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class Leaf:
    weight: int  # fixed point at the ensemble's scale


@dataclass(frozen=True)
class Node:
    test: Literal
    yes: Union["Node", Leaf]
    no: Union["Node", Leaf]


Tree = Union[Node, Leaf]


@dataclass(frozen=True)
class BoostedEnsemble:
    """Tree ensemble with integer leaf weights at scale 10^-scale.

    In single-score binary mode (`positive` set) there is one tree group and
    the positive class wins strictly when the summed score exceeds zero.
    Otherwise there is one group per class and the argmax wins, ties going to
    the lowest class index.
    """

    space: FeatureSpace
    classes: tuple[str, ...]
    scale: int
    trees: tuple[tuple[Tree, ...], ...]
    positive: Optional[int] = None

    def __post_init__(self):
        _check_classes(self.classes)
        integer(self.scale, "scale", ModelError)
        if self.positive is not None:
            if len(self.classes) != 2 or len(self.trees) != 1:
                raise ModelError("single-score mode needs 2 classes and 1 tree group")
            integer(self.positive, "positive class index", ModelError, 0, 2)
        elif len(self.trees) != len(self.classes):
            raise ModelError("expected %d tree groups, got %d"
                             % (len(self.classes), len(self.trees)))
        for group in self.trees:
            for tree in group:
                _check_tree(self.space, tree)

    def group_score(self, group: int, inst: Instance) -> int:
        return sum(_walk(tree, inst).weight for tree in self.trees[group])

    def scores(self, inst: Instance) -> tuple[int, ...]:
        return tuple(self.group_score(g, inst) for g in range(len(self.trees)))

    def classify(self, inst: Instance) -> int:
        if self.positive is not None:
            return self.positive if self.group_score(0, inst) > 0 else 1 - self.positive
        scores = self.scores(inst)
        best = 0
        for c in range(1, len(scores)):
            if scores[c] > scores[best]:
                best = c
        return best

    def class_count(self) -> int:
        return len(self.classes)


def _check_tree(space: FeatureSpace, tree: Tree) -> None:
    if isinstance(tree, Leaf):
        integer(tree.weight, "leaf weight", ModelError, None)
        return
    if not space.has(tree.test):
        raise ModelError("tree node references an invalid feature-value: "
                         "feature %r, value index %r" % (tree.test.feature, tree.test.value))
    _check_tree(space, tree.yes)
    _check_tree(space, tree.no)


def _walk(tree: Tree, inst: Instance) -> Leaf:
    values = inst.values
    while type(tree) is Node:
        test = tree.test  # `Literal.holds`, inline
        tree = tree.yes if (values[test.feature] == test.value) != test.negated else tree.no
    return tree


Model = Union[DecisionList, BoostedEnsemble]


# ---------------------------------------------------------------------------
# model files

def _tree_obj(space: FeatureSpace, tree: Tree):
    if isinstance(tree, Leaf):
        return {"leaf": tree.weight}
    return {"test": tree.test.to_obj(space),
            "yes": _tree_obj(space, tree.yes),
            "no": _tree_obj(space, tree.no)}


def _tree_from_obj(space: FeatureSpace, obj, where: str) -> Tree:
    if isinstance(obj, dict) and "leaf" in obj:
        return Leaf(json_field(obj, "leaf", int, where))
    return Node(Literal.from_obj(space, json_field(obj, "test", where=where), where),
                _tree_from_obj(space, json_field(obj, "yes", where=where), where + ".yes"),
                _tree_from_obj(space, json_field(obj, "no", where=where), where + ".no"))


def model_to_obj(model: Model) -> dict:
    space = model.space
    obj = {"format": MODEL_FORMAT, "features": space_to_obj(space),
           "classes": list(model.classes)}
    if isinstance(model, DecisionList):
        obj["kind"] = "dl"
        obj["rules"] = [{"if": [l.to_obj(space) for l in sorted(r.antecedent)],
                         "then": model.classes[r.cls]} for r in model.rules]
        obj["default"] = model.classes[model.default]
    else:
        obj["kind"] = "bt"
        obj["scale"] = model.scale
        obj["positive"] = None if model.positive is None else model.classes[model.positive]
        obj["trees"] = [[_tree_obj(space, t) for t in group] for group in model.trees]
    return obj


def model_from_obj(obj: Mapping) -> Model:
    """A model from its JSON object; a malformed one raises ModelError or
    SpaceError naming the field (e.g. `rules[1]`) and the offending value."""
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt != MODEL_FORMAT:
        raise ModelError("unrecognized model format %r" % fmt)
    space = space_from_obj(json_field(obj, "features", list))
    classes = tuple(json_field(obj, "classes", list))
    _check_classes(classes)

    def class_index(label, where: str) -> int:
        if label not in classes:
            raise ModelError("%s: unknown class %r" % (where, label))
        return classes.index(label)

    kind = json_field(obj, "kind", str)
    if kind == "dl":
        rules = []
        for r, rule in enumerate(json_field(obj, "rules", list)):
            where = "rules[%d]" % r
            ante = frozenset(Literal.from_obj(space, l, where)
                             for l in json_field(rule, "if", list, where))
            rules.append(DLRule(ante, class_index(json_field(rule, "then", where=where), where)))
        return DecisionList(space, classes, tuple(rules),
                            class_index(json_field(obj, "default"), "default"))
    if kind == "bt":
        groups = json_field(obj, "trees", list)
        if not all(isinstance(group, list) for group in groups):
            raise ModelError("trees: expected a list of tree lists")
        trees = tuple(tuple(_tree_from_obj(space, t, "trees[%d][%d]" % (g, i))
                            for i, t in enumerate(group)) for g, group in enumerate(groups))
        positive = obj.get("positive")
        return BoostedEnsemble(space, classes, json_field(obj, "scale", int), trees,
                               None if positive is None else class_index(positive, "positive"))
    raise ModelError("unknown model kind %r" % kind)


def save_model(model: Model, path) -> None:
    write_json(path, model_to_obj(model))


def load_model(path) -> Model:
    """Read a model file; any fault in it raises ModelError naming the file."""
    obj = read_json(path, ModelError)
    try:
        return model_from_obj(obj)
    except (ModelError, SpaceError) as exc:
        raise ModelError("%s: %s" % (path, exc)) from None


# ---------------------------------------------------------------------------
# convenience trainers (desk-scale harness models; no quality claims)
# The decision-list trainer counts a test's rows and target rows as bit counts
# of row bitsets ANDed with the rows the rule still covers. The ensemble trainer
# skips a test whose gain, estimated from sums alone, trails the best by more
# than the rounding of either figure, so the test that wins is unchanged.

def _class_instances(ds: Dataset) -> tuple[FeatureSpace, list[Instance], list[int]]:
    if ds.class_labels is None:
        raise ModelError("dataset has no class column")
    return ds.space, ds.instances(), list(ds.class_labels)


_DL_MAX_ANTECEDENT = 3
_DL_MAX_RULES = 32


def train_decision_list(ds: Dataset) -> DecisionList:
    """Greedy sequential covering; deterministic, first-appearance tie-breaks."""
    space, insts, labels = _class_instances(ds)
    classes = ds.class_domain
    cols = row_bitsets(space, insts)
    tests = [(lit, cols[lit.feature][lit.value]) for lit in space.equalities()]
    class_rows = [sum(1 << i for i, y in enumerate(labels) if y == c)
                  for c in range(len(classes))]

    def majority(rows: int) -> int:
        return max(range(len(classes)), key=lambda c: ((class_rows[c] & rows).bit_count(), -c))

    remaining = every = (1 << len(insts)) - 1
    rules: list[DLRule] = []
    while remaining and len(rules) < _DL_MAX_RULES:
        target = majority(remaining)
        hits = class_rows[target]
        covered = remaining
        chosen: list[Literal] = []
        used = 0  # bit f: the rule tests feature f
        while len(chosen) < _DL_MAX_ANTECEDENT and covered & ~hits:
            best = None
            for lit, rows in tests:
                if used >> lit.feature & 1:
                    continue
                sub = covered & rows
                pos = (sub & hits).bit_count()
                if pos == 0:
                    continue
                score = (pos / sub.bit_count(), pos)
                if best is None or score > best[0]:
                    best = (score, lit, sub)
            if best is None:
                break
            chosen.append(best[1])
            used |= 1 << best[1].feature
            covered = best[2]
        if not chosen:
            break
        rules.append(DLRule(frozenset(chosen), target))
        remaining &= ~covered
    return DecisionList(space, classes, tuple(rules), majority(remaining or every))


_BT_LEARNING_RATE = 0.5
_BT_SCALE = 4
_BT_MIN_LEAF = 4
_GAIN_SLACK = 1e-12  # per row and unit of 1 + sum(r^2); see `_fit_tree`


def _gain_estimate(total: float, n: int, sy: float, ny: int) -> float:
    """A split's gain from sums alone: Sy^2/ny + Sn^2/nn - S^2/n."""
    return sy * sy / ny + (total - sy) ** 2 / (n - ny) - total * total / n


def _exact_gain(sse: float, yes: list[float], no: list[float]) -> float:
    """A split's gain: the node's squared error less both sides' about their means."""
    ymean, nmean = sum(yes) / len(yes), sum(no) / len(no)
    return sse - (sum((x - ymean) ** 2 for x in yes) + sum((x - nmean) ** 2 for x in no))


def _split(items, vals, v: int) -> tuple[list, list]:
    """The items whose value in `vals` is v, and the others, in order."""
    return list(compress(items, map(v.__eq__, vals))), list(compress(items, map(v.__ne__, vals)))


def _fit_tree(rows: list[int], residual: list[float], tests, depth: int) -> tuple[Tree, bool]:
    """Least-squares regression tree over literal tests, leaves at fixed point;
    bool flags a real split. `tests` pairs each feature's value column with
    its `=` literals, in (feature, value) order."""
    r = [residual[i] for i in rows]
    n, total = len(r), sum(r)
    mean = total / n if rows else 0.0
    leaf = Leaf(int(round(mean * _BT_LEARNING_RATE * 10 ** _BT_SCALE)))
    if depth == 0 or n < 2 * _BT_MIN_LEAF:
        return leaf, False
    sse = sum((x - mean) ** 2 for x in r)
    # The exact gain and the estimate approximate the same real gain, each
    # within about 10 * n * u * sum(r^2) for u = 2^-53 (each sum rounds n
    # terms, and S^2/n is at most sum(r^2)). The slack is some 1e3 times
    # that, so a test skipped here could not have beaten `best + 1e-12`.
    slack = _GAIN_SLACK * n * (1 + sum(x * x for x in r))
    pick, best = itemgetter(*rows), None
    for column, lits in tests:
        vals = pick(column)
        for lit in lits:
            ny = vals.count(lit.value)
            if ny < _BT_MIN_LEAF or n - ny < _BT_MIN_LEAF:
                continue
            sy = sum(compress(r, map(lit.value.__eq__, vals)))
            estimate = _gain_estimate(total, n, sy, ny)
            if best is not None and estimate + slack <= best[0] + 1e-12:
                continue
            gain = _exact_gain(sse, *_split(r, vals, lit.value))
            if best is None or gain > best[0] + 1e-12:
                best = (gain, lit, vals)
    if best is None or best[0] <= 1e-9:
        return leaf, False
    _, lit, vals = best
    yes, no = _split(rows, vals, lit.value)
    return Node(lit, _fit_tree(yes, residual, tests, depth - 1)[0],
                _fit_tree(no, residual, tests, depth - 1)[0]), True


def train_boosted(ds: Dataset, rounds: int = 12, depth: int = 2) -> BoostedEnsemble:
    """Least-squares stump boosting at fixed-point scale; one-vs-rest when multiclass.
    `rounds` (>= 1) or `depth` (>= 0) that breaks `integer` raises ModelError."""
    integer(rounds, "rounds", ModelError, 1)
    integer(depth, "depth", ModelError)
    space, insts, labels = _class_instances(ds)
    classes = ds.class_domain
    rows = list(range(len(insts)))
    tests = [([inst.values[f] for inst in insts],
              [space.literal(f, v) for v in range(len(space.domain(f)))])
             for f in range(space.m)]

    def boost(target_cls: int) -> tuple[Tree, ...]:
        target = [1.0 if labels[i] == target_cls else -1.0 for i in rows]
        score = [0.0] * len(rows)
        group: list[Tree] = []
        for _ in range(rounds):
            residual = [target[i] - score[i] for i in rows]
            tree, split = _fit_tree(rows, residual, tests, depth)
            group.append(tree)
            for i in rows:
                score[i] += _walk(tree, insts[i]).weight / 10 ** _BT_SCALE
            if not split:
                break
        return tuple(group)

    if len(classes) == 2:
        return BoostedEnsemble(space, classes, _BT_SCALE, (boost(1),), positive=1)
    return BoostedEnsemble(space, classes, _BT_SCALE,
                           tuple(boost(c) for c in range(len(classes))))
