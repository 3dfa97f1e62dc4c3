"""Shared vocabulary: feature spaces, instances, literals, clauses, rules, knowledge.

Also `integer`, the one rule for every index and count: an int that is not a
bool, within its bounds, or else the caller's error class.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class SpaceError(ValueError):
    """Raised when a feature space, literal, rule or clause is malformed."""


def integer(value, what: str, error: type[Exception], lo: Optional[int] = 0,
            hi: Optional[int] = None) -> int:
    """`value`, if it is an int (a bool is none) in [lo, hi), where a bound
    of None is open. Otherwise raise the caller's `error` naming `what`,
    the value and the bounds: `n 1.5 is not an integer`, `fixed mask -1
    out of range [0, 64)`, `--jobs 0 out of range [1, inf)`. Every index
    and count check in kxp goes through here."""
    if type(value) is not int:
        raise error("%s %s is not an integer" % (what, reprlib.repr(value)))
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        raise error("%s %d out of range %s, %s)" % (
            what, value, "(-inf" if lo is None else "[%d" % lo, "inf" if hi is None else hi))
    return value


def number(value) -> bool:
    """Is `value` an int or a float (a bool is neither)? Every number check
    in kxp asks here, and raises its own message."""
    return type(value) in (int, float)


@dataclass(frozen=True)
class FeatureSpace:
    """Finite categorical feature space: an ordered list of (name, domain) pairs.

    Domains are ordered tuples of value labels; all indices used by literals
    and instances refer to positions in these tuples.
    """

    features: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        names = [name for name, _ in self.features]
        if len(set(names)) != len(names):
            raise SpaceError("duplicate feature names: %s" % names)
        for name, domain in self.features:
            if len(domain) < 2:
                raise SpaceError("feature %r needs a domain of size >= 2, got %r"
                                 % (name, list(domain)))
            if len(set(domain)) != len(domain):
                raise SpaceError("feature %r has duplicate value labels" % name)

    @classmethod
    def make(cls, features: Iterable[tuple[str, Sequence[str]]]) -> "FeatureSpace":
        return cls(tuple((name, tuple(domain)) for name, domain in features))

    @property
    def m(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.features)

    def domain(self, feature: int) -> tuple[str, ...]:
        return self.features[feature][1]

    def size(self) -> int:
        """Number of points in the induced space (exact integer)."""
        return math.prod(len(dom) for _, dom in self.features)

    def feature_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.features):
            if n == name:
                return i
        raise SpaceError("unknown feature %r" % name)

    def value_index(self, feature: int, label: str) -> int:
        try:
            return self.domain(feature).index(label)
        except ValueError:
            raise SpaceError("unknown value %r for feature %r"
                             % (label, self.features[feature][0])) from None

    def literal(self, feature: int | str, value: int | str,
                negated: bool = False) -> "Literal":
        """Build a literal, normalizing != on binary domains to the complementary =."""
        f = self.feature_index(feature) if isinstance(feature, str) \
            else integer(feature, "feature index", SpaceError, 0, self.m)
        v = self._value_index(f, value)
        if negated and len(self.domain(f)) == 2:
            return Literal(feature=f, negated=False, value=1 - v)
        return Literal(feature=f, negated=negated, value=v)

    def _value_index(self, feature: int, value: int | str) -> int:
        """The index of a value of the feature given as a label or an index."""
        if isinstance(value, str):
            return self.value_index(feature, value)
        name, dom = self.features[feature]
        return integer(value, "feature %r value index" % name, SpaceError, 0, len(dom))

    def has(self, lit: "Literal") -> bool:
        f, v = lit.feature, lit.value  # integers, not bools
        return type(f) is type(v) is int and 0 <= f < self.m and 0 <= v < len(self.domain(f))

    def equalities(self) -> list["Literal"]:
        """Every `feature = value` literal, in feature-then-value order."""
        return [Literal(f, False, v) for f in range(self.m) for v in range(len(self.domain(f)))]

    def negate(self, lit: "Literal") -> "Literal":
        return self.literal(lit.feature, lit.value, not lit.negated)

    def instance(self, values: Sequence[int | str]) -> "Instance":
        """Build an instance from value indices or labels, validating lengths and ranges."""
        if len(values) != self.m:
            raise SpaceError("expected %d values, got %d" % (self.m, len(values)))
        return Instance(tuple(self._value_index(f, v) for f, v in enumerate(values)))

    def instance_from_labels(self, mapping: Mapping[str, str]) -> "Instance":
        """Build an instance from a {feature name: value label} mapping."""
        values = []
        for name, _ in self.features:
            if name not in mapping:
                raise SpaceError("missing value for feature %r" % name)
            values.append(mapping[name])
        return self.instance(values)

    def points(self) -> Iterator["Instance"]:
        """All points of the space in lexicographic order of value indices."""
        for combo in product(*(range(len(dom)) for _, dom in self.features)):
            yield Instance(combo)

    def render_literal(self, lit: "Literal") -> str:
        name, dom = self.features[lit.feature]
        return "%s %s %s" % (name, "!=" if lit.negated else "=", dom[lit.value])

    def render_instance(self, inst: "Instance") -> str:
        return ", ".join("%s = %s" % (name, dom[v])
                         for (name, dom), v in zip(self.features, inst.values))


@dataclass(frozen=True)
class Instance:
    """A full point of the feature space, as one value index per feature."""

    values: tuple[int, ...]

    def __getitem__(self, feature: int) -> int:
        return self.values[feature]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, order=True)
class Literal:
    """A feature-value (in)equality atom over a FeatureSpace.

    Build through FeatureSpace.literal so that != on a binary domain is
    normalized away; field order gives the (feature, polarity, value)
    sort used for deterministic tie-breaking, with = before !=.
    """

    feature: int
    negated: bool
    value: int

    def holds(self, inst: Instance) -> bool:
        return (inst.values[self.feature] != self.value) if self.negated \
            else (inst.values[self.feature] == self.value)

    def to_obj(self, space: FeatureSpace) -> dict:
        name, dom = space.features[self.feature]
        return {"feature": name, "op": "!=" if self.negated else "==",
                "value": dom[self.value]}

    @staticmethod
    def from_obj(space: FeatureSpace, obj, where: str = "literal") -> "Literal":
        op = json_field(obj, "op", str, where)
        if op not in ("==", "!="):
            raise SpaceError("%s: bad literal op %r" % (where, op))
        return space.literal(json_field(obj, "feature", str, where),
                             json_field(obj, "value", str, where), negated=op == "!=")


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals, kept as a set; tautologies are rejected."""

    literals: frozenset[Literal]

    def __post_init__(self):
        if not self.literals:
            raise SpaceError("empty clause")
        seen = {}
        for lit in self.literals:
            key = (lit.feature, lit.value)
            if key in seen and seen[key] != lit.negated:
                raise SpaceError("tautological clause: complementary pair on "
                                 "feature %d value %d" % key)
            seen[key] = lit.negated

    @classmethod
    def of(cls, literals: Iterable[Literal]) -> "Clause":
        return cls(frozenset(literals))

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def satisfied_by(self, inst: Instance) -> bool:
        return any(lit.holds(inst) for lit in self.literals)


@dataclass(frozen=True)
class Rule:
    """IF antecedent THEN consequent, with mining stats when it came from a miner."""

    antecedent: frozenset[Literal]
    consequent: Literal
    id: Optional[int] = None
    support: Optional[int] = None
    consistency: Optional[float] = None

    def __post_init__(self):
        if any(lit.feature == self.consequent.feature for lit in self.antecedent):
            raise SpaceError("consequent feature %d occurs in the antecedent"
                             % self.consequent.feature)

    @property
    def size(self) -> int:
        return len(self.antecedent)

    def matches(self, inst: Instance) -> bool:
        return all(lit.holds(inst) for lit in self.antecedent)

    def violated_by(self, inst: Instance) -> bool:
        return self.matches(inst) and not self.consequent.holds(inst)

    def render(self, space: FeatureSpace) -> str:
        if self.antecedent:
            body = " AND ".join(space.render_literal(l)
                                for l in sorted(self.antecedent))
        else:
            body = "TRUE"
        return "IF %s THEN %s" % (body, space.render_literal(self.consequent))


def validate_rule(space: FeatureSpace, rule: Rule) -> None:
    """Check the space-dependent rule invariants (raises SpaceError)."""
    per_feature_eq: dict[int, int] = {}
    per_feature_neq: dict[int, set[int]] = {}
    for lit in rule.antecedent:
        if not space.has(lit):
            raise SpaceError("antecedent literal out of range: feature %r, value index %r"
                             % (lit.feature, lit.value))
        if lit.negated:
            per_feature_neq.setdefault(lit.feature, set()).add(lit.value)
        else:
            per_feature_eq[lit.feature] = per_feature_eq.get(lit.feature, 0) + 1
    for f, count in per_feature_eq.items():
        if count > 1:
            raise SpaceError("two = literals on feature %d" % f)
    for f, excluded in per_feature_neq.items():
        if len(excluded) >= len(space.domain(f)):
            raise SpaceError("!= literals exclude the whole domain of feature %d" % f)
    rule_to_clause(space, rule)  # must form a valid clause


def rule_to_clause(space: FeatureSpace, rule: Rule) -> Clause:
    """Clausal form: negated antecedent literals plus the consequent."""
    lits = {space.negate(l) for l in rule.antecedent}
    lits.add(rule.consequent)
    return Clause(frozenset(lits))


@dataclass(frozen=True)
class KnowledgeBase:
    """A conjunction of clauses over feature literals, with the rules behind them.

    `sources` maps each clause built from rules to all of them, in order (a
    clause given alone has no entry); `rules` and `provenance` are read-only
    views of it. `truncated` is set when mining stopped on a count or time budget.
    """

    clauses: tuple[Clause, ...] = ()
    sources: Mapping[Clause, tuple[Rule, ...]] = field(default_factory=dict)
    truncated: bool = False

    def __post_init__(self):
        if len(set(self.clauses)) != len(self.clauses):
            raise SpaceError("duplicate clauses in knowledge base")

    @classmethod
    def from_rules(cls, space: FeatureSpace, rules: Iterable[Rule],
                   truncated: bool = False) -> "KnowledgeBase":
        """Deduplicate rules clausally; each clause keeps every rule behind it."""
        sources: dict[Clause, list[Rule]] = {}
        for rule in rules:
            sources.setdefault(rule_to_clause(space, rule), []).append(rule)
        return cls(tuple(sources), {c: tuple(rs) for c, rs in sources.items()}, truncated)

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        """Every rule, clause by clause."""
        return tuple(r for c in self.clauses for r in self.sources.get(c, ()))

    @cached_property
    def provenance(self) -> Mapping[Clause, tuple[int, ...]]:
        """Each clause's rule ids (none for a clause given alone)."""
        return {c: tuple(r.id for r in self.sources.get(c, ()) if r.id is not None)
                for c in self.clauses}

    def __len__(self) -> int:  # also its truth: a base without clauses is false
        return len(self.clauses)

    def satisfied_by(self, inst: Instance) -> bool:
        """Conjunction semantics: true iff every clause is satisfied."""
        return all(clause.satisfied_by(inst) for clause in self.clauses)

    def subset(self, clauses: Iterable[Clause]) -> "KnowledgeBase":
        """The chosen clauses in the given order, each with its own rules."""
        chosen = tuple(clauses)
        sources = {c: self.sources[c] for c in chosen if c in self.sources}
        return KnowledgeBase(chosen, sources, self.truncated)


def space_to_obj(space: FeatureSpace) -> list:
    return [{"name": name, "domain": list(domain)} for name, domain in space.features]


def space_from_obj(obj: list) -> FeatureSpace:
    features = []
    for i, f in enumerate(obj):
        where = "features[%d]" % i
        domain = json_field(f, "domain", list, where)
        if not all(isinstance(label, str) for label in domain):
            raise SpaceError("%s: field 'domain': expected a list of strings" % where)
        features.append((json_field(f, "name", str, where), domain))
    return FeatureSpace.make(features)


def rebind_literal(lit: Literal, old: FeatureSpace, new: FeatureSpace) -> Literal:
    """Re-express a literal in another space by feature name and value label."""
    if not old.has(lit):
        raise SpaceError("literal outside the space it is rebound from: "
                         "feature %r, value index %r" % (lit.feature, lit.value))
    name, dom = old.features[lit.feature]
    return new.literal(name, dom[lit.value], negated=lit.negated)


def rebind_rule(rule: Rule, old: FeatureSpace, new: FeatureSpace) -> Rule:
    return Rule(frozenset(rebind_literal(l, old, new) for l in rule.antecedent),
                rebind_literal(rule.consequent, old, new),
                rule.id, rule.support, rule.consistency)


def rebind_knowledge(kb: "KnowledgeBase", old: FeatureSpace,
                     new: FeatureSpace) -> "KnowledgeBase":
    """Carry a knowledge base onto a compatible space (e.g. a model's space).

    Every feature name and value label must exist in the target space; target
    domains may be larger (models sometimes know values the data never took).
    A clause is rebuilt from each of its rules, rebound (two readings of one
    binary clause split once a domain grows); one given alone, literal by literal.
    """
    sources: dict[Clause, list[Rule]] = {}
    for clause in kb.clauses:
        rules = [rebind_rule(r, old, new) for r in kb.sources.get(clause, ())]
        if not rules:
            sources.setdefault(Clause.of(rebind_literal(l, old, new) for l in clause), [])
        for rule in rules:
            sources.setdefault(rule_to_clause(new, rule), []).append(rule)
    return KnowledgeBase(tuple(sources), {c: tuple(rs) for c, rs in sources.items() if rs},
                         kb.truncated)


_JSON_TYPES = {list: "a list", str: "a string", int: "an integer", dict: "an object",
               bool: "a boolean", number: "a number"}


def json_field(obj, key: str, kind=object, where: str = ""):
    """`obj[key]`, checked to be a `kind`: a type, or `number` (a boolean is
    no int and no number); a fault raises SpaceError naming the field and
    `where` (its parent's path), for file loaders' messages."""
    at = where + ": " if where else ""
    if not isinstance(obj, dict):
        raise SpaceError("%sexpected an object, got %s" % (at, reprlib.repr(obj)))
    if key not in obj:
        raise SpaceError("%smissing field %r" % (at, key))
    value = obj[key]
    if not (number(value) if kind is number
            else isinstance(value, kind) and not (kind is int and type(value) is bool)):
        raise SpaceError("%sfield %r: expected %s, got %s"
                         % (at, key, _JSON_TYPES[kind], reprlib.repr(value)))
    return value


def read_json(path, error: type[Exception]):
    """Parse a JSON file; bad syntax, encoding or nesting deeper than the
    recursion limit raises `error` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error("%s: invalid JSON: %s" % (path, exc)) from None


def write_json(path, obj) -> None:
    """Write `obj` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Kind(str, Enum):
    """Explanation kind: abductive (why) or contrastive (why not)."""

    AXP = "axp"
    CXP = "cxp"


@dataclass(frozen=True)
class Explanation:
    """A set of feature indices explaining one prediction, with provenance flags."""

    kind: Kind
    features: frozenset[int]
    knowledge_assisted: bool

    @property
    def size(self) -> int:
        return len(self.features)

    def feature_names(self, space: FeatureSpace) -> list[str]:
        return [space.names[f] for f in sorted(self.features)]
