"""The entailment oracle: is "fixed features AND knowledge AND misclassification" satisfiable?

UNSAT answers certify abductive explanations; SAT answers return a witness
point that seeds contrastive explanations. The search is a complete
backtracking procedure with watched-literal unit propagation over one-hot
feature domains. Ensembles add sound per-class score-interval pruning: the
bounds are re-checked at the root and after every change to a tree-tested
feature's domain, by decision or by propagation, so on a full assignment the
last check saw singleton domains and was exact.

An oracle enters every clause once: the model encoding, the knowledge and,
for decision lists, each class's challenge. A query switches off the other
classes' challenges and the knowledge clauses outside its subset (by default
none); switched-off clauses stay watched and are skipped when they wake.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Optional

from .core import Clause, FeatureSpace, Instance, KnowledgeBase
from .models import DLEncoding, Model, SLit, model_constraints


class OracleError(ValueError):
    """Bad query: malformed inputs or violated preconditions."""


class Status(Enum):
    ENTAILS = "entails"
    COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class OracleResult:
    status: Status
    witness: Optional[Instance] = None

    def __post_init__(self):
        if (self.status is Status.COUNTEREXAMPLE) != (self.witness is not None):
            raise OracleError("counterexamples carry a witness; entailments do not")

    @property
    def entails(self) -> bool:
        return self.status is Status.ENTAILS


def check_compatible(instance: Instance, knowledge: KnowledgeBase) -> None:
    """Raise unless the instance satisfies every knowledge clause."""
    for clause in knowledge.clauses:
        if not clause.satisfied_by(instance):
            raise OracleError("instance is incompatible with the knowledge clause %s"
                              % sorted(clause.literals))


def _event(slit: SLit) -> tuple:
    var, value, negated = slit
    # the event on which this literal becomes false
    return ("fix", var, value) if negated else ("rm", var, value)


class EntailmentOracle:
    """Reusable oracle over one (model, knowledge) pair; queries vary Z, c and K's subset.

    Owns mutable search state: confine an instance to one task at a time.
    """

    def __init__(self, model: Model, knowledge: Optional[KnowledgeBase] = None):
        self.model = model
        self.space: FeatureSpace = model.space
        self.knowledge = knowledge if knowledge is not None else KnowledgeBase()
        self.encoding = model_constraints(model)
        self.calls = 0

        m = self.space.m
        self._sizes = [len(self.space.domain(f)) for f in range(m)]
        sizes = self._sizes + [2] * self.encoding.aux_count
        self.dom: list[set[int]] = [set(range(s)) for s in sizes]
        self.trail: list[tuple[int, int]] = []

        # decide score-relevant features first and re-check score bounds only
        # when one of them was pruned
        self._score_feats = self.encoding.score_features
        self._order = (sorted(self._score_feats)
                       + sorted(set(range(m)) - self._score_feats))

        self.clauses: list[list[SLit]] = []
        self.cwatch: list[list[int]] = []
        self.watch: dict[tuple, list[int]] = {}
        self.units: list[tuple[int, SLit]] = []
        self._off: set[int] = set()  # clause ids switched off for this query
        for clause in self.encoding.clauses:
            self._add_clause(clause)
        self._kb_ids: dict[Clause, int] = {
            clause: self._add_clause([(l.feature, l.value, l.negated)
                                      for l in clause.literals])
            for clause in self.knowledge.clauses}
        # class -> id of its challenge clause; an empty challenge means the
        # class is always entailed, a vacuous one adds nothing
        self._challenge: dict[int, int] = {}
        self._entailed: set[int] = set()
        for c in range(model.class_count()):
            ch = self.encoding.challenge_clause(c)
            if ch == []:
                self._entailed.add(c)
            elif ch is not None:
                self._challenge[c] = self._add_clause(ch)

    # -- clause database -----------------------------------------------------

    def _add_clause(self, slits: list[SLit]) -> int:
        ci = len(self.clauses)
        self.clauses.append(slits)
        self.cwatch.append([0, 1])
        if len(slits) == 1:
            self.units.append((ci, slits[0]))
        else:
            for pos in (0, 1):
                self.watch.setdefault(_event(slits[pos]), []).append(ci)
        return ci

    def _switched_off(self, contested: int,
                      knowledge: Optional[KnowledgeBase]) -> set[int]:
        off = {ci for c, ci in self._challenge.items() if c != contested}
        if knowledge is not None:
            active = set(knowledge.clauses)
            if any(clause not in self._kb_ids for clause in active):
                raise OracleError("the knowledge subset has a clause outside "
                                  "the oracle's knowledge base")
            off.update(ci for clause, ci in self._kb_ids.items()
                       if clause not in active)
        return off

    # -- literal state -------------------------------------------------------

    def _true(self, slit: SLit) -> bool:
        var, value, negated = slit
        d = self.dom[var]
        return (value not in d) if negated else (len(d) == 1 and value in d)

    def _false(self, slit: SLit) -> bool:
        var, value, negated = slit
        d = self.dom[var]
        return (len(d) == 1 and value in d) if negated else (value not in d)

    # -- propagation ---------------------------------------------------------

    def _remove(self, var: int, value: int, queue: deque) -> bool:
        d = self.dom[var]
        if value not in d:
            return True
        if len(d) == 1:
            return False
        d.discard(value)
        self.trail.append((var, value))
        queue.append(("rm", var, value))
        if len(d) == 1:
            queue.append(("fix", var, next(iter(d))))
        return True

    def _force(self, slit: SLit, queue: deque) -> bool:
        var, value, negated = slit
        if negated:
            return self._remove(var, value, queue)
        if value not in self.dom[var]:
            return False
        for other in list(self.dom[var]):
            if other != value and not self._remove(var, other, queue):
                return False
        return True

    def _propagate(self, queue: deque) -> bool:
        off = self._off
        while queue:
            ev = queue.popleft()
            lst = self.watch.get(ev)
            if not lst:
                continue
            keep: list[int] = []
            i = 0
            while i < len(lst):
                ci = lst[i]
                i += 1
                if ci in off:
                    keep.append(ci)
                    continue
                slits = self.clauses[ci]
                w = self.cwatch[ci]
                if _event(slits[w[0]]) == ev and self._false(slits[w[0]]):
                    which = 0
                elif _event(slits[w[1]]) == ev and self._false(slits[w[1]]):
                    which = 1
                else:
                    keep.append(ci)  # spurious wakeup (stale entry after backtrack)
                    continue
                other = slits[w[1 - which]]
                if self._true(other):
                    keep.append(ci)
                    continue
                moved = False
                for pos, sl in enumerate(slits):
                    if pos in (w[0], w[1]) or self._false(sl):
                        continue
                    w[which] = pos
                    self.watch.setdefault(_event(sl), []).append(ci)
                    moved = True
                    break
                if moved:
                    continue
                keep.append(ci)
                # forcing a false literal fails without touching the domains
                if not self._force(other, queue):
                    keep.extend(lst[i:])
                    self.watch[ev] = keep
                    return False
            self.watch[ev] = keep
        return True

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            var, value = self.trail.pop()
            self.dom[var].add(value)

    # -- search --------------------------------------------------------------

    def _witness(self) -> Instance:
        return Instance(tuple(next(iter(self.dom[f])) for f in range(self.space.m)))

    def _search(self, contested: int) -> Optional[Instance]:
        var = next((f for f in self._order if len(self.dom[f]) > 1), None)
        if var is None:
            return self._witness()
        for value in sorted(self.dom[var]):
            mark = len(self.trail)
            queue: deque = deque()
            ok = self._force((var, value, False), queue) and self._propagate(queue)
            if ok and (not self._score_touched(mark)
                       or self.encoding.challenge_possible(contested, self.dom)):
                found = self._search(contested)
                if found is not None:
                    return found
            self._undo_to(mark)
        return None

    def _score_touched(self, mark: int) -> bool:
        if not self._score_feats:
            return False
        return any(var in self._score_feats for var, _ in self.trail[mark:])

    def _checked(self, fixed: Iterable[int], instance: Instance,
                 contested: int) -> set[int]:
        """The fixed features as a set, once the query's indices and values
        are known to lie in the model's space and classes."""
        m = len(self._sizes)
        values = instance.values
        if len(values) != m:
            raise OracleError("instance has %d values, space has %d features"
                              % (len(values), m))
        for f, (v, size) in enumerate(zip(values, self._sizes)):
            if not 0 <= v < size:
                raise OracleError("instance value %d out of range for feature %d" % (v, f))
        fixed = set(fixed)
        for f in fixed:
            if not 0 <= f < m:
                raise OracleError("fixed feature index %d out of range" % f)
        if not 0 <= contested < self.model.class_count():
            raise OracleError("contested class %d out of range" % contested)
        return fixed

    def query(self, fixed: Iterable[int], instance: Instance, contested: int,
              knowledge: Optional[KnowledgeBase] = None) -> OracleResult:
        """Decide the query; Z, the class challenge and the knowledge subset
        (default: the oracle's whole knowledge base) are per-call."""
        fixed = self._checked(fixed, instance, contested)
        self._off = self._switched_off(contested, knowledge)
        self.calls += 1
        if contested in self._entailed:
            return OracleResult(Status.ENTAILS)
        try:
            queue: deque = deque()
            units = [slit for ci, slit in self.units if ci not in self._off]
            units += [(f, instance.values[f], False) for f in sorted(fixed)]
            ok = all(self._force(slit, queue) for slit in units) and self._propagate(queue)
            witness = None
            if ok and self.encoding.challenge_possible(contested, self.dom):
                witness = self._search(contested)
        finally:
            self._undo_to(0)
        if witness is None:
            return OracleResult(Status.ENTAILS)
        active = knowledge if knowledge is not None else self.knowledge
        if not (all(witness.values[f] == instance.values[f] for f in fixed)
                and active.satisfied_by(witness)
                and self.model.classify(witness) != contested):
            raise AssertionError("witness fails direct evaluation")
        return OracleResult(Status.COUNTEREXAMPLE, witness)


# ---------------------------------------------------------------------------
# DIMACS dump for cross-checking with external solvers

def query_to_dimacs(model: Model, knowledge: Optional[KnowledgeBase],
                    fixed: Iterable[int], instance: Instance, contested: int) -> str:
    """CNF image of one query over one-hot indicators.

    The clauses are those of an `EntailmentOracle` over (model, knowledge) as
    the query switches them (an empty clause when `contested` is always
    entailed), the fixed features' units and the one-hot domain clauses.
    Indicator id = 1 + offset(feature) + value index, where offset is the sum
    of the domain sizes of earlier features. For decision lists the dump is
    equisatisfiable with the query; for ensembles the score comparison is not
    clausal and is omitted (a comment line says so).
    """
    oracle = EntailmentOracle(model, knowledge)
    fixed = oracle._checked(fixed, instance, contested)
    check_compatible(instance, oracle.knowledge)
    space = oracle.space
    enc = oracle.encoding
    offsets = []
    total = 0
    for f in range(space.m):
        offsets.append(total)
        total += len(space.domain(f))

    def ind(f: int, d: int) -> int:
        return 1 + offsets[f] + d

    aux_base = total  # aux Boolean b -> id aux_base + (b - m) + 1

    def slit_dimacs(slit: SLit) -> int:
        var, value, negated = slit
        if var < space.m:
            lit = ind(var, value)
            return -lit if negated else lit
        lit = aux_base + (var - space.m) + 1
        positive = (value == 1) != negated
        return lit if positive else -lit

    lines = []
    clauses: list[list[int]] = []
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
    off = oracle._switched_off(contested, None)
    clauses.extend([slit_dimacs(sl) for sl in slits]
                   for ci, slits in enumerate(oracle.clauses) if ci not in off)
    if contested in oracle._entailed:
        clauses.append([])

    n_vars = total + enc.aux_count
    if isinstance(enc, DLEncoding):
        comments.append("c aux vars %d..%d: rule match/fire/prefix chain"
                        % (aux_base + 1, n_vars))
    else:  # the oracle bounds ensemble scores and holds no leaf clauses
        leaf_id = n_vars
        for leaves in enc.leaf_paths():
            tree_vars = []
            for path, weight in leaves:
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
