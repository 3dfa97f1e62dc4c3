"""Why/why-not explanations: minimal sets, smallest-first enumeration, audits.

An abductive explanation (AXp) is a subset-minimal set of features whose
fixed values entail the prediction over the whole space, optionally modulo a
knowledge base; a contrastive explanation (CXp) is a subset-minimal set of
features whose freeing admits a differently-classified, knowledge-consistent
point. A set is a CXp exactly when fixing the other features does not
entail the prediction, so one predicate and one deletion loop serve both
kinds. The two families are minimal-hitting-set duals, which drives the
smallest-first enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Optional

from .core import Explanation, Instance, Kind, KnowledgeBase
from .models import Model
from .oracle import EntailmentOracle, OracleResult, check_compatible


class ExplainError(ValueError):
    """Violated precondition (non-entailing seed, bad feature set, ...)."""


class _Questions:
    """Questions about one instance's prediction under `knowledge` (None:
    none), put to one oracle. A supplied oracle must be built over the same
    model and hold every clause of `knowledge`: one oracle over (model, K)
    answers under any subset of K."""

    def __init__(self, model: Model, instance: Instance,
                 knowledge: Optional[KnowledgeBase],
                 oracle: Optional[EntailmentOracle]):
        kb = knowledge if knowledge is not None else KnowledgeBase()
        check_compatible(instance, kb)
        if oracle is None:
            oracle = EntailmentOracle(model, kb)
        elif oracle.model != model:
            raise ExplainError("the supplied oracle was built over a different model")
        elif not set(kb.clauses) <= set(oracle.knowledge.clauses):
            raise ExplainError("the knowledge has clauses outside the supplied "
                               "oracle's knowledge base")
        self.oracle, self.instance, self.knowledge = oracle, instance, kb
        self.predicted = model.classify(instance)
        # the oracle's whole knowledge base needs no clause switched off
        self._subset = kb if len(kb) < len(oracle.knowledge) else None

    def holds(self, kind: Kind, features: AbstractSet[int]) -> tuple[bool, OracleResult]:
        """Does the set meet the kind's defining condition? One oracle call.

        An AXp fixes its features and entails the prediction; a CXp frees its
        features, so fixing the rest does not entail it.
        """
        axp = kind is Kind.AXP
        fixed = features if axp else frozenset(range(self.oracle.space.m)) - features
        res = self.oracle.query(fixed, self.instance, self.predicted, self._subset)
        return res.entails == axp, res

    def shrink(self, kind: Kind, seed: frozenset[int]) -> frozenset[int]:
        """Deletion-based linear search, ascending feature order; the seed must hold."""
        current = set(seed)
        for f in sorted(seed):
            current.discard(f)
            if not self.holds(kind, current)[0]:
                current.add(f)
        return frozenset(current)


def _feature_set(features: Iterable[int], m: int) -> frozenset[int]:
    fset = frozenset(features)
    if any(not 0 <= f < m for f in fset):
        raise ExplainError("feature index out of range in %s" % sorted(fset))
    return fset


_SEED_FAILS = {Kind.AXP: "seed %s does not entail the prediction",
               Kind.CXP: "freeing seed %s admits no counterexample"}


def _find(kind: Kind, model: Model, instance: Instance,
          knowledge: Optional[KnowledgeBase], seed: Optional[Iterable[int]],
          oracle: Optional[EntailmentOracle]) -> Explanation:
    q = _Questions(model, instance, knowledge, oracle)
    m = model.space.m
    seed_set = _feature_set(seed, m) if seed is not None else frozenset(range(m))
    if not q.holds(kind, seed_set)[0]:
        raise ExplainError(_SEED_FAILS[kind] % sorted(seed_set))
    return Explanation(kind, q.shrink(kind, seed_set), bool(q.knowledge))


def find_axp(model: Model, instance: Instance,
             knowledge: Optional[KnowledgeBase] = None,
             seed: Optional[Iterable[int]] = None,
             oracle: Optional[EntailmentOracle] = None) -> Explanation:
    """Subset-minimal AXp inside `seed` (default: all features).

    One oracle call per seed feature, plus one validating the seed.
    """
    return _find(Kind.AXP, model, instance, knowledge, seed, oracle)


def find_cxp(model: Model, instance: Instance,
             knowledge: Optional[KnowledgeBase] = None,
             seed: Optional[Iterable[int]] = None,
             oracle: Optional[EntailmentOracle] = None) -> Explanation:
    """Subset-minimal CXp inside `seed` (default: all features); calls as find_axp."""
    return _find(Kind.CXP, model, instance, knowledge, seed, oracle)


def check_explanation(features: Iterable[int], kind: Kind, model: Model,
                      instance: Instance, knowledge: Optional[KnowledgeBase] = None,
                      oracle: Optional[EntailmentOracle] = None) -> bool:
    """Does the feature set satisfy the kind's defining condition? One oracle call."""
    q = _Questions(model, instance, knowledge, oracle)
    return q.holds(Kind(kind), _feature_set(features, model.space.m))[0]


def reduce_explanation(features: Iterable[int], kind: Kind, model: Model,
                       instance: Instance, knowledge: Optional[KnowledgeBase] = None,
                       oracle: Optional[EntailmentOracle] = None) -> Explanation:
    """Shrink a correct (possibly oversized) explanation to a subset-minimal one."""
    return _find(Kind(kind), model, instance, knowledge, features, oracle)


# ---------------------------------------------------------------------------
# smallest-first enumeration via minimal hitting set duality

@dataclass
class DualState:
    """Explanations found so far; every stored AXp intersects every stored CXp."""

    found_axps: list[frozenset[int]] = field(default_factory=list)
    found_cxps: list[frozenset[int]] = field(default_factory=list)


@dataclass
class EnumerationResult:
    explanations: list[Explanation]
    exhausted: bool           # true when no further explanation exists
    oracle_calls: int
    state: DualState

    @property
    def feature_sets(self) -> list[frozenset[int]]:
        return [e.features for e in self.explanations]


def _lb_disjoint(unhit: list[int]) -> int:
    count, covered = 0, 0
    for s in unhit:
        if not s & covered:
            count += 1
            covered |= s
    return count


def _mhs_dfs(i: int, chosen: int, count: int, k: int,
             sets: list[int], blocked: list[int]) -> Optional[int]:
    for b in blocked:
        if not b & ~chosen:
            return None  # chosen is a superset of a blocked emission
    unhit = [s for s in sets if not s & chosen]
    if not unhit:
        return chosen
    if count >= k:
        return None
    future = ~((1 << i) - 1)
    if any(not s & future for s in unhit):
        return None
    if count + _lb_disjoint(unhit) > k:
        return None
    union = 0
    for s in unhit:
        union |= s
    rest = union & future
    j = (rest & -rest).bit_length() - 1
    found = _mhs_dfs(j + 1, chosen | (1 << j), count + 1, k, sets, blocked)
    if found is not None:
        return found
    return _mhs_dfs(j + 1, chosen, count, k, sets, blocked)


def minimum_hitting_set(sets: Iterable[frozenset[int]],
                        blocked: Iterable[frozenset[int]],
                        universe: int) -> Optional[frozenset[int]]:
    """Smallest set hitting every set in `sets` while containing no blocked set.

    Exact iterative-deepening branch and bound over element bitmasks; ties
    between equal-cardinality answers break lexicographically. None when
    infeasible.
    """
    def mask(s):
        return sum(1 << e for e in s)

    set_masks = sorted({mask(s) for s in sets})
    blocked_masks = [mask(b) for b in blocked]
    if 0 in set_masks or 0 in blocked_masks:
        return None  # an empty dual cannot be hit / an empty emission blocks everything
    for k in range(universe + 1):
        found = _mhs_dfs(0, 0, 0, k, set_masks, blocked_masks)
        if found is not None:
            return frozenset(f for f in range(universe) if found >> f & 1)
    return None


def enumerate_smallest(kind: Kind, model: Model, instance: Instance,
                       knowledge: Optional[KnowledgeBase] = None, n: int = 20,
                       oracle: Optional[EntailmentOracle] = None) -> EnumerationResult:
    """Up to n explanations of the kind, nondecreasing in size.

    Implicit hitting set loop: propose a minimum hitting set of the opposing
    duals collected so far (skipping supersets of prior emissions); an oracle
    check either certifies it (emit and block) or yields a counterexample
    from which a new dual is extracted and recorded.
    """
    kind = Kind(kind)
    dual = Kind.CXP if kind is Kind.AXP else Kind.AXP
    q = _Questions(model, instance, knowledge, oracle)
    calls0 = q.oracle.calls
    m = model.space.m
    state = DualState()
    found = {Kind.AXP: state.found_axps, Kind.CXP: state.found_cxps}
    out: list[Explanation] = []
    exhausted = False
    while len(out) < n:
        # emitted sets are blocked: no later candidate may contain one
        cand = minimum_hitting_set(found[dual], found[kind], m)
        if cand is None:
            exhausted = True
            break
        ok, res = q.holds(kind, cand)
        if ok:
            out.append(Explanation(kind, cand, bool(q.knowledge)))
            found[kind].append(cand)
            continue
        # a failed AXp candidate's witness frees a CXp; a failed CXp
        # candidate's complement fixes an AXp
        if kind is Kind.AXP:
            seed = frozenset(f for f in range(m)
                             if res.witness.values[f] != instance.values[f])
        else:
            seed = frozenset(range(m)) - cand
        found[dual].append(q.shrink(dual, seed))
    return EnumerationResult(out, exhausted, q.oracle.calls - calls0, state)


# ---------------------------------------------------------------------------
# attributing explanations to knowledge rules

def attribute_rules(model: Model, instance: Instance, knowledge: KnowledgeBase,
                    axp_features: Iterable[int],
                    oracle: Optional[EntailmentOracle] = None) -> KnowledgeBase:
    """Subset-minimal part of the knowledge responsible for an assisted AXp.

    Returns the empty knowledge base when the AXp already holds without any
    knowledge; otherwise drops clauses one by one in the knowledge base's
    order, keeping each only if entailment breaks without it. Attribution is
    at clause granularity; provenance keeps all originating rule ids.
    """
    q = _Questions(model, instance, knowledge, oracle)
    oracle, c = q.oracle, q.predicted
    fset = _feature_set(axp_features, model.space.m)
    if not q.holds(Kind.AXP, fset)[0]:
        raise ExplainError("feature set %s is not an AXp under the knowledge"
                           % sorted(fset))
    if oracle.query(fset, instance, c, KnowledgeBase()).entails:
        return knowledge.subset([])
    kept = list(knowledge.clauses)
    for clause in knowledge.clauses:
        trial = [cl for cl in kept if cl != clause]
        if oracle.query(fset, instance, c, KnowledgeBase(tuple(trial))).entails:
            kept = trial
    return knowledge.subset(kept)
