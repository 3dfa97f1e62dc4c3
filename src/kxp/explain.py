"""Why/why-not explanations: minimal sets, smallest-first enumeration, audits.

An abductive explanation (AXp) is a subset-minimal set of features whose
fixed values entail the prediction over the whole space, optionally modulo a
knowledge base; a contrastive explanation (CXp) is a subset-minimal set of
features whose freeing admits a differently-classified, knowledge-consistent
point. A set is a CXp exactly when fixing the other features does not
entail the prediction, so one predicate serves both kinds, and one deletion
loop both kinds and attributions over clauses. The two families are
minimal-hitting-set duals, which drives the smallest-first enumerator. Its
hitting-set side is incremental: one solver per enumeration takes each new
dual and each emission as it comes and resumes its search from the last
answer, in one stack loop that no recursion limit bounds. A failed AXp
candidate's counterexample is moved back toward the instance before its
differences seed a dual, one feature at a time while it stays a
counterexample, by direct evaluation: a smaller seed, the same hitting sets,
fewer shrink questions.

Every entry point takes an optional oracle. A call that passes none reuses
the oracle the thread's last such call built, when it is over the same model
object, and otherwise builds one over its knowledge in its place. An oracle
enters a clause when a query first names it, so rows explained in turn with
and without one knowledge base share one build and one certificate store.

A set of features or clauses is one integer bit mask, from the hitting-set
solver through `_shrink` to the oracle's questions; a frozenset is built only
for an emitted explanation and for the public `minimum_hitting_set`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .core import Explanation, Instance, Kind, KnowledgeBase, integer
from .models import Model
from .oracle import EntailmentOracle, OracleError, OracleResult


class ExplainError(ValueError):
    """Violated precondition (non-entailing seed, bad feature set, ...)."""


# the oracle the last call without `oracle=` built, per thread
_slot = threading.local()


class _Questions:
    """Questions about one instance's prediction under `knowledge` (None:
    none), put to one oracle over the model: the one supplied, or else the
    thread's (see the module docstring)."""

    def __init__(self, model: Model, instance: Instance,
                 knowledge: Optional[KnowledgeBase],
                 oracle: Optional[EntailmentOracle]):
        kb = knowledge if knowledge is not None else KnowledgeBase()
        if oracle is None:
            oracle = getattr(_slot, "oracle", None)
            if oracle is None or oracle.model is not model:
                oracle = _slot.oracle = EntailmentOracle(model, kb)
        elif oracle.model != model:
            raise ExplainError("the supplied oracle was built over a different model")
        if not oracle.compatible(instance, kb):  # also the oracle's input check
            broken = next(c for c in kb.clauses if not c.satisfied_by(instance))
            raise OracleError("instance is incompatible with the knowledge clause "
                              + " OR ".join(map(model.space.render_literal, sorted(broken))))
        self.oracle, self.instance, self.knowledge = oracle, instance, kb
        self.predicted = model.classify(instance)  # only once the input is checked
        self.full = (1 << model.space.m) - 1

    def holds(self, kind: Kind, features: int) -> tuple[bool, OracleResult]:
        """Does the feature mask meet the kind's defining condition? One oracle call.

        An AXp fixes its features and entails the prediction; a CXp frees its
        features, so fixing the rest does not entail it.
        """
        axp = kind is Kind.AXP
        fixed = features if axp else self.full ^ features
        res = self.oracle.query(fixed, self.instance, self.predicted, self.knowledge)
        return res.entails == axp, res


def _shrink(seed: int, holds: Callable[[int], bool]) -> int:
    """A subset-minimal mask inside `seed` (which must hold) satisfying the
    monotone `holds`: deletion-based linear search, ascending, one call per
    bit. Explanations shrink over features, attributions over clauses."""
    current, left = seed, seed
    while left:
        low = left & -left
        left ^= low
        if holds(current ^ low):
            current ^= low
    return current


def _mask(elements: Iterable[int], universe: int, what: str = "element") -> int:
    """The elements as a bit mask, each an int in range(universe)."""
    mask = 0
    for e in elements:
        mask |= 1 << integer(e, what, ExplainError, 0, universe)
    return mask


def _elements(mask: int) -> frozenset[int]:
    """The indices of the mask's set bits."""
    return frozenset(e for e in range(mask.bit_length()) if mask >> e & 1)


def _kind(kind: Kind) -> Kind:
    try:
        return Kind(kind)
    except ValueError:
        raise ExplainError("kind %r is not one of axp, cxp" % (kind,)) from None


_SEED_FAILS = {Kind.AXP: "seed %s does not entail the prediction",
               Kind.CXP: "freeing seed %s admits no counterexample"}


def _find(kind: Kind, model: Model, instance: Instance,
          knowledge: Optional[KnowledgeBase], seed: Optional[Iterable[int]],
          oracle: Optional[EntailmentOracle]) -> Explanation:
    q = _Questions(model, instance, knowledge, oracle)
    seed_mask = _mask(seed, model.space.m, "feature index") if seed is not None else q.full
    if not q.holds(kind, seed_mask)[0]:
        raise ExplainError(_SEED_FAILS[kind] % sorted(_elements(seed_mask)))
    return Explanation(kind, _elements(_shrink(seed_mask, lambda s: q.holds(kind, s)[0])),
                       bool(q.knowledge))


def find_axp(model: Model, instance: Instance,
             knowledge: Optional[KnowledgeBase] = None,
             oracle: Optional[EntailmentOracle] = None) -> Explanation:
    """Subset-minimal AXp, shrunk from all features (`reduce_explanation`
    shrinks another seed). One oracle call per feature, plus one for all."""
    return _find(Kind.AXP, model, instance, knowledge, None, oracle)


def find_cxp(model: Model, instance: Instance,
             knowledge: Optional[KnowledgeBase] = None,
             oracle: Optional[EntailmentOracle] = None) -> Explanation:
    """Subset-minimal CXp, shrunk from all features; calls as find_axp."""
    return _find(Kind.CXP, model, instance, knowledge, None, oracle)


def check_explanation(features: Iterable[int], kind: Kind, model: Model,
                      instance: Instance, knowledge: Optional[KnowledgeBase] = None,
                      oracle: Optional[EntailmentOracle] = None) -> bool:
    """Does the feature set satisfy the kind's defining condition? One oracle call."""
    kind = _kind(kind)
    q = _Questions(model, instance, knowledge, oracle)
    return q.holds(kind, _mask(features, model.space.m, "feature index"))[0]


def reduce_explanation(features: Iterable[int], kind: Kind, model: Model,
                       instance: Instance, knowledge: Optional[KnowledgeBase] = None,
                       oracle: Optional[EntailmentOracle] = None) -> Explanation:
    """Shrink a correct (possibly oversized) explanation to a subset-minimal one."""
    return _find(_kind(kind), model, instance, knowledge, features, oracle)


# ---------------------------------------------------------------------------
# smallest-first enumeration via minimal hitting set duality

@dataclass
class EnumerationResult:
    explanations: list[Explanation]
    exhausted: bool           # true when no further explanation exists
    oracle_calls: int         # unlike the sets, depends on the oracle's store

    @property
    def feature_sets(self) -> list[frozenset[int]]:
        return [e.features for e in self.explanations]


def _search(left: int, unhit: list[int], blocked: list[int],
            floor: Optional[int]) -> tuple[Optional[int], bool]:
    """The lex-first set of at most `left` elements that hits every `unhit`
    set, holds no `blocked` set and sorts no lower than `floor` (if given), or
    None; and whether the size bound or the floor cut a branch. A branch adds
    elements of `future` to `chosen`, with `unhit`, `blocked` and `floor` what
    is left of each; while it picks an element, the branch passing it over
    waits on the stack as [future, chosen, left, unhit, blocked, floor]."""
    if not unhit or not left:  # settled as a pick is, below
        return (None, True) if unhit else (0, False)
    cut, stack, future, chosen = False, [], -1, 0
    while True:
        union = covered = disjoint = 0
        for s in unhit:
            s &= future
            if not s:
                break  # nothing left in `future` hits s: a dead branch
            union |= s
            if not s & covered:  # greedy disjoint sets: a lower bound on the picks
                disjoint += 1
                covered |= s
        if not s or disjoint > left:
            cut = cut or s != 0  # cut by the size bound, unless dead
            if not stack:
                return None, cut
            future, chosen, left, unhit, blocked, floor = stack.pop()
            continue
        bit = union & -union  # picked, or else passed over, by this branch
        future = -bit << 1
        if floor is not None:
            low = floor & -floor
            if bit < low:  # picking the bit would sort below the floor
                cut = True
                continue
            floor = floor ^ bit if bit == low else None  # the pick's floor
        kept = []
        for b in blocked:
            if b & bit:
                b ^= bit
                if not b:
                    break  # picking the bit completes a blocked set
            if not b & (bit - 1):  # else it keeps an element passed over
                kept.append(b)
        else:
            picked = [s for s in unhit if not s & bit]
            if not picked:
                return chosen | bit, False
            if left > 1:
                stack.append([future, chosen, left, unhit, blocked, None])
                chosen, left, unhit, blocked = chosen | bit, left - 1, picked, kept
                continue
            cut = True
        floor = None  # no pick: this branch passes the bit over, above the floor


class _HittingSets:
    """Minimum hitting sets of a family that only grows.

    The sets to hit and the blocked sets arrive one at a time as bit masks.
    Each answer is the smallest set hitting every set and containing no
    blocked set, with ties broken lexicographically. Added sets only shrink
    the feasible family, so its least member never decreases: each search
    resumes at the last answer's size, above the last answer. A search loops
    over an explicit stack, so no recursion limit bounds its depth.
    """

    def __init__(self, universe: int):
        self.universe = integer(universe, "universe", ExplainError)
        self._sets: list[int] = []
        self._blocked: list[int] = []
        self._last = self._size = 0  # the last answer (a mask) and its size
        self._empty = False  # no set is feasible, now or after later additions

    def hit(self, mask: int) -> None:
        """Every later answer must intersect the mask, a subset of the universe."""
        self._empty = self._empty or not mask
        self._sets.append(mask)

    def block(self, mask: int) -> None:
        """No later answer may contain the mask, a subset of the universe."""
        self._empty = self._empty or not mask
        self._blocked.append(mask)

    def minimum(self) -> Optional[int]:
        """The current least answer as a mask, or None when there is none."""
        if self._empty:
            return None
        for k in range(self._size, self.universe + 1):
            floor = self._last if k == self._size else None
            found, cut = _search(k, self._sets, self._blocked, floor)
            if found is not None:
                self._last, self._size = found, k
                return found
            if not cut:
                break  # nothing cut: no larger bound can succeed
        self._empty = True
        return None


def minimum_hitting_set(sets: Iterable[frozenset[int]],
                        blocked: Iterable[frozenset[int]],
                        universe: int) -> Optional[frozenset[int]]:
    """Smallest set hitting every set in `sets` while containing no blocked set.

    Exact iterative-deepening branch and bound over range(universe). Among
    the answers of minimum size it returns the one whose sorted element list
    is lexicographically least. None when infeasible (an empty set to hit, an
    empty blocked set, or every hitting set containing a blocked one); a
    universe or an element that breaks `integer` (elements lie in
    range(universe)) raises ExplainError. Adding sets to hit or to block only
    shrinks the feasible family, so the answer never decreases in (size, lex)
    order; `enumerate_smallest` relies on that to resume each search where the
    last one stopped.
    """
    hs = _HittingSets(universe)
    for s in sets:
        hs.hit(_mask(s, universe))
    for b in blocked:
        hs.block(_mask(b, universe))
    found = hs.minimum()
    return None if found is None else _elements(found)


def enumerate_smallest(kind: Kind, model: Model, instance: Instance,
                       knowledge: Optional[KnowledgeBase] = None, n: int = 20,
                       oracle: Optional[EntailmentOracle] = None) -> EnumerationResult:
    """The n least explanations of the kind in (size, lex) order (all, if fewer).

    Implicit hitting set loop: propose a minimum hitting set of the opposing
    duals collected so far (skipping supersets of prior emissions); an oracle
    check either certifies it (emit and block) or yields a counterexample
    from which a new dual is extracted and recorded. One incremental
    hitting-set solver serves the whole loop. A failed AXp's witness first
    moves back toward the instance, feature by feature in ascending order,
    while it stays a counterexample (direct evaluation, no question). It
    still agrees with the instance on the candidate, so where it differs
    seeds a dual the candidate misses and every AXp hits: the same answers
    from fewer shrink questions. An n that breaks `integer` (n >= 1) or an
    unknown kind raises ExplainError.
    """
    integer(n, "n", ExplainError, 1)
    kind = _kind(kind)
    dual = Kind.CXP if kind is Kind.AXP else Kind.AXP
    q = _Questions(model, instance, knowledge, oracle)
    calls0 = q.oracle.calls
    out: list[Explanation] = []
    exhausted = False
    hs = _HittingSets(model.space.m)
    while len(out) < n:
        cand = hs.minimum()
        if cand is None:
            exhausted = True
            break
        ok, res = q.holds(kind, cand)
        if ok:
            out.append(Explanation(kind, _elements(cand), bool(q.knowledge)))
            hs.block(cand)  # no later candidate may contain an emission
            continue
        # a failed AXp candidate's witness, moved back toward the instance,
        # frees a CXp; a failed CXp candidate's complement fixes an AXp
        if kind is Kind.AXP:
            point, seed = list(res.witness.values), 0
            for f, v in enumerate(instance.values):
                if point[f] != v:
                    point[f], w = v, point[f]
                    if not q.oracle._counterexample(tuple(point), q.predicted):
                        point[f] = w
                        seed |= 1 << f
        else:
            seed = q.full ^ cand
        hs.hit(_shrink(seed, lambda s: q.holds(dual, s)[0]))
    return EnumerationResult(out, exhausted, q.oracle.calls - calls0)


# ---------------------------------------------------------------------------
# attributing explanations to knowledge rules

def attribute_rules(model: Model, instance: Instance, knowledge: KnowledgeBase,
                    axp_features: Iterable[int],
                    oracle: Optional[EntailmentOracle] = None) -> KnowledgeBase:
    """Subset-minimal part of the knowledge responsible for an assisted AXp.

    Returns the empty knowledge base when the AXp holds without knowledge;
    otherwise `_shrink` over clause indices, in the base's order, keeps each
    clause only if entailment breaks without it. A trial that holds the core
    of the last entailment the oracle searched entails without a query.
    Attribution is at clause granularity; each clause keeps all its rules.
    """
    q = _Questions(model, instance, knowledge, oracle)
    fixed = _mask(axp_features, model.space.m, "feature index")
    if not q.holds(Kind.AXP, fixed)[0]:
        raise ExplainError("feature set %s is not an AXp under the knowledge"
                           % sorted(_elements(fixed)))
    clauses, oracle = q.knowledge.clauses, q.oracle
    index = {clause: i for i, clause in enumerate(clauses)}
    core: Optional[int] = None  # the last core the oracle left, as a mask over indices

    def entails(kept: int) -> bool:
        nonlocal core
        if core is not None and not core & ~kept:
            return True
        trial = KnowledgeBase(tuple(c for i, c in enumerate(clauses) if kept >> i & 1))
        if not oracle.query(fixed, instance, q.predicted, trial).entails:
            return False
        # every later trial lies within this one, which lacks the old core
        found = oracle._core_clauses()
        if found is not None:
            core = sum(1 << index[clause] for clause in found)
        return True

    kept = 0 if entails(0) else _shrink((1 << len(clauses)) - 1, entails)
    return q.knowledge.subset(c for i, c in enumerate(clauses) if kept >> i & 1)
