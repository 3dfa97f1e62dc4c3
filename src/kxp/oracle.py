"""The entailment oracle: is "fixed features AND knowledge AND misclassification" satisfiable?

UNSAT answers certify abductive explanations; SAT answers return a witness
point that seeds contrastive explanations. The search is a complete
backtracking procedure with unit propagation over feature domains, each one
integer with bit v set while value v is possible. After every propagation a
class test asks whether a point within the domains can be classified other
than the contested class. Each model family has its own, bound once when the
oracle is built, over one live set (`_Live`): every leaf of every tree, or
every rule of a decision list, is one bit of one integer, `alive`. The trail
is the only undo log: `_force` is the one write to the domains, and each
domain change appends one entry (the feature, its previous domain and the
previous `alive`), queues the literals it falsifies (`f = v` for each value
v it removes, then `f != v` once v is the last value left) and clears the
leaves or rules that hold them with one AND; undo restores both. Each queued
literal wakes the active clauses that hold it (`occurs`: per literal, a mask
of clause ids) in ascending id order, so which clause forces a literal
depends only on the trail. An ensemble's test reads per-class score bounds:
the per-tree [lo, hi] and their per-class sums are brought up to date when
the test reads them, for the trees whose leaves changed since. A list's test
takes the first live rule of another class and reads literal by literal only
the live contested rules before it, for one that surely fires. Both tests
are sound on partial domains and exact on a full assignment.

The variables are the features and the clauses the knowledge, each entered
once and for good, by `_add_clauses`: the build's base at once, any other
clause when a query first names it. A knowledge subset is one mask over the
clause ids, `_active` (by default the build's base); propagation, the unit
assumptions and the store read it. The mask is worked out again only when
a query names another subset object.

The propagated state is kept between queries. A query's assumptions, first
the active unit clauses and then the fixed features in descending order, are
levels on one trail, each propagated to fixpoint. The next query keeps the
leading levels whose assumptions it also asserts, propagates the rest of its
own above them, searches, and undoes back to its own root. Levels are kept
only while the mask stays the same: they hold the consequences of the subset
they were propagated under, so a query under another subset starts from the
empty trail. Propagation reaches one fixpoint whatever is reused, and the
search returns the first solution in its fixed order. The state confines an
oracle to one task at a time.

An entailment searched with every level propagated from the empty trail
leaves a core (`_core`, a mask over the clause ids; `_core_clauses`): the
active unit clauses and each clause that forced a literal or failed during
the search. Any other clause changed no domain, so the search runs the same
without it and fails the same way: every subset that holds the core entails
that query. The core depends only on the query and the subset, not on the
questions asked before. A query whose levels were kept, or that the store
answered, leaves no core. Attribution's deletion trials all start from the
empty trail, since each switches off a clause, and a trial that holds the
last core needs no query.

A witness is re-checked apart from the search: its fixed values and class
directly, the active clauses by per (feature, value) masks of the clauses
that value satisfies, filled in as each clause is entered; so are an
instance's compatibility with a subset (`compatible`) and a point the
enumerator moves back toward its instance (`_counterexample`).

A searched answer is also kept as a certificate (`_Certificates`) when the
query runs under the whole base (every clause entered) or under no clause,
the subsets rows are explained under with and without the knowledge; an
attribution trial's answers are not kept. An entailment (its fixed values and
contested class) answers a later query that fixes a superset of those values,
for the same class; a counterexample (its witness and the class the re-check
gave it), one whose fixed values it agrees with and whose contested class is
not its class. Each store marks its `plain` entries: an entailment found with
no clause active, a witness that breaks no clause of the base (a clause that
enters may break it, so entering one clears these bits). Under the whole base
every entailment may answer, under no clause every witness, and under any
other subset only the plain entries: an entailment holds under every superset
of the clauses it was found under, and a witness is a counterexample under
every subset of the clauses it satisfies. A query asks the entailments, then
the witnesses, then searches; a hit leaves the kept levels as they are. So a
status never depends on the queries asked before, but a witness is some
counterexample, perhaps an earlier query's: the same for the same sequence of
questions to one oracle. `calls` counts every question and `store_hits` those
the store answered.

A query's fixed features, given as indices or as one integer mask (bit f:
feature f is fixed), are a mask from the input check to the store, the
assumptions and the witness re-check. An instance's values are checked once
per instance object: the last one that passed is kept if its values are a tuple.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .core import Clause, FeatureSpace, Instance, KnowledgeBase, Literal, integer
from .models import BoostedEnsemble, DecisionList, Leaf, Model, ModelError, Tree

# solver literal: (variable, value, negated) over the features 0..m-1
_SLit = tuple[int, int, bool]


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


def _lit_slit(lit: Literal) -> _SLit:
    return (lit.feature, lit.value, lit.negated)


class _Live:
    """The oracle's live set: the leaves of an ensemble's trees (`_Leaves`) or
    the rules of a decision list (`_Rules`), each one bit of the integer
    `alive`, kept on the oracle's trail, and the family's class test
    (`possible`) over it.

    A leaf or rule dies when a literal on its path or in its antecedent is
    falsified; it revives only when that domain change is undone, and undo
    is last-in-first-out, so later falsified literals need no count. `dying`
    maps each literal to the mask of the bits whose conjunction holds it.
    The oracle's `_force` queues the literals a domain change falsifies, ORs
    their masks and clears them from `alive` with one AND; its trail entry
    keeps the `alive` it replaced, and undo restores the one from the first
    entry it undoes.
    """

    def __init__(self, conjunctions: list[list[_SLit]]):
        """One bit per conjunction of literals, in order, all alive."""
        self.dying: dict[_SLit, int] = {}  # literal -> bits that die when it is false
        for bit, lits in enumerate(conjunctions):
            for slit in lits:
                self.dying[slit] = self.dying.get(slit, 0) | 1 << bit
        self.alive = (1 << len(conjunctions)) - 1


class _Rules(_Live):
    """A decision list's rules: rule j is bit j, so the first rule that can
    still fire is the lowest live bit. `other[c]` masks the rules whose
    class is not c; only the live rules of class c before the first live
    one of another class are read literal by literal against the domains."""

    def __init__(self, model: DecisionList, dom: list[int]):
        self.dom, self.default = dom, model.default
        self.rules = [sorted(map(_lit_slit, rule.antecedent)) for rule in model.rules]
        self.other = [sum(1 << j for j, rule in enumerate(model.rules) if rule.cls != c)
                      for c in range(model.class_count())]
        super().__init__(self.rules)

    def possible(self, contested: int) -> bool:
        """The list's class test: can a point within the domains be
        classified other than contested? False if a live contested rule
        before the first live rule of another class surely fires (every
        literal true); else True if such a rule exists, and past the last
        live rule the default answers."""
        alive = self.alive
        others = alive & self.other[contested]
        first = others & -others
        mine = alive & ~others & (first - 1)  # every live rule when first is 0
        dom, rules = self.dom, self.rules
        while mine:
            low = mine & -mine
            mine ^= low
            for var, value, negated in rules[low.bit_length() - 1]:
                d = dom[var]
                if (d >> value & 1) if negated else (d != 1 << value):
                    break
            else:
                return False
        return bool(first) or self.default != contested


class _Leaves(_Live):
    """An ensemble's leaves and its per-group score bounds. Tree t owns a
    contiguous range of bits, its leaves in ascending weight order, so its
    [lo, hi] are the weights of the lowest and highest live bit in its
    range. The per-tree bounds and the group sums are brought up to date
    when they are read (`sync`): only the trees with a bit changed since the
    last reading are visited, whatever kills and undos came in between."""

    def __init__(self, model: BoostedEnsemble):
        self.positive = model.positive
        self.weights: list[int] = []  # per bit
        self.tree_of: list[int] = []  # per bit
        self.masks: list[int] = []  # per tree: its bit range
        self.below: list[int] = []  # per tree: the bits below its range
        self.group_of: list[int] = []  # per tree
        paths: list[list[_SLit]] = []  # per bit
        for g, group in enumerate(model.trees):
            for tree in group:
                t, first = len(self.masks), len(self.weights)
                leaves: list[tuple[list[_SLit], int]] = []
                _collect_paths(tree, [], leaves)
                leaves.sort(key=lambda leaf: leaf[1])
                for path, weight in leaves:
                    paths.append(path)
                    self.weights.append(weight)
                    self.tree_of.append(t)
                self.masks.append((1 << len(self.weights)) - (1 << first))
                self.below.append((1 << first) - 1)
                self.group_of.append(g)
        super().__init__(paths)
        # per tree and per group, as of the last sync with `alive` = `seen`
        self.lo, self.hi = [0] * len(self.masks), [0] * len(self.masks)
        self.group_lo, self.group_hi = [0] * len(model.trees), [0] * len(model.trees)
        self.seen = 0
        self.sync()

    def sync(self) -> None:
        """Bring the per-tree bounds and group sums up to date with `alive`."""
        alive = self.alive
        changed = alive ^ self.seen
        if not changed:
            return
        self.seen = alive
        weights, tree_of, masks, below = self.weights, self.tree_of, self.masks, self.below
        lo, hi, group_lo, group_hi = self.lo, self.hi, self.group_lo, self.group_hi
        while changed:  # from the highest changed tree down
            t = tree_of[changed.bit_length() - 1]
            changed &= below[t]
            live = alive & masks[t]
            t_lo = weights[(live & -live).bit_length() - 1]
            t_hi = weights[live.bit_length() - 1]
            g = self.group_of[t]
            group_lo[g] += t_lo - lo[t]
            group_hi[g] += t_hi - hi[t]
            lo[t], hi[t] = t_lo, t_hi

    def possible(self, contested: int) -> bool:
        """The ensemble's class test: can scores within the group bounds be
        classified other than contested? Sound: each group's bounds are
        taken independently."""
        self.sync()
        if self.positive is not None:
            return self.group_lo[0] <= 0 if contested == self.positive \
                else self.group_hi[0] > 0
        c_lo = self.group_lo[contested]
        for other, other_hi in enumerate(self.group_hi):
            if (other < contested and other_hi >= c_lo) \
                    or (other > contested and other_hi > c_lo):
                return True
        return False


def _collect_paths(tree: Tree, path: list[_SLit],
                   leaves: list[tuple[list[_SLit], int]]) -> None:
    """Append (path literals, weight) for each leaf of the tree, yes-branch first."""
    if isinstance(tree, Leaf):
        leaves.append((list(path), tree.weight))
        return
    var, value, negated = _lit_slit(tree.test)
    _collect_paths(tree.yes, path + [(var, value, negated)], leaves)
    _collect_paths(tree.no, path + [(var, value, not negated)], leaves)


# certificates of each kind one oracle keeps; past it the oldest is replaced
_STORE_SIZE = 1024


class _Certificates:
    """Earlier answers of one kind, each a partial assignment (`values[f]`
    for each bit f of the mask `features`) and a class, under ids 0.._STORE_SIZE-1 that
    are reused oldest first: entailments, each fixing some features, or
    witnesses, each assigning every feature.

    Per feature one bitset holds the ids that assign it (`fixes`), per
    (feature, value) one the ids that assign that value (`has`), per class
    one the ids of that class, and `plain` the ids of the entries that may
    answer under every knowledge subset. A lookup reads every entry
    (`every`) or only the plain ones."""

    def __init__(self, sizes: list[int], classes: int):
        self.fixes = [0] * len(sizes)
        self.has = [[0] * size for size in sizes]
        self.of_class = [0] * classes
        self.entries: list[tuple[int, tuple[int, ...], int]] = []  # per id
        self.plain = 0
        self._next = 0

    def add(self, features: int, values: tuple[int, ...], cls: int,
            plain: bool) -> None:
        """Keep an entry (its features a mask), in place of the oldest when full."""
        i = self._next
        self._next = (i + 1) % _STORE_SIZE
        bit = 1 << i
        fixes, has = self.fixes, self.has
        entry = (features, values, cls)
        if i < len(self.entries):
            old_features, old_values, old_cls = self.entries[i]
            for f, row in enumerate(has):
                if old_features >> f & 1:
                    fixes[f] ^= bit
                    row[old_values[f]] ^= bit
            self.of_class[old_cls] ^= bit
            self.entries[i] = entry
        else:
            self.entries.append(entry)
        for f, row in enumerate(has):
            if features >> f & 1:
                fixes[f] |= bit
                row[values[f]] |= bit
        self.of_class[cls] |= bit
        self.plain = self.plain | bit if plain else self.plain & ~bit

    def within(self, fixed: int, values: tuple[int, ...], cls: int,
               every: bool) -> bool:
        """Is an entry of class cls assigned only values the query fixes?"""
        ids = self.of_class[cls] if every else self.plain & self.of_class[cls]
        has = self.has
        for f, fx in enumerate(self.fixes):
            if not ids:
                return False
            if fixed >> f & 1:
                fx ^= has[f][values[f]]  # the ids assigning f another value
            ids &= ~fx
        return bool(ids)

    def agreeing(self, fixed: int, values: tuple[int, ...], cls: int,
                 every: bool) -> Optional[tuple[int, ...]]:
        """The values of an entry of a class other than cls that agrees
        with the query on every fixed feature, or None."""
        ids = ((1 << len(self.entries)) - 1 if every else self.plain) & ~self.of_class[cls]
        has = self.has
        while fixed and ids:
            low = fixed & -fixed
            fixed ^= low
            f = low.bit_length() - 1
            ids &= has[f][values[f]]
        return self.entries[(ids & -ids).bit_length() - 1][1] if ids else None


class EntailmentOracle:
    """Reusable oracle over one model; queries vary Z, c and the knowledge (by
    default `knowledge`, the build's base), whose new clauses enter for good.

    Owns mutable search state, kept from one query to the next and reset when
    the mask of active clauses changes: confine an instance to one task at a time.
    """

    def __init__(self, model: Model, knowledge: Optional[KnowledgeBase] = None):
        self.model = model
        self.space: FeatureSpace = model.space
        self.knowledge = knowledge if knowledge is not None else KnowledgeBase()
        self.calls = 0
        self.store_hits = 0  # of `calls`, those answered from the store

        m = self.space.m
        self._sizes = [len(self.space.domain(f)) for f in range(m)]
        self._full = (1 << m) - 1  # every feature, as each witness assigns them
        self._valid: Optional[Instance] = None  # the last instance `_checked` passed
        self.dom: list[int] = [(1 << s) - 1 for s in self._sizes]  # bit v: v possible
        # one entry per domain change: (feature, previous domain, previous alive)
        self.trail: list[tuple[int, int, int]] = []
        # the kept assumption levels: (assumed literal, trail length after it)
        self._levels: list[tuple[_SLit, int]] = []
        # the live set and its class test, `_possible(contested)` at every
        # node. An ensemble's tree-tested features are decided first, so the
        # bounds tighten early; a list's stay in feature order.
        tested: set[int] = set()
        if isinstance(model, DecisionList):
            self._live: _Live = _Rules(model, self.dom)
        elif isinstance(model, BoostedEnsemble):
            self._live = _Leaves(model)
            tested = {var for var, _, _ in self._live.dying}
        else:
            raise ModelError("unsupported model type %r" % type(model).__name__)
        self._possible = self._live.possible
        self._order = sorted(tested) + sorted(set(range(m)) - tested)

        self.clauses: list[list[_SLit]] = []
        # per solver literal, the ids of the clauses of two or more literals holding it
        self.occurs: dict[_SLit, int] = {}
        self.units: list[tuple[int, _SLit]] = []
        self._unit_ids = 0  # the unit clauses' ids, as a mask
        # the witness check's knowledge half: per (feature, value) the
        # clauses it satisfies, filled in by `_add_clauses`
        self._satisfies = [[0] * size for size in self._sizes]
        self._kb_ids: dict[Clause, int] = {}  # every clause entered, in id order
        self._all = 0  # the ids of every clause entered, as a mask
        args = (self._sizes, model.class_count())
        self._entailed, self._witnesses = _Certificates(*args), _Certificates(*args)
        self._add_clauses(self.knowledge.clauses)
        self._subset: Optional[KnowledgeBase] = None  # the last subset switched to
        self._base = self._active = self._all  # id masks: the build's base, the subset in force
        # the clauses that forced a literal or failed since `_solve` last
        # started, and the last query's core (see `query`), as masks
        self._used = 0
        self._core: Optional[int] = None

    # -- clause database -----------------------------------------------------

    def _add_clauses(self, clauses: tuple[Clause, ...]) -> None:
        """Enter the clauses not entered yet, once all their literals are known
        to lie in the model's space: list each one under its literals in `occurs`
        (a unit clause is an assumption instead), mark the values that satisfy
        it, clear `plain`."""
        new = [clause for clause in clauses if clause not in self._kb_ids]
        for lit in (lit for clause in new for lit in clause.literals):
            if not self.space.has(lit):
                raise OracleError("knowledge literal outside the model's space: "
                                  "feature %r, value index %r" % (lit.feature, lit.value))
        for clause in new:
            slits = [_lit_slit(l) for l in clause.literals]
            ci = self._kb_ids[clause] = len(self.clauses)
            self._all |= 1 << ci
            self._witnesses.plain = 0
            self.clauses.append(slits)
            if len(slits) == 1:
                self.units.append((ci, slits[0]))
                self._unit_ids |= 1 << ci
            else:
                for slit in slits:
                    self.occurs[slit] = self.occurs.get(slit, 0) | 1 << ci
            for var, value, negated in slits:
                row = self._satisfies[var]
                for v in range(len(row)):
                    if (v == value) != negated:  # the literal holds at v
                        row[v] |= 1 << ci

    def _switch(self, knowledge: Optional[KnowledgeBase]) -> None:
        """Make `knowledge` (None: the build's base) the subset in force,
        entering the clauses not seen yet; the kept levels go when the mask changes."""
        if knowledge is self._subset:  # a KnowledgeBase is frozen
            return
        try:  # a base's clauses are distinct, so the sum is their OR
            active = self._base if knowledge is None else \
                sum(1 << self._kb_ids[clause] for clause in knowledge.clauses)
        except KeyError:  # a clause not entered yet
            self._add_clauses(knowledge.clauses)
            return self._switch(knowledge)
        self._subset = knowledge
        if active != self._active:
            self._undo_to(0)
            self._levels.clear()
            self._active = active

    def _core_clauses(self) -> Optional[list[Clause]]:
        """The clauses of the last query's core, or None if it left none."""
        core = self._core
        return None if core is None else [c for c, ci in self._kb_ids.items() if core >> ci & 1]

    def _satisfied(self, values: tuple[int, ...]) -> int:
        """The ids of the clauses a point satisfies, as a mask."""
        satisfied = 0
        for row, v in zip(self._satisfies, values):
            satisfied |= row[v]
        return satisfied

    def _counterexample(self, values: tuple[int, ...], contested: int) -> bool:
        """Does the point satisfy every clause of the subset in force and
        get a class other than contested? Direct evaluation, no question."""
        active = self._active
        return not (active and active & ~self._satisfied(values)) \
            and self.model.classify(Instance(values)) != contested

    def compatible(self, instance: Instance,
                   knowledge: Optional[KnowledgeBase] = None) -> bool:
        """Does the instance satisfy every clause of the subset (default: the
        build's base)? One OR per feature; the subset stays in force."""
        self._checked(0, instance, 0)
        self._switch(knowledge)
        return not self._active & ~self._satisfied(instance.values)

    # -- propagation ---------------------------------------------------------

    def _force(self, slit: _SLit, queue: deque) -> bool:
        """Make the literal true: False if that empties its domain. A change
        is one trail entry, and the literals it falsifies are queued (`var =
        v` for each removed v, ascending, then `var != v` if v is the last
        value left) and the leaves or rules that hold them die."""
        var, value, negated = slit
        old = self.dom[var]
        new = old & ~(1 << value) if negated else old & 1 << value
        if new == old:
            return True
        if not new:
            return False
        live, dying = self._live, self._live.dying
        self.dom[var] = new
        self.trail.append((var, old, live.alive))
        bits, gone = 0, old ^ new
        while gone:
            low = gone & -gone
            gone ^= low
            lit = (var, low.bit_length() - 1, False)
            queue.append(lit)
            bits |= dying.get(lit, 0)
        if not new & new - 1:
            lit = (var, new.bit_length() - 1, True)
            queue.append(lit)
            bits |= dying.get(lit, 0)
        live.alive &= ~bits
        return True

    def _propagate(self, queue: deque) -> bool:
        """Wake the active clauses that hold each falsified literal, in
        ascending id order. A clause with no true literal and one that is
        not false forces it; with none that is not false, it fails."""
        active, dom, clauses, occurs = self._active, self.dom, self.clauses, self.occurs
        while queue:
            woken = occurs.get(queue.popleft(), 0) & active
            while woken:
                low = woken & -woken
                woken ^= low
                unit = None  # the one literal not false so far
                for slit in clauses[low.bit_length() - 1]:
                    var, value, negated = slit
                    d = dom[var]
                    if d >> value & 1:
                        if d != 1 << value:  # neither true nor false
                            if unit is not None:
                                break
                            unit = slit
                        elif not negated:
                            break  # true
                    elif negated:
                        break  # true
                else:
                    self._used |= low
                    if unit is None:  # every literal false
                        return False
                    self._force(unit, queue)
        return True

    def _undo_to(self, mark: int) -> None:
        trail, dom = self.trail, self.dom
        if len(trail) > mark:
            self._live.alive = trail[mark][2]
            for var, old, _ in reversed(trail[mark:]):
                dom[var] = old
            del trail[mark:]

    def _assume(self, slit: _SLit) -> bool:
        """Propagate one literal to fixpoint; on a conflict undo its changes."""
        mark = len(self.trail)
        queue: deque = deque()
        if self._force(slit, queue) and self._propagate(queue):
            return True
        self._undo_to(mark)
        return False

    # -- search --------------------------------------------------------------

    def _search(self, contested: int) -> Optional[Instance]:
        dom = self.dom
        var = next((f for f in self._order if dom[f] & dom[f] - 1), None)
        if var is None:  # every domain is one value: a witness
            return Instance(tuple(d.bit_length() - 1 for d in dom))
        d = dom[var]
        while d:  # values in ascending order
            low = d & -d
            d ^= low
            value = low.bit_length() - 1
            mark = len(self.trail)
            if self._assume((var, value, False)) and self._possible(contested):
                found = self._search(contested)
                if found is not None:
                    return found
            self._undo_to(mark)
        return None

    def _solve(self, assumptions: list[_SLit],
               contested: int) -> tuple[Optional[Instance], bool]:
        """A witness under the assumptions, or None; ends at their root level.
        Also whether every level was propagated anew, from the empty trail:
        only then does `_used` cover the whole search."""
        levels = self._levels
        wanted = set(assumptions)
        kept = 0
        for slit, _ in levels:
            if slit not in wanted:
                break
            kept += 1
        del levels[kept:]
        # also drops what a query that raised partway left above its levels
        self._undo_to(levels[-1][1] if levels else 0)
        fresh, self._used = not levels, 0
        held = {slit for slit, _ in levels}
        for slit in assumptions:
            if slit in held:
                continue
            if not self._assume(slit):
                return None, fresh
            levels.append((slit, len(self.trail)))
        if not self._possible(contested):
            return None, fresh
        root = len(self.trail)
        witness = self._search(contested)
        self._undo_to(root)
        return witness, fresh

    def _checked(self, fixed: Iterable[int] | int, instance: Instance,
                 contested: int) -> int:
        """The fixed features as a mask (bit f: feature f is fixed), once the
        query's indices and values are known to be integers in the model's
        space and classes. An instance's values are checked once: the last
        instance that passed is remembered if its values are a tuple."""
        sizes, m = self._sizes, len(self._sizes)
        if instance is not self._valid:
            values = instance.values
            if len(values) != m:
                raise OracleError("instance has %d values, space has %d features"
                                  % (len(values), m))
            for f, v in enumerate(values):
                integer(v, "feature %d value" % f, OracleError, 0, sizes[f])
            if type(values) is tuple:
                self._valid = instance
        if isinstance(fixed, int):
            mask = integer(fixed, "fixed mask", OracleError, 0, 1 << m)
        else:
            mask = 0
            for f in fixed:
                mask |= 1 << integer(f, "fixed feature index", OracleError, 0, m)
        integer(contested, "contested class", OracleError, 0, self.model.class_count())
        return mask

    def query(self, fixed: Iterable[int] | int, instance: Instance, contested: int,
              knowledge: Optional[KnowledgeBase] = None) -> OracleResult:
        """Decide the query; Z (feature indices, or a mask with bit f set
        when feature f is fixed), the contested class and the knowledge
        (default: the build's base) are per-call. A counterexample may carry
        an earlier query's witness."""
        fixed = self._checked(fixed, instance, contested)
        self._switch(knowledge)
        self.calls += 1
        self._core = None
        active, whole = self._active, self._active == self._all
        values = instance.values
        if self._entailed.within(fixed, values, contested, whole):
            self.store_hits += 1
            return OracleResult(Status.ENTAILS)
        stored = self._witnesses.agreeing(fixed, values, contested, not active)
        if stored is not None:
            self.store_hits += 1
            return OracleResult(Status.COUNTEREXAMPLE, Instance(stored))
        assumptions = [slit for ci, slit in self.units if active >> ci & 1]
        assumptions += [(f, values[f], False)
                        for f in range(fixed.bit_length() - 1, -1, -1) if fixed >> f & 1]
        witness, fresh = self._solve(assumptions, contested)
        keep = whole or not active  # the whole base or no clause
        if witness is None:
            if fresh:
                self._core = self._used | self._unit_ids & active
            if keep:
                self._entailed.add(fixed, values, contested, not active)
            return OracleResult(Status.ENTAILS)
        satisfied = self._satisfied(witness.values)
        cls = self.model.classify(witness)
        found = witness.values
        if not (all(found[f] == values[f] for f in range(len(found)) if fixed >> f & 1)
                and not active & ~satisfied and cls != contested):
            raise AssertionError("witness fails direct evaluation")
        if keep:
            self._witnesses.add(self._full, witness.values, cls,
                                satisfied == self._all)
        return OracleResult(Status.COUNTEREXAMPLE, witness)
