"""Seeded input generators for the benchmark.

Everything kxp sees in a benchmark run is made here: the W1 table (as CSV
cells with a raw numeric column), the uniform table of the miner-budget
case, and the boosted-tree ensemble. Seeds are strings; string seeding of
`random.Random` does not depend on PYTHONHASHSEED, so the same seed always
gives the same inputs.
"""

from __future__ import annotations

import random
from typing import Sequence

from kxp import Dataset, FeatureSpace, Instance, Literal
from kxp.models import BoostedEnsemble, Leaf, Node

# W1: 1500 rows, 12 categorical features with domains of size 2..6. The sizes
# are fixed so that every seed gives a table of the same shape and cost.
W1_ROWS = 1500
W1_SIZES = (2, 3, 4, 3, 2, 5, 4, 3, 6, 4, 3, 5)
# f11 is written as raw floats; equal-width binning with q = |D11| maps it
# back to its value index, so `quantize` has work and nothing else changes.
W1_NUMERIC = 11
W1_LABELS = ("neg", "pos")

UNIFORM_ROWS = 4000
UNIFORM_SIZES = (3, 4, 3, 5, 4, 3, 4, 5, 3, 4, 3, 4, 5, 3)

BT_TREES = 20
BT_DEPTH = 3
BT_SCALE = 4
BT_DECAY = 0.5
BT_SHAPE_SEED = "bt-shape:0"


def w1_values(rng: random.Random) -> tuple[list[int], int]:
    """One W1 row (value indices) and its label, with the planted dependencies:

    - f0=v0 -> f1=v0
    - f2=v1 AND f3=v1 -> f4=v0
    - f5 = (f6 + f7) mod |D5|
    """
    s = W1_SIZES
    x = [rng.randrange(k) for k in s]
    if x[0] == 0:
        x[1] = 0
    if x[2] == 1 and x[3] == 1:
        x[4] = 0
    x[5] = (x[6] + x[7]) % s[5]
    score = (1.0 * (x[0] == 0) + 0.8 * (x[2] == 1) - 0.7 * (x[8] < 2)
             + 0.6 * x[9] / (s[9] - 1) + rng.gauss(0.0, 0.35))
    return x, int(score > 0.55)


def w1_csv_rows(seed: str) -> list[list[str]]:
    """W1 as CSV cells: header first, class column last, f11 as raw floats."""
    rng = random.Random("w1:" + seed)
    out = [["f%d" % f for f in range(len(W1_SIZES))] + ["label"]]
    for _ in range(W1_ROWS):
        x, y = w1_values(rng)
        cells = ["v%d" % v for v in x]
        cells[W1_NUMERIC] = "%.4f" % (x[W1_NUMERIC] + rng.uniform(0.15, 0.85))
        out.append(cells + [W1_LABELS[y]])
    return out


def planted_rules(space: FeatureSpace) -> list[tuple[frozenset[Literal], Literal]]:
    """The planted dependencies as (antecedent, consequent) over `space`.

    f5 = (f6 + f7) mod |D5| is planted as one exact rule per (f6, f7) pair.
    """
    lit = space.literal
    out = [(frozenset({lit(0, "v0")}), lit(1, "v0")),
           (frozenset({lit(2, "v1"), lit(3, "v1")}), lit(4, "v0"))]
    for a in range(W1_SIZES[6]):
        for b in range(W1_SIZES[7]):
            out.append((frozenset({lit(6, "v%d" % a), lit(7, "v%d" % b)}),
                        lit(5, "v%d" % ((a + b) % W1_SIZES[5]))))
    return out


def uniform_dataset(seed: str) -> Dataset:
    """4000 x 14 uniform categorical table with no class column (budget case)."""
    rng = random.Random("uniform:" + seed)
    names = tuple("u%d" % f for f in range(len(UNIFORM_SIZES)))
    domains = tuple(tuple("v%d" % v for v in range(k)) for k in UNIFORM_SIZES)
    rows = tuple(tuple(rng.randrange(k) for k in UNIFORM_SIZES)
                 for _ in range(UNIFORM_ROWS))
    return Dataset(names, domains, rows)


def random_ensemble(space: FeatureSpace, points: Sequence[Instance]) -> BoostedEnsemble:
    """Single-score binary ensemble of BT_TREES complete trees of BT_DEPTH.

    Each node tests `feature = value` for a feature not tested higher on its
    path; tree t's leaf weights are uniform in +-BT_DECAY**t (fixed point).
    The trees come from one fixed draw: a fresh draw per seed changed the
    cost of explaining the same instances threefold between seeds. Tree 0's
    leaves are then shifted so that the median score over `points` is zero,
    which keeps both predicted classes common.
    """
    rng = random.Random(BT_SHAPE_SEED)

    def grow(level: int, used: frozenset[int], weight: float):
        if level == BT_DEPTH:
            return Leaf(int(rng.uniform(-1.0, 1.0) * weight))
        f = rng.choice([g for g in range(space.m) if g not in used])
        test = space.literal(f, rng.randrange(len(space.domain(f))))
        return Node(test, grow(level + 1, used | {f}, weight),
                    grow(level + 1, used | {f}, weight))

    group = [grow(0, frozenset(), 10 ** BT_SCALE * BT_DECAY ** t)
             for t in range(BT_TREES)]
    drawn = BoostedEnsemble(space, W1_LABELS, BT_SCALE, (tuple(group),), positive=1)
    scores = sorted(drawn.group_score(0, p) for p in points)
    group[0] = _shift(group[0], -scores[len(scores) // 2])
    return BoostedEnsemble(space, W1_LABELS, BT_SCALE, (tuple(group),), positive=1)


def _shift(tree, bias: int):
    if isinstance(tree, Leaf):
        return Leaf(tree.weight + bias)
    return Node(tree.test, _shift(tree.yes, bias), _shift(tree.no, bias))
