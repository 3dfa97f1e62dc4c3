"""Mining exact background rules from a dataset.

Rules that hold on 100% of the training rows, with subset-minimal
antecedents, make good background knowledge: "IF Relationship = Husband THEN
Status = Married" is the canonical example. Treating rules as clauses lets
the miner block the k-1 symmetric readings of each emitted clause. Its
antecedents may hold != literals, so one rule can say what several rules of
= literals only would say.
"""

from pathlib import Path

from kxp import (Dataset, ExtractionLimit, FeatureSpace, Rule,
                 enumerate_min_rules, extract_all, load_csv, rule_accuracy)

DATA = Path(__file__).parent.parent / "data"
ds = load_csv(DATA / "adult_toy.csv")
sp = ds.space

print("-- rules targeting Status = Married (antecedents up to size 2)")
for rule in enumerate_min_rules(ds, sp.literal("Status", "Married"),
                                limit=ExtractionLimit(max_size=2)).rules:
    print("  [support %d] %s" % (rule.support, rule.render(sp)))
print()

print("-- duplicate blocking across targets")
kb = extract_all(ds, ExtractionLimit(max_size=2))
husband = "IF Status = Married AND Sex = Male THEN Relationship = Husband"
dup = "IF Status = Married AND Relationship != Husband THEN Sex = Female"
emitted = {r.render(sp) for r in kb.rules}
print("  emitted:     %r" % husband, husband in emitted)
print("  suppressed:  %r" % dup, dup not in emitted)
print("  (both are the same clause; one reading suffices)")
print()

print("-- one != rule says what two = rules say")
tern = FeatureSpace.make([("x1", ["0", "1", "2"]), ("x2", ["0", "1", "2"])])
tiny = Dataset(tern.names, tuple(d for _, d in tern.features),
               ((0, 0), (1, 1), (2, 1)))
negated = next(r for r in enumerate_min_rules(tiny, tern.literal("x2", "1"),
                                              limit=ExtractionLimit(max_size=1)).rules
               if any(l.negated for l in r.antecedent))
print("  lattice miner:", negated.render(tern))
admitted = [p for p in tern.points() if not negated.violated_by(p)]
for value in ("1", "2"):
    rule = Rule(frozenset({tern.literal("x1", value)}), tern.literal("x2", "1"))
    print("  implies %r:" % rule.render(tern),
          not any(rule.violated_by(p) for p in admitted))
print("  (checked on all %d points of the space)" % tern.size())
print()

print("-- rules generalize: accuracy of each mined rule on the full table")
accs = [rule_accuracy(r, ds) for r in kb.rules]
print("  %d rules, mean accuracy %.3f (trained on the same rows, so 1.0)"
      % (len(accs), sum(accs) / len(accs)))
