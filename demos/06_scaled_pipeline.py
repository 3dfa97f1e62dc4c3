"""The full pipeline on a real dataset: quantize, mine, validate, explain.

Needs scikit-learn for the 569-row breast-cancer dataset. Numeric columns
get equal-width interval bins fitted on the training split only; the miner
extracts exact rules from the training rows; rule quality is judged on held
out data; and the mined knowledge then shortens the why-answers of a model
trained on the same table.
"""

import tempfile
from pathlib import Path

try:
    from sklearn.datasets import load_breast_cancer
except ImportError:
    raise SystemExit("this demo needs scikit-learn (pip install scikit-learn)")

from kxp import (ExtractionLimit, Kind, enumerate_smallest, extract_all,
                 fit_quantization, load_csv, quantize, rule_accuracy, split,
                 train_decision_list)
from kxp.oracle import EntailmentOracle

data = load_breast_cancer()
csv_path = Path(tempfile.mkdtemp()) / "breast_cancer.csv"
with open(csv_path, "w") as fh:
    fh.write(",".join([n.replace(" ", "_") for n in data.feature_names]
                      + ["diagnosis"]) + "\n")
    for row, label in zip(data.data, data.target):
        fh.write(",".join(["%.6g" % x for x in row]
                          + [data.target_names[label]]) + "\n")

ds = load_csv(csv_path)
print("loaded %d rows, %d numeric columns" % (ds.n_rows, len(ds.numeric_columns)))

train, test = split(ds, 0.8, seed=1)
spec = fit_quantization(train, q=5)
train_q, test_q = quantize(train, spec), quantize(test, spec)
print("quantized into 5 intervals per column (cuts fitted on train only)")

kb = extract_all(train_q, ExtractionLimit(max_size=5, max_rules=500,
                                          time_budget=15.0))
accs = [rule_accuracy(r, test_q) for r in kb.rules]
print("mined %d rules%s; mean held-out accuracy %.4f"
      % (len(kb.rules), " (truncated)" if kb.truncated else "",
         sum(accs) / len(accs)))

dl = train_decision_list(train_q)
hits = sum(dl.classify(i) == l
           for i, l in zip(test_q.instances(), test_q.class_labels))
print("greedy decision list: %d rules, %.1f%% test accuracy"
      % (len(dl.rules), 100 * hits / test_q.n_rows))

oracle = EntailmentOracle(dl, kb)  # answers with and without the knowledge
insts = [i for i in test_q.instances() if kb.satisfied_by(i)][:8]
before, after = [], []
for inst in insts:
    before.append(enumerate_smallest(Kind.AXP, dl, inst, n=1,
                                     oracle=oracle).explanations[0].size)
    after.append(enumerate_smallest(Kind.AXP, dl, inst, knowledge=kb, n=1,
                                    oracle=oracle).explanations[0].size)
print("smallest why-answer over %d test instances: avg %.2f features "
      "without knowledge, %.2f with" % (len(insts), sum(before) / len(before),
                                        sum(after) / len(after)))
