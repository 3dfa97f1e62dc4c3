"""kxp: mine exact background rules from tabular data and use them to compute,
enumerate and audit formal why/why-not explanations of decision-list and
boosted-tree classifiers through a propositional entailment oracle."""

from .core import (Clause, Explanation, FeatureSpace, Instance, Kind,
                   KnowledgeBase, Literal, Rule, SpaceError, rule_to_clause,
                   validate_rule)
from .ingest import (ColumnBins, Dataset, IngestError, QuantizationSpec,
                     fit_quantization, folds, load_csv, quantize, split)
from .miner import (ExtractionLimit, MinerError, enumerate_min_rules,
                    extract_all, rule_accuracy)
from .models import (BoostedEnsemble, DecisionList, DLRule, Leaf, ModelError,
                     Node, load_model, save_model, train_boosted,
                     train_decision_list)
from .oracle import EntailmentOracle, OracleError, OracleResult, Status
from .explain import (EnumerationResult, ExplainError, attribute_rules,
                      check_explanation, enumerate_smallest, find_axp,
                      find_cxp, minimum_hitting_set, reduce_explanation)

__version__ = "0.1.0"
