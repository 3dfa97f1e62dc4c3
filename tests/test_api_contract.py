"""The library's public names pinned: what `kxp` exports and what `kxp.models`
and `kxp.oracle` define, and the parameter names of each public function and
class `kxp` and `kxp.oracle` expose, the oracle's public methods, and the
knowledge base's public methods and views (the benchmark reads them). Adding
or removing a name or an option changes one of these lists, so it must be
deliberate.
"""

import ast
import enum
import functools
import inspect

import kxp
import kxp.models
import kxp.oracle

PUBLIC = {
    "kxp": [
        "BoostedEnsemble", "Clause", "ColumnBins", "DLRule", "Dataset",
        "DecisionList", "EntailmentOracle", "EnumerationResult",
        "ExplainError", "Explanation", "ExtractionLimit", "FeatureSpace",
        "IngestError", "Instance", "Kind", "KnowledgeBase", "Leaf", "Literal",
        "MinerError", "ModelError", "Node", "OracleError", "OracleResult",
        "QuantizationSpec", "Rule", "SpaceError", "Status", "attribute_rules",
        "check_explanation", "enumerate_min_rules", "enumerate_smallest",
        "extract_all", "find_axp", "find_cxp",
        "fit_quantization", "folds", "load_csv", "load_model",
        "minimum_hitting_set", "quantize", "reduce_explanation",
        "rule_accuracy", "rule_to_clause", "save_model", "split",
        "train_boosted", "train_decision_list", "validate_rule",
    ],
    "kxp.models": [
        "BoostedEnsemble", "DLRule", "DecisionList", "Leaf", "MODEL_FORMAT",
        "Model", "ModelError", "Node", "Tree", "load_model", "model_from_obj",
        "model_to_obj", "save_model", "train_boosted", "train_decision_list",
    ],
    "kxp.oracle": [
        "EntailmentOracle", "OracleError", "OracleResult", "Status",
    ],
}


# Enums and exceptions are left out: their parameters are the standard
# library's and vary across Python versions.
PARAMETERS = {
    "BoostedEnsemble": ["space", "classes", "scale", "trees", "positive"],
    "Clause": ["literals"],
    "ColumnBins": ["cuts", "labels"],
    "DLRule": ["antecedent", "cls"],
    "Dataset": ["names", "domains", "rows", "class_name", "class_domain",
                "class_labels", "class_position"],
    "DecisionList": ["space", "classes", "rules", "default"],
    "EntailmentOracle": ["model", "knowledge"],
    "EnumerationResult": ["explanations", "exhausted", "oracle_calls"],
    "Explanation": ["kind", "features", "knowledge_assisted"],
    "ExtractionLimit": ["max_size", "max_rules", "time_budget", "min_support"],
    "FeatureSpace": ["features"],
    "Instance": ["values"],
    "KnowledgeBase": ["clauses", "sources", "truncated"],
    "Leaf": ["weight"],
    "Literal": ["feature", "negated", "value"],
    "Node": ["test", "yes", "no"],
    "OracleResult": ["status", "witness"],
    "QuantizationSpec": ["columns"],
    "Rule": ["antecedent", "consequent", "id", "support", "consistency"],
    "attribute_rules": ["model", "instance", "knowledge", "axp_features",
                        "oracle"],
    "check_explanation": ["features", "kind", "model", "instance", "knowledge",
                          "oracle"],
    "enumerate_min_rules": ["train", "target", "blocked", "limit"],
    "enumerate_smallest": ["kind", "model", "instance", "knowledge", "n", "oracle"],
    "extract_all": ["train", "limit"],
    "find_axp": ["model", "instance", "knowledge", "oracle"],
    "find_cxp": ["model", "instance", "knowledge", "oracle"],
    "fit_quantization": ["ds", "q", "force"],
    "folds": ["ds", "k", "seed"],
    "load_csv": ["path", "class_column"],
    "load_model": ["path"],
    "minimum_hitting_set": ["sets", "blocked", "universe"],
    "quantize": ["ds", "spec"],
    "reduce_explanation": ["features", "kind", "model", "instance", "knowledge",
                           "oracle"],
    "rule_accuracy": ["rule", "test"],
    "rule_to_clause": ["space", "rule"],
    "save_model": ["model", "path"],
    "split": ["ds", "fraction", "seed"],
    "train_boosted": ["ds", "rounds", "depth"],
    "train_decision_list": ["ds"],
    "validate_rule": ["space", "rule"],
}


# the oracle's public methods and their parameter names (after self)
ORACLE_METHODS = {
    "compatible": ["instance", "knowledge"],
    "query": ["fixed", "instance", "contested", "knowledge"],
}


# the knowledge base's public methods and their parameter names (after self
# or cls), and its read-only views of `sources`
KNOWLEDGE_METHODS = {
    "from_rules": ["space", "rules", "truncated"],
    "satisfied_by": ["inst"],
    "subset": ["clauses"],
}
KNOWLEDGE_VIEWS = ["provenance", "rules"]


def public_names(module) -> list[str]:
    """The names a module binds at top level without a leading underscore.

    A package's relative imports are its exports and count; a module's
    imports serve its own code and do not.
    """
    package = hasattr(module, "__path__")
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif package and isinstance(node, ast.ImportFrom) and node.level:
            names.update(a.asname or a.name for a in node.names)
    return sorted(n for n in names if not n.startswith("_"))


def test_public_names_are_pinned():
    for module in (kxp, kxp.models, kxp.oracle):
        names = public_names(module)
        assert names == PUBLIC[module.__name__], module.__name__
        assert all(hasattr(module, n) for n in names)


def test_public_parameters_are_pinned():
    got = {}
    for module in (kxp, kxp.oracle):
        for name in PUBLIC[module.__name__]:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, (enum.Enum, BaseException)):
                continue
            got[name] = list(inspect.signature(obj).parameters)
    assert got == PARAMETERS


def test_oracle_methods_are_pinned():
    got = {name: list(inspect.signature(method).parameters)[1:]
           for name, method in inspect.getmembers(kxp.oracle.EntailmentOracle,
                                                  inspect.isfunction)
           if not name.startswith("_")}
    assert got == ORACLE_METHODS


def test_knowledge_base_read_surface_is_pinned():
    members = [(name, member) for name, member in inspect.getmembers(kxp.KnowledgeBase)
               if not name.startswith("_")]
    got = {name: [p for p in inspect.signature(member).parameters if p != "self"]
           for name, member in members if callable(member)}
    assert got == KNOWLEDGE_METHODS
    assert [name for name, member in members
            if isinstance(member, functools.cached_property)] == KNOWLEDGE_VIEWS
