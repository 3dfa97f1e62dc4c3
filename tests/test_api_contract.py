"""The library's public names pinned: what `kxp` exports and what `kxp.oracle`
defines. Adding or removing a name changes one of these lists, so it must be
deliberate.
"""

import ast
import inspect

import kxp
import kxp.oracle

PUBLIC = {
    "kxp": [
        "BoostedEnsemble", "Clause", "ColumnBins", "DLRule", "Dataset",
        "DecisionList", "DualState", "EntailmentOracle", "EnumerationResult",
        "ExplainError", "Explanation", "ExtractionLimit", "FeatureSpace",
        "IngestError", "Instance", "Kind", "KnowledgeBase", "Leaf", "Literal",
        "MinerError", "ModelError", "Node", "OracleError", "OracleResult",
        "QuantizationSpec", "Rule", "SpaceError", "Status", "attribute_rules",
        "check_explanation", "eclat_mine", "enumerate_min_rules",
        "enumerate_smallest", "extract_all", "find_axp", "find_cxp",
        "fit_quantization", "folds", "load_csv", "load_model",
        "minimum_hitting_set", "model_constraints", "quantize",
        "query_to_dimacs", "reduce_explanation", "rule_accuracy",
        "rule_to_clause", "save_model", "split", "train_boosted",
        "train_decision_list", "validate_rule",
    ],
    "kxp.oracle": [
        "EntailmentOracle", "OracleError", "OracleResult", "Status",
        "check_compatible", "query_to_dimacs",
    ],
}


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
    for module in (kxp, kxp.oracle):
        names = public_names(module)
        assert names == PUBLIC[module.__name__], module.__name__
        assert all(hasattr(module, n) for n in names)
