import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kxp import (EntailmentOracle, FeatureSpace, KnowledgeBase, Rule, load_csv,
                 load_model)
from kxp.models import DecisionList, DLRule

DATA = Path(__file__).parent.parent / "data"


@pytest.fixture
def builds(monkeypatch):
    """One entry per oracle built while the test runs."""
    built = []
    init = EntailmentOracle.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EntailmentOracle, "__init__", counting_init)
    return built


@pytest.fixture(scope="session")
def toy_ds():
    return load_csv(DATA / "adult_toy.csv")


@pytest.fixture(scope="session")
def toy_dl():
    return load_model(DATA / "adult_toy_dl.json")


@pytest.fixture(scope="session")
def toy_bt():
    return load_model(DATA / "adult_toy_bt.json")


@pytest.fixture(scope="session")
def small_dl():
    return load_model(DATA / "adult_small_dl.json")


@pytest.fixture(scope="session")
def row1(toy_ds, toy_dl):
    """First table row (the married high-school husband) in the model space."""
    return toy_dl.space.instance_from_labels(toy_ds.row_labels(0))


@pytest.fixture(scope="session")
def separated_male(toy_dl):
    """The dropout/service/not-in-family instance used in the two-rule DL walkthrough."""
    return toy_dl.space.instance_from_labels({
        "Education": "Dropout", "Status": "Separated", "Occupation": "Service",
        "Relationship": "Not-in-family", "Sex": "Male", "Hours/w": "<=40"})


@pytest.fixture(scope="session")
def marital_constraint(toy_dl):
    """Sex=Male and Relationship=Not-in-family forces Status=Separated."""
    sp = toy_dl.space
    rule = Rule(frozenset({sp.literal("Sex", "Male"),
                           sp.literal("Relationship", "Not-in-family")}),
                sp.literal("Status", "Separated"), id=0, support=1, consistency=1.0)
    return KnowledgeBase.from_rules(sp, [rule])


@pytest.fixture(scope="session")
def bool3_space():
    return FeatureSpace.make([("a", ["0", "1"]), ("b", ["0", "1"]),
                              ("c", ["0", "1"])])


@pytest.fixture(scope="session")
def threshold_dl(bool3_space):
    """Positive iff at least two of the three Booleans are set."""
    L = bool3_space.literal
    return DecisionList(bool3_space, ("neg", "pos"), (
        DLRule(frozenset({L("a", "1"), L("b", "1")}), 1),
        DLRule(frozenset({L("a", "1"), L("c", "1")}), 1),
        DLRule(frozenset({L("b", "1"), L("c", "1")}), 1),
    ), default=0)


@pytest.fixture(scope="session")
def parity_dl(bool3_space):
    """Classifies the parity of a+b+c."""
    L = bool3_space.literal
    return DecisionList(bool3_space, ("EVEN", "ODD"), (
        DLRule(frozenset({L("a", "1"), L("b", "1"), L("c", "1")}), 1),
        DLRule(frozenset({L("a", "1"), L("b", "0"), L("c", "0")}), 1),
        DLRule(frozenset({L("a", "0"), L("b", "1"), L("c", "0")}), 1),
        DLRule(frozenset({L("a", "0"), L("b", "0"), L("c", "1")}), 1),
    ), default=0)
