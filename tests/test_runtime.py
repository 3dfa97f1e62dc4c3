"""The runtime is pure standard library: pyproject declares no dependencies."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "kxp"


def test_src_imports_only_the_standard_library_and_kxp():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one inside kxp
            foreign += ["%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"kxp"}]
    assert foreign == []
