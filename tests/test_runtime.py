"""The runtime is pure standard library: pyproject declares no dependencies,
and no module imports a name it does not use."""

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


def test_src_modules_use_every_name_they_import():
    """Every name a module's imports bind is read in that module. Exempt:
    `__init__.py`, whose imports are re-exports, and `__future__`."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno)
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d: %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []
