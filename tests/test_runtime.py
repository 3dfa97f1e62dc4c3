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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_src_has_no_unreferenced_private_code():
    """Every private module-level name, every private method (and every
    method of a private class but dunders) and every private attribute set
    on `self` is read somewhere in `src/kxp` outside its own definition."""
    defined, reads = [], []  # (module, name, first line, last line); (module, name, line)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((path.name, node.attr, node.lineno))
            elif isinstance(node, ast.Attribute) and _private(node.attr) \
                    and isinstance(node.value, ast.Name) and node.value.id == "self":
                defined.append((path.name, node.attr, node.lineno, node.lineno))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(path.name, name, node.lineno, node.end_lineno)
                        for name in names if _private(name)]
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, item.name, item.lineno, item.end_lineno)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and (_private(item.name) or _private(node.name)
                                 and not item.name.startswith("__"))]
    unread = ["%s:%d: %s" % (module, first, name)
              for module, name, first, last in defined
              if not any(read == name and (at != module or not first <= line <= last)
                         for at, read, line in reads)]
    assert unread == []


def test_only_the_integer_helper_states_the_integer_rule():
    """No string constant in `src/kxp` says `not an integer`, docstrings
    included, except within `core.integer`: every index and count check
    goes through that one helper, so its message has one form."""
    stated = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = range(0)
        if path.name == "core.py":
            [node] = [n for n in tree.body
                      if isinstance(n, ast.FunctionDef) and n.name == "integer"]
            helper = range(node.lineno, node.end_lineno + 1)
        stated += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and "not an integer" in node.value and node.lineno not in helper]
    assert stated == []
