"""Source hygiene: every imported name in the package and its tests is used, and
every top-level function and class of the package has a reader.

No linter ships with the test dependencies, so these scans are the gate for
unused imports and dead definitions.  ``__init__.py`` is left out of the import
scan: its imports are re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    [p for p in (ROOT / "src" / "mloop").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    assert {"loop_core.py", "cli.py", "conftest.py", "test_hygiene.py"} <= {p.name for p in SCANNED}
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SCANNED
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# Top-level functions and classes of `src/mloop` that nothing in `src/` uses and
# `__init__` does not export.  The list may only shrink.
UNREFERENCED_ALLOWED = set()


def _reads(tree):
    """How often each name is read in ``tree``, as a name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_definitions(sources):
    """``module:name`` for each top-level function or class of ``sources``
    ({file name: source}) read nowhere outside its own definition, counting
    names and attributes in every source, and the ``__all__`` of ``__init__.py``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    exported = set()
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    reads = sum(map(_reads, trees.values()), Counter())
    return sorted(
        f"{name[:-3]}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exported
        and reads[node.name] == _reads(node)[node.name]
    )


def test_every_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in (ROOT / "src" / "mloop").glob("*.py")}
    assert "structure.py" in sources and "__init__.py" in sources
    assert set(unreferenced_definitions(sources)) == UNREFERENCED_ALLOWED


def test_unreferenced_definitions_are_found():
    sources = {
        "__init__.py": "from .a import kept\n__all__ = ['kept']\n",
        "a.py": "def kept():\n    pass\n\n\ndef helper():\n    return 1\n\n\n"
                "def lonely(n):\n    return lonely(n - 1)\n\n\nclass Used:\n    pass\n\n\n"
                "def caller():\n    return helper() + Used()\n",
        "b.py": "from . import a\n\n\ndef run():\n    return a.caller()\n",
    }
    assert unreferenced_definitions(sources) == ["a:lonely", "b:run"]
