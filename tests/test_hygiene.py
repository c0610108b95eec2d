"""Source hygiene: every imported name in the package and its tests is used.

No linter ships with the test dependencies, so this scan is the gate for
unused imports.  ``__init__.py`` is left out: its imports are re-exports.
"""

import ast
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
