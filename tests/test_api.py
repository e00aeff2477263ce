"""Every name the package exports is reached by the package itself or by the
benchmark: an export that only its own tests use is dead API."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "msras"

# dense oracles of the acceptance criteria, kept for the tests that use them
TEST_ONLY = {"contraction_norm", "spd_condition_number"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names(paths):
    """Names read as a variable, an attribute or an import, and the dotted
    parts of string constants (the benchmark's wrapper sites)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_export_is_reached():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += list((ROOT / "perfbench").glob("*.py"))
    unreached = exported_names() - referenced_names(users) - TEST_ONLY
    assert not unreached, f"exported but reached by no module or benchmark: {sorted(unreached)}"
