"""The package exports only what its own code or its scripts use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hkdelay"


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def references(node, skip: str, found: set) -> None:
    """Add to found every name that node loads or reads as an attribute,
    leaving out the body of the definition named skip."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
        return
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        references(child, skip, found)


def test_every_export_is_used_by_the_package_or_a_script():
    # a name that only tests call belongs with them, as tests/reference.py
    # and tests/lemmas.py hold; the re-exports in __init__.py do not count
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in files]
    unused = []
    for name in exported_names():
        found: set = set()
        for tree in trees:
            references(tree, name, found)
        if name not in found:
            unused.append(name)
    assert not unused
