"""Source hygiene: no module under src/trustshift keeps a dead import, an
unused private module-level name, or a public function, class or method
that nothing in src/ or bench/ names.

The scans read the source with `ast` only; nothing is imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "trustshift").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the names it exports in __all__."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = _tree(path)
    loaded = _loaded_names(tree)
    unused = [n for n in _imported_names(tree) if n not in loaded]
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_module_name(path):
    tree = _tree(path)
    loaded = _loaded_names(tree)
    unused = [n for n in _private_definitions(tree) if n not in loaded]
    assert not unused, f"{path.name} defines but never reads {unused}"


def _public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and the methods of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [n for n in names if not n.startswith("_")]


def _mentions(tree: ast.Module) -> set[str]:
    """Every name a file reads, imports, looks up as an attribute or spells
    as a string (the bench wraps functions by name; `__all__` lists names)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_definition_is_used():
    mentioned = set()
    for path in SOURCES + BENCH:
        mentioned |= _mentions(_tree(path))
    unused = [f"{path.name}:{name}" for path in SOURCES
              for name in _public_definitions(_tree(path))
              if name not in mentioned]
    assert not unused, f"defined but named nowhere in src/ or bench/: {unused}"
