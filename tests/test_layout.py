"""Source-layout checks over the modules of `src/kummerlog`."""

import ast
from collections import Counter
from pathlib import Path

import kummerlog as kl


def _references(tree):
    """Every name a node reads: identifiers, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_orphaned_private_helper():
    # a private function, class or method that nothing outside its own body
    # refers to is dead code that a deletion left behind
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(kl.__file__).parent.glob("*.py"))}
    refs = Counter(name for tree in trees.values() for name in _references(tree))
    defs = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(defs) > 40
    orphans = [f"{module}: {node.name}" for module, node in defs
               if refs[node.name] == Counter(_references(node))[node.name]]
    assert orphans == []
