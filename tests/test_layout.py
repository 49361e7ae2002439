"""Source-layout checks over the modules of `src/kummerlog`."""

import ast
from collections import Counter
from pathlib import Path

import kummerlog as kl


def _modules():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(Path(kl.__file__).parent.glob("*.py"))}


def _references(tree):
    """Every name a node reads: identifiers, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_orphaned_private_helper():
    # a private function, class or method that nothing outside its own body
    # refers to is dead code that a deletion left behind
    trees = _modules()
    refs = Counter(name for tree in trees.values() for name in _references(tree))
    defs = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(defs) > 40
    orphans = [f"{module}: {node.name}" for module, node in defs
               if refs[node.name] == Counter(_references(node))[node.name]]
    assert orphans == []


def test_no_module_constant_that_nothing_reads():
    # a module-level name that no code reads is a setting left behind, such
    # as the size guard of a deleted algorithm
    trees = _modules()
    refs = {name for tree in trees.values() for name in _references(tree)}
    consts = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            consts += [(module, name.id) for target in targets for name in ast.walk(target)
                       if isinstance(name, ast.Name) and not name.id.startswith("__")]
    assert len(consts) > 20
    assert [f"{module}: {name}" for module, name in consts if name not in refs] == []


def test_no_private_setting_that_nobody_sets():
    # a defaulted parameter of a private function that no call passes is a
    # setting with one value in use: a constant with an option's cost
    src = Path(kl.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    trees = {path: ast.parse(path.read_text())
             for path in sorted([*src.glob("*.py"), *bench.glob("*.py")])}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def passes(call, index, param):
        # a splatted argument may carry any parameter; index None is keyword-only
        return (any(isinstance(arg, ast.Starred) for arg in call.args)
                or any(kw.arg in (None, param) for kw in call.keywords)
                or index is not None and len(call.args) > index)

    unset = []
    for path, tree in trees.items():
        if path.parent != src:
            continue
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if (not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_")
                    or fn.name.startswith("__")):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if id(fn) in methods and not any(getattr(d, "id", None) == "staticmethod"
                                             for d in fn.decorator_list):
                positional = positional[1:]  # self or cls, bound at the call
            defaulted = [(i, name) for i, name in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                if not any(passes(call, index, param)
                           for call in calls if callee(call) == fn.name):
                    unset.append(f"{path.name}: {fn.name}({param})")
    assert unset == []
