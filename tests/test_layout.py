"""Layout rules of the package source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hybridplan"


def nodes_outside(tree, skip=None):
    """Every node of a module outside the node skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def referenced_names(tree, skip=None):
    """Every identifier a module refers to outside the node skip: names,
    attributes and imported names."""
    names = set()
    for node in nodes_outside(tree, skip):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def referenced_attributes(tree, skip=None):
    """Every attribute a module reads or calls outside the node skip."""
    return {node.attr for node in nodes_outside(tree, skip) if isinstance(node, ast.Attribute)}


def sources():
    """The parsed modules of the package and the benchmark, by path."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def unreferenced(defs, trees, refs):
    """The qualified names of the (path, qualname, node) triples whose
    name, the last part of qualname, refs(tree, skip) finds in no module
    outside the node itself."""
    found = {path: refs(tree) for path, tree in trees.items()}
    unused = []
    for path, qualname, node in defs:
        name = qualname.rpartition(".")[2]
        elsewhere = (found[other] for other in trees if other != path)
        if name not in refs(trees[path], node) and not any(name in f for f in elsewhere):
            unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_public_function_has_a_caller_outside_the_tests():
    """A module-level function of the package, public or private, is
    referenced in the package or the benchmark outside its own def: no
    function exists only for the tests."""
    trees = sources()
    defs = [(path, node.name, node) for path in sorted(PACKAGE.glob("*.py"))
            for node in trees[path].body if isinstance(node, ast.FunctionDef)]
    assert unreferenced(defs, trees, referenced_names) == []


def test_every_public_method_has_a_caller_outside_the_tests():
    """A public method or property of a package class is read as an
    attribute in the package or the benchmark outside its own def: no
    method exists only for the tests. A plain name of the same spelling
    does not count, since a method is only reached through its object."""
    trees = sources()
    defs = [(path, f"{cls.name}.{node.name}", node) for path in sorted(PACKAGE.glob("*.py"))
            for cls in trees[path].body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert defs
    assert unreferenced(defs, trees, referenced_attributes) == []


def test_every_field_is_read_outside_the_tests():
    """An annotated field of a package class is read as an attribute in
    the package or the benchmark outside its own declaration (its class's
    methods count): no field is carried only for the tests."""
    trees = sources()
    defs = [(path, f"{cls.name}.{node.target.id}", node) for path in sorted(PACKAGE.glob("*.py"))
            for cls in trees[path].body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    assert defs
    assert unreferenced(defs, trees, referenced_attributes) == []
