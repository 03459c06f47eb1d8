"""Layout rules of the package source."""

import ast
import textwrap
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
    """Every attribute a module reads or calls outside the node skip: a
    read through self as (enclosing class, name), since it reaches only
    that class's own field or method, and any other read as its name."""
    refs = set()
    stack = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Attribute):
            through_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            refs.add((cls, node.attr) if through_self and cls else node.attr)
        stack.extend((child, cls) for child in ast.iter_child_nodes(node))
    return refs


def sources():
    """The parsed modules of the package and the benchmark, by path."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def unreferenced(defs, trees, refs):
    """The qualified names of the (path, qualname, node) triples that
    refs(tree, skip) finds in no module outside the node itself, either by
    name, the last part of qualname, or as (class, name) for a member."""
    found = {path: refs(tree) for path, tree in trees.items()}
    unused = []
    for path, qualname, node in defs:
        cls, _, name = qualname.rpartition(".")
        keys = {name, (cls, name)}
        elsewhere = (found[other] for other in trees if other != path)
        if not keys & refs(trees[path], node) and not any(keys & f for f in elsewhere):
            unused.append(f"{path.stem}.{qualname}")
    return unused


def field_defs(trees, paths):
    """The (path, Class.field, node) triples of the annotated class fields
    of the modules at paths."""
    return [(path, f"{cls.name}.{node.target.id}", node) for path in paths
            for cls in trees[path].body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def test_every_public_function_has_a_caller_outside_the_tests():
    """A module-level function of the package, public or private, is
    referenced in the package or the benchmark outside its own def: no
    function exists only for the tests."""
    trees = sources()
    defs = [(path, node.name, node) for path in sorted(PACKAGE.glob("*.py"))
            for node in trees[path].body if isinstance(node, ast.FunctionDef)]
    assert unreferenced(defs, trees, referenced_names) == []


def test_every_class_is_referenced_outside_the_tests():
    """A module-level class of the package is referenced in the package or
    the benchmark outside its own definition: no class exists only for the
    tests, and none is left behind when its last user goes."""
    trees = sources()
    defs = [(path, node.name, node) for path in sorted(PACKAGE.glob("*.py"))
            for node in trees[path].body if isinstance(node, ast.ClassDef)]
    assert defs
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
    defs = field_defs(trees, sorted(PACKAGE.glob("*.py")))
    assert defs
    assert unreferenced(defs, trees, referenced_attributes) == []


def test_a_self_read_counts_only_for_its_own_class():
    """A field read only through self in another class is reported; a read
    through any other receiver counts for every class."""
    source = textwrap.dedent("""
        class Box:
            size: int

        class Crate:
            size: int

            def volume(self):
                return self.size ** 3
        """)
    path = Path("synthetic.py")
    trees = {path: ast.parse(source)}
    assert unreferenced(field_defs(trees, [path]), trees, referenced_attributes) == \
        ["synthetic.Box.size"]
    trees = {path: ast.parse(source + "\ndef area(crate):\n    return crate.size ** 2\n")}
    assert unreferenced(field_defs(trees, [path]), trees, referenced_attributes) == []
