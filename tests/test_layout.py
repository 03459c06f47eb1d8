"""Layout rules of the package source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hybridplan"


def referenced_names(tree, skip=None):
    """Every identifier a module refers to outside the node skip: names,
    attributes and imported names."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_function_has_a_caller_outside_the_tests():
    """A public module-level function of the package is referenced in the
    package or the benchmark outside its own def: no function exists only
    for the tests."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    names = {path: referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                elsewhere = (names[other] for other in paths if other != path)
                if node.name not in referenced_names(trees[path], node) \
                        and not any(node.name in found for found in elsewhere):
                    unused.append(f"{path.stem}.{node.name}")
    assert unused == []
