"""Every function, class and method of the package has a caller in the package.

A definition that only tests call is a second copy of what the tests state
and drifts from the code that counts.  This lists the top-level functions
and classes and the methods of every module under `src/t0enum`, and the
names that no `Name` or `Attribute` node in those modules reads.  Dunder
methods are called by the language, so they are left out.  The few
definitions kept on purpose without a caller are named below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "t0enum"

ALLOWED_WITHOUT_CALLER = {
    # README's command that regenerates catalog_manifest.json
    "write_manifest",
    # targets of perfbench/tracer.py, which a benchmark change may drop
    "satisfies",
    "t0_inverse",
    "t0_transform_sets",
    "ordered_with_repeats",
    "egf_log_check",
}


def _definitions(tree):
    """Names of the module's top-level functions and classes and of their
    classes' methods, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_has_a_caller_in_src():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))]
    defined = {name for tree in trees for name in _definitions(tree)}
    referenced = {name for tree in trees for name in _references(tree)}
    assert defined - referenced == ALLOWED_WITHOUT_CALLER
