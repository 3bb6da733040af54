"""Every public name defined in `src/` is used somewhere.

The test collects the public functions, methods and classes of the
package with `ast` and looks for each name among the identifiers,
attribute names, imported names and string constants of `src/` and
`tests/`.  A name counts as used when it occurs anywhere apart from its
own definition.

The match is by name only, so the test cannot see an unused method
whose name is common, such as `twist` or `dim`: any other use of that
name, on any object, counts as a use.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(folder):
    for path in sorted((ROOT / folder).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _public_definitions(tree, prefix=""):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and not node.name.startswith("_"):
            yield prefix + node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from _public_definitions(node, prefix + node.name + ".")


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_public_name_is_used():
    definitions = []
    uses = Counter()
    for folder in ("src", "tests"):
        for path, tree in _trees(folder):
            uses.update(_uses(tree))
            if folder == "src":
                definitions += [(path.stem + "." + qual, name)
                                for qual, name in _public_definitions(tree)]
    unused = sorted(qual for qual, name in definitions if not uses[name])
    assert unused == []
