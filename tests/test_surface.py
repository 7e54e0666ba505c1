"""Dead-code guard: every public module-level function and class in
`src/absorbkit` has a user in `src/` or `perfbench/`.

Tests do not count as users.  A definition and the package `__init__`
re-exports do not count either, so a public name that only its own unit
tests call fails here; delete it, or give it a caller on a real path.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "absorbkit"

# public names whose only callers are tests, kept on purpose
ALLOWED = {
    # the dense inclusion matrix that test_integral's reference
    # triangularization starts from, to check the sparse one step by step
    "inclusion_matrix",
    # the oracle that test_gadgets and acceptance criterion 4 check the
    # fake-edge gadgets with
    "is_divisibility_equivalent",
}


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name


def user_sources():
    """(path, text) for every source that may use a public name; the
    package `__init__` only re-exports, so it is left out."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    return [(p, p.read_text()) for p in paths]


def test_every_public_name_has_a_user():
    sources = user_sources()
    unused = []
    for path, name in public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        used = any(word.search(line) and not definition.match(line)
                   for _, text in sources for line in text.splitlines())
        if not used and name not in ALLOWED:
            unused.append(f"{path.name}: {name}")
    assert not unused, "public names with no user outside tests: " + ", ".join(unused)
