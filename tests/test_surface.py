"""Dead-code guard: every public module-level function and class in
`src/absorbkit`, and every public method of a public class, has a user in
`src/` or `perfbench/`.

Tests do not count as users.  Neither do a definition, the package
`__init__` re-exports, or a docstring or comment in `src/` that names it,
so a public name that only its own unit tests call, or only prose
mentions, fails here; delete it, or give it a caller on a real path.  A
method is used by an attribute access of its name in `src/` code or by a
code word of `perfbench/` (see `code_words`).
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


def public_methods():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield path, node.name, item.name


def code_words(path: Path) -> set:
    """Words a module's code uses: names, attributes, imported names and
    the words of string constants other than docstrings.  Comments are not
    in the syntax tree, so a name that only prose mentions is not a use."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docstrings.add(node.body[0].value)
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node not in docstrings):
            words.update(re.findall(r"\w+", node.value))
    return words


def src_modules():
    """The modules of `src/` whose code counts; the package `__init__`
    only re-exports, so it is left out."""
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def perfbench_words() -> set:
    """The code words of `perfbench/`; its tracer names the functions it
    wraps in string constants, which count.  Its prose does not, so a
    common word in a docstring or comment there keeps no method alive."""
    words = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        words |= code_words(path)
    return words


def user_words() -> set:
    """Every word that counts as a use of a module-level name."""
    words = perfbench_words()
    for path in src_modules():
        words |= code_words(path)
    return words


def attribute_words() -> set:
    """Every word that counts as a use of a method."""
    words = perfbench_words()
    for path in src_modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                words.add(node.attr)
    return words


def test_every_public_name_has_a_user():
    words = user_words()
    unused = [f"{path.name}: {name}" for path, name in public_definitions()
              if name not in words and name not in ALLOWED]
    assert not unused, "public names with no user outside tests: " + ", ".join(unused)


def test_every_public_method_has_a_user():
    words = attribute_words()
    unused = [f"{path.name}: {cls}.{name}" for path, cls, name in public_methods()
              if name not in words]
    assert not unused, "public methods with no user outside tests: " + ", ".join(unused)
