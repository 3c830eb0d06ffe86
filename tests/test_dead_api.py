"""Every public name of the library has a caller in the library or the
benchmark: a name that only tests call belongs in the tests.

A name counts as used when it appears, outside its own definition, as a
name, an attribute, an imported name or a dotted part of a string constant
(the benchmark's tracer binds its targets by strings) in ``src/frobcat`` or
in ``bench/*.py``. Since an imported name counts, a second test fails on
any name that a ``src/frobcat`` module imports and never reads.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public names kept without a caller, each with its reason.
ALLOWED = {
    # The stable endomorphism algebra of the generator and its module check
    # are kept for the mod Ē functor, whose construction will call them.
    "stable_endo",
    "EbarModule.verify",
    # A localized morphism presented as a right fraction f ∘ s^{-1}: the
    # paper's calculus of fractions, kept for the check that will state it.
    "fraction_to_ho",
}


def _names(tree: ast.AST) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each public top-level function or
    class and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_public_name_has_a_library_or_benchmark_caller():
    library = sorted((ROOT / "src" / "frobcat").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in library}
    trees.update((path, ast.parse(path.read_text())) for path in sorted((ROOT / "bench").glob("*.py")))
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path in library:
        for qualified, name, node in _public_definitions(trees[path]):
            if used[name] - _names(node)[name] <= 0 and qualified not in ALLOWED:
                unused.append(f"{path.name}: {qualified}")
    assert unused == []


# Imported names that their module never reads, each with its reason.
UNREAD_IMPORTS = {
    # The benchmark's tracer test asserts that the tracer rebinds it there.
    ("homological.py", "hom_basis"),
}


def test_every_imported_name_is_read_by_its_module():
    """An import keeps a name in use for the test above, so a public name
    whose last call is deleted would pass while its import stays: each name
    a ``src/frobcat`` module imports must be read in that module."""
    unread = set()
    for path in sorted((ROOT / "src" / "frobcat").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.add((path.name, name))
    assert unread == UNREAD_IMPORTS
