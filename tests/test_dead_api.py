"""Every public name of the library has a caller in the library or the
benchmark: a name that only tests call belongs in the tests.

A name counts as used when it appears, outside its own definition, as a
name, an attribute, an imported name or a dotted part of a string constant
(the benchmark's tracer binds its targets by strings) in ``src/frobcat`` or
in ``bench/*.py``. Since a bare name counts, a method whose name another
public definition shares (``Matrix.rank`` and ``RowSpan.rank``) would pass
on the other's callers, so a second test pins each such method to a
function that reads it. Since an imported name counts, a third test fails
on any name that a ``src/frobcat`` module imports and never reads.
"""
import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public names kept without a caller, each with its reason.
ALLOWED = {
    # The stable endomorphism algebra of the generator, its dimension and
    # its module check are kept for the mod Ē functor, whose construction
    # will call them.
    "stable_endo",
    "StableEndoAlgebra.dim",
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


# Each public method whose bare name another public definition shares, with
# one function of ``src/frobcat`` or ``bench`` that reads it: (file, the
# function's qualified name).
READERS = {
    "Algebra.dim": ("algebra_repr.py", "Algebra.__repr__"),
    "QuotientHom.dim": ("cli.py", "cmd_ho_hom"),
    "Module.from_dict": ("cli.py", "load_project"),
    "Morphism.from_dict": ("cli.py", "load_morphism"),
    "Morphism.hstack": ("algebra_repr.py", "pullback"),
    "Matrix.hstack": ("algebra_repr.py", "cokernel"),
    "Morphism.identity": ("algebra_repr.py", "direct_sum"),
    "Matrix.identity": ("algebra_repr.py", "cokernel"),
    "Module.is_zero": ("homological.py", "stable_hom"),
    "Morphism.is_zero": ("algebra_repr.py", "ShortExactSequence.validate"),
    "Matrix.is_zero": ("algebra_repr.py", "Morphism.is_zero"),
    "Matrix.kernel": ("algebra_repr.py", "kernel"),
    "Module.key": ("algebra_repr.py", "hom_matrix"),
    "Morphism.key": ("rigid_model.py", "is_weak_equivalence"),
    "CheckRun.passed": ("axiom_suite.py", "SuiteReport.passed"),
    "SuiteReport.passed": ("cli.py", "cmd_axioms"),
    "DlReport.passed": ("cli.py", "cmd_dl_verify"),
    "Matrix.rank": ("homological.py", "ext1_dim"),
    "RowSpan.rank": ("exact_linalg.py", "RowSpan.add"),
    "Field.reduce": ("exact_linalg.py", "Matrix.__add__"),
    "RowSpan.reduce": ("homological.py", "QuotientHom.canonical"),
    "Matrix.rows": ("exact_linalg.py", "Matrix.__matmul__"),
    "RowSpan.rows": ("homological.py", "QuotientHom.__init__"),
    "Morphism.scale": ("axiom_suite.py", "_sample_morphism"),
    "Matrix.scale": ("algebra_repr.py", "Morphism.scale"),
    "Algebra.to_dict": ("fixtures.py", "emit_fixture"),
    "Module.to_dict": ("fixtures.py", "emit_fixture"),
    "Morphism.to_dict": ("cli.py", "cmd_hom"),
    "Violation.to_text": ("axiom_suite.py", "CheckRun.to_text"),
    "CheckRun.to_text": ("axiom_suite.py", "SuiteReport.to_text"),
    "SuiteReport.to_text": ("cli.py", "cmd_axioms"),
    "Morphism.vstack": ("algebra_repr.py", "pushout"),
    "Matrix.vstack": ("algebra_repr.py", "_stack"),
    "Morphism.zero": ("algebra_repr.py", "combine"),
    "Field.zero": ("exact_linalg.py", "Matrix.zeros"),
}


def _function(path: Path, qualified: str) -> ast.FunctionDef:
    """The top-level function or the method of a top-level class `qualified`."""
    scope = ast.parse(path.read_text())
    for part in qualified.split("."):
        scope = next((node for node in scope.body if getattr(node, "name", None) == part), None)
        assert scope is not None, f"{path.name} defines no {qualified}"
    return scope


def test_every_method_with_a_shared_name_is_pinned_to_a_reader():
    """The first test counts bare names, so it cannot tell ``HoClass.is_zero``
    from ``Matrix.is_zero``. Every public method whose bare name another
    public definition shares is pinned in READERS to a function that reads
    that attribute (which object it reads is checked by reading the pinned
    function) or allowed in ALLOWED; a new method under a shared name fails
    here until it is pinned."""
    library = sorted((ROOT / "src" / "frobcat").glob("*.py"))
    by_name = defaultdict(list)
    for path in library:
        for qualified, name, _ in _public_definitions(ast.parse(path.read_text())):
            by_name[name].append(qualified)
    shared = {q for defs in by_name.values() if len(defs) > 1 for q in defs if "." in q}
    assert shared - ALLOWED == set(READERS)
    for qualified, (file, reader) in READERS.items():
        path = ROOT / "src" / "frobcat" / file
        node = _function(path if path.exists() else ROOT / "bench" / file, reader)
        attr = qualified.split(".")[-1]
        assert any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node)), \
            f"{file}: {reader} does not read .{attr}"


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
