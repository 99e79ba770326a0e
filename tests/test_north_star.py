"""The package stays exact and stdlib-only: every absolute import names a
standard-library module, and no source holds a float literal or calls
``float``; the CLI times itself in integer nanoseconds. A rational appears
only as a solve over Q, so ``linalg`` is the one module that imports
``fractions``. A module's box is derived in one place, the
characteristic-zero build."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylpbw"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_sources():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    names = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"literal {node.value!r} at line {node.lineno}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"float( at line {node.lineno}")
    assert not found, f"{path.name}: {found}"


def test_only_linalg_imports_fractions():
    importers = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names:
                importers.append(path.name)
    assert importers == ["linalg.py"]


def test_only_charzero_derives_a_box():
    """A module's box has one source: the characteristic-zero build solves
    for lam - w0(lam) once, and every later box is read off built blocks."""
    callers = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "depth_vector"):
                callers.append(path.name)
    assert callers == ["charzero.py"]


def test_pbw_reads_no_tensor_vectors():
    """Sections, symbols and products in ``pbw`` work on module vectors: the
    coproduct is applied split by split, never through the tensor API."""
    tensor_api = {"HyperMonomial", "tensor_act", "tensor_leg_act", "tensor_of"}
    found = set()
    for node in ast.walk(_tree(PACKAGE / "pbw.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name for alias in node.names} & tensor_api
        elif isinstance(node, ast.Name) and node.id in tensor_api:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in tensor_api:
            found.add(node.attr)
    assert not found, f"pbw.py uses {sorted(found)}"


def _calls(path: Path, name: str):
    """The qualified names of the functions in ``path`` that call ``name``,
    as a bare name or as an attribute, once per call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(".".join(scope))
            visit(child, scope)
    visit(_tree(path), ())
    return found


def test_module_vectors_have_one_route_each():
    """F^s.v is read from the module's table: outside ``weylmod`` nothing
    calls ``act``, and the tensor checks list their monomials by depth. The
    one box enumeration left is the sweep's, whose lexicographic order the
    kept-vector digests pin; the one dense product is ``linalg.mat_mul``."""
    enumerators = [(path.name, scope) for path in SOURCES
                   for scope in _calls(path, "monomials_of_degree")]
    assert enumerators == [("tensorfilt.py", "InducedFiltration._spanning")]
    actors = sorted({path.name for path in SOURCES
                     for node in ast.walk(_tree(path))
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "act"})
    assert actors == ["weylmod.py"]
    imported = {alias.name for node in ast.walk(_tree(PACKAGE / "tensorfilt.py"))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "mul" not in imported


def test_symbols_are_read_off_essential_components():
    """``j_map`` reads each symbol off the functional's essential components:
    it neither enumerates monomials nor solves. The one solve in ``pbw`` is
    ``EssentialSet.functional``."""
    pbw = PACKAGE / "pbw.py"
    for name in ("monomials_with_depth", "monomial_coords", "solve_dense"):
        callers = [scope for scope in _calls(pbw, name) if scope.split(".")[0] == "j_map"]
        assert not callers, f"j_map calls {name}"
    assert _calls(pbw, "solve_dense") == ["EssentialSet.functional"]


def test_only_the_filtration_set_up_reads_its_weight_group():
    """``InducedFiltration.__init__`` turns ``weight_group`` into ``groups``,
    the swept groups and their widths, which every later step reads; apart
    from the report table, ``weight_group`` is read again only to name it in
    the ``contains_at`` refusal."""
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "weight_group"
                    and isinstance(child.value, ast.Name) and child.value.id == "self"
                    and isinstance(child.ctx, ast.Load)):
                readers.add(".".join(scope))
            visit(child, scope)
    for path in SOURCES:
        visit(_tree(path), ())
    readers = {r for r in readers if not r.startswith("InducedFiltrationTable.")}
    assert readers == {"InducedFiltration.__init__", "InducedFiltration.table",
                       "InducedFiltration.contains_at"}
