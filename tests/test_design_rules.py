"""Design rules of the package, checked on its source."""

import ast
from pathlib import Path

import mutation_forge

SOURCES = sorted(Path(mutation_forge.__file__).parent.glob("*.py"))


def _names_p(node):
    """p itself or the p of some object, such as field.p."""
    return ((isinstance(node, ast.Name) and node.id == "p")
            or (isinstance(node, ast.Attribute) and node.attr == "p"))


def mod_p_sites(source):
    """Line numbers of every reduction modulo p in source: x % p and
    x %= p (a "%d" % p string format is no reduction) and three-argument
    pow."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            fmt = isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)
            if _names_p(node.right) and not fmt:
                lines.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
            if _names_p(node.value):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "pow" and len(node.args) == 3):
            lines.append(node.lineno)
    return sorted(lines)


def test_mod_p_scan_sees_reductions_and_skips_formats():
    src = ("a = x % p\nb = [y % f.p for y in row]\nc %= p\n"
           "d = pow(x, p - 2, p)\ne = 'gf:%d' % p\nf = '%d/%d' % (x, p)\n"
           "g = x % q\n")
    assert mod_p_sites(src) == [1, 2, 3, 4]


def test_only_exactfield_reduces_mod_p():
    """Scalar arithmetic over GF(p) belongs to the exact kernel: no other
    module of the package reduces modulo a field's p."""
    found = {path.stem: mod_p_sites(path.read_text()) for path in SOURCES}
    assert found.pop("exactfield")   # the kernel's own reductions are seen
    assert {name: lines for name, lines in found.items() if lines} == {}


def callers_of(source, name):
    """Names of the functions in source whose bodies call name."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == name):
                    out.add(fn.name)
    return out


def test_callers_of_sees_nested_calls():
    src = ("def a():\n    f(g(1))\n\ndef b():\n    return [g(x) for x in y]\n"
           "\ndef c():\n    h.g(1)\n")
    assert callers_of(src, "g") == {"a", "b"}


def test_stability_enumerates_subspaces_in_one_place():
    """Every semistability verdict, the Kronecker one included, is decided
    by the one reductive core over one list of subspaces."""
    path = Path(mutation_forge.__file__).parent / "stability.py"
    assert callers_of(path.read_text(), "enumerate_subspaces") == {"_subspace_lists"}
