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


CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _called_name(node):
    """f for f, f(...), mod.f and mod.f(...); "" for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def lasting_memos(source):
    """Line numbers of every memo in source that can outlive a call: a
    functools cache decorator, bare or called, on any function, and a
    dict, list or set (a display, a comprehension or a constructor
    call) bound at module level or in the body of a module-level
    class."""
    tree = ast.parse(source)
    lines = [dec.lineno for fn in ast.walk(tree)
             for dec in getattr(fn, "decorator_list", [])
             if _called_name(dec) in CACHE_DECORATORS]
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in tree.body + [stmt for c in classes for stmt in c.body]:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if isinstance(value, CONTAINERS) or (isinstance(value, ast.Call)
                                                 and _called_name(value) in CONTAINER_CALLS):
                lines.append(node.lineno)
    return sorted(lines)


def test_lasting_memo_scan_sees_caches_and_module_containers():
    src = ("import functools\nfrom functools import lru_cache\n"
           "@functools.lru_cache(maxsize=None)\ndef a():\n    return {}\n\n"
           "@lru_cache\ndef b():\n    seen = {}\n    return seen\n\n"
           "C = {}\nD: list = []\nE = set()\nF = collections.defaultdict(int)\n"
           "G = {k: 1 for k in 'ab'}\nH = 10 ** 6\nI = (1, 2)\n"
           "class J:\n    cache = {}\n\n@property\ndef k():\n    pass\n")
    assert lasting_memos(src) == [3, 7, 12, 13, 14, 15, 16, 20]


def test_stability_memos_live_one_verdict():
    """The work a G walk shares between translates is held by the verdict
    that makes it: stability.py keeps no cache and no module-level
    container that would carry it from one verdict to the next."""
    path = Path(mutation_forge.__file__).parent / "stability.py"
    assert lasting_memos(path.read_text()) == []
