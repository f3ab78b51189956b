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


def int_comparisons_of_p(source):
    """Line numbers of every comparison in source of p, or the p of some
    object, with an int literal, such as p == 2 or field.p != 2."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(map(_names_p, [node.left] + node.comparators))
                  and any(isinstance(a, ast.Constant) and type(a.value) is int
                          for a in [node.left] + node.comparators))


def test_p_comparison_scan_sees_int_literals_only():
    src = ("a = p == 2\nb = f.p != 2\nc = p is None\nd = 3 < x.p\n"
           "e = q == 2\nf = p - 1 == k\ng = p == q\nh = p is True\n")
    assert int_comparisons_of_p(src) == [1, 2, 4]


def test_stability_does_not_branch_on_the_prime():
    """The reductive core is one code path for every prime: stability.py
    leaves the representation of vectors to exactfield.packing and
    compares no p with a number (p is None, for the rationals, is no
    such comparison)."""
    path = Path(mutation_forge.__file__).parent / "stability.py"
    assert int_comparisons_of_p(path.read_text()) == []


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
    """Every semistability verdict (Gred, G, and the slope test of a
    Kronecker module, which is Gred on its instance) is decided by the one
    reductive core over one list of subspaces."""
    path = Path(mutation_forge.__file__).parent / "stability.py"
    assert callers_of(path.read_text(), "subspace_bases") == {"_subspace_lists"}


def test_every_hom_system_is_built_on_its_chain():
    """homdata.py files Hom spaces and compositions in one writer,
    _on_chain: each builder goes through it, and only it and the JSON
    reader construct a HomData."""
    source = (Path(mutation_forge.__file__).parent / "homdata.py").read_text()
    assert callers_of(source, "HomData") == {"hom_data_from_json", "_on_chain"}
    assert callers_of(source, "_on_chain") == {
        "projective_space_hom_data", "transpose_hom_data", "mutated_hom_data"}


def test_maps_and_point_parts_are_named_in_two_tables():
    """theta.py names the structure maps and the parts of a point once
    each, in its tables MAPS and POINT: every other place reads them."""
    names = {"rho1", "rho2", "mu", "nu", "psi1", "psi2", "phi1", "phi2"}
    tree = ast.parse((Path(mutation_forge.__file__).parent / "theta.py").read_text())
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("MAPS", "POINT")}
    assert sorted(tables) == ["MAPS", "POINT"]

    def named(node):
        return {n.value for n in ast.walk(node)
                if isinstance(n, ast.Constant) and n.value in names}

    assert named(tables["MAPS"]) | named(tables["POINT"]) == names
    inside = {id(n) for table in tables.values() for n in ast.walk(table)}
    assert [(n.lineno, n.value) for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and n.value in names
            and id(n) not in inside] == []


def test_missing_solutions_raise_in_one_place():
    """A linear system that must be solvable is solved by exactfield.solve,
    which raises the caller's error text when it is not: outside the
    kernel only choice_transport, whose kernel-basis change also checks a
    rank, calls solve_linear itself."""
    callers = set()
    for path in SOURCES:
        if path.stem != "exactfield":
            callers |= callers_of(path.read_text(), "solve_linear")
    assert callers == {"choice_transport"}


def test_instance_maps_are_index_maps():
    """The instance builders write the compositions and the symmetries at
    their blocks: nothing in homdata.py, so no method of ThetaInstance,
    calls kron, and the structure maps are written by the one _write,
    which _structure_maps alone calls."""
    source = (Path(mutation_forge.__file__).parent / "homdata.py").read_text()
    assert not [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and node.attr == "kron"]
    assert callers_of(source, "_write") == {"_structure_maps"}


def callers_by_name(source, name):
    """Names of the functions in source whose bodies call name, as
    name(...) or as a method, obj.name(...)."""
    return {fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and _called_name(node) == name}


def loops(fn):
    """Line numbers of the loops and comprehensions in the function fn."""
    return [node.lineno if hasattr(node, "lineno") else node.target.lineno
            for node in ast.walk(fn)
            if isinstance(node, (ast.For, ast.While, ast.comprehension))]


RESHAPES = {"kron", "swap_matrix", "vec_row_major", "unvec_row_major",
            "witness_subspace"}


def test_tensor_reshapes_are_index_maps():
    """Tensor indices are computed by regroup's one index map and by
    _write: the Kronecker product, the swap, the vectorization and its
    inverse and the witness of c_tau are regroup or apply_leg calls with
    no loop of their own, and of the instance builders only _write reads
    the place of a block's entries (BlockLayout.origin)."""
    found = {}
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name in RESHAPES:
                found[(path.stem, fn.name)] = loops(fn)
    assert sorted(name for _, name in found) == sorted(RESHAPES)
    assert {key: lines for key, lines in found.items() if lines} == {}
    source = (Path(mutation_forge.__file__).parent / "homdata.py").read_text()
    assert callers_by_name(source, "origin") == {"_write"}


def test_loop_scan_sees_loops_and_comprehensions():
    fns = ast.parse("def a():\n    for x in y:\n        pass\n\n"
                    "def b():\n    return [x for x in y]\n\n"
                    "def c():\n    while z:\n        pass\n\n"
                    "def d():\n    return y.regroup([1], [2], [0, 1], [])\n").body
    assert [loops(fn) for fn in fns] == [[2], [6], [9], []]


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


def true_divisions(source):
    """Line numbers of every true division in source: x / y and x /= y
    (floor division // is not one)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def test_true_division_scan_sees_both_forms():
    src = ("a = x / y\nb = x // y\nc /= 2\nd = [u / v for u in w]\n"
           "e = '%d/%d' % (x, y)\nf //= 3\n")
    assert true_divisions(src) == [1, 3, 4]


def test_exact_kernel_has_no_true_division():
    """An int over an int is a float: the kernel, whose rational scalars
    are ints where they are integral, divides only exactly (//, divmod
    or a Fraction it builds)."""
    path = Path(mutation_forge.__file__).parent / "exactfield.py"
    assert true_divisions(path.read_text()) == []


def test_group_parts_are_named_in_one_table():
    """GroupElement reads its parts from theta.PARTS: of its methods only
    the one _check, which writes out the equivariance identities, names
    a linear part."""
    from mutation_forge.theta import PARTS
    names = {name for linear, _, _ in PARTS.values() for name, _ in linear}
    tree = ast.parse((Path(mutation_forge.__file__).parent / "theta.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "GroupElement")
    methods = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    assert [fn.name for fn in methods if fn.name.startswith("_check")] == ["_check"]
    assert {fn.name for fn in methods for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.Constant) and node.value in names} == {"_check"}
