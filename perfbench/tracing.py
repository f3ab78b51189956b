"""Span tracing of mutation_forge from outside the package.

A Tracer rebinds public functions and ExactMatrix methods to wrappers
that record one span per call (name, start, end, parent span, job id)
and deterministic counters computed from the arguments and results:
cells, multiply-adds, nonzeros, subspaces, orbit points, JSON bytes.
A name is rebound in every mutation_forge module that imported it, so
``from .exactfield import kernel_basis`` in homdata is traced as well.

Self time of a span is its duration minus the time covered by its
child spans; its total time is its self time plus the total times of
its children. Counter bookkeeping done after a call returns is charged
to neither. Spans are kept in memory and written out by ``dump``.
"""

import array
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_FIELDS = (("name", "H"), ("span", "i"), ("parent", "i"), ("job", "i"),
               ("start", "d"), ("end", "d"))


def _nnz(m):
    return sum(1 for row in m.data for x in row if x)


def _json_bytes(obj):
    return len(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _orbit_size(inst):
    """p to the dimension of the unipotent group of an instance."""
    h, mm, nn = inst.h, inst.m_mult, inst.n_mult
    dim = sum(h.dimA[(j, i)] * mm[j - 1] * mm[i - 1]
              for i in range(1, h.r + 1) for j in range(i + 1, h.r + 1))
    dim += sum(h.dimB[(m, l)] * nn[m - 1] * nn[l - 1]
               for l in range(1, h.s + 1) for m in range(l + 1, h.s + 1))
    return h.field.p ** dim


def rebind(owner, attr, replacement):
    """Replace ``owner.attr``: on a class, the attribute itself; on a
    module, every binding of the same object in every mutation_forge
    module. Returns what ``restore`` needs to undo it."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return [(owner, attr, original)]
    saved = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "mutation_forge"
                               or name.startswith("mutation_forge.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                saved.append((mod, key, original))
                setattr(mod, key, replacement)
    return saved


def restore(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


class Tracer:
    """Records spans and counters while installed; see the module
    docstring. Spans are kept while ``keep_spans`` is true."""

    def __init__(self, mf):
        self.mf = mf
        self.keep_spans = True
        self.names = []
        self.name_ids = {}
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.max_counters = defaultdict(float)
        self.spans = {f: array.array(code) for f, code in SPAN_FIELDS}
        self.stack = []
        self.next_span = 0
        self.job = -1
        self._saved = []

    # -- recording ----------------------------------------------------

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def parent_name(self):
        return self.names[self.stack[-1][2]] if self.stack else None

    def span(self, name, fn, count=None):
        """Wrap fn so each call records a span named ``name``;
        ``count(tracer, args, kwargs, result)`` adds counters."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_span
            self.next_span += 1
            parent = self.stack[-1][1] if self.stack else -1
            # child time with bookkeeping, span id, name id, child time
            # without bookkeeping
            frame = [0.0, sid, nid, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                own = (end - start) - frame[0]
                inclusive = own + frame[3]
                self.calls[name] += 1
                self.self_s[name] += own
                self.total_s[name] += inclusive
                if self.keep_spans:
                    sp = self.spans
                    sp["name"].append(nid)
                    sp["span"].append(sid)
                    sp["parent"].append(parent)
                    sp["job"].append(self.job)
                    sp["start"].append(start)
                    sp["end"].append(end)
            if count is not None:
                count(self, args, kwargs, result)
            if self.stack:
                self.stack[-1][0] += perf_counter() - start
                self.stack[-1][3] += inclusive
            return result
        return wrapper

    # -- installation -------------------------------------------------

    def _targets(self):
        mf = self.mf
        ef, th, mu, hd = mf.exactfield, mf.theta, mf.mutation, mf.homdata
        st, co, cli = mf.stability, mf.constants, mf.cli
        M = ef.ExactMatrix

        def rref(t, a, k, r):
            t.counters["exactfield.rref.cells"] += a[0].rows * a[0].cols

        def matmul(t, a, k, r):
            x, y = a
            t.counters["exactfield.matmul.madds"] += x.rows * x.cols * y.cols
            t.counters["exactfield.matmul.nnz"] += _nnz(x) + _nnz(y)
            t.counters["exactfield.matmul.cells"] += (x.rows * x.cols
                                                      + y.rows * y.cols)

        def kron(t, a, k, r):
            t.counters["exactfield.kron.out_cells"] += r.rows * r.cols

        def enum(t, a, k, r):
            t.counters["exactfield.enumerate.subspaces"] += len(r)

        def json_out(prefix):
            def count(t, a, k, r):
                t.counters[prefix + ".bytes"] += _json_bytes(r)
            return count

        def json_in(prefix, pos):
            def count(t, a, k, r):
                t.counters[prefix + ".bytes"] += _json_bytes(a[pos])
            return count

        def swap(t, a, k, r):
            t.counters["mutation.swap_matrix.cells"] += r.rows * r.cols

        def gred(t, a, k, r):
            inst = a[0]
            p = inst.h.field.p
            fams = 1
            for m in inst.m_mult:
                fams *= sum(ef.gaussian_binomial(p, m, d) for d in range(m + 1))
            t.counters["stability.gred.families"] += fams
            budget = k.get("budget", a[3] if len(a) > 3 else st.DEFAULT_BUDGET)
            t.note_max("stability.budget_used", fams / budget)

        def subspace(t, a, k, r):
            # Inside c_tau_search every Subspace built directly is either
            # the witness (one per search) or a random draw.
            if t.parent_name() == "constants.search":
                t.counters["constants.subspaces"] += 1

        def search(t, a, k, r):
            t.counters["constants.scored"] += r.samples

        return [
            (M, "rref", "exactfield.rref", rref),
            (M, "__matmul__", "exactfield.matmul", matmul),
            (M, "kron", "exactfield.kron", kron),
            (ef, "solve_linear", "exactfield.solve", None),
            (ef, "kernel_basis", "exactfield.kernel", None),
            (ef.Subspace, "__init__", "exactfield.subspace", subspace),
            (ef, "enumerate_subspaces", "exactfield.enumerate", enum),
            (th, "validate_theta", "theta.validate", None),
            (th, "theta_to_json", "theta.json", json_out("theta.json")),
            (th, "point_to_json", "theta.json", json_out("theta.json")),
            (th, "theta_from_json", "theta.json", json_in("theta.json", 0)),
            (th, "point_from_json", "theta.json", json_in("theta.json", 1)),
            (mu, "build_dual", "mutation.build_dual", None),
            (mu, "swap_matrix", "mutation.swap_matrix", swap),
            (mu, "double_dual_report", "mutation.double_dual", None),
            (mu, "involution_report", "mutation.involution", None),
            (mu, "mutate", "mutation.mutate", None),
            (hd, "projective_space_hom_data", "homdata.hom_data", None),
            (hd, "build_theta_p", "homdata.build_theta_p", None),
            (hd, "mutated_hom_data", "homdata.mutated_hom_data", None),
            (hd, "transpose_hom_data", "homdata.transpose", None),
            (hd, "mutated_instance", "homdata.mutated_instance", None),
            (hd, "hom_data_to_json", "homdata.json", json_out("homdata.json")),
            (hd, "hom_data_from_json", "homdata.json", json_in("homdata.json", 0)),
            (hd.ThetaInstance, "family_from_point", "homdata.family", None),
            (hd.ThetaInstance, "point_from_family", "homdata.family", None),
            (st, "gred_semistable", "stability.gred", gred),
            (st, "apply_unipotent", "stability.apply_unipotent", None),
            (st, "compare_stability", "stability.compare", None),
            (co, "c_tau_search", "constants.search", search),
            (co, "delta", "constants.delta", None),
            (co, "is_generic", "constants.generic", None),
            (cli, "main", "cli.main", None),
        ]

    def note_max(self, key, value):
        if value > self.max_counters[key]:
            self.max_counters[key] = value

    def _orbit(self, fn):
        """The orbit enumerator is a generator: each translate it
        produces is one "stability.orbit" span; count the translates and
        the full orbit size of each walk."""
        st = self.mf.stability

        @functools.wraps(fn)
        def walk(inst, fam, budget=st.DEFAULT_BUDGET):
            size = _orbit_size(inst)
            self.counters["stability.orbit.full_points"] += size
            self.note_max("stability.budget_used", size / budget)
            step = self.span("stability.orbit",
                             functools.partial(next, fn(inst, fam, budget=budget), None))
            while True:
                moved = step()
                if moved is None:
                    return
                self.counters["stability.orbit.points"] += 1
                yield moved
        return walk

    def install(self):
        """Rebind every traced name; ``uninstall`` restores them."""
        st = self.mf.stability
        for owner, attr, name, count in self._targets():
            self._saved += rebind(owner, attr,
                                  self.span(name, getattr(owner, attr), count))
        self._saved += rebind(st, "enumerate_unipotent_orbit",
                              self._orbit(st.enumerate_unipotent_orbit))

    def uninstall(self):
        restore(self._saved)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------

    def dump(self, path):
        """Write the kept spans: one JSON header line, then each field
        as a raw array in header order (native byte order)."""
        header = {"names": self.names, "count": len(self.spans["name"]),
                  "fields": [[f, code] for f, code in SPAN_FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f, _ in SPAN_FIELDS:
                self.spans[f].tofile(fh)

