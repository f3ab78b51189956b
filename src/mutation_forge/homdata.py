"""Hom-composition systems of type (r, s) and the Theta instances they
induce.

A HomData records two ordered families of objects E_1..E_r and F_1..F_s
through the dimensions of their morphism spaces

    A[(j, i)] = Hom(E_i, E_j)   (i <= j, A[(i, i)] one-dimensional),
    H[(l, i)] = Hom(E_i, F_l),
    B[(m, l)] = Hom(F_l, F_m)   (l <= m, B[(l, l)] one-dimensional),

together with explicit composition tensors (left-major bases):

    comp_AA[(k, j, i)] : A_kj (x) A_ji -> A_ki
    comp_HA[(l, j, i)] : H_lj (x) A_ji -> H_li
    comp_BH[(m, l, i)] : B_ml (x) H_li -> H_mi
    comp_BB[(n, m, l)] : B_nm (x) B_ml -> B_nl

All indices are 1-based. The identity axioms pin down distinguished
basis vectors of A[(i, i)] and B[(l, l)] (index 0). Every Hom system is
built and read on its chain of objects E_1 < .. < E_r < F_1 < .. < F_s:
one writer files dim Hom(a, b) and the composition along a <= b <= c.

From such a system, a splitting parameter p and multiplicities m_i, n_l
one obtains a ThetaSpace whose points are the families of maps
x_{l i} : H_li (x) M_i -> N_l; this module holds the builders and the
converters in both directions, the mutated system of a splitting, and
the polarization bookkeeping.
"""

from fractions import Fraction
from itertools import chain, combinations_with_replacement, product

from .exactfield import (ExactMatrix, field_from_tag, field_tag,
                         kernel_coordinates, kernel_data)
from .theta import (GroupElement, MorphismPoint, ThetaSpace, ValidationReport,
                    json_count, json_counts, json_list, json_object,
                    matrix_from_json, matrix_to_json, zero_parts)


# The dicts of a HomData, in the order of its constructor and its JSON
# object: the dimensions of the Hom spaces, then the compositions.
_DIM_DICTS = ("dimH", "dimA", "dimB")
_COMP_DICTS = ("comp_HA", "comp_BH", "comp_AA", "comp_BB")


class HomData:
    """See the module docstring. dims are dicts keyed by index pairs,
    comps by index triples; every admissible key must be present."""

    def __init__(self, field, r, s, dimH, dimA, dimB,
                 comp_HA, comp_BH, comp_AA, comp_BB):
        self.field = field
        self.r = r
        self.s = s
        self.dimH = dict(dimH)
        self.dimA = dict(dimA)
        self.dimB = dict(dimB)
        self.comp_HA = dict(comp_HA)
        self.comp_BH = dict(comp_BH)
        self.comp_AA = dict(comp_AA)
        self.comp_BB = dict(comp_BB)


def validate_hom_data(h):
    """Shape, identity and associativity checks; failures are report
    entries.

    Every check runs over the chains of objects: shapes over the chains
    of three, identities over the pairs and associativity over the
    chains of four. When the shapes fail the report stops there: the
    other checks need compositions of the declared shapes."""
    f = h.field
    rep = ValidationReport()
    objs = _objects(h.r, h.s)
    shapes_ok = all(_hom_dim(h, o, o) == 1 for o in objs)
    for o0, o1, o2 in combinations_with_replacement(objs, 3):
        c = _comp(h, o2, o1, o0)
        if (c.rows, c.cols) != (_hom_dim(h, o2, o0),
                                _hom_dim(h, o2, o1) * _hom_dim(h, o1, o0)):
            shapes_ok = False
    rep.add("shapes", shapes_ok)
    if not shapes_ok:
        return rep
    rep.add("identities", all(
        _comp(h, o1, o0, o0) == ExactMatrix.identity(f, _hom_dim(h, o1, o0))
        and _comp(h, o1, o1, o0) == ExactMatrix.identity(f, _hom_dim(h, o1, o0))
        for o0, o1 in combinations_with_replacement(objs, 2)))
    # (o3 <- o2 <- o1) <- o0  ==  o3 <- (o2 <- o1 <- o0)
    rep.add("associativity", all(
        _comp(h, o3, o1, o0).apply_leg(
            [_hom_dim(h, o3, o1), _hom_dim(h, o1, o0)], 0, _comp(h, o3, o2, o1))
        == _comp(h, o3, o2, o0).apply_leg(
            [_hom_dim(h, o3, o2), _hom_dim(h, o2, o0)], 1, _comp(h, o2, o1, o0))
        for o0, o1, o2, o3 in combinations_with_replacement(objs, 4)))
    return rep


def _objects(r, s):
    """The chain E_1 < .. < E_r < F_1 < .. < F_s of type (r, s)."""
    return [("E", i) for i in range(1, r + 1)] + [("F", l) for l in range(1, s + 1)]


# the dict that files a Hom space or a composition, by the kinds of its
# objects
_FILED = {"EE": "dimA", "FE": "dimH", "FF": "dimB", "EEE": "comp_AA",
          "FEE": "comp_HA", "FFE": "comp_BH", "FFF": "comp_BB"}


def _hom_dim(h, b, a):
    """dim Hom(a, b) for objects a <= b."""
    return getattr(h, _FILED[b[0] + a[0]])[(b[1], a[1])]


def _comp(h, c, b, a):
    """The composition Hom(b, c) (x) Hom(a, b) -> Hom(a, c), a <= b <= c."""
    return getattr(h, _FILED[c[0] + b[0] + a[0]])[(c[1], b[1], a[1])]


def _on_chain(field, r, s, dim, comp):
    """The HomData of type (r, s) whose Hom spaces and compositions are
    dim(b, a) = dim Hom(a, b) and comp(c, b, a) for every chain
    a <= b <= c of its objects. Every built system is filed here."""
    filed = {name: {} for name in _FILED.values()}
    objs = _objects(r, s)
    for a, b in combinations_with_replacement(objs, 2):
        filed[_FILED[b[0] + a[0]]][(b[1], a[1])] = dim(b, a)
    for a, b, c in combinations_with_replacement(objs, 3):
        filed[_FILED[c[0] + b[0] + a[0]]][(c[1], b[1], a[1])] = comp(c, b, a)
    return HomData(field, r, s, **filed)


# -- projective-space instances ---------------------------------------

def _monomials(n_vars, d):
    """Exponent tuples of total degree d in n_vars variables, ordered
    lexicographically from x_1^d down (this fixes the bases of all Sym
    powers): the multisets of d variables in lexicographic order, each
    counted."""
    out = []
    for combo in combinations_with_replacement(range(n_vars), d):
        exps = [0] * n_vars
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return out


def _sym_mult(field, n_vars, d1, d2):
    """Multiplication tensor Sym^d1 (x) Sym^d2 -> Sym^(d1+d2) on the
    monomial bases."""
    m1 = _monomials(n_vars, d1)
    m2 = _monomials(n_vars, d2)
    m3 = _monomials(n_vars, d1 + d2)
    index = {mon: k for k, mon in enumerate(m3)}
    out = ExactMatrix.zeros(field, len(m3), len(m1) * len(m2))
    for a, ma in enumerate(m1):
        for b, mb in enumerate(m2):
            mc = tuple(x + y for x, y in zip(ma, mb))
            out.data[index[mc]][a * len(m2) + b] = 1
    return out


def projective_space_hom_data(field, n, e, f_list):
    """The HomData of the line bundles O(e_1)..O(e_r), O(f_1)..O(f_s) on
    an n-dimensional projective space, with Hom spaces realized as
    symmetric powers on monomial bases.

    Requires n >= 1, e and f_list strictly increasing and f_1 >= e_r so
    every H[(l, i)] is nonzero.
    """
    if n < 1:
        raise ValueError("need n >= 1 for a projective space, got %d" % n)
    if sorted(set(e)) != list(e) or sorted(set(f_list)) != list(f_list):
        raise ValueError("twists must be strictly increasing")
    if f_list[0] < e[-1]:
        raise ValueError("need f_1 >= e_r so all H spaces are nonzero")
    twist = {"E": e, "F": f_list}

    def deg(b, a):
        # Hom(O(a), O(b)) = Sym^(b - a)
        return twist[b[0]][b[1] - 1] - twist[a[0]][a[1] - 1]

    tensors = {}

    def comp(c, b, a):
        # chains with equal degrees share one tensor, built once per call;
        # no caller writes into a composition tensor
        degs = (deg(c, b), deg(b, a))
        if degs not in tensors:
            tensors[degs] = _sym_mult(field, n + 1, *degs)
        return tensors[degs]

    return _on_chain(field, len(e), len(f_list),
                     lambda b, a: len(_monomials(n + 1, deg(b, a))), comp)


# -- Theta instances of a splitting -----------------------------------

class BlockLayout:
    """An ordered direct sum of blocks Hom (x) X_1 (x) .. (x) X_k. Each
    block has a key, the dimension of its Hom space and its multiplicity
    legs X_1..X_k, whose dimensions size gives; inside a block the index
    order is Hom-major, then the legs in order (left-major lexicographic)."""

    def __init__(self, blocks, size):
        self.size = size
        self.keys, self.homs, self.legs, self.dims, self.offsets = [], {}, {}, {}, {}
        off = 0
        for k, d, legs in blocks:
            self.keys.append(k)
            self.homs[k], self.legs[k], self.offsets[k] = d, legs, off
            for leg in legs:
                d *= size[leg]
            self.dims[k] = d
            off += d
        self.total = off

    def origin(self, key, index):
        """Where block key holds its Hom basis vector 0 at the
        multiplicity indices index (a dict leg -> index), and the stride
        of its Hom index."""
        at, stride = 0, 1
        for leg in self.legs[key]:
            at = at * self.size[leg] + index[leg]
            stride *= self.size[leg]
        return self.offsets[key] + at, stride


class ThetaInstance:
    """The ThetaSpace attached to a HomData, a splitting index p
    (0 <= p < r) and multiplicities m_1..m_r, n_1..n_s:

        N1 = sum_{i <= p} H_1i (x) M_i*,   N2 = sum_{j > p} H_1j (x) M_j*,
        M1 = sum_{i <= p, l >= 2} H_li (x) M_i* (x) N_l,
        M2 = sum_{j > p, l >= 2} H_lj (x) M_j* (x) N_l,
        A0 = sum_{i <= p < j} A_ji (x) M_i* (x) M_j,
        B0 = sum_{l >= 2} B_l1 (x) N_l,

    with the multiplicity space M = N_1 of dimension n_1. Each space is
    one BlockLayout, whose blocks name their multiplicity legs ("M", i)
    (M_i* and, in A0, M_j) and ("N", l). The structure maps are the
    compositions of the Hom system written at these blocks by one index
    map, _write, and the instance symmetries act on one leg at a time
    (_acting): no Kronecker product with an identity is built."""

    def __init__(self, h, m_mult, n_mult, p):
        _check_cut(h, m_mult, n_mult, p)
        self.h = h
        self.m_mult = list(m_mult)
        self.n_mult = list(n_mult)
        self.p = p
        r, s = h.r, h.s
        size = {("M", i): m for i, m in enumerate(m_mult, 1)}
        size.update((("N", l), n) for l, n in enumerate(n_mult, 1))
        sides = (range(1, p + 1), range(p + 1, r + 1))
        self.lay_n1, self.lay_n2 = (
            BlockLayout([(i, h.dimH[(1, i)], (("M", i),)) for i in side], size)
            for side in sides)
        self.lay_m1, self.lay_m2 = (
            BlockLayout([((i, l), h.dimH[(l, i)], (("M", i), ("N", l)))
                         for i in side for l in range(2, s + 1)], size)
            for side in sides)
        self.lay_a0 = BlockLayout([((i, j), h.dimA[(j, i)], (("M", i), ("M", j)))
                                   for i in sides[0] for j in sides[1]], size)
        self.lay_b0 = BlockLayout([(l, h.dimB[(l, 1)], (("N", l),))
                                   for l in range(2, s + 1)], size)
        if not 1 <= n_mult[0] < self.lay_n2.total:
            raise ValueError("need 1 <= n_1 < dim N2")
        rho1, rho2, nu, mu = self._structure_maps()
        self.theta = ThetaSpace(h.field, self.lay_n1.total, self.lay_n2.total,
                                self.lay_m1.total, self.lay_m2.total,
                                self.lay_a0.total, self.lay_b0.total,
                                n_mult[0], rho1, rho2, mu, nu)

    def _structure_maps(self):
        """rho1, rho2, nu and mu: each a sum of compositions of the Hom
        system, written at the blocks of the family x_(l, i)."""
        h, p = self.h, self.p
        n1, n2, m1, m2, a0, b0 = (lay.total for lay in (
            self.lay_n1, self.lay_n2, self.lay_m1, self.lay_m2, self.lay_a0, self.lay_b0))
        rho = [ExactMatrix.zeros(h.field, m1, b0 * n1),
               ExactMatrix.zeros(h.field, m2, b0 * n2)]
        nu_mu = [ExactMatrix.zeros(h.field, n1, n2 * a0),
                 ExactMatrix.zeros(h.field, m1, m2 * a0)]
        for i in range(1, h.r + 1):
            for l in range(2, h.s + 1):
                # rho: B_l1 N_l (x) x_(1, i) -> x_(l, i)
                _write(rho[i > p], h.comp_BH[(l, 1, i)], self._slot(l, i)[1:],
                       (self.lay_b0, l), self._slot(1, i)[1:])
        for l in range(1, h.s + 1):
            for i in range(1, p + 1):
                for j in range(p + 1, h.r + 1):
                    # nu (l = 1), mu (l >= 2): x_(l, j) (x) A_ji M_i* M_j -> x_(l, i)
                    _write(nu_mu[l > 1], h.comp_HA[(l, j, i)], self._slot(l, i)[1:],
                           self._slot(l, j)[1:], (self.lay_a0, (i, j)))
        return rho + nu_mu

    # -- converters ---------------------------------------------------

    def _slot(self, l, i):
        """Where x[(l, i)] lives: its index in (psi1, psi2, phi1, phi2),
        that part's layout and the block key."""
        k = (0 if l == 1 else 2) + (0 if i <= self.p else 1)
        lay = (self.lay_n1, self.lay_n2, self.lay_m1, self.lay_m2)[k]
        return k, lay, (i if l == 1 else (i, l))

    def family_from_point(self, w):
        """The family x[(l, i)] : n_l x (dimH_li * m_i) encoded by a
        point of the total space."""
        h = self.h
        parts = w.parts()
        x = {}
        for i in range(1, h.r + 1):
            for l in range(1, h.s + 1):
                k, lay, key = self._slot(l, i)
                off = lay.offsets[key]
                blk = parts[k].submatrix(range(off, off + lay.dims[key]),
                                         range(parts[k].cols))
                # psi blocks are (H M*) x N_1, phi blocks (H M* N_l) x 1
                x[(l, i)] = (blk.transpose() if l == 1 else blk.regroup(
                    [h.dimH[(l, i)] * self.m_mult[i - 1], self.n_mult[l - 1]],
                    [1], [1, 2], [0]))
        return x

    def point_from_family(self, x):
        h = self.h
        parts = zero_parts(self.theta)
        for (l, i), mat in x.items():
            k, lay, key = self._slot(l, i)
            # the psi block (H M*) x N_1 or the phi block (H M* N_l) x 1;
            # regroup rejects a misshapen mat
            rows, cols = ([1], [0]) if l == 1 else ([1, 0], [])
            blk = mat.regroup([self.n_mult[l - 1]], [h.dimH[(l, i)] * self.m_mult[i - 1]],
                              rows, cols)
            off = lay.offsets[key]
            parts[k].data[off:off + blk.rows] = blk.copy_data()
        return MorphismPoint(self.theta, *parts)


def _check_cut(h, m_mult, n_mult, p):
    """Multiplicity lists of lengths r and s with no negative entry, and
    a cut 0 <= p < r."""
    if len(m_mult) != h.r or len(n_mult) != h.s:
        raise ValueError("multiplicity lists must have lengths r and s")
    for name, mult in (("m", m_mult), ("n", n_mult)):
        for k, x in enumerate(mult, 1):
            if x < 0:
                raise ValueError("multiplicity %s_%d of %s = %r is negative"
                                 % (name, k, name, list(mult)))
    if not 0 <= p < h.r:
        raise ValueError("p must satisfy 0 <= p < r")


def build_theta_p(h, m_mult, n_mult, p):
    return ThetaInstance(h, m_mult, n_mult, p)


def _write(out, comp, row, left, right):
    """Write the composition comp : left (x) right -> row into out, whose
    columns are the product of left's and right's layouts. row, left and
    right are (layout, key) blocks; each nonzero entry of comp is written
    once per assignment of the multiplicity indices, with a Kronecker
    delta on every leg that two of the three blocks share (the identity
    of each multiplicity space the composition passes through)."""
    (lay_r, kr), (lay_l, kl), (lay_x, kx) = row, left, right
    legs = list(dict.fromkeys(lay_r.legs[kr] + lay_l.legs[kl] + lay_x.legs[kx]))
    hx, width = lay_x.homs[kx], lay_x.total
    entries = [(t, c // hx, c % hx, v) for t, line in enumerate(comp.data)
               for c, v in enumerate(line) if v]
    for idx in product(*(range(lay_r.size[leg]) for leg in legs)):
        index = dict(zip(legs, idx))
        r0, rs = lay_r.origin(kr, index)
        l0, ls = lay_l.origin(kl, index)
        x0, xs = lay_x.origin(kx, index)
        for t, a, b, v in entries:
            out.data[r0 + t * rs][(l0 + a * ls) * width + x0 + b * xs] = v


def _acting(inst, layout, action):
    """The block-diagonal matrix on layout that acts on each block by
    action[leg] on the leg of the block that action names, and by the
    identity on its Hom space and its other legs (on the whole block
    when action names none of its legs). Every action of the instance
    symmetries names at most one leg of a block: c_i or c_j^T on an
    ("M", i) leg, d_l on ("N", l). A block is the identity with the
    action applied at its leg (apply_leg), copied onto the diagonal."""
    f = inst.h.field
    out = ExactMatrix.zeros(f, layout.total, layout.total)
    for k in layout.keys:
        legs = layout.legs[k]
        block = ExactMatrix.identity(f, layout.dims[k])
        named = [a for a, leg in enumerate(legs) if leg in action]
        if named:
            leg = legs[named[0]]
            mat, n = action[leg], layout.size[leg]
            if (mat.rows, mat.cols) != (n, n):
                raise ValueError("the action on %r must be %dx%d" % (leg, n, n))
            block = block.apply_leg([layout.homs[k]] + [layout.size[x] for x in legs],
                                    named[0] + 1, mat)
        off = layout.offsets[k]
        for i, row in enumerate(block.data, off):
            out.data[i][off:off + block.cols] = row
    return out


def instance_right_element(inst, c_by_i=None, alpha0=None):
    """The right-side symmetry of a ThetaInstance determined by one
    invertible c_i on each M_i* (i <= p goes into the r-part, i > p into
    the b-part; the M_i leg of A0 carries the contragredient) and a free
    translation alpha0 in A0. An M_i* given no c_i keeps the identity."""
    c_by_i = c_by_i or {}
    r = {("M", i): c for i, c in c_by_i.items() if i <= inst.p}
    b = {("M", j): c for j, c in c_by_i.items() if j > inst.p}
    # the contraction <M_j*, M_j> turns c_j on M_j* into its transpose on
    # the M_j leg of A0; r acts on A0 through its M_i leg, the same M_i*
    # as in N1 and M1
    b_a0 = {leg: c.transpose() for leg, c in b.items()}
    return GroupElement(
        inst.theta, "right",
        r_n1=_acting(inst, inst.lay_n1, r), r_m1=_acting(inst, inst.lay_m1, r),
        r_a0=_acting(inst, inst.lay_a0, r), b_n2=_acting(inst, inst.lay_n2, b),
        b_m2=_acting(inst, inst.lay_m2, b), b_a0=_acting(inst, inst.lay_a0, b_a0),
        alpha0=alpha0)


def instance_left_element(inst, g_m=None, d_by_l=None, beta=None):
    """The left-side symmetry determined by g_m in GL(N_1) and one
    invertible d_l on each N_l (l >= 2), plus a free beta. An N_l given
    no d_l keeps the identity."""
    d = {("N", l): x for l, x in (d_by_l or {}).items()}
    return GroupElement(
        inst.theta, "left", g_m=g_m, l_m1=_acting(inst, inst.lay_m1, d),
        l_m2=_acting(inst, inst.lay_m2, d), l_b0=_acting(inst, inst.lay_b0, d),
        beta=beta)


# -- the mutated Hom system -------------------------------------------

def mutated_hom_data(h, p):
    """The Hom system of the p-th mutation, of type (p+1, r+s-p-1).

    Each object of its chain stands over an object of h and has a kind:
    E_1..E_p are kept (E), E_{p+1} is new (X, over F_1), F_l for
    l <= r-p is reflected (R, over E_{l+p}) and the later F_l are kept
    (F, over F_{l-r+p+1}). Hom spaces and compositions whose objects keep
    their order over h, and those on reflected objects alone, are read
    from h. The others meet a quotient H' (E -> R), a dual H*_{1k}
    (X -> R) or a kernel B' (R -> F) and are computed through the
    recorded presentations, asserting well-definedness.

    The system returned also records those presentations:

    quot[(l, i)] = (emb, proj, comp) presenting
        H'[(l, i)] = (H_1i (x) H*_{1,l+p}) / emb(A_{l+p,i}),
    ker[(m, l)]  = (basis, free) presenting
        B'[(m, l)] = ker(B_{sigma(m),1} (x) H_{1,l+p} -> H_{sigma(m),l+p})

    for the regimes where those descriptions apply (i <= p, l <= r-p for
    the quotients; l <= r-p < m for the kernels). Both come from
    kernel_data: (basis, free) is the canonical kernel basis with its
    free coordinates, and proj is the transposed canonical kernel basis
    of emb transposed, with comp its free coordinates. proj is the
    identity on comp, so the inclusion of comp is a section of it."""
    r, s = h.r, h.s
    if not 0 <= p < r:
        raise ValueError("p must satisfy 0 <= p < r")
    q = r - p

    def sig(l):
        return l - q + 1

    def KK(l):
        return l + p

    def over(o):
        kind, i = o
        if kind == "E":
            return ("E", o) if i <= p else ("X", ("F", 1))
        return ("R", ("E", KK(i))) if i <= q else ("F", ("F", sig(i)))

    quot = {}
    for l in range(1, q + 1):
        for i in range(1, p + 1):
            # A_ki -> H_1i (x) H*_1k, adjoint to composition
            emb = h.comp_HA[(1, KK(l), i)].regroup(
                [h.dimH[(1, i)]], [h.dimH[(1, KK(l))], h.dimA[(KK(l), i)]], [0, 1], [2])
            proj, comp = kernel_data(emb.transpose())
            if emb.rows - len(comp) != emb.cols:
                raise ValueError("canonical map of A into H (x) H* "
                                 "is not injective")
            quot[(l, i)] = (emb, proj.transpose(), comp)
    ker = {}
    for l in range(1, q + 1):
        for m in range(q + 1, r + s - p):
            ker[(m, l)] = kernel_data(h.comp_BH[(sig(m), 1, KK(l))])

    def dim(b, a):
        kinds = over(b)[0] + over(a)[0]
        if kinds == "RE":
            return quot[(b[1], a[1])][1].rows
        if kinds == "RX":   # H*_{1k}
            return _hom_dim(h, over(a)[1], over(b)[1])
        if kinds == "FR":
            return ker[(b[1], a[1])][0].cols
        return _hom_dim(h, over(b)[1], over(a)[1])

    def through_quotient(moved, key, what):
        # moved is a map on the ambient space of quot[key], with that leg
        # in its columns and every other leg in its rows: it induces one
        # on the quotient when it vanishes on emb, and the section reads
        # it there as its columns at the complement coordinates
        emb, _, comp = quot[key]
        if not (moved @ emb).is_zero():
            raise ValueError("induced %s composition ill-defined" % what)
        return moved.submatrix(range(moved.rows), comp)

    def in_kernel(key, x):
        # the coordinates of x in the canonical kernel basis ker[key]
        return kernel_coordinates(*ker[key], x,
                                  "induced B'B' composition leaves the kernel")

    def functionals(m, l):
        # precomposition on functionals: A (x) H*_1Kl -> H*_1Km
        Km, Kl = KK(m), KK(l)
        return h.comp_HA[(1, Km, Kl)].regroup(
            [h.dimH[(1, Kl)]], [h.dimH[(1, Km)], h.dimA[(Km, Kl)]], [1], [2, 0])

    def comp(c, b, a):
        kinds = "".join(over(o)[0] for o in (c, b, a))
        if "R" not in kinds or kinds == "RRR":
            return _comp(h, *(over(o)[1] for o in (c, b, a)))
        if kinds == "RXX":
            return ExactMatrix.identity(h.field, dim(c, b))
        if kinds == "RXE":
            _, proj, _ = quot[(c[1], a[1])]
            return proj.regroup([proj.rows], [dim(b, a), dim(c, b)], [0], [2, 1])
        if kinds == "REE":
            l, j, i = c[1], b[1], a[1]
            ds = h.dimH[(1, KK(l))]
            da, d1j = h.dimA[(j, i)], h.dimH[(1, j)]
            proj_i = quot[(l, i)][1]
            # proj_i composed with H_1j A_ji -> H_1i on the first leg, on
            # rows H'_li (x) A_ji and columns H_1j (x) H*
            moved = proj_i.apply_leg([h.dimH[(1, i)], ds], 0,
                                     h.comp_HA[(1, j, i)]).regroup(
                [proj_i.rows], [d1j, da, ds], [0, 2], [1, 3])
            x = through_quotient(moved, (l, j), "H'A'")
            return x.regroup([proj_i.rows, da], [x.cols], [0], [2, 1])
        if kinds == "RRX":
            return functionals(c[1], b[1])
        if kinds == "RRE":
            m, l, i = c[1], b[1], a[1]
            Km, Kl = KK(m), KK(l)
            da, dKm, dKl = h.dimA[(Km, Kl)], h.dimH[(1, Km)], h.dimH[(1, Kl)]
            d1i = h.dimH[(1, i)]
            proj_m = quot[(m, i)][1]
            # proj_m composed with the functionals on the second leg, on
            # rows H'_mi (x) A and columns H_1i (x) H*_1Kl
            moved = proj_m.apply_leg([d1i, dKm], 1, functionals(m, l)).regroup(
                [proj_m.rows], [d1i, da, dKl], [0, 2], [1, 3])
            x = through_quotient(moved, (l, i), "B'H'")
            return x.regroup([proj_m.rows, da], [x.cols], [0], [1, 2])
        if kinds == "FRX":
            # contract the H_1Kl leg of the kernel with H*_1Kl
            kb = ker[(c[1], b[1])][0]
            return kb.regroup([dim(c, a), dim(b, a)], [kb.cols], [0], [2, 1])
        if kinds == "FRE":
            m, l, i = c[1], b[1], a[1]
            kb = ker[(m, l)][0]
            dB, dH, d1i = h.dimB[(sig(m), 1)], h.dimH[(1, KK(l))], h.dimH[(1, i)]
            bh = h.comp_BH[(sig(m), 1, i)]
            # B_M1 H_1i -> H_Mi, M = sig(m), contracted over B_M1 with the
            # kernel, on rows H_Mi (x) B' and columns H_1i (x) H*_1Kl
            moved = (bh.regroup([bh.rows], [dB, d1i], [0, 2], [1])
                     @ kb.regroup([dB, dH], [kb.cols], [0], [1, 2])).regroup(
                [bh.rows, d1i], [dH, kb.cols], [0, 3], [1, 2])
            x = through_quotient(moved, (l, i), "mixed B'H'")
            return x.regroup([bh.rows, kb.cols], [x.cols], [0], [1, 2])
        n_, m, l = c[1], b[1], a[1]
        if kinds == "FFR":
            # B_{n,m} (x) ker_ml -> B_{n,1} (x) H_1Kl
            km, dH = ker[(m, l)][0], h.dimH[(1, KK(l))]
            dBm, dBn = h.dimB[(sig(m), 1)], h.dimB[(sig(n_), 1)]
            x = h.comp_BB[(sig(n_), sig(m), 1)].apply_leg(
                [dim(c, b), dBm], 1,
                km.regroup([dBm, dH], [km.cols], [0], [1, 2])).regroup(
                [dBn], [dim(c, b), dH, km.cols], [0, 2], [1, 3])
            return in_kernel((n_, l), x)
        # FRR: ker_nm (x) A_KmKl -> B_{n,1} (x) H_1Kl
        kn, da = ker[(n_, m)][0], h.dimA[(KK(m), KK(l))]
        dB, dHm = h.dimB[(sig(n_), 1)], h.dimH[(1, KK(m))]
        ha = h.comp_HA[(1, KK(m), KK(l))]
        x = ha.apply_leg(
            [dHm, da], 0, kn.regroup([dB, dHm], [kn.cols], [1], [0, 2])).regroup(
            [ha.rows], [dB, kn.cols, da], [1, 0], [2, 3])
        return in_kernel((n_, l), x)

    hm = _on_chain(h.field, p + 1, r + s - p - 1, dim, comp)
    hm.quot, hm.ker = quot, ker
    return hm


def transpose_hom_data(h):
    """The opposite Hom system, of type (s, r): exchange the two tiers,
    reverse the orderings, and read every composition backwards."""
    def flip(o):
        return ("F", h.s + 1 - o[1]) if o[0] == "E" else ("E", h.r + 1 - o[1])

    def dim(b, a):
        return _hom_dim(h, flip(a), flip(b))

    def comp(c, b, a):
        # Hom(a, b) (x) Hom(b, c) of h read on Hom(b, c) (x) Hom(a, b)
        old = _comp(h, flip(a), flip(b), flip(c))
        return old.regroup([old.rows], [dim(b, a), dim(c, b)], [0], [2, 1])

    return _on_chain(h.field, h.s, h.r, dim, comp)


def mutated_multiplicities(h, m_mult, n_mult, p):
    """Multiplicities of the mutated instance in the layout of
    mutated_hom_data(h, p): returns (m', n') of lengths (p+1, r+s-p-1)."""
    _check_cut(h, m_mult, n_mult, p)
    r = h.r
    m_prime = list(m_mult[:p])
    n1p = sum(m_mult[j - 1] * h.dimH[(1, j)] for j in range(p + 1, r + 1))
    m_prime.append(n1p - n_mult[0])
    n_prime = [m_mult[KK - 1] for KK in range(p + 1, r + 1)]
    n_prime += list(n_mult[1:])
    return m_prime, n_prime


def mutated_instance(h, m_mult, n_mult, p):
    """The instance presenting the mutated space: the transposed mutated
    Hom system with reversed multiplicities and cut s-1.

    The mutated Hom system has type (p+1, r+s-p-1) but places the new
    distinguished object last; transposing puts the family in the
    standard increasing layout, with the cut after position s-1."""
    hm = mutated_hom_data(h, p)
    m_prime, n_prime = mutated_multiplicities(h, m_mult, n_mult, p)
    ht = transpose_hom_data(hm)
    m_hat = list(reversed(n_prime))
    n_hat = list(reversed(m_prime))
    return build_theta_p(ht, m_hat, n_hat, h.s - 1)


# -- polarizations ----------------------------------------------------

class Polarization(object):
    """A normalized polarization: positive rational weights lam (first
    tier) and mu (second tier) with sum(lam_i m_i) = sum(mu_l n_l) = 1
    for the recorded multiplicities."""

    def __init__(self, lam, mu, m_mult, n_mult):
        self.lam = list(lam)
        self.mu = list(mu)
        self.m_mult = list(m_mult)
        self.n_mult = list(n_mult)
        if len(lam) != len(m_mult) or len(mu) != len(n_mult):
            raise ValueError("weight/multiplicity length mismatch")
        for x in list(lam) + list(mu):
            if x <= 0:
                raise ValueError("polarization weights must be positive")
        if sum(l * m for l, m in zip(lam, m_mult)) != 1:
            raise ValueError("first-tier weights are not normalized")
        if sum(u * n for u, n in zip(mu, n_mult)) != 1:
            raise ValueError("second-tier weights are not normalized")

    def __eq__(self, other):
        return (isinstance(other, Polarization)
                and self.lam == other.lam and self.mu == other.mu
                and self.m_mult == other.m_mult
                and self.n_mult == other.n_mult)

    def __repr__(self):
        return "Polarization(lam=%r, mu=%r)" % (self.lam, self.mu)

    def transpose(self):
        """The same polarization read on the transposed instance, where
        the two tiers swap roles and each tier is reversed."""
        return Polarization(list(reversed(self.mu)), list(reversed(self.lam)),
                            list(reversed(self.n_mult)),
                            list(reversed(self.m_mult)))


class PolarizationReport(object):
    """Result of transporting a polarization: the candidate weights, the
    normalizing constant, and any positivity violations."""

    def __init__(self, lam, mu, m_mult, n_mult, constant, violations):
        self.lam = lam
        self.mu = mu
        self.m_mult = m_mult
        self.n_mult = n_mult
        self.constant = constant
        self.violations = violations

    @property
    def ok(self):
        return not self.violations

    def polarization(self):
        if self.violations:
            raise ValueError("transported weights are not positive: %s"
                             % "; ".join(self.violations))
        return Polarization(self.lam, self.mu, self.m_mult, self.n_mult)

    def __repr__(self):
        tag = "ok" if self.ok else "violations=%r" % self.violations
        return ("PolarizationReport(lam=%r, mu=%r, constant=%r, %s)"
                % (self.lam, self.mu, self.constant, tag))


def map_polarization(pol, h, p):
    """Transport a polarization through the p-th mutation.

    The result is expressed in the layout of mutated_hom_data(h, p):
    first tier of length p+1 (the retained objects then the new one),
    second tier of length r+s-p-1 (the reflected objects then the
    retained tail).  Weights that come out non-positive are reported,
    not silently accepted."""
    r, s = h.r, h.s
    q = r - p
    lam, mu = pol.lam, pol.mu
    m_mult, n_mult = pol.m_mult, pol.n_mult
    m_prime, n_prime = mutated_multiplicities(h, m_mult, n_mult, p)

    alpha = [Fraction(x) for x in lam[:p]] + [Fraction(mu[0])]
    beta = []
    for l in range(1, q + 1):
        beta.append(Fraction(mu[0]) * h.dimH[(1, l + p)] - Fraction(lam[l + p - 1]))
    for l in range(q + 1, r + s - p):
        beta.append(Fraction(mu[l - q]))
    c = sum(a * m for a, m in zip(alpha, m_prime))
    violations = []
    if c <= 0:
        violations.append("normalizing constant %s is not positive" % c)
        return PolarizationReport(alpha, beta, m_prime, n_prime, c, violations)
    alpha = [a / c for a in alpha]
    beta = [b / c for b in beta]
    for i, a in enumerate(alpha):
        if a <= 0:
            violations.append("first-tier weight %d is %s" % (i + 1, a))
    for l, b in enumerate(beta):
        if b <= 0:
            violations.append("second-tier weight %d is %s" % (l + 1, b))
    return PolarizationReport(alpha, beta, m_prime, n_prime, c, violations)


# -- serialization ----------------------------------------------------

def _tensor_dict_to_json(d):
    return [{"key": list(k), "matrix": matrix_to_json(v)}
            for k, v in sorted(d.items())]


def _entries_from_json(obj, what, legs, value):
    """The dict from key to value of the list what of {"key": [legs ints],
    value: ...} objects, each key once; an entry is named what[k]."""
    pairs = {}
    for k, e in enumerate(json_list(obj, what)):
        name = "%s[%d]" % (what, k)
        e = json_object(e, name, ("key", value))
        key = tuple(json_counts(e["key"], name + ".key"))
        if len(key) != legs:
            raise ValueError("%s.key must list %d indices, got %r" % (name, legs, list(key)))
        if key in pairs:
            raise ValueError("key %r is listed twice in %s" % (list(key), what))
        pairs[key] = e[value]
    return pairs


def _tensor_dict_from_json(obj, field, what):
    return {key: matrix_from_json(field, e, what + " matrix")
            for key, e in _entries_from_json(obj, what, 3, "matrix").items()}


def _dim_dict_to_json(d):
    return [{"key": list(k), "dim": v} for k, v in sorted(d.items())]


def _dim_dict_from_json(obj, what):
    return {key: json_count(e, what) for key, e in _entries_from_json(obj, what, 2, "dim").items()}


def hom_data_to_json(h):
    d = {"field": field_tag(h.field), "r": h.r, "s": h.s}
    d.update((k, _dim_dict_to_json(getattr(h, k))) for k in _DIM_DICTS)
    d.update((k, _tensor_dict_to_json(getattr(h, k))) for k in _COMP_DICTS)
    return d


def hom_data_from_json(obj):
    """The HomData of a hom data object; a key that the object, an entry
    or the chain of objects lacks, or that is listed twice or names no
    chain, is a ValueError that names the key and where it is."""
    obj = json_object(obj, "hom data", ("field", "r", "s") + _DIM_DICTS + _COMP_DICTS)
    f = field_from_tag(obj["field"])
    r, s = json_count(obj["r"], "r"), json_count(obj["s"], "s")
    if r < 1 or s < 1:
        raise ValueError("hom data needs r >= 1 and s >= 1, got %d and %d"
                         % (r, s))
    h = HomData(f, r, s, *(_dim_dict_from_json(obj[k], k) for k in _DIM_DICTS),
                *(_tensor_dict_from_json(obj[k], f, k) for k in _COMP_DICTS))
    # each object has its own A_ii or B_ll, so a file lists at least r
    # spaces A and s spaces B: a larger r or s names objects it lacks
    if r > len(h.dimA) or s > len(h.dimB):
        raise ValueError("hom data of type (%d, %d) lists %d spaces A and %d "
                         "spaces B" % (r, s, len(h.dimA), len(h.dimB)))
    objs = _objects(r, s)
    chains = {name: set() for name in _DIM_DICTS + _COMP_DICTS}
    for below in chain(combinations_with_replacement(objs, 2),
                       combinations_with_replacement(objs, 3)):
        kinds, key = zip(*reversed(below))
        chains[_FILED["".join(kinds)]].add(key)
    for name, keys in chains.items():
        filed = getattr(h, name).keys()
        for wrong, message in ((keys - filed, "missing key %r in %s"),
                               (filed - keys, "key %r in %s names no chain of objects")):
            if wrong:
                raise ValueError(message % (list(min(wrong)), name))
    return h


def dual_point_to_mutated(inst, inst_hat, z):
    """Express a point of the dual of inst.theta as a point of the
    mutated instance inst_hat.

    Implemented for the Kronecker-type regime p = 0, s = 1 (everything
    except psi2 is zero), where the identification is a reversal of the
    second-tier blocks with identical internal layout."""
    if inst.p != 0 or inst.h.s != 1:
        raise ValueError("point-level identification is implemented "
                         "only for p = 0, s = 1")
    th = inst_hat.theta
    if (th.dim_n1, th.dim_m1, th.dim_m2) != (0, 0, 0):
        raise ValueError("mutated instance is not of Kronecker type")
    if z.psi2.rows != th.dim_n2 or z.psi2.cols != th.dim_mult:
        raise ValueError("point does not match the mutated instance")
    r = inst.h.r
    psi1_hat, psi2_hat, phi1_hat, phi2_hat = zero_parts(th)
    for j in inst.lay_n2.keys:
        a_hat = r + 1 - j
        d = inst.lay_n2.dims[j]
        if inst_hat.lay_n2.dims[a_hat] != d:
            raise ValueError("block dimensions of the two instances disagree")
        src = inst.lay_n2.offsets[j]
        dst = inst_hat.lay_n2.offsets[a_hat]
        psi2_hat.data[dst:dst + d] = [row[:] for row in z.psi2.data[src:src + d]]
    return MorphismPoint(th, psi1_hat, psi2_hat, phi1_hat, phi2_hat)
