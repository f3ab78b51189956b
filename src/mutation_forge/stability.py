"""Semistability oracles by exhaustive finite-field search.

Kronecker modules f : L (x) M -> N carry the classical slope criterion
for the GL(M) x GL(N) action; two-tier instances carry the weighted
criterion attached to a polarization, for the reductive group (product
of the multiplicity GL's) or for the full automorphism group (reductive
part extended by the unipotent off-diagonal Hom blocks).  Everything is
decided by exhaustive enumeration over a prime field, exactly, by one
reductive core: the slope criterion is its case of a single block, and
the full group's is its verdict along the unipotent orbit.
"""

from fractions import Fraction
from itertools import chain, product
from math import lcm
from operator import getitem

from .exactfield import (ExactMatrix, Subspace, enumerate_subspaces,
                         kernel_basis)
from .theta import MorphismPoint, in_W0
from .homdata import (map_polarization, mutated_instance,
                      dual_point_to_mutated)
from .mutation import build_dual, default_choice, mutate


DEFAULT_BUDGET = 10 ** 6


def _require_finite(field):
    if field.p is None:
        raise ValueError("semistability is decided over a prime field only; "
                         "reduce rational data modulo a prime first")
    return field.p


class StabilityVerdict:
    """Verdict of an exhaustive semistability check; when a query fails
    the first (lexicographically least) violating family is recorded."""

    def __init__(self, semistable, stable, witness=None):
        self.semistable = semistable
        self.stable = stable
        self.witness = witness

    def __repr__(self):
        return ("StabilityVerdict(semistable=%s, stable=%s%s)"
                % (self.semistable, self.stable,
                   ", witness" if self.witness is not None else ""))


# -- the reductive core -----------------------------------------------

def _subspace_lists(p, m_mult, budget):
    """For each first-tier index i, every subspace of GF(p)^(m_i), by
    dimension; raises when the families they make exceed the budget."""
    per_index = []
    total = 1
    for m in m_mult:
        subs = []
        for d in range(0, m + 1):
            subs.extend(enumerate_subspaces(p, m, d, budget=budget))
        per_index.append(subs)
        total *= len(subs)
        if total > budget:
            raise ValueError("subspace family enumeration budget exceeded")
    return per_index


def _block_images(y, n, subs):
    """Echelon rows spanning x(H (x) M') for a block x : H (x) M -> N,
    given as y = x regrouped to M -> H (x) N with dim N = n, for each M'
    in subs (None where that image is 0), from one product of their
    stacked transposed bases with y: row c of the slice of M' holds the
    images of h (x) (basis vector c) for every basis vector h of H."""
    stacked = [row for sub in subs for row in sub.basis.transpose().data]
    rows = (y._new(stacked, y.rows) @ y).data if stacked and y.cols else []
    out, start = [], 0
    for sub in subs:
        part, start = rows[start:start + sub.dim], start + sub.dim
        R, pivots = y._new([row[k:k + n] for row in part
                            for k in range(0, y.cols, n)], n).rref()
        out.append(R.submatrix(range(len(pivots)), range(n)) if pivots else None)
    return out


def _span_dim(blocks):
    """dim of the sum of the row spans of the given image blocks."""
    if not blocks:
        return 0
    if len(blocks) == 1:
        return blocks[0].rows
    return ExactMatrix.of_rows(blocks[0].field, [row for b in blocks for row in b.data],
                               blocks[0].cols).rank()


def _gred_core(blocks, dimH, m_mult, n_mult, lam, mu, per_index, memo):
    """The reductive verdict of the blocks x_(l,i) : H_li (x) M_i -> N_l
    (dim H_li = dimH[(l, i)]) under the integer weights lam, mu, over the
    subspace lists of _subspace_lists.

    A block's images x_(l,i)(H_li (x) M'_i) are computed for all M'_i at
    once, and again only when the block changes. memo = (last, ids, dims)
    is shared by the translates of one verdict: last[(l, i)] is the last
    block with its images and their keys (ids interns echelon rows as
    ints), and dims maps a tuple of keys to the dimension of their span,
    so a family costs one lookup per l. Returns (semistable, stable, ks,
    images): ks indexes the recorded family in per_index, or is None,
    and images[l - 1][i - 1][k] is the echelon image of the k-th M'_i in
    N_l, or None when it is 0."""
    last, ids, dims = memo
    images, keys = [], []
    for l, n in enumerate(n_mult, 1):
        row = []
        for i, (m, subs) in enumerate(zip(m_mult, per_index), 1):
            x = blocks[(l, i)]
            if (l, i) not in last or last[(l, i)][0] != x:
                imgs = _block_images(x.regroup([n], [dimH[(l, i)], m], [2], [1, 0]), n, subs)
                last[(l, i)] = (x, imgs, [ids.setdefault(
                    () if b is None else tuple(map(tuple, b.data)), len(ids)) for b in imgs])
            row.append(last[(l, i)])
        images.append([cell[1] for cell in row])
        keys.append([cell[2] for cell in row])
    lhs_of = [[lam_i * sub.dim for sub in subs] for lam_i, subs in zip(lam, per_index)]
    stable = True
    recorded = None
    for ks in product(*(range(len(subs)) for subs in per_index)):
        dims_n = []
        for row, key_row in zip(images, keys):
            key = tuple(map(getitem, key_row, ks))
            d = dims.get(key)
            if d is None:
                d = dims[key] = _span_dim([col[k] for col, k in zip(row, ks)
                                           if col[k] is not None])
            dims_n.append(d)
        if dims_n == n_mult:
            continue
        lhs = sum(w[k] for w, k in zip(lhs_of, ks))
        rhs = sum(u * d for u, d in zip(mu, dims_n))
        if lhs > rhs or (stable and lhs == rhs
                         and any(subs[k].dim for subs, k in zip(per_index, ks))):
            if lhs > rhs:
                # the first violating family decides the verdict and the witness
                return False, False, ks, images
            stable = False
            recorded = ks
    return True, stable, recorded, images


def _witness(f, per_index, n_mult, images, ks):
    """The family ks of subspaces M'_i and its minimal N'_l: the echelon
    rows of its block images in N_l, stacked, as a Subspace."""
    spans = {}
    for l, (n, row) in enumerate(zip(n_mult, images), 1):
        stacked = [v for col, k in zip(row, ks) if col[k] is not None for v in col[k].data]
        spans[l] = Subspace(n, ExactMatrix.of_rows(f, stacked, n).transpose())
    return tuple(subs[k] for subs, k in zip(per_index, ks)), spans


def _verdict(f, translates, dimH, m_mult, n_mult, lam, mu, budget):
    """The reductive verdict along translates (families of blocks of one
    shape): semistable and stable when every translate is. Returns
    (semistable, stable, kept), kept the pair (translate, witness) of the
    first translate that is not semistable, or else of the first that is
    not stable, or None; the walk stops at the first that is not
    semistable."""
    per_index = _subspace_lists(f.p, m_mult, budget)
    memo = ({}, {}, {})
    stable = True
    kept = None
    for moved in translates:
        ss, st, ks, images = _gred_core(moved, dimH, m_mult, n_mult, lam, mu,
                                        per_index, memo)
        if not st and (kept is None or not ss):
            kept = (moved, _witness(f, per_index, n_mult, images, ks))
        if not ss:
            return False, False, kept
        stable = stable and st
    return True, stable, kept


# -- Kronecker modules ------------------------------------------------

class KroneckerModule:
    """A linear map f : L (x) M -> N with dim L = q, dim M = m,
    dim N = n >= 1, stored as an n-by-(q*m) matrix in the lexicographic
    basis of L (x) M."""

    def __init__(self, field, q, m, n, f):
        if n < 1:
            raise ValueError("Kronecker target dimension n must be positive")
        if f.rows != n or f.cols != q * m:
            raise ValueError("Kronecker map has shape %dx%d, expected %dx%d"
                             % (f.rows, f.cols, n, q * m))
        self.field = field
        self.q = q
        self.m = m
        self.n = n
        self.f = f

    def __repr__(self):
        return "KroneckerModule(q=%d, m=%d, n=%d)" % (self.q, self.m, self.n)


def kronecker_semistable(k, budget=DEFAULT_BUDGET):
    """The slope test, which is the reductive test of one block with
    dim H = q and weights n, m: for every subspace M' of M with minimal
    N' = f(L (x) M') proper, m * dim N' >= n * dim M' (strictly, for
    nonzero M', when stable). The witness is ((M',), {1: N'})."""
    _require_finite(k.field)
    semistable, stable, kept = _verdict(k.field, [{(1, 1): k.f}], {(1, 1): k.q},
                                        [k.m], [k.n], [k.n], [k.m], budget)
    return StabilityVerdict(semistable, stable, None if kept is None else kept[1])


def kronecker_mutate(k):
    """The mutated module A(f) : L* (x) M* -> ker(f)*, the restriction
    to ker(f) of the tautological pairing of L (x) M with its dual; in
    the coordinate bases its matrix is the transpose of an echelon
    kernel basis of f."""
    if k.f.rank() != k.n:
        raise ValueError("f must be surjective")
    m_prime = k.q * k.m - k.n
    if m_prime <= 0:
        raise ValueError("mutated multiplicity q*m - n must be positive")
    K = kernel_basis(k.f)
    assert K.cols == m_prime
    return KroneckerModule(k.field, k.q, k.m, m_prime, K.transpose())


def _all_invertible(field, n, budget=DEFAULT_BUDGET):
    p = _require_finite(field)
    if p ** (n * n) > budget:
        raise ValueError("GL enumeration budget exceeded")
    out = []
    for flat in product(range(p), repeat=n * n):
        g = ExactMatrix.from_flat(field, n, n, flat)
        if g.rank() == n:
            out.append(g)
    return out


def kronecker_orbit_equivalent(k1, k2, budget=DEFAULT_BUDGET):
    """Whether k2 = g_N . k1 . (I_L (x) g_M) for some pair in
    GL(M) x GL(N), by enumerating both groups over the prime field."""
    if (k1.q, k1.m, k1.n) != (k2.q, k2.m, k2.n):
        return False
    f = k1.field
    for gm in _all_invertible(f, k1.m, budget=budget):
        middle = k1.f.apply_leg([k1.q, k1.m], 1, gm)
        for gn in _all_invertible(f, k1.n, budget=budget):
            if gn @ middle == k2.f:
                return True
    return False


# -- two-tier instances -----------------------------------------------

def _as_family(inst, w):
    if isinstance(w, MorphismPoint):
        return inst.family_from_point(w)
    return w


def _check_polarization(inst, pol):
    """The checks every reductive verdict makes before anything else."""
    _require_finite(inst.h.field)
    if list(pol.m_mult) != list(inst.m_mult) or list(pol.n_mult) != list(inst.n_mult):
        raise ValueError("polarization multiplicities do not match the instance")


def _instance_verdict(inst, translates, pol, budget):
    """_verdict of the instance's translates under pol, its weights
    cleared of their common denominator."""
    den = lcm(*(Fraction(x).denominator for x in chain(pol.lam, pol.mu)))
    lam = [(Fraction(x) * den).numerator for x in pol.lam]
    mu = [(Fraction(x) * den).numerator for x in pol.mu]
    return _verdict(inst.h.field, translates, inst.h.dimH, inst.m_mult,
                    inst.n_mult, lam, mu, budget)


def gred_semistable(inst, w, pol, budget=DEFAULT_BUDGET):
    """Exhaustive reductive-group test: over all families of subspaces
    M'_i with minimal N'_l, families with some N'_l proper must satisfy
    sum(lam_i dim M'_i) <= sum(mu_l dim N'_l); strictly, excluding the
    all-zero family, for stability. The witness is (combo, {l: N'_l}).

    The block images x_(l,i)(H_li (x) M'_i) are computed once per
    (l, i, M'_i), and a family costs one rank per l."""
    _check_polarization(inst, pol)
    fam = _as_family(inst, w)
    semistable, stable, kept = _instance_verdict(inst, [fam], pol, budget)
    return StabilityVerdict(semistable, stable, None if kept is None else kept[1])


def _unipotent_parameters(inst, budget=DEFAULT_BUDGET):
    """Shapes of the off-diagonal unipotent blocks: (True, j, i, rows,
    cols) for a block of A_ji (x) Hom(M_i, M_j) with i < j, and
    (False, m, l, rows, cols) for B_ml (x) Hom(N_l, N_m) with l < m."""
    h = inst.h
    shapes = []
    dim_total = 0
    for i in range(1, h.r + 1):
        for j in range(i + 1, h.r + 1):
            rows = h.dimA[(j, i)] * inst.m_mult[j - 1]
            cols = inst.m_mult[i - 1]
            shapes.append((True, j, i, rows, cols))
            dim_total += rows * cols
    for l in range(1, h.s + 1):
        for m in range(l + 1, h.s + 1):
            rows = h.dimB[(m, l)] * inst.n_mult[m - 1]
            cols = inst.n_mult[l - 1]
            shapes.append((False, m, l, rows, cols))
            dim_total += rows * cols
    p = inst.h.field.p
    if p ** dim_total > budget:
        raise ValueError("unipotent orbit enumeration budget exceeded: "
                         "p^%d > %d" % (dim_total, budget))
    return shapes, dim_total


def apply_unipotent(inst, fam, params):
    """Act on a family by the unipotent element with the given
    off-diagonal blocks; params maps (True, j, i) to an element of
    A_ji (x) Hom(M_i, M_j) (matrix (dimA*m_j)-by-m_i) and (False, m, l)
    to an element of B_ml (x) Hom(N_l, N_m) (matrix (dimB*n_m)-by-n_l).

    The source side acts first, the target side then acts on the
    source-updated family, which covers the cross term."""
    h = inst.h
    m, n = inst.m_mult, inst.n_mult
    out = dict(fam)
    # source side: x'_(l,i) += x_(l,j) . T with T : H_li (x) M_i ->
    # H_lj (x) M_j, comp_HA contracted with u_(j,i) over A_ji
    for (source, j, i), u in params.items():
        if not source:
            continue
        da = h.dimA[(j, i)]
        u_a = u.regroup([da, m[j - 1]], [m[i - 1]], [0], [1, 2])
        for l in range(1, h.s + 1):
            dlj, dli = h.dimH[(l, j)], h.dimH[(l, i)]
            comp = h.comp_HA[(l, j, i)].regroup([dli], [dlj, da], [1, 0], [2])
            t = (comp @ u_a).regroup([dlj, dli], [m[j - 1], m[i - 1]],
                                     [0, 2], [1, 3])
            out[(l, i)] = out[(l, i)] + fam[(l, j)] @ t
    # target side: x'_(mm,i) += v_(mm,l) . x'_(l,i) through comp_BH:
    # v @ x'_(l,i) regrouped to (N_mm (x) M_i) x (B_ml (x) H_li), then
    # times comp_BH transposed, (B_ml (x) H_li) x H_mi
    mid = dict(out)
    for (source, mm, l), v in params.items():
        if source:
            continue
        db = h.dimB[(mm, l)]
        for i in range(1, h.r + 1):
            y = (v @ mid[(l, i)]).regroup([db, n[mm - 1]], [h.dimH[(l, i)], m[i - 1]],
                                          [1, 3], [0, 2])
            z = y @ h.comp_BH[(mm, l, i)].transpose()
            out[(mm, i)] = out[(mm, i)] + z.regroup(
                [n[mm - 1], m[i - 1]], [h.dimH[(mm, i)]], [0], [2, 1])
    return out


def enumerate_unipotent_orbit(inst, fam, budget=DEFAULT_BUDGET):
    """All images of the family under the unipotent group, enumerated
    as parameter tuples over the prime field."""
    p = _require_finite(inst.h.field)
    f = inst.h.field
    shapes, _ = _unipotent_parameters(inst, budget=budget)
    ranges = []
    for (src, a, b, rows, cols) in shapes:
        ranges.append(list(product(range(p), repeat=rows * cols)))
    for combo in product(*ranges):
        params = {}
        for (src, a, b, rows, cols), flat in zip(shapes, combo):
            params[(src, a, b)] = ExactMatrix.of_rows(
                f, [list(flat[r * cols:(r + 1) * cols]) for r in range(rows)], cols)
        yield apply_unipotent(inst, fam, params)


def is_semistable_rs(inst, w, pol, group="Gred", budget=DEFAULT_BUDGET):
    """Semistability of a point of a two-tier instance.

    group="Gred": the reductive verdict by subspace enumeration.
    group="G": the reductive verdict must hold at every point of the
    finite unipotent orbit of w; the subspaces are enumerated once for
    the whole walk."""
    fam = _as_family(inst, w)
    if group == "Gred":
        return gred_semistable(inst, fam, pol, budget=budget)
    if group != "G":
        raise ValueError("group must be 'Gred' or 'G'")
    walk = enumerate_unipotent_orbit(inst, fam, budget=budget)
    first = next(walk)   # the orbit's own checks raise first, as always
    _check_polarization(inst, pol)
    return StabilityVerdict(*_instance_verdict(inst, chain([first], walk), pol, budget))


class ComparisonReport:
    """Verdicts of a point and of its mutation under the transported
    polarization, together with which implications the standing
    hypotheses assert and whether they hold."""

    def __init__(self, in_w0, forward_asserted, backward_asserted,
                 verdict_w, verdict_z, pol_hat):
        self.in_w0 = in_w0
        self.forward_asserted = forward_asserted
        self.backward_asserted = backward_asserted
        self.verdict_w = verdict_w
        self.verdict_z = verdict_z
        self.pol_hat = pol_hat

    @property
    def forward_ok(self):
        if self.verdict_z is None:
            return True
        return (not self.verdict_w.semistable) or self.verdict_z.semistable

    @property
    def backward_ok(self):
        if self.verdict_z is None:
            return True
        return (not self.verdict_z.semistable) or self.verdict_w.semistable

    @property
    def ok(self):
        good = True
        if self.forward_asserted:
            good = good and self.forward_ok
        if self.backward_asserted:
            good = good and self.backward_ok
        return good

    def __repr__(self):
        return ("ComparisonReport(in_w0=%s, forward=%s/%s, backward=%s/%s, "
                "w=%r, z=%r)" % (self.in_w0,
                                 self.forward_asserted, self.forward_ok,
                                 self.backward_asserted, self.backward_ok,
                                 self.verdict_w, self.verdict_z))


def compare_hypotheses(pol, p):
    """The two standing hypotheses: sum_{i<=p} lam_i m_i <= mu_1, and
    mu_1 >= 1/(n_1+1)."""
    head = sum(Fraction(pol.lam[i]) * pol.m_mult[i] for i in range(p))
    hyp_forward = head <= Fraction(pol.mu[0])
    hyp_backward = Fraction(pol.mu[0]) >= Fraction(1, pol.n_mult[0] + 1)
    return hyp_forward, hyp_backward


def unstable_outside_w0_bound(pol, p):
    """The slope bound under which points outside the open locus cannot
    be semistable: mu_1 < (sum_{j>p} lam_j m_j) / (n_1 - 1); for
    n_1 = 1 the bound is vacuous (treated as +infinity, always true)."""
    tail = sum(Fraction(pol.lam[j]) * pol.m_mult[j]
               for j in range(p, len(pol.lam)))
    n1 = pol.n_mult[0]
    if n1 <= 1:
        return True
    return Fraction(pol.mu[0]) < tail / (n1 - 1)


def compare_stability(inst, w, pol, group="G", budget=DEFAULT_BUDGET):
    """Verdict of w under pol versus verdict of its mutation under the
    transported polarization (Kronecker-type regime p = 0, s = 1)."""
    point = w if isinstance(w, MorphismPoint) else inst.point_from_family(w)
    hyp_f, hyp_b = compare_hypotheses(pol, inst.p)
    verdict_w = is_semistable_rs(inst, point, pol, group=group, budget=budget)
    if not in_W0(point):
        return ComparisonReport(False, hyp_f, hyp_b, verdict_w, None, None)
    dual = build_dual(inst.theta)
    z = mutate(dual, point, default_choice(point))
    inst_hat = mutated_instance(inst.h, inst.m_mult, inst.n_mult, inst.p)
    z_hat = dual_point_to_mutated(inst, inst_hat, z)
    rep = map_polarization(pol, inst.h, inst.p)
    pol_hat = rep.polarization().transpose()
    verdict_z = is_semistable_rs(inst_hat, z_hat, pol_hat,
                                 group=group, budget=budget)
    return ComparisonReport(True, hyp_f, hyp_b, verdict_w, verdict_z, pol_hat)
