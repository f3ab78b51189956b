"""Semistability oracles by exhaustive finite-field search.

Two-tier instances carry the weighted criterion attached to a
polarization, for the reductive group (product of the multiplicity
GL's) or for the full automorphism group (reductive part extended by
the unipotent off-diagonal Hom blocks). A Kronecker module
f : L (x) M -> N is the instance of a type-(1, 1) Hom system at cut
p = 0, and its classical slope criterion is the weighted one under the
polarization (1/m, 1/n). Everything is decided by exhaustive
enumeration over a prime field, exactly, by one reductive core: the
slope criterion is its case of a single block, and the full group's is
its verdict along the unipotent orbit.
"""

from fractions import Fraction
from functools import partial
from itertools import chain
from math import lcm
from operator import getitem, itemgetter, mul
from weakref import ref

from .exactfield import ExactMatrix, Subspace, packing, subspace_bases, subspace_count
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

def _subspace_lists(field, m_mult, budget):
    """For each first-tier index i, the packed canonical bases
    (subspace_bases) of the subspaces of GF(p)^(m_i), by dimension, one
    list for equal m_i; raises, before a basis is written, when those of
    one dimension or then the families so far exceed the budget."""
    per_index, lists, total = [], {}, 1
    for m in m_mult:
        total *= sum(subspace_count(field.p, m, d, budget) for d in range(m + 1))
        if total > budget:
            raise ValueError("subspace family enumeration budget exceeded")
        if m not in lists:
            lists[m] = [basis for d in range(m + 1) for basis in subspace_bases(field, m, d)]
        per_index.append(lists[m])
    return per_index


class _WalkMemo:
    """What the translates of one verdict share; it lives as long as the
    verdict. ops packs vectors (exactfield.packing), and per_index holds
    the packed canonical bases of _subspace_lists. shapes[(l, i)] is
    (dim N_l, dim H_li, dim M_i, vectors, bases) for the block x_(l,i):
    vectors lists the distinct basis vectors of the subspaces of M_i, and
    bases each subspace's basis as indices into vectors, the last being
    M_i itself, whose canonical basis is the identity; indices with equal
    m_i share one list, indexed once. An image table of x_(l,i) is one
    flat list that holds, for each basis vector h of H_li in turn, the
    packed x_(l,i)(h (x) c) for c in vectors: x_(l,i)(h (x) c) is at
    h * len(vectors) + c. heads[k] is the lam-weight and the dimension of
    the k-th subspace of M_1, and head_dims those dimensions alone; tails
    lists each choice of subspaces of the other indices, in product
    order, with its lam-weight and whether one of them is nonzero.
    tables[(l, i)] is the image table of the block at the current
    translate, and images[l - 1][i - 1] the tuple of its images, one
    canonical echelon basis per subspace of M_i; spans maps each tuple of
    generators that an image was read from to the image, so equal
    generators are eliminated once per verdict; getters[(l, i)] holds,
    for a block that the walk changes, one reader per subspace of M_i of
    its generators in an image table (_getters); changes maps the id of
    each live change seen in the walk to a weak reference to it and the
    image tables of its blocks. rows maps the images of every index but
    the first to a dict of the rows of _families, and tail_rows is that
    dict for the current images, or None once a block x_(l,i) with
    i > 1 has been set since it was looked up."""

    __slots__ = ("ops", "per_index", "m_mult", "n_mult", "heads", "head_dims", "tails",
                 "shapes", "tables", "images", "spans", "getters", "changes", "rows",
                 "tail_rows")

    def __init__(self, field, per_index, dimH, m_mult, n_mult, lam):
        self.ops = packing(field)
        self.per_index, self.m_mult, self.n_mult = per_index, m_mult, n_mult
        indexed = {}
        for m, bases in zip(m_mult, per_index):
            if m not in indexed:
                vectors = list(dict.fromkeys(chain.from_iterable(bases)))
                position = {c: k for k, c in enumerate(vectors)}
                indexed[m] = (vectors, [tuple(map(position.get, b)) for b in bases])
        weights = [[(lam_i * len(b), len(b)) for b in bases]
                   for lam_i, bases in zip(lam, per_index)]
        self.heads = weights[0]
        self.head_dims = [d for _, d in self.heads]
        self.tails = [((), 0, False)]
        for index in weights[1:]:
            self.tails = [(tail + (k,), w + w_k, nonzero or d_k > 0)
                          for tail, w, nonzero in self.tails
                          for k, (w_k, d_k) in enumerate(index)]
        self.shapes = {(l, i): (n, dimH[(l, i)], m) + indexed[m]
                       for l, n in enumerate(n_mult, 1)
                       for i, m in enumerate(m_mult, 1)}
        self.tables = {}
        self.images = [[None] * len(m_mult) for _ in n_mult]
        self.spans = {}
        self.getters = {}
        self.changes = {}
        self.rows = {}
        self.tail_rows = None


def _per_h(memo, key, table):
    """The image table of x_key cut into one list for each basis vector h
    of H_li, of x_key(h (x) c) for c in vectors."""
    _, dim_h, _, vectors, _ = memo.shapes[key]
    v = len(vectors)
    return [table[h * v:(h + 1) * v] for h in range(dim_h)]


def _image_table(memo, key, x):
    """The image table of x as a block, or a change to the block, x_key,
    flattened from ops.images; it is linear in x."""
    n, dim_h, m, vectors, _ = memo.shapes[key]
    if (x.rows, x.cols) != (n, dim_h * m):
        raise ValueError("block %r is %dx%d, expected %dx%d"
                         % (key, x.rows, x.cols, n, dim_h * m))
    return list(chain.from_iterable(memo.ops.images(x, dim_h, m, vectors)))


def _table_block(memo, key, table):
    """The block x_key read back from its image table: its column
    h (x) (basis vector j) is the image of the j-th basis vector of M_i
    itself."""
    n, _, _, _, bases = memo.shapes[key]
    return memo.ops.columns([s[c] for s in _per_h(memo, key, table) for c in bases[-1]], n)


def _getters(memo, key):
    """For each subspace of M_i, a function of an image table of x_key
    that gives the tuple of the images of h (x) c for every basis vector
    h of H_li and c of the subspace, h major: an itemgetter over their
    flat indices when there are two or more (over one it would give the
    entry itself, not a tuple)."""
    _, dim_h, _, vectors, bases = memo.shapes[key]
    offsets = [h * len(vectors) for h in range(dim_h)]
    out = []
    for basis in bases:
        flat = [o + c for o in offsets for c in basis]
        if len(flat) > 1:
            out.append(itemgetter(*flat))
        elif flat:
            out.append(lambda table, k=flat[0]: (table[k],))
        else:
            out.append(lambda table: ())
    return out


def _set_table(memo, key, table):
    """Make table the image table of the block x_key, with its images.
    The image of x_key(H (x) M') is the canonical echelon basis
    (ops.echelon) of the images of h (x) c for every basis vector h of H
    and c of M', read once per verdict for each tuple of those generators
    (memo.spans); equal spans have equal echelon bases, so the image is
    its own key. The generators are read by the block's getters when the
    walk changes it (_getters), and otherwise off its lists per h
    (_per_h). Setting a block x_(l,i) with i > 1 drops memo.tail_rows."""
    getters = memo.getters.get(key)
    if getters is None:
        per_h = _per_h(memo, key, table)
        # read one at a time: a Gred verdict passes here for every subspace
        gens = (tuple([s[c] for s in per_h for c in basis]) for basis in memo.shapes[key][4])
    else:
        gens = [get(table) for get in getters]
    echelon, spans = memo.ops.echelon, memo.spans
    images = []
    for g in gens:
        img = spans.get(g)
        if img is None:
            img = spans[g] = echelon(g)
        images.append(img)
    l, i = key
    memo.tables[key] = table
    memo.images[l - 1][i - 1] = tuple(images)
    if i > 1:
        memo.tail_rows = None


def _gred_core(memo, change, mu):
    """The reductive verdict at the next translate of the walk, which the
    change (a _Change, or empty) makes from the previous one, under the
    integer weights of memo and mu. Each changed block's image table
    gains the table of its change, by one ops.add. The tables of a change
    are computed once per verdict, as the walk yields the same changes
    again and again, and its blocks get their getters then; the memo
    keeps the tables while the change lives, so it holds no more tables
    than the walk holds changes. A block's images are read off its table
    again only when it changes, a family costs one rank per l, and a row
    of families seen before (_families) costs one lookup. Returns
    (semistable, stable, ks): ks indexes the recorded family in the
    subspace lists, or is None."""
    if change:
        cell = memo.changes.get(id(change))
        if cell is None:
            # the entry goes when the change does, before its id can be reused
            cell = memo.changes[id(change)] = (
                ref(change, partial(memo.changes.pop, id(change))),
                [(key, _image_table(memo, key, x)) for key, x in change.items()])
            for key in change:
                if key not in memo.getters:
                    memo.getters[key] = _getters(memo, key)
        add = memo.ops.add
        for key, table in cell[1]:
            _set_table(memo, key, add(memo.tables[key], table))
    return _families(memo, mu)


def _families(memo, mu):
    """The family loop of _gred_core: (semistable, stable, ks) from the
    images of memo, row by row. A row is every family with one subspace
    M'_1, and families come in product order, so the first violating
    family is the first violation of the first row that has one, and the
    first tie (a nonzero family on the line, recorded when no family
    violates) is the first tie of the first row that has one.
    A row's outcome depends on M'_1 only through its dimension and its
    images, and otherwise on the images of the other indices alone: each
    distinct row is scanned once per verdict. The rows of the current
    images of the other indices (memo.tail_rows) are looked up again
    only after one of those images has been set, and a row is keyed by
    (dim M'_1, its image in N_1, ...)."""
    images = memo.images
    rows = memo.tail_rows
    if rows is None:
        rows = memo.tail_rows = memo.rows.setdefault(
            tuple(chain.from_iterable(row[1:] for row in images)), {})
    tie = None
    for k1, head in enumerate(zip(memo.head_dims, *[row[0] for row in images])):
        row = rows.get(head)
        if row is None:
            row = rows[head] = _row(memo, k1, mu)
        bad, first = row
        if bad is not None:
            # the first violating family decides the verdict and the witness
            return False, False, (k1,) + bad
        if tie is None and first is not None:
            tie = (k1,) + first
    return True, tie is None, tie


def _row(memo, k1, mu):
    """One row of _families, the families whose M'_1 is the k1-th
    subspace: (the first violating choice of the other indices or None,
    the first tie before it or None). A family with every N'_l = N_l is
    neither."""
    n_mult, rank = memo.n_mult, memo.ops.rank
    w1, d1 = memo.heads[k1]
    tie = None
    for tail, w, nonzero in memo.tails:
        ks = (k1,) + tail
        dims_n = [rank(chain.from_iterable(map(getitem, row, ks))) for row in memo.images]
        if dims_n == n_mult:
            continue
        lhs = w1 + w
        rhs = sum(map(mul, mu, dims_n))
        if lhs > rhs:
            return tail, tie
        if tie is None and lhs == rhs and (d1 or nonzero):
            tie = tail
    return None, tie


def _witness(memo, ks):
    """The family ks of subspaces M'_i and its minimal N'_l, the canonical
    echelon basis (ops.echelon) of its block images in N_l, stacked, as
    Subspaces built from their canonical bases."""
    columns = memo.ops.columns
    spans = {}
    for l, (n, row) in enumerate(zip(memo.n_mult, memo.images), 1):
        stacked = [v for col, k in zip(row, ks) for v in col[k]]
        spans[l] = Subspace._from_canonical(columns(memo.ops.echelon(stacked), n))
    return tuple(Subspace._from_canonical(columns(bases[k], m))
                 for bases, m, k in zip(memo.per_index, memo.m_mult, ks)), spans


def _verdict(f, walk, dimH, m_mult, n_mult, lam, mu, budget):
    """The reductive verdict along a walk of families of blocks of one
    shape, given as its first family and then, for each next translate,
    its change from the one before, a _Change or an empty dict (as
    enumerate_unipotent_orbit yields them): semistable and stable when
    every translate is. Returns
    (semistable, stable, kept), kept the pair (translate, witness) of the
    first translate that is not semistable, or else of the first that is
    not stable, or None; the walk stops at the first that is not
    semistable. A kept translate is read back from the image tables of
    the blocks that the walk changed."""
    memo = _WalkMemo(f, _subspace_lists(f, m_mult, budget), dimH, m_mult, n_mult, lam)
    walk = iter(walk)
    fam = next(walk)
    for key in memo.shapes:
        _set_table(memo, key, _image_table(memo, key, fam[key]))
    first = dict(memo.tables)
    stable = True
    kept = None
    for change in chain([{}], walk):
        ss, st, ks = _gred_core(memo, change, mu)
        if not st and (kept is None or not ss):
            moved = {key: _table_block(memo, key, table)
                     for key, table in memo.tables.items() if table is not first[key]}
            kept = ({**fam, **moved}, _witness(memo, ks))
        if not ss:
            return False, False, kept
        stable = stable and st
    return True, stable, kept


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


def _instance_verdict(inst, walk, pol, budget):
    """_verdict of a walk of the instance's families under pol, its
    weights cleared of their common denominator."""
    den = lcm(*(x.denominator for x in chain(pol.lam, pol.mu)))
    lam = [x.numerator * (den // x.denominator) for x in pol.lam]
    mu = [x.numerator * (den // x.denominator) for x in pol.mu]
    return _verdict(inst.h.field, walk, inst.h.dimH, inst.m_mult,
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


class _Change(dict):
    """A change to a family: a dict from block keys to the nonzero
    changes of those blocks, which a verdict's memo can refer to
    weakly."""

    __slots__ = ("__weakref__",)


def _plus(change, other):
    """The sum of two changes, each a dict from block keys to nonzero
    changes, as a _Change; a key whose sum is 0 is dropped."""
    out = _Change(change)
    for k, x in other.items():
        if k in out:
            x = out[k] + x
        if x.is_zero():
            out.pop(k, None)
        else:
            out[k] = x
    return out


def _unit_change(inst, fam, key, rows, cols, entry):
    """The change D that the unit parameter of block key (rows x cols)
    with its 1 at the flat entry alone makes to fam, as a dict from block
    keys to nonzero changes: apply_unipotent(inst, fam, {key: unit}) - fam,
    read off the composition tensors. A block that fam does not name is 0.

    A source unit of A_ji (x) Hom(M_i, M_j) sends basis vector x of M_i to
    y of M_j along the a-th basis vector of A_ji, (a, y) = divmod(entry //
    m_i, m_j): it changes only column h (x) x of each x_(l,i), by the sum
    over h' of comp_HA[(l,j,i)][h][h' (x) a] times column h' (x) y of
    x_(l,j), one product per l. A target unit of B_ml (x) Hom(N_l, N_m)
    sends x of N_l to y of N_m along b, (b, y) = divmod(entry // n_l, n_m):
    it changes only row y of each x_(m,i), to row x of x_(l,i) read as
    H_li x M_i and contracted with comp_BH[(m,l,i)] at b, one product per
    i."""
    h = inst.h
    f = h.field
    m, n = inst.m_mult, inst.n_mult
    out = {}
    if key[0]:
        _, j, i = key
        m_j, m_i, da = m[j - 1], m[i - 1], h.dimA[(j, i)]
        (a, y), x = divmod(entry // cols, m_j), entry % cols
        for l in range(1, h.s + 1):
            x_lj = fam.get((l, j))
            if x_lj is None:
                continue
            d_lj, d_li = h.dimH[(l, j)], h.dimH[(l, i)]
            along = h.comp_HA[(l, j, i)].submatrix(range(d_li), range(a, d_lj * da, da))
            moved = (x_lj.submatrix(range(x_lj.rows), range(y, d_lj * m_j, m_j))
                     @ along.transpose())
            if not moved.is_zero():
                data = [[0] * (d_li * m_i) for _ in range(moved.rows)]
                for row, image in zip(data, moved.data):
                    row[x::m_i] = image
                out[(l, i)] = ExactMatrix.of_rows(f, data, d_li * m_i)
    else:
        _, mm, l = key
        n_m = n[mm - 1]
        (b, y), x = divmod(entry // cols, n_m), entry % cols
        for i in range(1, h.r + 1):
            x_li = fam.get((l, i))
            if x_li is None:
                continue
            m_i, d_li, d_mi = m[i - 1], h.dimH[(l, i)], h.dimH[(mm, i)]
            row = x_li.data[x]
            along = h.comp_BH[(mm, l, i)].submatrix(range(d_mi), range(b * d_li, (b + 1) * d_li))
            moved = along @ ExactMatrix.of_rows(
                f, [row[g * m_i:(g + 1) * m_i] for g in range(d_li)], m_i)
            if not moved.is_zero():
                data = [[0] * (d_mi * m_i) for _ in range(n_m)]
                data[y] = list(chain.from_iterable(moved.data))
                out[(mm, i)] = ExactMatrix.of_rows(f, data, d_mi * m_i)
    return out


def _carry_sums(inst, fam, units):
    """For each unit parameter k of units ((key, rows, cols, entry)), the
    change C_k = D_k + sum_{j > k} D_j of the family, D_j the change
    that unit j alone makes (_unit_change): raising digit k and
    resetting every later one from p - 1 to 0 adds C_k, as
    -(p - 1) = 1 mod p. Each C_k maps a block key to a nonzero change."""
    sums, later = [], {}
    for unit in reversed(units):
        later = _plus(later, _unit_change(inst, fam, *unit))
        sums.append(later)
    return sums[::-1]


def _rises(n, p):
    """The digit that rises at each next tuple of GF(p)^n in
    lexicographic order, every later digit going from p - 1 to 0."""
    digits = [0] * n
    while True:
        k = n - 1
        while k >= 0 and digits[k] == p - 1:
            digits[k] = 0
            k -= 1
        if k < 0:
            return
        digits[k] += 1
        yield k


def enumerate_unipotent_orbit(inst, fam, budget=DEFAULT_BUDGET):
    """The images of the family under the unipotent group, in the
    lexicographic order of their parameter tuples over the prime field
    (flat entries, source parameters first), as a walk of changes: the
    family itself first, then for each next translate its change from
    the one before, a _Change (a dict from block keys to the nonzero
    changes of those blocks).

    The translate of (u, v) is (I + V_v) mid_u with mid_u = (I + S_u) x:
    mid_u is affine in u, and the translate affine in v for a fixed
    mid_u. So the source carry sums (_carry_sums) walk mid_u, and at
    each mid_u the target carry sums walk the translates. The target
    change is linear in the family, so the target carry sums at
    mid_u + S are those at mid_u plus their values on S: they are built
    once at the family and once on each source carry sum S (a family
    that is 0 at the blocks S does not change), and updated
    by each source step. A source step leaves the walk of the target
    digits at their top, p - 1 each, and resets them all to 0, which
    adds the first target carry sum at mid_u: its change is the source
    carry sum plus that. With no target parameters the source carry sums
    are the walk's steps. The carry sums are built when the walk takes
    its first step, so a walk that stops at the family builds none; the
    budget is checked before the family is yielded."""
    p = _require_finite(inst.h.field)
    shapes, _ = _unipotent_parameters(inst, budget=budget)
    units = [((src, a, b), rows, cols, entry) for src, a, b, rows, cols in shapes
             for entry in range(rows * cols)]
    source = [u for u in units if u[0][0]]
    target = [u for u in units if not u[0][0]]
    yield fam
    steps = _carry_sums(inst, fam, source)
    if not target:
        yield from map(steps.__getitem__, _rises(len(steps), p))
        return
    shifts = [_carry_sums(inst, step, target) for step in steps]
    sums = _carry_sums(inst, fam, target)
    yield from map(sums.__getitem__, _rises(len(sums), p))
    for k in _rises(len(steps), p):
        yield _plus(steps[k], sums[0])
        sums = [_plus(t, d) for t, d in zip(sums, shifts[k])]
        yield from map(sums.__getitem__, _rises(len(sums), p))


def is_semistable_rs(inst, w, pol, group="Gred", budget=DEFAULT_BUDGET):
    """Semistability of a point of a two-tier instance.

    group="Gred": the reductive verdict by subspace enumeration.
    group="G": the reductive verdict must hold at every point of the
    finite unipotent orbit of w, walked as a stream of changes; the
    subspaces are enumerated once for the whole walk."""
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
