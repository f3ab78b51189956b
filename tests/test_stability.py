"""Semistability oracles: Kronecker modules as instances, two-tier
families, the unipotent orbit, and the mutation comparison."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from mutation_forge.exactfield import (ExactMatrix, Field, Subspace,
                                       enumerate_subspaces, gaussian_binomial,
                                       packing, subspace_bases)
from mutation_forge.theta import MorphismPoint, in_W0
from mutation_forge.homdata import (Polarization, _on_chain, build_theta_p,
                                    projective_space_hom_data,
                                    validate_hom_data)
from mutation_forge import stability
from mutation_forge.stability import (DEFAULT_BUDGET, StabilityVerdict,
                                      _instance_verdict,
                                      _unipotent_parameters, apply_unipotent,
                                      compare_hypotheses, compare_stability,
                                      enumerate_unipotent_orbit,
                                      gred_semistable, is_semistable_rs)
from mutation_forge.thresholds import thm56_range
from conftest import (assert_double_mutation_returns, has_canonical_scalars,
                      image_subspace, kronecker_instance, mutated_point,
                      random_w0_point, rnd_invertible, subspace_contains,
                      subspace_sum, transposed_family)

F2 = Field(2)


def _all_f(field, rows, cols):
    p = field.p
    for bits in product(range(p), repeat=rows * cols):
        yield ExactMatrix.from_flat(field, rows, cols, list(bits))


# -- Kronecker modules f : L (x) M -> N as type-(1, 1) instances -------

def test_kronecker_semistable_rank_one():
    inst, pol = kronecker_instance(F2, 2, 1, 1)
    for flat in ([1, 0], [0, 1], [1, 1]):
        f = ExactMatrix.from_flat(F2, 1, 2, flat)
        assert gred_semistable(inst, {(1, 1): f}, pol).semistable
    zero = {(1, 1): ExactMatrix.zeros(F2, 1, 2)}
    assert not gred_semistable(inst, zero, pol).semistable


def test_kronecker_mutate_dims():
    """The mutation of f is A(f) : L* (x) M* -> ker(f)*: the mutated
    instance has dim H = q, multiplicities m' = m and n' = q*m - n, and
    its family is an n' x (q*m) matrix whose rows span the kernel of f."""
    for (q, m, n) in ((2, 1, 1), (3, 2, 2)):
        inst, _ = kronecker_instance(F2, q, m, n)
        f = ExactMatrix.identity(F2, q * m).submatrix(range(n), range(q * m))
        inst_hat, z = mutated_point(inst, inst.point_from_family({(1, 1): f}))
        assert inst_hat.h.dimH[(1, 1)] == q
        assert (inst_hat.m_mult, inst_hat.n_mult) == ([m], [q * m - n])
        x = inst_hat.family_from_point(z)[(1, 1)]
        assert (x.rows, x.cols) == (q * m - n, q * m)
        assert x.rank() == q * m - n and (x @ f.transpose()).is_zero()


def test_kronecker_double_mutation_orbit_sample():
    """Every surjective f of shape (2, 2, 2) over GF(2): the double
    mutation is certified by its constructed GL(N) element, and f and its
    mutation have the same verdict under the transported polarization."""
    inst, pol = kronecker_instance(F2, 2, 2, 2)
    count = 0
    for f in _all_f(F2, 2, 4):
        if f.rank() < 2:
            continue
        w = inst.point_from_family({(1, 1): f})
        assert_double_mutation_returns(inst, w)
        rep = compare_stability(inst, w, pol)
        assert rep.verdict_w.semistable == rep.verdict_z.semistable
        count += 1
    assert count > 0


@pytest.mark.parametrize("p", [None, 3, 5])
def test_kronecker_double_mutation_over_any_field(p):
    """The constructed element certifies the double mutation over QQ and
    over GF(p), p > 2, where an enumeration of GL(M) x GL(N) could not
    run or would cost p^(m^2 + n^2) pairs."""
    field = Field(p)
    rng = random.Random(58)
    for (q, m, n) in ((2, 2, 3), (3, 2, 4), (3, 3, 5), (4, 2, 3)):
        inst, _ = kronecker_instance(field, q, m, n)
        for _ in range(8):
            assert_double_mutation_returns(inst, random_w0_point(inst.theta, rng))


# -- the slope test against its own loop -------------------------------

def reference_kronecker_semistable(field, q, m, n, f, budget=DEFAULT_BUDGET):
    """The slope test of f : L (x) M -> N (dim L = q, dim M = m,
    dim N = n) as a loop of its own: for every nonzero subspace M' of M,
    N' = f(L (x) M') as an image Subspace; the witness (M', N') is the
    first family that violates the slope, none is recorded when the slope
    is only attained."""
    semistable, stable = True, True
    witness = None
    for d in range(1, m + 1):
        for sub in enumerate_subspaces(field.p, m, d, budget=budget):
            img = image_subspace(f.apply_leg([q, m], 1, sub.basis))
            dn = img.dim
            if m * dn < n * d:
                stable = False
                if semistable:
                    semistable = False
                    witness = (sub, img)
            elif m * dn == n * d and (d, dn) != (m, n):
                stable = False
    return StabilityVerdict(semistable, stable, witness)


def _assert_matches_reference(field, q, m, n, f):
    inst, pol = kronecker_instance(field, q, m, n)
    v = gred_semistable(inst, {(1, 1): f}, pol)
    ref = reference_kronecker_semistable(field, q, m, n, f)
    assert (v.semistable, v.stable) == (ref.semistable, ref.stable)
    if not v.semistable:
        sub, img = ref.witness
        assert v.witness == ((sub,), {1: img})
    elif v.stable:
        assert v.witness is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kronecker_matches_reference(data):
    """n runs from 1 to q*m - 1, the instance's 1 <= n_1 < dim N2."""
    p = data.draw(st.sampled_from([2, 3]))
    q = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(2 if q == 1 else 1, 3))
    n = data.draw(st.integers(1, q * m - 1))
    f = ExactMatrix.from_flat(Field(p), n, q * m, data.draw(
        st.lists(st.integers(0, p - 1), min_size=n * q * m, max_size=n * q * m)))
    _assert_matches_reference(Field(p), q, m, n, f)


def test_kronecker_seeded_modules_match_reference():
    """Twenty seeded GF(2) modules of q = 2 at each (m, n) in (1, 1),
    (2, 2) and (2, 3)."""
    rng = random.Random(50)
    for (m, n) in ((1, 1), (2, 2), (2, 3)):
        for _ in range(20):
            flat = [rng.randint(0, 1) for _ in range(n * 2 * m)]
            _assert_matches_reference(F2, 2, m, n,
                                      ExactMatrix.from_flat(F2, n, 2 * m, flat))


def test_kronecker_records_the_family_that_attains_the_slope():
    """A semistable module that is not stable records a nonzero M' with
    m * dim N' = n * dim M' (N' = f(L (x) M') proper)."""
    q, m, n = 2, 2, 2
    inst, pol = kronecker_instance(F2, q, m, n)
    seen = 0
    for f in _all_f(F2, n, q * m):
        v = gred_semistable(inst, {(1, 1): f}, pol)
        if v.semistable and not v.stable:
            (sub,), images = v.witness
            assert sub.dim > 0 and images[1].dim < n
            assert m * images[1].dim == n * sub.dim
            assert images[1] == image_subspace(f.apply_leg([q, m], 1, sub.basis))
            seen += 1
    assert seen > 0


def test_kronecker_rejects_n_zero():
    """A Kronecker instance needs 1 <= n < q*m, the paper's
    1 <= n_1 < dim N2: build_theta_p refuses n = 0 and n = q*m."""
    h = projective_space_hom_data(F2, 1, [-1], [0])   # q = 2
    for n in (0, 4):
        with pytest.raises(ValueError, match="need 1 <= n_1 < dim N2"):
            build_theta_p(h, [2], [n], 0)


def test_kronecker_budget_counts_all_subspaces():
    """GF(2)^2 has 5 subspaces (1 + 3 + 1), counted together."""
    inst, pol = kronecker_instance(F2, 2, 2, 1)
    x = {(1, 1): ExactMatrix.zeros(F2, 1, 4)}
    with pytest.raises(ValueError, match="subspace family enumeration budget"):
        gred_semistable(inst, x, pol, budget=4)
    assert not gred_semistable(inst, x, pol, budget=5).semistable


def test_reduced_equals_exhaustive_family_quantifier():
    """The minimal-image criterion agrees with quantifying over all
    compatible subspace family pairs."""
    h = projective_space_hom_data(F2, 1, [-1], [0])
    q = h.dimH[(1, 1)]
    rng = random.Random(51)
    m, n = 2, 2
    inst = build_theta_p(h, [m], [n], 0)
    pol = Polarization([Fraction(1, m)], [Fraction(1, n)], [m], [n])
    for _ in range(15):
        f = ExactMatrix.from_flat(
            F2, n, q * m, [rng.randint(0, 1) for _ in range(n * q * m)])
        fam = {(1, 1): f}
        semistable = True
        for d in range(0, m + 1):
            for sub in enumerate_subspaces(2, m, d):
                blk = f @ ExactMatrix.identity(F2, q).kron(sub.basis)
                img = image_subspace(blk)
                for dn in range(img.dim, n + 1):
                    for nsub in enumerate_subspaces(2, n, dn):
                        if not subspace_contains(nsub, img):
                            continue
                        if dn == n:
                            continue
                        if Fraction(d, m) > Fraction(dn, n):
                            semistable = False
        assert semistable == gred_semistable(inst, fam, pol).semistable


def test_zero_point_not_semistable():
    h = projective_space_hom_data(F2, 1, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    pol = Polarization([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)],
                       [1, 1], [2])
    w = MorphismPoint.zero(inst.theta)
    assert not is_semistable_rs(inst, w, pol).semistable


def _ac5_instance():
    h = projective_space_hom_data(F2, 1, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    pol = Polarization([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)],
                       [1, 1], [2])
    return inst, pol


def _all_points(inst):
    t = inst.theta
    for bits in product((0, 1), repeat=t.dim_n2 * t.dim_mult):
        psi2 = ExactMatrix.from_flat(t.field, t.dim_n2, t.dim_mult,
                                     list(bits))
        yield MorphismPoint(t, ExactMatrix.zeros(t.field, 0, t.dim_mult),
                            psi2, ExactMatrix.zeros(t.field, 0, 1),
                            ExactMatrix.zeros(t.field, 0, 1))


def test_unipotent_orbit_contains_base_family():
    inst, _ = _ac5_instance()
    rng = random.Random(52)
    w = None
    for cand in _all_points(inst):
        if in_W0(cand):
            w = cand
            break
    fam = inst.family_from_point(w)
    orbit = list(added_up(enumerate_unipotent_orbit(inst, fam)))
    assert any(all(fam[k] == o[k] for k in fam) for o in orbit)
    assert len(orbit) == 4   # GF(2)^(dim A_21), multiplicities 1


def test_g_differs_from_gred_somewhere():
    """At the worked dimensions there are points whose reductive verdict
    is semistable while some unipotent translate is not."""
    inst, pol = _ac5_instance()
    found = False
    checked = 0
    for w in _all_points(inst):
        checked += 1
        vr = is_semistable_rs(inst, w, pol, group="Gred")
        vg = is_semistable_rs(inst, w, pol, group="G")
        if vr.semistable and not vg.semistable:
            found = True
            break
    assert found, "scan complete without a separating point (%d)" % checked


# The G verdicts of the console-script runs stability2g.json and
# stability3g.json: P^1, e = (-2, -1), f = (0, 1), m = n = (1, 1), p = 0,
# lambda = mu = (1/2, 1/2), at (psi2, phi2) over GF(p). Both print the
# same bytes, which hold only the dimensions of the witness; here the
# kept translate and the witness bases are pinned as the oracle gave
# them when pinned: (semistable, stable, translate blocks, bases of the
# M'_i, bases of the N'_l).
G_PINS = {
    2: ("10101", "1010101", True, False,
        {(1, 1): [[1, 0, 1]], (1, 2): [[0, 1]], (2, 1): [[0, 0, 0, 0]],
         (2, 2): [[1, 1, 1]]},
        [[[1]], [[]]], {1: [[1]], 2: [[]]}),
    3: ("12021", "1020121", True, False,
        {(1, 1): [[1, 2, 0]], (1, 2): [[2, 1]], (2, 1): [[0, 0, 0, 0]],
         (2, 2): [[2, 2, 0]]},
        [[[1]], [[]]], {1: [[1]], 2: [[]]}),
}


@pytest.mark.parametrize("p", sorted(G_PINS))
def test_console_script_g_verdicts_keep_their_translate_and_witness(p):
    psi2, phi2, semistable, stable, translate, m_bases, n_bases = G_PINS[p]
    f = Field(p)
    h = projective_space_hom_data(f, 1, [-2, -1], [0, 1])
    inst = build_theta_p(h, [1, 1], [1, 1], 0)

    def column(digits):
        return ExactMatrix(f, [[int(c)] for c in digits])
    w = MorphismPoint(inst.theta, ExactMatrix.zeros(f, 0, 1), column(psi2),
                      ExactMatrix.zeros(f, 0, 1), column(phi2))
    half = Fraction(1, 2)
    v = is_semistable_rs(inst, w, Polarization([half, half], [half, half],
                                               [1, 1], [1, 1]), group="G")
    assert (v.semistable, v.stable) == (semistable, stable)
    kept, (combo, spans) = v.witness
    assert {k: x.data for k, x in kept.items()} == translate
    assert all(x.field == f for x in kept.values())
    assert [(sub.ambient_dim, sub.basis.data) for sub in combo] == [
        (1, b) for b in m_bases]
    assert {l: (sub.ambient_dim, sub.basis.data) for l, sub in spans.items()} == {
        l: (1, b) for l, b in n_bases.items()}
    assert all(sub.field == f for sub in combo + tuple(spans.values()))


def test_points_outside_w0_unstable_under_slope_bound():
    inst, pol = _ac5_instance()
    conditions = dict(thm56_range(pol.lam, pol.mu, pol.m_mult, pol.n_mult, inst.p).conditions)
    assert conditions["right"]
    for w in _all_points(inst):
        if in_W0(w):
            continue
        assert not is_semistable_rs(inst, w, pol, group="Gred").semistable


def test_compare_hypotheses_values():
    _, pol = _ac5_instance()
    hyp_f, hyp_b = compare_hypotheses(pol, 0)
    assert hyp_f           # empty head sum <= mu_1
    assert hyp_b           # 1/2 >= 1/(2+1)


def test_compare_stability_report():
    inst, pol = _ac5_instance()
    rng = random.Random(53)
    seen_w0 = 0
    for w in _all_points(inst):
        if not in_W0(w):
            rep = compare_stability(inst, w, pol)
            assert rep.in_w0 is False and rep.verdict_z is None
            assert rep.ok
            break
    for w in _all_points(inst):
        if in_W0(w):
            rep = compare_stability(inst, w, pol)
            assert rep.in_w0
            assert rep.forward_asserted and rep.backward_asserted
            assert rep.ok, rep
            assert (rep.verdict_w.semistable == rep.verdict_z.semistable)
            seen_w0 += 1
            if seen_w0 >= 5:
                break


# -- the reductive oracle against its per-family reference --------------

def reference_family_images(inst, fam, bases):
    """N'_l spanned by all blocks x_(l,i)(H_li (x) M'_i), with the
    blocks formed as dense Kronecker products."""
    f = inst.h.field
    out = {}
    for l in range(1, inst.h.s + 1):
        span = Subspace(inst.n_mult[l - 1], ExactMatrix.zeros(f, inst.n_mult[l - 1], 0))
        for i in range(1, inst.h.r + 1):
            basis = bases[i - 1]
            if basis.cols == 0:
                continue
            dh = inst.h.dimH[(l, i)]
            if dh == 0:
                continue
            blk = fam[(l, i)] @ ExactMatrix.identity(f, dh).kron(basis)
            span = subspace_sum(span, image_subspace(blk))
        out[l] = span
    return out


def reference_gred(inst, fam, pol, budget=DEFAULT_BUDGET):
    """The reductive oracle family by family: every block image built
    again for every family, N'_l as a sum of Subspaces and the slopes
    compared as Fractions."""
    p = inst.h.field.p
    if list(pol.m_mult) != list(inst.m_mult) or list(pol.n_mult) != list(inst.n_mult):
        raise ValueError("polarization multiplicities do not match the instance")
    r = inst.h.r
    per_index = []
    total = 1
    for i in range(r):
        subs = []
        for d in range(0, inst.m_mult[i] + 1):
            subs.extend(enumerate_subspaces(p, inst.m_mult[i], d, budget=budget))
        per_index.append(subs)
        total *= len(subs)
        if total > budget:
            raise ValueError("subspace family enumeration budget exceeded")
    semistable, stable = True, True
    witness = None
    for combo in product(*per_index):
        dims_m = [sub.dim for sub in combo]
        bases = [sub.basis for sub in combo]
        images = reference_family_images(inst, fam, bases)
        if all(images[l].dim == inst.n_mult[l - 1]
               for l in range(1, inst.h.s + 1)):
            continue
        lhs = sum(lam * d for lam, d in zip(pol.lam, dims_m))
        rhs = sum(mu * images[l + 1].dim for l, mu in enumerate(pol.mu))
        if lhs > rhs:
            stable = False
            if semistable:
                semistable = False
                witness = (combo, images)
        elif lhs == rhs and any(d > 0 for d in dims_m):
            if stable:
                stable = False
                if witness is None:
                    witness = (combo, images)
    return StabilityVerdict(semistable, stable, witness)


def _moved(fam, change):
    """fam plus a change, a dict from block keys to changes of those
    blocks; the blocks that it does not name stay the same objects."""
    fam = dict(fam)
    for key, x in change.items():
        fam[key] = fam[key] + x
    return fam


def added_up(walk):
    """The translates of a walk of changes (as enumerate_unipotent_orbit
    yields it): its first family, then each change added to the
    translate before it."""
    walk = iter(walk)
    fam = next(walk)
    yield fam
    for change in walk:
        fam = _moved(fam, change)
        yield fam


def reference_orbit(inst, fam, budget=DEFAULT_BUDGET):
    """The unipotent orbit tuple by tuple: every parameter tuple over the
    prime field, in lexicographic order of the flat entries with the
    source parameters first, acted on the family by apply_unipotent
    afresh."""
    f = inst.h.field
    shapes, _ = _unipotent_parameters(inst, budget=budget)
    ranges = [product(range(f.p), repeat=rows * cols) for _, _, _, rows, cols in shapes]
    for combo in product(*ranges):
        yield apply_unipotent(inst, fam, {
            (src, a, b): ExactMatrix.from_flat(f, rows, cols, list(flat))
            for (src, a, b, rows, cols), flat in zip(shapes, combo)})


def reference_g(inst, fam, pol, budget=DEFAULT_BUDGET):
    """The G verdict as the reference walk: reference_gred at every
    translate of reference_orbit."""
    semistable, stable = True, True
    witness = None
    for moved in reference_orbit(inst, fam, budget=budget):
        v = reference_gred(inst, moved, pol, budget=budget)
        if not v.semistable and semistable:
            semistable = False
            witness = (moved, v.witness)
        if not v.stable:
            stable = False
            if witness is None:
                witness = (moved, v.witness)
        if not semistable and not stable:
            break
    return StabilityVerdict(semistable, stable, witness)


def radical_square_zero_hom_data(field, r, s, dims):
    """HomData on E_1 < .. < E_r < F_1 < .. < F_s in which every
    composite of two non-identity morphisms is 0 (an associative
    composition for any dims); dims maps (b, a) to dim Hom(a, b) for
    the objects a < b, written ("E", i) and ("F", l)."""
    def dim(b, a):
        return 1 if a == b else dims[(b, a)]

    def comp(c, b, a):
        shape = (dim(c, a), dim(c, b) * dim(b, a))
        return (ExactMatrix.identity(field, shape[0]) if a == b or b == c
                else ExactMatrix.zeros(field, *shape))

    return _on_chain(field, r, s, dim, comp)


def _hand_built_instance():
    """r = s = 2 over GF(3) with dim H_21 = 0, the one block image that
    no projective-space instance leaves empty."""
    E, F = "E", "F"
    h = radical_square_zero_hom_data(Field(3), 2, 2, {
        ((E, 2), (E, 1)): 1, ((F, 1), (E, 1)): 2, ((F, 1), (E, 2)): 1,
        ((F, 2), (E, 1)): 0, ((F, 2), (E, 2)): 2, ((F, 2), (F, 1)): 1})
    assert validate_hom_data(h).ok
    return build_theta_p(h, [1, 1], [1, 1], 0)


# (field p, e, f, m, n, walk G too): r in {1, 2, 3}, s in {1, 2}; the
# mid m=(2,2), n=(3) instance has families with two nonzero blocks, and
# at r = 3 a row of families (one M'_1) ranges over two other indices,
# with a 128-point walk over GF(2) that changes two blocks (3^7 points
# over GF(3), too many to walk); over GF(3), m = (2) has the blocks of a
# two-dimensional M_1, which a kept translate reads back from the images
# of its identity basis; the Gred cases over GF(5) and GF(65521) run the
# oracle on primes above 3, with image tables over the lines of M_i only
ORACLE_CASES = [
    (2, (-2, -1), (0,), (1, 1), (2,), True),
    (3, (-2, -1), (0,), (1, 1), (2,), True),
    (2, (-2, -1), (0,), (2, 2), (3,), False),
    (3, (-2, -1), (0, 1), (1, 1), (1, 1), True),
    (2, (-2, -1), (0, 1), (2, 1), (1, 2), False),
    (2, (-3, -1), (0,), (1, 2), (2,), True),
    (2, (-1,), (0,), (2,), (3,), True),
    (3, (-2,), (0, 1), (1,), (2, 1), True),
    (3, (-2,), (0, 1), (2,), (2, 1), True),
    (3, None, None, (1, 1), (1, 1), True),
    (2, (-3, -2, -1), (0,), (1, 1, 1), (3,), True),
    (3, (-3, -2, -1), (0,), (1, 1, 1), (3,), False),
    (5, (-2, -1), (0,), (2, 1), (2,), False),
    (65521, (-2, -1), (0,), (1, 1), (2,), False),
]


def reference_subspaces(q, n, d):
    """The canonical bases of the d-dimensional subspaces of GF(q)^n as
    dense matrices, written entry by entry: 1 at each pivot row and every
    value at each free position (below its pivot, in no pivot row), by
    pivot rows and then by the values at the free positions, column by
    column and top down, the first slowest."""
    field = Field(q)
    out = []
    for pivots in combinations(range(n), d):
        free = [(r, c) for c in range(d) for r in range(n)
                if r > pivots[c] and r not in pivots]
        for values in product(range(q), repeat=len(free)):
            B = ExactMatrix.zeros(field, n, d)
            for c, r in enumerate(pivots):
                B.data[r][c] = 1
            for (r, c), v in zip(free, values):
                B.data[r][c] = v
            out.append(B)
    return out


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_packed_subspace_lists_match_dense_reference(data):
    """A verdict's subspace lists (_subspace_lists) are the packed bases
    of exactfield.subspace_bases, dimension by dimension: each is the
    packed columns of the enumerate_subspaces entry at the same place,
    whose basis is reference_subspaces' dense one, and there are
    gaussian_binomial of them; indices with equal m_i share one list."""
    p = data.draw(st.sampled_from([2, 3, 5, 65521]))
    m_mult = data.draw(st.lists(st.integers(1, 2 if p == 65521 else 4), min_size=1, max_size=3))
    field = Field(p)
    pack = packing(field).pack_columns
    per_index = stability._subspace_lists(field, m_mult, 10 ** 15)
    for m, bases in dict(zip(m_mult, per_index)).items():
        at = 0
        for d in range(m + 1):
            subs = enumerate_subspaces(p, m, d)
            assert len(subs) == gaussian_binomial(p, m, d)
            assert [S.basis for S in subs] == reference_subspaces(p, m, d)
            packed = [tuple(pack(S.basis)) for S in subs]
            assert list(subspace_bases(field, m, d)) == packed
            assert bases[at:at + len(subs)] == packed
            at += len(subs)
        assert at == len(bases)
    assert all((a is b) == (m == k) for m, a in zip(m_mult, per_index)
               for k, b in zip(m_mult, per_index))


@lru_cache(maxsize=None)
def _oracle_instance(case):
    p, e, f, m, n, _ = case
    if e is None:
        return _hand_built_instance()
    h = projective_space_hom_data(Field(p), 1, list(e), list(f))
    return build_theta_p(h, list(m), list(n), 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gred_and_g_match_reference(data):
    case = data.draw(st.sampled_from(ORACLE_CASES))
    p, _, _, m, n, walk = case
    inst = _oracle_instance(case)
    h = inst.h
    # uniform entries, and about one block in four left 0
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    fam = {}
    for l in range(1, h.s + 1):
        for i in range(1, h.r + 1):
            rows, cols = n[l - 1], h.dimH[(l, i)] * m[i - 1]
            zero = data.draw(st.integers(0, 3)) == 0
            flat = [0 if zero else rng.randrange(p) for _ in range(rows * cols)]
            fam[(l, i)] = ExactMatrix.from_flat(h.field, rows, cols, flat)
    # weights a_i / sum(a_i m_i) and b_l / sum(b_l n_l)
    a = data.draw(st.lists(st.integers(1, 3), min_size=h.r, max_size=h.r))
    b = data.draw(st.lists(st.integers(1, 3), min_size=h.s, max_size=h.s))
    pol = Polarization(
        [Fraction(x, sum(y * k for y, k in zip(a, m))) for x in a],
        [Fraction(x, sum(y * k for y, k in zip(b, n))) for x in b], m, n)
    pairs = [(gred_semistable(inst, fam, pol), reference_gred(inst, fam, pol))]
    if walk:
        pairs.append((is_semistable_rs(inst, fam, pol, group="G"),
                      reference_g(inst, fam, pol)))
    for v, ref in pairs:
        assert (v.semistable, v.stable) == (ref.semistable, ref.stable)
        # the same Subspace combo, images dict and (for G) translate
        assert v.witness == ref.witness


def reference_walk(inst, translates, pol):
    """The verdict along a list of translates with nothing shared between
    them: reference_gred at each, stopping at the first that is not
    semistable, otherwise keeping the first that is not stable."""
    stable, kept = True, None
    for moved in translates:
        v = reference_gred(inst, moved, pol)
        if not v.stable and (kept is None or not v.semistable):
            kept = (moved, v.witness)
        if not v.semistable:
            return False, False, kept
        stable = stable and v.stable
    return True, stable, kept


# walks over the pool (A, B, a copy of A, A with one block changed, the
# zero family, A moved by GL(H), A with every block of N_1 redrawn, A
# with every block of N_l, l >= 2, redrawn, A with every block of M_i,
# i >= 2, redrawn) that the memo must see through: repeated,
# alternating, equal in value but distinct (an empty change), one block
# changed, zero blocks, other blocks with the same images as A, images
# that differ from A's in N_1 alone or in the N_l, l >= 2, alone, and
# the rows of A's families (one M'_1 each) with the same images at M'_1
# but other images of the other indices
MEMO_WALKS = [(0, 0), (0, 1, 0), (0, 2), (2, 0, 2), (0, 3), (3, 0, 3, 0),
              (4, 0), (0, 4, 0), (1, 3, 1), (0, 5), (5, 0, 1), (3, 5, 3), (1, 5, 0),
              (6, 0, 7), (7, 6, 0)]
# run by every example besides its drawn walk: a walk stops at its first
# unstable translate, so a memo hit on the second is seen only where the
# first is semistable
SPLIT_WALKS = [(0, 6), (6, 0), (0, 7), (7, 0), (0, 8), (8, 0)]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_verdict_memo_matches_memo_free_walk(data):
    """_verdict shares image tables, block images and the rows of
    families between the translates of a walk, which it is
    given as its first family and then the change to each next one; its
    verdict and witness, the kept translate included, equal
    reference_gred run afresh at every translate. A step between two
    pool entries is one change object however often the walk takes it,
    so a repeated step finds its table in the memo, as the steps of the
    orbit walk do. A with every block x_(l,i) moved to
    x_(l,i) (g (x) I_(m_i)), g invertible on H_li, has other blocks but
    the same images x_(l,i)(H_li (x) M'_i) as A, so every row of its
    families is looked up from A's. A with the blocks of
    N_1, or of every N_l with l >= 2, redrawn differs from A in those
    images alone, which a memo keyed by part of the image pattern would
    not see; A with the blocks of every M_i, i >= 2, redrawn has the rows
    of A's families with the same images of M'_1 and other images of the
    rest, which a row keyed by M'_1 alone would not see. Where the case
    walks G, the unipotent orbit of A is walked too."""
    case = data.draw(st.sampled_from(ORACLE_CASES))
    p, _, _, m, n, _ = case
    inst = _oracle_instance(case)
    h = inst.h
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    shapes = {(l, i): (n[l - 1], h.dimH[(l, i)] * m[i - 1])
              for l in range(1, h.s + 1) for i in range(1, h.r + 1)}

    def block(key, zero=False):
        rows, cols = shapes[key]
        return ExactMatrix.from_flat(h.field, rows, cols,
                                     [0 if zero else rng.randrange(p) for _ in range(rows * cols)])

    a = {k: block(k, zero=data.draw(st.integers(0, 3)) == 0) for k in shapes}
    b = {k: block(k) for k in shapes}
    changed = data.draw(st.sampled_from(sorted(shapes)))
    pool = [a, b, {k: ExactMatrix(h.field, x.data) for k, x in a.items()},
            {**a, changed: block(changed)},
            {k: block(k, zero=True) for k in shapes},
            {(l, i): x @ rnd_invertible(h.field, rng, h.dimH[(l, i)]).kron(
                ExactMatrix.identity(h.field, m[i - 1])) for (l, i), x in a.items()},
            {(l, i): block((l, i)) if l == 1 else x for (l, i), x in a.items()},
            {(l, i): x if l == 1 else block((l, i)) for (l, i), x in a.items()},
            {(l, i): x if i == 1 else block((l, i)) for (l, i), x in a.items()}]
    walk = data.draw(st.one_of(st.sampled_from(MEMO_WALKS),
                               st.lists(st.integers(0, 8), min_size=1, max_size=5)))
    weights = [data.draw(st.lists(st.integers(1, 3), min_size=len(d), max_size=len(d)))
               for d in (m, n)]
    pol = Polarization(*[[Fraction(x, sum(y * k for y, k in zip(w, d))) for x in w]
                         for w, d in zip(weights, (m, n))], m, n)
    steps = {}

    def changes(walk):
        yield pool[walk[0]]
        for a_k, b_k in zip(walk, walk[1:]):
            if (a_k, b_k) not in steps:
                steps[(a_k, b_k)] = stability._Change(
                    (k, pool[b_k][k] - x) for k, x in pool[a_k].items() if pool[b_k][k] != x)
            yield steps[(a_k, b_k)]

    for walk in [walk] + SPLIT_WALKS:
        assert (_instance_verdict(inst, changes(walk), pol, DEFAULT_BUDGET)
                == reference_walk(inst, [pool[k] for k in walk], pol)), walk
    if case[-1]:
        assert (_instance_verdict(inst, enumerate_unipotent_orbit(inst, a), pol, DEFAULT_BUDGET)
                == reference_walk(inst, reference_orbit(inst, a), pol))


def test_change_tables_live_as_long_as_their_changes(monkeypatch):
    """A verdict computes the image table of each change once and keeps
    it only while the walk holds the change. On P^1 e=(-2,-1) f=(0,1),
    m=(2,2), n=(1,1) over GF(2) the walk has 8 source and 2 target
    digits: each of its 255 source steps makes new target carry sums and
    a reset change, but at no translate does the memo hold the tables of
    more changes than 8 source carry sums, 2 target carry sums and one
    reset change, and once the walk is gone it holds none. Zero
    weights keep every translate semistable, so the walk goes to its
    end."""
    inst = _unipotent_instance(2, (1, (-2, -1), (0, 1)), (2, 2), (1, 1))
    h = inst.h
    rng = random.Random(23)
    fam = {(l, i): ExactMatrix.from_flat(h.field, 1, 2 * h.dimH[(l, i)],
                                         [rng.randrange(2) for _ in range(2 * h.dimH[(l, i)])])
           for l in (1, 2) for i in (1, 2)}
    held, memos = [], []
    core = stability._gred_core

    def counted(memo, change, mu):
        out = core(memo, change, mu)
        held.append(len(memo.changes))
        memos[:] = [memo]
        return out

    monkeypatch.setattr(stability, "_gred_core", counted)
    ss, _, _ = stability._verdict(h.field, enumerate_unipotent_orbit(inst, fam), h.dimH,
                                  inst.m_mult, inst.n_mult, [0, 0], [0, 0], DEFAULT_BUDGET)
    assert ss and len(held) == 2 ** 10
    assert 0 < max(held) <= 8 + 2 + 1
    assert not memos[0].changes


def test_each_change_table_is_computed_once(monkeypatch):
    """On P^1 e=(-2,-1) f=(0), m=(2,2), n=(3) over GF(2) the walk has 8
    source digits and no target digit, so its 255 steps are its 8 source
    carry sums, each changing the one block x_(1,1): a verdict computes
    the image tables of the 2 blocks of the family and of those 8
    changes, 10 in all, and no other."""
    inst = _oracle_instance(ORACLE_CASES[2])
    h = inst.h
    rng = random.Random(23)
    fam = {(1, i): ExactMatrix.from_flat(h.field, 3, 2 * h.dimH[(1, i)],
                                         [rng.randrange(2) for _ in range(6 * h.dimH[(1, i)])])
           for i in (1, 2)}
    tables = []
    table = stability._image_table

    def counted(*args):
        tables.append(args)
        return table(*args)

    monkeypatch.setattr(stability, "_image_table", counted)
    ss, _, _ = stability._verdict(h.field, enumerate_unipotent_orbit(inst, fam), h.dimH,
                                  inst.m_mult, inst.n_mult, [0, 0], [0], DEFAULT_BUDGET)
    assert ss and len(tables) == 2 + 8


def test_oracle_raises_as_before():
    """Each verdict raises the error it raised when every translate ran
    the full reductive oracle: the orbit's checks first, then the
    polarization's, then the subspace budget."""
    inst, pol = _ac5_instance()
    w = next(_all_points(inst))
    other = Polarization([Fraction(1, 3), Fraction(1, 3)], [Fraction(1, 3)],
                         [1, 2], [3])
    with pytest.raises(ValueError, match="unipotent orbit enumeration budget"):
        is_semistable_rs(inst, w, other, group="G", budget=3)
    with pytest.raises(ValueError, match="multiplicities do not match"):
        is_semistable_rs(inst, w, other, group="G")
    with pytest.raises(ValueError, match="multiplicities do not match"):
        gred_semistable(inst, w, other, budget=1)
    # r = 1: a unipotent orbit of one point and 5 subspace families
    kr = _oracle_instance(ORACLE_CASES[6])
    kpol = Polarization([Fraction(1, 2)], [Fraction(1, 3)], [2], [3])
    x = {(1, 1): ExactMatrix.zeros(F2, 3, 4)}
    for group in ("Gred", "G"):
        with pytest.raises(ValueError, match="subspace family enumeration budget"):
            is_semistable_rs(kr, x, kpol, group=group, budget=4)
        assert not is_semistable_rs(kr, x, kpol, group=group, budget=5).semistable
    h = projective_space_hom_data(Field(), 1, [-2, -1], [0])
    qq = build_theta_p(h, [1, 1], [2], 0)
    for group in ("Gred", "G"):
        with pytest.raises(ValueError, match="prime field"):
            is_semistable_rs(qq, qq.family_from_point(MorphismPoint.zero(qq.theta)),
                             other, group=group)


@pytest.mark.parametrize("p", [None, 3])
def test_apply_unipotent_is_an_action(p):
    """Over QQ (where no orbit walk goes) and GF(3): with r = s = 2 the
    off-diagonal blocks commute and square to 0, so acting by U and then
    by U' is acting by U + U', and -U undoes U."""
    f = Field(p)
    h = projective_space_hom_data(f, 1, [-2, -1], [0, 1])
    inst = build_theta_p(h, [2, 1], [1, 2], 0)
    rng = random.Random(57)

    def rnd(rows, cols):
        return ExactMatrix(f, [[f.of(rng.randint(-2, 2)) for _ in range(cols)]
                               for _ in range(rows)])

    fam = {(l, i): rnd(inst.n_mult[l - 1], h.dimH[(l, i)] * inst.m_mult[i - 1])
           for l in (1, 2) for i in (1, 2)}
    shapes = {(True, 2, 1): (h.dimA[(2, 1)] * 1, 2),
              (False, 2, 1): (h.dimB[(2, 1)] * 2, 1)}
    u = {k: rnd(*shape) for k, shape in shapes.items()}
    u2 = {k: rnd(*shape) for k, shape in shapes.items()}
    once = apply_unipotent(inst, fam, u)
    assert once != fam
    for x in once.values():
        assert has_canonical_scalars(x)
    twice = apply_unipotent(inst, once, u2)
    assert twice == apply_unipotent(inst, fam, {k: u[k] + u2[k] for k in u})
    assert apply_unipotent(inst, once, {k: -x for k, x in u.items()}) == fam


# -- the unipotent action against its per-scalar reference ---------------

def reference_apply_unipotent(inst, fam, params):
    """The unipotent action entry by entry: every product of a
    composition coefficient, a parameter entry and a family entry is
    accumulated unreduced and reduced mod p at the end; the target side
    reads the source-updated family."""
    h = inst.h
    p = h.field.p
    m = lambda i: inst.m_mult[i - 1]
    n = lambda l: inst.n_mult[l - 1]

    def copy(mats):
        if p is None:
            return {k: v._new(v.copy_data(), v.cols) for k, v in mats.items()}
        return {k: v._new([[x % p for x in row] for row in v.data], v.cols)
                for k, v in mats.items()}

    out = copy(fam)
    for (source, j, i), U in params.items():
        if not source:
            continue
        da = h.dimA[(j, i)]
        for l in range(1, h.s + 1):
            comp = h.comp_HA[(l, j, i)]
            dli, dlj = h.dimH[(l, i)], h.dimH[(l, j)]
            x_lj = fam[(l, j)].data
            tgt = out[(l, i)].data
            for hp in range(dlj):
                for alpha in range(da):
                    for hh in range(dli):
                        c = comp.data[hh][hp * da + alpha]
                        for tj in range(m(j)):
                            for ti in range(m(i)):
                                cu = c * U.data[alpha * m(j) + tj][ti]
                                for v in range(n(l)):
                                    tgt[v][hh * m(i) + ti] += cu * x_lj[v][hp * m(j) + tj]
    mid = copy(out)
    for (source, mm, l), V in params.items():
        if source:
            continue
        db = h.dimB[(mm, l)]
        for i in range(1, h.r + 1):
            comp = h.comp_BH[(mm, l, i)]
            dli, dmi = h.dimH[(l, i)], h.dimH[(mm, i)]
            x_li = mid[(l, i)].data
            tgt = out[(mm, i)].data
            for beta in range(db):
                for hh in range(dli):
                    for hpp in range(dmi):
                        c = comp.data[hpp][beta * dli + hh]
                        for vm in range(n(mm)):
                            for vl in range(n(l)):
                                cu = c * V.data[beta * n(mm) + vm][vl]
                                for t in range(m(i)):
                                    tgt[vm][hpp * m(i) + t] += cu * x_li[vl][hh * m(i) + t]
    return copy(out)


# (n, e, f) of the projective-space hom systems: r = 3 has A_31 blocks,
# s = 2 has target-side blocks and the cross term, and with s = 3 the
# target side must read x_(2,i) before v_(2,1) has acted on it
UNIPOTENT_SYSTEMS = [
    (1, (-2, -1), (0,)),
    (1, (-2, -1), (0, 1)),
    (1, (-3, -2, -1), (0,)),
    (1, (-3, -2, -1), (0, 1)),
    (2, (-2, -1), (0,)),
    (2, (-2, -1), (0, 1)),
    (1, (-2, -1), (0, 1, 2)),
]


@lru_cache(maxsize=None)
def _unipotent_instance(p, system, m, n, q=0):
    dim, e, f = system
    h = projective_space_hom_data(Field(p), dim, list(e), list(f))
    return build_theta_p(h, list(m), list(n), q)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_apply_unipotent_matches_reference(data):
    """apply_unipotent equals the per-scalar reference, matrix for matrix,
    with every entry in its one form, for any subset of parameter blocks
    (none included)."""
    p = data.draw(st.sampled_from([None, 2, 3]))
    system = data.draw(st.sampled_from(UNIPOTENT_SYSTEMS))
    r, s = len(system[1]), len(system[2])
    m = tuple(data.draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)))
    n = tuple(data.draw(st.lists(st.integers(1, 3), min_size=s, max_size=s)))
    inst = _unipotent_instance(p, system, m, n)
    h, f = inst.h, inst.h.field
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))

    def rnd(rows, cols):
        # over QQ with denominators, over GF(p) ints outside 0..p-1
        den = 1 if p else rng.randint(1, 3)
        return ExactMatrix(f, [[Fraction(rng.randint(-3, 3), den) if den > 1
                                else rng.randint(-3, 3) for _ in range(cols)]
                               for _ in range(rows)])

    fam = {(l, i): rnd(n[l - 1], h.dimH[(l, i)] * m[i - 1])
           for l in range(1, s + 1) for i in range(1, r + 1)}
    shapes = {(True, j, i): (h.dimA[(j, i)] * m[j - 1], m[i - 1])
              for i in range(1, r + 1) for j in range(i + 1, r + 1)}
    shapes.update({(False, mm, l): (h.dimB[(mm, l)] * n[mm - 1], n[l - 1])
                   for l in range(1, s + 1) for mm in range(l + 1, s + 1)})
    keys = data.draw(st.lists(st.sampled_from(sorted(shapes)), unique=True))
    params = {k: rnd(*shapes[k]) for k in keys}
    out = apply_unipotent(inst, fam, params)
    assert out == reference_apply_unipotent(inst, fam, params)
    assert all(has_canonical_scalars(x) for x in out.values())


# -- the orbit walk against its tuple-by-tuple reference -----------------

# (field p, (n, e, f) or None for _hand_built_instance, m, n, p of the
# instance): source parameters only, target parameters only, and both
# with the cross term, for r = 1 to 3 and s = 1 to 3, over GF(2), GF(3)
# and GF(5); orbits of 9 to 729 points
WALK_CASES = [
    (2, (1, (-2, -1), (0,)), (2, 2), (2,), 1),
    (2, (1, (-2,), (0, 1)), (1,), (1, 2), 0),
    (2, (1, (-2, -1), (0, 1)), (1, 2), (1, 2), 1),
    (2, (1, (-2, -1), (0, 1)), (2, 1), (1, 1), 0),
    (2, (1, (-3, -2, -1), (0,)), (1, 1, 1), (1,), 1),
    (2, (1, (-2, -1), (0, 1, 2)), (1, 1), (1, 1, 1), 0),
    (3, (1, (-2, -1), (0,)), (1, 2), (1,), 1),
    (3, (1, (-2,), (0, 1)), (2,), (2, 1), 0),
    (3, (1, (-2, -1), (0, 1)), (1, 1), (1, 1), 1),
    (3, (1, (-2, -1), (0, 1)), (1, 1), (1, 2), 0),
    (3, None, (1, 1), (1, 1), 0),
    (5, (1, (-2, -1), (0,)), (1, 1), (2,), 0),
    (5, (1, (-2,), (0, 1)), (1,), (1, 1), 0),
    (5, (1, (-2, -1), (0, 1)), (1, 1), (1, 1), 1),
]


def _walk_instance(case):
    p, system, m, n, q = case
    return (_hand_built_instance() if system is None
            else _unipotent_instance(p, system, m, n, q))


def _walk_kind(inst):
    """Which kinds of unipotent parameters inst has: "source", "target"
    or "both"."""
    shapes, _ = _unipotent_parameters(inst)
    has = {src for src, _, _, rows, cols in shapes if rows * cols}
    return "both" if len(has) == 2 else "source" if True in has else "target"


def _random_family(inst, data):
    """A family of uniform blocks, about one in four left 0, so that
    some unit parameters change nothing."""
    h, p = inst.h, inst.h.field.p
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    fam = {}
    for l in range(1, h.s + 1):
        for i in range(1, h.r + 1):
            rows, cols = inst.n_mult[l - 1], h.dimH[(l, i)] * inst.m_mult[i - 1]
            zero = data.draw(st.integers(0, 3)) == 0
            fam[(l, i)] = ExactMatrix.from_flat(
                h.field, rows, cols, [0 if zero else rng.randrange(p) for _ in range(rows * cols)])
    return fam


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_orbit_walk_matches_reference_orbit(data):
    """enumerate_unipotent_orbit walks the orbit by carry sums; its
    changes, added up with _moved, give the translates of
    reference_orbit (one apply_unipotent per parameter tuple), translate
    for translate and in the same order, with every entry in its one
    form."""
    case = data.draw(st.sampled_from(WALK_CASES))
    inst = _walk_instance(case)
    fam = _random_family(inst, data)
    walk = list(added_up(enumerate_unipotent_orbit(inst, fam)))
    want = list(reference_orbit(inst, fam))
    assert len(walk) == len(want) == case[0] ** _unipotent_parameters(inst)[1]
    for k, (moved, ref) in enumerate(zip(walk, want)):
        assert moved == ref, k
        assert all(has_canonical_scalars(x) for x in moved.values())


@lru_cache(maxsize=None)
def _duality_cases():
    """(instance, its transpose, whether to walk G) for every case of
    ORACLE_CASES and WALK_CASES whose transpose has an instance at cut 0
    (transposed_family), all but the GF(3) walk of m=(1,2), n=(1), whose
    transpose would have n'_1 = 2 = dim N2'; and but GF(65521), whose
    transposed Gred verdict scans the 65 524 subspaces of GF(65521)^2,
    about 2 s a draw."""
    out = []
    for inst, walk in ([(_oracle_instance(case), case[-1]) for case in ORACLE_CASES
                        if case[0] != 65521]
                       + [(_walk_instance(case), True) for case in WALK_CASES]):
        try:
            out.append((inst, transposed_family(inst, {})[0], walk))
        except ValueError:
            pass
    assert len(out) == len(ORACLE_CASES) + len(WALK_CASES) - 2
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_transposed_point_has_the_same_verdict(data):
    """King's duality: a family x and its transpose x^T
    (transposed_family) get the same (semistable, stable) under pol and
    pol.transpose(), for Gred and, where the case walks, for G. Each side
    records the first family in its own order, so witnesses are not
    compared. The transpose of an s = 1 instance has r = 1, so its G walk
    has target units only where x's has source units only: each side of
    the walk is checked against the other."""
    inst, inst_t, walk = data.draw(st.sampled_from(_duality_cases()))
    m, n = inst.m_mult, inst.n_mult
    fam = _random_family(inst, data)
    _, fam_t = transposed_family(inst, fam)
    weights = [data.draw(st.lists(st.integers(1, 3), min_size=len(d), max_size=len(d)))
               for d in (m, n)]
    pol = Polarization(*[[Fraction(x, sum(y * k for y, k in zip(w, d))) for x in w]
                         for w, d in zip(weights, (m, n))], m, n)
    for group in ("Gred", "G") if walk else ("Gred",):
        v = is_semistable_rs(inst, fam, pol, group=group)
        v_t = is_semistable_rs(inst_t, fam_t, pol.transpose(), group=group)
        assert (v.semistable, v.stable) == (v_t.semistable, v_t.stable), group


@pytest.mark.parametrize("kind", ["source", "target", "both"])
@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_orbit_changes_are_the_steps_of_reference_orbit(p, kind, data):
    """The walk is the family, then for each next translate of
    reference_orbit its change from the one before: exactly the blocks
    that change, each with its nonzero change, so that added up with
    _moved the changes give reference_orbit translate by translate. With
    both kinds of parameters the walk of the target digits is left at
    every multiple of p^(target digits), where a source digit rises and
    every target digit goes from p - 1 back to 0; those reset steps are
    checked the same way."""
    cases = [case for case in WALK_CASES
             if case[0] == p and _walk_kind(_walk_instance(case)) == kind]
    inst = _walk_instance(data.draw(st.sampled_from(cases)))
    fam = _random_family(inst, data)
    walk = enumerate_unipotent_orbit(inst, fam)
    assert next(walk) is fam
    changes = list(walk)
    want = list(reference_orbit(inst, fam))
    assert len(changes) == len(want) - 1
    for k, (change, before, after) in enumerate(zip(changes, want, want[1:]), 1):
        assert change == {key: after[key] - x for key, x in before.items()
                          if after[key] != x}, k
    assert list(added_up([fam] + changes)) == want


def test_target_carry_sums_follow_the_source_steps(monkeypatch):
    """The target carry sums are built once at the family and once on
    each source carry sum, not again at every point of the source walk:
    a walk makes at most |source units| * |target units| + |units|
    unit changes (_unit_change), and no call of apply_unipotent. On P^1
    e=(-2,-1) f=(0,1), m=(2,2), n=(1,1) over GF(2) there are 8 source
    and 2 target units, and the orbit has 2^10 points."""
    inst = _unipotent_instance(2, (1, (-2, -1), (0, 1)), (2, 2), (1, 1))
    h = inst.h
    rng = random.Random(21)
    fam = {(l, i): ExactMatrix.from_flat(h.field, 1, 2 * h.dimH[(l, i)],
                                         [rng.randrange(2) for _ in range(2 * h.dimH[(l, i)])])
           for l in (1, 2) for i in (1, 2)}
    sizes = {src: sum(rows * cols for s, _, _, rows, cols in _unipotent_parameters(inst)[0]
                      if s == src) for src in (True, False)}
    assert sizes == {True: 8, False: 2}
    calls = {"_unit_change": [], "apply_unipotent": []}

    def counted(name):
        action = getattr(stability, name)

        def call(*args):
            calls[name].append(args)
            return action(*args)
        return call

    for name in calls:
        monkeypatch.setattr(stability, name, counted(name))
    assert sum(1 for _ in enumerate_unipotent_orbit(inst, fam)) == 2 ** 10
    bound = sizes[True] * sizes[False] + sizes[True] + sizes[False]
    assert 0 < len(calls["_unit_change"]) <= bound
    assert calls["apply_unipotent"] == []


# psi2 of a Gred-unstable point of P^1 e=(-2,-1) f=(0), m=(2,3), n=(4)
# over GF(2) under lam = (1/5, 1/5), mu = (1/4): perfbench's B_UNSTABLE,
# pinned through the console script in CI
B_UNSTABLE = "001101001101100111100000101110100111110001001010"


def test_carry_sums_wait_for_the_first_step(monkeypatch):
    """The walk builds its carry sums when it takes its first step. A G
    verdict on the Gred-unstable point B_UNSTABLE stops at its first
    translate and makes no unit change (_unit_change); a walk that goes
    to its end makes one per unit of each carry sum, |source| +
    |source| * |target| + |target| = 8 + 16 + 2 on P^1 e=(-2,-1) f=(0,1),
    m=(2,2), n=(1,1), where zero weights keep every translate
    semistable."""
    calls = []
    unit_change = stability._unit_change
    monkeypatch.setattr(stability, "_unit_change",
                        lambda *args: calls.append(args) or unit_change(*args))
    inst = _unipotent_instance(2, (1, (-2, -1), (0,)), (2, 3), (4,))
    t = inst.theta
    w = MorphismPoint(t, ExactMatrix.zeros(F2, 0, 4),
                      ExactMatrix.from_flat(F2, 12, 4, [int(c) for c in B_UNSTABLE]),
                      ExactMatrix.zeros(F2, 0, 1), ExactMatrix.zeros(F2, 0, 1))
    pol = Polarization([Fraction(1, 5)] * 2, [Fraction(1, 4)], [2, 3], [4])
    assert not is_semistable_rs(inst, w, pol, group="Gred").semistable
    assert not is_semistable_rs(inst, w, pol, group="G").semistable
    assert calls == []
    inst = _unipotent_instance(2, (1, (-2, -1), (0, 1)), (2, 2), (1, 1))
    h = inst.h
    rng = random.Random(21)
    fam = {(l, i): ExactMatrix.from_flat(h.field, 1, 2 * h.dimH[(l, i)],
                                         [rng.randrange(2) for _ in range(2 * h.dimH[(l, i)])])
           for l in (1, 2) for i in (1, 2)}
    ss, _, _ = stability._verdict(h.field, enumerate_unipotent_orbit(inst, fam), h.dimH,
                                  inst.m_mult, inst.n_mult, [0, 0], [0, 0], DEFAULT_BUDGET)
    assert ss and len(calls) == 8 + 8 * 2 + 2


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_unit_changes_are_the_changes_of_apply_unipotent(data):
    """The change that one unit parameter makes, read off the composition
    tensors by _unit_change, is apply_unipotent of that unit minus the
    family: the same blocks, each change nonzero and in its one form,
    over QQ and GF(2), GF(3) and GF(5), on every unipotent system and
    for every unit of a drawn block."""
    p = data.draw(st.sampled_from([None, 2, 3, 5]))
    system = data.draw(st.sampled_from(UNIPOTENT_SYSTEMS))
    r, s = len(system[1]), len(system[2])
    m = tuple(data.draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)))
    n = tuple(data.draw(st.lists(st.integers(1, 3), min_size=s, max_size=s)))
    inst = _unipotent_instance(p, system, m, n)
    h, f = inst.h, inst.h.field
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    fam = {(l, i): ExactMatrix(f, [[rng.randint(-3, 3) for _ in range(h.dimH[(l, i)] * m[i - 1])]
                                   for _ in range(n[l - 1])])
           for l in range(1, s + 1) for i in range(1, r + 1)}
    shapes = {(True, j, i): (h.dimA[(j, i)] * m[j - 1], m[i - 1])
              for i in range(1, r + 1) for j in range(i + 1, r + 1)}
    shapes.update({(False, mm, l): (h.dimB[(mm, l)] * n[mm - 1], n[l - 1])
                   for l in range(1, s + 1) for mm in range(l + 1, s + 1)})
    key = data.draw(st.sampled_from(sorted(k for k, (rows, cols) in shapes.items()
                                           if rows * cols)))
    rows, cols = shapes[key]
    for entry in range(rows * cols):
        unit = ExactMatrix.zeros(f, rows, cols)
        unit.data[entry // cols][entry % cols] = 1
        moved = apply_unipotent(inst, fam, {key: unit})
        change = stability._unit_change(inst, fam, key, rows, cols, entry)
        assert change == {k: x - fam[k] for k, x in moved.items() if x != fam[k]}, entry
        assert all(has_canonical_scalars(x) for x in change.values())


def test_equal_spans_share_an_image_key(monkeypatch):
    """A verdict's memo reads each image once per tuple of generators, and
    keys it by its echelon basis: on P^1 e=(-2,-1) f=(0), m=(1,1), n=(2)
    over GF(2), the blocks x_(1,1) with columns (e_1, e_2, 0) and
    (e_1, e_1 + e_2, 0) give M_1 different generators with the span
    GF(2)^2, which get the same key, and setting a table again reads no
    image afresh."""
    inst = _oracle_instance(ORACLE_CASES[0])
    h = inst.h
    per_index = stability._subspace_lists(h.field, inst.m_mult, DEFAULT_BUDGET)
    memo = stability._WalkMemo(h.field, per_index, h.dimH, inst.m_mult, inst.n_mult, [1, 1])
    echelons = []
    echelon = memo.ops.echelon

    def counted(vectors):
        echelons.append(vectors)
        return echelon(vectors)

    monkeypatch.setattr(memo.ops, "echelon", counted)
    keys = []
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 1, 0]]):
        stability._set_table(memo, (1, 1), stability._image_table(
            memo, (1, 1), ExactMatrix(h.field, rows)))
        keys.append(memo.images[0][0])
    gens = [vectors for vectors in echelons if len(vectors) == 3]
    assert len(gens) == 2 and gens[0] != gens[1]
    assert keys[0][-1] == keys[1][-1]
    assert memo.images[0][0][-1] == memo.ops.echelon(gens[0])
    seen = len(echelons)
    stability._set_table(memo, (1, 1), memo.tables[(1, 1)])
    assert len(echelons) == seen and memo.images[0][0] == keys[1]
