"""Semistability oracles: Kronecker modules, two-tier families, the
unipotent orbit, and the mutation comparison."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mutation_forge.exactfield import (ExactMatrix, Field, Subspace,
                                       enumerate_subspaces, image_subspace)
from mutation_forge.theta import MorphismPoint, in_W0
from mutation_forge.homdata import (HomData, Polarization, build_theta_p,
                                    projective_space_hom_data,
                                    validate_hom_data)
from mutation_forge.stability import (DEFAULT_BUDGET, KroneckerModule,
                                      StabilityVerdict, _instance_verdict,
                                      apply_unipotent,
                                      compare_hypotheses, compare_stability,
                                      enumerate_unipotent_orbit,
                                      gred_semistable, is_semistable_rs,
                                      kronecker_mutate,
                                      kronecker_orbit_equivalent,
                                      kronecker_semistable,
                                      unstable_outside_w0_bound)

F2 = Field(2)


def _all_f(field, rows, cols):
    p = field.p
    for bits in product(range(p), repeat=rows * cols):
        yield ExactMatrix.from_flat(field, rows, cols, list(bits))


def test_kronecker_requires_finite_field():
    f = ExactMatrix.zeros(Field(), 1, 2)
    with pytest.raises(ValueError):
        kronecker_semistable(KroneckerModule(Field(), 2, 1, 1, f))


def test_kronecker_semistable_rank_one():
    for flat in ([1, 0], [0, 1], [1, 1]):
        f = ExactMatrix.from_flat(F2, 1, 2, flat)
        k = KroneckerModule(F2, 2, 1, 1, f)
        v = kronecker_semistable(k)
        assert v.semistable
    z = KroneckerModule(F2, 2, 1, 1, ExactMatrix.zeros(F2, 1, 2))
    assert not kronecker_semistable(z).semistable


def test_kronecker_mutate_dims():
    f = ExactMatrix.from_flat(F2, 1, 2, [1, 0])
    k = KroneckerModule(F2, 2, 1, 1, f)
    a = kronecker_mutate(k)
    assert (a.q, a.m, a.n) == (2, 1, 1)
    assert (a.f.rows, a.f.cols) == (1, 2)


def test_kronecker_double_mutation_orbit_sample():
    count = 0
    for f in _all_f(F2, 2, 4):
        k = KroneckerModule(F2, 2, 2, 2, f)
        if f.rank() < 2:
            continue
        a = kronecker_mutate(k)
        aa = kronecker_mutate(a)
        assert kronecker_orbit_equivalent(k, aa)
        assert (kronecker_semistable(k).semistable
                == kronecker_semistable(a).semistable)
        count += 1
    assert count > 0


def test_kronecker_matches_two_tier_reduction():
    h = projective_space_hom_data(F2, 1, [-1], [0])   # q = 2
    q = h.dimH[(1, 1)]
    assert q == 2
    rng = random.Random(50)
    for (m, n) in ((1, 1), (2, 2), (2, 3)):
        if not 1 <= n < q * m:
            continue
        inst = build_theta_p(h, [m], [n], 0)
        pol = Polarization([Fraction(1, m)], [Fraction(1, n)], [m], [n])
        for _ in range(20):
            flat = [rng.randint(0, 1) for _ in range(n * q * m)]
            f = ExactMatrix.from_flat(F2, n, q * m, flat)
            k = KroneckerModule(F2, q, m, n, f)
            fam = {(1, 1): f}
            vk = kronecker_semistable(k)
            vg = gred_semistable(inst, fam, pol)
            assert vk.semistable == vg.semistable, flat
            assert vk.stable == vg.stable, flat
            assert vk.witness == vg.witness, flat


# -- the Kronecker oracle against its own slope loop ---------------------

def reference_kronecker_semistable(k, budget=DEFAULT_BUDGET):
    """The slope test as a loop of its own: for every nonzero subspace M'
    of M, N' = f(L (x) M') as an image Subspace; the witness (M', N') is
    the first family that violates the slope, none is recorded when the
    slope is only attained."""
    p = k.field.p
    semistable, stable = True, True
    witness = None
    for d in range(1, k.m + 1):
        for sub in enumerate_subspaces(p, k.m, d, budget=budget):
            img = image_subspace(k.f.apply_leg([k.q, k.m], 1, sub.basis))
            dn = img.dim
            if k.m * dn < k.n * d:
                stable = False
                if semistable:
                    semistable = False
                    witness = (sub, img)
            elif k.m * dn == k.n * d and (d, dn) != (k.m, k.n):
                stable = False
    return StabilityVerdict(semistable, stable, witness)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kronecker_matches_reference(data):
    p = data.draw(st.sampled_from([2, 3]))
    q, m, n = (data.draw(st.integers(1, 3)) for _ in range(3))
    f = ExactMatrix.from_flat(Field(p), n, q * m, data.draw(
        st.lists(st.integers(0, p - 1), min_size=n * q * m, max_size=n * q * m)))
    k = KroneckerModule(Field(p), q, m, n, f)
    v, ref = kronecker_semistable(k), reference_kronecker_semistable(k)
    assert (v.semistable, v.stable) == (ref.semistable, ref.stable)
    if not v.semistable:
        sub, img = ref.witness
        assert v.witness == ((sub,), {1: img})
    elif v.stable:
        assert v.witness is None


def test_kronecker_records_the_family_that_attains_the_slope():
    """A semistable module that is not stable records a nonzero M' with
    m * dim N' = n * dim M' (N' = f(L (x) M') proper)."""
    seen = 0
    for f in _all_f(F2, 2, 4):
        k = KroneckerModule(F2, 2, 2, 2, f)
        v = kronecker_semistable(k)
        if v.semistable and not v.stable:
            (sub,), images = v.witness
            assert sub.dim > 0 and images[1].dim < k.n
            assert k.m * images[1].dim == k.n * sub.dim
            assert images[1] == image_subspace(f.apply_leg([2, 2], 1, sub.basis))
            seen += 1
    assert seen > 0


def test_kronecker_rejects_n_zero():
    with pytest.raises(ValueError, match="must be positive"):
        KroneckerModule(F2, 2, 2, 0, ExactMatrix.zeros(F2, 0, 4))


def test_kronecker_budget_counts_all_subspaces():
    """GF(2)^2 has 5 subspaces (1 + 3 + 1), counted together."""
    k = KroneckerModule(F2, 2, 2, 1, ExactMatrix.zeros(F2, 1, 4))
    with pytest.raises(ValueError, match="subspace family enumeration budget"):
        kronecker_semistable(k, budget=4)
    assert not kronecker_semistable(k, budget=5).semistable


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
                        if not nsub.contains(img):
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
    orbit = list(enumerate_unipotent_orbit(inst, fam))
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


def test_points_outside_w0_unstable_under_slope_bound():
    inst, pol = _ac5_instance()
    assert unstable_outside_w0_bound(pol, inst.p)
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
        span = Subspace.zero(f, inst.n_mult[l - 1])
        for i in range(1, inst.h.r + 1):
            basis = bases[i - 1]
            if basis.cols == 0:
                continue
            dh = inst.h.dimH[(l, i)]
            if dh == 0:
                continue
            blk = fam[(l, i)] @ ExactMatrix.identity(f, dh).kron(basis)
            span = span.sum(image_subspace(blk))
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


def reference_g(inst, fam, pol, budget=DEFAULT_BUDGET):
    """The G verdict as the reference walk: reference_gred at every
    unipotent translate."""
    semistable, stable = True, True
    witness = None
    for moved in enumerate_unipotent_orbit(inst, fam, budget=budget):
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
    objs = [("E", i) for i in range(1, r + 1)] + [("F", l) for l in range(1, s + 1)]

    def dim(b, a):
        return 1 if a == b else dims[(b, a)]

    tables = {"EE": {}, "FE": {}, "FF": {}}
    comps = {"EEE": {}, "FEE": {}, "FFE": {}, "FFF": {}}
    for ia, a in enumerate(objs):
        for ib, b in enumerate(objs[ia:], ia):
            tables[b[0] + a[0]][(b[1], a[1])] = dim(b, a)
            for c in objs[ib:]:
                shape = (dim(c, a), dim(c, b) * dim(b, a))
                comps[c[0] + b[0] + a[0]][(c[1], b[1], a[1])] = (
                    ExactMatrix.identity(field, shape[0]) if a == b or b == c
                    else ExactMatrix.zeros(field, *shape))
    return HomData(field, r, s, tables["FE"], tables["EE"], tables["FF"],
                   comps["FEE"], comps["FFE"], comps["EEE"], comps["FFF"])


def _hand_built_instance():
    """r = s = 2 over GF(3) with dim H_21 = 0, the one block image that
    no projective-space instance leaves empty."""
    E, F = "E", "F"
    h = radical_square_zero_hom_data(Field(3), 2, 2, {
        ((E, 2), (E, 1)): 1, ((F, 1), (E, 1)): 2, ((F, 1), (E, 2)): 1,
        ((F, 2), (E, 1)): 0, ((F, 2), (E, 2)): 2, ((F, 2), (F, 1)): 1})
    assert validate_hom_data(h).ok
    return build_theta_p(h, [1, 1], [1, 1], 0)


# (field p, e, f, m, n, walk G too): r and s in {1, 2}; the mid
# m=(2,2), n=(3) instance has families with two nonzero blocks
ORACLE_CASES = [
    (2, (-2, -1), (0,), (1, 1), (2,), True),
    (3, (-2, -1), (0,), (1, 1), (2,), True),
    (2, (-2, -1), (0,), (2, 2), (3,), False),
    (3, (-2, -1), (0, 1), (1, 1), (1, 1), True),
    (2, (-2, -1), (0, 1), (2, 1), (1, 2), False),
    (2, (-3, -1), (0,), (1, 2), (2,), True),
    (2, (-1,), (0,), (2,), (3,), True),
    (3, (-2,), (0, 1), (1,), (2, 1), True),
    (3, None, None, (1, 1), (1, 1), True),
]


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
# zero family) that the memo must see through: repeated, alternating,
# equal in value but distinct, one block changed, zero blocks
MEMO_WALKS = [(0, 0), (0, 1, 0), (0, 2), (2, 0, 2), (0, 3), (3, 0, 3, 0),
              (4, 0), (0, 4, 0), (1, 3, 1)]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_verdict_memo_matches_memo_free_walk(data):
    """_verdict shares block images and span dimensions between the
    translates of a walk; its verdict and witness equal reference_gred
    run afresh at every translate."""
    case = data.draw(st.sampled_from(ORACLE_CASES))   # GF(2) and GF(3)
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
            {k: block(k, zero=True) for k in shapes}]
    walk = data.draw(st.one_of(st.sampled_from(MEMO_WALKS),
                               st.lists(st.integers(0, 4), min_size=1, max_size=5)))
    weights = [data.draw(st.lists(st.integers(1, 3), min_size=len(d), max_size=len(d)))
               for d in (m, n)]
    pol = Polarization(*[[Fraction(x, sum(y * k for y, k in zip(w, d))) for x in w]
                         for w, d in zip(weights, (m, n))], m, n)
    translates = [pool[k] for k in walk]
    assert (_instance_verdict(inst, translates, pol, DEFAULT_BUDGET)
            == reference_walk(inst, translates, pol))


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
        assert all(isinstance(a, Fraction) if p is None else 0 <= a < p
                   for row in x.data for a in row)
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
def _unipotent_instance(p, system, m, n):
    dim, e, f = system
    h = projective_space_hom_data(Field(p), dim, list(e), list(f))
    return build_theta_p(h, list(m), list(n), 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_apply_unipotent_matches_reference(data):
    """apply_unipotent equals the per-scalar reference, matrix for matrix
    and entry type for entry type, for any subset of parameter blocks
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
    for x in out.values():
        assert all(type(a) is Fraction if p is None else type(a) is int and 0 <= a < p
                   for row in x.data for a in row)
