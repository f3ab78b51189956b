"""Acceptance gate: exact property checks and frozen worked values.

Every comparison is exact rational or finite-field equality; there are
no tolerances anywhere in this file.
"""

import random
import time
from fractions import Fraction
from itertools import product

from mutation_forge.exactfield import ExactMatrix, Field
from mutation_forge.theta import (POINT, GroupElement, MorphismPoint, in_W0,
                                  part_shape, validate_theta)
from mutation_forge.mutation import (build_dual, chart_choice,
                                     choice_transport, default_choice,
                                     double_dual_report, involution_report,
                                     mutate, transport_report)
from mutation_forge.theta import act, chart_for_point
from mutation_forge.homdata import (Polarization, build_theta_p,
                                    dual_point_to_mutated,
                                    instance_left_element,
                                    instance_right_element, map_polarization,
                                    mutated_instance,
                                    projective_space_hom_data)
from mutation_forge.stability import (_unipotent_parameters,
                                      compare_hypotheses, compare_stability,
                                      is_semistable_rs)
from mutation_forge.constants import (c_formula, c_tau_search, delta, sigma0,
                                      sigma1, witness_subspace)
from mutation_forge.thresholds import (ThresholdInput, ex1_data,
                                       singular_values_ex1,
                                       singular_values_ex2,
                                       thm64_matches_thm59)
from mutation_forge.cli import main as cli_main
from conftest import (assert_double_mutation_returns, dual_of,
                      full_p1_instance, kronecker_instance, pn_grid, pn_hom,
                      pn_instance, rnd_invertible, rnd_matrix, random_w0_point,
                      theta_pool)

QQ = Field()
F2 = Field(2)


# -- criterion 1: double mutation is the sign involution ---------------

def test_criterion_01_involution():
    rng = random.Random(101)
    pool = theta_pool(102, 50)
    cache = {}
    start = time.monotonic()
    count = 0
    for t in pool:
        if id(t) not in cache:
            dual = build_dual(t)
            cache[id(t)] = (dual, build_dual(dual.prime))
        dual, ddual = cache[id(t)]
        for _ in range(4):
            w = random_w0_point(t, rng)
            rep = involution_report(t, w, dual=dual, ddual=ddual)
            assert rep.ok, rep.failures()
            count += 1
    elapsed = time.monotonic() - start
    assert count == 200
    assert elapsed < 10, "involution run took %.1fs" % elapsed


# -- criterion 2: choice independence and equivariance witnesses -------

def _generator(t, family, rng):
    f = t.field
    I = ExactMatrix.identity
    c = f.of(2)
    if family == "right-scalar-r":
        return GroupElement(t, "right", r_n1=I(f, t.dim_n1).scale(c),
                            r_m1=I(f, t.dim_m1).scale(c),
                            r_a0=I(f, t.dim_a0).scale(c))
    if family == "right-scalar-b":
        return GroupElement(t, "right", b_n2=I(f, t.dim_n2).scale(c),
                            b_m2=I(f, t.dim_m2).scale(c),
                            b_a0=I(f, t.dim_a0).scale(c))
    if family == "right-translation":
        return GroupElement(t, "right",
                            alpha0=rnd_matrix(f, rng, t.dim_a0, 1))
    if family == "left-gl-mult":
        return GroupElement(t, "left",
                            g_m=rnd_invertible(f, rng, t.dim_mult))
    if family == "left-translation":
        return GroupElement(t, "left",
                            beta=rnd_matrix(f, rng, t.dim_b0, t.dim_mult))
    if family == "left-scalar-l":
        return GroupElement(t, "left", l_m1=I(f, t.dim_m1).scale(c),
                            l_m2=I(f, t.dim_m2).scale(c),
                            l_b0=I(f, t.dim_b0).scale(c))
    raise ValueError(family)


FAMILIES = ["right-scalar-r", "right-scalar-b", "right-translation",
            "left-gl-mult", "left-translation", "left-scalar-l"]


def test_criterion_02_equivariance_witnesses():
    rng = random.Random(103)
    pool = theta_pool(104, 50)
    for family in FAMILIES:
        count = 0
        for t in pool:
            dual = dual_of(t)
            for _ in range(4):
                w = random_w0_point(t, rng)
                g = _generator(t, family, rng)
                rep = transport_report(dual, w, g)
                assert rep.ok, (family, t.dims(), rep.failures())
                count += 1
        assert count == 200


def test_criterion_02_block_symmetries_of_instances():
    rng = random.Random(105)
    inst = full_p1_instance()
    t = inst.theta
    dual = dual_of(t)
    for count in range(200):
        w = random_w0_point(t, rng)
        if count % 2 == 0:
            g = instance_right_element(
                inst,
                c_by_i={1: rnd_invertible(QQ, rng, inst.m_mult[0]),
                        2: rnd_invertible(QQ, rng, inst.m_mult[1])},
                alpha0=rnd_matrix(QQ, rng, t.dim_a0, 1))
        else:
            g = instance_left_element(
                inst, g_m=rnd_invertible(QQ, rng, t.dim_mult),
                d_by_l={2: rnd_invertible(QQ, rng, inst.n_mult[1])},
                beta=rnd_matrix(QQ, rng, t.dim_b0, t.dim_mult))
        rep = transport_report(dual, w, g)
        assert rep.ok, rep.failures()


def test_criterion_02_choice_independence():
    rng = random.Random(106)
    pool = theta_pool(107, 50)
    count = 0
    for t in pool:
        dual = dual_of(t)
        for _ in range(4):
            w = random_w0_point(t, rng)
            c1 = default_choice(w)
            c2 = chart_choice(w, chart_for_point(t, w))
            z1 = mutate(dual, w, c1)
            z2 = mutate(dual, w, c2)
            g_right, g_left = choice_transport(dual, w, c1, c2)
            assert act(g_left, act(g_right, z1)) == z2
            count += 1
    assert count == 200


# -- criterion 3: dual consistency on every fixture --------------------

def test_criterion_03_dual_consistency():
    fixtures = list(theta_pool(108, 12))
    fixtures += [pn_instance(n, e, fl, p).theta
                 for (n, e, fl, p) in pn_grid()]
    seen = set()
    for t in fixtures:
        if id(t) in seen:
            continue
        seen.add(id(t))
        dual = build_dual(t)
        rep = validate_theta(dual.prime)
        assert rep.ok, rep.failures()
        dd = double_dual_report(t)
        assert dd.ok, dd.failures()


# -- criterion 4: Kronecker correspondence, exhaustive -----------------

def _all_kronecker(inst):
    """The point of every surjective f : L (x) M -> N of a Kronecker
    instance."""
    field, q = inst.h.field, inst.h.dimH[(1, 1)]
    (m,), (n,) = inst.m_mult, inst.n_mult
    for bits in product(range(field.p), repeat=n * q * m):
        f = ExactMatrix.from_flat(field, n, q * m, list(bits))
        if f.rank() == n:
            yield inst.point_from_family({(1, 1): f})


def test_criterion_04_kronecker_exhaustive():
    """For every surjective GF(2) module of three shapes: the instance
    mutated twice has the original theta, and the double mutation of w
    is taken back to w by a constructed invertible g in GL(N) (no search
    of GL(M) x GL(N)); w and its mutation have the same semistability
    verdict under the transported polarization."""
    start = time.monotonic()
    shapes = [(2, 1, 1), (3, 1, 1), (3, 1, 2)]
    total = 0
    for (q, m, n) in shapes:
        inst, pol = kronecker_instance(F2, q, m, n)
        for w in _all_kronecker(inst):
            assert_double_mutation_returns(inst, w)
            rep = compare_stability(inst, w, pol)
            assert rep.verdict_w.semistable == rep.verdict_z.semistable
            total += 1
    assert total == 3 + 7 + 42
    elapsed = time.monotonic() - start
    assert elapsed < 60, "kronecker run took %.1fs" % elapsed


# -- criterion 5: stability comparison, exhaustive GF(2) sweep ---------

def test_criterion_05_stability_comparison_sweep():
    start = time.monotonic()
    h = projective_space_hom_data(F2, 1, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    t = inst.theta
    pol = Polarization([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)],
                       [1, 1], [2])
    # both standing hypotheses hold for this polarization
    from mutation_forge.stability import compare_hypotheses
    assert compare_hypotheses(pol, inst.p) == (True, True)
    dual = build_dual(t)
    inst_hat = mutated_instance(h, [1, 1], [2], 0)
    pol_hat = map_polarization(pol, h, 0).polarization().transpose()
    zeros = (ExactMatrix.zeros(F2, 0, t.dim_mult),
             ExactMatrix.zeros(F2, 0, 1), ExactMatrix.zeros(F2, 0, 1))
    checked = 0
    for bits in product((0, 1), repeat=t.dim_n2 * t.dim_mult):
        psi2 = ExactMatrix.from_flat(F2, t.dim_n2, t.dim_mult, list(bits))
        w = MorphismPoint(t, zeros[0], psi2, zeros[1], zeros[2])
        if not in_W0(w):
            continue
        verdict_w = is_semistable_rs(inst, w, pol, group="G")
        z = mutate(dual, w, default_choice(w))
        z_hat = dual_point_to_mutated(inst, inst_hat, z)
        verdict_z = is_semistable_rs(inst_hat, z_hat, pol_hat, group="G")
        assert verdict_w.semistable == verdict_z.semistable, bits
        checked += 1
    assert checked > 0
    elapsed = time.monotonic() - start
    assert elapsed < 600, "stability sweep took %.1fs" % elapsed


def _all_points(theta):
    """Every point of the total space of a ThetaSpace over GF(2)."""
    shapes = [part_shape(theta, rows, cols) for _, rows, cols in POINT]
    for bits in product((0, 1), repeat=sum(a * b for a, b in shapes)):
        parts, at = [], 0
        for a, b in shapes:
            parts.append(ExactMatrix.from_flat(F2, a, b, list(bits[at:at + a * b])))
            at += a * b
        yield MorphismPoint(theta, *parts)


def _stacky_counts(inst, pol, group):
    """|W0| / |G| and |W0^ss| / |G| over GF(2), with |G| the product of
    the |GL| of every multiplicity space times 2^(dim U)."""
    order = 2 ** _unipotent_parameters(inst)[1]
    for m in inst.m_mult + inst.n_mult:
        for k in range(m):
            order *= 2 ** m - 2 ** k
    w0 = semistable = 0
    for w in _all_points(inst.theta):
        if in_W0(w):
            w0 += 1
            semistable += is_semistable_rs(inst, w, pol, group=group).semistable
    return Fraction(w0, order), Fraction(semistable, order)


# (e, f, n, mu, the G counts of W0 and of W0^ss) of P^1 instances over
# GF(2) with m = (1), lam = 1/m and p = 0
G_COUNT_CASES = [
    ((-1,), (0, 1), (1, 1), (Fraction(2, 3), Fraction(1, 3)), (6, 3)),
    ((-2,), (0, 1), (2, 1), (Fraction(3, 8), Fraction(1, 4)), (7, Fraction(3, 2))),
]


def test_criterion_05_G_counts_agree_with_the_mutation(record_property):
    """Past the Kronecker regime (s = 2), the stacky counts of W0 and of
    its G-semistable points, with every point enumerated, are those of
    the mutated instance under the transported polarization. The Gred
    counts are recorded, not asserted: they differ outside p = 0,
    s = 1."""
    for e, fl, n_mult, mu, want in G_COUNT_CASES:
        h = projective_space_hom_data(F2, 1, list(e), list(fl))
        pol = Polarization([Fraction(1)], list(mu), [1], list(n_mult))
        assert compare_hypotheses(pol, 0) == (True, True)
        inst = build_theta_p(h, [1], list(n_mult), 0)
        inst_hat = mutated_instance(h, [1], list(n_mult), 0)
        pol_hat = map_polarization(pol, h, 0).polarization().transpose()
        assert _stacky_counts(inst, pol, "G") == want
        assert _stacky_counts(inst_hat, pol_hat, "G") == want
        record_property("Gred counts e=%r n=%r" % (e, n_mult), (
            _stacky_counts(inst, pol, "Gred"),
            _stacky_counts(inst_hat, pol_hat, "Gred")))
    # the named skip: these weights transport to non-positive ones
    for e, n_mult, mu in (((-1,), (1, 1), (Fraction(1, 3), Fraction(2, 3))),
                          ((-2,), (2, 1), (Fraction(1, 4), Fraction(1, 2)))):
        h = projective_space_hom_data(F2, 1, list(e), [0, 1])
        rep = map_polarization(Polarization([Fraction(1)], list(mu), [1],
                                            list(n_mult)), h, 0)
        assert not rep.ok and rep.mu == [-1, 2]


# -- criterion 6: polarization transport normalization -----------------

def test_criterion_06_polarization_normalization():
    rng = random.Random(109)
    homs = [pn_hom(1, (-2, -1), (0,)), pn_hom(2, (-2, -1), (0,)),
            pn_hom(1, (-2, -1), (0, 1)), pn_hom(1, (-3, -2, -1), (0,))]
    count = 0
    while count < 1000:
        h = homs[count % len(homs)]
        p = rng.randrange(h.r)
        m_mult = [rng.randint(1, 3) for _ in range(h.r)]
        n_mult = [rng.randint(1, 3) for _ in range(h.s)]
        a = [Fraction(rng.randint(1, 5)) for _ in range(h.r)]
        b = [Fraction(rng.randint(1, 5)) for _ in range(h.s)]
        ta = sum(x * m for x, m in zip(a, m_mult))
        tb = sum(x * n for x, n in zip(b, n_mult))
        pol = Polarization([x / ta for x in a], [x / tb for x in b],
                           m_mult, n_mult)
        rep = map_polarization(pol, h, p)
        if rep.constant <= 0:
            continue
        assert sum(al * m for al, m in zip(rep.lam, rep.m_mult)) == 1
        assert sum(be * n for be, n in zip(rep.mu, rep.n_mult)) == 1
        count += 1


def test_criterion_06_worked_example():
    h = pn_hom(2, (-2, -1), (0,))
    pol = Polarization([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)],
                       [1, 1], [2])
    rep = map_polarization(pol, h, 0)
    assert rep.ok
    assert rep.lam == [Fraction(1, 7)]
    assert rep.mu == [Fraction(5, 7), Fraction(2, 7)]
    assert rep.constant == Fraction(7, 2)


# -- criterion 7: constants --------------------------------------------

def test_criterion_07_constants():
    start = time.monotonic()
    for which, build in ((0, sigma0), (1, sigma1)):
        for n in (1, 2, 3):
            t = build(QQ, n)
            for m in range(1, n + 2):
                closed = c_formula(which, n, m)
                wit = witness_subspace(t, m)
                assert wit is not None
                assert delta(t, wit, m) == closed, (which, n, m)
                # branch continuity at m = n+1
                if m == n + 1:
                    assert closed == c_formula(which, n, m + 1)
                rep = c_tau_search(t, m, seed=110, samples=1000,
                                   reference=closed)
                assert rep.samples >= 1000, (which, n, m)
                assert not rep.exceeds_reference, (which, n, m)
    elapsed = time.monotonic() - start
    assert elapsed < 300, "constants run took %.1fs" % elapsed


# -- criterion 8: first worked family ----------------------------------

def test_criterion_08_first_family():
    for n in range(1, 6):
        vals = singular_values_ex1(n)
        assert vals == [Fraction(k, n + 2) for k in range(1, n + 2)]
        d = ex1_data(n)
        assert d["quotient_count"] == n
        assert d["dim_generic"] == Fraction((n + 2) * (n * n + 3 * n - 2), 2)
        assert d["dim_last"] == Fraction(n * (n + 3), 2)
    d2 = ex1_data(2)
    assert singular_values_ex1(2) == [Fraction(1, 4), Fraction(1, 2),
                                      Fraction(3, 4)]
    assert d2["dim_generic"] == 16
    assert d2["dim_last"] == 5


# -- criterion 9: second worked family ---------------------------------

def test_criterion_09_second_family():
    for n in range(1, 5):
        for k in range(2, 7):
            rep = singular_values_ex2(n, k)
            assert rep.t_max_enumerated == Fraction(n * k, n * k + 1)
            if n >= 2:
                assert rep.t2 < rep.t_max_formula < rep.t1
    # documented finding: at n = 1 the middle inequality degenerates
    for k in range(2, 7):
        rep = singular_values_ex2(1, k)
        assert rep.t2 == rep.t_max_formula == Fraction(k, k + 1)
        assert rep.t_max_formula < rep.t1


# -- criterion 10: cross-condition coherence ---------------------------

def test_criterion_10_cross_coherence():
    grid = []
    for n in (1, 2):
        for m1 in (1, 2):
            for m2 in (1, 3):
                for n1 in (2, 5):
                    for tt in (Fraction(1, 10), Fraction(1, 5),
                               Fraction(1, 3), Fraction(1, 2),
                               Fraction(3, 5), Fraction(4, 5),
                               Fraction(9, 10)):
                        grid.append((n, m1, m2, n1, tt))
    assert len(grid) >= 100
    for (n, m1, m2, n1, tt) in grid:
        inp = ThresholdInput(m1, m2, n1, tt, n=n)
        for case, ok_direct, ok_eta in thm64_matches_thm59(inp):
            assert ok_direct == ok_eta, (n, m1, m2, n1, tt, case)
    # the reduced bound equals the case-2 constant inequality threshold
    for n in range(1, 6):
        h1 = (n + 1) * (n + 2) // 2
        a = n + 1
        bound = 1 - Fraction(1, n + 2) * (h1 - a * c_formula(1, n, 1))
        assert bound == ex1_data(n)["good_quotient_above"]


# -- criterion 11: byte-identical reproducibility ----------------------

def test_criterion_11_reproducibility(tmp_path):
    for args, name in [
        (["constants", "--which", "0", "--n", "2", "--m", "2",
          "--samples", "25", "--seed", "77"], "c{}.json"),
        (["sweep", "--n", "2", "--m1", "1", "--m2", "1", "--n1", "4",
          "--grid", "12"], "s{}.csv"),
    ]:
        outs = []
        for run in (1, 2):
            path = tmp_path / name.format(run)
            assert cli_main(args + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
