"""One computation, two fields: reduction mod p commutes with the
canonical forms and with the builders.

A canonical form (rref, kernel_data) of an integer matrix A reduces to
the canonical form of A mod p exactly when rref(A mod p) has the pivot
columns of rref(A): the pivot minor is then a unit mod p. The builders
only run canonical forms and products on the projective-space systems,
whose pivots survive p = 3 and p = 65521, so each of their outputs over
QQ reduces to the output over GF(p). A mutation at an integral point
reduces when the canonical forms of its choice keep their pivots, and
a rank never rises mod p."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from mutation_forge.constants import _delta, _image_rank, _spans_m, _tau_m, sigma0, sigma1
from mutation_forge.exactfield import ExactMatrix, Field, NotInField, kernel_data
from mutation_forge.homdata import (build_theta_p, mutated_hom_data, mutated_instance,
                                    projective_space_hom_data)
from mutation_forge.mutation import build_dual, default_choice, involution_report, mutate
from mutation_forge.theta import MorphismPoint, in_W0
from conftest import pn_grid, pn_hom, random_w0_point, reduce_mod

QQ = Field()
PRIMES = (3, 65521)


def _reduced(M, field):
    """reduce_mod of the matrix M, or None when a denominator of M is
    divisible by p."""
    try:
        return reduce_mod(M, field)
    except NotInField:
        return None


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 65521)), rows=integer_matrices())
@example(p=3, rows=[[3, 1]])   # pivot column 0 over QQ, 1 mod 3
@example(p=2, rows=[[1, 1], [1, -1]])   # rank 2 over QQ, 1 mod 2
@example(p=5, rows=[[2, 1], [1, 3]])
def test_canonical_forms_reduce_exactly_when_the_pivots_agree(p, rows):
    """rref(A) and kernel_data(A) reduce to those of A mod p exactly when
    the two have the same pivot columns (for the kernel, the same free
    columns); the rank never rises mod p."""
    f = Field(p)
    A = ExactMatrix(QQ, rows)
    Ap = reduce_mod(A, f)
    R, pivots = A.rref()
    Rp, pivots_p = Ap.rref()
    assert len(pivots_p) <= len(pivots)
    assert (_reduced(R, f) == Rp) == (pivots == pivots_p)
    K, free = kernel_data(A)
    Kp, free_p = kernel_data(Ap)
    assert (free == free_p) == (pivots == pivots_p)
    assert (_reduced(K, f) == Kp) == (free == free_p)


def _multiplicities(h):
    """All ones, and multiplicities 2 and 1 alternating, m from 2 and n
    from 1."""
    return [([1] * h.r, [1] * h.s),
            ([2 - i % 2 for i in range(h.r)], [1 + l % 2 for l in range(h.s)])]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n,e,fl,cut", pn_grid())
def test_builders_commute_with_reduction(n, e, fl, cut, p):
    """Over every system and cut of pn_grid, at multiplicities up to 2:
    the projective-space system, its mutated Hom system, the instance's
    theta, its dual's theta and the mutated instance's theta over QQ
    reduce mod p to those built over GF(p)."""
    f = Field(p)
    h = pn_hom(n, e, fl)
    hp = projective_space_hom_data(f, n, list(e), list(fl))
    for h_qq, h_p in ((h, hp), (mutated_hom_data(h, cut), mutated_hom_data(hp, cut))):
        reduced = reduce_mod(h_qq, f)
        assert vars(reduced) == {k: v for k, v in vars(h_p).items() if k in vars(reduced)}
    for m_mult, n_mult in _multiplicities(h):
        theta = build_theta_p(h, m_mult, n_mult, cut).theta
        theta_p = build_theta_p(hp, m_mult, n_mult, cut).theta
        assert reduce_mod(theta, f) == theta_p
        assert reduce_mod(build_dual(theta).prime, f) == build_dual(theta_p).prime
        assert (reduce_mod(mutated_instance(h, m_mult, n_mult, cut).theta, f)
                == mutated_instance(hp, m_mult, n_mult, cut).theta)


@pytest.mark.parametrize("n,e,fl,cut", pn_grid())
def test_mutation_commutes_with_reduction(n, e, fl, cut):
    """At a seeded integral point w of W0 (entries in -3..3) of every
    instance of pn_grid, at multiplicities up to 2, whose reduction mod p
    stays in W0, for p = 3 and 65521: the mutation by the default choice,
    mutate(build_dual(theta), w, default_choice(w)), reduces mod p to the
    same computation over GF(p) exactly when rref(rho2) and
    rref(psi2_bar) keep their pivot columns mod p (the choice solves
    rho2 and psi2_bar and spans the kernel of psi2_bar, so its pivot
    minors are then units mod p), and the involution report is ok on
    both sides. Of the 144 reductions, 2 leave W0 mod 3 and 23 change a
    pivot mod 3; none changes one mod 65521."""
    h = pn_hom(n, e, fl)
    for m_mult, n_mult in _multiplicities(h):
        theta = build_theta_p(h, m_mult, n_mult, cut).theta
        dual = build_dual(theta)
        w = random_w0_point(theta, random.Random(repr((n, e, fl, cut, m_mult))), lo=-3, hi=3)
        choice = default_choice(w)
        assert involution_report(theta, w, choice, dual).ok
        z = mutate(dual, w, choice)
        for p in PRIMES:
            f = Field(p)
            theta_p = build_theta_p(projective_space_hom_data(f, n, list(e), list(fl)),
                                    m_mult, n_mult, cut).theta
            w_p = MorphismPoint(theta_p, *(reduce_mod(x, f) for x in w.parts()))
            if not in_W0(w_p):
                continue
            dual_p = build_dual(theta_p)
            choice_p = default_choice(w_p)
            assert involution_report(theta_p, w_p, choice_p, dual_p).ok
            z_p = mutate(dual_p, w_p, choice_p)
            pivots = [M.rref()[1] for M in (theta.rho2, w.psi2_bar())]
            pivots_p = [M.rref()[1] for M in (theta_p.rho2, w_p.psi2_bar())]
            reduced = [_reduced(x, f) for x in z.parts()]
            assert (reduced == list(z_p.parts())) == (pivots == pivots_p), (p, m_mult)


@pytest.mark.parametrize("p", PRIMES)
def test_delta_ranks_never_rise_mod_p(p):
    """For sigma_0 and sigma_1 at n = 1, 2 and m = 2, 3, which reduce
    mod p exactly, and 10 seeded spanning matrices B each, entries in
    {-1, 0, 1}: the rank of tau_m(E (x) span B) mod p is at most its
    rank over QQ, and so is the rank of B; where B's rank does not fall
    and both spans are generic, delta mod p is at least delta over QQ.
    The image rank is equal for 78 of the 80 draws mod 3 and for all 80
    mod 65521."""
    f = Field(p)
    rng = random.Random(p)
    fell = 0
    for build, n, m in product((sigma0, sigma1), (1, 2), (2, 3)):
        t, t_p = build(QQ, n), build(f, n)
        assert reduce_mod(t.tau, f) == t_p.tau
        tau_m, tau_mp = _tau_m(t, m), _tau_m(t_p, m)
        ambient = t.dim_h * m
        for _ in range(10):
            k = rng.randint(1, ambient - 1)
            B = ExactMatrix.of_rows(QQ, [[rng.choice((-1, 0, 1)) for _ in range(k)]
                                         for _ in range(ambient)], k)
            B_p = reduce_mod(B, f)
            rank, rank_p = _image_rank(t, tau_m, B), _image_rank(t_p, tau_mp, B_p)
            dim, dim_p = B.rank(), B_p.rank()
            assert rank_p <= rank and dim_p <= dim
            fell += rank_p < rank
            if dim_p == dim and _spans_m(B, t.dim_h, m) and _spans_m(B_p, t.dim_h, m):
                assert _delta(t_p, tau_mp, B_p, dim, m) >= _delta(t, tau_m, B, dim, m)
    assert fell == {3: 2, 65521: 0}[p]
