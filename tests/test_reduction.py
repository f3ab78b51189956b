"""One computation, two fields: reduction mod p commutes with the
canonical forms and with the builders.

A canonical form (rref, kernel_data) of an integer matrix A reduces to
the canonical form of A mod p exactly when rref(A mod p) has the pivot
columns of rref(A): the pivot minor is then a unit mod p. The builders
only run canonical forms and products on the projective-space systems,
whose pivots survive p = 3 and p = 65521, so each of their outputs over
QQ reduces to the output over GF(p)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from mutation_forge.exactfield import ExactMatrix, Field, NotInField, kernel_data
from mutation_forge.homdata import (build_theta_p, mutated_hom_data, mutated_instance,
                                    projective_space_hom_data)
from mutation_forge.mutation import build_dual
from conftest import pn_grid, pn_hom, reduce_mod

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
