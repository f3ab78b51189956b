"""Dual spaces, mutation, involution, and transport witnesses."""

import random

from mutation_forge.exactfield import ExactMatrix, Field
from mutation_forge.theta import GroupElement, act, chart_for_point, validate_theta
from mutation_forge.homdata import build_theta_p, projective_space_hom_data
from mutation_forge.mutation import (build_dual, chart_choice,
                                     choice_transport, default_choice,
                                     double_dual_report, involution_report,
                                     mutate, swap_matrix, transport_report)
from conftest import (rnd_invertible, rnd_matrix, random_w0_point,
                      theta_pool, dual_of)

QQ = Field()


def test_swap_matrix_entries():
    x, y = 2, 3
    S = swap_matrix(QQ, x, y)
    assert (S.rows, S.cols) == (x * y, x * y)
    for i in range(x):
        for j in range(y):
            assert S.data[j * x + i][i * y + j] == 1
    assert swap_matrix(QQ, y, x) @ S == ExactMatrix.identity(QQ, x * y)


def test_swap_matrix_on_decomposables():
    rng = random.Random(31)
    a = rnd_matrix(QQ, rng, 3, 1)
    b = rnd_matrix(QQ, rng, 4, 1)
    assert swap_matrix(QQ, 3, 4) @ a.kron(b) == b.kron(a)


def test_dual_validates_on_pool():
    for t in theta_pool(32, 8):
        rep = validate_theta(dual_of(t).prime)
        assert rep.ok, rep.failures()


def test_double_dual_on_pool():
    for t in theta_pool(33, 8):
        rep = double_dual_report(t)
        assert rep.ok, rep.failures()


def test_double_dual_names_the_first_differing_dimension():
    """The double dual of another space's dual fails the dims check,
    whose detail names the first dimension that differs; a passing dims
    check has no detail."""
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    theta = build_theta_p(h, [1, 1], [1, 1], 1).theta
    other = build_theta_p(h, [1, 1], [1, 1], 0).theta
    assert (theta.dims()[:2], other.dims()[:2]) == ((3, 2), (0, 5))
    rep = double_dual_report(theta, dual=build_dual(other))
    assert rep.checks == [("dims", False, "n1 is 0, expected 3")]
    assert double_dual_report(theta).checks[0] == ("dims", True, "")


def test_mutated_point_lands_in_dual_w0():
    rng = random.Random(34)
    for t in theta_pool(35, 8):
        w = random_w0_point(t, rng)
        dual = dual_of(t)
        z = mutate(dual, w, default_choice(w))
        assert z.theta == dual.prime
        from mutation_forge.theta import in_W0
        assert in_W0(z)


def test_involution_on_pool():
    rng = random.Random(36)
    for t in theta_pool(37, 8):
        w = random_w0_point(t, rng)
        rep = involution_report(t, w)
        assert rep.ok, rep.failures()


def test_default_choice_valid():
    rng = random.Random(38)
    for t in theta_pool(39, 6):
        w = random_w0_point(t, rng)
        rep = default_choice(w).validate(w)
        assert rep.ok, rep.failures()


def test_chart_choice_valid_and_transportable():
    rng = random.Random(40)
    for t in theta_pool(41, 6):
        w = random_w0_point(t, rng)
        dual = dual_of(t)
        c1 = default_choice(w)
        chart = chart_for_point(t, w)
        c2 = chart_choice(w, chart)
        assert c2.validate(w).ok
        z1 = mutate(dual, w, c1)
        z2 = mutate(dual, w, c2)
        g_right, g_left = choice_transport(dual, w, c1, c2)
        assert act(g_left, act(g_right, z1)) == z2


def _generators(t, rng):
    f = t.field
    I = ExactMatrix.identity
    out = []
    c = f.of(2)
    out.append(GroupElement(t, "right", r_n1=I(f, t.dim_n1).scale(c),
                            r_m1=I(f, t.dim_m1).scale(c),
                            r_a0=I(f, t.dim_a0).scale(c)))
    out.append(GroupElement(t, "right", b_n2=I(f, t.dim_n2).scale(c),
                            b_m2=I(f, t.dim_m2).scale(c),
                            b_a0=I(f, t.dim_a0).scale(c)))
    out.append(GroupElement(t, "right",
                            alpha0=rnd_matrix(f, rng, t.dim_a0, 1)))
    out.append(GroupElement(t, "left", g_m=rnd_invertible(f, rng, t.dim_mult)))
    out.append(GroupElement(t, "left",
                            beta=rnd_matrix(f, rng, t.dim_b0, t.dim_mult)))
    out.append(GroupElement(t, "left", l_m1=I(f, t.dim_m1).scale(c),
                            l_m2=I(f, t.dim_m2).scale(c),
                            l_b0=I(f, t.dim_b0).scale(c)))
    return out


def test_transport_witnesses_on_pool():
    rng = random.Random(42)
    for t in theta_pool(43, 6):
        w = random_w0_point(t, rng)
        dual = dual_of(t)
        for g in _generators(t, rng):
            rep = transport_report(dual, w, g)
            assert rep.ok, (t.dims(), g.side, rep.failures())


def test_dual_dims_of_kronecker_instance():
    """The worked two-block projective-line shape: dual dimensions are
    the mutated ones."""
    from mutation_forge.homdata import build_theta_p, projective_space_hom_data
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    assert inst.theta.dims() == (0, 5, 0, 0, 0, 0, 2, 3)
    prime = build_dual(inst.theta).prime
    assert prime.dims() == (0, 5, 0, 0, 0, 0, 3, 2)
