"""Existence conditions, singular-value families, and cross-checks."""

import random
from fractions import Fraction

import pytest

from mutation_forge.constants import c_formula
from mutation_forge.thresholds import (ConditionReport, Ex2Report,
                                       ThresholdInput,
                                       equality_dimension_vectors, ex1_data,
                                       singular_flag, singular_ts,
                                       singular_values_ex1,
                                       singular_values_ex2, thm53_ok,
                                       thm56_range, thm64_ok,
                                       thm64_matches_thm59)


def test_input_validation():
    with pytest.raises(ValueError):
        ThresholdInput(0, 1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        ThresholdInput(1, 1, 1, Fraction(3, 2))
    with pytest.raises(ValueError):   # n is the dimension of P^n
        ThresholdInput(1, 1, 1, Fraction(1, 2), n=0)
    inp = ThresholdInput(2, 3, 4, Fraction(1, 2))
    assert inp.eta1 == Fraction(1, 2)
    assert inp.eta2 == Fraction(3, 4)


def test_condition_report():
    rep = ConditionReport([("a", True), ("b", False)])
    assert not rep.ok
    assert rep.failing == ["b"]


def test_first_condition_boundary():
    """For the first worked family (a = n+1, m1 = m2 = 1, n1 = n+2) the
    slope condition holds strictly above (n+1)/(n+2) and fails at it."""
    for n in (1, 2, 3):
        a, n1 = n + 1, n + 2
        bound = Fraction(n + 1, n + 2)
        just_above = bound + Fraction(1, 1000)
        assert thm53_ok(a, 1, 1, n1, just_above, Fraction(0)).conditions[0][1]
        assert not thm53_ok(a, 1, 1, n1, bound, Fraction(0)).conditions[0][1]


def test_mu_range_left_bound_non_strict():
    # p = 0, s = 1: the tail is the whole sum, mu_1 left bound attained
    lam, mu = [Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)]
    rep = thm56_range(lam, mu, [1, 1], [2], 0)
    assert rep.ok
    # left bound exactly attained is allowed (non-strict)
    rep2 = thm56_range([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3)],
                       [1, 1], [2], 0)
    assert rep2.conditions[0][1]


def test_mu_range_right_vacuous_at_n1_one():
    lam, mu = [Fraction(1, 2), Fraction(1, 2)], [Fraction(1)]
    rep = thm56_range(lam, mu, [1, 1], [1], 0)
    assert rep.conditions[1][1]


def test_case_coherence_random():
    rng = random.Random(54)
    for _ in range(60):
        n = rng.randint(1, 4)
        m1, m2, n1 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 6)
        t = Fraction(rng.randint(1, 19), 20)
        inp = ThresholdInput(m1, m2, n1, t, n=n)
        for case, ok59, ok64 in thm64_matches_thm59(inp):
            assert ok59 == ok64, (n, m1, m2, n1, t, case)


def test_case2_requires_n():
    inp = ThresholdInput(1, 1, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        thm64_ok(inp, 1)


def test_first_family_values():
    assert singular_values_ex1(2) == [Fraction(1, 4), Fraction(1, 2),
                                      Fraction(3, 4)]
    assert singular_values_ex1(1) == [Fraction(1, 3), Fraction(2, 3)]
    d = ex1_data(2)
    assert d["quotient_count"] == 2
    assert d["dim_generic"] == 16
    assert d["dim_last"] == 5
    assert d["empty_above"] == Fraction(3, 4)
    assert d["good_quotient_above"] == Fraction(5, 8)


def test_second_family_landmarks():
    rep = singular_values_ex2(2, 2)
    assert isinstance(rep, Ex2Report)
    assert rep.t1 == Fraction(6, 7)
    assert rep.t2 == Fraction(7, 10)
    assert rep.t_max_formula == Fraction(4, 5)
    assert rep.t_max_enumerated == rep.t_max_formula
    assert rep.t2 < rep.t_max_formula < rep.t1


def test_second_family_n1_equality_finding():
    rep = singular_values_ex2(1, 2)
    assert rep.t2 == rep.t_max_formula == Fraction(2, 3)


def test_max_singular_value_sweep():
    for n in (1, 2, 3, 4):
        for k in range(2, 7):
            rep = singular_values_ex2(n, k)
            assert rep.t_max_enumerated == Fraction(n * k, n * k + 1)


def test_equality_detector_contains_formula_lists():
    # first family: t_k = k/(n+2) with m = (1,1), n1 = n+2
    for n in (1, 2, 3):
        n1 = n + 2
        for t in singular_values_ex1(n):
            fams = equality_dimension_vectors(
                [1 - t, t], [Fraction(1, n1)], [1, 1], [n1])
            assert fams, (n, t)
    # second family: every listed value admits an equality family
    for n in (1, 2):
        for k in (2, 3):
            n1 = n * k + 1
            rep = singular_values_ex2(n, k)
            for t in rep.values:
                fams = equality_dimension_vectors(
                    [1 - t, t / k], [Fraction(1, n1)], [1, k], [n1])
                assert fams, (n, k, t)


def test_equality_detector_is_a_superset():
    """The detector may flag parameters beyond the closed-form list:
    at (n, k) = (1, 2) it also admits t = 1/3, confirmed by the finite-
    field oracle as a point where semistable and stable verdicts differ."""
    t = Fraction(1, 3)
    fams = equality_dimension_vectors([1 - t, t / 2], [Fraction(1, 3)],
                                      [1, 2], [3])
    assert fams
    assert t not in singular_values_ex2(1, 2).values


def test_singular_flag_is_one_exactly_at_the_walls():
    """On the sweep grid and the walls of every m1, m2 <= 4, n1 <= 5 the
    flag is 1 at a wall of singular_ts, and elsewhere only when some
    family holds the equality at every t: a/m1 = b/m2 = c/n1."""
    t_free = 0
    for m1 in range(1, 5):
        for m2 in range(1, 5):
            for n1 in range(1, 6):
                walls = singular_ts(m1, m2, n1)
                assert walls == sorted(set(walls))
                assert all(0 < t < 1 for t in walls)
                free = any(c * m1 % n1 == 0 and c * m2 % n1 == 0
                           for c in range(1, n1))
                t_free += free
                for t in set(walls) | {Fraction(i, 24) for i in range(1, 24)}:
                    assert singular_flag(t, m1, m2, n1) == int(
                        t in walls or free), (m1, m2, n1, t)
    assert t_free == 9


def test_reduced_bound_matches_case2_constant():
    # the reduced bound (n+3)/(2(n+2)) at m1 = m2 = 1, n1 = n+2
    for n in (1, 2, 3, 4, 5):
        inp = ThresholdInput(1, 1, n + 2, Fraction(1, 2), n=n)
        h1 = (n + 1) * (n + 2) // 2
        a = n + 1
        c1 = c_formula(1, n, 1)
        bound = 1 - Fraction(1, n + 2) * (h1 - a * c1)
        assert bound == ex1_data(n)["good_quotient_above"]
