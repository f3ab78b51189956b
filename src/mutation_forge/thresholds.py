"""Closed-form existence conditions and singular values.

All evaluations are exact rational comparisons; n1 = 1 upper bounds
with denominator n1 - 1 are treated as vacuous (+infinity).
"""

import sys
from fractions import Fraction
from itertools import product

from .constants import c_formula


class ThresholdInput:
    """Shared data of the type-(2,1) threshold conditions: the ambient
    projective dimension n (when applicable), the multiplicities, the
    polarization parameter t = m2*lambda2, and the derived slopes
    eta1 = m1/n1, eta2 = m2/n1."""

    def __init__(self, m1, m2, n1, t, n=None):
        if m1 <= 0 or m2 <= 0 or n1 <= 0:
            raise ValueError("multiplicities must be positive")
        if n is not None and n < 1:
            raise ValueError("need n >= 1 for a projective space, got %d" % n)
        t = Fraction(t)
        if not 0 < t < 1:
            raise ValueError("t must lie strictly between 0 and 1")
        self.m1 = m1
        self.m2 = m2
        self.n1 = n1
        self.t = t
        self.n = n

    @property
    def eta1(self):
        return Fraction(self.m1, self.n1)

    @property
    def eta2(self):
        return Fraction(self.m2, self.n1)


class ConditionReport:
    """Named sub-conditions of a threshold test."""

    def __init__(self, conditions):
        self.conditions = conditions  # list of (name, bool)

    @property
    def ok(self):
        return all(v for _, v in self.conditions)

    @property
    def failing(self):
        return [name for name, v in self.conditions if not v]

    def __repr__(self):
        return "ConditionReport(ok=%s, failing=%r)" % (self.ok, self.failing)


def thm53_ok(a, m1, m2, n1, t, c_ref):
    """Good-quotient condition for type (2,1): with a = dim Hom(E1, E2)
    and c_ref = c(tau, m2),

        t > m2*a / (m2*a + m1)   and   t > a * c_ref * m2 / n1.
    """
    t = Fraction(t)
    cond1 = t > Fraction(m2 * a, m2 * a + m1)
    cond2 = t > Fraction(a) * Fraction(c_ref) * Fraction(m2, n1)
    return ConditionReport([("slope", cond1), ("constant", cond2)])


def thm56_range(lam, mu, m_mult, n_mult, p):
    """Existence range for the quasi-good quotient of the mutated space:

        Max(1/(n1+1), 1 - sum_{j>p} lam_j m_j) <= mu_1
                                     < (sum_{j>p} lam_j m_j)/(n1 - 1),

    with the right bound vacuous when n1 = 1."""
    tail = sum(Fraction(lam[j]) * m_mult[j] for j in range(p, len(lam)))
    n1 = n_mult[0]
    mu1 = Fraction(mu[0])
    left = max(Fraction(1, n1 + 1), 1 - tail)
    cond_left = mu1 >= left
    if n1 == 1:
        cond_right = True
    else:
        cond_right = mu1 < tail / (n1 - 1)
    return ConditionReport([("left", cond_left), ("right", cond_right)])


def thm59_ok(inp, a, h1, h2, c_tau, c_taustar, case):
    """Existence of a good projective quotient for type (2,1):
    a = dim Hom(E1, E2), h1 = dim Hom(E1, F1), h2 = dim Hom(E2, F1).

    Case 1: the two slope/constant inequalities with c_tau = c(tau, m2).
    Case 2 (through mutation), with b = a*h2 - h1:
        t < (m2/n1) h2,
        t > (m2/n1)(b m1 + n1)/(a m1 + m2),
        t > 1 - (m1/n1)(h1 - a*c(tau*, m1)).
    """
    t, m1, m2, n1 = inp.t, inp.m1, inp.m2, inp.n1
    if case == 1:
        return thm53_ok(a, m1, m2, n1, t, c_tau)
    if case != 2:
        raise ValueError("case must be 1 or 2")
    b = a * h2 - h1
    cond1 = t < Fraction(m2, n1) * h2
    cond2 = t > Fraction(m2, n1) * Fraction(b * m1 + n1, a * m1 + m2)
    cond3 = t > 1 - Fraction(m1, n1) * (h1 - Fraction(a) * Fraction(c_taustar))
    return ConditionReport([("upper", cond1), ("lower-slope", cond2),
                            ("lower-constant", cond3)])


def thm64_ok(inp, case):
    """Existence conditions for m1 O(-2) + m2 O(-1) -> n1 O on P^n,
    written in eta1 = m1/n1, eta2 = m2/n1.

    Case 1: t > (n+1)eta2/((n+1)eta2 + eta1) and
            t > (n+1) m2 (m2-1)/(2(m2(n+1)-1)) * eta2   (m2 <= n+1),
            t > (n+1)^2/(2(n+2)) * eta2                 (m2 >  n+1).
    Case 2: t < (n+1) eta2,
            t > (n(n+1)/2 * eta1 + 1)/((n+1) eta1/eta2 + 1),
            t > 1 - n(n+1)/(2(m1(n+1)-1)) * eta1        (m1 <= n+1),
            t > 1 - (n+1)/(2(n+2)) * eta1               (m1 >  n+1).
    """
    if inp.n is None:
        raise ValueError("the ambient projective dimension n is required")
    n, t = inp.n, inp.t
    e1, e2 = inp.eta1, inp.eta2
    m1, m2 = inp.m1, inp.m2
    if case == 1:
        cond1 = t > Fraction(n + 1) * e2 / ((n + 1) * e2 + e1)
        if m2 <= n + 1:
            bound = Fraction((n + 1) * m2 * (m2 - 1),
                             2 * (m2 * (n + 1) - 1)) * e2
        else:
            bound = Fraction((n + 1) ** 2, 2 * (n + 2)) * e2
        cond2 = t > bound
        return ConditionReport([("slope", cond1), ("constant", cond2)])
    if case != 2:
        raise ValueError("case must be 1 or 2")
    cond1 = t < Fraction(n + 1) * e2
    cond2 = t > (Fraction(n * (n + 1), 2) * e1 + 1) / ((n + 1) * e1 / e2 + 1)
    if m1 <= n + 1:
        bound = 1 - Fraction(n * (n + 1), 2 * (m1 * (n + 1) - 1)) * e1
    else:
        bound = 1 - Fraction(n + 1, 2 * (n + 2)) * e1
    cond3 = t > bound
    return ConditionReport([("upper", cond1), ("lower-slope", cond2),
                            ("lower-constant", cond3)])


def thm64_matches_thm59(inp):
    """The dimension substitution identifying the two tests on P^n:
    a = h2 = n+1, h1 = (n+1)(n+2)/2, c(tau, m2) = c_0(m2),
    c(tau*, m1) = c_1(m1)."""
    n = inp.n
    a = h2 = n + 1
    h1 = (n + 1) * (n + 2) // 2
    c0 = c_formula(0, n, inp.m2)
    c1 = c_formula(1, n, inp.m1)
    out = []
    for case in (1, 2):
        r59 = thm59_ok(inp, a, h1, h2, c0, c1, case)
        r64 = thm64_ok(inp, case)
        out.append((case, r59.ok, r64.ok))
    return out


# -- worked families --------------------------------------------------

def singular_values_ex1(n):
    """Singular parameters of O(-2) + O(-1) -> (n+2) O on P^n:
    t_k = k/(n+2) for 1 <= k <= n+1, sorted."""
    if n < 1:
        raise ValueError("n must be positive")
    return [Fraction(k, n + 2) for k in range(1, n + 2)]


def ex1_data(n):
    """Companion quantities of the first worked family: the number of
    distinct nonempty quotients, the two quotient dimensions, and the
    emptiness threshold (n+1)/(n+2) beyond which the quotient is empty."""
    return {
        "quotient_count": n,
        "dim_generic": Fraction((n + 2) * (n * n + 3 * n - 2), 2),
        "dim_last": Fraction(n * (n + 3), 2),
        "empty_above": Fraction(n + 1, n + 2),
        "good_quotient_above": Fraction(n + 3, 2 * (n + 2)),
    }


class Ex2Report:
    """Singular values of O(-2) + k O(-1) -> (nk+1) O on P^n, plus the
    three landmark parameters t1, t2, t_max."""

    def __init__(self, n, k, values, t1, t2, t_max_formula):
        self.n = n
        self.k = k
        self.values = values
        self.t1 = t1
        self.t2 = t2
        self.t_max_formula = t_max_formula

    @property
    def t_max_enumerated(self):
        return max(self.values) if self.values else None

    def __repr__(self):
        return ("Ex2Report(n=%d, k=%d, %d values, t_max=%s)"
                % (self.n, self.k, len(self.values), self.t_max_enumerated))


def singular_values_ex2(n, k):
    """Enumerate the singular values t = k(nk-p)/(k'(nk+1)) over
    1 <= k' < k, 0 <= p < nk, kept when strictly between 0 and 1;
    t_max of the list is returned alongside the closed form nk/(nk+1)
    (verified by the caller, never assumed)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    vals = set()
    for kp in range(1, k):
        for p in range(0, n * k):
            t = Fraction(k * (n * k - p), kp * (n * k + 1))
            if 0 < t < 1:
                vals.add(t)
    t1 = 1 - Fraction(1, 1 + (n + 1) * k)
    t2 = 1 - Fraction(n + 1, 2 * (n * k + 1))
    t_max = Fraction(n * k, n * k + 1)
    return Ex2Report(n, k, sorted(vals), t1, t2, t_max)


def dimension_families(m_mult, n_mult):
    """Every integer family (m'_i, n'_l) with 0 <= m'_i <= m_i,
    0 <= n'_l <= n_l, some n'_l < n_l, not all zero: the dimension
    vectors of the proper nonzero subobjects that a polarization weighs.
    A multiplicity whose range of dimensions is too long to list (more
    than sys.maxsize values) is a ValueError."""
    for m in list(m_mult) + list(n_mult):
        if m >= sys.maxsize:
            raise ValueError("multiplicity %d is too large to list the dimensions up to it" % m)
    for mv in product(*[range(m + 1) for m in m_mult]):
        for nv in product(*[range(n + 1) for n in n_mult]):
            if any(x < n for x, n in zip(nv, n_mult)) and (any(mv) or any(nv)):
                yield mv, nv


def equality_dimension_vectors(lam, mu, m_mult, n_mult):
    """All families of dimension_families achieving
    sum(lam_i m'_i) = sum(mu_l n'_l).  The existence of such a family
    is necessary for the parameter to be singular; it is a sound
    superset detector for the worked families' singular lists."""
    return [(mv, nv) for mv, nv in dimension_families(m_mult, n_mult)
            if sum(Fraction(x) * m for x, m in zip(lam, mv))
            == sum(Fraction(y) * n for y, n in zip(mu, nv))]


def singular_ts(m1, m2, n1):
    """The chamber walls of m1 E1 + m2 E2 -> n1 F1 under the
    polarization lam = ((1-t)/m1, t/m2), mu = 1/n1: the exact t in
    (0, 1) at which some family of dimension_families achieves the
    equality (1-t) m'_1/m1 + t m'_2/m2 = n'_1/n1, sorted."""
    out = set()
    for (a, b), (c,) in dimension_families([m1, m2], [n1]):
        # linear in t: t (b/m2 - a/m1) = c/n1 - a/m1
        slope = Fraction(b, m2) - Fraction(a, m1)
        if slope:
            t = (Fraction(c, n1) - Fraction(a, m1)) / slope
            if 0 < t < 1:
                out.add(t)
    return sorted(out)


def singular_flag(t, m1, m2, n1):
    """1 when some family achieves the equality of singular_ts at t
    (at a wall, or at every t for a family with a/m1 = b/m2 = c/n1),
    else 0."""
    t = Fraction(t)
    return int(bool(equality_dimension_vectors(
        [(1 - t) / m1, t / m2], [Fraction(1, n1)], [m1, m2], [n1])))
