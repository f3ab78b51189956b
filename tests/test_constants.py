"""Genericity, delta values, closed-form constants, and searches."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mutation_forge import constants, exactfield
from mutation_forge.exactfield import (GF, ExactMatrix, Field, Subspace,
                                       column_echelon)
from mutation_forge.constants import (SearchReport, TauMap, _delta,
                                      _spans_m, _tau_m, c_formula,
                                      c_tau_rs, c_tau_search, delta,
                                      is_generic, length, sigma0, sigma1,
                                      tau_rs, witness_subspace)
from mutation_forge.homdata import projective_space_hom_data

QQ = Field()


def test_tau_shape_checked():
    with pytest.raises(ValueError):
        TauMap(QQ, 2, 2, 2, ExactMatrix.zeros(QQ, 2, 3))


@pytest.mark.parametrize("build", [sigma0, sigma1])
@pytest.mark.parametrize("n", [0, -1])
def test_sigma_needs_n_at_least_one(build, n):
    """n + 1 is the dimension of V: for n < 1 there is no S^2 V to build
    on (n = -1 would ask for monomials in no variables)."""
    with pytest.raises(ValueError):
        build(QQ, n)


def test_length_of_split_vectors():
    t = sigma0(QQ, 2)
    m = 2
    for k in (0, 1, 2):
        v = ExactMatrix.zeros(QQ, t.dim_h * m, 1)
        for i in range(k):
            v.data[i * m + i][0] = 1
        assert length(v, t.dim_h, m) == k


def test_witness_is_generic():
    for which, build in ((0, sigma0), (1, sigma1)):
        for n in (1, 2, 3):
            t = build(QQ, n)
            for m in range(1, min(n + 2, t.dim_h + 1)):
                if m >= t.dim_h * m:   # genericity needs a proper subspace
                    continue
                wit = witness_subspace(t, m)
                assert wit is not None
                assert is_generic(wit, t.dim_h, m)


def test_witness_basis_is_canonical():
    """The witness is taken as its own canonical basis: the column
    echelon form of its vec is that vec."""
    for build in (sigma0, sigma1):
        for n in (1, 2, 3):
            t = build(QQ, n)
            for m in range(1, t.dim_h + 1):
                wit = witness_subspace(t, m)
                assert wit.basis == column_echelon(wit.basis)
                assert wit == Subspace(t.dim_h * m, wit.basis)


@pytest.mark.parametrize("build", [sigma0, sigma1])
def test_sigma_refuses_sizes_above_the_cell_bound(build, monkeypatch):
    """A tau of more than TAU_CELLS cells is a ValueError raised before any
    monomial is listed; (n+1)^3 (n+2) / 2 cells is allowed."""
    def refuse(*args):
        raise AssertionError("monomials listed")

    monkeypatch.setattr(constants, "_monomials", refuse)
    with pytest.raises(ValueError, match="above the 10000000 allowed"):
        build(QQ, 66)
    with pytest.raises(ValueError, match="cells"):
        build(QQ, 10 ** 30)
    monkeypatch.undo()
    monkeypatch.setattr(constants, "TAU_CELLS", 4 ** 3 * 5 // 2)
    t = build(QQ, 3)
    assert t.tau.rows * t.tau.cols == constants.TAU_CELLS
    with pytest.raises(ValueError, match="sigma for n = 4 has 375 cells"):
        build(QQ, 4)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_search_refuses_a_witness_that_is_the_whole_space(field):
    """dim H = m = 1: the witness line is all of H (x) M, not proper."""
    t = TauMap(field, 1, 1, 1, ExactMatrix.identity(field, 1))
    with pytest.raises(ValueError, match="proper subspaces only"):
        c_tau_search(t, 1)


def test_witness_none_when_m_exceeds_h():
    t = sigma0(QQ, 1)   # dim H = 2
    assert witness_subspace(t, 3) is None


def test_delta_examples():
    t0 = sigma0(QQ, 2)
    assert delta(t0, witness_subspace(t0, 1), 1) == 0
    assert delta(t0, witness_subspace(t0, 2), 2) == Fraction(1, 5)
    t1 = sigma1(QQ, 2)
    assert delta(t1, witness_subspace(t1, 2), 2) == Fraction(9, 5)


def test_delta_requires_generic():
    t = sigma0(QQ, 2)
    m = 2
    v = ExactMatrix.zeros(QQ, t.dim_h * m, 1)
    v.data[0][0] = 1   # h_1 (x) x_1 only: components span one line
    S = Subspace(t.dim_h * m, v)
    with pytest.raises(ValueError):
        delta(t, S, m)


def test_closed_forms():
    assert c_formula(0, 2, 2) == Fraction(1, 5)
    assert c_formula(1, 2, 3) == Fraction(15, 8)
    assert c_formula(0, 2, 5) == Fraction(3, 8)
    with pytest.raises(ValueError):
        c_formula(2, 1, 1)


def test_branch_continuity_at_m_equals_n_plus_one():
    for which in (0, 1):
        for n in (1, 2, 3, 4):
            below = c_formula(which, n, n + 1)
            above_form = c_formula(which, n, n + 2)
            assert above_form == c_formula(which, n, 10 * n)
            assert below == above_form   # the two branches agree at m = n+1


def test_tau_of_projective_type21_equals_sigma0():
    h = projective_space_hom_data(QQ, 2, [-2, -1], [0])
    t = tau_rs(h)
    s = sigma0(QQ, 2)
    assert (t.dim_e, t.dim_h, t.dim_f) == (s.dim_e, s.dim_h, s.dim_f)
    assert t.tau == s.tau


def test_c_tau_rs_empty_sup():
    from mutation_forge.homdata import HomData
    base = projective_space_hom_data(QQ, 1, [-2, -1], [0])
    dimA = dict(base.dimA)
    dimA[(2, 1)] = 0   # a pair of objects with no maps between them
    comp_HA = dict(base.comp_HA)
    comp_HA[(1, 2, 1)] = ExactMatrix.zeros(QQ, base.dimH[(1, 1)], 0)
    h = HomData(QQ, base.r, base.s, base.dimH, dimA, base.dimB,
                comp_HA, base.comp_BH, base.comp_AA, base.comp_BB)
    rep = c_tau_rs(h, 1)
    assert rep.empty_sup
    assert rep.max_found == 0


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_search_with_no_generic_subspace_is_empty(field):
    """With dim H = 1 and m = 2 no proper subspace of H (x) M is generic
    (each of its vectors spans at most a line of M) and m > dim H gives
    no witness: every scan, exhaustive or seeded, scores nothing, and the
    report is the empty supremum 0, flagged."""
    t = TauMap(field, 1, 1, 1, ExactMatrix.identity(field, 1))
    rep = c_tau_search(t, 2, samples=5)
    assert (rep.empty_sup, rep.max_found, rep.samples, rep.witness_value) == (True, 0, 0, None)


def test_search_rational_scan_below_closed_form():
    for which, build in ((0, sigma0), (1, sigma1)):
        t = build(QQ, 2)
        for m in (1, 2):
            closed = c_formula(which, 2, m)
            rep = c_tau_search(t, m, seed=7, samples=60, reference=closed)
            assert rep.witness_value == closed
            assert not rep.exceeds_reference
            assert rep.mode == "random-rational"


def test_search_exhaustive_gf2():
    t = sigma0(Field(2), 1)
    closed = c_formula(0, 1, 1)
    rep = c_tau_search(t, 1, reference=closed)
    assert rep.mode == "exhaustive-gf2"
    assert rep.samples > 0
    assert not rep.exceeds_reference


# (which, n, m) for m in 1..n+2: the ten whose GF(2) scan fits a budget
# of 2 * 10**5 subspaces (n = 1, m = 3 has m > dim H), and the four that
# do not
GF2_SCANNED = ([(w, 1, m) for w in (0, 1) for m in (1, 2, 3)]
               + [(w, 2, m) for w in (0, 1) for m in (1, 2)])
GF2_OVER_BUDGET = [(w, 2, m) for w in (0, 1) for m in (3, 4)]


@pytest.mark.parametrize("which, n, m", GF2_SCANNED)
def test_search_exhaustive_gf2_attains_closed_form(which, n, m):
    """Over GF(2) the exhaustive scan attains c_formula exactly: a
    certificate of the supremum over the prime field, not only a bound."""
    t = (sigma0, sigma1)[which](Field(2), n)
    rep = c_tau_search(t, m, budget=2 * 10 ** 5)
    assert rep.mode == "exhaustive-gf2"
    assert rep.max_found == c_formula(which, n, m)


@pytest.mark.parametrize("which, n, m", GF2_OVER_BUDGET)
def test_search_exhaustive_gf2_over_budget(which, n, m):
    t = (sigma0, sigma1)[which](Field(2), n)
    with pytest.raises(ValueError, match="exhaustive scan budget exceeded"):
        c_tau_search(t, m, budget=2 * 10 ** 5)


def test_search_count_stops_at_the_budget(monkeypatch):
    """The exhaustive scan counts the subspaces of H (x) M dimension by
    dimension and stops once the count passes the budget: for
    dim H (x) M = 16 over GF(2) the 65535 lines fit 10^5 and the planes
    do not, so no larger dimension is counted."""
    counted = []
    count = constants.gaussian_binomial

    def counting(q, n, d):
        counted.append(d)
        return count(q, n, d)

    monkeypatch.setattr(constants, "gaussian_binomial", counting)
    with pytest.raises(ValueError, match="exhaustive scan budget exceeded"):
        c_tau_search(sigma0(Field(2), 1), 8, budget=10 ** 5)
    assert counted == [1, 2]


@pytest.mark.parametrize("field, match", [(QQ, "random draws"),
                                          (GF(2), "budget exceeded")])
def test_search_refuses_before_listing_tau_terms(field, match, monkeypatch):
    """A search whose H (x) M is refused raises before the dim F * m
    rows of tau_m are listed."""
    def refuse(*args):
        raise AssertionError("tau_m listed")

    monkeypatch.setattr(constants, "_tau_m", refuse)
    with pytest.raises(ValueError, match=match):
        c_tau_search(sigma0(field, 1), 10 ** 12)


def test_search_budget_enforced():
    t = sigma0(Field(2), 2)
    with pytest.raises(ValueError):
        c_tau_search(t, 3, budget=10)


def test_search_report_json():
    rep = SearchReport(Fraction(1, 5), Fraction(1, 5), "random-rational",
                       12, 3, reference=Fraction(1, 5))
    d = rep.to_json()
    assert d["witness_value"] == "1/5"
    assert d["exceeds_reference"] is False


# -- delta on raw spans against the per-scalar reference -----------------

def _reduce(f, x):
    return x if f.p is None else x % f.p


def reference_image_of_tensor(t, K, m):
    """Basis matrix of tau_m(E (x) K) inside F (x) M, one column per
    e (x) (basis vector of K), summed entry by entry."""
    f = t.field
    cols = []
    for e in range(t.dim_e):
        for j in range(K.basis.cols):
            vec = [0] * (t.dim_f * m)
            for h in range(t.dim_h):
                for tt in range(m):
                    kv = K.basis.data[h * m + tt][j]
                    for y in range(t.dim_f):
                        tv = t.tau.data[y][e * t.dim_h + h]
                        vec[y * m + tt] = _reduce(f, vec[y * m + tt] + tv * kv)
            cols.append(vec)
    if not cols:
        return ExactMatrix.zeros(f, t.dim_f * m, 0)
    return ExactMatrix(f, cols).transpose()


def reference_m_components(K, dim_h, m):
    """The M-components of a basis of K, one column per basis vector and
    element of the basis of H."""
    cols = [[K.basis.data[h * m + tt][j] for tt in range(m)]
            for j in range(K.basis.cols) for h in range(dim_h)]
    if not cols:
        return ExactMatrix.zeros(K.field, m, 0)
    return ExactMatrix(K.field, cols).transpose()


def reference_delta(t, K, m):
    img = reference_image_of_tensor(t, K, m)
    return Fraction(t.dim_f * m - img.rank(), t.dim_h * m - K.dim)


def _matrix(draw, f, rows, cols):
    hi = 2 if f.p is None else f.p - 1
    return ExactMatrix.from_flat(f, rows, cols, draw(st.lists(
        st.integers(-hi if f.p is None else 0, hi),
        min_size=rows * cols, max_size=rows * cols)))


@st.composite
def taus_and_spans(draw):
    """A random tau over QQ, GF(2) or GF(3) (legs of size 1 included), a
    multiplicity m and a spanning matrix B of a subspace of H (x) M,
    often with dependent columns (B = L R through a thin middle, or a
    repeated column)."""
    f = draw(st.sampled_from([Field(), GF(2), GF(3)]))
    e, h, y, m = (draw(st.integers(1, 3)) for _ in range(4))
    t = TauMap(f, e, h, y, _matrix(draw, f, y, e * h))
    k = draw(st.integers(1, h * m))
    if draw(st.booleans()):
        mid = draw(st.integers(0, k))
        B = _matrix(draw, f, h * m, mid) @ _matrix(draw, f, mid, k)
    else:
        B = _matrix(draw, f, h * m, k)
        if draw(st.booleans()):
            B = B.hstack(B.submatrix(range(B.rows), [0]))
    return t, m, B


# tau = I_2 : E (x) H -> F for dim E = 1 and dim H = dim F = 2
IDENTITY_TAU = TauMap(QQ, 1, 2, 2, ExactMatrix.identity(QQ, 2))
# tau = (1/2, 1/3) : H -> F for dim E = dim F = 1 and dim H = 2, scaled
# to (3, 2): an odd term and an even one
FRACTION_TAU = TauMap(QQ, 1, 2, 1, ExactMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)]]))
# tau = (1, 1) : H -> F over GF(2) for dim E = dim F = 1 and dim H = 2
SUM_TAU_GF2 = TauMap(GF(2), 1, 2, 1, ExactMatrix(GF(2), [[1, 1]]))


@settings(max_examples=300, deadline=None)
@given(taus_and_spans())
# QQ, a column of even entries: the image has rank 2, its parities 1
@example((IDENTITY_TAU, 2, ExactMatrix(QQ, [[2, 1], [0, 0], [0, 0], [0, 1]])))
# QQ, the canonical basis of the span of (2, 1) is (1, 1/2): delta reads
# it on the exact path, _delta reads (2, 1) mod 2
@example((IDENTITY_TAU, 1, ExactMatrix(QQ, [[2], [1]])))
# a tau with Fraction entries: its even term alone meets B
@example((FRACTION_TAU, 1, ExactMatrix(QQ, [[0], [1]])))
@example((FRACTION_TAU, 2, ExactMatrix(QQ, [[1, 0], [0, 0], [0, 0], [0, 1]])))
# GF(2), tau(h_1 + h_2) = 0: rank 0, short of 1
@example((SUM_TAU_GF2, 1, ExactMatrix(GF(2), [[1], [1]])))
def test_delta_on_spans_matches_reference(case):
    t, m, B = case
    ambient = t.dim_h * m
    K = Subspace(ambient, B)
    assert B.rank() == K.dim
    generic = reference_m_components(K, t.dim_h, m).rank() == m
    assert _spans_m(B, t.dim_h, m) == generic
    if K.dim < ambient:
        assert is_generic(K, t.dim_h, m) == generic
    if generic and K.dim < ambient:
        ref = reference_delta(t, K, m)
        assert _delta(t, _tau_m(t, m), B, K.dim, m) == ref
        assert delta(t, K, m) == ref
    for j in range(B.cols):
        u = B.submatrix(range(ambient), [j])
        U = ExactMatrix(t.field, [[u.data[x * m + tt][0] for tt in range(m)]
                                  for x in range(t.dim_h)])
        assert length(u, t.dim_h, m) == U.rank()


def test_full_parity_image_needs_no_elimination(monkeypatch):
    """delta over QQ whose image has parities of full rank, and any delta
    over GF(2), is read mod 2 alone; over QQ an image whose parities fall
    short, and a basis holding a Fraction, reach the elimination."""
    def refuse(*args):
        raise AssertionError("eliminated")

    half = Subspace(2, ExactMatrix(QQ, [[2], [1]]))   # basis (1, 1/2)
    t1, t2 = sigma1(QQ, 2), sigma1(GF(2), 2)
    wit1, wit2 = witness_subspace(t1, 2), witness_subspace(t2, 2)
    monkeypatch.setattr(exactfield, "_eliminate", refuse)
    assert _delta(IDENTITY_TAU, _tau_m(IDENTITY_TAU, 1),
                  ExactMatrix(QQ, [[2], [1]]), 1, 1) == 1
    assert _delta(t1, _tau_m(t1, 2), wit1.basis, wit1.dim, 2) == Fraction(9, 5)
    assert _delta(t2, _tau_m(t2, 2), wit2.basis, wit2.dim, 2) == Fraction(9, 5)
    assert _delta(SUM_TAU_GF2, _tau_m(SUM_TAU_GF2, 1),
                  ExactMatrix(GF(2), [[1], [1]]), 1, 1) == 1
    for t, B in ((IDENTITY_TAU, half.basis),
                 (IDENTITY_TAU, ExactMatrix(QQ, [[2], [0]])),
                 (FRACTION_TAU, ExactMatrix(QQ, [[0], [1]]))):
        with pytest.raises(AssertionError, match="eliminated"):
            _delta(t, _tau_m(t, 1), B, 1, 1)


# (which, n, m) of the searches behind C_TAU_DIGEST: sigma_0 and sigma_1
# over QQ for n = 1..3 and m = 1..n+2, each at its own seed
C_TAU_SEARCHES = [(which, n, m) for which in (0, 1) for n in (1, 2, 3)
                  for m in range(1, n + 3)]
# sha256 of the reports' JSON as they read when it was pinned: a change
# of this digest is a change of a witness value, a scan maximum or a
# sample count
C_TAU_DIGEST = "9ef0780d72833d0d52267dc4e3a9807cd37a9757873400a81a81be561434b8fe"


def test_c_tau_search_digest():
    digest = hashlib.sha256()
    for which, n, m in C_TAU_SEARCHES:
        t = (sigma0, sigma1)[which](QQ, n)
        rep = c_tau_search(t, m, seed=100 * which + 10 * n + m, samples=40,
                           reference=c_formula(which, n, m))
        digest.update(json.dumps(rep.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == C_TAU_DIGEST
