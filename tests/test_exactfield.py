"""Exact linear algebra over the rationals and prime fields."""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from mutation_forge import exactfield
from mutation_forge.exactfield import (ExactMatrix, Field, GF, Subspace,
                                       column_echelon, enumerate_subspaces,
                                       gaussian_binomial, kernel_basis,
                                       kernel_coordinates, kernel_data,
                                       packing, solve, solve_linear)
from mutation_forge.mutation import swap_matrix
from mutation_forge.theta import unvec_row_major, vec_row_major
from conftest import (has_canonical_scalars, image_subspace, inclusion,
                      is_canonical_scalar, rnd_matrix, rnd_invertible,
                      subspace_contains, subspace_intersect, subspace_sum)

QQ = Field()


def test_field_arithmetic_rational():
    """Over QQ an integral value is an int and only a non-integral one a
    Fraction, whatever it was given as."""
    f = QQ
    assert f.of(Fraction(2, 3)) == Fraction(2, 3)
    for x in (f.of(2), f.of(Fraction(4, 2)), f.of(Fraction(0)), f.ratio(6, -3),
              f.ratio(0, 5)):
        assert type(x) is int and is_canonical_scalar(f, x)
    assert (f.of(Fraction(4, 2)), f.ratio(6, -3)) == (2, -2)
    for x in (f.of(Fraction(2, 3)), f.of(Fraction(-6, 4)), f.ratio(3, -6)):
        assert type(x) is Fraction and is_canonical_scalar(f, x)
    assert not is_canonical_scalar(f, Fraction(2)) and not is_canonical_scalar(f, 2.0)


def test_field_arithmetic_gf():
    f = GF(5)
    assert f.of(7) == 2 and f.of(-1) == 4
    assert f.of(Fraction(1, 3)) == 2   # 3 * 2 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        f.of(Fraction(1, 5))


def test_of_passes_field_elements_through():
    x = Fraction(-7, 3)
    assert QQ.of(x) is x
    for k in (-1, 0, 1, 10 ** 30):
        assert QQ.of(k) is k and is_canonical_scalar(QQ, k)
    for p in (2, 3, 65521):
        for k in (-p - 1, -1, 0, 1, p, 3 * p + 2, 10 ** 30):
            assert GF(p).of(k) == k % p and is_canonical_scalar(GF(p), GF(p).of(k))


def test_ratio_rejects_a_written_zero_denominator():
    assert GF(3).ratio(2, 4) == 2 and QQ.ratio(3, -6) == Fraction(-1, 2)
    for f, num, den in ((GF(3), 3, 3), (GF(3), 1, 3), (QQ, 1, 0), (GF(2), 0, 0)):
        with pytest.raises(ValueError):
            f.ratio(num, den)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        Field(6)


def test_matrix_shapes_and_ops():
    rng = random.Random(0)
    A = rnd_matrix(QQ, rng, 3, 4)
    B = rnd_matrix(QQ, rng, 4, 2)
    C = A @ B
    assert (C.rows, C.cols) == (3, 2)
    with pytest.raises(ValueError):
        A @ A
    assert (A + A - A) == A
    assert (-A) + A == ExactMatrix.zeros(QQ, 3, 4)
    assert A.transpose().transpose() == A


def test_kron_mixed_product():
    rng = random.Random(1)
    A = rnd_matrix(QQ, rng, 2, 3)
    B = rnd_matrix(QQ, rng, 3, 2)
    C = rnd_matrix(QQ, rng, 2, 2)
    D = rnd_matrix(QQ, rng, 2, 3)
    assert (A @ B).kron(C @ D) == A.kron(C) @ B.kron(D)


def test_rank_and_rref():
    A = ExactMatrix(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert A.rank() == 2
    I = ExactMatrix.identity(QQ, 3)
    assert I.rref()[0] == I


# (rows, rank) over QQ of matrices whose parities are short of full rank:
# an even determinant, an even entry, a row [2/3, 4/3] that clears to
# [2, 4], and matrices of deficient rank
PARITY_SHORT = [([[1, 1], [1, -1]], 2), ([[2]], 1),
                ([[Fraction(2, 3), Fraction(4, 3)]], 1),
                ([[1, 2], [2, 4]], 1), ([[1, 1, 1], [1, -1, 0], [2, 0, 1]], 2),
                ([[0, 0], [0, 0]], 0)]


@pytest.mark.parametrize("rows, rank", PARITY_SHORT)
def test_rational_rank_where_parity_falls_short(rows, rank):
    A = ExactMatrix(QQ, rows)
    assert A.rank() == rank == A.transpose().rank()
    assert exactfield._parity_rank(A.data) < min(A.rows, A.cols)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_rank_of_empty_shapes(field):
    for rows, cols in ((0, 0), (0, 4), (4, 0)):
        assert ExactMatrix.zeros(field, rows, cols).rank() == 0


def test_full_parity_rank_needs_no_elimination(monkeypatch):
    """A QQ matrix whose parities have full rank, and any GF(2) matrix,
    get their rank from the XOR rank of their parities alone; a QQ matrix
    whose parities fall short reaches the elimination."""
    def refuse(*args):
        raise AssertionError("eliminated")

    monkeypatch.setattr(exactfield, "_eliminate", refuse)
    # determinants -29 and -3 (the second row cleared to [1, 3]), and a
    # row [1/2, 1] cleared to [1, 2], odd at its first entry
    assert ExactMatrix(QQ, [[3, 5], [7, 2]]).rank() == 2
    assert ExactMatrix(QQ, [[1, 0], [Fraction(1, 3), 1]]).rank() == 2
    assert ExactMatrix(QQ, [[Fraction(1, 2), 1]]).rank() == 1
    assert ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6]]).rank() == 2
    assert ExactMatrix(GF(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]]).rank() == 2
    assert ExactMatrix(GF(2), [[1, 0, 1, 1]]).rank() == 1
    with pytest.raises(AssertionError, match="eliminated"):
        ExactMatrix(QQ, [[1, 1], [1, -1]]).rank()


def test_solve_linear_exact_and_inconsistent():
    rng = random.Random(2)
    A = rnd_invertible(QQ, rng, 4)
    X = rnd_matrix(QQ, rng, 4, 2)
    sol = solve_linear(A, A @ X)
    assert sol == X
    bad = ExactMatrix(QQ, [[1, 0], [1, 0]])
    rhs = ExactMatrix(QQ, [[0], [1]])
    assert solve_linear(bad, rhs) is None


def test_kernel_basis_spans_kernel():
    rng = random.Random(3)
    A = rnd_matrix(QQ, rng, 3, 6)
    K = kernel_basis(A)
    assert K.cols == 6 - A.rank()
    assert (A @ K).is_zero()
    assert K.rank() == K.cols


def test_column_echelon_preserves_image():
    rng = random.Random(4)
    B = rnd_matrix(QQ, rng, 5, 3)
    E = column_echelon(B)
    assert image_subspace(E) == image_subspace(B)


def test_subspace_operations():
    f = QQ
    e = lambda i: ExactMatrix(f, [[1 if j == i else 0] for j in range(4)])
    S = image_subspace(e(0).hstack(e(1)))
    T = image_subspace(e(1).hstack(e(2)))
    assert S.dim == 2 and T.dim == 2
    assert subspace_sum(S, T).dim == 3
    assert subspace_intersect(S, T).dim == 1
    assert subspace_contains(S, subspace_intersect(S, T))
    assert subspace_contains(Subspace(4, ExactMatrix.identity(f, 4)), S)
    assert subspace_contains(S, Subspace(4, ExactMatrix.zeros(f, 4, 0)))


def quotient_by_kernel(B):
    """The presentation of the quotient by the column span of B: the
    projection, the transposed canonical kernel basis of B.transpose(),
    and its free coordinates, the complement coordinates."""
    K, comp = kernel_data(B.transpose())
    return K.transpose(), comp


def test_quotient_data_is_a_splitting():
    """The inclusion of the free coordinates is a section of the
    transposed kernel, whose own kernel is the span of B."""
    rng = random.Random(5)
    B = rnd_matrix(QQ, rng, 5, 2)
    proj, comp = quotient_by_kernel(B)
    q = 5 - B.rank()
    assert len(comp) == q == proj.rank()
    assert proj @ inclusion(QQ, 5, comp) == ExactMatrix.identity(QQ, q)
    assert (proj @ B).is_zero()


def reference_quotient_data(ambient_dim, S):
    """The projection, section and complement coordinates of the
    quotient by S by elimination: the section picks the coordinates off
    the pivots of S, and the projection is the last rows of the inverse
    of T = [B | section]."""
    f = S.field
    B = S.basis
    s = B.cols
    pivot_rows = []
    for j in range(s):
        for i in range(ambient_dim):
            if B.data[i][j] != 0:
                pivot_rows.append(i)
                break
    comp = [i for i in range(ambient_dim) if i not in pivot_rows]
    section = ExactMatrix.zeros(f, ambient_dim, len(comp))
    for j, i in enumerate(comp):
        section.data[i][j] = 1
    Tinv = solve_linear(B.hstack(section), ExactMatrix.identity(f, ambient_dim))
    return Tinv.submatrix(range(s, ambient_dim), range(ambient_dim)), section, comp


@st.composite
def spans(draw, max_dim=7):
    """A spanning matrix B of a subspace of QQ^n, GF(2)^n, GF(3)^n or
    GF(65521)^n, n <= 7, and the Subspace it spans, as (n, S, B): the
    columns of B are often dependent or zero, and the zero subspace and
    the whole space are drawn often."""
    f = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["zero", "full", "span"]))
    if kind == "zero":
        B = ExactMatrix.zeros(f, n, 0)
        return n, Subspace(n, B), B
    k = draw(st.integers(0, n + 2))
    cols = [draw(st.lists(_scalars(f), min_size=n, max_size=n)) for _ in range(k)]
    for j in draw(st.sets(st.integers(0, k - 1))) if k else ():
        # zero or, when there is an earlier column, a multiple of it
        cols[j] = ([draw(_scalars(f)) * x for x in cols[j - 1]]
                   if j and draw(st.booleans()) else [0] * n)
    B = ExactMatrix.from_flat(f, k, n, [x for col in cols for x in col]).transpose()
    if kind == "full":
        B = B.hstack(ExactMatrix.identity(f, n)) if k else ExactMatrix.identity(f, n)
    return n, Subspace(n, B), B


@settings(max_examples=400, deadline=None)
@given(spans())
def test_quotient_data_matches_reference(case):
    """The transposed canonical kernel of B.transpose() is the projection
    that elimination gives for the quotient by the span of B, and its
    free coordinates are the complement of the pivots of that span."""
    n, S, B = case
    proj, comp = quotient_by_kernel(B)
    ref_proj, _, ref_comp = reference_quotient_data(n, S)
    assert (proj.rows, proj.cols) == (ref_proj.rows, ref_proj.cols) == (n - S.dim, n)
    assert (proj.data, comp) == (ref_proj.data, ref_comp)
    assert has_canonical_scalars(proj)


def test_gaussian_binomial_counts_subspaces():
    """The counts match, and each enumerated basis is already canonical:
    putting it in canonical form again gives the same Subspace."""
    for q in (2, 3):
        for n in (1, 2, 3, 4):
            for d in range(n + 1):
                subspaces = enumerate_subspaces(q, n, d)
                assert len(subspaces) == gaussian_binomial(q, n, d)
                for S in subspaces:
                    assert (S.ambient_dim, S.dim) == (n, d)
                    assert S == Subspace(n, S.basis)


def test_enumerate_subspaces_budget():
    with pytest.raises(ValueError):
        list(enumerate_subspaces(3, 8, 4, budget=10))


def test_enumerate_subspaces_distinct():
    seen = set(enumerate_subspaces(2, 4, 2))
    assert len(seen) == gaussian_binomial(2, 4, 2) == 35


# -- tensor index maps against the dense reference ----------------------

def reference_kron(A, B):
    """The Kronecker product A (x) B written out entry by entry, left
    factor major, each product put in its one form."""
    f = A.field
    out = ExactMatrix.zeros(f, A.rows * B.rows, A.cols * B.cols)
    for i in range(A.rows):
        for j in range(A.cols):
            a = A.data[i][j]
            if a == 0:
                continue
            for k in range(B.rows):
                for l in range(B.cols):
                    if B.data[k][l] != 0:
                        out.data[i * B.rows + k][j * B.cols + l] = f.of(a * B.data[k][l])
    return out


def reference_swap(field, x, y):
    """The matrix of X (x) Y -> Y (x) X, e_i (x) f_j |-> f_j (x) e_i,
    written out entry by entry."""
    m = ExactMatrix.zeros(field, y * x, x * y)
    for i in range(x):
        for j in range(y):
            m.data[j * x + i][i * y + j] = 1
    return m


@st.composite
def matrix_pairs(draw):
    """Two matrices over QQ (Fraction entries), GF(2) or GF(3), each with
    0 to 3 rows and columns and zeros drawn often."""
    f = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    scalar = (st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
              if f.p is None else st.integers(0, f.p - 1))

    def matrix():
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        return ExactMatrix.from_flat(f, rows, cols, draw(st.lists(
            st.just(0) | scalar, min_size=rows * cols, max_size=rows * cols)))
    return matrix(), matrix()


@settings(max_examples=400, deadline=None)
@given(matrix_pairs())
def test_kron_and_swap_match_references(pair):
    """kron and swap_matrix, both regroups, equal the loops they
    replace, entry types included, and the swap exchanges the factors
    of a Kronecker product."""
    A, B = pair
    f = A.field
    K = A.kron(B)
    assert K == reference_kron(A, B) and has_canonical_scalars(K)
    S, T = swap_matrix(f, A.rows, B.rows), swap_matrix(f, A.cols, B.cols)
    assert S == reference_swap(f, A.rows, B.rows) and has_canonical_scalars(S)
    assert S @ K == B.kron(A) @ T


@settings(max_examples=200, deadline=None)
@given(matrix_pairs())
def test_vec_row_major_round_trip(pair):
    A, _ = pair
    v = vec_row_major(A)
    assert (v.rows, v.cols) == (A.rows * A.cols, 1)
    assert [x for (x,) in v.data] == [x for row in A.data for x in row]
    assert unvec_row_major(v, A.rows, A.cols) == A


def test_vec_row_major_of_empty_matrices_and_misshapen_vectors():
    for f in (QQ, GF(2)):
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            Z = ExactMatrix.zeros(f, rows, cols)
            v = vec_row_major(Z)
            assert (v.rows, v.cols) == (0, 1)
            assert unvec_row_major(v, rows, cols) == Z
    v = vec_row_major(ExactMatrix.identity(QQ, 2))
    for rows, cols in ((1, 3), (3, 2), (2, 1), (0, 4)):
        with pytest.raises(ValueError):
            unvec_row_major(v, rows, cols)
    with pytest.raises(ValueError):   # two columns are no vector
        unvec_row_major(ExactMatrix.identity(QQ, 2), 2, 2)

@st.composite
def tensors(draw, min_legs=1, max_legs=3):
    """A random matrix over QQ, GF(2) or GF(3) read as a tensor: row legs,
    column legs (legs of size 0 and 1 included) and the matrix."""
    f = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    row_dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    col_dims = draw(st.lists(st.integers(0, 3), min_size=min_legs,
                             max_size=max_legs))
    rows, cols = prod(row_dims), prod(col_dims)
    flat = draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                         max_size=rows * cols))
    return row_dims, col_dims, ExactMatrix.from_flat(f, rows, cols, flat)


@settings(max_examples=300, deadline=None)
@given(tensors(min_legs=2, max_legs=2))
def test_regroup_matches_swap_matrix(case):
    row_dims, (x, y), A = case
    f = A.field
    assert A.regroup([A.rows], [x, y], [0], [2, 1]) == A @ swap_matrix(f, y, x)
    assert (A.transpose().regroup([x, y], [A.rows], [1, 0], [2])
            == swap_matrix(f, x, y) @ A.transpose())


@settings(max_examples=300, deadline=None)
@given(tensors(), st.data())
def test_apply_leg_matches_kron_with_identity(case, data):
    _, col_dims, A = case
    f = A.field
    leg = data.draw(st.integers(0, len(col_dims) - 1))
    d = data.draw(st.integers(0, 3))
    X = ExactMatrix.from_flat(f, col_dims[leg], d, data.draw(st.lists(
        st.integers(-2, 2), min_size=col_dims[leg] * d, max_size=col_dims[leg] * d)))
    before = ExactMatrix.identity(f, prod(col_dims[:leg]))
    after = ExactMatrix.identity(f, prod(col_dims[leg + 1:]))
    assert A.apply_leg(col_dims, leg, X) == A @ before.kron(X).kron(after)


@settings(max_examples=300, deadline=None)
@given(tensors(), st.data())
def test_regroup_inverse_permutation_is_identity(case, data):
    row_dims, col_dims, A = case
    dims = row_dims + col_dims
    perm = data.draw(st.permutations(range(len(dims))))
    k = data.draw(st.integers(0, len(dims)))
    B = A.regroup(row_dims, col_dims, perm[:k], perm[k:])
    assert (B.rows, B.cols) == (prod(dims[l] for l in perm[:k]),
                                prod(dims[l] for l in perm[k:]))
    inv = [perm.index(l) for l in range(len(dims))]
    moved = [dims[l] for l in perm]
    assert B.regroup(moved[:k], moved[k:], inv[:len(row_dims)],
                     inv[len(row_dims):]) == A


def reference_regroup(A, row_dims, col_dims, rows, cols):
    """regroup as a dense copy: every entry, zero or not, written to its
    place in the regrouped matrix."""
    shape, (n_rows, n_cols), row_r, row_c, col_r, col_c = exactfield._regroup_map(
        tuple(row_dims), tuple(col_dims), tuple(rows), tuple(cols))
    assert shape == (A.rows, A.cols)
    data = [[0] * n_cols for _ in range(n_rows)]
    for row, rr, rc in zip(A.data, row_r, row_c):
        for x, cr, cc in zip(row, col_r, col_c):
            data[rr + cr][rc + cc] = x
    return ExactMatrix.of_rows(A.field, data, n_cols)


@st.composite
def regroup_cases(draw):
    """1 to 4 legs of sizes 0 to 3, split into row and column legs, a
    matrix over QQ (Fraction entries), GF(2) or GF(3) with zeros drawn
    often, and the legs of the result: a permutation and a split."""
    f = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    k = draw(st.integers(0, len(dims)))
    rows, cols = prod(dims[:k]), prod(dims[k:])
    scalar = (st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
              if f.p is None else st.integers(0, f.p - 1))
    flat = draw(st.lists(st.just(0) | scalar, min_size=rows * cols,
                         max_size=rows * cols))
    perm = draw(st.permutations(range(len(dims))))
    j = draw(st.integers(0, len(dims)))
    legs = (dims[:k], dims[k:], perm[:j], perm[j:])
    return ExactMatrix.from_flat(f, rows, cols, flat), legs


@settings(max_examples=400, deadline=None)
@given(regroup_cases())
def test_regroup_matches_dense_reference(case):
    """regroup copies only the nonzero entries, into rows of its own."""
    A, legs = case
    B = A.regroup(*legs)
    assert B == reference_regroup(A, *legs)
    assert has_canonical_scalars(B)
    ids = [id(row) for row in B.data]
    assert len(set(ids)) == len(ids) and not set(ids) & {id(row) for row in A.data}
    for rows, cols in ((A.rows, A.cols + 1), (A.rows + 1, A.cols)):
        with pytest.raises(ValueError, match="do not fit"):
            ExactMatrix.zeros(A.field, rows, cols).regroup(*legs)


def test_regroup_index_map_cache_checks_every_call():
    """The index map is built once per leg signature, but each call still
    checks the matrix's shape and its legs, and no two results, nor a
    result and the input, share rows."""
    A = ExactMatrix.from_flat(GF(3), 2, 6, list(range(12)))
    legs = ([2], [3, 2], [0, 2], [1])
    B = A.regroup(*legs)
    assert (B.rows, B.cols) == (4, 3)
    # the same legs on a matrix of another shape
    for other in (ExactMatrix.zeros(GF(3), 3, 4), ExactMatrix.zeros(GF(3), 2, 5)):
        with pytest.raises(ValueError, match="do not fit"):
            other.regroup(*legs)
    # bad legs raise on every call, not only the first
    for _ in range(2):
        with pytest.raises(ValueError, match="every leg exactly once"):
            A.regroup([2], [3, 2], [0, 0], [1])
    # writing into a result reaches neither a later result nor the input;
    # entry (a, c), b of the result is entry a, (b, c) of the input
    expected = ExactMatrix.from_flat(GF(3), 4, 3, [
        A.data[a][2 * b + c] for a in range(2) for c in range(2) for b in range(3)])
    assert B == expected
    before = A.copy_data()
    B.data[0][0] = 2
    B.data[3][2] = 0
    C = A.regroup(*legs)
    assert C == expected and A.data == before
    C.data[1][1] = 1
    assert A.regroup(*legs) == expected and B.data[1][1] == expected.data[1][1]


# -- the elimination kernel against the dense Fraction reference ----------

def reference_rref(A):
    """The dense reference elimination: Gauss-Jordan on field scalars
    with plain operators, exact Fraction division over QQ (an int over an
    int would be a float) and the inverse pow(x, p - 2, p) with every
    entry reduced mod p over GF(p)."""
    p = A.field.p
    m = A.copy_data()
    rows, cols = A.rows, A.cols
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if p is None:
            piv = m[r][c]
            m[r] = [Fraction(x) / piv for x in m[r]]
        else:
            inv = pow(m[r][c], p - 2, p)
            m[r] = [inv * x % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
                if p is not None:
                    m[i] = [x % p for x in m[i]]
        pivots.append(c)
        r += 1
    return A._new(m, A.cols), pivots


@contextmanager
def reference_elimination():
    """Run solve_linear, kernel_basis and column_echelon on reference_rref."""
    fast = ExactMatrix.rref
    ExactMatrix.rref = reference_rref
    try:
        yield
    finally:
        ExactMatrix.rref = fast


KERNEL_FIELDS = [QQ, GF(2), GF(3), GF(65521)]


def _scalars(f):
    if f.p is None:   # mixed denominators
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    return st.one_of(st.integers(0, f.p - 1), st.sampled_from([0, 1, f.p - 1]))


@st.composite
def kernel_matrices(draw, max_rows=6, max_cols=7, fields=KERNEL_FIELDS):
    """A random matrix over QQ, GF(2), GF(3) or GF(65521) (or over one of
    fields), with 0xn and nx0 shapes, zero rows and columns, and low rank
    (a product through a thin middle) all drawn often."""
    f = draw(st.sampled_from(fields))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    if draw(st.booleans()):
        mid = draw(st.integers(0, 3))
        left = ExactMatrix.from_flat(f, rows, mid, draw(st.lists(
            _scalars(f), min_size=rows * mid, max_size=rows * mid)))
        right = ExactMatrix.from_flat(f, mid, cols, draw(st.lists(
            _scalars(f), min_size=mid * cols, max_size=mid * cols)))
        A = left @ right
    else:
        A = ExactMatrix.from_flat(f, rows, cols, draw(st.lists(
            _scalars(f), min_size=rows * cols, max_size=rows * cols)))
    zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    data = [[0 if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(A.data)]
    return ExactMatrix.from_flat(f, rows, cols, [x for row in data for x in row])


@settings(max_examples=400, deadline=None)
@given(kernel_matrices())
def test_rref_and_rank_match_reference(A):
    R, pivots = A.rref()
    ref_R, ref_pivots = reference_rref(A)
    assert (R, pivots) == (ref_R, ref_pivots)
    assert (R.rows, R.cols) == (A.rows, A.cols)
    assert has_canonical_scalars(R)
    assert A.rank() == len(ref_pivots) == A.transpose().rank()


@settings(max_examples=400, deadline=None)
@given(kernel_matrices(fields=[GF(2), GF(3), GF(65521)]), st.data())
def test_packed_rows_match_reference(A, data):
    """The rows of A packed (pack_columns of the transpose), over GF(2),
    GF(3) and GF(65521): unpacking gives them back, their packed rank is
    the rank, and their canonical echelon basis, in any order of the rows
    and with zero vectors added, unpacks to the nonzero rows of the
    reference rref. The sum of two packed rows is the packed sum. With
    the columns of A read as h (x) j for a split A.cols = dim_h * m, an
    image x(h (x) c) is the h-th block of m columns of A times the
    coefficient vector c."""
    f = A.field
    ops = packing(f)
    vectors = ops.pack_columns(A.transpose())
    assert ops.columns(vectors, A.cols) == A.transpose()
    R, pivots = reference_rref(A)
    assert ops.rank(vectors) == ops.rank(iter(vectors)) == A.rank() == len(pivots)
    basis = ops.echelon(vectors)
    assert ops.columns(basis, A.cols) == R.submatrix(range(len(pivots)), range(A.cols)).transpose()
    order = data.draw(st.permutations(range(len(vectors))))
    zero = ops.pack_columns(ExactMatrix.zeros(f, A.cols, 1))
    assert ops.echelon([vectors[k] for k in order] + zero) == basis == ops.echelon(basis)
    assert ops.add(vectors, vectors[::-1]) == ops.pack_columns(
        (A + ExactMatrix.of_rows(f, A.data[::-1], A.cols)).transpose())
    dim_h = data.draw(st.sampled_from([d for d in range(1, A.cols + 1) if A.cols % d == 0]
                                      or [0, 1, 2]))
    m = A.cols // dim_h if A.cols else 0
    x = A.submatrix(range(A.rows), range(dim_h * m))
    cs = data.draw(st.lists(st.lists(_scalars(f), min_size=m, max_size=m), max_size=4))
    coefficients = [ops.pack_columns(ExactMatrix.from_flat(f, m, 1, c))[0] for c in cs]
    table = ops.images(x, dim_h, m, coefficients)
    assert len(table) == dim_h
    for h, images in enumerate(table):
        block = x.submatrix(range(x.rows), range(h * m, (h + 1) * m))
        assert images == [ops.pack_columns(block @ ExactMatrix.from_flat(f, m, 1, c))[0]
                          for c in cs]


def test_packed_rows_are_over_prime_fields_only():
    with pytest.raises(ValueError, match="over a prime field"):
        packing(QQ)


@settings(max_examples=300, deadline=None)
@given(kernel_matrices())
def test_kernel_and_column_echelon_match_reference(A):
    K, E = kernel_basis(A), column_echelon(A)
    assert has_canonical_scalars(K) and has_canonical_scalars(E)
    with reference_elimination():
        assert K == kernel_basis(A)
        assert E == column_echelon(A)
    assert (A @ K).is_zero()


@settings(max_examples=300, deadline=None)
@given(kernel_matrices(), st.data())
def test_solve_linear_matches_reference(A, data):
    f = A.field
    k = data.draw(st.integers(1, 2))
    X = ExactMatrix.from_flat(f, A.cols, k, data.draw(st.lists(
        _scalars(f), min_size=A.cols * k, max_size=A.cols * k)))
    consistent = A @ X
    B = ExactMatrix.from_flat(f, A.rows, k, data.draw(st.lists(
        _scalars(f), min_size=A.rows * k, max_size=A.rows * k)))
    sol, other = solve_linear(A, consistent), solve_linear(A, B)
    with reference_elimination():
        assert sol == solve_linear(A, consistent)
        assert other == solve_linear(A, B)
    assert sol is not None and A @ sol == consistent
    assert has_canonical_scalars(sol)
    assert other is None or A @ other == B


@settings(max_examples=300, deadline=None)
@given(kernel_matrices())
def test_kernel_basis_is_the_identity_on_its_free_coordinates(A):
    """kernel_data gives kernel_basis and the non-pivot columns of rref,
    and the basis is the identity on those coordinates: what
    kernel_coordinates reads the coordinates off."""
    K, free = kernel_data(A)
    assert K == kernel_basis(A)
    assert free == [c for c in range(A.cols) if c not in A.rref()[1]]
    assert K.submatrix(free, range(K.cols)) == ExactMatrix.identity(A.field, K.cols)


def _outcome(read, *args):
    """What read(*args) returns, or the text of its ValueError."""
    try:
        return read(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


@settings(max_examples=300, deadline=None)
@given(kernel_matrices(fields=[QQ, GF(3)]), st.data())
def test_kernel_coordinates_match_solve(A, data):
    """Reading the coordinates of x off the free coordinates of the
    canonical kernel basis K gives what solve gives: the same coordinates
    when x lies in the span of K, the same ValueError when it does not."""
    f = A.field
    K, free = kernel_data(A)
    k = data.draw(st.integers(0, 2))
    C = ExactMatrix.from_flat(f, K.cols, k, data.draw(st.lists(
        _scalars(f), min_size=K.cols * k, max_size=K.cols * k)))
    inside = K @ C
    assert kernel_coordinates(K, free, inside, "off") == solve(K, inside, "off") == C
    x = ExactMatrix.from_flat(f, A.cols, k, data.draw(st.lists(
        _scalars(f), min_size=A.cols * k, max_size=A.cols * k)))
    got = _outcome(kernel_coordinates, K, free, x, "x leaves the kernel")
    assert got == _outcome(solve, K, x, "x leaves the kernel")
    assert (got == "ValueError: x leaves the kernel") == (not (A @ x).is_zero())


@settings(max_examples=300, deadline=None)
@given(spans(), st.data())
def test_section_selection_matches_product(case, data):
    """The inclusion of the free coordinates comp of the kernel of
    B.transpose() is a section of the quotient's projection, and a
    matrix times it is its columns at comp."""
    n, S, B = case
    f = S.field
    proj, comp = quotient_by_kernel(B)
    section = inclusion(f, n, comp)
    assert proj @ section == ExactMatrix.identity(f, len(comp))
    rows = data.draw(st.integers(0, 3))
    M = ExactMatrix.from_flat(f, rows, n, data.draw(st.lists(
        _scalars(f), min_size=rows * n, max_size=rows * n)))
    assert M.submatrix(range(rows), comp) == M @ section


@st.composite
def sparse_rational_matrices(draw, max_dim=8):
    """A mostly-zero matrix over QQ of ints or of Fractions, often of low
    rank (a product through a thin middle), so that the forward
    elimination leaves rows alone and later picks them as pivot rows."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    scalars = (st.integers(-9, 9) if draw(st.booleans())
               else st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))
    sparse = st.tuples(st.integers(0, 3), scalars).map(
        lambda t: t[1] if t[0] == 0 else 0)

    def matrix(r, c):
        return ExactMatrix.from_flat(QQ, r, c, draw(st.lists(
            sparse, min_size=r * c, max_size=r * c)))

    if draw(st.booleans()):
        mid = draw(st.integers(0, 4))
        return matrix(rows, mid) @ matrix(mid, cols)
    return matrix(rows, cols)


def reference_bareiss(rows, cols):
    """The rows of the full forward Bareiss elimination of a matrix of
    ints, every row below the pivot updated at every step."""
    rows = [row[:] for row in rows]
    prev, r = 1, 0
    for c in range(cols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            a = rows[i][c]
            rows[i] = [(piv * x - a * y) // prev for x, y in zip(rows[i], rows[r])]
        prev, r = piv, r + 1
    return rows


# row 1 is zero in the first pivot column and is the untouched pivot row
# of the second; row 2 is updated at both
LAGGING_PIVOT_ROW = ExactMatrix(QQ, [[2, 1, 0, 4], [0, 3, 1, 0], [1, 0, 5, 7]])
# row 2 is zero in the first pivot column and is updated at the second,
# whose pivot row the first updated; that update of row 2 has content 2
LAGGING_ROW = ExactMatrix(QQ, [[-4, -1, 0], [-1, 0, 0], [0, 4, 2]])


@settings(max_examples=400, deadline=None)
@given(sparse_rational_matrices())
@example(LAGGING_PIVOT_ROW)
@example(LAGGING_ROW)
def test_rational_rank_matches_reference(A):
    """The forward elimination finds the reference pivots, and each row
    it leaves is a multiple of that row of the full Bareiss elimination
    of the integer rows, nonzero where that row is; a nonzero row is
    primitive or is an integer input row that no pivot updated."""
    _, ref_pivots = reference_rref(A)
    assert A.rank() == len(ref_pivots) == A.transpose().rank()
    rows, pivots = exactfield._eliminate(QQ, A.data, A.cols, False)
    assert pivots == ref_pivots
    inputs = [exactfield._integer_row(row) for row in A.data]
    full_rows = reference_bareiss(inputs, A.cols)
    for row, full in zip(rows, full_rows):
        assert not any(row) or gcd(*row) == 1 or row in inputs
        k = next((j for j, y in enumerate(full) if y), None)
        if k is None:
            assert not any(row)
        else:
            assert row[k] and all(x * full[k] == y * row[k] for x, y in zip(row, full))


# reduced: row 0 is zero in the second pivot column and is
# back-substituted at the third; the update of row 1 at the first pivot
# and of row 0 at the third have content 2
ROW_ABOVE_UPDATED_LATER = ExactMatrix(QQ, [[-2, 0, 2], [-1, 5, 0], [0, -1, 0]])
# reduced: row 2 is zero in the first pivot column, is the untouched
# pivot row of the second and is back-substituted at the third
LAGGING_PIVOT_ROW_ABOVE = ExactMatrix(QQ, [[-2, 0, -1], [-1, 0, 0], [0, 1, 3]])


@settings(max_examples=400, deadline=None)
@given(st.one_of(sparse_rational_matrices(),
                 kernel_matrices(fields=[GF(3), GF(65521)])))
@example(ROW_ABOVE_UPDATED_LATER)
@example(LAGGING_PIVOT_ROW_ABOVE)
def test_reduced_elimination_matches_reference(A):
    """Forward and back, the elimination finds the reference pivots, and
    each row it leaves is a nonzero multiple of that row of the reduced
    echelon form, zero where that row is zero; over QQ a nonzero row is
    primitive or is an integer input row that no pivot updated."""
    p = A.field.p
    ref_R, ref_pivots = reference_rref(A)
    rows, pivots = exactfield._eliminate(A.field, A.data, A.cols, True)
    assert pivots == ref_pivots
    inputs = [exactfield._integer_row(row) for row in A.data] if p is None else []
    for row, ref in zip(rows, ref_R.data):
        assert all(type(x) is int for x in row)
        assert p is not None or not any(row) or gcd(*row) == 1 or row in inputs
        k = next((j for j, y in enumerate(ref) if y), None)
        if k is None:
            assert not any(row)
            continue
        c = row[k]   # ref[k] is 1
        if p is None:
            assert c and all(x == c * y for x, y in zip(row, ref))
        else:
            assert c % p and all((x - c * y) % p == 0 for x, y in zip(row, ref))


@settings(max_examples=200, deadline=None)
@given(sparse_rational_matrices(), sparse_rational_matrices(), st.data())
def test_rational_results_are_in_one_form(A, C, data):
    """Over QQ every operation gives each entry as an int where it is
    integral, also where Fractions add or multiply to an integer."""
    B = ExactMatrix.from_flat(QQ, A.rows, A.cols, data.draw(st.lists(
        _scalars(QQ), min_size=A.rows * A.cols, max_size=A.rows * A.cols)))
    c = data.draw(_scalars(QQ))
    results = [A + B, A - B, A - A, -A, A.scale(c), A.scale(1 / c if c else 0),
               A.kron(C), A @ A.transpose(), A.transpose() @ B]
    for M in results:
        assert has_canonical_scalars(M)
    a, b = A.data, B.data
    assert all((A + B).data[i][j] == a[i][j] + b[i][j] and
               (A - B).data[i][j] == a[i][j] - b[i][j]
               for i in range(A.rows) for j in range(A.cols))
    assert (A - A).data == [[0] * A.cols for _ in range(A.rows)]


# -- the sparse product against the dense reference ---------------------

def reference_matmul(A, B):
    """The dense reference product: each entry is the sum, from zero, of
    a * b over a row of A and a column of B, reduced mod p over GF(p)."""
    f = A.field
    data = []
    for row in A.data:
        sums = [sum((a * b[j] for a, b in zip(row, B.data)), 0)
                for j in range(B.cols)]
        data.append(sums if f.p is None else [x % f.p for x in sums])
    return A._new(data, B.cols)


@st.composite
def product_pairs(draw, max_dim=6):
    """Factors A (rows x k) and B (k x cols) over QQ, GF(2), GF(3) or
    GF(65521), with every dimension 0 drawn often, mostly-zero entries,
    and products whose sums cancel: A = (A0 | A0), B = (B0 ; -B0)."""
    f = draw(st.sampled_from(KERNEL_FIELDS))
    rows, k, cols = (draw(st.integers(0, max_dim)) for _ in range(3))
    if draw(st.booleans()):   # about one entry in four nonzero
        scalars = st.tuples(st.integers(0, 3), _scalars(f)).map(
            lambda t: t[1] if t[0] == 0 else 0)
    else:
        scalars = _scalars(f)

    def matrix(r, c):
        return ExactMatrix.from_flat(f, r, c, draw(st.lists(
            scalars, min_size=r * c, max_size=r * c)))

    A, B = matrix(rows, k), matrix(k, cols)
    cancel = draw(st.booleans())
    if cancel:
        A, B = A.hstack(A), B.vstack(-B)
    return A, B, cancel


@settings(max_examples=400, deadline=None)
@given(product_pairs())
# empty factors whose inner dimensions differ: a shape mismatch all the same
@example((ExactMatrix.zeros(QQ, 0, 2), ExactMatrix.zeros(QQ, 3, 0), False))
@example((ExactMatrix.zeros(GF(2), 2, 0), ExactMatrix.zeros(GF(2), 1, 4), False))
def test_matmul_matches_reference(case):
    A, B, cancel = case
    if A.cols != B.rows:
        with pytest.raises(ValueError, match="shape mismatch in product"):
            A @ B
        return
    C = A @ B
    assert C == reference_matmul(A, B)
    assert (C.rows, C.cols) == (A.rows, B.cols)
    assert all(len(row) == B.cols for row in C.data)
    if cancel:
        assert C.is_zero()
    assert has_canonical_scalars(C)


# -- the entrywise operations against per-entry references ----------------

@st.composite
def entrywise_cases(draw, max_dim=4):
    """Two matrices A, B of one shape, a matrix C of another and a
    scalar, over GF(2), GF(3) or GF(65521), with 0xn and nx0 shapes
    drawn often."""
    f = draw(st.sampled_from([GF(2), GF(3), GF(65521)]))

    def matrix(rows, cols):
        return ExactMatrix.from_flat(f, rows, cols, draw(st.lists(
            _scalars(f), min_size=rows * cols, max_size=rows * cols)))

    dims = st.integers(0, max_dim)
    rows, cols = draw(dims), draw(dims)
    return (matrix(rows, cols), matrix(rows, cols), matrix(draw(dims), draw(dims)),
            draw(st.integers(-f.p, 2 * f.p)))


@settings(max_examples=300, deadline=None)
@given(entrywise_cases())
def test_entrywise_ops_and_kron_match_reference_mod_p(case):
    A, B, C, c = case
    p = A.field.p
    a, b = A.data, B.data

    def entries(op):
        return [[op(i, j) % p for j in range(A.cols)] for i in range(A.rows)]

    for got, want in ((A + B, entries(lambda i, j: a[i][j] + b[i][j])),
                      (A - B, entries(lambda i, j: a[i][j] - b[i][j])),
                      (-A, entries(lambda i, j: -a[i][j])),
                      (A.scale(c), entries(lambda i, j: c * a[i][j]))):
        assert (got.rows, got.cols, got.data) == (A.rows, A.cols, want)
    K = A.kron(C)
    assert (K.rows, K.cols) == (A.rows * C.rows, A.cols * C.cols)
    assert all(K.data[i * C.rows + k][j * C.cols + l] == a[i][j] * C.data[k][l] % p
               for i in range(A.rows) for j in range(A.cols)
               for k in range(C.rows) for l in range(C.cols))
    assert all(type(x) is int and 0 <= x < p
               for M in (A + B, A - B, -A, A.scale(c), K)
               for row in M.data for x in row)
