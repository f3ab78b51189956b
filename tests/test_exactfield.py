"""Exact linear algebra over the rationals and prime fields."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from mutation_forge.exactfield import (ExactMatrix, Field, GF, Subspace,
                                       column_echelon, enumerate_subspaces,
                                       gaussian_binomial, image_subspace,
                                       kernel_basis, quotient_data,
                                       solve_linear)
from mutation_forge.mutation import swap_matrix
from conftest import rnd_matrix, rnd_invertible

QQ = Field()


def test_field_arithmetic_rational():
    f = QQ
    a, b = f.of(Fraction(2, 3)), f.of(Fraction(-1, 6))
    assert f.add(a, b) == Fraction(1, 2)
    assert f.mul(a, b) == Fraction(-1, 9)
    assert f.inv(a) == Fraction(3, 2)
    assert f.div(a, b) == -4


def test_field_arithmetic_gf():
    f = GF(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(3) == 2
    assert sorted(f.elements()) == [0, 1, 2, 3, 4]
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


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
    e = lambda i: ExactMatrix.column(f, [1 if j == i else 0 for j in range(4)])
    S = image_subspace(e(0).hstack(e(1)))
    T = image_subspace(e(1).hstack(e(2)))
    assert S.dim == 2 and T.dim == 2
    assert S.sum(T).dim == 3
    assert S.intersect(T).dim == 1
    assert S.contains(S.intersect(T))
    assert Subspace.full(f, 4).contains(S)
    assert S.contains(Subspace.zero(f, 4))


def test_quotient_data_is_a_splitting():
    rng = random.Random(5)
    B = rnd_matrix(QQ, rng, 5, 2)
    S = image_subspace(B)
    proj, section = quotient_data(5, S)
    q = 5 - S.dim
    assert proj @ section == ExactMatrix.identity(QQ, q)
    assert (proj @ S.basis).is_zero()


def test_gaussian_binomial_counts_subspaces():
    for q in (2, 3):
        for n in (2, 3, 4):
            for d in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(q, n, d))
                assert count == gaussian_binomial(q, n, d)


def test_enumerate_subspaces_budget():
    with pytest.raises(ValueError):
        list(enumerate_subspaces(3, 8, 4, budget=10))


def test_enumerate_subspaces_distinct():
    seen = set(enumerate_subspaces(2, 4, 2))
    assert len(seen) == gaussian_binomial(2, 4, 2) == 35


# -- tensor index maps against the dense reference ----------------------

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
