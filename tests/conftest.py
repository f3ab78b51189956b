"""Shared fixtures: seeded random abstract morphism spaces, points, and
the projective-space instance grid used across the suite."""

import random
from fractions import Fraction
from functools import lru_cache

from mutation_forge.exactfield import (ExactMatrix, Field, Subspace, kernel_basis,
                                       kernel_coordinates, kernel_data,
                                       solve_linear)
from mutation_forge.theta import MAPS, MorphismPoint, ThetaSpace, act, in_W0
from mutation_forge.mutation import build_dual, default_choice, mutate
from mutation_forge.homdata import (HomData, Polarization, build_theta_p,
                                    dual_point_to_mutated,
                                    instance_left_element, mutated_instance,
                                    projective_space_hom_data,
                                    transpose_hom_data)

QQ = Field()


def is_canonical_scalar(field, x):
    """Whether x is a scalar of field in its one form: over QQ an int or
    a Fraction whose denominator is above 1, over GF(p) an int in
    0..p-1; a float, an integral Fraction or a bool never is."""
    if field.p is None:
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)
    return type(x) is int and 0 <= x < field.p


def has_canonical_scalars(M):
    """Whether every entry of the matrix M is in its one form."""
    return all(is_canonical_scalar(M.field, x) for row in M.data for x in row)


def rnd_matrix(field, rng, rows, cols, lo=-2, hi=2):
    if rows == 0 or cols == 0:
        return ExactMatrix.zeros(field, rows, cols)
    return ExactMatrix(field, [[field.of(rng.randint(lo, hi))
                                for _ in range(cols)] for _ in range(rows)])


def rnd_invertible(field, rng, n, lo=-2, hi=2, tries=200):
    if n == 0:
        return ExactMatrix.identity(field, 0)
    for _ in range(tries):
        m = rnd_matrix(field, rng, n, n, lo, hi)
        if m.rank() == n:
            return m
    raise RuntimeError("no invertible matrix found")


def random_point(theta, rng, lo=-2, hi=2):
    f = theta.field
    return MorphismPoint(theta,
                         rnd_matrix(f, rng, theta.dim_n1, theta.dim_mult, lo, hi),
                         rnd_matrix(f, rng, theta.dim_n2, theta.dim_mult, lo, hi),
                         rnd_matrix(f, rng, theta.dim_m1, 1, lo, hi),
                         rnd_matrix(f, rng, theta.dim_m2, 1, lo, hi))


def random_w0_point(theta, rng, tries=200, lo=-2, hi=2):
    for _ in range(tries):
        w = random_point(theta, rng, lo, hi)
        if in_W0(w):
            return w
    raise RuntimeError("no point of W0 found")


def reduce_mod(obj, field):
    """A rational ExactMatrix, HomData, ThetaSpace or MorphismPoint
    reduced into the prime field, entry by entry (field.of); a
    denominator that p divides is a NotInField error."""
    if isinstance(obj, ExactMatrix):
        return ExactMatrix.of_rows(field, [list(map(field.of, row)) for row in obj.data],
                                   obj.cols)
    if isinstance(obj, HomData):
        return HomData(field, obj.r, obj.s, obj.dimH, obj.dimA, obj.dimB,
                       *({k: reduce_mod(x, field) for k, x in comps.items()}
                         for comps in (obj.comp_HA, obj.comp_BH, obj.comp_AA, obj.comp_BB)))
    if isinstance(obj, ThetaSpace):
        # every dimension but dim N, which the constructor derives
        return ThetaSpace(field, *obj.dims()[:-1],
                          *(reduce_mod(getattr(obj, name), field) for name, _, _ in MAPS))
    if isinstance(obj, MorphismPoint):
        return MorphismPoint(reduce_mod(obj.theta, field),
                             *(reduce_mod(x, field) for x in obj.parts()))
    raise TypeError("cannot reduce %r" % (obj,))


# -- the subspace lattice, as references -------------------------------

def image_subspace(A):
    """Column span of A as a Subspace."""
    return Subspace(A.rows, A)


def subspace_sum(S, T):
    return Subspace(S.ambient_dim, S.basis.hstack(T.basis))


def subspace_contains(S, T):
    """Whether T is a subspace of S: every basis vector of T solves
    S.basis x = t."""
    if S.ambient_dim != T.ambient_dim:
        raise ValueError("ambient mismatch")
    return all(solve_linear(S.basis, ExactMatrix(
        S.field, [[row[j]] for row in T.basis.data])) is not None for j in range(T.dim))


def subspace_intersect(S, T):
    """S meet T from the kernel of (B_S | -B_T): x = B_S a = B_T b."""
    if S.dim == 0 or T.dim == 0:
        return Subspace(S.ambient_dim, ExactMatrix.zeros(S.field, S.ambient_dim, 0))
    K = kernel_basis(S.basis.hstack(-T.basis))
    return Subspace(S.ambient_dim, S.basis @ K.submatrix(range(S.dim), range(K.cols)))


def inclusion(field, n, coords):
    """The n x len(coords) inclusion of the coordinates coords: the
    section of a quotient presented with those complement coordinates."""
    return ExactMatrix.identity(field, n).submatrix(range(n), coords)


# -- Kronecker modules as instances -----------------------------------

def kronecker_instance(field, q, m, n):
    """The Kronecker module f : L (x) M -> N, dim L = q, dim M = m,
    dim N = n, as an instance: the type-(1, 1) Hom system with
    dim H_11 = q (P^(q-1) with e=(-1), f=(0); P^1 with e=(0), f=(0) for
    q = 1) at cut p = 0, whose one family block x[(1, 1)] is f, an
    n x (q*m) matrix in the lexicographic basis of L (x) M. Returns
    (inst, pol) with pol the slope polarization (1/m, 1/n)."""
    h = (projective_space_hom_data(field, q - 1, [-1], [0]) if q > 1
         else projective_space_hom_data(field, 1, [0], [0]))
    assert h.dimH[(1, 1)] == q
    inst = build_theta_p(h, [m], [n], 0)
    return inst, Polarization([Fraction(1, m)], [Fraction(1, n)], [m], [n])


def transposed_family(inst, fam):
    """(inst_t, fam_t): the transposed instance, of transpose_hom_data(h)
    with multiplicities (n reversed, m reversed) at cut 0, and the
    transpose of the family, whose block at (r + 1 - i, s + 1 - l) is
    x_(l,i) : H_li (x) M_i -> N_l read as H_li (x) N_l* -> M_i*, regrouped
    from [n_l] x [H_li, m_i] to [m_i] x [H_li, n_l]. Multiplicities with no
    instance at cut 0 are a ValueError of build_theta_p."""
    h = inst.h
    inst_t = build_theta_p(transpose_hom_data(h), inst.n_mult[::-1], inst.m_mult[::-1], 0)
    return inst_t, {(h.r + 1 - i, h.s + 1 - l): x.regroup(
        [inst.n_mult[l - 1]], [h.dimH[(l, i)], inst.m_mult[i - 1]], [2], [1, 0])
        for (l, i), x in fam.items()}


def mutated_point(inst, w):
    """(inst_hat, z): the mutated instance of inst and the mutation of w
    (default choice) as a point of it; p = 0 and s = 1 only."""
    z = mutate(build_dual(inst.theta), w, default_choice(w))
    inst_hat = mutated_instance(inst.h, inst.m_mult, inst.n_mult, inst.p)
    return inst_hat, dual_point_to_mutated(inst, inst_hat, z)


def assert_double_mutation_returns(inst, w):
    """Mutate the Kronecker point w twice and certify that the result is
    in w's GL(N) orbit by a constructed element, with no search: the
    instance mutated twice has inst's theta, the family x'' after two
    mutations is the transposed canonical kernel basis of the family x'
    after one, so kernel_coordinates reads off the g with g x'' = f
    (f = w's family), and acting by g on the double mutation gives w."""
    inst_hat, z = mutated_point(inst, w)
    inst_hh, zz = mutated_point(inst_hat, z)
    assert inst_hh.theta == inst.theta
    K, free = kernel_data(inst_hat.family_from_point(z)[(1, 1)])
    assert zz.psi2.transpose() == K.transpose()
    f = inst.family_from_point(w)[(1, 1)]
    g = kernel_coordinates(K, free, f.transpose(),
                           "f is not in the span of x''").transpose()
    assert g.rank() == f.rows
    assert act(instance_left_element(inst, g_m=g), zz) == w


# -- the seeded pool of small rational instances ----------------------

def _kronecker_degenerate(rng, n2, mult):
    f = QQ
    z = ExactMatrix.zeros(f, 0, 0)
    return ThetaSpace(f, 0, n2, 0, 0, 0, 0, mult, z, z, z, z)


def _a0_zero(rng, mult):
    f = QQ
    n1, n2, m1, m2, b0 = 2, 3, 2, 2, 1
    rho1 = rnd_matrix(f, rng, m1, b0 * n1)
    while True:
        rho2 = rnd_matrix(f, rng, m2, b0 * n2)
        if rho2.rank() == m2:
            break
    mu = ExactMatrix.zeros(f, m1, 0)
    nu = ExactMatrix.zeros(f, n1, 0)
    return ThetaSpace(f, n1, n2, m1, m2, 0, b0, mult, rho1, rho2, mu, nu)


def _b0_zero(rng, mult):
    f = QQ
    n1, n2, a0 = 3, 3, 2
    rho1 = ExactMatrix.zeros(f, 0, 0)
    rho2 = ExactMatrix.zeros(f, 0, 0)
    mu = ExactMatrix.zeros(f, 0, 0)
    while True:
        nu = rnd_matrix(f, rng, n1, n2 * a0)
        t = ThetaSpace(f, n1, n2, 0, 0, a0, 0, mult, rho1, rho2, mu, nu)
        if t.nu_bar().rank() == a0:
            return t


@lru_cache(maxsize=None)
def full_p1_instance():
    """A projective-line type-(2,2) instance with every space nonzero
    and all dimensions at most 4."""
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    return build_theta_p(h, [1, 1], [1, 1], 1)


def theta_pool(seed, count):
    """A deterministic mixed pool of small rational instances."""
    rng = random.Random(seed)
    full = full_p1_instance().theta
    out = []
    builders = [
        lambda: _kronecker_degenerate(rng, rng.choice((3, 4)),
                                      rng.choice((1, 2))),
        lambda: _a0_zero(rng, rng.choice((1, 2))),
        lambda: _b0_zero(rng, rng.choice((1, 2))),
        lambda: full,
    ]
    for k in range(count):
        out.append(builders[k % 4]())
    return out


# -- the projective-space instance grid -------------------------------

PN_PATTERNS = [
    ((-2, -1), (0,)),
    ((-2,), (0, 1)),
    ((-3, -2, -1), (0,)),
    ((-2, -1), (0, 1)),
    ((-2,), (0, 1, 2)),
    ((-1,), (0, 1, 2)),
    ((-3,), (0,)),
    ((-1,), (0,)),
]


def pn_grid():
    """(n, e, f, p) for every pattern, 1 <= n <= 3, 0 <= p < r."""
    out = []
    for n in (1, 2, 3):
        for e, fl in PN_PATTERNS:
            for p in range(len(e)):
                out.append((n, e, fl, p))
    return out


@lru_cache(maxsize=None)
def pn_hom(n, e, fl):
    return projective_space_hom_data(QQ, n, list(e), list(fl))


@lru_cache(maxsize=None)
def pn_instance(n, e, fl, p):
    h = pn_hom(n, e, fl)
    return build_theta_p(h, [1] * h.r, [1] * h.s, p)


@lru_cache(maxsize=None)
def pn_mutated(n, e, fl, p):
    h = pn_hom(n, e, fl)
    return mutated_instance(h, [1] * h.r, [1] * h.s, p)


_DUALS = {}


def dual_of(theta):
    key = id(theta)
    if key not in _DUALS:
        _DUALS[key] = build_dual(theta)
    return _DUALS[key]
