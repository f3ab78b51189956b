"""Genericity, length, delta, and the c-constant machinery.

For a linear map tau : E (x) H -> F and a multiplicity space M of
dimension m, set tau_m = tau (x) I_M.  A subspace K of H (x) M is
generic when it is proper and not contained in any H (x) M' with M'
proper; for generic K,

    delta(K) = codim(tau_m(E (x) K)) / codim(K)

and c_tau(m) is the supremum of delta over generic subspaces.  The true
supremum over all subspaces in characteristic zero is not computable;
searches report a certified witness lower bound plus a scan maximum and
never conflate the two.
"""

import json
import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress
from math import lcm
from operator import xor

from .exactfield import (ExactMatrix, Subspace, _forward_rank, _parity_rows,
                         gaussian_binomial, packing, subspace_bases, xor_rank)
from .homdata import _monomials
from .theta import scalar_to_str, vec_row_major


class TauMap:
    """A linear map tau : E (x) H -> F, stored as a dim_f-by-
    (dim_e * dim_h) matrix in the lexicographic basis of E (x) H."""

    def __init__(self, field, dim_e, dim_h, dim_f, tau):
        if tau.rows != dim_f or tau.cols != dim_e * dim_h:
            raise ValueError("tau has shape %dx%d, expected %dx%d"
                             % (tau.rows, tau.cols, dim_f, dim_e * dim_h))
        self.field = field
        self.dim_e = dim_e
        self.dim_h = dim_h
        self.dim_f = dim_f
        self.tau = tau

    def __repr__(self):
        return "TauMap(E=%d, H=%d, F=%d)" % (self.dim_e, self.dim_h, self.dim_f)


def length(u, dim_h, m):
    """Length of a vector of H (x) M: the rank of u as a map H* -> M,
    the minimal number of split terms in any expansion. The zero vector
    has length 0 by convention."""
    if u.rows != dim_h * m or u.cols != 1:
        raise ValueError("expected a column vector of H (x) M")
    return u.regroup([dim_h, m], [1], [0], [1, 2]).rank()


def _spans_m(B, dim_h, m):
    """Whether the M-components of the columns of B, read as maps
    H* -> M, span M: the genericity of the span of B."""
    return B.regroup([dim_h, m], [B.cols], [1], [2, 0]).rank() == m


def is_generic(K, dim_h, m):
    """Whether a proper subspace K of H (x) M is generic: not contained
    in H (x) M' for any proper M'."""
    if K.ambient_dim != dim_h * m:
        raise ValueError("subspace does not live in H (x) M")
    _require_proper(K.dim, K.ambient_dim)
    return _spans_m(K.basis, dim_h, m)


def _require_proper(dim_k, ambient):
    if dim_k >= ambient:
        raise ValueError("genericity is defined for proper subspaces only")


def _tau_m(t, m):
    """The layout of tau_m = tau (x) I_M, read off tau's nonzero terms: for
    each row (f, mu) of F (x) M, f major, the list of (e, h*m + mu, x), one
    for each nonzero x = tau[f][e*dim_h + h]. For K the span of the k
    columns of B (rows h*m + mu of H (x) M), tau_m(E (x) K) is spanned by
    the columns (e, j), e major, of the (F (x) M)-by-(E (x) k) matrix whose
    row (f, mu) has, in its block e, the sum of x times row h*m + mu of B
    over the terms of the row. Over QQ, tau is first scaled by the lcm of
    its denominators, so every x is an int: a nonzero scalar leaves that
    span, and so its dimension, unchanged."""
    terms = [(f, c, row[c]) for f, row in enumerate(t.tau.data)
             for c in compress(range(t.tau.cols), row)]
    den = lcm(*(x.denominator for _, _, x in terms if type(x) is Fraction))
    rows = [[] for _ in range(t.dim_f * m)]
    for f, c, x in terms:
        e, h = divmod(c, t.dim_h)
        x = int(x * den)
        for mu in range(m):
            rows[f * m + mu].append((e, h * m + mu, x))
    return rows


def _image_rank(t, tau_m, B):
    """dim tau_m(E (x) K) for the span K of B, from the rows that _tau_m
    lays out. Over QQ and GF(2), and when B holds no Fraction (its rows
    may not be scaled, as its columns could), each row of B is packed
    mod 2 into one int, and row (f, mu) of the image mod 2 is the XOR of
    packed row h*m + mu of B shifted to block e over tau's odd terms.
    Over GF(2) its XOR rank is the rank; over QQ it is the rank when it
    is full, min(rows, columns), which is a certificate: an odd minor of
    an integer matrix is not zero. Otherwise, and over GF(p) for p > 2,
    the image rows are summed exactly from the same terms and
    eliminated."""
    k = B.cols
    width = t.dim_e * k
    field = t.field
    if field.p is None or field.p == 2:
        try:
            packed = _parity_rows(B.data)
        except TypeError:   # a Fraction
            pass
        else:
            rank = xor_rank([reduce(xor, [packed[b] << e * k
                                          for e, b, x in terms if x & 1], 0)
                             for terms in tau_m])
            if field.p == 2 or rank == min(len(tau_m), width):
                return rank
    rows = []
    for terms in tau_m:
        row = [0] * width
        for e, b, x in terms:
            lo = e * k
            row[lo:lo + k] = [y + x * z for y, z in zip(row[lo:lo + k], B.data[b])]
        rows.append(row)
    return _forward_rank(field, rows, width)


def _delta(t, tau_m, B, dim_k, m):
    """delta of the span K of B, given dim_k = dim K and tau_m = _tau_m(t, m)."""
    return Fraction(t.dim_f * m - _image_rank(t, tau_m, B),
                    t.dim_h * m - dim_k)


def delta(t, K, m):
    """delta(K) = codim(tau_m(E (x) K)) / codim(K), exact."""
    if not is_generic(K, t.dim_h, m):
        raise ValueError("delta is defined for generic subspaces only")
    return _delta(t, _tau_m(t, m), K.basis, K.dim, m)


# -- the maps sigma_0 and sigma_1 -------------------------------------

# The most cells the dense matrix of sigma_0 or sigma_1, or a random
# draw of c_tau_search (dim H (x) M rows, fewer columns), may have.
TAU_CELLS = 10 ** 7


def _quadrics(n):
    """The monomial basis of S^2 V for dim V = n+1, n >= 1. Both sigma_0
    and sigma_1 are dense matrices of (n+1)^3 (n+2) / 2 cells; a size
    above TAU_CELLS = 10^7 cells (n above 65) is a ValueError, raised
    before any monomial is listed."""
    if n < 1:
        raise ValueError("n must be positive, got %d" % n)
    cells = (n + 1) ** 3 * (n + 2) // 2
    if cells > TAU_CELLS:
        raise ValueError("sigma for n = %d has %d cells, above the %d allowed"
                         % (n, cells, TAU_CELLS))
    return _monomials(n + 1, 2)


def sigma0(field, n):
    """sigma_0 : S^2 V (x) V* -> V for dim V = n+1, in the coefficient-
    one monomial-division convention (conjugate to the derivative
    convention by a diagonal change of basis, which leaves every rank
    and codimension unchanged)."""
    deg2 = _quadrics(n)
    deg1 = {mono: y for y, mono in enumerate(_monomials(n + 1, 1))}
    f = field
    tau = ExactMatrix.zeros(f, n + 1, len(deg2) * (n + 1))
    for q, mono in enumerate(deg2):
        for a in range(n + 1):
            if mono[a] == 0:
                continue
            rem = list(mono)
            rem[a] -= 1
            tau.data[deg1[tuple(rem)]][q * (n + 1) + a] = 1
    return TauMap(f, len(deg2), n + 1, n + 1, tau)


def sigma1(field, n):
    """sigma_1 : V (x) V -> S^2 V for dim V = n+1 (monomial
    multiplication)."""
    deg2 = {mono: q for q, mono in enumerate(_quadrics(n))}
    f = field
    tau = ExactMatrix.zeros(f, len(deg2), (n + 1) * (n + 1))
    for a in range(n + 1):
        for b in range(n + 1):
            mono = [0] * (n + 1)
            mono[a] += 1
            mono[b] += 1
            tau.data[deg2[tuple(mono)]][a * (n + 1) + b] = 1
    return TauMap(f, n + 1, n + 1, len(deg2), tau)


def c_formula(which, n, m):
    """Closed forms of the constants attached to sigma_0 and sigma_1:

        c_0(m) = m(m-1) / (2(m(n+1)-1))        for m <= n+1,
                 (n+1) / (2(n+2))              for m >= n+1,
        c_1(m) = (n+1)(m(n+2)-2) / (2(m(n+1)-1))  for m <= n+1,
                 (n+1)(n+3) / (2(n+2))            for m >= n+1.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if which == 0:
        if m <= n + 1:
            return Fraction(m * (m - 1), 2 * (m * (n + 1) - 1))
        return Fraction(n + 1, 2 * (n + 2))
    if which == 1:
        if m <= n + 1:
            return Fraction((n + 1) * (m * (n + 2) - 2), 2 * (m * (n + 1) - 1))
        return Fraction((n + 1) * (n + 3), 2 * (n + 2))
    raise ValueError("which must be 0 or 1")


def witness_subspace(t, m):
    """The length-min(m, dim H) rank-one-sum witness: the span of
    h_1 (x) x_1 + ... + h_d (x) x_d, the vec of the first d columns of
    the identity of H.  Generic exactly when d = m, i.e. m <= dim H;
    returns None otherwise. That vec is one column whose first nonzero
    entry is 1, its own canonical basis."""
    if m > t.dim_h:
        return None
    h = ExactMatrix.identity(t.field, t.dim_h).submatrix(range(t.dim_h), range(m))
    return Subspace._from_canonical(vec_row_major(h))


class SearchReport:
    """Outcome of a c_tau search: the certified witness lower bound,
    the scan maximum (exhaustive over a finite field when within
    budget, else a seeded random scan), and bookkeeping."""

    def __init__(self, witness_value, max_found, mode, samples, seed,
                 empty_sup=False, reference=None):
        self.witness_value = witness_value
        self.max_found = max_found
        self.mode = mode
        self.samples = samples
        self.seed = seed
        self.empty_sup = empty_sup
        self.reference = reference

    @property
    def exceeds_reference(self):
        if self.reference is None or self.max_found is None:
            return False
        return self.max_found > self.reference

    def to_json(self):
        def frac(x):
            return None if x is None else scalar_to_str(x)
        return {
            "witness_value": frac(self.witness_value),
            "max_found": frac(self.max_found),
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "empty_sup": self.empty_sup,
            "reference": frac(self.reference),
            "exceeds_reference": self.exceeds_reference,
        }

    def __repr__(self):
        return "SearchReport(%s)" % json.dumps(self.to_json(), sort_keys=True)


def _random_generic_spans(t, m, samples, seed):
    """Seeded random spanning matrices of proper subspaces of H (x) M
    over the rationals, with entries drawn from {-1, 0, 1}, rational
    scalars in their one form as drawn, each with the dimension of its
    span; draws whose span is not generic are skipped."""
    rng = random.Random(seed)
    ambient = t.dim_h * m
    produced = 0
    attempts = 0
    while produced < samples and attempts < 50 * samples:
        attempts += 1
        k = rng.randint(1, ambient - 1)
        rows = [[rng.choice((-1, 0, 1)) for _ in range(k)] for _ in range(ambient)]
        B = ExactMatrix.of_rows(t.field, rows, k)
        if not _spans_m(B, t.dim_h, m):
            continue
        produced += 1
        yield B, B.rank()


def c_tau_search(t, m, budget=10 ** 5, seed=0, samples=1000, reference=None):
    """Search for c_tau(m): certified witness lower bound plus either an
    exhaustive finite-field subspace scan (when the subspace count fits
    the budget) or a seeded random scan over the rationals. Genericity
    is checked once per candidate, and random draws are scored on their
    spanning matrices, never put in canonical form."""
    ambient = t.dim_h * m
    p = t.field.p
    if p is not None:
        # counted until the count passes the budget; the lines alone number
        # 2^ambient - 1 or more, so a longer ambient is refused uncounted
        counts = accumulate(gaussian_binomial(p, ambient, d) for d in range(1, ambient))
        if ambient > budget.bit_length() + 1 or any(c > budget for c in counts):
            raise ValueError("exhaustive scan budget exceeded: more than %d subspaces"
                             % budget)
        mode = "exhaustive-gf%d" % p
        columns = packing(t.field).columns
        bases = (columns(basis, ambient) for d in range(1, ambient)
                 for basis in subspace_bases(t.field, ambient, d))
        spans = ((B, B.cols) for B in bases if _spans_m(B, t.dim_h, m))
    else:
        if ambient * (ambient - 1) > TAU_CELLS:   # refused before any draw
            raise ValueError("random draws in H (x) M of dim %d may have %d cells, "
                             "above the %d allowed"
                             % (ambient, ambient * (ambient - 1), TAU_CELLS))
        mode = "random-rational"
        spans = _random_generic_spans(t, m, samples, seed)
    # dim F * m rows, built once the size of H (x) M has been checked
    tau_m = _tau_m(t, m)
    wit = witness_subspace(t, m)
    witness_value = None
    if wit is not None:
        # generic by construction (m <= dim H), so only properness is checked
        _require_proper(wit.dim, ambient)
        witness_value = _delta(t, tau_m, wit.basis, wit.dim, m)
    # a running count and maximum: the scan keeps no delta
    scored, max_found = 0, None
    for B, d in spans:
        value = _delta(t, tau_m, B, d, m)
        scored += 1
        if max_found is None or value > max_found:
            max_found = value
    empty = not scored and witness_value is None
    if empty:
        max_found = Fraction(0)
    return SearchReport(witness_value, max_found, mode, scored, seed,
                        empty_sup=empty, reference=reference)


def tau_rs(h):
    """The map tau : H_11* (x) A_21 -> H_12* of a type-(2,1) Hom
    system, deduced from the composition tau* : H_12 (x) A_21 -> H_11
    by dualizing the outer factors."""
    if (h.r, h.s) != (2, 1):
        raise ValueError("tau is defined for type-(2,1) Hom systems")
    f = h.field
    d11, d12, da = h.dimH[(1, 1)], h.dimH[(1, 2)], h.dimA[(2, 1)]
    tau = h.comp_HA[(1, 2, 1)].regroup([d11], [d12, da], [1], [0, 2])
    return TauMap(f, d11, da, d12, tau)


def c_tau_rs(h, m2, budget=10 ** 5, seed=0, samples=1000, reference=None):
    """c_tau_search applied to the tau of a type-(2,1) Hom system;
    genericity lives in the A_21 (x) C^m2 factor. A zero A_21 gives the
    empty-sup convention c = 0, flagged."""
    t = tau_rs(h)
    if t.dim_h == 0:
        return SearchReport(None, Fraction(0), "empty", 0, seed,
                            empty_sup=True, reference=reference)
    return c_tau_search(t, m2, budget=budget, seed=seed,
                        samples=samples, reference=reference)
