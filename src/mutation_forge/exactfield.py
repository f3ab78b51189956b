"""Exact linear algebra over the rationals and over prime fields GF(p).

Everything downstream (morphism spaces, mutations, stability oracles) is
built on the two types defined here: ExactMatrix and Subspace. All
arithmetic is exact: over the rationals an integral value is an int and
any other a Fraction, over GF(p) a value is an int mod p. There is no
floating point anywhere in this package, and no true division in this
module. Over a prime field a vector can also be packed, into one int over
GF(2) and a tuple of residues over GF(p), p > 2 (packing): the only
place where that choice is made.
"""

import functools
from fractions import Fraction
from itertools import combinations, compress, product
from math import gcd, isqrt, lcm, prod
from operator import xor


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


class NotInField(ValueError, ZeroDivisionError):
    """A quotient whose denominator is zero in the field: bad input (a
    ValueError) and a division by zero."""


class Field:
    """A base field: the rationals (p is None) or GF(p) for a prime p < 2^16.

    Scalars have one form each. Over the rationals an integral value is
    a plain int and only a non-integral one is a Fraction (its
    denominator > 1); over GF(p) a scalar is an int in 0..p-1, so zero
    and one are 0 and 1 in every field. The Field object coerces values
    into that form (of) and lists its elements; the arithmetic on
    scalars is done by ExactMatrix and the elimination below, which give
    their results in the same form, with the reduction mod p written
    where it happens.
    """

    def __init__(self, p=None):
        if p is not None:
            # the size first: trial division of a large p would not end
            if p >= 1 << 16:
                raise ValueError("prime fields require p < 2^16")
            if not _is_prime(p):
                raise ValueError("field characteristic must be prime, got %r" % (p,))
        self.p = p

    def of(self, v):
        """Coerce an int or Fraction into the field. A field element is
        passed through: an int over QQ is returned as it is, and an int
        over GF(p) is only reduced mod p. Over QQ an integral Fraction
        becomes its int; over GF(p) a Fraction is reduced by ratio, so
        its denominator must be prime to p."""
        p = self.p
        if p is None:
            if type(v) is int:
                return v
            return _canonical(v if type(v) is Fraction else Fraction(v))
        if type(v) is int:
            return v % p
        if isinstance(v, Fraction):
            return self.ratio(v.numerator, v.denominator)
        return int(v) % p

    def ratio(self, num, den):
        """The element num/den for ints num and den as written. A zero
        denominator, or over GF(p) one that p divides, names no element
        and is a NotInField error; den is tested before anything is
        reduced, so 3/3 is no element of GF(3)."""
        p = self.p
        if den == 0 or (p is not None and den % p == 0):
            raise NotInField("%d/%d is not an element of %r" % (num, den, self))
        if p is None:
            return _quotient(num, den)
        return num * pow(den, p - 2, p) % p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else "GF(%d)" % self.p


QQ = Field()


def _canonical(x):
    """The rational x (an int or a Fraction) in its one form: its int
    when it is integral, else the Fraction itself."""
    return x.numerator if x.denominator == 1 else x


def _quotient(num, den):
    """The rational num/den of ints, den nonzero, in its one form."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def GF(p):
    return Field(p)


def field_tag(field):
    """The name of a field in files and configs: "rationals" or "gf:p"."""
    return "rationals" if field.p is None else "gf:%d" % field.p


def field_from_tag(tag):
    """The field named by a field_tag. Anything other than "rationals" or
    "gf:p" for a prime p < 2^16 is a ValueError."""
    if tag == "rationals":
        return Field()
    if isinstance(tag, str) and tag.startswith("gf:") and tag[3:].isdigit():
        return Field(int(tag[3:]))
    raise ValueError("field must be rationals or gf:p, got %r" % (tag,))


class ExactMatrix:
    """A matrix over a Field, stored densely as lists of rows. Immutable
    by convention: no method mutates self; all operations return new
    matrices.

    The product scans each factor once and multiplies only nonzero
    entries, so the mostly-zero matrices of dual spaces and mutations
    cost what their nonzeros cost.

    Every result holds its scalars in the one form that Field.of gives:
    over QQ an integral entry is an int, so a matrix of integers is
    multiplied and eliminated as ints, and only a non-integral entry is
    a Fraction.

    Elimination (rref, rank and everything built on them) works on
    Python ints, in one fraction-free Gauss-Jordan loop that updates only
    the rows it changes: over QQ on rows cleared of their denominators,
    each updated row piv*x - a*y divided by its content, which is exact
    and keeps the row's zeros and so the pivots; over GF(p) on the
    residues with the reduction mod p written inline. rank over QQ and
    GF(2) is first read mod 2, as its docstring says."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data):
        self.field = field
        self.data = [[field.of(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of_rows(field, data, cols):
        """The matrix whose rows are data, rows of field elements cols
        long, taken as they are: no entry is coerced again."""
        m = ExactMatrix.__new__(ExactMatrix)
        m.field = field
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @staticmethod
    def zeros(field, rows, cols):
        return ExactMatrix.of_rows(field, [[0] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(field, n):
        m = ExactMatrix.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @staticmethod
    def from_flat(field, rows, cols, flat):
        if len(flat) != rows * cols:
            raise ValueError("flat length mismatch")
        m = ExactMatrix(field, [flat[r * cols:(r + 1) * cols] for r in range(rows)])
        m.cols = cols
        return m

    def _new(self, data, cols=None):
        return ExactMatrix.of_rows(self.field, data,
                                   len(data[0]) if data else (cols or 0))

    def copy_data(self):
        return [row[:] for row in self.data]

    # -- arithmetic ---------------------------------------------------

    def _check_same_field(self, other):
        if self.field != other.field:
            raise ValueError("mixed fields: %r vs %r" % (self.field, other.field))

    def _check_same_shape(self, other, what):
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in " + what)

    def _reduced(self, data):
        """A matrix of self's shape from entries computed with plain
        operators: reduced mod p over GF(p), in their one form over QQ."""
        p = self.field.p
        if p is None:
            data = [[x if type(x) is int else _canonical(x) for x in row]
                    for row in data]
        else:
            data = [[x % p for x in row] for row in data]
        return self._new(data, self.cols)

    def __add__(self, other):
        self._check_same_shape(other, "addition")
        return self._reduced([[a + b for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_same_shape(other, "subtraction")
        return self._reduced([[a - b for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        return self._reduced([[-a for a in row] for row in self.data])

    def scale(self, c):
        c = self.field.of(c)
        return self._reduced([[c * a for a in row] for row in self.data])

    def __matmul__(self, other):
        """self @ other, row by row: every nonzero a = self[i][k] adds
        a * b into entry j of row i for every nonzero b = other[k][j].
        Over QQ a sum is put in its one form (the int 0 where nothing or
        a cancelling sum lands), over GF(p) it is reduced mod p once."""
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        p = f.p
        n = other.cols
        if not (self.rows and self.cols and n):   # nothing to multiply
            return ExactMatrix.zeros(f, self.rows, n)
        # the nonzero (j, b) of every row of other, listed once
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for r in self.data:
            acc = {}
            for a, terms in zip(r, sparse):
                if terms and a:
                    for j, b in terms:
                        if j in acc:
                            acc[j] += a * b
                        else:
                            acc[j] = a * b
            row = [0] * n
            if p is None:
                for j, x in acc.items():
                    row[j] = x if type(x) is int else _canonical(x)
            else:
                for j, x in acc.items():
                    row[j] = x % p
            out.append(row)
        return ExactMatrix.of_rows(f, out, n)

    def transpose(self):
        if self.rows == 0 or self.cols == 0:
            return ExactMatrix.zeros(self.field, self.cols, self.rows)
        return self._new([list(col) for col in zip(*self.data)])

    def kron(self, other):
        """Kronecker product, left factor major (matches the lexicographic
        tensor basis convention used throughout): self's entries as one
        column times other's as one row, regrouped to rows (i, k) and
        columns (j, l)."""
        (r1, c1), (r2, c2) = (self.rows, self.cols), (other.rows, other.cols)
        outer = self.regroup([r1], [c1], [0, 1], []) @ other.regroup([r2], [c2], [], [0, 1])
        return outer.regroup([r1, c1], [r2, c2], [0, 2], [1, 3])

    # -- tensor index maps --------------------------------------------

    def regroup(self, row_dims, col_dims, rows, cols):
        """Read self as a tensor with legs row_dims then col_dims (left
        factor major, as everywhere) and return the matrix whose row legs
        are the legs numbered in rows and whose column legs are those
        numbered in cols, in the order given: a reshape, transpose and
        reshape done as an index map that copies only the nonzero entries,
        found by compress, into a fresh zero matrix, so the Python work on
        the mostly-zero structure matrices is per nonzero entry. The index
        map is built once per leg signature (_regroup_map); the shape is
        checked on every call."""
        shape, (n_rows, n_cols), row_r, row_c, col_r, col_c = _regroup_map(
            tuple(row_dims), tuple(col_dims), tuple(rows), tuple(cols))
        if shape != (self.rows, self.cols):
            raise ValueError("legs %r x %r do not fit a %dx%d matrix"
                             % (list(row_dims), list(col_dims), self.rows, self.cols))
        data = [[0] * n_cols for _ in range(n_rows)]
        columns = range(self.cols)
        for row, rr, rc in zip(self.data, row_r, row_c):
            for j in compress(columns, row):
                data[rr + col_r[j]][rc + col_c[j]] = row[j]
        return ExactMatrix.of_rows(self.field, data, n_cols)

    def apply_leg(self, col_dims, leg, x):
        """self @ (I (x) x (x) I) with x on column leg number leg of
        col_dims: that leg is regrouped into the columns of one small
        product and back, so the Kronecker product is never built."""
        k = len(col_dims)
        others = [a for a in range(k + 1) if a != leg + 1]
        moved = self.regroup([self.rows], col_dims, others, [leg + 1]) @ x
        dims = [self.rows] + [d for a, d in enumerate(col_dims) if a != leg]
        return moved.regroup(dims, [x.cols], [0],
                             list(range(1, leg + 1)) + [k] + list(range(leg + 1, k)))

    def hstack(self, other):
        self._check_same_field(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return self._new([r1 + r2 for r1, r2 in zip(self.data, other.data)],
                         self.cols + other.cols)

    def vstack(self, other):
        self._check_same_field(other)
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return self._new(self.copy_data() + other.copy_data(), self.cols)

    def submatrix(self, row_idx, col_idx):
        col_idx = list(col_idx)
        return self._new([[self.data[i][j] for j in col_idx] for i in row_idx],
                         len(col_idx))

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols,
                     tuple(tuple(r) for r in self.data)))

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __repr__(self):
        return "ExactMatrix(%r, %r)" % (self.field, self.data)

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form. Returns (R, pivot_columns).

        The Gauss-Jordan of _eliminate, forward and back, leaves each
        pivot row over GF(p) reduced, and over QQ an integer multiple of
        its reduced row (primitive where a pivot updated it), which is
        then divided by its pivot once: each entry an int where the pivot
        divides it and a Fraction elsewhere."""
        rows, pivots = _eliminate(self.field, self.data, self.cols, True)
        if self.field.p is None:
            for i, c in enumerate(pivots):
                row = rows[i]
                piv = row[c]
                rows[i] = [_quotient(x, piv) if x else 0 for x in row]
        return self._new(rows, self.cols), pivots

    def rank(self):
        """Rank. Over QQ and GF(2) the rows are first reduced mod 2, over
        QQ once cleared of their denominators, and the XOR rank of their
        parities is taken (_parity_rank). Over GF(2) that is the rank.
        Over QQ it is the rank when it is full, min(rows, cols), which is
        a certificate: the parities then have an r x r minor that is 1 mod
        2, so the same minor of the integer rows is an odd integer, not
        zero, and a row scaled by a nonzero integer spans the same line.
        Any other rank, and any rank over GF(p) for p > 2, is the number
        of pivots of the forward half of _eliminate (_forward_rank)."""
        full = min(self.rows, self.cols)
        if full == 0:
            return 0
        p = self.field.p
        if p is None or p == 2:
            r = _parity_rank(self.data)
            if r == full or p == 2:
                return r
        return _forward_rank(self.field, self.data, self.cols)


@functools.lru_cache(maxsize=None)
def _regroup_map(row_dims, col_dims, rows, cols):
    """The index map of ExactMatrix.regroup for one leg signature, given
    as tuples: the input shape, the output shape, and the offsets that an
    input row and an input column add to the output row and column
    index. A signature that does not name every leg once is a ValueError,
    raised on every call (exceptions are not cached)."""
    dims = row_dims + col_dims
    if sorted(rows + cols) != list(range(len(dims))):
        raise ValueError("rows and cols must name every leg exactly once")
    # stride of every leg in the output row index and column index
    rstride = [0] * len(dims)
    cstride = [0] * len(dims)
    for group, stride in ((rows, rstride), (cols, cstride)):
        s = 1
        for leg in reversed(group):
            stride[leg] = s
            s *= dims[leg]

    def offsets(legs):
        r_off, c_off = [0], [0]
        for leg in legs:
            d, sr, sc = dims[leg], rstride[leg], cstride[leg]
            r_off = [o + k * sr for o in r_off for k in range(d)]
            c_off = [o + k * sc for o in c_off for k in range(d)]
        return tuple(r_off), tuple(c_off)

    row_r, row_c = offsets(range(len(row_dims)))
    col_r, col_c = offsets(range(len(row_dims), len(dims)))
    return ((prod(row_dims), prod(col_dims)),
            (prod(dims[leg] for leg in rows), prod(dims[leg] for leg in cols)),
            row_r, row_c, col_r, col_c)


def _integer_row(row):
    """A new row of ints: a row of rationals scaled by the lcm of its
    denominators, so a row of ints is copied as it is."""
    if Fraction not in set(map(type, row)):
        return row[:]
    den = lcm(*{x.denominator for x in row if type(x) is Fraction})
    return [x * den if type(x) is int else x.numerator * (den // x.denominator)
            for x in row]


def _parity_rows(rows):
    """The parities of each of the nonempty rows of ints packed into one
    int, the first entry the highest bit. A Fraction has no parity: a
    TypeError."""
    return [int("".join(["1" if x & 1 else "0" for x in row]), 2) for row in rows]


def _parity_rank(data):
    """The rank over GF(2) of the parities of the rows of data, nonempty
    rows of equal length over QQ or GF(2), each row packed into one int.
    Rows of ints are read as they are; when a row holds a Fraction, which
    has no parity, every row is first cleared of its denominators by
    _integer_row, which copies a row of ints as it is."""
    try:
        packed = _parity_rows(data)
    except TypeError:   # a Fraction
        packed = _parity_rows(map(_integer_row, data))
    return xor_rank(packed)


def _forward_rank(field, rows, cols):
    """The rank of rows, each cols long: the number of pivots of the
    forward half of _eliminate, with no back-substitution. The scalars
    may be as sums of products leave them: over QQ ints and Fractions in
    any form, over GF(p) ints not yet reduced, which are reduced mod p
    here. rows is not changed."""
    p = field.p
    if p is not None:
        rows = [[x % p for x in row] for row in rows]
    return len(_eliminate(field, rows, cols, False)[1])


def _eliminate(field, data, cols, reduce):
    """Row elimination behind rref (reduce true) and rank (reduce false):
    one Gauss-Jordan loop over QQ and GF(p), fraction-free over QQ.

    Returns (rows, pivot_columns), the pivot rows first. Forward only,
    the rows are in row echelon form; reduced, every pivot column is also
    zero outside its pivot row.

    At the pivot in column c, with pivot row y, a row x with entry a in
    column c is updated, and a row with a = 0 is left as it is; the rows
    below the pivot are updated, and reduced also the rows above. Over
    GF(p) the pivot row is first scaled by pow(pivot, p - 2, p), so that
    its pivot is 1, and x becomes x - a*y mod p from column c on, y being
    0 before c. Over QQ the rows are cleared of their denominators first,
    and x becomes piv*x - a*y, piv the pivot, from column c on forward
    (the row is 0 before c) and whole reduced, then divided by its
    content, the gcd of its entries, when that is above 1: an exact
    division. Each row is a nonzero multiple of the row a Gauss-Jordan
    over QQ leaves, with the same zero entries, so the pivots are the
    same; every updated row is primitive, so its entries are no larger
    than those of the Bareiss row (E. H. Bareiss, Math. Comp. 22, 1968)
    it is a multiple of, and no row depends on when it was last updated.
    """
    p = field.p
    if p is None:
        rows = [_integer_row(row) for row in data]
    else:
        rows = [list(row) for row in data]
    n = len(rows)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == n:
            break
        for pr in range(r, n):
            if rows[pr][c]:
                break
        else:
            continue
        prow = rows[pr]
        rows[pr], rows[r] = rows[r], prow
        pivots.append(c)
        piv = prow[c]
        if p is not None and piv != 1:
            inv = pow(piv, p - 2, p)
            prow[c:] = [x * inv % p for x in prow[c:]]
        lo = 0 if reduce and p is None else c
        tail = prow[lo:]
        for i in (range(n) if reduce else range(r + 1, n)):
            row = rows[i]
            a = row[c]
            if a and i != r:
                if p is None:
                    new = [piv * x - a * y for x, y in zip(row[lo:], tail)]
                    g = gcd(*new)
                    row[lo:] = [x // g for x in new] if g > 1 else new
                else:
                    row[lo:] = [(x - a * y) % p for x, y in zip(row[lo:], tail)]
    return rows, pivots


def xor_rank(vectors):
    """dim of the span of packed GF(2) vectors, by forward XOR elimination."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


# -- packed vectors ---------------------------------------------------

def packing(field):
    """How a vector over a prime field is packed into one hashable value,
    chosen once: over GF(2) one int whose bit n - 1 - r is coordinate r,
    so the pivot is the highest bit and a sum is one XOR (_Bits); over
    GF(p), p > 2, the tuple of its residues, eliminated by _eliminate
    (_Residues). Each has pack_columns, columns, add, echelon, rank and
    images. The rationals have none: a ValueError."""
    if field.p is None:
        raise ValueError("packed vectors are over a prime field, not %r" % (field,))
    return (_Bits if field.p == 2 else _Residues)(field)


class _Bits:
    """Packed vectors over GF(2)."""

    def __init__(self, field):
        self.field = field

    def pack_columns(self, A):
        """The columns of the matrix A, packed."""
        cols = [0] * A.cols
        for row in A.data:
            cols = [v << 1 | x for v, x in zip(cols, row)]
        return cols

    def columns(self, vectors, n):
        """The matrix with n rows whose columns are the packed vectors."""
        return ExactMatrix.of_rows(self.field, [[v >> s & 1 for v in vectors]
                                                for s in range(n - 1, -1, -1)], len(vectors))

    def add(self, us, vs):
        """The sums of us and vs, vector by vector."""
        return list(map(xor, us, vs))

    def echelon(self, vectors):
        """The canonical basis of the span of packed vectors, as a tuple:
        the nonzero rows of its rref, packed, first pivot first."""
        basis = []   # reduced: no vector holds the pivot of another
        for v in vectors:
            for b in basis:
                if v ^ b < v:   # v holds the pivot of b
                    v ^= b
            if v:
                basis = [b ^ v if b ^ v < b else b for b in basis]
                basis.append(v)
        return tuple(sorted(basis, reverse=True))

    rank = staticmethod(xor_rank)

    def images(self, x, dim_h, m, coefficients):
        """For x : H (x) M -> N (dim H = dim_h, dim M = m, columns h (x) j,
        h major) and each basis vector h of H, the list of the packed
        x(h (x) c), c running over the packed coefficients: every sum of
        columns h (x) j is listed by XOR, and the coefficients pick theirs."""
        cols = self.pack_columns(x)
        out = []
        for h in range(dim_h):
            sums = [0]
            for v in cols[h * m:(h + 1) * m]:
                sums = [u for s in sums for u in (s, s ^ v)]
            out.append([sums[c] for c in coefficients])
        return out


class _Residues:
    """Packed vectors over GF(p), p > 2, with the methods of _Bits."""

    def __init__(self, field):
        self.field = field

    def pack_columns(self, A):
        return list(zip(*A.data)) or [()] * A.cols

    def columns(self, vectors, n):
        return ExactMatrix.of_rows(self.field, [[v[r] for v in vectors] for r in range(n)],
                                   len(vectors))

    def add(self, us, vs):
        p = self.field.p
        return [tuple([(a + b) % p for a, b in zip(u, v)]) for u, v in zip(us, vs)]

    def echelon(self, vectors):
        rows = list(vectors)
        rows, pivots = _eliminate(self.field, rows, len(rows[0]) if rows else 0, True)
        return tuple(map(tuple, rows[:len(pivots)]))

    def rank(self, vectors):
        rows = list(vectors)
        return _forward_rank(self.field, rows, len(rows[0]) if rows else 0)

    def images(self, x, dim_h, m, coefficients):
        """One product of the stacked coefficients with x regrouped to
        M -> H (x) N, whose row for c holds x(h (x) c) for every h."""
        n = x.rows
        C = ExactMatrix.of_rows(self.field, list(map(list, coefficients)), m)
        rows = (C @ x.regroup([n], [dim_h, m], [2], [1, 0])).data
        return [[tuple(row[h * n:(h + 1) * n]) for row in rows] for h in range(dim_h)]


def solve_linear(A, b):
    """Particular solution x of A x = b, or None when b is not in the image.

    b is an ExactMatrix; a multi-column b is solved column-by-column
    (returns the matrix X with A X = B, or None).
    """
    A._check_same_field(b)
    if b.rows != A.rows:
        raise ValueError("shape mismatch: A has %d rows, b has %d" % (A.rows, b.rows))
    aug = A.hstack(b)
    R, pivots = aug.rref()
    n = A.cols
    # any pivot in the b-block means inconsistency
    for c in pivots:
        if c >= n:
            return None
    f = A.field
    out = ExactMatrix.zeros(f, n, b.cols)
    for r, c in enumerate(pivots):
        for j in range(b.cols):
            out.data[c][j] = R.data[r][n + j]
    return out


def solve(A, B, failure):
    """The solution X of A X = B that solve_linear gives; a
    ValueError(failure) when there is none."""
    X = solve_linear(A, B)
    if X is None:
        raise ValueError(failure)
    return X


def kernel_data(A):
    """The kernel of A in its canonical basis: (K, free), where the columns
    of K are a basis of the null space of A and free lists the non-pivot
    columns of rref(A). Column j of K is 1 at free[j] and 0 at every other
    free coordinate: K is the identity on its free coordinates, so the
    coordinates of a kernel vector x in K are x's entries at free
    (kernel_coordinates).

    Transposed, the kernel of B.transpose() presents the quotient of the
    ambient space by the column span of B: K.transpose() is a projection
    with kernel that span, and it is the identity on free, so the
    inclusion of the coordinates free is a section of it."""
    R, pivots = A.rref()
    f = A.field
    n = A.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    out = ExactMatrix.zeros(f, n, len(free))
    p = f.p
    for j, fc in enumerate(free):
        out.data[fc][j] = 1
        for r, pc in enumerate(pivots):
            x = R.data[r][fc]
            if x != 0:
                out.data[pc][j] = -x if p is None else -x % p
    return out, free


def kernel_basis(A):
    """Basis matrix (cols = basis vectors) of the null space of A: the K
    of kernel_data, the identity on the free coordinates of rref(A)."""
    return kernel_data(A)[0]


def kernel_coordinates(K, free, X, failure):
    """The C with K C = X for a canonical kernel basis (K, free) from
    kernel_data: K is the identity on free, so C is the rows of X at
    free, and one product checks that X lies in the span of K. A
    ValueError(failure) when it does not; no elimination is run."""
    C = X.submatrix(free, range(X.cols))
    if K @ C != X:
        raise ValueError(failure)
    return C


def column_echelon(B):
    """Canonical reduced column echelon form of the column span of B
    (zero columns dropped)."""
    R, pivots = B.transpose().rref()
    kept = R.submatrix(range(len(pivots)), range(R.cols))
    return kept.transpose()


class Subspace:
    """A subspace of a coordinate space, held in canonical reduced column
    echelon form so that equal subspaces compare equal."""

    def __init__(self, ambient_dim, basis):
        if basis.rows != ambient_dim:
            raise ValueError("basis rows (%d) != ambient dim (%d)"
                             % (basis.rows, ambient_dim))
        self.ambient_dim = ambient_dim
        self.field = basis.field
        self.basis = column_echelon(basis)

    @classmethod
    def _from_canonical(cls, basis):
        """The Subspace whose canonical basis is basis, taken as it is."""
        S = cls.__new__(cls)
        S.ambient_dim = basis.rows
        S.field = basis.field
        S.basis = basis
        return S

    @property
    def dim(self):
        return self.basis.cols

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of %d over %r)" % (self.dim, self.ambient_dim, self.field)


def gaussian_binomial(q, n, d):
    """Number of d-dimensional subspaces of GF(q)^n."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(q, n, d, budget):
    """gaussian_binomial(q, n, d); a ValueError when it exceeds the budget."""
    count = gaussian_binomial(q, n, d)
    if count > budget:
        raise ValueError("subspace enumeration budget exceeded: %d > %d"
                         % (count, budget))
    return count


def subspace_bases(field, n, d):
    """The canonical basis of every d-dimensional subspace of field^n, a
    prime field, packed (packing) as the tuple of the columns of its
    reduced column echelon form, written from its pivot rows: by pivot
    rows, then by the entries below a pivot in no pivot row, column by
    column and top down, the first slowest."""
    q, pack = field.p, packing(field).pack_columns
    for pivots in combinations(range(n), d):
        columns = []
        for top in pivots:
            rows, k = [[int(r == top)] for r in range(n)], 1
            for r in range(top + 1, n):
                if r not in pivots:   # every column so far, with each value at r
                    rows = [[x for x in row for _ in range(q)] for row in rows]
                    rows[r] = list(range(q)) * k
                    k *= q
            columns.append(pack(ExactMatrix.of_rows(field, rows, k)))
        yield from product(*columns)


def enumerate_subspaces(q, n, d, budget=10 ** 6):
    """All d-dimensional subspaces of GF(q)^n, one canonical representative
    each, in the order of subspace_bases. Raises when the count exceeds the
    budget."""
    subspace_count(q, n, d, budget)
    field = GF(q)
    columns = packing(field).columns
    return [Subspace._from_canonical(columns(basis, n)) for basis in subspace_bases(field, n, d)]

