"""Abstract morphism spaces.

A ThetaSpace bundles eight dimensions and four structure maps

    rho1 : B0 (x) N1 -> M1        rho2 : B0 (x) N2 -> M2
    mu   : M2 (x) A0 -> M1        nu   : N2 (x) A0 -> N1

subject to the commutation

    rho1 o (I_B0 (x) nu) = mu o (rho2 (x) I_A0)       (diagram D)

with rho2 surjective and the induced map nu_bar : A0 -> N2* (x) N1
injective. Points of the total space W are quadruples
w = (psi1, psi2, phi1, phi2) with psi1 in N1 (x) M, psi2 in N2 (x) M,
phi1 in M1, phi2 in M2, where M is a distinguished multiplicity space
with 1 <= dim M < dim N2; N is a complementary label of dimension
dim N2 - dim M.

Tensor coordinates are always lexicographic with the left factor major:
the basis vector (e_i, f_j) of X (x) Y has index i * dim(Y) + j.

Group elements of the two symmetry groups are represented concretely by
their linear action on every space they touch; the compatibility axioms
are checked at construction, which turns every equivariance statement
downstream into a testable matrix identity.
"""

from operator import attrgetter

from .exactfield import ExactMatrix, field_from_tag, field_tag, kernel_basis, solve


def vec_row_major(M):
    """Flatten an x-by-y matrix to the column vector of X (x) Y coordinates
    (row index major)."""
    return M.regroup([M.rows], [M.cols], [0, 1], [])


def unvec_row_major(v, rows, cols):
    """The rows-by-cols matrix whose vec_row_major is the column v; a v
    of any other shape is a ValueError."""
    return v.regroup([rows, cols], [1], [0], [1, 2])


# The names of the dimensions of a ThetaSpace, in the order of dims(), as
# its JSON "dims" object and the reports name them.
DIMS = ("n1", "n2", "m1", "m2", "a0", "b0", "mult", "comult")

# The structure maps of a ThetaSpace, in the order of its constructor and
# its JSON object: each with the dimension of its rows and the two legs
# of its columns.
MAPS = (("rho1", "dim_m1", ("dim_b0", "dim_n1")),
        ("rho2", "dim_m2", ("dim_b0", "dim_n2")),
        ("mu", "dim_m1", ("dim_m2", "dim_a0")),
        ("nu", "dim_n1", ("dim_n2", "dim_a0")))

# The parts of a point of the total space, in the order of its
# constructor, parts() and its JSON object: each with the dimensions of
# its rows and its columns (None for one column).
POINT = (("psi1", "dim_n1", "dim_mult"), ("psi2", "dim_n2", "dim_mult"),
         ("phi1", "dim_m1", None), ("phi2", "dim_m2", None))

_dims_of = attrgetter(*("dim_" + k for k in DIMS))
_maps_of = attrgetter(*(name for name, _, _ in MAPS))
_parts_of = attrgetter(*(name for name, _, _ in POINT))


def part_shape(theta, rows, cols):
    """The shape of a part whose rows and columns are the named dimensions
    of theta (cols None for one column)."""
    return getattr(theta, rows), getattr(theta, cols) if cols else 1


def zero_parts(theta):
    """The parts of the zero point of theta's total space, in POINT order."""
    return [ExactMatrix.zeros(theta.field, *part_shape(theta, rows, cols))
            for _, rows, cols in POINT]


class ThetaSpace:
    """An abstract morphism space; see the module docstring."""

    def __init__(self, field, dim_n1, dim_n2, dim_m1, dim_m2, dim_a0, dim_b0,
                 dim_mult, rho1, rho2, mu, nu):
        self.field = field
        self.dim_n1 = dim_n1
        self.dim_n2 = dim_n2
        self.dim_m1 = dim_m1
        self.dim_m2 = dim_m2
        self.dim_a0 = dim_a0
        self.dim_b0 = dim_b0
        self.dim_mult = dim_mult          # dim M
        self.dim_comult = dim_n2 - dim_mult   # dim N
        for (name, rows, (left, right)), mat in zip(MAPS, (rho1, rho2, mu, nu)):
            if mat.field != field:
                raise ValueError("%s over wrong field" % name)
            r, c = getattr(self, rows), getattr(self, left) * getattr(self, right)
            if (mat.rows, mat.cols) != (r, c):
                raise ValueError("%s has shape %dx%d, expected %dx%d"
                                 % (name, mat.rows, mat.cols, r, c))
        self.rho1 = rho1
        self.rho2 = rho2
        self.mu = mu
        self.nu = nu

    def dims(self):
        """The eight dimensions, in the order of DIMS."""
        return _dims_of(self)

    def nu_bar(self):
        """nu as a map A0 -> N2* (x) N1; the (xi, i) coordinate of
        nu_bar(e_a) is nu[i][xi * a0 + a]."""
        return self.nu.regroup([self.dim_n1], [self.dim_n2, self.dim_a0], [1, 0], [2])

    def nu_alpha(self, alpha0):
        """nu(- (x) alpha0) : N2 -> N1."""
        return self.nu.apply_leg([self.dim_n2, self.dim_a0], 1, alpha0)

    def mu_alpha(self, alpha0):
        """mu(- (x) alpha0) : M2 -> M1."""
        return self.mu.apply_leg([self.dim_m2, self.dim_a0], 1, alpha0)

    def diagram_lhs(self):
        """rho1 o (I_B0 (x) nu) on B0 (x) N2 (x) A0."""
        return self.rho1.apply_leg([self.dim_b0, self.dim_n1], 1, self.nu)

    def diagram_rhs(self):
        """mu o (rho2 (x) I_A0) on B0 (x) N2 (x) A0."""
        return self.mu.apply_leg([self.dim_m2, self.dim_a0], 0, self.rho2)

    def __eq__(self, other):
        return (isinstance(other, ThetaSpace) and self.dims() == other.dims()
                and _maps_of(self) == _maps_of(other))


class ValidationReport:
    def __init__(self):
        self.checks = []

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def add_rank(self, name, rank, expected):
        """A check that a map has full rank; on failure the detail gives
        the rank and the expected dimension."""
        ok = rank == expected
        self.add(name, ok, "" if ok else "rank %d, expected %d" % (rank, expected))

    def add_equal(self, name, got, want, matrix=""):
        """A check that two matrices, or two points part by part, are
        equal; on failure the detail names the first entry that differs:
        the matrix (or the part of the point), its (row, column) and both
        values, e.g. `mu[0, 2] = 1/1, expected 0/1`."""
        ok = got == want
        self.add(name, ok, "" if ok else _first_difference(matrix, got, want))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [name for name, ok, _ in self.checks if not ok]

    def __repr__(self):
        return "ValidationReport(%s)" % ", ".join(
            "%s=%s" % (name, "ok" if ok else "FAIL") for name, ok, _ in self.checks)


def _first_difference(matrix, got, want):
    """The detail of a failed add_equal."""
    if isinstance(got, MorphismPoint):
        pairs = zip((name for name, _, _ in POINT), got.parts(), want.parts())
    else:
        pairs = [(matrix, got, want)]
    for label, a, b in pairs:
        if (a.rows, a.cols) != (b.rows, b.cols):
            return "%s is %dx%d, expected %dx%d" % (label, a.rows, a.cols, b.rows, b.cols)
        for r, (row_a, row_b) in enumerate(zip(a.data, b.data)):
            for c, (x, y) in enumerate(zip(row_a, row_b)):
                if x != y:
                    return "%s[%d, %d] = %s, expected %s" % (
                        label, r, c, scalar_to_str(x), scalar_to_str(y))
    return "equal entries over another field"


def validate_theta(t):
    """Check the structural axioms of a ThetaSpace; failures are report
    entries, never exceptions."""
    rep = ValidationReport()
    # the detail compares the mu side of the square with the rho1 side
    rep.add_equal("diagram D", t.diagram_rhs(), t.diagram_lhs(), "mu o (rho2 (x) I)")
    rep.add_rank("rho2 surjective", t.rho2.rank(), t.dim_m2)
    rep.add_rank("nu_bar injective", t.nu_bar().rank(), t.dim_a0)
    rep.add("multiplicity split", 1 <= t.dim_mult < t.dim_n2
            and t.dim_mult + t.dim_comult == t.dim_n2)
    return rep


class MorphismPoint:
    """A point w = (psi1, psi2, phi1, phi2) of the total space of a
    ThetaSpace. psi1 is n1 x dim_M, psi2 is n2 x dim_M, phi1 and phi2 are
    column vectors of heights m1 and m2."""

    def __init__(self, theta, psi1, psi2, phi1, phi2):
        self.theta = theta
        for (name, rows, cols), x in zip(POINT, (psi1, psi2, phi1, phi2)):
            if x.rows != getattr(theta, rows) or x.cols != (getattr(theta, cols) if cols else 1):
                raise ValueError("%s shape mismatch" % name)
        self.psi1 = psi1
        self.psi2 = psi2
        self.phi1 = phi1
        self.phi2 = phi2

    def psi2_bar(self):
        """The induced map N2* -> M."""
        return self.psi2.transpose()

    def parts(self):
        return _parts_of(self)

    def __eq__(self, other):
        return isinstance(other, MorphismPoint) and _parts_of(self) == _parts_of(other)

    @staticmethod
    def zero(theta):
        return MorphismPoint(theta, *zero_parts(theta))


def in_W0(w):
    """True when the induced map psi2_bar : N2* -> M is surjective."""
    return w.psi2.rank() == w.theta.dim_mult


# The parts of each side of the symmetry groups: the linear parts, each
# with the dimension of the space it acts on; the translation part, with
# the dimensions of its rows and columns (None for one column); and the
# translation of "act g, then h", the part of the group law that is not
# a product of linear parts.
PARTS = {
    "right": ((("r_n1", "dim_n1"), ("r_m1", "dim_m1"), ("r_a0", "dim_a0"),
               ("b_n2", "dim_n2"), ("b_m2", "dim_m2"), ("b_a0", "dim_a0")),
              ("alpha0", "dim_a0", None),
              # (r, a0, b)(r', a0', b') = (r r', a0 r' + b a0', b b')
              lambda g, h: h.r_a0 @ g.alpha0 + g.b_a0 @ h.alpha0),
    "left": ((("g_m", "dim_mult"), ("l_m1", "dim_m1"), ("l_m2", "dim_m2"),
              ("l_b0", "dim_b0")),
             ("beta", "dim_b0", "dim_mult"),
             # (g', beta', l')(g, beta, l) = (g' g, beta' g + l' beta, l' l)
             lambda g, h: h.beta @ g.g_m + h.l_b0 @ g.beta),
}


class GroupElement:
    """One element of either symmetry group of a ThetaSpace, represented by
    its linear action on every space it touches.

    side "right": components (r, alpha0, b) where r acts invertibly on
    N1, M1, A0 and b acts invertibly on N2, M2, A0, with alpha0 in A0.
    side "left": components (g_m, beta, l) where g_m in GL(M), l acts
    invertibly on M1, M2, B0, and beta is a map M -> B0.

    The parts are keyword arguments named as in PARTS; a linear part left
    out (or None) is the identity and a translation part left out is zero.
    A part of the other side, or one of the wrong shape, is a ValueError;
    check=True also checks invertibility and the equivariance axioms.
    """

    def __init__(self, theta, side, *, check=True, **parts):
        if side not in PARTS:
            raise ValueError("side must be 'right' or 'left'")
        self.theta = theta
        self.side = side
        f = theta.field
        linear, (tname, rows, cols), _ = PARTS[side]
        unknown = set(parts) - {name for name, _ in linear} - {tname}
        if unknown:
            raise ValueError("a %s element has no part %s"
                             % (side, ", ".join(sorted(unknown))))
        for name, dim in linear:
            n = getattr(theta, dim)
            m = parts.get(name)
            if m is None:
                m = ExactMatrix.identity(f, n)
            elif (m.rows, m.cols) != (n, n):
                raise ValueError("%s must be invertible %dx%d" % (name, n, n))
            setattr(self, name, m)
        shape = part_shape(theta, rows, cols)
        x = parts.get(tname)
        if x is None:
            x = ExactMatrix.zeros(f, *shape)
        elif (x.rows, x.cols) != shape:
            raise ValueError("%s must be %dx%d" % ((tname,) + shape))
        setattr(self, tname, x)
        if check:
            self._check()

    def _check(self):
        """Every linear part invertible, and the equivariance axioms."""
        t = self.theta
        for name, dim in PARTS[self.side][0]:
            n = getattr(t, dim)
            if getattr(self, name).rank() != n:
                raise ValueError("%s must be invertible %dx%d" % (name, n, n))
        legs1, legs2 = [t.dim_b0, t.dim_n1], [t.dim_b0, t.dim_n2]
        if self.side == "right":
            nu_legs = [t.dim_n2, t.dim_a0]
            mu_legs = [t.dim_m2, t.dim_a0]
            identities = [
                ("rho1/r", self.r_m1 @ t.rho1, t.rho1.apply_leg(legs1, 1, self.r_n1)),
                ("rho2/b", self.b_m2 @ t.rho2, t.rho2.apply_leg(legs2, 1, self.b_n2)),
                ("nu/r", self.r_n1 @ t.nu, t.nu.apply_leg(nu_legs, 1, self.r_a0)),
                ("nu/b", t.nu.apply_leg(nu_legs, 0, self.b_n2),
                 t.nu.apply_leg(nu_legs, 1, self.b_a0)),
                ("mu/r", self.r_m1 @ t.mu, t.mu.apply_leg(mu_legs, 1, self.r_a0)),
                ("mu/b", t.mu.apply_leg(mu_legs, 0, self.b_m2),
                 t.mu.apply_leg(mu_legs, 1, self.b_a0))]
        else:
            identities = [
                ("rho1/l", self.l_m1 @ t.rho1, t.rho1.apply_leg(legs1, 0, self.l_b0)),
                ("rho2/l", self.l_m2 @ t.rho2, t.rho2.apply_leg(legs2, 0, self.l_b0))]
        bad = [name for name, lhs, rhs in identities if lhs != rhs]
        if bad:
            raise ValueError("%s element violates equivariance: %s"
                             % (self.side, ", ".join(bad)))

    # -- group structure ---------------------------------------------

    def is_identity(self, *names):
        """True when the named parts, by default all of them, are those of
        the identity: identity linear parts and a zero translation."""
        linear, (tname, _, _), _ = PARTS[self.side]
        dims = dict(linear)
        for name in names:
            if name not in dims and name != tname:
                raise ValueError("a %s element has no part %s" % (self.side, name))
        f = self.theta.field
        return all(getattr(self, name).is_zero() if name == tname else
                   getattr(self, name) == ExactMatrix.identity(
                       f, getattr(self.theta, dims[name]))
                   for name in names or list(dims) + [tname])

    def then(self, other):
        """For two same-side elements, the element whose action equals
        "act self first, then other".

        Right side: this is the group product self * other, because the
        action is a right action. Left side: it is other * self.
        """
        if self.side != other.side or self.theta is not other.theta and self.theta != other.theta:
            raise ValueError("cannot compose: different side or space")
        linear, (tname, _, _), law = PARTS[self.side]
        parts = {name: getattr(other, name) @ getattr(self, name) for name, _ in linear}
        parts[tname] = law(self, other)
        return GroupElement(self.theta, self.side, check=False, **parts)

    def inverse(self):
        """The inverse linear parts, followed by the pure translation that
        undoes "self, then those inverse linear parts": on the right
        (r, a0, b)^{-1} = (r^{-1}, -b^{-1} a0 r^{-1}, b^{-1}), on the left
        (g, beta, l)^{-1} = (g^{-1}, -l^{-1} beta g^{-1}, l^{-1})."""
        linear, (tname, _, _), _ = PARTS[self.side]
        undo = GroupElement(self.theta, self.side, check=False, **{
            name: right_inverse(getattr(self, name)) for name, _ in linear})
        shift = getattr(self.then(undo), tname)
        return undo.then(GroupElement(self.theta, self.side, check=False,
                                      **{tname: -shift}))


def act(g, w):
    """Apply a GroupElement to a MorphismPoint of the same ThetaSpace."""
    t = w.theta
    if g.theta is not t and g.theta != t:
        raise ValueError("group element and point live over different spaces")
    if g.side == "right":
        nu_a = t.nu_alpha(g.alpha0)
        mu_a = t.mu_alpha(g.alpha0)
        return MorphismPoint(
            t,
            g.r_n1 @ w.psi1 + nu_a @ w.psi2,
            g.b_n2 @ w.psi2,
            g.r_m1 @ w.phi1 + mu_a @ w.phi2,
            g.b_m2 @ w.phi2)
    # left
    br1 = g.beta @ w.psi1.transpose()   # B0 x N1
    br2 = g.beta @ w.psi2.transpose()   # B0 x N2
    return MorphismPoint(
        t,
        w.psi1 @ g.g_m.transpose(),
        w.psi2 @ g.g_m.transpose(),
        g.l_m1 @ w.phi1 + t.rho1 @ vec_row_major(br1),
        g.l_m2 @ w.phi2 + t.rho2 @ vec_row_major(br2))


def act_pair(g_right, g_left, w):
    """Apply a right element then a left element (the two actions commute)."""
    out = w
    if g_right is not None:
        out = act(g_right, out)
    if g_left is not None:
        out = act(g_left, out)
    return out


class Chart:
    """A coordinate chart, which makes the mutation deterministic.

    pivots: dim_M coordinates of N2*. M0 is spanned by the coordinate
    vectors at the pivots, and the complement N0 by the other coordinate
    vectors, which it identifies in order with the basis of N; r2 is the
    right inverse of rho2. The chart domain is the set of points with
    ker(psi2_bar) meeting M0 trivially, equivalently psi2_bar restricted
    to M0 (the rows of psi2 at the pivots) invertible.
    """

    def __init__(self, theta, pivots):
        self.theta = theta
        self.pivots = list(pivots)
        if (len(set(self.pivots)) != theta.dim_mult
                or not set(self.pivots) <= set(range(theta.dim_n2))):
            raise ValueError("need dim_M distinct coordinates of N2*")
        self.others = [i for i in range(theta.dim_n2) if i not in self.pivots]
        self.r2 = right_inverse(theta.rho2)

    def _on_m0(self, w):
        """psi2_bar restricted to M0."""
        return w.psi2.submatrix(self.pivots, range(self.theta.dim_mult)).transpose()

    def in_domain(self, w):
        return (self.theta.dim_mult == 0
                or self._on_m0(w).rank() == self.theta.dim_mult)

    def r_m0(self, w):
        """The section r_{M0}(psi2) : M -> N2* with image M0: the inverse
        of psi2_bar on M0, its rows placed at the pivots."""
        t = self.theta
        inv = solve(self._on_m0(w), ExactMatrix.identity(t.field, t.dim_mult),
                    "point outside chart domain")
        out = ExactMatrix.zeros(t.field, t.dim_n2, t.dim_mult)
        for row, i in zip(inv.data, self.pivots):
            out.data[i] = row
        return out

    def kernel_iso(self, w):
        """The matrix n2 x dim_N whose columns are the basis of
        ker(psi2_bar) mapped to the standard basis of N by q, the
        projection onto N0 along M0 (that is, the inclusion composed with
        q^{-1}); q selects the coordinates other than the pivots."""
        f = self.theta.field
        K = kernel_basis(w.psi2_bar())
        qK = K.submatrix(self.others, range(K.cols))
        return K @ solve(qK, ExactMatrix.identity(f, self.theta.dim_comult),
                         "point outside chart domain")


def right_inverse(A):
    """Deterministic right inverse of a surjective matrix, so the inverse
    of an invertible square one; a ValueError when there is none."""
    return solve(A, ExactMatrix.identity(A.field, A.rows), "matrix is not surjective")


def chart_for_point(theta, w):
    """The coordinate chart at the pivot coordinates of psi2_bar, found
    by elimination; it contains w."""
    _, pivots = w.psi2_bar().rref()
    if len(pivots) != theta.dim_mult:
        raise ValueError("point is not in W0")
    return Chart(theta, pivots)


# -- serialization ----------------------------------------------------

def scalar_to_str(x):
    return "%d/%d" % x.as_integer_ratio()


def scalar_from_str(field, s):
    """Parse an exact "num/den" string into the field. Input that names
    no field element (not a string, a zero denominator, or one divisible
    by p over GF(p), as written) is a ValueError."""
    if not isinstance(s, str):
        raise ValueError("scalar %r is not a 'num/den' string" % (s,))
    num, den = s.split("/")
    return field.ratio(int(num), int(den))


# The JSON readers check the shape of what they read, so that input of
# the wrong shape is a ValueError (a usage error) and not a TypeError
# deep inside the program.

def json_object(d, what, keys=()):
    """d, a JSON object named what that holds every key of keys."""
    if not isinstance(d, dict):
        raise ValueError("%s must be a JSON object, got %.40r" % (what, d))
    for key in keys:
        if key not in d:
            raise ValueError("missing key %r in %s" % (key, what))
    return d


def json_list(x, what):
    if not isinstance(x, list):
        raise ValueError("%s must be a JSON list, got %.40r" % (what, x))
    return x


def json_count(x, what):
    """An int >= 0 (a JSON true or false is none)."""
    if type(x) is not int or x < 0:
        raise ValueError("%s must be an integer >= 0, got %.40r" % (what, x))
    return x


def json_counts(x, what):
    return [json_count(v, what) for v in json_list(x, what)]


def matrix_to_json(M):
    """The {"rows", "cols", "entries"} object of a matrix; each distinct
    value is formatted once (equal values have equal strings)."""
    text = {x: scalar_to_str(x) for x in set().union(*M.data)}
    return {"rows": M.rows, "cols": M.cols,
            "entries": [text[x] for row in M.data for x in row]}


def matrix_from_json(field, d, what):
    """The matrix of a {"rows", "cols", "entries"} object named what: each
    distinct entry string is parsed once into a field element, which
    every cell that holds it shares."""
    d = json_object(d, what, ("rows", "cols", "entries"))
    rows = json_count(d["rows"], what + ".rows")
    cols = json_count(d["cols"], what + ".cols")
    entries = json_list(d["entries"], what + ".entries")
    if len(entries) != rows * cols:
        raise ValueError("a %dx%d matrix has %d entries, not %d"
                         % (rows, cols, rows * cols, len(entries)))
    try:
        distinct = dict.fromkeys(entries)
    except TypeError:
        # a list or dict entry cannot be hashed: parsing the entries in
        # order stops at the first one that is no string, a ValueError,
        # before the memo below would hash it
        distinct = entries
    value = {s: scalar_from_str(field, s) for s in distinct}
    vals = [value[s] for s in entries]
    return ExactMatrix.of_rows(field, [vals[r * cols:(r + 1) * cols]
                                       for r in range(rows)], cols)


def theta_to_json(t):
    d = {"field": field_tag(t.field), "dims": dict(zip(DIMS, t.dims()))}
    d.update((name, matrix_to_json(getattr(t, name))) for name, _, _ in MAPS)
    return d


def theta_from_json(d):
    d = json_object(d, "theta", ["field", "dims"] + [name for name, _, _ in MAPS])
    field = field_from_tag(d["field"])
    # comult is dim N2 - dim M, so it is not read
    dims = json_object(d["dims"], "dims", DIMS[:-1])
    return ThetaSpace(field, *(json_count(dims[k], "dims." + k) for k in DIMS[:-1]),
                      *(matrix_from_json(field, d[name], name) for name, _, _ in MAPS))


def point_to_json(w):
    return {name: matrix_to_json(getattr(w, name)) for name, _, _ in POINT}


def point_from_json(theta, d):
    d = json_object(d, "point", [name for name, _, _ in POINT])
    return MorphismPoint(theta, *(matrix_from_json(theta.field, d[name], name)
                                  for name, _, _ in POINT))
