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

from .exactfield import (ExactMatrix, field_from_tag, field_tag, kernel_basis,
                         solve_linear)


def vec_row_major(M):
    """Flatten an x-by-y matrix to the column vector of X (x) Y coordinates
    (row index major)."""
    return ExactMatrix.column(M.field, M.flat())


def unvec_row_major(v, rows, cols):
    return ExactMatrix.from_flat(v.field, rows, cols, [v.data[i][0] for i in range(rows * cols)])


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
        shapes = [
            ("rho1", rho1, dim_m1, dim_b0 * dim_n1),
            ("rho2", rho2, dim_m2, dim_b0 * dim_n2),
            ("mu", mu, dim_m1, dim_m2 * dim_a0),
            ("nu", nu, dim_n1, dim_n2 * dim_a0),
        ]
        for name, mat, r, c in shapes:
            if mat.field != field:
                raise ValueError("%s over wrong field" % name)
            if (mat.rows, mat.cols) != (r, c):
                raise ValueError("%s has shape %dx%d, expected %dx%d"
                                 % (name, mat.rows, mat.cols, r, c))
        self.rho1 = rho1
        self.rho2 = rho2
        self.mu = mu
        self.nu = nu

    def dims(self):
        return (self.dim_n1, self.dim_n2, self.dim_m1, self.dim_m2,
                self.dim_a0, self.dim_b0, self.dim_mult, self.dim_comult)

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
                and self.rho1 == other.rho1 and self.rho2 == other.rho2
                and self.mu == other.mu and self.nu == other.nu)


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

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [name for name, ok, _ in self.checks if not ok]

    def __repr__(self):
        return "ValidationReport(%s)" % ", ".join(
            "%s=%s" % (name, "ok" if ok else "FAIL") for name, ok, _ in self.checks)


def validate_theta(t):
    """Check the structural axioms of a ThetaSpace; failures are report
    entries, never exceptions."""
    rep = ValidationReport()
    rep.add("diagram D", t.diagram_lhs() == t.diagram_rhs())
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
        if (psi1.rows, psi1.cols) != (theta.dim_n1, theta.dim_mult):
            raise ValueError("psi1 shape mismatch")
        if (psi2.rows, psi2.cols) != (theta.dim_n2, theta.dim_mult):
            raise ValueError("psi2 shape mismatch")
        if (phi1.rows, phi1.cols) != (theta.dim_m1, 1):
            raise ValueError("phi1 shape mismatch")
        if (phi2.rows, phi2.cols) != (theta.dim_m2, 1):
            raise ValueError("phi2 shape mismatch")
        self.psi1 = psi1
        self.psi2 = psi2
        self.phi1 = phi1
        self.phi2 = phi2

    def psi2_bar(self):
        """The induced map N2* -> M."""
        return self.psi2.transpose()

    def parts(self):
        return (self.psi1, self.psi2, self.phi1, self.phi2)

    def __eq__(self, other):
        return (isinstance(other, MorphismPoint) and self.psi1 == other.psi1
                and self.psi2 == other.psi2 and self.phi1 == other.phi1
                and self.phi2 == other.phi2)

    @staticmethod
    def zero(theta):
        f = theta.field
        return MorphismPoint(
            theta,
            ExactMatrix.zeros(f, theta.dim_n1, theta.dim_mult),
            ExactMatrix.zeros(f, theta.dim_n2, theta.dim_mult),
            ExactMatrix.zeros(f, theta.dim_m1, 1),
            ExactMatrix.zeros(f, theta.dim_m2, 1),
        )


def in_W0(w):
    """True when the induced map psi2_bar : N2* -> M is surjective."""
    return w.psi2.rank() == w.theta.dim_mult


class GroupElement:
    """One element of either symmetry group of a ThetaSpace, represented by
    its linear action on every space it touches.

    side "right": components (r, alpha0, b) where r acts invertibly on
    N1, M1, A0 and b acts invertibly on N2, M2, A0, with alpha0 in A0.
    side "left": components (g_m, beta, l) where g_m in GL(M), l acts
    invertibly on M1, M2, B0, and beta is a map M -> B0.
    """

    def __init__(self, theta, side, *, r_n1=None, r_m1=None, r_a0=None,
                 b_n2=None, b_m2=None, b_a0=None, alpha0=None,
                 g_m=None, l_m1=None, l_m2=None, l_b0=None, beta=None,
                 check=True):
        self.theta = theta
        self.side = side
        f = theta.field

        def default(mat, n):
            return ExactMatrix.identity(f, n) if mat is None else mat

        if side == "right":
            self.r_n1 = default(r_n1, theta.dim_n1)
            self.r_m1 = default(r_m1, theta.dim_m1)
            self.r_a0 = default(r_a0, theta.dim_a0)
            self.b_n2 = default(b_n2, theta.dim_n2)
            self.b_m2 = default(b_m2, theta.dim_m2)
            self.b_a0 = default(b_a0, theta.dim_a0)
            self.alpha0 = alpha0 if alpha0 is not None else ExactMatrix.zeros(f, theta.dim_a0, 1)
            if check:
                self._check_right()
        elif side == "left":
            self.g_m = default(g_m, theta.dim_mult)
            self.l_m1 = default(l_m1, theta.dim_m1)
            self.l_m2 = default(l_m2, theta.dim_m2)
            self.l_b0 = default(l_b0, theta.dim_b0)
            self.beta = beta if beta is not None else ExactMatrix.zeros(f, theta.dim_b0, theta.dim_mult)
            if check:
                self._check_left()
        else:
            raise ValueError("side must be 'right' or 'left'")

    # -- compatibility axioms ----------------------------------------

    def _check_right(self):
        t = self.theta
        for name, m, n in [("r_n1", self.r_n1, t.dim_n1), ("r_m1", self.r_m1, t.dim_m1),
                           ("r_a0", self.r_a0, t.dim_a0), ("b_n2", self.b_n2, t.dim_n2),
                           ("b_m2", self.b_m2, t.dim_m2), ("b_a0", self.b_a0, t.dim_a0)]:
            if (m.rows, m.cols) != (n, n) or m.rank() != n:
                raise ValueError("%s must be invertible %dx%d" % (name, n, n))
        nu_legs = [t.dim_n2, t.dim_a0]
        mu_legs = [t.dim_m2, t.dim_a0]
        bad = []
        if self.r_m1 @ t.rho1 != t.rho1.apply_leg([t.dim_b0, t.dim_n1], 1, self.r_n1):
            bad.append("rho1/r")
        if self.b_m2 @ t.rho2 != t.rho2.apply_leg([t.dim_b0, t.dim_n2], 1, self.b_n2):
            bad.append("rho2/b")
        if self.r_n1 @ t.nu != t.nu.apply_leg(nu_legs, 1, self.r_a0):
            bad.append("nu/r")
        if t.nu.apply_leg(nu_legs, 0, self.b_n2) != t.nu.apply_leg(nu_legs, 1, self.b_a0):
            bad.append("nu/b")
        if self.r_m1 @ t.mu != t.mu.apply_leg(mu_legs, 1, self.r_a0):
            bad.append("mu/r")
        if t.mu.apply_leg(mu_legs, 0, self.b_m2) != t.mu.apply_leg(mu_legs, 1, self.b_a0):
            bad.append("mu/b")
        if bad:
            raise ValueError("right element violates equivariance: " + ", ".join(bad))

    def _check_left(self):
        t = self.theta
        for name, m, n in [("g_m", self.g_m, t.dim_mult), ("l_m1", self.l_m1, t.dim_m1),
                           ("l_m2", self.l_m2, t.dim_m2), ("l_b0", self.l_b0, t.dim_b0)]:
            if (m.rows, m.cols) != (n, n) or m.rank() != n:
                raise ValueError("%s must be invertible %dx%d" % (name, n, n))
        bad = []
        if self.l_m1 @ t.rho1 != t.rho1.apply_leg([t.dim_b0, t.dim_n1], 0, self.l_b0):
            bad.append("rho1/l")
        if self.l_m2 @ t.rho2 != t.rho2.apply_leg([t.dim_b0, t.dim_n2], 0, self.l_b0):
            bad.append("rho2/l")
        if bad:
            raise ValueError("left element violates equivariance: " + ", ".join(bad))

    # -- group structure ---------------------------------------------

    def is_identity(self):
        t = self.theta
        f = t.field
        if self.side == "right":
            return (self.r_n1 == ExactMatrix.identity(f, t.dim_n1)
                    and self.r_m1 == ExactMatrix.identity(f, t.dim_m1)
                    and self.r_a0 == ExactMatrix.identity(f, t.dim_a0)
                    and self.b_n2 == ExactMatrix.identity(f, t.dim_n2)
                    and self.b_m2 == ExactMatrix.identity(f, t.dim_m2)
                    and self.b_a0 == ExactMatrix.identity(f, t.dim_a0)
                    and self.alpha0.is_zero())
        return (self.g_m == ExactMatrix.identity(f, t.dim_mult)
                and self.l_m1 == ExactMatrix.identity(f, t.dim_m1)
                and self.l_m2 == ExactMatrix.identity(f, t.dim_m2)
                and self.l_b0 == ExactMatrix.identity(f, t.dim_b0)
                and self.beta.is_zero())

    def then(self, other):
        """For two same-side elements, the element whose action equals
        "act self first, then other".

        Right side: this is the group product self * other of the law
        (r, a0, b)(r', a0', b') = (r r', a0 r' + b a0', b b') because the
        action is a right action. Left side: it is other * self.
        """
        if self.side != other.side or self.theta is not other.theta and self.theta != other.theta:
            raise ValueError("cannot compose: different side or space")
        t = self.theta
        if self.side == "right":
            return GroupElement(
                t, "right",
                r_n1=other.r_n1 @ self.r_n1,
                r_m1=other.r_m1 @ self.r_m1,
                r_a0=other.r_a0 @ self.r_a0,
                b_n2=other.b_n2 @ self.b_n2,
                b_m2=other.b_m2 @ self.b_m2,
                b_a0=other.b_a0 @ self.b_a0,
                alpha0=other.r_a0 @ self.alpha0 + self.b_a0 @ other.alpha0,
                check=False)
        return GroupElement(
            t, "left",
            g_m=other.g_m @ self.g_m,
            l_m1=other.l_m1 @ self.l_m1,
            l_m2=other.l_m2 @ self.l_m2,
            l_b0=other.l_b0 @ self.l_b0,
            beta=other.beta @ self.g_m + other.l_b0 @ self.beta,
            check=False)

    def inverse(self):
        t = self.theta
        if self.side == "right":
            r_n1 = right_inverse(self.r_n1)
            r_m1 = right_inverse(self.r_m1)
            r_a0 = right_inverse(self.r_a0)
            b_n2 = right_inverse(self.b_n2)
            b_m2 = right_inverse(self.b_m2)
            b_a0 = right_inverse(self.b_a0)
            # (r, a0, b)^{-1} = (r^{-1}, -b^{-1} a0 r^{-1}, b^{-1})
            alpha0 = -(b_a0 @ (r_a0 @ self.alpha0))
            return GroupElement(t, "right", r_n1=r_n1, r_m1=r_m1, r_a0=r_a0,
                                b_n2=b_n2, b_m2=b_m2, b_a0=b_a0, alpha0=alpha0,
                                check=False)
        g_m = right_inverse(self.g_m)
        l_m1 = right_inverse(self.l_m1)
        l_m2 = right_inverse(self.l_m2)
        l_b0 = right_inverse(self.l_b0)
        # (g, beta, l)^{-1} = (g^{-1}, -l^{-1} beta g^{-1}, l^{-1})
        beta = -(l_b0 @ (self.beta @ g_m))
        return GroupElement(t, "left", g_m=g_m, l_m1=l_m1, l_m2=l_m2, l_b0=l_b0,
                            beta=beta, check=False)


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
    """A local splitting used to make the mutation deterministic.

    m0: n2 x dim_M matrix, columns a basis of a subspace M0 of N2*;
    epsilon0: n2 x dim_N matrix, columns a basis of a complement N0,
    recording the isomorphism N -> N0; r2: a right inverse of rho2.
    The chart domain is the set of points with ker(psi2_bar) meeting M0
    trivially, equivalently psi2_bar restricted to M0 invertible.
    """

    def __init__(self, theta, m0, epsilon0, r2):
        self.theta = theta
        f = theta.field
        if (m0.rows, m0.cols) != (theta.dim_n2, theta.dim_mult):
            raise ValueError("m0 shape mismatch")
        if (epsilon0.rows, epsilon0.cols) != (theta.dim_n2, theta.dim_comult):
            raise ValueError("epsilon0 shape mismatch")
        T = m0.hstack(epsilon0)
        Tinv = solve_linear(T, ExactMatrix.identity(f, theta.dim_n2))
        if T.rows != T.cols or Tinv is None:
            raise ValueError("m0 and epsilon0 do not split N2*")
        self.m0 = m0
        self.epsilon0 = epsilon0
        # q_full: N2* -> N, the projection onto N0 along M0 followed by
        # epsilon0^{-1}; restricted to ker(psi2_bar) it is the chart's q.
        self.q_full = Tinv.submatrix(range(theta.dim_mult, theta.dim_n2),
                                     range(theta.dim_n2))
        if (r2.rows, r2.cols) != (theta.dim_b0 * theta.dim_n2, theta.dim_m2):
            raise ValueError("r2 shape mismatch")
        if theta.rho2 @ r2 != ExactMatrix.identity(f, theta.dim_m2):
            raise ValueError("r2 is not a right inverse of rho2")
        self.r2 = r2

    def in_domain(self, w):
        return (self.theta.dim_mult == 0
                or (w.psi2_bar() @ self.m0).rank() == self.theta.dim_mult)

    def r_m0(self, w):
        """The section r_{M0}(psi2) : M -> N2* with image M0."""
        f = self.theta.field
        restricted = w.psi2_bar() @ self.m0
        inv = solve_linear(restricted, ExactMatrix.identity(f, self.theta.dim_mult))
        if inv is None:
            raise ValueError("point outside chart domain")
        return self.m0 @ inv

    def kernel_iso(self, w):
        """The matrix n2 x dim_N whose columns are the basis of
        ker(psi2_bar) mapped to the standard basis of N by q (that is,
        the inclusion composed with q^{-1})."""
        f = self.theta.field
        K = kernel_basis(w.psi2_bar())
        qK = self.q_full @ K
        inv = solve_linear(qK, ExactMatrix.identity(f, self.theta.dim_comult))
        if inv is None:
            raise ValueError("point outside chart domain")
        return K @ inv


def standard_chart(theta, pivot_cols, r2=None):
    """Chart whose M0 is spanned by the given coordinate vectors of N2*
    and whose N0 is the complementary coordinate subspace (identity
    epsilon0 on those coordinates)."""
    f = theta.field
    n2 = theta.dim_n2
    if len(pivot_cols) != theta.dim_mult:
        raise ValueError("need dim_M pivot coordinates")
    m0 = ExactMatrix.zeros(f, n2, theta.dim_mult)
    for j, i in enumerate(pivot_cols):
        m0.data[i][j] = f.one()
    rest = [i for i in range(n2) if i not in pivot_cols]
    eps = ExactMatrix.zeros(f, n2, theta.dim_comult)
    for j, i in enumerate(rest):
        eps.data[i][j] = f.one()
    if r2 is None:
        r2 = right_inverse(theta.rho2)
    return Chart(theta, m0, eps, r2)


def right_inverse(A):
    """Deterministic right inverse of a surjective matrix, so the inverse
    of an invertible square one; a ValueError when there is none."""
    X = solve_linear(A, ExactMatrix.identity(A.field, A.rows))
    if X is None:
        raise ValueError("matrix is not surjective")
    return X


def chart_for_point(theta, w, r2=None):
    """A standard chart containing w: picks the pivot coordinates of
    psi2_bar by elimination."""
    _, pivots = w.psi2_bar().rref()
    if len(pivots) != theta.dim_mult:
        raise ValueError("point is not in W0")
    return standard_chart(theta, list(pivots), r2=r2)


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

def json_object(d, what):
    if not isinstance(d, dict):
        raise ValueError("%s must be a JSON object, got %.40r" % (what, d))
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
    return {"rows": M.rows, "cols": M.cols,
            "entries": [scalar_to_str(x) for x in M.flat()]}


def matrix_from_json(field, d):
    """The matrix of a {"rows", "cols", "entries"} object: each entry is
    parsed once into a field element and kept as it is."""
    d = json_object(d, "matrix")
    rows, cols = json_count(d["rows"], "rows"), json_count(d["cols"], "cols")
    entries = json_list(d["entries"], "entries")
    if len(entries) != rows * cols:
        raise ValueError("a %dx%d matrix has %d entries, not %d"
                         % (rows, cols, rows * cols, len(entries)))
    vals = [scalar_from_str(field, s) for s in entries]
    return ExactMatrix.of_rows(field, [vals[r * cols:(r + 1) * cols]
                                       for r in range(rows)], cols)


def theta_to_json(t):
    return {
        "field": field_tag(t.field),
        "dims": {"n1": t.dim_n1, "n2": t.dim_n2, "m1": t.dim_m1, "m2": t.dim_m2,
                 "a0": t.dim_a0, "b0": t.dim_b0, "mult": t.dim_mult,
                 "comult": t.dim_comult},
        "rho1": matrix_to_json(t.rho1),
        "rho2": matrix_to_json(t.rho2),
        "mu": matrix_to_json(t.mu),
        "nu": matrix_to_json(t.nu),
    }


def theta_from_json(d):
    d = json_object(d, "theta")
    field = field_from_tag(d["field"])
    dims = json_object(d["dims"], "dims")
    return ThetaSpace(field, *(json_count(dims[k], "dims." + k) for k in
                               ("n1", "n2", "m1", "m2", "a0", "b0", "mult")),
                      matrix_from_json(field, d["rho1"]),
                      matrix_from_json(field, d["rho2"]),
                      matrix_from_json(field, d["mu"]),
                      matrix_from_json(field, d["nu"]))


def point_to_json(w):
    return {"psi1": matrix_to_json(w.psi1), "psi2": matrix_to_json(w.psi2),
            "phi1": matrix_to_json(w.phi1), "phi2": matrix_to_json(w.phi2)}


def point_from_json(theta, d):
    d = json_object(d, "point")
    return MorphismPoint(theta,
                         matrix_from_json(theta.field, d["psi1"]),
                         matrix_from_json(theta.field, d["psi2"]),
                         matrix_from_json(theta.field, d["phi1"]),
                         matrix_from_json(theta.field, d["phi2"]))
