"""Dual morphism spaces and the mutation map.

The dual of a ThetaSpace exchanges the roles of the two multiplicity
labels: starting from Theta with spaces (N1, N2, M1, M2, A0, B0) the
dual Theta' has

    N1' = B0,    N2' = N2* (same coordinates),   M1' = M1,
    M2' = (N2* (x) N1) / nu_bar(A0),             A0' = ker(rho2),
    B0' = N1,    dim M' = dim N,  dim N' = dim M.

The mutation sends a point w of W0 (psi2_bar surjective) together with
an auxiliary choice (u, v, kappa) to a point z(w) of the dual total
space, and a second mutation with the canonical opposite choice
returns (-psi1, psi2, phi1, -phi2) under the double-dual
identifications computed here.

All identifications are explicit matrices, so every claimed equality is
an exact matrix identity; orbit statements are always certified by the
constructed group elements, never by search.
"""

from .exactfield import (ExactMatrix, kernel_basis, kernel_coordinates,
                         kernel_data, solve, solve_linear)
from .theta import (DIMS, GroupElement, MorphismPoint, ThetaSpace,
                    ValidationReport, act, right_inverse, unvec_row_major,
                    validate_theta, vec_row_major)


def swap_matrix(field, x, y):
    """The coordinate matrix of X (x) Y -> Y (x) X, e_i (x) f_j |->
    f_j (x) e_i, with the left-major index convention: the identity
    with its row legs exchanged."""
    return ExactMatrix.identity(field, x * y).regroup([x, y], [x * y], [1, 0], [2])


class DualSpace:
    """The dual ThetaSpace of a given one, together with the
    presentation data of the two new spaces:

    proj/comp present M2' = (N2* (x) N1)/nu_bar(A0): proj is the
    transposed canonical kernel basis of nu_bar transposed and comp its
    free coordinates; proj is the identity on comp, so the inclusion of
    those coordinates is a section and a map is read on M2' as its
    columns at comp (sectioned);
    k0 is the canonical basis matrix of A0' = ker(rho2) inside B0 (x) N2,
    the identity on its coordinates k0_free.
    """

    def __init__(self, theta):
        t = theta
        f = t.field
        self.theta = t
        n1, n2, m1 = t.dim_n1, t.dim_n2, t.dim_m1
        b0 = t.dim_b0
        nu_bar = t.nu_bar()
        proj, self.comp = kernel_data(nu_bar.transpose())
        self.proj = proj.transpose()
        m2p = self.proj.rows
        self.k0, self.k0_free = kernel_data(t.rho2)
        a0p = self.k0.cols
        rho1p = t.rho1.regroup([m1], [b0, n1], [0], [2, 1])       # on N1 (x) B0
        rho2p = self.proj.regroup([m2p], [n2, n1], [0], [2, 1])   # on N1 (x) N2*
        nup = self.k0.regroup([b0, n2], [a0p], [0], [1, 2])
        # rho1 after contracting each kernel vector of rho2 over the N2
        # leg, one row block per kernel vector: (M1 (x) A0') x (N2* (x) N1)
        carried = t.rho1.apply_leg([b0, n1], 0, nup).regroup(
            [m1], [n2, a0p, n1], [0, 2], [1, 3])
        # mu' must not depend on the representative in N2* (x) N1
        if not (carried @ nu_bar).is_zero():
            raise ValueError("dual mu is ill-defined; structure maps inconsistent")
        mup = self.sectioned(carried).regroup([m1, a0p], [m2p], [0], [2, 1])
        self.prime = ThetaSpace(f, b0, n2, m1, m2p, a0p, n1, t.dim_comult,
                                rho1p, rho2p, mup, nup)

    def sectioned(self, x):
        """x @ section: the columns of x at comp."""
        return x.submatrix(range(x.rows), self.comp)

    def a0_coordinates(self, x, failure):
        """The coordinates in k0 of the columns of x, vectors of ker(rho2);
        a ValueError(failure) when one is not."""
        return kernel_coordinates(self.k0, self.k0_free, x, failure)

    def validate(self):
        return validate_theta(self.prime)


def build_dual(theta):
    return DualSpace(theta)


class MutationChoice:
    """The auxiliary data of one mutation: u is a b0 x n2 matrix with
    rho2(vec u) = -phi2, v is an n1 x n2 matrix with v psi2 = psi1, and
    kappa is an n2 x dim_N matrix whose columns are a basis of
    ker(psi2_bar)."""

    def __init__(self, u, v, kappa):
        self.u = u
        self.v = v
        self.kappa = kappa

    def validate(self, w):
        t = w.theta
        rep = ValidationReport()
        rep.add("u lifts -phi2", t.rho2 @ vec_row_major(self.u) == -w.phi2)
        rep.add("v factors psi1", self.v @ w.psi2 == w.psi1)
        rep.add("kappa spans the kernel",
                (w.psi2_bar() @ self.kappa).is_zero()
                and self.kappa.rank() == t.dim_comult)
        return rep


def default_choice(w):
    """Deterministic choice at a point of W0: minimal-support solutions
    for u and v, echelon kernel basis for kappa."""
    t = w.theta
    u = unvec_row_major(solve(t.rho2, -w.phi2, "rho2 is not surjective"),
                        t.dim_b0, t.dim_n2)
    vt = solve(w.psi2_bar(), w.psi1.transpose(), "point is not in W0")
    return MutationChoice(u, vt.transpose(), kernel_basis(w.psi2_bar()))


def chart_choice(w, chart):
    """The choice dictated by a chart containing w."""
    t = w.theta
    u = unvec_row_major(chart.r2 @ (-w.phi2), t.dim_b0, t.dim_n2)
    v = w.psi1 @ chart.r_m0(w).transpose()
    return MutationChoice(u, v, chart.kernel_iso(w))


def mutate(dual, w, choice):
    """The mutation z(w, choice) as a point of the dual total space."""
    t = dual.theta
    if w.theta != t:
        raise ValueError("point does not live over the dualized space")
    u, v, kappa = choice.u, choice.v, choice.kappa
    psi2p = kappa
    psi1p = u @ kappa
    phi2p = dual.proj @ vec_row_major(v.transpose())
    phi1p = w.phi1 + t.rho1 @ vec_row_major(u @ v.transpose())
    return MorphismPoint(dual.prime, psi1p, psi2p, phi1p, phi2p)


def opposite_choice(w, choice):
    """The canonical choice for mutating z(w) back: u' = -v, v' = u,
    kappa' = psi2."""
    return MutationChoice(-choice.v, choice.u, w.psi2)


def double_dual_m2(dual, ddual):
    """iota_m2, identifying M2'' with M2: it sends a class in
    (N2 (x) B0)/nu_bar'(A0') to rho2 of the swapped representative."""
    t = dual.theta
    return ddual.sectioned(
        t.rho2.regroup([t.dim_m2], [t.dim_b0, t.dim_n2], [0], [2, 1]))


def double_dual_a0(dual, ddual):
    """iota_a0, identifying A0'' with A0: it inverts nu_bar on the swapped
    kernel basis of rho2'."""
    t = dual.theta
    return solve(t.nu_bar(), ddual.k0.regroup(
        [t.dim_n1, t.dim_n2], [ddual.k0.cols], [1, 0], [2]),
        "double-dual kernel does not match nu_bar image")


def double_dual_report(theta, dual=None):
    """Exact comparison of the double dual with the original space under
    the canonical identifications. When the dimensions differ, the dims
    check names the first that does, e.g. `m2 is 3, expected 4`, and no
    other check is made."""
    if dual is None:
        dual = build_dual(theta)
    ddual = build_dual(dual.prime)
    t = theta
    dd = ddual.prime
    rep = ValidationReport()
    differ = [(k, a, b) for k, a, b in zip(DIMS, dd.dims(), t.dims()) if a != b]
    rep.add("dims", not differ, "%s is %d, expected %d" % differ[0] if differ else "")
    if not rep.ok:
        return rep
    iota_m2, iota_a0 = double_dual_m2(dual, ddual), double_dual_a0(dual, ddual)
    rep.add_rank("iota_m2 invertible", iota_m2.rank(), t.dim_m2)
    rep.add_rank("iota_a0 invertible", iota_a0.rank(), t.dim_a0)
    rep.add_equal("rho1 restored", dd.rho1, t.rho1, "rho1")
    rep.add_equal("rho2 restored", iota_m2 @ dd.rho2, t.rho2, "rho2")
    rep.add_equal("nu restored", dd.nu,
                  t.nu.apply_leg([t.dim_n2, t.dim_a0], 1, iota_a0), "nu")
    mu_back = t.mu.apply_leg([t.dim_m2, t.dim_a0], 0, iota_m2).apply_leg(
        [iota_m2.cols, t.dim_a0], 1, iota_a0)
    rep.add_equal("mu restored", dd.mu, mu_back, "mu")
    return rep


def involution_report(theta, w, choice=None, dual=None, ddual=None):
    """Mutate twice with the canonical opposite choice and compare, under
    the double-dual identifications, with (-psi1, psi2, phi1, -phi2)."""
    if dual is None:
        dual = build_dual(theta)
    if ddual is None:
        ddual = build_dual(dual.prime)
    if choice is None:
        choice = default_choice(w)
    z = mutate(dual, w, choice)
    zz = mutate(ddual, z, opposite_choice(w, choice))
    iota_m2 = double_dual_m2(dual, ddual)
    rep = ValidationReport()
    rep.add_equal("psi1 negated", zz.psi1, -w.psi1, "psi1")
    rep.add_equal("psi2 restored", zz.psi2, w.psi2, "psi2")
    rep.add_equal("phi1 restored", zz.phi1, w.phi1, "phi1")
    rep.add_equal("phi2 negated", iota_m2 @ zz.phi2, -w.phi2, "phi2")
    return rep


# -- transport of choices (same point, two choices) -------------------

def choice_transport(dual, w, c1, c2):
    """Group elements of the dual symmetry groups carrying z(w, c1) to
    z(w, c2): apply the right element first, then the left one.

    The right element absorbs the difference of the u's (a kernel vector
    of rho2); the left element absorbs the difference of the v's (a
    family of kernel vectors of psi2_bar) and any change of kernel
    basis.
    """
    t = dual.theta
    du = vec_row_major(c2.u - c1.u)
    alpha0 = dual.a0_coordinates(du, "u difference is not a kernel vector of rho2")
    g_right = GroupElement(dual.prime, "right", alpha0=alpha0, check=False)
    # change of kernel basis: c2.kappa = c1.kappa g
    g = solve_linear(c1.kappa, c2.kappa)
    if g is None or g.rank() != t.dim_comult:
        raise ValueError("kernel bases do not span the same space")
    dvt = c2.v.transpose() - c1.v.transpose()
    bpt = solve(c1.kappa, dvt, "v difference is not a family of kernel vectors")
    g_left = GroupElement(dual.prime, "left", g_m=g.transpose(),
                          beta=bpt.transpose(), check=False)
    return g_right, g_left


# -- transport of group elements through the mutation -----------------

def _induced_on_kernel(dual, leg, m):
    """Conjugate the endomorphism of B0 (x) N2 acting by m on the given
    leg, which must preserve ker(rho2), to an endomorphism of A0' in the
    k0 basis."""
    t = dual.theta
    moved = dual.k0.transpose().apply_leg(
        [t.dim_b0, t.dim_n2], leg, m.transpose()).transpose()
    return dual.a0_coordinates(moved, "map does not preserve ker(rho2)")


def transport_element(dual, w, g, choice):
    """Given a group element g of the original space and a choice at w,
    return (choice_g, steps) with

        z(g.w, choice_g) = steps applied to z(w, choice),

    where steps is a list of dual-side group elements applied left to
    right. The identity is exact; callers may verify it directly.
    """
    t = dual.theta
    u, v, kappa = choice.u, choice.v, choice.kappa
    tp = dual.prime
    steps = []
    if g.side == "right":
        # apply g as (r, 0, 1) then (1, alpha0, 1) then (1, 0, b): the
        # composite has exactly the action of g.
        b_n2_inv = right_inverse(g.b_n2)
        alpha_mid = g.alpha0
        # (1) pure r part: v |-> r_n1 v, witness is a left element.
        v1 = g.r_n1 @ v
        if not g.is_identity("r_n1", "r_m1", "r_a0"):
            l_m2 = dual.sectioned(dual.proj.apply_leg([t.dim_n2, t.dim_n1], 1, g.r_n1))
            steps.append(GroupElement(tp, "left", l_m1=g.r_m1, l_m2=l_m2,
                                      l_b0=g.r_n1))
        # (2) unipotent alpha0 part: v absorbs nu_alpha, witness trivial.
        v2 = v1 + t.nu_alpha(alpha_mid)
        # (3) pure b part: (u, v, kappa) |-> (u tb, v b^{-1}, tb^{-1} kappa),
        # witness is a right element acting through the contragredients.
        u3 = u @ g.b_n2.transpose()
        v3 = v2 @ b_n2_inv
        kappa3 = b_n2_inv.transpose() @ kappa
        if not g.is_identity("b_n2", "b_m2"):
            bt_inv = b_n2_inv.transpose()
            b_m2p = dual.sectioned(dual.proj.apply_leg([t.dim_n2, t.dim_n1], 0, bt_inv))
            b_a0p = _induced_on_kernel(dual, 1, b_n2_inv)
            steps.append(GroupElement(tp, "right", b_n2=bt_inv, b_m2=b_m2p,
                                      b_a0=b_a0p))
        return MutationChoice(u3, v3, kappa3), steps
    # left side: apply g as (g_m, 0, 1) then (1, beta_mid, 1) then
    # (1, 0, l) with beta_mid = l^{-1} beta g_m^{-1}.
    l_b0_inv = right_inverse(g.l_b0)
    g_m_inv = right_inverse(g.g_m)
    beta_mid = l_b0_inv @ g.beta @ g_m_inv
    # (1) g_m part: nothing moves (the choice is insensitive to it).
    # (2) unipotent part: u absorbs -beta_mid (psi2 g_m^T)^T, witness trivial.
    u2 = u - beta_mid @ (w.psi2 @ g.g_m.transpose()).transpose()
    # (3) pure l part: u |-> l_b0 u, witness is a right element.
    u3 = g.l_b0 @ u2
    if not g.is_identity("l_b0", "l_m1", "l_m2"):
        r_a0p = _induced_on_kernel(dual, 0, g.l_b0)
        steps.append(GroupElement(tp, "right", r_n1=g.l_b0, r_m1=g.l_m1,
                                  r_a0=r_a0p))
    return MutationChoice(u3, v, kappa), steps


def transport_report(dual, w, g, choice=None):
    """Check the exact transport identity for one element at one point."""
    if choice is None:
        choice = default_choice(w)
    wg = act(g, w)
    choice_g, steps = transport_element(dual, w, g, choice)
    rep = ValidationReport()
    cval = choice_g.validate(wg)
    rep.add("transported choice valid", cval.ok, "; ".join(cval.failures()))
    if not cval.ok:
        return rep
    zg = mutate(dual, wg, choice_g)
    z = mutate(dual, w, choice)
    for step in steps:
        z = act(step, z)
    rep.add_equal("transport identity", zg, z)
    return rep
