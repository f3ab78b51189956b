"""The three benchmark workloads.

Each workload has a ``setup`` (the inputs every round shares, built
through the program) and ``round(state, r)``: the jobs of round r, whose
inputs are drawn from the run seed and r. One job is one call into
mutation_forge; ``check`` turns its output into (units, record) or
raises Wrong. Checks use answers that hold for any seed: closed forms
taken from the paper, exit codes and verification flags, dimension
equalities, and invariance of verdicts under the group action. The
records of round 0 hold verdicts, "num/den" strings and dimensions only,
never bases that depend on the algorithm; their digest at DEFAULT_SEED
is pinned in DIGESTS.

Jobs look the program's functions up when they run, so a tracer or an
injected fault that rebinds them is seen.
"""

import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 1

# sha256 of the round-0 records at DEFAULT_SEED; see run.digest.
DIGESTS = {
    "constants-qq": "ae5c1f168e084a63cdb938a5868c18f57eb5f07f12961f263bcc833e50d8d3a7",
    "mutation-qq": "a38330689cc825fb12a12d970377ba34d8b190601060cbfbbf71815c117200d8",
    "stability-gf2": "9d1ac3e6503ed6281b0843ecac05198a8e798162eb55bd47b9bf384f204be574",
}


class Wrong(Exception):
    """A job returned an answer that contradicts a known answer."""


def expect(cond, msg):
    if not cond:
        raise Wrong(msg)


class Job:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def _frac(x):
    return None if x is None else "%d/%d" % (x.numerator, x.denominator)


def _rng(name, seed, r):
    return random.Random("%s:%d:%d" % (name, seed, r))


# -- constants-qq -------------------------------------------------------

def closed_form(which, n, m):
    """c_0(m) and c_1(m) as stated in the paper, written out here so the
    check does not rest on the program's own formula."""
    if which == 0:
        if m <= n + 1:
            return Fraction(m * (m - 1), 2 * (m * (n + 1) - 1))
        return Fraction(n + 1, 2 * (n + 2))
    if m <= n + 1:
        return Fraction((n + 1) * (m * (n + 2) - 2), 2 * (m * (n + 1) - 1))
    return Fraction((n + 1) * (n + 3), 2 * (n + 2))


class ConstantsQQ:
    """Seeded c_tau_search over QQ on sigma0 and sigma1, n in {2, 3},
    m in 1..n+1. One job is one search of SAMPLES generic subspaces; the
    unit is one generic subspace scored.

    A round runs every case once and sigma0 with n = 3 and m = 3 twice.
    Sigma1 with n = 3 and m in {3, 4} then takes most of the job time
    (about 57 %). The median job falls among sigma0 n = 3 m = 2 and
    n = 2 m = 3 jobs and the 90th percentile among sigma0 n = 3 m = 4
    and sigma1 n = 3 m = 3 jobs, where job times are dense, so the seed
    moves them little. Running the two sigma1 cases more often would
    put the 90th percentile inside sigma1 n = 3 m = 4, whose job times
    span 4x, and with the same run time the runs spread about twice as
    much."""

    name = "constants-qq"
    unit = "generic subspaces scored"
    SAMPLES = 2
    WEIGHTS = {(0, 3, 3): 2}

    def __init__(self, mf, seed, workdir):
        self.mf = mf
        self.seed = seed

    def setup(self):
        co = self.mf.constants
        QQ = self.mf.exactfield.Field()
        maps = {(which, n): build(QQ, n)
                for which, build in ((0, co.sigma0), (1, co.sigma1))
                for n in (2, 3)}
        cases = [(which, n, m) for which in (0, 1) for n in (2, 3)
                 for m in range(1, n + 2)]
        return maps, cases

    def round(self, state, r):
        maps, cases = state
        rng = _rng(self.name, self.seed, r)
        specs = [case for case in cases for _ in range(self.WEIGHTS.get(case, 1))]
        rng.shuffle(specs)
        return [self._job(maps[(which, n)], which, n, m, rng.randrange(1 << 30))
                for which, n, m in specs]

    def _job(self, t, which, n, m, search_seed):
        co = self.mf.constants
        closed = closed_form(which, n, m)

        def call():
            return co.c_tau_search(t, m, seed=search_seed,
                                   samples=self.SAMPLES, reference=closed)

        def check(rep):
            tag = "sigma%d n=%d m=%d seed=%d" % (which, n, m, search_seed)
            expect(rep.witness_value == closed,
                   "%s: witness %s != closed form %s"
                   % (tag, _frac(rep.witness_value), _frac(closed)))
            expect(rep.max_found is not None and rep.max_found <= closed,
                   "%s: search found %s above %s"
                   % (tag, _frac(rep.max_found), _frac(closed)))
            expect(rep.samples >= 1, "%s: no generic subspace scored" % tag)
            return rep.samples, [which, n, m, search_seed, _frac(rep.witness_value),
                                 _frac(rep.max_found), rep.samples]
        return Job("search", call, check)


# -- mutation-qq --------------------------------------------------------

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

# mutated_instance alone takes tens of seconds here: too long to repeat
# in every run.
EXCLUDED = {(3, (-3, -2, -1), (0,), 1)}

DIM_KEYS = ("n1", "n2", "m1", "m2", "a0", "b0", "mult", "comult")


def pn_grid():
    return [(n, e, fl, p) for n in (1, 2, 3) for e, fl in PN_PATTERNS
            for p in range(len(e)) if (n, e, fl, p) not in EXCLUDED]


class MutationQQ:
    """For every projective-space instance of the grid over QQ (all
    multiplicities 1), the CLI-equivalent pipeline: generate, dual
    --verify, mutate --verify on a seeded point of W0, and
    mutated_instance, whose dims must equal the dual's. One job is one
    step; the unit is one instance completed."""

    name = "mutation-qq"
    unit = "instances completed"

    def __init__(self, mf, seed, workdir):
        self.mf = mf
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        hd = self.mf.homdata
        QQ = self.mf.exactfield.Field()
        out = []
        for n, e, fl, p in pn_grid():
            h = hd.projective_space_hom_data(QQ, n, list(e), list(fl))
            out.append(hd.build_theta_p(h, [1] * h.r, [1] * h.s, p).theta)
        return out

    def round(self, state, r):
        rng = _rng(self.name, self.seed, r)
        jobs = []
        for k, ((n, e, fl, p), theta) in enumerate(zip(pn_grid(), state)):
            d = os.path.join(self.workdir, "inst%02d" % k)
            os.makedirs(d, exist_ok=True)
            for fn in os.listdir(d):
                os.remove(os.path.join(d, fn))
            with open(os.path.join(d, "point.json"), "w") as fh:
                json.dump(self.mf.theta.point_to_json(self._w0_point(theta, rng)), fh)
            jobs.extend(self._pipeline(d, n, e, fl, p))
        return jobs

    def _w0_point(self, theta, rng):
        th = self.mf.theta
        M = self.mf.exactfield.ExactMatrix
        f = theta.field

        def rnd(rows, cols):
            if rows == 0 or cols == 0:
                return M.zeros(f, rows, cols)
            return M(f, [[rng.randint(-2, 2) for _ in range(cols)]
                         for _ in range(rows)])
        while True:
            w = th.MorphismPoint(theta, rnd(theta.dim_n1, theta.dim_mult),
                                 rnd(theta.dim_n2, theta.dim_mult),
                                 rnd(theta.dim_m1, 1), rnd(theta.dim_m2, 1))
            if th.in_W0(w):
                return w

    def _pipeline(self, d, n, e, fl, p):
        mf = self.mf
        tag = "P%d e=%s f=%s p=%d" % (n, list(e), list(fl), p)
        path = {k: os.path.join(d, k + ".json")
                for k in ("gen", "theta", "point", "dual", "mutate")}
        got = {}

        def load(key):
            with open(path[key]) as fh:
                return json.load(fh)["result"]

        def gen():
            return mf.cli.main(["generate", "--n", str(n),
                                "--edeg", *map(str, e), "--fdeg", *map(str, fl),
                                "--m", *["1"] * len(e), "--nmult", *["1"] * len(fl),
                                "--p", str(p), "--out", path["gen"]])

        def gen_check(code):
            expect(code == 0, "%s: generate exit %r" % (tag, code))
            res = load("gen")
            with open(path["theta"], "w") as fh:
                json.dump(res["theta"], fh)
            got["hom"] = res["hom"]
            dims = [res["theta"]["dims"][k] for k in DIM_KEYS]
            return 0, ["generate", tag, dims]

        def dual():
            return mf.cli.main(["dual", "--theta", path["theta"], "--verify",
                                "--out", path["dual"]])

        def dual_check(code):
            expect(code == 0, "%s: dual exit %r" % (tag, code))
            res = load("dual")
            expect(res["prime_valid"] is True, "%s: dual space invalid" % tag)
            expect(res["double_dual_ok"] is True, "%s: double dual differs" % tag)
            got["dual_dims"] = [res["prime"]["dims"][k] for k in DIM_KEYS]
            return 0, ["dual", tag, got["dual_dims"]]

        def mutate():
            return mf.cli.main(["mutate", "--theta", path["theta"], "--point",
                                path["point"], "--verify", "--out", path["mutate"]])

        def mutate_check(code):
            expect(code == 0, "%s: mutate exit %r" % (tag, code))
            res = load("mutate")
            expect(res["involution_ok"] is True, "%s: involution fails" % tag)
            expect("mutation" in res, "%s: no mutated point" % tag)
            return 0, ["mutate", tag, True]

        def hat():
            h = mf.homdata.hom_data_from_json(got["hom"])
            return list(mf.homdata.mutated_instance(
                h, [1] * h.r, [1] * h.s, p).theta.dims())

        def hat_check(dims):
            expect(dims == got.get("dual_dims"),
                   "%s: mutated instance dims %s != dual dims %s"
                   % (tag, dims, got.get("dual_dims")))
            return 1, ["mutated_instance", tag, dims]

        return [Job("generate", gen, gen_check), Job("dual", dual, dual_check),
                Job("mutate", mutate, mutate_check),
                Job("mutated_instance", hat, hat_check)]


# -- stability-gf2 ------------------------------------------------------

# psi2 (rows of N2 = H_11 (x) M_1* + H_12 (x) M_2*, columns N_1) of two
# points of P^1, e=(-2,-1), f=(0), over GF(2). M_SS is G-semistable for
# m=(2,2), n=(3): its unipotent orbit has 2^8 points, all Gred-semistable.
# B_UNSTABLE is Gred-unstable for m=(2,3), n=(4).
M_SS = [[1, 0, 0], [1, 1, 1], [0, 0, 0], [1, 1, 1], [0, 0, 1],
        [0, 0, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]]
B_UNSTABLE = [[0, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 1], [1, 0, 0, 1],
              [1, 1, 1, 0], [0, 0, 0, 0], [1, 0, 1, 1], [1, 0, 1, 0],
              [0, 1, 1, 1], [1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0]]


class StabilityGF2:
    """Gred and G verdicts and compare_stability(group="G") over GF(2) on
    the projective line, e=(-2,-1), f=(0), p=0:

    small  m=(1,1), n=(2), lam=(1/2,1/2), mu=(1/2): seeded points of W0,
           each judged by Gred and G, the first SMALL_COMPARE also by
           compare (milliseconds each);
    mid    m=(2,2), n=(3), lam=(1/4,1/4), mu=(1/3): translates g.u.M_SS
           by seeded reductive g and unipotent u, so G-semistable by
           invariance; each G verdict walks all 2^8 unipotent translates;
    big    m=(2,3), n=(4), lam=(1/5,1/5), mu=(1/4): Gred on seeded points
           of W0, and Gred and G on translates g.B_UNSTABLE, which stay
           Gred-unstable, so each G walk stops at its first translate.

    The number of full orbit walks per round is fixed, whatever the
    seed. One job is one verdict; so is the unit. Job times group by
    kind, in this order: small Gred, small G, mid Gred, small compare,
    big Gred, big G, mid G, mid compare. These counts put the median job
    in the middle of the small G verdicts and the 90th percentile in the
    middle of the big Gred verdicts, not on the edge between two groups,
    where the seed moves them most: with 12 small points, all compared,
    the median fell between the small G verdicts (about 1 ms) and the
    compares (about 3 ms) and moved with the seed by 10 %."""

    name = "stability-gf2"
    unit = "verdicts"
    SMALL_POINTS = 25
    SMALL_COMPARE = 14
    MID_POINTS = 2
    MID_COMPARE = 1
    BIG_RANDOM = 3
    BIG_UNSTABLE = 2

    def __init__(self, mf, seed, workdir):
        self.mf = mf
        self.seed = seed

    def setup(self):
        mf = self.mf
        F2 = mf.exactfield.Field(2)
        h = mf.homdata.projective_space_hom_data(F2, 1, [-2, -1], [0])
        out = {}
        for key, m, n, lam, rep in (
                ("small", [1, 1], [2], (Fraction(1, 2), Fraction(1, 2)), None),
                ("mid", [2, 2], [3], (Fraction(1, 4), Fraction(1, 3)), M_SS),
                ("big", [2, 3], [4], (Fraction(1, 5), Fraction(1, 4)), B_UNSTABLE)):
            inst = mf.homdata.build_theta_p(h, m, n, 0)
            pol = mf.homdata.Polarization([lam[0]] * 2, [lam[1]], m, n)
            fam = None
            if rep is not None:
                fam = inst.family_from_point(self._point(inst, rep))
            out[key] = (inst, pol, fam)
        return out

    def _point(self, inst, rows):
        M = self.mf.exactfield.ExactMatrix
        t = inst.theta
        f = t.field
        return self.mf.theta.MorphismPoint(t, M.zeros(f, 0, t.dim_mult),
                                           M(f, rows), M.zeros(f, 0, 1),
                                           M.zeros(f, 0, 1))

    def _random_w0(self, inst, rng):
        t = inst.theta
        while True:
            rows = [[rng.randint(0, 1) for _ in range(t.dim_mult)]
                    for _ in range(t.dim_n2)]
            w = self._point(inst, rows)
            if self.mf.theta.in_W0(w):
                return w

    def _invertible(self, n, rng):
        M = self.mf.exactfield.ExactMatrix
        F2 = self.mf.exactfield.Field(2)
        while True:
            g = M(F2, [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            if g.rank() == n:
                return g

    def _translate(self, inst, fam, rng, unipotent):
        """g.u.fam for a seeded reductive g (GL(N_l) on the left, GL(M_i)
        on the multiplicity factor of the source) and, when asked, a
        seeded unipotent u. Both preserve the G verdict; g alone also
        preserves the Gred verdict."""
        mf = self.mf
        M = mf.exactfield.ExactMatrix
        h = inst.h
        f = h.field
        if unipotent:
            rows = h.dimA[(2, 1)] * inst.m_mult[1]
            cols = inst.m_mult[0]
            u = M(f, [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)])
            fam = mf.stability.apply_unipotent(inst, fam, {(True, 2, 1): u})
        gn = [self._invertible(n, rng) for n in inst.n_mult]
        gm = [self._invertible(m, rng) for m in inst.m_mult]
        moved = {(l, i): gn[l - 1] @ x @ M.identity(f, h.dimH[(l, i)]).kron(gm[i - 1])
                 for (l, i), x in fam.items()}
        return inst.point_from_family(moved)

    def round(self, state, r):
        rng = _rng(self.name, self.seed, r)
        small, mid, big = state["small"], state["mid"], state["big"]
        jobs = []
        for k in range(self.SMALL_POINTS):
            w = self._random_w0(small[0], rng)
            jobs += self._pair("small%d" % k, small, w, None)
            if k < self.SMALL_COMPARE:
                jobs.append(self._compare("small%d" % k, small, w, None))
        for k in range(self.MID_POINTS):
            w = self._translate(mid[0], mid[2], rng, unipotent=True)
            jobs += self._pair("mid%d" % k, mid, w, True)
        for k in range(self.MID_COMPARE):
            w = self._translate(mid[0], mid[2], rng, unipotent=True)
            jobs.append(self._compare("midc%d" % k, mid, w, True))
        for k in range(self.BIG_RANDOM):
            w = self._random_w0(big[0], rng)
            jobs.append(self._verdict("bigr%d" % k, big, w, "Gred", None, {}))
        for k in range(self.BIG_UNSTABLE):
            w = self._translate(big[0], big[2], rng, unipotent=False)
            jobs += self._pair("bigu%d" % k, big, w, False)
        return jobs

    def _pair(self, tag, case, w, g_semistable):
        """A Gred job and a G job on one point; the G job also checks
        that G-semistable implies Gred-semistable."""
        seen = {}
        gred_expect = False if g_semistable is False else None
        return [self._verdict(tag, case, w, "Gred", gred_expect, seen),
                self._verdict(tag, case, w, "G", g_semistable, seen)]

    def _verdict(self, tag, case, w, group, expected, seen):
        st = self.mf.stability
        inst, pol, _ = case

        def call():
            return st.is_semistable_rs(inst, w, pol, group=group)

        def check(v):
            expect(not v.stable or v.semistable, "%s %s: stable but not semistable"
                   % (tag, group))
            if expected is not None:
                expect(v.semistable == expected, "%s %s: semistable=%s, expected %s"
                       % (tag, group, v.semistable, expected))
            if group == "Gred":
                seen["gred"] = v.semistable
            else:
                expect(not v.semistable or seen.get("gred") is True,
                       "%s: G-semistable but not Gred-semistable" % tag)
            return 1, [tag, group, v.semistable, v.stable]
        return Job(group, call, check)

    def _compare(self, tag, case, w, w_semistable):
        st = self.mf.stability
        inst, pol, _ = case

        def call():
            return st.compare_stability(inst, w, pol, group="G")

        def check(rep):
            expect(rep.in_w0, "%s: point left W0" % tag)
            expect(rep.ok, "%s: comparison fails: %r" % (tag, rep))
            if w_semistable is not None:
                expect(rep.verdict_w.semistable == w_semistable,
                       "%s: G verdict %s, expected %s"
                       % (tag, rep.verdict_w.semistable, w_semistable))
            return 1, [tag, "compare", rep.verdict_w.semistable,
                       rep.verdict_z.semistable, rep.forward_asserted,
                       rep.backward_asserted]
        return Job("compare", call, check)


WORKLOADS = {w.name: w for w in (ConstantsQQ, MutationQQ, StabilityGF2)}
