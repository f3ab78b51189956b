"""Hom-composition systems, two-tier instances, mutated systems, and
polarization transport."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from mutation_forge.exactfield import ExactMatrix, Field
from mutation_forge.theta import PARTS, in_W0, matrix_to_json, theta_to_json
from mutation_forge.mutation import build_dual, default_choice, mutate
from mutation_forge.homdata import (BlockLayout, HomData, Polarization,
                                    build_theta_p,
                                    dual_point_to_mutated, hom_data_from_json,
                                    hom_data_to_json,
                                    instance_left_element,
                                    instance_right_element, map_polarization,
                                    mutated_hom_data, mutated_instance,
                                    _monomials, mutated_multiplicities,
                                    projective_space_hom_data,
                                    transpose_hom_data, validate_hom_data)
from conftest import (full_p1_instance, inclusion, pn_grid, pn_hom, pn_instance,
                      pn_mutated, rnd_invertible, rnd_matrix, random_w0_point)

QQ = Field()


def _binom(n, k):
    from math import comb
    return comb(n, k)


def reference_monomials(n_vars, d):
    """The exponent tuples as they were first built: x_1^e0 times every
    monomial of degree d - e0 in the other variables, e0 from d down."""
    if n_vars == 1:
        return [(d,)]
    return [(e0,) + rest for e0 in range(d, -1, -1)
            for rest in reference_monomials(n_vars - 1, d - e0)]


def test_monomials_match_the_recursive_form():
    for n_vars in range(1, 6):
        for d in range(7):
            assert _monomials(n_vars, d) == reference_monomials(n_vars, d), (n_vars, d)


def test_monomials_of_many_variables():
    """No recursion per variable: 1001 variables (P^1000) are as easy as
    three."""
    mons = _monomials(1001, 1)
    assert len(mons) == 1001
    assert mons == [tuple(int(k == v) for k in range(1001)) for v in range(1001)]


def test_projective_hom_dimensions():
    for n in (1, 2, 3):
        h = projective_space_hom_data(QQ, n, [-2, -1], [0, 1])
        assert h.dimH[(1, 1)] == _binom(n + 2, n)
        assert h.dimH[(1, 2)] == _binom(n + 1, n)
        assert h.dimH[(2, 1)] == _binom(n + 3, n)
        assert h.dimA[(2, 1)] == _binom(n + 1, n)
        assert h.dimB[(2, 1)] == _binom(n + 1, n)


@pytest.mark.parametrize("n", [0, -1])
def test_projective_space_needs_n_at_least_one(n):
    with pytest.raises(ValueError):
        projective_space_hom_data(QQ, n, [-2, -1], [0])


def test_hom_data_validates():
    for n in (1, 2):
        h = projective_space_hom_data(QQ, n, [-2, -1], [0, 1])
        rep = validate_hom_data(h)
        assert rep.ok, rep.failures()


def test_hom_data_detects_corruption():
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    comp = h.comp_BH[(2, 1, 1)]
    comp.data[0][0] = comp.data[0][0] + 1
    rep = validate_hom_data(h)
    assert not rep.ok


@pytest.mark.parametrize("corrupt", ["comp 1x1", "dim 5"])
def test_hom_data_reports_misshapen_comp(corrupt):
    """A composition that does not fit its declared dims is a shapes
    failure in the report, not an exception; the identity and
    associativity checks, which need the shapes, are skipped."""
    h = projective_space_hom_data(Field(2), 1, [-2, -1], [0])
    if corrupt == "comp 1x1":
        h.comp_HA[(1, 1, 1)] = ExactMatrix.identity(h.field, 1)
    else:
        h.dimH[(1, 1)] = 5
    rep = validate_hom_data(h)
    assert repr(rep) == "ValidationReport(shapes=FAIL)"
    assert rep.failures() == ["shapes"]


def test_block_layout():
    lay = BlockLayout([("a", 2, ()), ("b", 3, (("M", 1),))], {("M", 1): 2})
    assert lay.total == 8
    assert lay.offsets["a"] == 0 and lay.offsets["b"] == 2
    assert lay.legs["b"] == (("M", 1),) and lay.dims["b"] == 6


def test_mutated_hom_data_validates_p2():
    h = projective_space_hom_data(QQ, 2, [-2, -1], [0])
    hm = mutated_hom_data(h, 0)
    assert (hm.r, hm.s) == (1, 2)
    assert hm.dimH[(1, 1)] == 6
    assert hm.dimH[(2, 1)] == 3
    assert hm.dimB[(2, 1)] == 3
    rep = validate_hom_data(hm)
    assert rep.ok, rep.failures()


def test_mutated_hom_data_validates_p1_two_two():
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    for p in (0, 1):
        hm = mutated_hom_data(h, p)
        assert (hm.r, hm.s) == (p + 1, h.r + h.s - p - 1)
        rep = validate_hom_data(hm)
        assert rep.ok, (p, rep.failures())


def test_transpose_is_involutive():
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    ht = transpose_hom_data(h)
    assert (ht.r, ht.s) == (h.s, h.r)
    htt = transpose_hom_data(ht)
    assert htt.dimH == h.dimH
    assert htt.dimA == h.dimA and htt.dimB == h.dimB
    assert htt.comp_HA == h.comp_HA and htt.comp_BH == h.comp_BH
    assert htt.comp_AA == h.comp_AA and htt.comp_BB == h.comp_BB


def test_transposed_hom_data_validates():
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    rep = validate_hom_data(transpose_hom_data(h))
    assert rep.ok, rep.failures()


def test_mutated_multiplicities_worked_example():
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0])
    mp, np_ = mutated_multiplicities(h, [1, 1], [2], 0)
    assert mp == [3]
    assert np_ == [1, 1]


def test_dimension_functoriality_grid():
    """Dual dimensions of every projective instance equal the dimensions
    of the mutated instance, across the whole grid."""
    for (n, e, fl, p) in pn_grid():
        inst = pn_instance(n, e, fl, p)
        hat = pn_mutated(n, e, fl, p)
        dual_dims = build_dual(inst.theta).prime.dims()
        assert dual_dims == hat.theta.dims(), (n, e, fl, p)


def test_polarization_normalization_checked():
    with pytest.raises(ValueError):
        Polarization([Fraction(1, 2)], [Fraction(1, 2)], [1], [1])
    with pytest.raises(ValueError):
        Polarization([Fraction(-1), Fraction(2)], [Fraction(1)],
                     [1, 1], [1])
    Polarization([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)],
                 [1, 1], [2])


def test_polarization_transpose_involution():
    pol = Polarization([Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 3)],
                       [2, 2], [3])
    assert pol.transpose().transpose() == pol


def test_map_polarization_worked_example():
    h = projective_space_hom_data(QQ, 2, [-2, -1], [0])
    pol = Polarization([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)],
                       [1, 1], [2])
    rep = map_polarization(pol, h, 0)
    assert rep.ok
    assert rep.lam == [Fraction(1, 7)]
    assert rep.mu == [Fraction(5, 7), Fraction(2, 7)]
    assert rep.constant == Fraction(7, 2)
    hat = rep.polarization()
    assert sum(a * m for a, m in zip(hat.lam, hat.m_mult)) == 1
    assert sum(b * n for b, n in zip(hat.mu, hat.n_mult)) == 1


def test_map_polarization_round_trip():
    h = projective_space_hom_data(QQ, 2, [-2, -1], [0])
    pol = Polarization([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)],
                       [1, 1], [2])
    rep = map_polarization(pol, h, 0)
    ht = transpose_hom_data(mutated_hom_data(h, 0))
    back = map_polarization(rep.polarization().transpose(), ht, h.s - 1)
    assert back.ok
    assert back.polarization().transpose() == pol


def _random_polarization(rng, m_mult, n_mult):
    a = [Fraction(rng.randint(1, 5)) for _ in m_mult]
    b = [Fraction(rng.randint(1, 5)) for _ in n_mult]
    ta = sum(x * m for x, m in zip(a, m_mult))
    tb = sum(x * n for x, n in zip(b, n_mult))
    return Polarization([x / ta for x in a], [x / tb for x in b],
                        m_mult, n_mult)


def test_difference_form_preserved():
    """The defining difference form of sub-dimension vectors transforms
    by the constant of the mapped polarization."""
    rng = random.Random(44)
    grids = [(1, (-2, -1), (0,), 0), (1, (-2, -1), (0, 1), 1),
             (2, (-2, -1), (0,), 0), (1, (-3, -2, -1), (0,), 1)]
    for (n, e, fl, p) in grids:
        h = pn_hom(n, e, fl)
        r, s = h.r, h.s
        for _ in range(25):
            m_mult = [rng.randint(1, 3) for _ in range(r)]
            n_mult = [rng.randint(1, 3) for _ in range(s)]
            pol = _random_polarization(rng, m_mult, n_mult)
            rep = map_polarization(pol, h, p)
            mp = [rng.randint(0, m_mult[i]) for i in range(r)]
            np_ = [rng.randint(0, n_mult[l]) for l in range(s)]
            lhs = (sum(pol.lam[i] * mp[i] for i in range(r))
                   - sum(pol.mu[l] * np_[l] for l in range(s)))
            d = [h.dimH[(1, j)] for j in range(1, r + 1)]
            m_hat = mp[:p] + [sum(d[j] * mp[j] for j in range(p, r)) - np_[0]]
            n_hat = mp[p:] + np_[1:]
            rhs = (sum(rep.lam[i] * m_hat[i] for i in range(len(m_hat)))
                   - sum(rep.mu[l] * n_hat[l] for l in range(len(n_hat))))
            assert lhs == rep.constant * rhs


# (n, e, f) of the systems behind BUILDER_DIGEST: the patterns of the CLI
# golden runs, each over QQ and GF(3) and mutated at every p
BUILDER_SYSTEMS = [
    (1, (-2, -1), (0,)),
    (2, (-2, -1), (0, 1)),
    (2, (-3, -2, -1), (0,)),
    (3, (-2,), (0, 1, 2)),
]
# sha256 of the builders' JSON as they wrote it when it was pinned: a
# change of this digest is a change of a built Hom system
BUILDER_DIGEST = "43baf2b06baec4af897afa7f5f43a536e56eb17ff3fa0e30532ecf6981ec3eeb"


def test_builder_output_digest():
    """The bytes of the projective, transposed and mutated Hom systems,
    the mutated systems' quotient and kernel presentations and the theta
    of each mutated instance."""
    digest = hashlib.sha256()

    def put(obj):
        digest.update(json.dumps(obj, sort_keys=True).encode())

    for field in (QQ, Field(3)):
        for n, e, fl in BUILDER_SYSTEMS:
            h = projective_space_hom_data(field, n, list(e), list(fl))
            put(hom_data_to_json(h))
            put(hom_data_to_json(transpose_hom_data(h)))
            for p in range(h.r):
                hm = mutated_hom_data(h, p)
                put(hom_data_to_json(hm))
                put(hom_data_to_json(transpose_hom_data(hm)))
                # each section as the inclusion of its complement
                # coordinates, each kernel as its basis
                put([[list(k), [matrix_to_json(x) for x in
                                (emb, proj, inclusion(field, emb.rows, comp))]]
                     for k, (emb, proj, comp) in sorted(hm.quot.items())])
                put([[list(k), matrix_to_json(basis)]
                     for k, (basis, _) in sorted(hm.ker.items())])
                inst = mutated_instance(h, [1] * h.r, [1] * h.s, p)
                put(theta_to_json(inst.theta))
    assert digest.hexdigest() == BUILDER_DIGEST


# (n, e, f) of the systems behind REFUSAL_DIGEST, each over QQ and GF(3):
# their mutations meet every kind of well-definedness check
REFUSAL_SYSTEMS = [(1, (-1,), (0, 1, 2)), (1, (-2, -1), (0, 1))]
# sha256 of what mutated_hom_data gave on each one-entry change of those
# systems' compositions when it was pinned: the error text of a refusal,
# or the JSON of the mutated system
REFUSAL_DIGEST = "0fac0b03751cbb4df56413fffd40aaeaa142795c6cfcd3b3835fdbd05382fa3f"
REFUSALS = {"induced B'B' composition leaves the kernel": 212,
            "induced H'A' composition ill-defined": 18,
            "induced B'H' composition ill-defined": 8,
            "induced mixed B'H' composition ill-defined": 68,
            "ok": 660}


def test_mutated_hom_data_refuses_inconsistent_compositions():
    """Add 1 to one entry of one composition of HA, BH or BB and mutate
    at every p: each well-definedness check of the quotient and kernel
    compositions refuses some of these systems with its message, and
    every outcome, refusal or built system, is the pinned one."""
    digest = hashlib.sha256()
    seen = dict.fromkeys(REFUSALS, 0)
    for field in (QQ, Field(3)):
        for n, e, fl in REFUSAL_SYSTEMS:
            h = projective_space_hom_data(field, n, list(e), list(fl))
            for d in ("comp_HA", "comp_BH", "comp_BB"):
                for key, M in sorted(getattr(h, d).items()):
                    for i, j in product(range(M.rows), range(M.cols)):
                        data = M.copy_data()
                        data[i][j] = field.of(data[i][j] + 1)
                        comps = {x: getattr(h, x) for x in
                                 ("comp_HA", "comp_BH", "comp_AA", "comp_BB")}
                        comps[d] = {**comps[d], key: ExactMatrix(field, data)}
                        changed = HomData(field, h.r, h.s, h.dimH, h.dimA,
                                          h.dimB, **comps)
                        for p in range(h.r):
                            try:
                                hm = mutated_hom_data(changed, p)
                                msg = "ok"
                                digest.update(json.dumps(hom_data_to_json(hm),
                                                         sort_keys=True).encode())
                            except ValueError as exc:
                                msg = str(exc)
                            seen[msg] += 1
                            digest.update(("%r %s %s %r %d %d %d %s\n" % (
                                field, e, d, key, i, j, p, msg)).encode())
    assert seen == REFUSALS
    assert digest.hexdigest() == REFUSAL_DIGEST


def test_mutated_hom_data_refuses_a_non_injective_embedding():
    """With the composition H_12 (x) A_21 -> H_11 zeroed, A_21 maps to 0
    in H_11 (x) H*_12, and the quotient of the mutation at p = 1 has no
    presentation: the embedding is refused, before any composition."""
    for field in (QQ, Field(3)):
        h = projective_space_hom_data(field, 1, [-2, -1], [0, 1])
        M = h.comp_HA[(1, 2, 1)]
        comps = {x: getattr(h, x) for x in ("comp_HA", "comp_BH", "comp_AA", "comp_BB")}
        comps["comp_HA"] = {**h.comp_HA, (1, 2, 1): ExactMatrix.zeros(field, M.rows, M.cols)}
        changed = HomData(field, h.r, h.s, h.dimH, h.dimA, h.dimB, **comps)
        with pytest.raises(ValueError, match="is not injective"):
            mutated_hom_data(changed, 1)


# (n, e, f) of the systems behind INSTANCE_DIGEST, each over QQ and GF(3)
# at every cut p and every multiplicity up to 2, m_i = 0 included
INSTANCE_SYSTEMS = [
    (1, (-2, -1), (0, 1)),
    (2, (-2, -1), (0, 1)),
    (1, (-3, -2, -1), (0, 1)),
    (1, (-1,), (0, 1, 2)),
]
# sha256 of the instances as they were built when it was pinned: a change
# of this digest is a change of a theta, a refusal or a symmetry
INSTANCE_DIGEST = "51b903bd870f532754f3eb961f612735baca6023646d4af479d5c8165d1d2cf2"


def _symmetry_parts(inst, rng):
    """The linear parts of a seeded right and left symmetry of inst."""
    f, t = inst.h.field, inst.theta
    right = instance_right_element(
        inst, c_by_i={i: rnd_invertible(f, rng, m)
                      for i, m in enumerate(inst.m_mult, 1)},
        alpha0=rnd_matrix(f, rng, t.dim_a0, 1))
    left = instance_left_element(
        inst, g_m=rnd_invertible(f, rng, t.dim_mult),
        d_by_l={l: rnd_invertible(f, rng, inst.n_mult[l - 1])
                for l in range(2, inst.h.s + 1)},
        beta=rnd_matrix(f, rng, t.dim_b0, t.dim_mult))
    return [matrix_to_json(getattr(g, name))
            for g in (right, left) for name, _ in PARTS[g.side][0]]


def test_instance_output_digest():
    """The theta of every instance of the systems above, or the text of
    the ValueError that refuses it; the theta of its mutated instance
    where no m_i is 0; the parts of a seeded right and left symmetry."""
    digest = hashlib.sha256()

    def put(obj):
        digest.update(json.dumps(obj, sort_keys=True).encode())

    rng = random.Random(50)
    for field in (QQ, Field(3)):
        for n, e, fl in INSTANCE_SYSTEMS:
            h = projective_space_hom_data(field, n, list(e), list(fl))
            for p in range(h.r):
                for m in product(range(3), repeat=h.r):
                    for nm in product((1, 2), repeat=h.s):
                        try:
                            inst = build_theta_p(h, list(m), list(nm), p)
                        except ValueError as exc:
                            put(str(exc))
                            continue
                        put(theta_to_json(inst.theta))
                        if all(m):
                            put(theta_to_json(mutated_instance(
                                h, list(m), list(nm), p).theta))
                        put(_symmetry_parts(inst, rng))
    assert digest.hexdigest() == INSTANCE_DIGEST


def test_hom_data_json_round_trip_byte_identical():
    for h in (projective_space_hom_data(QQ, 1, [-2, -1], [0, 1]),
              projective_space_hom_data(Field(2), 1, [-2, -1], [0])):
        d = hom_data_to_json(h)
        s1 = json.dumps(d, sort_keys=True)
        h2 = hom_data_from_json(json.loads(s1))
        s2 = json.dumps(hom_data_to_json(h2), sort_keys=True)
        assert s1 == s2


@pytest.mark.parametrize("what, entry", [("dimH", {"key": [9, 9], "dim": 4}),
                                         ("comp_HA", {"key": [1, 2, 3], "matrix": {
                                             "rows": 1, "cols": 1, "entries": ["1/1"]}})])
def test_hom_data_reader_refuses_a_key_of_no_chain(what, entry):
    """An entry whose key names no chain of objects of the type is an
    error that names its key and dict."""
    d = hom_data_to_json(projective_space_hom_data(Field(2), 1, [-2, -1], [0]))
    d[what].append(entry)
    key = entry["key"]
    with pytest.raises(ValueError, match=r"^key \[%s\] in %s names no chain of objects$"
                       % (", ".join(map(str, key)), what)):
        hom_data_from_json(d)


@pytest.mark.parametrize("what", ["dimA", "comp_BH"])
def test_hom_data_reader_refuses_a_repeated_key(what):
    """A key listed twice is an error that names it and its dict, even
    when both entries agree, and however far apart they are."""
    d = hom_data_to_json(projective_space_hom_data(Field(2), 1, [-2, -1], [0, 1]))
    d[what].append(dict(d[what][0]))
    key = d[what][0]["key"]
    with pytest.raises(ValueError, match=r"^key \[%s\] is listed twice in %s$"
                       % (", ".join(map(str, key)), what)):
        hom_data_from_json(d)


def test_family_point_round_trip():
    rng = random.Random(45)
    inst = full_p1_instance()
    w = random_w0_point(inst.theta, rng)
    fam = inst.family_from_point(w)
    assert inst.point_from_family(fam) == w


def test_instance_elements_are_valid_symmetries():
    rng = random.Random(47)
    inst = full_p1_instance()
    c_by_i = {1: rnd_invertible(QQ, rng, inst.m_mult[0]),
              2: rnd_invertible(QQ, rng, inst.m_mult[1])}
    g = instance_right_element(inst, c_by_i=c_by_i,
                               alpha0=rnd_matrix(QQ, rng,
                                                 inst.theta.dim_a0, 1))
    assert g.side == "right"
    d_by_l = {2: rnd_invertible(QQ, rng, inst.n_mult[1])}
    gl = instance_left_element(inst,
                               g_m=rnd_invertible(QQ, rng,
                                                  inst.theta.dim_mult),
                               d_by_l=d_by_l,
                               beta=rnd_matrix(QQ, rng, inst.theta.dim_b0,
                                               inst.theta.dim_mult))
    assert gl.side == "left"


def test_dual_point_to_mutated_kronecker_regime():
    rng = random.Random(48)
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    inst_hat = mutated_instance(h, [1, 1], [2], 0)
    dual = build_dual(inst.theta)
    for _ in range(10):
        w = random_w0_point(inst.theta, rng)
        z = mutate(dual, w, default_choice(w))
        z_hat = dual_point_to_mutated(inst, inst_hat, z)
        assert z_hat.theta == inst_hat.theta
        assert in_W0(z_hat)


def test_dual_point_to_mutated_restricted():
    inst = full_p1_instance()   # p = 1, s = 2: outside the regime
    inst_hat = mutated_instance(inst.h, inst.m_mult, inst.n_mult, inst.p)
    dual = build_dual(inst.theta)
    rng = random.Random(49)
    w = random_w0_point(inst.theta, rng)
    z = mutate(dual, w, default_choice(w))
    with pytest.raises(ValueError):
        dual_point_to_mutated(inst, inst_hat, z)
