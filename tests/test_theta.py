"""Abstract morphism spaces: axioms, symmetry groups, charts,
serialization."""

import json
import random

import pytest

from mutation_forge.exactfield import ExactMatrix, Field, GF
from mutation_forge.theta import (GroupElement, MorphismPoint, ThetaSpace,
                                  act, act_pair, chart_for_point, in_W0,
                                  matrix_from_json, matrix_to_json,
                                  point_from_json, point_to_json,
                                  scalar_from_str, scalar_to_str,
                                  theta_from_json, theta_to_json,
                                  validate_theta)
from conftest import (full_p1_instance, rnd_invertible, rnd_matrix,
                      random_point, random_w0_point, theta_pool)

QQ = Field()


def test_pool_instances_validate():
    for t in theta_pool(11, 8):
        rep = validate_theta(t)
        assert rep.ok, rep.failures()


def test_validate_names_diagram_d_on_corruption():
    t = full_p1_instance().theta
    bad_mu = t.mu + ExactMatrix(
        QQ, [[1 if (i, j) == (0, 0) else 0 for j in range(t.mu.cols)]
             for i in range(t.mu.rows)])
    bad = ThetaSpace(t.field, t.dim_n1, t.dim_n2, t.dim_m1, t.dim_m2,
                     t.dim_a0, t.dim_b0, t.dim_mult,
                     t.rho1, t.rho2, bad_mu, t.nu)
    rep = validate_theta(bad)
    assert not rep.ok
    assert rep.failures() == ["diagram D"]


def _zero_first_row(m):
    return ExactMatrix(m.field, [[0] * m.cols] + m.data[1:])


def test_validate_gives_the_rank_of_a_failed_rank_check():
    """With a row of rho2 zeroed, rho2 surjective fails with the rank it
    found and the dimension it expected; passing checks carry no detail."""
    t = full_p1_instance().theta
    bad = ThetaSpace(t.field, t.dim_n1, t.dim_n2, t.dim_m1, t.dim_m2,
                     t.dim_a0, t.dim_b0, t.dim_mult,
                     t.rho1, _zero_first_row(t.rho2), t.mu, t.nu)
    checks = {name: (ok, detail) for name, ok, detail in validate_theta(bad).checks}
    assert checks["rho2 surjective"] == (
        False, "rank %d, expected %d" % (t.dim_m2 - 1, t.dim_m2))
    assert all(detail == "" for ok, detail in checks.values() if ok)
    assert all(detail == "" for _, _, detail in validate_theta(t).checks)


def test_zero_point_outside_w0():
    t = full_p1_instance().theta
    assert not in_W0(MorphismPoint.zero(t))


def test_point_shape_checks():
    t = full_p1_instance().theta
    f = t.field
    with pytest.raises(ValueError):
        MorphismPoint(t, ExactMatrix.zeros(f, t.dim_n1 + 1, t.dim_mult),
                      ExactMatrix.zeros(f, t.dim_n2, t.dim_mult),
                      ExactMatrix.zeros(f, t.dim_m1, 1),
                      ExactMatrix.zeros(f, t.dim_m2, 1))


def _scalar_right(t, c):
    f = t.field
    I = ExactMatrix.identity
    return GroupElement(t, "right",
                        r_n1=I(f, t.dim_n1).scale(c), r_m1=I(f, t.dim_m1).scale(c),
                        r_a0=I(f, t.dim_a0).scale(c))


def _random_left(t, rng):
    f = t.field
    return GroupElement(t, "left", g_m=rnd_invertible(f, rng, t.dim_mult),
                        beta=rnd_matrix(f, rng, t.dim_b0, t.dim_mult))


def test_group_composition_matches_action():
    rng = random.Random(21)
    for t in theta_pool(22, 6):
        w = random_point(t, rng)
        g = _scalar_right(t, QQ.of(2))
        h = GroupElement(t, "right",
                         alpha0=rnd_matrix(t.field, rng, t.dim_a0, 1))
        assert act(h, act(g, w)) == act(g.then(h), w)
        gl = _random_left(t, rng)
        hl = _random_left(t, rng)
        assert act(hl, act(gl, w)) == act(gl.then(hl), w)


def test_group_inverse():
    rng = random.Random(23)
    for t in theta_pool(24, 6):
        w = random_point(t, rng)
        for g in (_scalar_right(t, QQ.of(-3)),
                  GroupElement(t, "right",
                               alpha0=rnd_matrix(t.field, rng, t.dim_a0, 1)),
                  _random_left(t, rng)):
            assert act(g.inverse(), act(g, w)) == w
            assert g.then(g.inverse()).is_identity()


def test_act_pair_order():
    rng = random.Random(25)
    t = full_p1_instance().theta
    w = random_point(t, rng)
    gr = _scalar_right(t, QQ.of(2))
    gl = _random_left(t, rng)
    assert act_pair(gr, gl, w) == act(gl, act(gr, w))


def test_equivariance_axioms_rejected():
    t = full_p1_instance().theta
    f = t.field
    bad = ExactMatrix.identity(f, t.dim_m1).scale(f.of(2))
    with pytest.raises(ValueError):
        GroupElement(t, "left", l_m1=bad)  # breaks rho1 equivariance


def test_chart_contains_its_point():
    rng = random.Random(26)
    for t in theta_pool(27, 6):
        w = random_w0_point(t, rng)
        chart = chart_for_point(t, w)
        assert chart.in_domain(w)
        iso = chart.kernel_iso(w)
        assert (w.psi2.transpose() @ iso).is_zero()
        assert iso.rank() == t.dim_comult


def test_scalar_serialization_round_trip():
    from fractions import Fraction
    x = Fraction(-7, 3)
    assert scalar_from_str(QQ, scalar_to_str(x)) == x
    g = GF(7)
    assert scalar_from_str(g, scalar_to_str(5)) == 5


def test_scalar_to_str_of_integers():
    from fractions import Fraction
    for x in (0, 5, -3, Fraction(4), Fraction(-6, 2), 10 ** 20):
        assert scalar_to_str(x) == "%d/1" % x
    assert scalar_to_str(Fraction(6, -4)) == "-3/2"


def test_scalar_from_str_rejects_a_written_zero_denominator():
    """Over GF(p) a denominator that p divides is rejected as written,
    before the quotient is reduced: 3/3 is no element of GF(3)."""
    for field, s in ((GF(3), "3/3"), (GF(3), "1/3"), (GF(3), "0/6"),
                     (QQ, "1/0"), (GF(5), "1/0")):
        with pytest.raises(ValueError):
            scalar_from_str(field, s)
    assert scalar_from_str(GF(3), "4/2") == 2
    assert scalar_from_str(QQ, "3/3") == 1


def test_matrix_from_json_coerces_each_entry_at_most_once(monkeypatch):
    calls = []
    of = Field.of

    def counted(self, v):
        calls.append(v)
        return of(self, v)
    monkeypatch.setattr(Field, "of", counted)
    rng = random.Random(31)
    for field in (QQ, GF(3)):
        M = rnd_matrix(field, rng, 3, 4)
        d = json.loads(json.dumps(matrix_to_json(M)))
        del calls[:]
        assert matrix_from_json(field, d) == M
        assert len(calls) <= len(d["entries"])


def test_matrix_json_round_trip():
    rng = random.Random(28)
    M = rnd_matrix(QQ, rng, 3, 4)
    d = json.loads(json.dumps(matrix_to_json(M)))
    assert matrix_from_json(QQ, d) == M


def test_theta_and_point_json_round_trip():
    rng = random.Random(29)
    for t in theta_pool(30, 4):
        d = json.loads(json.dumps(theta_to_json(t)))
        t2 = theta_from_json(d)
        assert t2 == t
        w = random_point(t, rng)
        wd = json.loads(json.dumps(point_to_json(w)))
        assert point_from_json(t2, wd) == w


def test_theta_json_byte_identical():
    t = full_p1_instance().theta
    s1 = json.dumps(theta_to_json(t), sort_keys=True)
    s2 = json.dumps(theta_to_json(theta_from_json(theta_to_json(t))),
                    sort_keys=True)
    assert s1 == s2
