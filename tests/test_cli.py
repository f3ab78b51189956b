"""Command-line front end: exit codes, exact serialization, sweeps."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from mutation_forge.cli import _frac, main
from mutation_forge.exactfield import Field
from mutation_forge.theta import (MorphismPoint, point_to_json,
                                  theta_from_json, theta_to_json)
from mutation_forge.homdata import (Polarization, build_theta_p,
                                    hom_data_to_json,
                                    projective_space_hom_data)
from mutation_forge.stability import is_semistable_rs
from conftest import random_w0_point

QQ = Field()


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _p2_theta(tmp_path):
    h = projective_space_hom_data(QQ, 2, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    return inst, _write(tmp_path, "theta.json", theta_to_json(inst.theta))


def test_validate_ok(tmp_path, capsys):
    _, theta_path = _p2_theta(tmp_path)
    assert main(["validate", "--theta", theta_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["ok"] is True
    assert out["config"]["seed"] == 0
    assert "budget_subspaces" in out["config"]


def test_validate_names_diagram_d(tmp_path, capsys):
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    inst = build_theta_p(h, [1, 1], [1, 1], 1)
    d = theta_to_json(inst.theta)
    # corrupt the mu tensor: only the compatibility square can fail
    d["mu"]["entries"][0] = ("1/1" if d["mu"]["entries"][0] != "1/1"
                             else "2/1")
    path = _write(tmp_path, "bad.json", d)
    assert main(["validate", "--theta", path]) == 1
    out = json.loads(capsys.readouterr().out)
    failing = [c["name"] for c in out["result"]["checks"] if not c["ok"]]
    assert failing == ["diagram D"]


def test_validate_reports_the_rank_of_rho2(tmp_path, capsys):
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    inst = build_theta_p(h, [1, 1], [1, 1], 1)
    d = theta_to_json(inst.theta)
    # zero the first row of rho2 (3 x 4 here): its rank drops to 2
    d["rho2"]["entries"][:d["rho2"]["cols"]] = ["0/1"] * d["rho2"]["cols"]
    path = _write(tmp_path, "bad.json", d)
    assert main(["validate", "--theta", path]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["result"]["checks"]}
    m2 = inst.theta.dim_m2
    assert checks["rho2 surjective"] == {"name": "rho2 surjective", "ok": False,
                                         "detail": "rank %d, expected %d" % (m2 - 1, m2)}
    assert all(c["detail"] == "" for c in checks.values() if c["ok"])


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["validate", "--theta", str(path)]) == 2


def test_missing_file_exit_2(tmp_path):
    assert main(["validate", "--theta", str(tmp_path / "nope.json")]) == 2


BAD_INPUTS = {
    "thresholds t with zero denominator":
        ["thresholds", "--n", "2", "--m1", "1", "--m2", "1", "--n1", "4",
         "--t", "1/0", "--case", "1"],
    "sweep with m1 zero":
        ["sweep", "--n", "2", "--m1", "0", "--m2", "1", "--n1", "4"],
    "theta entries as ints": "int",
    "GF(3) entry with denominator 3": "gf",
    "validate with --format csv": "format",
    "validate with --field gf:2": "field",
    "thresholds with --field gf:banana":
        ["thresholds", "--n", "2", "--m1", "1", "--m2", "1", "--n1", "4",
         "--t", "1/2", "--case", "1", "--field", "gf:banana"],
    # rejected by size, before a trial division that would not end
    "constants with --field gf:(31-digit prime)":
        ["constants", "--which", "0", "--n", "1", "--m", "1",
         "--field", "gf:1000000000000000000000000000057"],
    "theta with field tag rational": "theta-tag:rational",
    "theta with field tag foo:3": "theta-tag:foo:3",
    "hom data with field tag rational": "hom-tag:rational",
    "hom data with field tag foo:3": "hom-tag:foo:3",
    # JSON of the wrong shape: (command, path into its input file, the
    # value written there); the empty path replaces the whole file
    "theta a list": ("validate", (), []),
    "theta dims null": ("validate", ("dims",), None),
    "theta dims.n1 null": ("validate", ("dims", "n1"), None),
    "theta rho1 null": ("validate", ("rho1",), None),
    "theta rho1.rows null": ("validate", ("rho1", "rows"), None),
    "theta rho1.entries null": ("validate", ("rho1", "entries"), None),
    "instance a list": ("polarization", (), []),
    "instance hom null": ("polarization", ("hom",), None),
    "instance hom.r null": ("polarization", ("hom", "r"), None),
    "instance hom.s zero": ("polarization", ("hom", "s"), 0),
    "instance p not below r": ("polarization", ("p",), 2),
    "instance hom.dimA null": ("polarization", ("hom", "dimA"), None),
    "instance hom.dimH key null": ("polarization", ("hom", "dimH", 0, "key"), None),
    "instance hom.comp_BB null": ("polarization", ("hom", "comp_BB"), None),
    "instance m null": ("polarization", ("m",), None),
    "instance m with a string": ("polarization", ("m",), ["1", 1]),
    "instance lam null": ("polarization", ("lam",), None),
    "instance point null": ("stability", ("point",), None),
    # hom data of the right JSON shape that fails validate_hom_data
    "instance hom.dimH dim 5": ("polarization", ("hom", "dimH", 0, "dim"), 5),
    "instance hom.comp_HA 1x1 (polarization)":
        ("polarization", ("hom", "comp_HA", 0, "matrix"),
         {"rows": 1, "cols": 1, "entries": ["1/1"]}),
    "instance hom.comp_HA 1x1 (stability)":
        ("stability", ("hom", "comp_HA", 0, "matrix"),
         {"rows": 1, "cols": 1, "entries": ["1/1"]}),
}


def _bad_json_argv(tmp_path, command, where, value):
    """argv of command on a valid input file with value written at where."""
    h = projective_space_hom_data(Field(2), 1, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    if command == "validate":
        obj = theta_to_json(inst.theta)
    else:
        obj = {"hom": hom_data_to_json(h), "m": [1, 1], "n": [2], "p": 0,
               "point": point_to_json(MorphismPoint.zero(inst.theta)),
               "lam": ["1/2", "1/2"], "mu": ["1/2"]}
    if where:
        node = obj
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
    else:
        obj = value
    flag = "--theta" if command == "validate" else "--instance"
    return [command, flag, _write(tmp_path, "input.json", obj)]


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_a_usage_error(name, tmp_path, capsys):
    argv = BAD_INPUTS[name]
    if isinstance(argv, tuple):
        argv = _bad_json_argv(tmp_path, *argv)
    elif isinstance(argv, str) and argv.startswith("hom-tag:"):
        h = projective_space_hom_data(QQ, 2, [-2, -1], [0])
        spec = {"hom": hom_data_to_json(h), "m": [1, 1], "n": [2], "p": 0,
                "lam": ["1/2", "1/2"], "mu": ["1/2"]}
        spec["hom"]["field"] = argv.partition(":")[2]
        argv = ["polarization", "--instance", _write(tmp_path, "inst.json", spec)]
    elif isinstance(argv, str):
        h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
        d = theta_to_json(build_theta_p(h, [1, 1], [1, 1], 1).theta)
        if argv.startswith("theta-tag:"):
            d["field"] = argv.partition(":")[2]
        elif argv == "int":
            d["nu"]["entries"] = [1] * len(d["nu"]["entries"])
        elif argv == "gf":
            d["field"] = "gf:3"
            d["nu"]["entries"][0] = "1/3"
        # "format", "field": a valid rational theta, but no subcommand
        # takes --format and validate does not take --field
        flags = {"format": ["--format", "csv"],
                 "field": ["--field", "gf:2"]}.get(argv, [])
        argv = ["validate", "--theta", _write(tmp_path, "theta.json", d)] + flags
    try:
        code = main(argv)
    except SystemExit as exc:   # rejected by the argument parser
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_dual_verify(tmp_path, capsys):
    _, theta_path = _p2_theta(tmp_path)
    assert main(["dual", "--theta", theta_path, "--verify"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["prime_valid"] is True
    assert out["result"]["double_dual_ok"] is True


def test_mutate_verify(tmp_path, capsys):
    inst, theta_path = _p2_theta(tmp_path)
    rng = random.Random(55)
    w = random_w0_point(inst.theta, rng)
    point_path = _write(tmp_path, "point.json", point_to_json(w))
    assert main(["mutate", "--theta", theta_path,
                 "--point", point_path, "--verify"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["involution_ok"] is True


def test_mutate_rejects_zero_psi2(tmp_path, capsys):
    inst, theta_path = _p2_theta(tmp_path)
    w = MorphismPoint.zero(inst.theta)
    point_path = _write(tmp_path, "zero.json", point_to_json(w))
    assert main(["mutate", "--theta", theta_path,
                 "--point", point_path]) == 1
    err = capsys.readouterr().err
    assert "W0" in err and "rank deficit 2" in err


def test_sweep_flags_first_family_singular_points(tmp_path):
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "2", "--m1", "1", "--m2", "1",
                 "--n1", "4", "--grid", "3", "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()
    flagged = {(r.split(",")[0], r.split(",")[1])
               for r in rows[2:] if r.endswith(",1")}
    assert flagged == {("1", "4"), ("1", "2"), ("3", "4")}


def test_sweep_second_family_t_max_row(tmp_path):
    out_path = tmp_path / "sweep2.csv"
    assert main(["sweep", "--n", "2", "--m1", "1", "--m2", "2",
                 "--n1", "5", "--grid", "3", "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()
    assert any(r.startswith("4,5,") and r.endswith(",1") for r in rows[2:])


def test_sweep_empty_window_all_false(tmp_path):
    out_path = tmp_path / "sweep3.csv"
    assert main(["sweep", "--n", "1", "--m1", "1", "--m2", "8",
                 "--n1", "1", "--grid", "4", "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()
    assert rows[2:]
    for r in rows[2:]:
        assert r.split(",")[3] == "0"


def test_generate_then_validate(tmp_path, capsys):
    gen_path = tmp_path / "gen.json"
    assert main(["generate", "--n", "1", "--edeg", "-2", "-1",
                 "--fdeg", "0", "--m", "1", "1", "--nmult", "2",
                 "--p", "0", "--out", str(gen_path)]) == 0
    obj = json.loads(gen_path.read_text())
    theta_path = _write(tmp_path, "gtheta.json", obj["result"]["theta"])
    assert main(["validate", "--theta", theta_path]) == 0


def test_frac_parses_integers_and_fractions_only():
    assert _frac("3") == Fraction(3) and _frac("-6/4") == Fraction(-3, 2)
    for bad in ("1/0", "0/0", "1.5", "", 3):
        with pytest.raises(ValueError):
            _frac(bad)


def test_thresholds_command(capsys):
    assert main(["thresholds", "--n", "2", "--m1", "1", "--m2", "1",
                 "--n1", "4", "--t", "7/8", "--case", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["ok"] is True


def test_constants_command(capsys):
    assert main(["constants", "--which", "0", "--n", "2", "--m", "2",
                 "--samples", "10", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["closed_form"] == "1/5"
    assert out["result"]["search"]["seed"] == 3


def test_polarization_command(tmp_path, capsys):
    h = projective_space_hom_data(QQ, 2, [-2, -1], [0])
    spec = {"hom": hom_data_to_json(h), "m": [1, 1], "n": [2], "p": 0,
            "lam": ["1/2", "1/2"], "mu": ["1/2"]}
    path = _write(tmp_path, "inst.json", spec)
    assert main(["polarization", "--instance", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["alpha"] == ["1/7"]
    assert out["result"]["beta"] == ["5/7", "2/7"]
    assert out["result"]["constant"] == "7/2"


def test_stability_command(tmp_path, capsys):
    """The verdict is the oracle's, and the witness dims of a point that
    is not stable violate the slope inequality (not semistable) or
    attain it (semistable)."""
    F2 = Field(2)
    h = projective_space_hom_data(F2, 1, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    pol = Polarization([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2)],
                       [1, 1], [2])
    rng = random.Random(56)
    points = [MorphismPoint.zero(inst.theta)]
    points += [random_w0_point(inst.theta, rng, lo=0, hi=1) for _ in range(100)]
    every_kind = {(g, ss, st) for g in ("Gred", "G")
                  for ss, st in ((False, False), (True, False), (True, True))}
    kinds = set()
    for k, w in enumerate(points):
        if kinds == every_kind:
            break
        spec = {"hom": hom_data_to_json(h), "m": [1, 1], "n": [2], "p": 0,
                "point": point_to_json(w),
                "lam": ["1/2", "1/2"], "mu": ["1/2"]}
        path = _write(tmp_path, "stab%d.json" % k, spec)
        for group in ("Gred", "G"):
            assert main(["stability", "--instance", path, "--group", group]) == 0
            out = json.loads(capsys.readouterr().out)["result"]
            v = is_semistable_rs(inst, w, pol, group=group)
            assert out["group"] == group
            assert (out["semistable"], out["stable"]) == (v.semistable, v.stable)
            kinds.add((group, v.semistable, v.stable))
            if v.stable:
                assert out["witness"] is None
                continue
            m_dims, n_dims = out["witness"]["m_dims"], out["witness"]["n_dims"]
            lhs = sum(lam * d for lam, d in zip(pol.lam, m_dims))
            rhs = sum(mu * d for mu, d in zip(pol.mu, n_dims))
            assert n_dims != pol.n_mult
            if v.semistable:
                assert lhs == rhs and any(m_dims)
            else:
                assert lhs > rhs
    assert kinds == every_kind


def test_no_floats_in_output(tmp_path):
    out_path = tmp_path / "c.json"
    assert main(["constants", "--which", "1", "--n", "2", "--m", "2",
                 "--samples", "10", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    obj = json.loads(text)

    def walk(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
    walk(obj)


# (field, n, e, f, p) of the pipeline runs behind GOLDEN_DIGEST: generate,
# dual --verify and, over QQ, mutate --verify at a seeded point of W0
GOLDEN_RUNS = [
    ("rationals", 1, [-2, -1], [0], 0),
    ("rationals", 2, [-2, -1], [0, 1], 1),
    ("rationals", 2, [-3, -2, -1], [0], 2),
    ("rationals", 3, [-2], [0, 1, 2], 0),
    ("gf:3", 2, [-2, -1], [0, 1], 1),
]
# sha256 of the output bytes of every GOLDEN_RUNS command, in order, as
# the CLI wrote them when it was pinned: a change of this digest is a
# change of the CLI output
GOLDEN_DIGEST = "36472e5b417184df4a2ca7845e3e32299d9cd5849a2fd79e909d453989b2ebb3"


def test_cli_output_digest(tmp_path):
    digest = hashlib.sha256()
    for k, (field, n, e, fl, p) in enumerate(GOLDEN_RUNS):
        out = {step: tmp_path / ("%s%d.json" % (step, k))
               for step in ("gen", "theta", "point", "dual", "mutate")}
        assert main(["generate", "--field", field, "--n", str(n),
                     "--edeg", *map(str, e), "--fdeg", *map(str, fl),
                     "--m", *["1"] * len(e), "--nmult", *["1"] * len(fl),
                     "--p", str(p), "--out", str(out["gen"])]) == 0
        theta = json.loads(out["gen"].read_text())["result"]["theta"]
        out["theta"].write_text(json.dumps(theta))
        assert main(["dual", "--theta", str(out["theta"]), "--verify",
                     "--out", str(out["dual"])]) == 0
        steps = ["gen", "dual"]
        if field == "rationals":
            w = random_w0_point(theta_from_json(theta), random.Random(70 + k))
            out["point"].write_text(json.dumps(point_to_json(w)))
            assert main(["mutate", "--theta", str(out["theta"]),
                         "--point", str(out["point"]), "--verify",
                         "--out", str(out["mutate"])]) == 0
            steps.append("mutate")
        for step in steps:
            digest.update(out[step].read_bytes())
    assert digest.hexdigest() == GOLDEN_DIGEST
