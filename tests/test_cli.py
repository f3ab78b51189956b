"""Command-line front end: exit codes, exact serialization, sweeps."""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mutation_forge import cli
from mutation_forge.cli import _frac, main
from mutation_forge.exactfield import Field
from mutation_forge.theta import (MorphismPoint, ValidationReport,
                                  matrix_from_json, point_to_json,
                                  theta_from_json, theta_to_json,
                                  validate_theta)
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


def test_validate_names_the_changed_mu_entry(tmp_path, capsys):
    """A p = 1, s = 2 instance with one nonzero entry of mu zeroed: the
    diagram D detail is validate_theta's, on the row of that entry."""
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    inst = build_theta_p(h, [1, 1], [1, 1], 1)
    d = theta_to_json(inst.theta)
    entries = d["mu"]["entries"]
    k = next(k for k, x in enumerate(entries) if x != "0/1")
    entries[k] = "0/1"
    path = _write(tmp_path, "bad.json", d)
    assert main(["validate", "--theta", path]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["result"]["checks"]}
    detail = checks["diagram D"]["detail"]
    assert checks["diagram D"]["ok"] is False
    assert detail.startswith("mu o (rho2 (x) I)[%d, " % (k // d["mu"]["cols"]))
    assert detail == dict((n, x) for n, _, x in validate_theta(theta_from_json(d)).checks)[
        "diagram D"]


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
    # too many dimensions below them to list
    "sweep with m1 2^64":
        ["sweep", "--n", "2", "--m1", str(2 ** 64), "--m2", "1", "--n1", "4"],
    "sweep with m2 2^64":
        ["sweep", "--n", "2", "--m1", "1", "--m2", str(2 ** 64), "--n1", "4"],
    "sweep with n1 2^64":
        ["sweep", "--n", "2", "--m1", "1", "--m2", "1", "--n1", str(2 ** 64)],
    # n is the dimension of a projective space
    "thresholds with n -2":
        ["thresholds", "--n", "-2", "--m1", "1", "--m2", "1", "--n1", "1",
         "--t", "1/2", "--case", "1"],
    "sweep with n -2":
        ["sweep", "--n", "-2", "--m1", "1", "--m2", "1", "--n1", "1"],
    "generate with n -1":
        ["generate", "--n", "-1", "--edeg", "-2", "-1", "--fdeg", "0"],
    # multiplicities are dimensions of multiplicity spaces
    "generate with --m -1 3":
        ["generate", "--n", "1", "--edeg", "-2", "-1", "--fdeg", "0",
         "--m", "-1", "3", "--nmult", "1"],
    "generate with --nmult 1 -1":
        ["generate", "--n", "2", "--edeg", "-2", "-1", "--fdeg", "0", "1",
         "--m", "1", "1", "--nmult", "1", "-1", "--p", "1"],
    "generate with --m and no --nmult":
        ["generate", "--n", "1", "--edeg", "-2", "-1", "--fdeg", "0",
         "--m", "1", "1"],
    # --p cuts the instance that --m and --nmult describe
    "generate with --p and no --m or --nmult":
        ["generate", "--n", "1", "--edeg", "-2", "-1", "--fdeg", "0", "--p", "5"],
    # n + 1 is the dimension of V in sigma_0 and sigma_1
    "constants with n -1":
        ["constants", "--which", "0", "--n", "-1", "--m", "1"],
    "constants with --samples -1":
        ["constants", "--which", "0", "--n", "1", "--m", "1", "--samples", "-1"],
    "sweep with --grid 0":
        ["sweep", "--n", "2", "--m1", "1", "--m2", "1", "--n1", "4", "--grid", "0"],
    "sweep with --grid -3":
        ["sweep", "--n", "2", "--m1", "1", "--m2", "1", "--n1", "4", "--grid", "-3"],
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
    # more objects than the file has identity Hom spaces
    "instance hom.r 2**64": ("stability", ("hom", "r"), 2 ** 64),
    "instance hom.s 2**64": ("polarization", ("hom", "s"), 2 ** 64),
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


def _input_json(command):
    """A valid input file of command: a theta for validate, else an
    instance with its point."""
    h = projective_space_hom_data(Field(2), 1, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    if command == "validate":
        return theta_to_json(inst.theta)
    return {"hom": hom_data_to_json(h), "m": [1, 1], "n": [2], "p": 0,
            "point": point_to_json(MorphismPoint.zero(inst.theta)),
            "lam": ["1/2", "1/2"], "mu": ["1/2"]}


def _bad_json_argv(tmp_path, command, where, value):
    """argv of command on a valid input file with value written at where."""
    obj = _input_json(command)
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


# (object, key) pairs of a theta file: the key is left out of the object
MISSING_KEYS = [("rho1", "rows"), ("rho1", "cols"), ("mu", "entries"),
                (None, "rho2"), ("dims", "n1")]


@pytest.mark.parametrize("obj, key", MISSING_KEYS)
def test_missing_key_names_itself(obj, key, tmp_path, capsys):
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    d = theta_to_json(build_theta_p(h, [1, 1], [1, 1], 1).theta)
    del (d if obj is None else d[obj])[key]
    assert main(["validate", "--theta", _write(tmp_path, "theta.json", d)]) == 2
    err = capsys.readouterr().err
    assert err == "error: missing key %r in %s\n" % (key, obj or "theta")


# (path into an instance file, the key left out there, the object that
# the error names): the instance, its hom data, and an entry of a Hom
# space and of a composition
MISSING_INSTANCE_KEYS = [((), "lam", "instance"), ((), "point", "instance"),
                         (("hom",), "comp_HA", "hom data"),
                         (("hom", "dimH", 0), "dim", "dimH[0]"),
                         (("hom", "dimH", 0), "key", "dimH[0]"),
                         (("hom", "comp_HA", 0), "matrix", "comp_HA[0]")]


@pytest.mark.parametrize("where, key, obj", MISSING_INSTANCE_KEYS)
def test_missing_instance_key_names_its_object(where, key, obj, tmp_path, capsys):
    spec = _input_json("stability")
    node = spec
    for step in where:
        node = node[step]
    del node[key]
    argv = ["stability", "--instance", _write(tmp_path, "inst.json", spec)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: missing key %r in %s\n" % (key, obj))


def test_hom_data_keys_name_their_entry(tmp_path, capsys):
    """A key of the wrong length names its entry, and a Hom space or a
    composition that the file lacks names its key and its dict."""
    errors = {}
    for name, edit in [("short", lambda hom: hom["dimH"][0].update(key=[1])),
                       ("long", lambda hom: hom["comp_HA"][0].update(key=[1, 1, 1, 1])),
                       ("dropped", lambda hom: hom["dimH"].pop(0))]:
        spec = _input_json("stability")
        edit(spec["hom"])
        assert main(["stability", "--instance", _write(tmp_path, "inst.json", spec)]) == 2
        out, errors[name] = capsys.readouterr()
        assert out == ""
    assert errors == {
        "short": "error: dimH[0].key must list 2 indices, got [1]\n",
        "long": "error: comp_HA[0].key must list 3 indices, got [1, 1, 1, 1]\n",
        "dropped": "error: missing key [1, 1] in dimH\n"}


@pytest.mark.parametrize("command", ["stability", "polarization"])
def test_hom_data_key_of_no_chain_is_a_usage_error(command, tmp_path, capsys):
    """Each command that reads an instance refuses a Hom space that no
    chain of objects names, with one error line that names its key and
    dict, where a stray entry was once kept unread."""
    spec = _input_json("stability")
    spec["hom"]["dimH"].append({"key": [9, 9], "dim": 4})
    assert main([command, "--instance", _write(tmp_path, "inst.json", spec)]) == 2
    assert capsys.readouterr() == ("", "error: key [9, 9] in dimH names no chain of objects\n")


@pytest.mark.parametrize("command", ["stability", "polarization"])
def test_repeated_hom_data_key_is_a_usage_error(command, tmp_path, capsys):
    """A second copy of a Hom space's entry is refused with one error line
    that names its key and dict, where it once overwrote the first."""
    spec = _input_json("stability")
    spec["hom"]["dimH"].append(dict(spec["hom"]["dimH"][0]))
    assert main([command, "--instance", _write(tmp_path, "inst.json", spec)]) == 2
    assert capsys.readouterr() == ("", "error: key [1, 1] is listed twice in dimH\n")


@pytest.mark.parametrize("obj, key", [("psi2", "rows"), (None, "phi1")])
def test_missing_point_key_names_itself(obj, key, tmp_path, capsys):
    inst, theta_path = _p2_theta(tmp_path)
    d = point_to_json(MorphismPoint.zero(inst.theta))
    del (d if obj is None else d[obj])[key]
    assert main(["mutate", "--theta", theta_path,
                 "--point", _write(tmp_path, "point.json", d)]) == 2
    err = capsys.readouterr().err
    assert err == "error: missing key %r in %s\n" % (key, obj or "point")


# entries that name no element of GF(3), each a ValueError of the reader
BAD_ENTRIES = {"int": 1, "list": ["1/1"], "dict": {"num": 1}, "null": None,
               "zero denominator": "1/0", "no denominator": "1",
               "not a number": "x/1", "denominator 3 over GF(3)": "1/3"}


@pytest.mark.parametrize("name", sorted(BAD_ENTRIES))
def test_bad_matrix_entry_is_a_usage_error(name, tmp_path, capsys):
    """A bad entry after good ones, some repeated: matrix_from_json raises
    ValueError, and a theta file holding it is exit 2 with one error
    line and no traceback."""
    h = projective_space_hom_data(Field(3), 1, [-2, -1], [0, 1])
    d = theta_to_json(build_theta_p(h, [1, 1], [1, 1], 1).theta)
    d["nu"]["entries"][len(d["nu"]["entries"]) // 2] = BAD_ENTRIES[name]
    with pytest.raises(ValueError):
        matrix_from_json(Field(3), d["nu"], "nu")
    assert main(["validate", "--theta", _write(tmp_path, "theta.json", d)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_must_be_positive(budget, tmp_path, capsys):
    """--budget-subspaces below 1 is rejected by the argument parser, before
    any oracle or search runs (a negative budget used to reach the
    unipotent orbit and fail there with "p^2 > -5")."""
    h = projective_space_hom_data(Field(2), 1, [-2, -1], [0])
    inst = build_theta_p(h, [1, 1], [2], 0)
    spec = {"hom": hom_data_to_json(h), "m": [1, 1], "n": [2], "p": 0,
            "point": point_to_json(MorphismPoint.zero(inst.theta)),
            "lam": ["1/2", "1/2"], "mu": ["1/2"]}
    path = _write(tmp_path, "inst.json", spec)
    for argv in (["stability", "--instance", path, "--group", "G"],
                 ["stability", "--instance", path, "--group", "Gred"],
                 ["constants", "--which", "0", "--n", "1", "--m", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget-subspaces", budget])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "mutforge %s: error: argument --budget-subspaces: must be a positive "
            "integer, got %s" % (argv[0], budget)]
        assert "enumeration budget" not in err


def test_dual_verify(tmp_path, capsys):
    _, theta_path = _p2_theta(tmp_path)
    assert main(["dual", "--theta", theta_path, "--verify"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["result"]["prime_valid"] is True
    assert out["result"]["double_dual_ok"] is True
    assert captured.err == ""


def test_dual_verify_names_the_failing_checks(tmp_path, capsys):
    """A p = 1, s = 2 theta with one nonzero entry of mu zeroed: the input
    fails diagram D, its dual prime is valid but the double dual does not
    restore mu. Each failing check is one stderr line with its detail,
    the input's first; stdout is the one that dual without --verify
    prints, plus the two booleans."""
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    inst = build_theta_p(h, [1, 1], [1, 1], 1)
    d = theta_to_json(inst.theta)
    entries = d["mu"]["entries"]
    entries[next(k for k, x in enumerate(entries) if x != "0/1")] = "0/1"
    path = _write(tmp_path, "bad.json", d)
    assert main(["dual", "--theta", path, "--verify"]) == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)["result"]
    assert (out["prime_valid"], out["double_dual_ok"]) == (True, False)
    detail = dict((n, x) for n, _, x in validate_theta(theta_from_json(d)).checks)[
        "diagram D"]
    assert detail and captured.err.splitlines() == [
        "check failed: input: diagram D: " + detail,
        "check failed: double dual: mu restored: mu[0, 0] = 1/1, expected 0/1"]
    assert main(["dual", "--theta", path]) == 0
    plain = json.loads(capsys.readouterr().out)["result"]
    assert plain == {"prime": out["prime"]}


def test_mutate_verify(tmp_path, capsys):
    inst, theta_path = _p2_theta(tmp_path)
    rng = random.Random(55)
    w = random_w0_point(inst.theta, rng)
    point_path = _write(tmp_path, "point.json", point_to_json(w))
    assert main(["mutate", "--theta", theta_path,
                 "--point", point_path, "--verify"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["result"]["involution_ok"] is True
    assert captured.err == ""


def test_mutate_verify_names_the_failing_checks(tmp_path, capsys, monkeypatch):
    """A failing involution report gives exit 1 and one stderr line per
    failing check, with its detail when it has one."""
    inst, theta_path = _p2_theta(tmp_path)
    w = random_w0_point(inst.theta, random.Random(55))
    point_path = _write(tmp_path, "point.json", point_to_json(w))
    rep = ValidationReport()
    rep.add("psi1 negated", True)
    rep.add("psi2 restored", False, "psi2[1, 0] = 1/1, expected 0/1")
    rep.add("phi2 negated", False)
    monkeypatch.setattr(cli, "involution_report", lambda *args, **kwargs: rep)
    assert main(["mutate", "--theta", theta_path,
                 "--point", point_path, "--verify"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"]["involution_ok"] is False
    assert captured.err.splitlines() == [
        "check failed: involution: psi2 restored: psi2[1, 0] = 1/1, expected 0/1",
        "check failed: involution: phi2 negated"]


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


@pytest.mark.parametrize("which", ["0", "1"])
def test_constants_refuses_a_size_that_cannot_fit(which, capsys):
    """sigma for n = 1000 would have about 5 * 10^11 cells: one error
    line and exit 2, before anything of that size is allocated."""
    assert main(["constants", "--which", which, "--n", "1000", "--m", "1"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: sigma for n = 1000 has 502504503501 cells, "
                   "above the 10000000 allowed\n")
    assert "Traceback" not in err


def test_constants_refuses_a_random_draw_that_cannot_fit(capsys):
    """Over QQ a draw for m = 100000 (dim H (x) M = 200000) would have up
    to about 4 * 10^10 cells: refused before anything is drawn."""
    argv = ["constants", "--which", "0", "--n", "1", "--m", "100000", "--samples", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: random draws in H (x) M of dim 200000 may have 39999800000 cells, "
        "above the 10000000 allowed\n")


@pytest.mark.parametrize("m", ["8", "500", str(2 ** 64)])
def test_constants_refuses_an_exhaustive_scan_over_budget(m, capsys):
    """Over GF(2) the subspaces of H (x) M are counted only until the
    count passes the budget, and not at all where the lines alone pass
    it (m = 500 and 2^64), so the refusal is immediate."""
    assert main(["constants", "--field", "gf:2", "--which", "0", "--n", "1",
                 "--m", m]) == 2
    assert capsys.readouterr().err == (
        "error: exhaustive scan budget exceeded: more than 100000 subspaces\n")


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


def _subcommand_runs(tmp_path):
    """(argv, exit code) of the runs behind SUBCOMMAND_DIGEST: every
    subcommand that GOLDEN_RUNS leaves out, on fixed inputs, each
    writing its output with --out."""
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    d = theta_to_json(build_theta_p(h, [1, 1], [1, 1], 1).theta)
    good = _write(tmp_path, "good.json", d)
    entries = d["mu"]["entries"]
    entries[next(k for k, x in enumerate(entries) if x != "0/1")] = "0/1"
    bad = _write(tmp_path, "bad.json", d)
    runs = [(["validate", "--theta", good], 0), (["validate", "--theta", bad], 1)]
    F2 = Field(2)
    h2 = projective_space_hom_data(F2, 1, [-2, -1], [0])
    inst = build_theta_p(h2, [1, 1], [2], 0)
    rng = random.Random(81)
    points = [MorphismPoint.zero(inst.theta)]
    points += [random_w0_point(inst.theta, rng, lo=0, hi=1) for _ in range(4)]
    for k, w in enumerate(points):
        spec = {"hom": hom_data_to_json(h2), "m": [1, 1], "n": [2], "p": 0,
                "point": point_to_json(w), "lam": ["1/2", "1/2"], "mu": ["1/2"]}
        path = _write(tmp_path, "stab%d.json" % k, spec)
        runs += [(["stability", "--instance", path, "--group", g], 0)
                 for g in ("Gred", "G")]
    for k, (n, e, fl, p, m, nm, lam, mu, code) in enumerate([
            (2, [-2, -1], [0], 0, [1, 1], [2], ["1/2", "1/2"], ["1/2"], 0),
            (1, [-2, -1], [0, 1], 1, [1, 1], [1, 1], ["1/3", "2/3"], ["2/3", "1/3"], 0),
            (1, [-1], [0, 1], 0, [1], [1, 1], ["1/1"], ["1/3", "2/3"], 1)]):
        spec = {"hom": hom_data_to_json(projective_space_hom_data(QQ, n, e, fl)),
                "m": m, "n": nm, "p": p, "lam": lam, "mu": mu}
        path = _write(tmp_path, "pol%d.json" % k, spec)
        runs.append((["polarization", "--instance", path], code))
    runs += [(["constants", "--which", "0", "--n", "2", "--m", "2",
               "--samples", "10", "--seed", "3"], 0),
             (["constants", "--which", "1", "--n", "2", "--m", "3",
               "--samples", "5", "--seed", "4"], 0),
             (["constants", "--field", "gf:3", "--which", "0", "--n", "1",
               "--m", "2", "--samples", "5", "--seed", "5"], 0)]
    runs += [(["thresholds", "--n", "2", "--m1", "1", "--m2", m2, "--n1", n1,
               "--t", t, "--case", case], 0)
             for m2, n1, t, case in [("1", "4", "7/8", "1"), ("1", "4", "1/3", "2"),
                                     ("2", "5", "4/5", "2"), ("2", "5", "1/10", "1")]]
    runs += [(["sweep", "--n", "2", "--m1", "1", "--m2", m2, "--n1", n1,
               "--grid", grid], 0)
             for m2, n1, grid in [("1", "4", "3"), ("2", "5", "6")]]
    return runs


# sha256 of the output bytes of every _subcommand_runs command, in order,
# as the CLI wrote them when it was pinned
SUBCOMMAND_DIGEST = "56d43627e53370213b9f845b255d24614786cc8476d9db28b4c0ff1da409536d"


def test_every_subcommand_output_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for k, (argv, code) in enumerate(_subcommand_runs(tmp_path)):
        out = tmp_path / ("out%d" % k)
        assert main(argv + ["--out", str(out)]) == code, argv
        digest.update(out.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == SUBCOMMAND_DIGEST


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2)


# JSON values as the CLI's payloads hold them, and the corners of the
# encoder: keys with non-ASCII, quote, backslash and control characters,
# empty and nested containers, tuples, big ints and the constants
json_text = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\n\t", "\u00e9\u2603", "\ud83d\ude00"])
json_leaves = (st.none() | st.booleans() | st.integers() | json_text
               | st.integers(-(10 ** 40), 10 ** 40) | st.just([]) | st.just({}))
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(json_text, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20)


# the examples: a list of ints with bools, None or strings is written
# item by item, so a bool is never written as an int, nor an int as a bool
@settings(max_examples=400, deadline=None)
@given(json_values)
@example([True, 1])
@example([0, False])
@example([-3, 10 ** 40])
@example([None, 2])
@example([1, "1"])
@example({"k": [False, True, None, 0, -1]})
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == _dumps(obj)


def test_json_writer_on_every_subcommand_payload(tmp_path, capsys, monkeypatch):
    """The whole document each JSON subcommand writes, as _emit hands it
    to the writer, is written as json.dumps writes it."""
    seen = []
    writer = cli._json_text

    def recorded(obj, *indent):
        if not indent:
            seen.append(obj)
        return writer(obj, *indent)
    monkeypatch.setattr(cli, "_json_text", recorded)
    runs = [argv for argv, _ in _subcommand_runs(tmp_path) if argv[0] != "sweep"]
    gen = tmp_path / "gen.json"
    main(["generate", "--n", "2", "--edeg", "-2", "-1", "--fdeg", "0", "1",
          "--m", "1", "1", "--nmult", "1", "1", "--p", "1", "--out", str(gen)])
    theta = json.loads(gen.read_text())["result"]["theta"]
    theta_path = _write(tmp_path, "theta.json", theta)
    w = random_w0_point(theta_from_json(theta), random.Random(90))
    runs += [["dual", "--theta", theta_path, "--verify"],
             ["mutate", "--theta", theta_path, "--verify",
              "--point", _write(tmp_path, "point.json", point_to_json(w))]]
    for argv in runs:
        main(argv)
    capsys.readouterr()
    assert {obj["config"]["command"] for obj in seen} == {
        "validate", "dual", "mutate", "stability", "polarization",
        "constants", "thresholds", "generate"}
    for obj in seen:
        assert writer(obj) == _dumps(obj)


# -- a fuzz of every subcommand ---------------------------------------

# the bad values of the fuzz: each is written in place of one node of a
# valid input file, or given as the value of one flag
FUZZ_VALUES = [None, -1, 1.5, "x", [], {}, True, "1/0", 2 ** 64]
# the subcommands that exit 1 on a failed check; the others exit 0 or 2
CHECKING = {"validate", "dual", "mutate", "polarization", "constants"}
# the flags whose value is a size of the work: a large int there is a
# valid request that runs out of time or memory, not bad input (an n of
# constants above 65 and an m whose random draws would exceed 10^7 cells
# are refused, so 2^64 is fuzzed there)
SIZES = {("generate", "--n"), ("generate", "--fdeg"), ("constants", "--samples"),
         ("sweep", "--grid")}


def _json_paths(obj, path=()):
    """The path of obj and of every node inside it, a list read at its
    first item only."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        yield from _json_paths(obj[0], path + (0,))


def _fuzz_runs(root):
    """A valid run of every subcommand, with its input files in the
    directory root, as (argv, files, targets): files
    maps each input file named in argv to its JSON object, and a target
    is (file, path) for a node of a file or (None, i) for the value
    argv[i] of a flag. The theta space and its point are over QQ with
    every structure map nonzero; the instance is the GF(2) instance of
    the README."""
    h = projective_space_hom_data(QQ, 1, [-2, -1], [0, 1])
    theta = build_theta_p(h, [1, 1], [1, 1], 1).theta
    point = point_to_json(random_w0_point(theta, random.Random(3)))

    def m(rows, cols, entries):
        return {"rows": rows, "cols": cols, "entries": entries}
    instance = {"hom": hom_data_to_json(projective_space_hom_data(
                    Field(2), 1, [-2, -1], [0])),
                "m": [1, 1], "n": [2], "p": 0,
                "point": {"psi1": m(0, 2, []), "phi1": m(0, 1, []),
                          "psi2": m(5, 2, ["1/1", "0/1", "0/1", "1/1"] + ["0/1"] * 6),
                          "phi2": m(0, 1, [])},
                "lam": ["1/2", "1/2"], "mu": ["1/2"]}
    T, P, I = (str(root / name) for name in ("theta.json", "point.json", "instance.json"))
    objects = {T: theta_to_json(theta), P: point, I: instance}
    common = ["--seed", "0", "--budget-subspaces", "100000"]
    runs = []
    for argv in (
            ["validate", "--theta", T],
            ["dual", "--theta", T, "--verify"],
            ["mutate", "--theta", T, "--point", P, "--verify"],
            ["stability", "--instance", I, "--group", "G"],
            ["polarization", "--instance", I],
            ["constants", "--which", "0", "--n", "1", "--m", "2", "--samples", "5"],
            ["thresholds", "--n", "2", "--m1", "1", "--m2", "1", "--n1", "4",
             "--t", "7/8", "--case", "1"],
            ["sweep", "--n", "2", "--m1", "1", "--m2", "1", "--n1", "4", "--grid", "3"],
            ["generate", "--n", "1", "--edeg", "-2", "-1", "--fdeg", "0",
             "--m", "1", "1", "--nmult", "2", "--p", "0"]):
        argv = argv + common
        files = {path: objects[path] for path in argv if path in objects}
        targets = [(None, i) for i in range(1, len(argv))
                   if not argv[i].startswith("--") and argv[i] not in files]
        targets += [(path, where) for path, obj in files.items()
                    for where in _json_paths(obj)]
        runs.append((argv, files, targets))
    return runs


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    return _fuzz_runs(tmp_path_factory.mktemp("fuzz"))


def _with_value(obj, where, value):
    """A copy of the JSON object obj with value at the path where (the
    empty path replaces the whole object)."""
    if not where:
        return value
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return obj


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fuzz_every_subcommand(fuzz_runs, data):
    """One node of a valid input file, or one flag value, set to a bad
    value: the exit code is 0, 1 or 2, no exception leaves main, and exit
    1 comes only from a subcommand that runs a check."""
    argv, files, targets = data.draw(st.sampled_from(fuzz_runs))
    target, where = data.draw(st.sampled_from(targets))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    argv = list(argv)
    if target is None:
        flag = next(a for a in reversed(argv[:where]) if a.startswith("--"))
        assume(value != 2 ** 64 or (argv[0], flag) not in SIZES)
        argv[where] = value if isinstance(value, str) else json.dumps(value)
    for path, obj in files.items():
        with open(path, "w") as fh:
            json.dump(_with_value(obj, where, value) if path == target else obj, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # rejected by the argument parser
            code = exc.code
    assert code in ({0, 1, 2} if argv[0] in CHECKING else {0, 2}), err.getvalue()
    assert "Traceback" not in err.getvalue()
