"""Batch front end.

Subcommands: validate, mutate, dual, stability, polarization, constants,
thresholds, sweep, generate.  All numbers cross the boundary as exact
"num/den" strings; output is deterministic (sorted keys, fixed layout)
so identical configurations produce byte-identical bytes.

Exit codes: 0 success, 1 mathematical failure, 2 usage error.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .exactfield import QQ, field_from_tag, field_tag
from .theta import (theta_from_json, theta_to_json, point_from_json,
                    point_to_json, validate_theta, in_W0, scalar_to_str,
                    json_counts, json_count, json_list, json_object)
from .mutation import (build_dual, default_choice, mutate, involution_report,
                       double_dual_report)
from .homdata import (projective_space_hom_data, hom_data_to_json,
                      hom_data_from_json, build_theta_p, Polarization,
                      map_polarization, validate_hom_data)
from .stability import is_semistable_rs
from .constants import sigma0, sigma1, c_formula, c_tau_search
from .thresholds import ThresholdInput, singular_flag, singular_ts, thm64_ok


def _frac(s):
    """An exact "num/den" or integer string; anything else, a zero
    denominator included, is a ValueError (a usage error)."""
    if not isinstance(s, str):
        raise ValueError("expected an exact 'num/den' string, got %r" % (s,))
    num, sep, den = s.partition("/")
    return QQ.ratio(int(num), int(den) if sep else 1)


def _positive(s):
    n = int(s)
    if n <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer, got %d" % n)
    return n


def _field(spec):
    """The --field argument: "rationals" or "gf:p" for a prime p < 2^16."""
    try:
        return field_from_tag(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _json_text(obj, indent="\n"):
    """The text json.dumps(obj, sort_keys=True, separators=(",", ": "),
    indent=2) gives for a JSON value whose keys are strings, built here
    because indent turns off json's C encoder: a list of strings (the
    entries of a matrix) or of plain ints (bools are not) is one map, an
    int is written by int.__repr__ and None, True and False as their
    constants, as json writes them; any other leaf is written by
    json.dumps. indent is the newline and indentation of obj's line."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in sorted(obj.items())) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        kinds = set(map(type, obj))
        if kinds == {str}:
            items = map(encode_basestring_ascii, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    return json.dumps(obj)


def _emit(args, payload, fmt):
    config = {
        "command": args.command,
        "seed": args.seed,
        "budget_subspaces": args.budget_subspaces,
    }
    if "field" in args:   # only the subcommands that build over a field
        config["field"] = field_tag(args.field)
    if fmt == "json":
        text = _json_text({"config": config, "result": payload}) + "\n"
    else:
        lines = ["# " + json.dumps(config, sort_keys=True,
                                   separators=(",", ":"))]
        header, rows = payload
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(str(x) for x in row))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def cmd_validate(args):
    theta = theta_from_json(_load(args.theta))
    rep = validate_theta(theta)
    payload = {"ok": rep.ok, "checks": [{"name": n, "ok": v, "detail": d}
                                        for n, v, d in rep.checks]}
    _emit(args, payload, fmt="json")
    return 0 if rep.ok else 1


def _write_failures(label, rep):
    """One stderr line per failing check of a ValidationReport, with its
    detail when it has one."""
    for name, ok, detail in rep.checks:
        if not ok:
            sys.stderr.write("check failed: %s: %s%s\n"
                             % (label, name, ": " + detail if detail else ""))


def cmd_dual(args):
    theta = theta_from_json(_load(args.theta))
    code = 0
    if args.verify:
        rep = validate_theta(theta)
        if not rep.ok:
            code = 1
            _write_failures("input", rep)
    dual = build_dual(theta)
    payload = {"prime": theta_to_json(dual.prime)}
    if args.verify:
        rep = validate_theta(dual.prime)
        dd = double_dual_report(theta, dual=dual)
        payload["prime_valid"] = rep.ok
        payload["double_dual_ok"] = dd.ok
        if not (rep.ok and dd.ok):
            code = 1
            _write_failures("dual prime", rep)
            _write_failures("double dual", dd)
    _emit(args, payload, fmt="json")
    return code


def cmd_mutate(args):
    theta = theta_from_json(_load(args.theta))
    w = point_from_json(theta, _load(args.point))
    if not in_W0(w):
        deficit = theta.dim_mult - w.psi2.rank()
        sys.stderr.write("point is not in the open locus W0: "
                         "psi2 rank deficit %d\n" % deficit)
        return 1
    dual = build_dual(theta)
    choice = default_choice(w)
    z = mutate(dual, w, choice)
    payload = {"mutation": point_to_json(z)}
    code = 0
    if args.verify:
        rep = involution_report(theta, w, choice=choice, dual=dual)
        payload["involution_ok"] = rep.ok
        if not rep.ok:
            code = 1
            _write_failures("involution", rep)
    _emit(args, payload, fmt="json")
    return code


def _instance_spec(args):
    """The instance file of stability and polarization: the object, its
    hom data, multiplicities m and n, p, and the polarization lam, mu
    given as "num/den" strings, each checked for its shape; the hom data
    must also pass validate_hom_data."""
    spec = json_object(_load(args.instance), "instance", ("hom", "m", "n", "p", "lam", "mu"))
    h = hom_data_from_json(spec["hom"])
    failed = validate_hom_data(h).failures()
    if failed:
        raise ValueError("hom data fails its checks: " + ", ".join(failed))
    m, n = json_counts(spec["m"], "m"), json_counts(spec["n"], "n")
    p = json_count(spec["p"], "p")
    pol = Polarization([_frac(x) for x in json_list(spec["lam"], "lam")],
                       [_frac(x) for x in json_list(spec["mu"], "mu")], m, n)
    return spec, h, p, pol


def cmd_stability(args):
    spec, h, p, pol = _instance_spec(args)
    inst = build_theta_p(h, pol.m_mult, pol.n_mult, p)
    w = point_from_json(inst.theta, json_object(spec, "instance", ("point",))["point"])
    verdict = is_semistable_rs(inst, w, pol, group=args.group,
                               budget=args.budget_subspaces)
    witness = None
    if verdict.witness is not None:
        # G records (translate, Gred witness at the translate)
        combo, images = (verdict.witness if args.group == "Gred"
                         else verdict.witness[1])
        witness = {"m_dims": [sub.dim for sub in combo],
                   "n_dims": [images[l].dim for l in sorted(images)]}
    payload = {"group": args.group,
               "semistable": verdict.semistable,
               "stable": verdict.stable,
               "witness": witness}
    _emit(args, payload, fmt="json")
    return 0


def cmd_polarization(args):
    _, h, p, pol = _instance_spec(args)
    rep = map_polarization(pol, h, p)
    payload = {
        "alpha": [scalar_to_str(x) for x in rep.lam],
        "beta": [scalar_to_str(x) for x in rep.mu],
        "constant": scalar_to_str(rep.constant),
        "m_prime": rep.m_mult,
        "n_prime": rep.n_mult,
        "ok": rep.ok,
        "violations": rep.violations,
    }
    _emit(args, payload, fmt="json")
    return 0 if rep.ok else 1


def cmd_constants(args):
    t = (sigma0 if args.which == 0 else sigma1)(args.field, args.n)
    closed = c_formula(args.which, args.n, args.m)
    rep = c_tau_search(t, args.m, budget=args.budget_subspaces,
                       seed=args.seed, samples=args.samples,
                       reference=closed)
    payload = {"closed_form": scalar_to_str(closed),
               "search": rep.to_json()}
    _emit(args, payload, fmt="json")
    return 1 if rep.exceeds_reference else 0


def cmd_thresholds(args):
    inp = ThresholdInput(args.m1, args.m2, args.n1, _frac(args.t), n=args.n)
    rep = thm64_ok(inp, args.case)
    payload = {"ok": rep.ok,
               "conditions": [{"name": n, "ok": v}
                              for n, v in rep.conditions],
               "failing": rep.failing}
    _emit(args, payload, fmt="json")
    return 0


def cmd_sweep(args):
    header = ["t_num", "t_den", "case", "verdict", "failing_condition",
              "singular_flag"]
    rows = []
    grid = {Fraction(i, args.grid) for i in range(1, args.grid)}
    grid.update(singular_ts(args.m1, args.m2, args.n1))
    for t in sorted(grid):
        flag = singular_flag(t, args.m1, args.m2, args.n1)
        for case in (1, 2):
            inp = ThresholdInput(args.m1, args.m2, args.n1, t, n=args.n)
            rep = thm64_ok(inp, case)
            rows.append([t.numerator, t.denominator, case,
                         int(rep.ok), ";".join(rep.failing), flag])
    _emit(args, (header, rows), fmt="csv")
    return 0


def cmd_generate(args):
    h = projective_space_hom_data(args.field, args.n, args.edeg, args.fdeg)
    payload = {"hom": hom_data_to_json(h)}
    if args.m is not None or args.nmult is not None:
        # a list left out is empty, which _check_cut refuses
        inst = build_theta_p(h, args.m or [], args.nmult or [], args.p or 0)
        payload["theta"] = theta_to_json(inst.theta)
    elif args.p is not None:
        raise ValueError("--p cuts the instance of --m and --nmult, which are not given")
    _emit(args, payload, fmt="json")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="mutforge",
        description="exact-arithmetic mutations of spaces of morphisms")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget-subspaces", type=_positive, default=10 ** 5)
    common.add_argument("--out", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name):
        return sub.add_parser(name, parents=[common])

    s = add("validate"); s.add_argument("--theta", required=True)
    s.set_defaults(func=cmd_validate)

    s = add("dual"); s.add_argument("--theta", required=True)
    s.add_argument("--verify", action="store_true")
    s.set_defaults(func=cmd_dual)

    s = add("mutate")
    s.add_argument("--theta", required=True)
    s.add_argument("--point", required=True)
    s.add_argument("--verify", action="store_true")
    s.set_defaults(func=cmd_mutate)

    s = add("stability")
    s.add_argument("--instance", required=True)
    s.add_argument("--group", choices=["Gred", "G"], default="Gred")
    s.set_defaults(func=cmd_stability)

    s = add("polarization")
    s.add_argument("--instance", required=True)
    s.set_defaults(func=cmd_polarization)

    s = add("constants")
    s.add_argument("--field", type=_field, default="rationals",
                   help="rationals or gf:p")
    s.add_argument("--which", type=int, choices=[0, 1], required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--samples", type=_positive, default=1000)
    s.set_defaults(func=cmd_constants)

    s = add("thresholds")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--m1", type=int, required=True)
    s.add_argument("--m2", type=int, required=True)
    s.add_argument("--n1", type=int, required=True)
    s.add_argument("--t", required=True)
    s.add_argument("--case", type=int, choices=[1, 2], required=True)
    s.set_defaults(func=cmd_thresholds)

    s = add("sweep")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--m1", type=_positive, required=True)
    s.add_argument("--m2", type=_positive, required=True)
    s.add_argument("--n1", type=_positive, required=True)
    s.add_argument("--grid", type=_positive, default=24)
    s.set_defaults(func=cmd_sweep)

    s = add("generate")
    s.add_argument("--field", type=_field, default="rationals",
                   help="rationals or gf:p")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--edeg", type=int, nargs="+", required=True)
    s.add_argument("--fdeg", type=int, nargs="+", required=True)
    s.add_argument("--m", type=int, nargs="*", default=None)
    s.add_argument("--nmult", type=int, nargs="*", default=None)
    s.add_argument("--p", type=int, default=None)
    s.set_defaults(func=cmd_generate)
    return p


@functools.cache
def _parser():
    """The parser of build_parser, built once per process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:   # str(exc) is the key's repr
        sys.stderr.write("error: missing key %s\n" % exc)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
