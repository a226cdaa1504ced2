"""Command line interface.

Every command reads JSON files and prints either a JSON report (the
default) or a plain-text rendering. Exit codes: 0 on success, 1 when the
computation rejects the input (domain errors), 2 when a file is missing or
malformed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .intmat import IntMatrix, gcd_maximal_minors
from .mpoly import MPoly, _digits, _int_from_text, _refuse_long_text
from .parametrization import build, defect_test, merge_proportional_rows
from .basepoints import base_points, is_uniform
from .degree import (
    Staircase2,
    colength,
    degree_uniform,
    sparse_origin_multiplicity,
    staircase_multiplicity,
)
from .discriminant import gauss_inverse_check, group_product, implicitize, transfer


class InputError(Exception):
    """File missing or malformed; maps to exit code 2."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_int_from_text)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except (json.JSONDecodeError, RecursionError) as e:  # or nested too deep to parse
        raise InputError("bad JSON in %s: %s" % (path, e))
    except ValueError as e:  # a numeral too long, or text that is not UTF-8
        raise InputError("%s: %s" % (path, e))


def load_matrix(path) -> IntMatrix:
    d = _load_json(path)
    if not isinstance(d, dict) or "rows" not in d:
        raise InputError("%s: expected an object with a 'rows' field" % path)
    try:
        return IntMatrix(d["rows"])
    except (TypeError, ValueError) as e:
        raise InputError("%s: bad matrix: %s" % (path, e))


def load_poly(path):
    d = _load_json(path)
    if not isinstance(d, dict):
        raise InputError("%s: expected a polynomial object" % path)
    try:
        return MPoly.from_json_dict(d)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError("%s: bad polynomial: %s" % (path, e))


def _load_pairs(path, field):
    d = _load_json(path)
    if not isinstance(d, dict) or field not in d:
        raise InputError("%s: expected an object with a '%s' field" % (path, field))
    pts = d[field]
    ok = (
        isinstance(pts, list)
        and pts
        and all(
            isinstance(p, list)
            and len(p) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in p)
            for p in pts
        )
    )
    if not ok:
        raise InputError("%s: '%s' must be a list of [a, b] integer pairs" % (path, field))
    return [tuple(p) for p in pts]


def _printable(what, ints) -> None:
    """Refuse by `_refuse_long_text` to print integers of which one is
    longer than the interpreter turns into text; polynomials refuse their
    own coefficients."""
    _refuse_long_text(_digits(max(ints, key=abs, default=0)), what)


def _coordinates(points):
    """Numerators and denominators of the base points' coordinates."""
    return [x for p in points for c in p.coords for x in (c.numerator, c.denominator)]


def _base_point_line(p):
    """A base point's JSON dict as text."""
    return "base point (%s): forms %s" % (", ".join(p["point"]), " ".join(map(str, p["vanishing"])))


def cmd_analyze(args):
    C = load_matrix(args.matrix)
    spec = build(C)
    try:
        merged, lam = merge_proportional_rows(C)
        merged_rows = merged.to_lists()
    except ValueError as e:
        if "merged away" not in str(e):
            raise
        merged_rows, lam = [], ()
    g = gcd_maximal_minors(C)
    _printable("d", [spec.d])
    _printable("g", [g])
    _printable("a merged row entry", [x for r in merged_rows for x in r])
    report = {
        "n": spec.n,
        "m": spec.m,
        "d": spec.d,
        "g": g,
        "defect": defect_test(spec).value,
        "merged_rows": merged_rows,
        "scaling": [str(x) for x in lam],
    }
    if spec.m == 3:
        report["uniform"] = is_uniform(C)
        try:
            points = base_points(spec)
            _printable("a base point coordinate", _coordinates(points))
            report["base_points"] = [p.to_json_dict() for p in points]
        except ValueError as e:
            if "base locus" not in str(e):
                raise
            report["base_points"] = "not finite"
    lines = [
        "n = %d, m = %d" % (spec.n, spec.m),
        "d = %d" % spec.d,
        "g = %d" % report["g"],
        "defect test: %s" % report["defect"],
        "merged rows: %s" % (report["merged_rows"],),
        "scaling: %s" % ", ".join(report["scaling"]),
    ]
    if spec.m == 3:
        lines.append("uniform: %s" % report["uniform"])
        if report["base_points"] == "not finite":
            lines.append("base locus: not finite")
        else:
            lines.extend(map(_base_point_line, report["base_points"]))
    return report, "\n".join(lines) + "\n"


def cmd_degree(args):
    C = load_matrix(args.matrix)
    rep = degree_uniform(C)
    _printable("d", [rep.d])
    _printable("the degree", [rep.degree])
    _printable("a base point coordinate", _coordinates(bp for bp, _ in rep.points))
    _printable("e", [e for _, e in rep.points])
    obj = rep.to_json_dict()
    lines = ["d = %d" % rep.d, "degree = %d" % rep.degree]
    lines.extend("%s, e = %d" % (_base_point_line(p), p["e"]) for p in obj["base_points"])
    return obj, "\n".join(lines) + "\n"


def cmd_implicitize(args):
    C = load_matrix(args.matrix)
    delta = implicitize(build(C))
    return delta.to_json_dict(), delta.to_text() + "\n"


def cmd_transfer(args):
    p, names = load_poly(args.poly)
    M = load_matrix(args.matrix)
    q, v = transfer(p, M)
    _printable("v", v)
    obj = {"polynomial": q.to_json_dict(names), "v": list(v)}
    return obj, "%s\nv = (%s)\n" % (q.to_text(names), ", ".join(map(str, v)))


def cmd_group_product(args):
    p, names = load_poly(args.poly)
    M = load_matrix(args.matrix)
    q = group_product(p, M)
    return q.to_json_dict(names), q.to_text(names) + "\n"


def cmd_multiplicity(args):
    s = Staircase2.of(_load_pairs(args.staircase, "gens"))
    obj = {"e": staircase_multiplicity(s), "colength": colength(s)}
    _printable("e", [obj["e"]])
    _printable("the colength", [obj["colength"]])
    return obj, "e = %d\ncolength = %d\n" % (obj["e"], obj["colength"])


def cmd_sparse_mult(args):
    obj = {"e": sparse_origin_multiplicity(_load_pairs(args.support, "exponents"))}
    _printable("e", [obj["e"]])
    return obj, "e = %d\n" % obj["e"]


def cmd_gauss_check(args):
    C = load_matrix(args.matrix)
    p, _ = load_poly(args.poly)
    ok = gauss_inverse_check(build(C), p)
    return {"pass": ok}, "pass\n" if ok else "fail\n"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", dest="text", action="store_false", default=False,
        help="JSON output (default)",
    )
    fmt.add_argument("--text", dest="text", action="store_true", help="plain text output")

    parser = argparse.ArgumentParser(
        prog="galedisc",
        description="Exact computations with monomial-parametrized hypersurfaces: "
        "implicitization, surface degrees, staircase multiplicities, and the "
        "transfer of defining polynomials between exponent lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="summarize a matrix")
    p.add_argument("matrix", help="matrix JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("degree", parents=[common], help="degree of the parametrized surface (uniform n x 3)")
    p.add_argument("matrix", help="matrix JSON file")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("implicitize", parents=[common], help="defining polynomial of the image curve (n x 2)")
    p.add_argument("matrix", help="matrix JSON file")
    p.set_defaults(func=cmd_implicitize)

    p = sub.add_parser("transfer", parents=[common], help="carry a defining polynomial across C1 = C2 * M")
    p.add_argument("poly", help="polynomial JSON file")
    p.add_argument("matrix", help="matrix JSON file for M")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("multiplicity", parents=[common], help="staircase multiplicity and colength")
    p.add_argument("staircase", help="JSON file with a 'gens' list of [a, b] pairs")
    p.set_defaults(func=cmd_multiplicity)

    p = sub.add_parser("sparse-mult", parents=[common], help="origin multiplicity from a plane-curve support")
    p.add_argument("support", help="JSON file with an 'exponents' list of [a, b] pairs")
    p.set_defaults(func=cmd_sparse_mult)

    p = sub.add_parser("gauss-check", parents=[common], help="check a candidate defining polynomial against psi")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("poly", help="polynomial JSON file")
    p.set_defaults(func=cmd_gauss_check)

    p = sub.add_parser("group-product", parents=[common], help="product of a polynomial over the scalings killed by M")
    p.add_argument("poly", help="polynomial JSON file")
    p.add_argument("matrix", help="matrix JSON file for M")
    p.set_defaults(func=cmd_group_product)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        obj, text = args.func(args)
    except InputError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    if args.text:
        sys.stdout.write(text)
    else:
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    return 0
