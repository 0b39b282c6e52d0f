"""Command-line front end, a thin shell over the library.

Each subcommand reads a dossier file with `VarietyDossier.from_json`,
calls the library and prints the result as text, or with `--json` as one
JSON object with sorted keys. Exit codes: 0 success/verified/member,
1 semantic failure (failed verification, from every subcommand that
verifies, or non-membership), 2 usage or input error (including a
rigidity assertion that a verified nonzero LND or a structural A or B
verdict contradicts).

Importing this module builds nothing. The `argparse` parser is built on
the first `main` call and kept for the life of the process, so a caller
that runs many commands in one process pays for it once; parsing reads
the parser and never changes it, so no call sees state from another.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .classify import (
    VarietyDossier,
    classify,
    combined_image_ideal,
    conjectured_hdstar_member,
)
from .derivations import DEFAULT_NILPOTENCY_BOUND, cylinder
from .errors import LndkitError, NotASlice, NotVerifiedLND
from .grading import decompose
from .groebner import GREVLEX, ORDER_KINDS, MonomialOrder
from .poly import _number, parse_poly
from .toric import detect_line_factor, enumerate_roots

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2


def _load(path: str, order=GREVLEX) -> VarietyDossier:
    with open(path) as fh:
        return VarietyDossier.from_json(json.load(fh), order)


def _verified(args) -> VarietyDossier:
    """The dossier file with every derivation verified as an LND."""
    return _load(args.file, MonomialOrder(args.order)).verify(args.bound)


def _emit(payload: dict, as_json: bool, lines: list[str]):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_check_lnd(args) -> int:
    D = _load(args.file, MonomialOrder(args.order)).derivation(args.name)
    ok, cert = D.is_well_defined()
    cert_rows = [
        {
            "relation": D.algebra.format(rel),
            "image": D.algebra.format(img),
        }
        for rel, img in cert
    ]
    lines = ["well-defined: " + ("yes" if ok else "NO")]
    for row in cert_rows:
        lines.append(f"  D({row['relation']}) -> {row['image']}")
    verdict = None
    if ok:
        verdict = D.nilpotency_check(args.bound)
        lines.append(verdict.describe())
    payload = {
        "command": "check-lnd",
        "name": args.name,
        "well_defined": ok,
        "certificate": cert_rows,
        "verdict": None if verdict is None else verdict.to_dict(),
    }
    _emit(payload, args.json, lines)
    return EXIT_OK if ok and verdict.verified else EXIT_FAILED


def cmd_classify(args) -> int:
    report = classify(_verified(args))
    lines = [f"verdict: {report.verdict}"]
    for ev in report.evidence:
        lines.append(f"  - {ev.criterion}" + (f" {ev.data}" if ev.data else ""))
    _emit({"command": "classify", **report.to_dict()}, args.json, lines)
    return EXIT_OK


def cmd_exp(args) -> int:
    D = _load(args.file, MonomialOrder(args.order)).derivation(args.name)
    f = D.algebra.parse(args.poly)
    s = _parameter(args.parameter)
    D.require_lnd(args.bound)  # exp_action reuses the verified verdict
    if s is None:
        result, ext = D.exp_action(f, None)
        text = result.format(ext.vars)
    else:
        text = D.algebra.format(D.exp_action(f, s))
    _emit({"command": "exp", "result": text}, args.json, [text])
    return EXIT_OK


def _parameter(text: str) -> Fraction | None:
    """The `exp` parameter: None for "formal", else a number as `_number` reads it."""
    return None if text == "formal" else _number(text)


def cmd_decompose(args) -> int:
    D = _load(args.file, MonomialOrder(args.order)).derivation(args.name)
    if args.grading not in D.algebra.gradings:
        raise KeyError(f"no grading named {args.grading!r} in the dossier")
    parts = decompose(D, D.algebra.gradings[args.grading])
    rows = []
    lines = []
    for part in parts:
        images = {
            v: D.algebra.format(img)
            for v, img in zip(D.algebra.vars, part.part.images)
        }
        rows.append({"degree": part.degree, "images": images})
        lines.append(f"degree {part.degree}:")
        for v in D.algebra.vars:
            lines.append(f"  {v} -> {images[v]}")
    _emit({"command": "decompose", "parts": rows}, args.json, lines)
    return EXIT_OK


def cmd_roots(args) -> int:
    tags = _load(args.file).tags
    if "toric" not in tags:
        raise ValueError("dossier has no toric cone data")
    cone = tags["toric"]
    roots = enumerate_roots(cone, args.box)
    line = detect_line_factor(cone)
    rows = [
        {"vector": list(r.vector), "distinguished_ray": r.distinguished}
        for r in roots
    ]
    lines = [f"{len(rows)} roots within box {args.box}"]
    lines += [f"  {row['vector']} (ray {row['distinguished_ray']})" for row in rows]
    lines.append(
        "line factor: "
        + ("none" if line is None else str(list(line.vector)))
    )
    _emit(
        {
            "command": "roots",
            "box": args.box,
            "roots": rows,
            "line_factor": None if line is None else list(line.vector),
        },
        args.json,
        lines,
    )
    return EXIT_OK


def cmd_hdstar_member(args) -> int:
    V = _verified(args)
    ideal = combined_image_ideal(V)
    cyl = cylinder(V.algebra)
    f = parse_poly(args.poly, cyl.vars)
    member = conjectured_hdstar_member(V.algebra, f, ideal)
    _emit(
        {"command": "hdstar-member", "member": member},
        args.json,
        ["member" if member else "not a member"],
    )
    return EXIT_OK if member else EXIT_FAILED


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with one "-" and is not exactly an
    option string, such as the rational -1/3 or the polynomials -y and
    -h*y, as a positional; plain argparse takes it for an unknown option,
    or for -h with an attached value."""

    def _parse_optional(self, arg_string):
        single = arg_string[:1] == "-" and arg_string[:2] != "--"
        if single and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; do not change it."""
    parser = _Parser(
        prog="lndkit",
        description="Verify locally nilpotent derivations and classify cylinders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    order = ("--order", {"choices": ORDER_KINDS, "default": "grevlex"})
    bound = ("--bound", {"type": int, "default": DEFAULT_NILPOTENCY_BOUND})
    box = ("--box", {"type": int, "default": 10})

    def common(p, *options):
        p.add_argument("file", help="dossier JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)

    p = sub.add_parser("check-lnd", help="verify a named derivation")
    common(p, order, bound)
    p.add_argument("name")
    p.set_defaults(fn=cmd_check_lnd)

    p = sub.add_parser("classify", help="type A/B/C classification")
    common(p, order, bound)
    p.add_argument("--box", type=int, help="ignored: toric verdicts need no search box")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("exp", help="exponential of an LND applied to a polynomial")
    common(p, order, bound)
    p.add_argument("name")
    p.add_argument("poly")
    p.add_argument("parameter", help="rational value or 'formal'")
    p.set_defaults(fn=cmd_exp)

    p = sub.add_parser("decompose", help="graded decomposition of a derivation")
    common(p, order)
    p.add_argument("name")
    p.add_argument("grading")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("roots", help="Demazure roots of the dossier's cone")
    common(p, box)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser(
        "hdstar-member",
        help="membership in the conjectured invariant subalgebra",
    )
    common(p, order, bound)
    p.add_argument("poly")
    p.set_defaults(fn=cmd_hdstar_member)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NotVerifiedLND, NotASlice) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (LndkitError, OSError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
