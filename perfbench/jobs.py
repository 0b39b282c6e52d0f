"""Timed job bodies and their untimed correctness checks.

``run(spec)`` is the only code inside the timed region. It returns
``(value, extra)``: ``value`` is compared by ``==`` across rounds (a
repeated job must give the same answer), ``extra`` carries objects the
checks need. ``check_round`` runs once, on the warm-up round, and checks
each answer with ``oracle`` or with a different lndkit path than the one
timed. Every failure has a kind; ``KNOWN_DEFECTS`` lists the kinds this
benchmark expects to see at its first commit.

Jobs call lndkit functions through the package namespace, which the traced
run's wrappers replace (spans.install).
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import lndkit
import lndkit.cli
from lndkit import GREVLEX, LEX, Derivation, PresentedAlgebra, TrinomialData

import oracle

ORDERS = {"grevlex": GREVLEX, "lex": LEX}

# kind -> why it fails at the commit that introduced this benchmark
KNOWN_DEFECTS = {
    "toric-redundant-ray": (
        "Cone.of keeps non-extremal generators, so classify_toric changes"
        " its verdict when a redundant ray is added (ROADMAP item 2)"
    ),
}


def _trinomial(spec) -> TrinomialData:
    return TrinomialData.type1(spec["l"], spec["a"])


# ---- timed bodies ------------------------------------------------------------


def run(spec: dict):
    return RUNNERS[spec["kind"]](spec)


def _run_gb(spec):
    v = spec["vars"]
    gens = [lndkit.parse_poly(g, v) for g in spec["gens"]]
    return lndkit.groebner(lndkit.Ideal.of(gens, len(v)), ORDERS[spec["order"]]), None


def _run_type_a(spec):
    choice = {int(b): j for b, j in spec["choice"].items()}
    D = lndkit.type1_lnd(_trinomial(spec), choice)
    V = lndkit.VarietyDossier.create(D.algebra, [D])
    return lndkit.test_type_a(V), None


def _surface_jobs(spec, algebra, D):
    V = lndkit.VarietyDossier.create(algebra, [D])
    report = lndkit.classify(V)
    f = algebra.parse(spec["exp_of"])
    s = Fraction(spec["s"])
    numeric = D.exp_action(f, s)
    formal, _ = D.exp_action(f, None)
    ji = lndkit.ji_lower_bound_check(V, spec["i"])
    value = (report, numeric, formal, ji)
    return value, {"D": D, "f": f, "s": s}


def _run_surface(spec):
    v = spec["vars"]
    algebra = PresentedAlgebra(v, [lndkit.parse_poly(spec["relation"], v)])
    D = Derivation.from_strings(algebra, spec["lnd"])
    return _surface_jobs(spec, algebra, D)


def _run_suspension(spec):
    Z = PresentedAlgebra(["z"])
    dz = Derivation.from_strings(Z, {"z": "1"})
    algebra, D = lndkit.suspension_lnd(Z, dz, Z.parse(spec["base"]), spec["weights"])
    return _surface_jobs(spec, algebra, D)


def _run_cylinder(spec):
    v = spec["vars"]
    algebra = PresentedAlgebra(v, [lndkit.parse_poly(spec["relation"], v)])
    D = Derivation.from_strings(algebra, spec["lnd"])
    s = algebra.parse(spec["slice"])
    projection = D.kernel_projection(s, algebra.parse(spec["f"]))
    parts = lndkit.decompose(D, spec["grading"])
    value = (projection, tuple((p.degree, p.part.images) for p in parts))
    return value, {"D": D, "s": s}


def _run_cli(spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lndkit.cli.main(spec["argv"])
    return (code, out.getvalue()), None


RUNNERS = {
    "gb": _run_gb,
    "type_a": _run_type_a,
    "surface": _run_surface,
    "suspension": _run_suspension,
    "cylinder": _run_cylinder,
    "cli": _run_cli,
}


# ---- untimed checks ------------------------------------------------------------


def check_round(jobs, values, extras) -> dict[int, tuple[str, str]]:
    """Failures of the warm-up round: job index -> (kind, message).

    A job whose value is None raised or overran its cap; the caller has
    recorded that failure already.
    """
    failures = {}
    for i, spec in enumerate(jobs):
        if values[i] is None:
            continue
        problem = CHECKS[spec["kind"]](spec, values[i], extras[i])
        if problem:
            failures[i] = ("wrong-answer", f"{label(spec)}: {problem}")
    failures.update(_cross_checks(jobs, values))
    return failures


def label(spec) -> str:
    if spec["kind"] == "cli":
        return "lndkit " + " ".join(spec["argv"][:3])
    return f"{spec['kind']} {spec.get('family', spec.get('l', ''))}"


def _check_gb(spec, gb, extra):
    v = spec["vars"]
    basis = [oracle.from_poly(g) for g in gb.basis]
    for g in spec["gens"]:
        if oracle.remainder(oracle.parse(g, v), basis, spec["order"]):
            return f"generator {g!r} does not reduce to 0 modulo the basis"
    if spec["zero"] is not None:
        for b in basis:
            if oracle.evaluate(b, spec["zero"]):
                return "a basis element is nonzero at a known zero of the ideal"
    return None


def _check_type_a(spec, certificate, extra):
    T = _trinomial(spec)
    if lndkit.classify_trinomial(T).verdict != "A":
        return "structural verdict is not A for a non-rigid variant-1 datum"
    arity = sum(len(b) for b in spec["l"])
    if certificate is None or [oracle.from_poly(g) for g in certificate.basis] != [
        oracle.const(arity, 1)
    ]:
        return "test_type_a gives no certificate where the structure says A"
    return None


def _check_surface(spec, value, extra):
    report, numeric, formal, _ = value
    D, f, s = extra["D"], extra["f"], extra["s"]
    if report.verdict != "A":
        return f"verdict {report.verdict}, expected A"
    if D.exp_action(numeric, -s) != f:
        return "exp(-sD)(exp(sD)(f)) != f"
    at_s: dict = {}
    for m, c in formal.terms:
        at_s = oracle.add(at_s, {m[:-1]: c * s ** m[-1]})
    if at_s != oracle.from_poly(numeric):
        return "formal exp at _s = s differs from the numeric exp"
    return None


def _check_cylinder(spec, value, extra):
    projection, parts = value
    v = spec["vars"]
    relation = [oracle.parse(spec["relation"], v)]
    images = [oracle.parse(spec["lnd"][x], v) for x in v]
    killed = oracle.apply_derivation(images, oracle.from_poly(projection))
    if oracle.remainder(killed, relation, "grevlex"):
        return "D does not kill the projection"
    D, s = extra["D"], extra["s"]
    if not D.kernel_projection(s, s).is_zero():
        return "the projection does not send the slice to 0"
    w = spec["grading"]
    total = [{} for _ in v]
    for degree, part_images in parts:
        for j, img in enumerate(part_images):
            img = oracle.from_poly(img)
            if img and oracle.weighted_degrees(img, w) != {degree + w[j]}:
                return f"part of degree {degree} is not homogeneous"
            total[j] = oracle.add(total[j], img)
    for j in range(len(v)):
        if oracle.remainder(oracle.add(total[j], images[j], -1), relation, "grevlex"):
            return "graded parts do not sum to D"
    return None


def _check_cli(spec, value, extra):
    code, stdout = value
    if code != spec["expect"]:
        return f"exit code {code}, expected {spec['expect']}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "--json output does not parse"
    # the generator built the cone with or without a line factor
    if "line_factor" in spec and (doc["verdict"] == "A") != spec["line_factor"]:
        return f"verdict {doc['verdict']} for a cone built with" + (
            " a line factor" if spec["line_factor"] else "out a line factor"
        )
    return None


CHECKS = {
    "gb": _check_gb,
    "type_a": _check_type_a,
    "surface": _check_surface,
    "suspension": _check_surface,
    "cylinder": _check_cylinder,
    "cli": _check_cli,
}


def _cross_checks(jobs, values) -> dict[int, tuple[str, str]]:
    failures = {}
    # one ideal in several orders: all agree on whether it contains 1
    trivial: dict[str, dict[int, bool]] = {}
    for i, spec in enumerate(jobs):
        if spec["kind"] == "gb" and values[i] is not None:
            trivial.setdefault(spec["pair"], {})[i] = values[i].is_trivial()
    for pair, answers in trivial.items():
        if len(set(answers.values())) > 1:
            for i in answers:
                failures[i] = (
                    "wrong-answer", f"{pair}: orders disagree on contains_one"
                )
    # a toric verdict is a property of the cone, not of its generators
    verdicts = {}
    for i, spec in enumerate(jobs):
        if spec["kind"] == "cli" and spec["argv"][0] == "classify" and values[i]:
            verdicts[spec["file"]] = _verdict(values[i])
    for i, spec in enumerate(jobs):
        base = spec.get("same_verdict_as")
        if base and values[i] is not None:
            mine, theirs = _verdict(values[i]), verdicts.get(base)
            if mine != theirs:
                failures[i] = (
                    "toric-redundant-ray",
                    f"{spec['file']}: verdict {mine} with a redundant ray,"
                    f" {theirs} without",
                )
    return failures


def _verdict(value):
    try:
        return json.loads(value[1]).get("verdict")
    except json.JSONDecodeError:
        return None
