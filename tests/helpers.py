"""Shared corpus objects and random generators for the test suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import gcd
from operator import add, le
from pathlib import Path

import lndkit
from lndkit import (
    Derivation,
    PresentedAlgebra,
    TrinomialData,
    build_relations,
    parse_poly,
    suspension_lnd,
    type1_lnd,
)
from lndkit.poly import Polynomial


def cli_env() -> dict:
    """The environment for a `python -m lndkit` child process, with the
    lndkit this test process imported first on its import path."""
    src = str(Path(lndkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def plane_algebra() -> PresentedAlgebra:
    return PresentedAlgebra(["x", "y"])


def plane_ddx(algebra=None) -> Derivation:
    algebra = algebra or plane_algebra()
    return Derivation.from_strings(algebra, {"x": "1", "y": "0"})


def w1_algebra(n: int = 1) -> PresentedAlgebra:
    vars = ["x", "y", "z"]
    return PresentedAlgebra(vars, [parse_poly(f"x^{n}*y - z^2 + 1", vars)])


def w1_canonical(algebra: PresentedAlgebra, n: int = 1) -> Derivation:
    return Derivation.from_strings(
        algebra, {"x": "0", "y": "2*z", "z": f"x^{n}"}
    )


def w1_swapped(n: int = 1):
    """The x<->y mirrored presentation of W_n with its canonical LND."""
    vars = ["x", "y", "z"]
    algebra = PresentedAlgebra(vars, [parse_poly(f"x*y^{n} - z^2 + 1", vars)])
    return algebra, Derivation.from_strings(
        algebra, {"x": "2*z", "y": "0", "z": f"y^{n}"}
    )


def suspension_surface():
    """m=2 suspension over the line: y1*y2 = z^2 - 1 with its lifted LND."""
    Z = PresentedAlgebra(["z"])
    dz = Derivation.from_strings(Z, {"z": "1"})
    return suspension_lnd(Z, dz, Z.parse("z^2 - 1"), [1, 1])


def trinomial_corpus():
    """Golden non-rigid Type-1 datum with its canonical derivation."""
    T = TrinomialData.type1([[1, 1], [2]], [1, 0])
    algebra = build_relations(T)
    return algebra, type1_lnd(T, {1: 1, 2: 1})


def corpus():
    """(name, algebra, verified LND) triples used across property tests."""
    plane = plane_algebra()
    w1 = w1_algebra()
    susp_alg, susp_lnd = suspension_surface()
    tri_alg, tri_lnd = trinomial_corpus()
    return [
        ("plane", plane, plane_ddx(plane)),
        ("w1", w1, w1_canonical(w1)),
        ("suspension", susp_alg, susp_lnd),
        ("trinomial", tri_alg, tri_lnd),
    ]


def rand_poly(
    rng: random.Random,
    arity: int,
    max_deg: int = 2,
    max_terms: int = 3,
    coeff_range: int = 4,
) -> Polynomial:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * arity
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(arity)] += 1
        num = rng.randint(-coeff_range, coeff_range)
        den = rng.randint(1, 3)
        terms.append((tuple(mono), Fraction(num, den)))
    return Polynomial(arity, terms)


def rand_rational(rng: random.Random, span: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def assert_reduced_form(p: Polynomial) -> None:
    """p.num/p.den is in lowest terms: den > 0, every numerator a nonzero
    int, gcd(den, content) = 1, and the zero polynomial over 1."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert p.num or p.den == 1


def fraction_reduce(f: Polynomial, basis, order) -> Polynomial:
    """Remainder of f under multivariate division by `basis`, over Q.

    The division on Fraction coefficient dicts that `reduce_poly` did
    before it became fraction-free: each step cancels the leading term
    of what is left against the first basis element whose leading
    monomial divides it, or moves that term to the remainder.
    """
    if not basis:
        return f
    divisors = []
    for g in basis:
        glm, glc = g.leading(order)
        divisors.append((glm, glc, [t for t in g.coeffs.items() if t[0] != glm]))
    acc = dict(f.coeffs)
    remainder: dict = {}
    while acc:
        lm = max(acc, key=order.key)
        lc = acc.pop(lm)
        for glm, glc, tail in divisors:
            if all(map(le, glm, lm)):
                q = tuple(x - y for x, y in zip(lm, glm))
                c = -lc / glc
                for m, gc in tail:
                    m = tuple(map(add, m, q))
                    v = acc.get(m, 0) + c * gc
                    if v:
                        acc[m] = v
                    else:
                        del acc[m]
                break
        else:
            remainder[lm] = lc
    return Polynomial(f.arity, remainder.items())
