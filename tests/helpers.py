"""Shared corpus objects and random generators for the test suite."""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from math import gcd
from operator import add, le
from pathlib import Path

import lndkit
from lndkit import (
    Derivation,
    NilpotencyVerdict,
    PresentedAlgebra,
    TrinomialData,
    VarietyDossier,
    build_relations,
    classify,
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


def leibniz_apply(D: Derivation, f: Polynomial) -> Polynomial:
    """D(f) by the Leibniz rule on whole polynomials: the normal form of
    sum_j (df/dx_j) * D(x_j), built from `partial_derivative` and
    `Polynomial` products and sums. The oracle for `Derivation.apply`,
    which computes the same sum from a table of the images."""
    total = Polynomial.zero(f.arity)
    for j, image in enumerate(D.images):
        total = total + f.partial_derivative(j) * image
    return D.algebra.normal(total)


def walk_nilpotency(D: Derivation, bound: int) -> NilpotencyVerdict:
    """The nilpotency verdict of D at `bound`, by a walk of its own: for
    each generator, apply D to its image until an entry is zero (the
    order is the chain's length), is a multiple of an earlier entry (a
    witness), or `bound` entries are nonzero (Inconclusive, after one more
    application). The oracle for `Derivation.nilpotency_check`, which reads
    its chains through `Derivation.iterate`; it neither reads nor keeps
    a verdict or a chain."""
    max_order = 0
    for j, name in enumerate(D.algebra.vars):
        chain = [D.images[j]]
        order = None
        while len(chain) <= bound:
            current = chain[-1]
            if current.is_zero():
                order = len(chain)
                break
            cur = current.coeffs
            for earlier in chain[:-1]:
                ear = earlier.coeffs
                if ear.keys() == cur.keys() and len({cur[m] / ear[m] for m in ear}) == 1:
                    return NilpotencyVerdict(
                        "not_nilpotent",
                        witness_var=name,
                        witness_order=len(chain),
                        bound=bound,
                    )
            chain.append(D.apply(current))
        if order is None:
            return NilpotencyVerdict("inconclusive", bound=bound)
        max_order = max(max_order, order)
    return NilpotencyVerdict("verified", max_order=max_order, bound=bound)


# ---- isomorphic dossiers ------------------------------------------------------


def substitute(f: Polynomial, images) -> Polynomial:
    """f(images[0], ..., images[n-1]): each variable of f replaced by its
    image, all images of one arity."""
    arity = images[0].arity
    total = Polynomial.zero(arity)
    for m, c in f.coeffs.items():
        term = Polynomial.constant(arity, c)
        for g, e in zip(images, m):
            if e:
                term = term * g**e
        total = total + term
    return total


def triangular_automorphism(rng: random.Random, arity: int, degree: int = 2):
    """A seeded automorphism phi: x_i -> x_i + p_i(x_<i) of K[x] and its
    inverse psi, as the lists of the images of x_0, ..., x_{arity-1}.

    Each shift p_i is zero or has up to two terms of degree 0 to `degree`
    (p_0 is a constant); psi is found by back-substitution,
    psi(x_i) = x_i - p_i(psi(x_0), ..., psi(x_{i-1})).
    """
    xs = [Polynomial.variable(arity, i) for i in range(arity)]
    phi: list[Polynomial] = []
    psi: list[Polynomial] = []
    for i, x in enumerate(xs):
        terms = []
        for _ in range(rng.randint(0, 2)):
            mono = [0] * arity
            for _ in range(rng.randint(0, degree) if i else 0):
                mono[rng.randrange(i)] += 1
            terms.append((mono, rand_rational(rng, 2)))
        shift = Polynomial(arity, terms)
        phi.append(x + shift)
        psi.append(x - substitute(shift, psi + xs[i:]))
    return phi, psi


def transformed_dossier(V: VarietyDossier, phi, psi) -> VarietyDossier:
    """The dossier of the same variety, presented through phi (inverse psi).

    Each relation r becomes r o phi; each derivation D becomes phi D psi,
    x_i -> phi(D(psi(x_i))); a point p of `invariant_line` becomes
    Psi(p) = Phi^{-1}(p), Phi and Psi being the polynomial maps of phi and
    psi. Gradings are dropped, since phi need not respect them. Every
    conjugated derivation must pass `require_lnd` again.
    """
    base = V.algebra
    algebra = PresentedAlgebra(
        base.vars, [substitute(r, phi) for r in base.relations], order=base.order
    )
    lnds = [
        Derivation(algebra, [substitute(D.apply(g), phi) for g in psi])
        for D in V.lnds
    ]
    tags = dict(V.tags)
    if "invariant_line" in tags:
        tags["invariant_line"] = [g.evaluate(tags["invariant_line"]) for g in psi]
    return VarietyDossier.create(algebra, lnds, tags)


def refuse_groebner_bases(monkeypatch) -> None:
    """Make every Gröbner basis that `classify` asks for raise."""

    def refused(*args):
        raise AssertionError("classify built a Gröbner basis")

    monkeypatch.setattr(sys.modules["lndkit.classify"], "groebner", refused)


# identifiers to rename variables to; old and new names may collide
NAMES = ["x", "y", "z", "u", "v", "w", "t", "p", "q", "a1", "b_2", "T11", "Q", "s_t"]


def permuted_dossier(V: VarietyDossier, perm, names) -> VarietyDossier:
    """The dossier of the same variety with its variables permuted and
    renamed: new variable j is old variable perm[j], named names[j].

    Relations, derivation images, gradings and the `invariant_line`
    point move with the variables. The result is read
    back from a dossier document in the new names and verified by
    `create`, so parsing sees the new names too.
    """
    base = V.algebra
    n = base.arity

    def moved(f: Polynomial) -> str:
        permuted = [(tuple(m[k] for k in perm), c) for m, c in f.terms]
        return Polynomial(n, permuted).format(names)

    doc = {
        "vars": list(names),
        "relations": [moved(r) for r in base.relations],
        "gradings": {g: [w[k] for k in perm] for g, w in base.gradings.items()},
        "derivations": {
            f"d{i}": {names[j]: moved(D.images[perm[j]]) for j in range(n)}
            for i, D in enumerate(V.lnds)
        },
    }
    if "invariant_line" in V.tags:
        point = V.tags["invariant_line"]
        doc["assertions"] = {"invariant_line": [str(Fraction(point[k])) for k in perm]}
    W = VarietyDossier.from_json(doc, base.order)
    return VarietyDossier.create(W.algebra, W.lnds, W.tags)


def assert_permutations_keep_the_verdict(V, verdict, seed, draws):
    """Seeded permutations and renamings of V's variables, alone and on
    either side of a triangular automorphism, keep its verdict; a B
    point moves with its variables."""
    rng = random.Random(seed)
    n = V.algebra.arity

    def check(W, expected_point):
        report = classify(W)
        assert report.verdict == verdict
        if verdict == "B":
            assert report.evidence[-1].data["point"] == [str(x) for x in expected_point]

    for _ in range(draws):
        perm, names = rng.sample(range(n), n), rng.sample(NAMES, n)
        W = permuted_dossier(V, perm, names)
        assert W.algebra.vars == tuple(names)
        point = W.tags.get("invariant_line")
        if point is not None:
            assert point == [V.tags["invariant_line"][k] for k in perm]
        check(W, point)
        phi, psi = triangular_automorphism(rng, n)
        U = transformed_dossier(W, phi, psi)
        check(U, U.tags.get("invariant_line"))
        U = transformed_dossier(V, phi, psi)
        point = U.tags.get("invariant_line")
        check(permuted_dossier(U, perm, names), point and [point[k] for k in perm])
