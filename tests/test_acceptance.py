"""End-to-end acceptance suite.

Each test covers one numbered criterion, enforces its runtime budget,
and prints one CRITERION n: PASS line on success (pytest -s shows them;
a failed assertion marks the criterion failed before the line prints).
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path


from lndkit import (
    Cone,
    Derivation,
    PresentedAlgebra,
    TrinomialData,
    VarietyDossier,
    classify,
    classify_toric,
    classify_trinomial,
    combined_image_ideal,
    conjectured_hdstar_member,
    contains_one,
    cylinder,
    decompose,
    enumerate_roots,
    extreme_parts,
    is_rigid,
    type1_lnd,
)
from lndkit.groebner import Ideal
from lndkit.poly import Polynomial, parse_poly

from helpers import (
    cli_env,
    corpus,
    rand_poly,
    rand_rational,
    w1_algebra,
    w1_canonical,
    w1_swapped,
)
from test_toric import naive_roots, rand_pointed_cone
from test_trinomial import oracle_rigid, rand_datum


class budget:
    """Assert the wrapped block stays under a wall-clock limit."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"runtime {elapsed:.1f}s exceeds budget {self.seconds}s"
            )
        return False


def report(n, detail=""):
    print(f"CRITERION {n}: PASS {detail}".rstrip())


def test_criterion_1_randomized_laws():
    rng = random.Random(101)
    algebras = corpus()
    with budget(60):
        for trial in range(1000):
            name, algebra, D = algebras[trial % len(algebras)]
            f = rand_poly(rng, algebra.arity)
            g = rand_poly(rng, algebra.arity)
            lhs = D.apply(algebra.normal(f * g))
            rhs = algebra.normal(f * D.apply(g) + g * D.apply(f))
            assert lhs == rhs, f"Leibniz failed on {name}"
        for trial in range(1000):
            name, algebra, D = algebras[trial % len(algebras)]
            f = rand_poly(rng, algebra.arity)
            g = rand_poly(rng, algebra.arity)
            s = rand_rational(rng)
            lhs = D.exp_action(algebra.normal(f * g), s)
            rhs = algebra.normal(D.exp_action(f, s) * D.exp_action(g, s))
            assert lhs == rhs, f"exp homomorphism failed on {name}"
        for trial in range(1000):
            name, algebra, D = algebras[trial % len(algebras)]
            f = rand_poly(rng, algebra.arity, max_deg=2, max_terms=2)
            s, t = rand_rational(rng), rand_rational(rng)
            once = D.exp_action(f, s + t)
            twice = D.exp_action(D.exp_action(f, t), s)
            assert once == twice, f"group law failed on {name}"
    report(1, "(3 x 1000 randomized law checks)")


def test_criterion_2_danielewski_type_a():
    for n in (1, 2, 3):
        with budget(5):
            algebra = w1_algebra(n)
            canonical = w1_canonical(algebra, n)
            swapped_algebra, swapped = w1_swapped(n)
            for D in (canonical, swapped):
                assert D.is_well_defined()[0]
                assert D.nilpotency_check(32).verified
            V = VarietyDossier.create(algebra, [canonical], bound=32)
            ideal = combined_image_ideal(V)
            assert contains_one(
                Ideal.of(
                    ideal.generators + algebra.relations, algebra.arity
                )
            )
            assert classify(V).verdict == "A"
            V2 = VarietyDossier.create(swapped_algebra, [swapped], bound=32)
            assert classify(V2).verdict == "A"
    report(2, "(n = 1, 2, 3)")


def test_criterion_3_slice_suite():
    rng = random.Random(103)
    base = w1_algebra()
    cyl = cylinder(base)
    images = [Polynomial.zero(4)] * 3 + [Polynomial.constant(4, 1)]
    ddu = Derivation(cyl, images)
    u = cyl.parse("u")
    with budget(30):
        for _ in range(200):
            f = cyl.normal(rand_poly(rng, 4, max_deg=6, max_terms=5))
            total = Polynomial.zero(4)
            for i, df in enumerate(ddu.iterate(f)):
                rho = ddu.kernel_projection(
                    u, df.scale(Fraction(1, factorial(i)))
                )
                assert ddu.kernel_membership(rho)
                total = cyl.normal(total + rho * u**i)
            assert total == f
    report(3, "(200 random f, degree <= 6)")


def test_criterion_4_graded_decomposition():
    rng = random.Random(107)
    with budget(30):
        # round-trip and extreme parts on the corpus LNDs, graded by a
        # compatible weight vector for each algebra
        weights = {
            "plane": (1, 1),
            "w1": (2, -2, 0),
            "suspension": (0, 2, -2),
            "trinomial": (2, -2, 0),
        }
        for name, algebra, D in corpus():
            w = weights[name]
            assert algebra.is_compatible_grading(w)
            parts = decompose(D, w)
            total = [Polynomial.zero(algebra.arity) for _ in algebra.vars]
            for p in parts:
                for j, img in enumerate(p.part.images):
                    total[j] = total[j] + img
            assert tuple(total) == D.images, name
            lo, hi = extreme_parts(D, w)
            for part in (lo, hi):
                assert part.part.is_well_defined()[0], name
                assert part.part.nilpotency_check(32).verified, name
        # lowest u-degree of any cylinder derivation is >= -1
        cyl = cylinder(w1_algebra())
        uw = (0, 0, 0, 1)
        for _ in range(60):
            images = [
                cyl.normal(rand_poly(rng, 4, max_deg=4, max_terms=4))
                for _ in range(4)
            ]
            parts = decompose(Derivation(cyl, images), uw)
            if parts:
                assert parts[0].degree >= -1
    report(4, "(corpus round-trips, extreme parts, cylinder bound)")


def test_criterion_5_demazure_oracle():
    rng = random.Random(109)
    with budget(10):
        for dim in (2, 3):
            for _ in range(10):
                cone = rand_pointed_cone(rng, dim)
                ours = sorted(r.vector for r in enumerate_roots(cone, 6))
                assert ours == sorted(naive_roots(cone, 6)), cone
        plane = Cone.of([[1, 0], [0, 1]])
        assert len(enumerate_roots(plane, 5)) == 12
        quadric = Cone.of([[1, 0], [1, 2]])
        report_q = classify_toric(quadric)
        assert report_q.verdict == "B"
    report(5, "(10 random cones per dimension, box 6)")


def test_criterion_6_trinomial_golden_table():
    rng = random.Random(113)
    with budget(10):
        golden = [
            (TrinomialData.type1([[1, 1], [2]], [1, 0]), False, "A"),
            (
                TrinomialData.type2(
                    [[2], [2], [2]], [[1, 0, 1], [0, 1, 1]]
                ),
                False,
                "B",
            ),
            (TrinomialData.type1([[2], [2]], [0, 1]), True, "C"),
        ]
        for T, rigid, verdict in golden:
            assert is_rigid(T).rigid == rigid
            assert classify_trinomial(T).verdict == verdict
        checked = 0
        while checked < 50:
            T = rand_datum(rng)
            assert is_rigid(T).rigid == oracle_rigid(T), T
            checked += 1
    report(6, "(3 golden cases + 50 randomized oracle checks)")


def test_criterion_7_canonical_type1_lnd():
    rng = random.Random(127)
    with budget(20):
        cases = [(TrinomialData.type1([[1, 1], [2]], [1, 0]), {1: 1, 2: 1})]
        while len(cases) < 8:
            T = rand_datum(rng)
            if T.variant != 1 or T.m != 0 or is_rigid(T).rigid:
                continue
            choice = {}
            exceptional_used = False
            for i in T.block_indices:
                li = T.block(i)
                if 1 in li:
                    choice[i] = li.index(1) + 1
                elif not exceptional_used:
                    choice[i] = 1
                    exceptional_used = True
                else:
                    choice = None
                    break
            if choice is None:
                continue
            cases.append((T, choice))
        for T, choice in cases:
            D = type1_lnd(T, choice)
            assert D.is_well_defined()[0]
            assert D.nilpotency_check(32).verified
            algebra = D.algebra
            gens = D.image_ideal().generators + algebra.relations
            assert contains_one(Ideal.of(gens, algebra.arity)), T
    report(7, "(golden + random non-rigid cases, 1 in image ideal)")


def test_criterion_8_membership_closure():
    rng = random.Random(131)
    with budget(30):
        base = w1_algebra()
        D = w1_canonical(base)
        V = VarietyDossier.create(base, [D])
        ideal = combined_image_ideal(V)
        names = list(base.vars) + ["u"]
        # member pool: base elements plus ideal multiples of u powers
        pool = []
        for _ in range(20):
            f = rand_poly(rng, 4, max_deg=3, max_terms=3)
            base_part = Polynomial(
                4, [(m[:3] + (0,), c) for m, c in f.terms]
            )
            pool.append(base_part)
        gens4 = [g.extend(1) for g in ideal.generators]
        for _ in range(20):
            g = rng.choice(gens4)
            cof = rand_poly(rng, 4, max_deg=2, max_terms=2)
            k = rng.randint(1, 3)
            u_pow = Polynomial.monomial(4, (0, 0, 0, k))
            pool.append(g * cof * u_pow)
        for f in pool:
            assert conjectured_hdstar_member(base, f, ideal)
        for _ in range(500):
            f, g = rng.choice(pool), rng.choice(pool)
            assert conjectured_hdstar_member(base, f + g, ideal)
            assert conjectured_hdstar_member(base, f * g, ideal)
        # u is rejected exactly when the image ideal is proper
        quadric = PresentedAlgebra(
            ["x", "y", "z"], [parse_poly("x*y - z^2", ["x", "y", "z"])]
        )
        Dq = Derivation.from_strings(
            quadric, {"x": "0", "y": "2*z", "z": "x"}
        )
        proper_ideal = combined_image_ideal(
            VarietyDossier.create(quadric, [Dq])
        )
        u4 = Polynomial.monomial(4, (0, 0, 0, 1))
        assert not conjectured_hdstar_member(quadric, u4, proper_ideal)
        assert conjectured_hdstar_member(base, u4, ideal)
    report(8, "(500 closure pairs; u handling; base acceptance)")


def test_criterion_9_cross_module_consistency():
    T = TrinomialData.type2([[2], [2], [2]], [[1, 0, 1], [0, 1, 1]])
    cone = Cone.of([[1, 0], [1, 2]])
    assert classify_trinomial(T).verdict == "B"
    assert classify_toric(cone).verdict == "B"
    report(9, "(all-squares trinomial and singular quadric cone agree on B)")


def test_criterion_10_cli_determinism():
    data = Path(__file__).parent / "data"
    commands = [
        ("check-lnd", str(data / "w1.json"), "canonical"),
        ("classify", str(data / "w1.json")),
        ("classify", str(data / "quadric.json")),
        ("classify", str(data / "toric_plane.json")),
        ("classify", str(data / "toric_quadric.json")),
        ("classify", str(data / "trinomial_type1.json")),
        ("classify", str(data / "trinomial_type2.json")),
        ("classify", str(data / "trinomial_rigid.json")),
        ("exp", str(data / "w1.json"), "canonical", "y", "formal"),
        ("decompose", str(data / "w1_cylinder.json"), "mixed", "uweight"),
        ("roots", str(data / "toric_quadric.json"), "--box", "5"),
        ("hdstar-member", str(data / "quadric.json"), "x*u"),
    ]
    for argv in commands:
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "lndkit", *argv, "--json"],
                capture_output=True,
                env=cli_env(),
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] and outputs[0] == outputs[1], argv
        json.loads(outputs[0])
    report(10, f"({len(commands)} commands byte-identical across runs)")
