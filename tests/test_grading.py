import random

import pytest

from lndkit import Derivation, PresentedAlgebra, cylinder, lift
from lndkit.errors import ArityMismatch, IncompatibleGrading, ZeroDerivation
from lndkit.grading import decompose, extreme_parts
from lndkit.poly import Polynomial

from helpers import rand_poly, w1_algebra, w1_canonical


@pytest.fixture(scope="module")
def w1():
    return w1_algebra()


@pytest.fixture(scope="module")
def w1_lnd(w1):
    return w1_canonical(w1)


def test_w1_canonical_is_homogeneous(w1, w1_lnd):
    # weights (0, 2, 1) make the relation x*y - z^2 + 1 inhomogeneous,
    # but (2, -2, 0) works and the canonical LND is concentrated there
    w = (2, -2, 0)
    assert w1.is_compatible_grading(w)
    parts = decompose(w1_lnd, w)
    assert [p.degree for p in parts] == [2]
    assert parts[0].part.images == w1_lnd.images


def test_decompose_mixed_cylinder_derivation(w1):
    cyl = cylinder(w1)
    # u-weighting: x, y, z have weight 0 and u has weight 1
    w = (0, 0, 0, 1)
    D = Derivation.from_strings(
        cyl, {"x": "0", "y": "2*z*u^2", "z": "x*u^2 + x", "u": "y"}
    )
    parts = decompose(D, w)
    assert [p.degree for p in parts] == [-1, 0, 2]
    assert parts[0].part.apply(cyl.parse("u")) == cyl.parse("y")
    assert parts[1].part.apply(cyl.parse("z")) == cyl.parse("x")
    assert parts[2].part.apply(cyl.parse("y")) == cyl.parse("2*z*u^2")


def test_decompose_round_trip_random(w1):
    rng = random.Random(41)
    cyl = cylinder(w1)
    w = (0, 0, 0, 1)
    for _ in range(40):
        images = [rand_poly(rng, 4, max_deg=3, max_terms=4) for _ in range(4)]
        D = Derivation(cyl, images)
        parts = decompose(D, w)
        degrees = [p.degree for p in parts]
        assert degrees == sorted(set(degrees))
        total = [Polynomial.zero(4) for _ in range(4)]
        for p in parts:
            for j, img in enumerate(p.part.images):
                total[j] = total[j] + img
        assert tuple(total) == D.images


def test_parts_are_homogeneous(w1):
    rng = random.Random(43)
    w = (2, -2, 0)
    for _ in range(40):
        images = [
            w1.normal(rand_poly(rng, 3, max_deg=3, max_terms=4))
            for _ in range(3)
        ]
        D = Derivation(w1, images)
        for p in decompose(D, w):
            for j, img in enumerate(p.part.images):
                if img.is_zero():
                    continue
                assert img.is_homogeneous(w)
                assert img.weighted_degree(w) == p.degree + w[j]


def test_decompose_zero_derivation(w1):
    D = Derivation(w1, [Polynomial.zero(3)] * 3)
    assert decompose(D, (2, -2, 0)) == []
    with pytest.raises(ZeroDerivation):
        extreme_parts(D, (2, -2, 0))


def test_extreme_parts_of_lnd_are_lnds(w1, w1_lnd):
    cyl = cylinder(w1)
    lifted = lift(w1_lnd, 1, cyl)
    ddu = Derivation(cyl, [Polynomial.zero(4)] * 3 + [Polynomial.constant(4, 1)])
    mixed = Derivation(
        cyl, [a + b for a, b in zip(lifted.images, ddu.images)]
    )
    lo, hi = extreme_parts(mixed, (0, 0, 0, 1))
    assert lo.degree == -1 and hi.degree == 1
    for part in (lo, hi):
        assert part.part.is_well_defined()[0]
        assert part.part.nilpotency_check(8).verified


def test_cylinder_lowest_degree_bound(w1):
    # for the u-weight grading the lowest degree of any derivation is
    # at least -1, and the degree -1 part moves only u by a u-free image
    rng = random.Random(47)
    cyl = cylinder(w1)
    w = (0, 0, 0, 1)
    for _ in range(40):
        images = [
            cyl.normal(rand_poly(rng, 4, max_deg=3, max_terms=4))
            for _ in range(4)
        ]
        parts = decompose(Derivation(cyl, images), w)
        if not parts:
            continue
        assert parts[0].degree >= -1
        if parts[0].degree == -1:
            low = parts[0].part
            for j in range(3):
                assert low.images[j].is_zero()
            assert low.images[3].weighted_degree(w) == 0


def test_incompatible_grading_rejected(w1, w1_lnd):
    with pytest.raises(IncompatibleGrading):
        decompose(w1_lnd, (1, 0, 0))


def test_weight_arity_checked(w1_lnd):
    with pytest.raises(ArityMismatch):
        decompose(w1_lnd, (1, 1))


@pytest.mark.parametrize("w", [(1.5, 0.5), (True, 1), (1, "2")], ids=repr)
def test_grading_weights_must_be_integers(w):
    with pytest.raises(ValueError, match="is not an integer"):
        PresentedAlgebra(["x", "y"], gradings={"g": w})
    D = Derivation.from_strings(PresentedAlgebra(["x", "y"]), {"x": "y", "y": "0"})
    with pytest.raises(ValueError, match="is not an integer"):
        decompose(D, w)


def test_free_algebra_grading():
    Kxy = PresentedAlgebra(["x", "y"])
    D = Derivation.from_strings(Kxy, {"x": "y^2", "y": "x + 1"})
    parts = decompose(D, (1, 1))
    assert [p.degree for p in parts] == [-1, 0, 1]
