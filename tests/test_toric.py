import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lndkit.errors import DegenerateCone, DimensionMismatch
from lndkit.toric import (
    Cone,
    DemazureRoot,
    classify_toric,
    detect_line_factor,
    dual_membership,
    enumerate_roots,
    phi_degree,
    root_of,
    smith_normal_form,
    solve_integer_system,
)


def naive_roots(cone, box):
    """Independent brute-force oracle for the box-bounded root set."""
    out = []
    for e in product(range(-box, box + 1), repeat=cone.dim):
        pairings = [sum(a * b for a, b in zip(e, v)) for v in cone.rays]
        if min(pairings) == -1 and pairings.count(-1) >= 1 and all(
            p >= -1 for p in pairings
        ):
            # exactly the condition: one ray pairs to -1, the rest >= 0
            negs = [p for p in pairings if p < 0]
            if negs == [-1]:
                out.append(tuple(e))
    return out


def rand_pointed_cone(rng, dim):
    """Random full-dimensional pointed cone with small primitive rays."""
    while True:
        nrays = rng.randint(dim, dim + 2)
        rays = []
        for _ in range(nrays):
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
            if not any(v):
                continue
            g = gcd(*[abs(x) for x in v])
            v = tuple(x // g for x in v)
            if all(not _prop(v, r) for r in rays):
                rays.append(v)
        if len(rays) < dim:
            continue
        cone = Cone.of(rays)
        try:
            classify_toric(cone, box=1)
        except DegenerateCone:
            continue
        return cone


def _prop(a, b):
    return all(
        a[i] * b[j] == a[j] * b[i]
        for i in range(len(a))
        for j in range(len(a))
    )


# ---- construction -------------------------------------------------------


def test_cone_of_normalizes_ints():
    cone = Cone.of([[1, 0], [1, 2]])
    assert cone.dim == 2 and cone.rays == ((1, 0), (1, 2))


def test_cone_rejects_bad_rays():
    with pytest.raises(ValueError):
        Cone.of([[2, 4]])
    with pytest.raises(ValueError):
        Cone.of([[0, 0]])
    with pytest.raises(ValueError):
        Cone.of([[1, 0], [-1, 0]])
    with pytest.raises(DimensionMismatch):
        Cone.of([[1, 0], [1, 0, 1]])
    for rays in ([1, 2], [[1, None]], None):
        with pytest.raises(ValueError):
            Cone.of(rays)


# ---- pairing helpers ------------------------------------------------------


def test_dual_membership():
    quadrant = Cone.of([[1, 0], [0, 1]])
    assert dual_membership((3, 5), quadrant)
    assert dual_membership((0, 0), quadrant)
    assert not dual_membership((-1, 2), quadrant)


def test_phi_degree_examples():
    cone = Cone.of([[1, 0], [1, 2]])
    assert phi_degree((-1, 1), cone) == 0
    assert phi_degree((1, 0), cone) == 2
    quadrant = Cone.of([[1, 0], [0, 1]])
    assert phi_degree((-1, 0), quadrant) == -1


def test_phi_nonnegative_on_roots():
    # roots of a 2-ray planar cone pair to -1 once and >= 0 elsewhere,
    # so phi >= -1; with >= 2 rays a strict root still has phi >= -1
    cone = Cone.of([[1, 0], [1, 2]])
    for root in enumerate_roots(cone, 5):
        assert phi_degree(root.vector, cone) >= -1


# ---- roots -------------------------------------------------------------


def test_root_of_quadrant():
    quadrant = Cone.of([[1, 0], [0, 1]])
    root = root_of((-1, 0), quadrant)
    assert root is not None and root.distinguished == 0
    assert root_of((-1, -1), quadrant) is None
    assert root_of((1, 1), quadrant) is None


def test_quadrant_root_count_box5():
    quadrant = Cone.of([[1, 0], [0, 1]])
    assert len(enumerate_roots(quadrant, 5)) == 12


def test_single_ray_cone_root():
    ray = Cone.of([[1]])
    roots = enumerate_roots(ray, 3)
    assert [r.vector for r in roots] == [(-1,)]


def test_enumerate_matches_naive_oracle():
    rng = random.Random(53)
    for dim in (2, 3):
        for _ in range(8):
            cone = rand_pointed_cone(rng, dim)
            ours = {r.vector for r in enumerate_roots(cone, 4)}
            assert ours == set(naive_roots(cone, 4))


def scan_roots(cone, box):
    """The box scan the pruned search replaced: every point in
    itertools.product order, kept when exactly one ray pairs negative
    and that pairing is -1 (the distinguished ray)."""
    found = []
    for e in product(range(-box, box + 1), repeat=cone.dim):
        pairings = [sum(a * b for a, b in zip(e, v)) for v in cone.rays]
        negative = [i for i, p in enumerate(pairings) if p < 0]
        if len(negative) == 1 and pairings[negative[0]] == -1:
            found.append(DemazureRoot(e, negative[0]))
    return found


# largest box per dimension at which the scan stays fast
SCAN_BOX = {1: 30, 2: 12, 3: 5, 4: 3, 5: 2}


@st.composite
def cones_and_boxes(draw):
    """Any input Cone.of accepts: pointed or not, full-dimensional or not,
    with or without redundant generators; and a box for it."""
    dim = draw(st.integers(1, 5))
    vectors = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
            min_size=1,
            max_size=dim + 3,
        )
    )
    rays = []
    for v in vectors:
        if not any(v):
            continue
        g = gcd(*[abs(x) for x in v])
        v = tuple(x // g for x in v)
        if all(not _prop(v, r) for r in rays):
            rays.append(v)
    if not rays:
        rays = [(1,) + (0,) * (dim - 1)]
    return Cone.of(rays), draw(st.integers(1, SCAN_BOX[dim]))


@settings(max_examples=300, deadline=None)
@given(cones_and_boxes())
def test_enumerate_roots_is_the_box_scan(cone_box):
    cone, box = cone_box
    assert enumerate_roots(cone, box) == scan_roots(cone, box)


def test_enumerate_roots_is_the_box_scan_on_examples():
    # pointed, lower-dimensional, with a redundant ray, non-pointed, and
    # dim 4: the list, its order and the distinguished rays
    for rays, box in [
        ([[1, 0], [1, 2]], 6),
        ([[1, 0, 0], [0, 1, 0]], 3),
        ([[1, 0], [0, 1], [1, 1]], 4),
        ([[1, 0], [0, 1], [-1, -1]], 5),
        ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], 3),
    ]:
        cone = Cone.of(rays)
        assert enumerate_roots(cone, box) == scan_roots(cone, box)


def test_enumerate_roots_rejects_empty_box():
    cone = Cone.of([[1, 0], [0, 1]])
    for box in (0, -1):
        with pytest.raises(ValueError):
            enumerate_roots(cone, box)


def test_root_distinguished_ray_pairs_to_minus_one():
    rng = random.Random(59)
    for _ in range(8):
        cone = rand_pointed_cone(rng, 2)
        for root in enumerate_roots(cone, 4):
            pairings = [
                sum(a * b for a, b in zip(root.vector, v))
                for v in cone.rays
            ]
            assert pairings[root.distinguished] == -1
            assert all(
                p >= 0
                for i, p in enumerate(pairings)
                if i != root.distinguished
            )


# ---- line factors ------------------------------------------------------


def test_quadrant_has_line_factor():
    quadrant = Cone.of([[1, 0], [0, 1]])
    line = detect_line_factor(quadrant)
    assert line is not None and line.vector == (-1, 0)


def test_singular_quadric_cone_has_no_line_factor():
    cone = Cone.of([[1, 0], [1, 2]])
    assert detect_line_factor(cone) is None


def test_line_factor_is_a_root():
    rng = random.Random(61)
    for _ in range(10):
        cone = rand_pointed_cone(rng, 2)
        line = detect_line_factor(cone)
        if line is not None:
            assert root_of(line.vector, cone) is not None


# ---- classification ------------------------------------------------------


def test_classify_plane_is_a():
    report = classify_toric(Cone.of([[1, 0], [0, 1]]))
    assert report.verdict == "A"


def test_classify_quadric_cone_is_b():
    report = classify_toric(Cone.of([[1, 0], [1, 2]]))
    assert report.verdict == "B"
    assert report.evidence[0].data["root_count"] > 0


def test_classify_degenerate_cones():
    with pytest.raises(DegenerateCone):
        classify_toric(Cone.of([[1, 0]]))  # not full-dimensional
    with pytest.raises(DegenerateCone):
        classify_toric(Cone.of([[1, 0], [0, 1], [-1, -1]]))  # not pointed


# ---- integer linear algebra ------------------------------------------------


def test_smith_normal_form_properties():
    rng = random.Random(67)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(A)
        UA = [
            [sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)]
            for i in range(m)
        ]
        UAV = [
            [sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)]
            for i in range(m)
        ]
        for i in range(m):
            for j in range(n):
                assert UAV[i][j] == D[i][j]
                if i != j:
                    assert D[i][j] == 0
        diag = [D[i][i] for i in range(min(m, n)) if D[i][i]]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_solve_integer_system_round_trip():
    rng = random.Random(71)
    solved = 0
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-6, 6) for _ in range(m)]
        x = solve_integer_system(A, b)
        if x is not None:
            solved += 1
            for i in range(m):
                assert sum(A[i][j] * x[j] for j in range(n)) == b[i]
    assert solved > 0


def test_solve_integer_system_detects_infeasible():
    assert solve_integer_system([[2]], [1]) is None
    assert solve_integer_system([[1, 1], [1, 1]], [0, 1]) is None
