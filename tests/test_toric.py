import inspect
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lndkit.toric
from lndkit import VarietyDossier, classify
from lndkit.errors import DegenerateCone, DimensionMismatch
from lndkit.toric import (
    _fourier_motzkin,
    Cone,
    DemazureRoot,
    classify_toric,
    detect_line_factor,
    dual_membership,
    enumerate_roots,
    matrix_rank,
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
            classify_toric(cone)
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


@pytest.mark.parametrize("bad", [1.5, -0.5, -1.9, 2.5, True])
def test_toric_inputs_must_be_integers(bad):
    # entries are checked, not truncated: int(-1.9) would be the root -1
    with pytest.raises(ValueError):
        Cone.of([[bad, 0], [0, 1]])
    quadrant = Cone.of([[1, 0], [0, 1]])
    for check in (dual_membership, phi_degree, root_of):
        with pytest.raises(ValueError):
            check([bad, 1], quadrant)
        with pytest.raises(DimensionMismatch):
            check([bad, 1, 0], quadrant)
    with pytest.raises(ValueError):
        enumerate_roots(quadrant, bad)


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
    cone = Cone.of([[1, 0], [1, 2]])
    report = classify_toric(cone)
    assert report.verdict == "B"
    assert root_of(report.evidence[0].data["root"], cone) is not None


def test_classify_redundant_quadrant_is_a():
    cone = Cone.of([[1, 0], [0, 1], [1, 1]])
    assert cone.rays == ((1, 0), (0, 1))
    assert classify_toric(cone) == classify_toric(Cone.of([[1, 0], [0, 1]]))
    assert classify_toric(cone).verdict == "A"


def test_classify_needs_no_box():
    # no root has max-norm <= 2, so a small root box holds none
    cone = Cone.of([[9, -8, -9], [2, -1, 5], [0, 9, 1]])
    assert enumerate_roots(cone, 2) == []
    report = classify_toric(cone)
    assert report.verdict == "B"
    data = report.evidence[0].data
    assert set(data) == {"root", "distinguished_ray"}
    root = root_of(data["root"], cone)
    assert root is not None and root.distinguished == data["distinguished_ray"]


def test_classify_non_pointed_eight_rays_is_fast():
    start = time.perf_counter()
    cone = Cone.of(
        [[-3, 1, 1, -3, 2], [0, 1, -2, -3, 0], [-3, -1, 2, 1, 0],
         [0, -1, 2, -1, -3], [-2, 2, -1, -2, 1], [2, 2, 1, -1, 1],
         [1, 1, -2, -1, -3], [1, -2, -1, 3, 3]]
    )
    with pytest.raises(DegenerateCone, match="not pointed"):
        classify_toric(cone)
    assert time.perf_counter() - start < 2


def test_classify_builds_a_witness_far_outside_small_boxes():
    N = 31
    rays = [[0] * 5 for _ in range(5)]
    for i in range(5):
        rays[i][i], rays[i][(i + 1) % 5] = N, 1
    start = time.perf_counter()
    cone = Cone.of(rays)
    report = classify_toric(cone)
    assert time.perf_counter() - start < 1
    assert report.verdict == "B"
    assert root_of(report.evidence[0].data["root"], cone) is not None


def test_classify_never_searches_a_box(monkeypatch):
    def refuse(cone, box):
        raise AssertionError("classify searched a root box")

    monkeypatch.setattr(lndkit.toric, "enumerate_roots", refuse)
    for rays, verdict in [([[1, 0], [0, 1]], "A"), ([[1, 0], [1, 2]], "B")]:
        V = VarietyDossier(None, tags={"toric": Cone.of(rays)})
        assert classify(V).verdict == verdict
    for fn in (classify, classify_toric):
        assert "box" not in inspect.signature(fn).parameters


def test_classify_degenerate_cones():
    with pytest.raises(DegenerateCone):
        classify_toric(Cone.of([[1, 0]]))  # not full-dimensional
    with pytest.raises(DegenerateCone):
        classify_toric(Cone.of([[1, 0], [0, 1], [-1, -1]]))  # not pointed


# ---- exact verdicts on random cones -----------------------------------------


def _solve(columns, target):
    """The exact solution of sum(l_i * columns[i]) = target, or None if
    the columns are dependent or target is not in their span."""
    n = len(columns)
    rows = [[Fraction(c[r]) for c in columns] + [Fraction(target[r])]
            for r in range(len(target))]
    for col in range(n):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    if any(row[n] for row in rows[n:]):
        return None
    return [rows[i][n] for i in range(n)]


def _rank(rows):
    """Rank over Q by Gaussian elimination on Fractions, independent of
    `matrix_rank`, which reads it off a Smith normal form."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=200, deadline=None)
@example(  # its entries once grew without bound in the Smith normal form
    [[Fraction(x, d) for x, d in row] for row in [
        [(3, 1), (6, 1), (-1, 3), (17, 4), (3, 1)],
        [(17, 1), (5, 1), (5, 4), (-3, 1), (5, 1)],
        [(-15, 4), (12, 1), (-5, 2), (3, 4), (-19, 4)],
        [(-6, 1), (19, 4), (-5, 1), (6, 1), (-10, 1)],
        [(7, 1), (5, 3), (16, 3), (3, 1), (15, 1)],
    ]]
)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=n,
                max_size=n,
            ),
            max_size=5,
        )
    )
)
def test_matrix_rank_matches_elimination(rows):
    assert matrix_rank(rows) == _rank(rows)
    if rows:  # a combination of two rows leaves the rank as it is
        dependent = rows + [[a - 2 * b for a, b in zip(rows[0], rows[-1])]]
        assert matrix_rank(dependent) == _rank(dependent) == _rank(rows)


def caratheodory_redundant(g, others):
    """g lies in cone(others) iff it is a nonnegative combination of some
    linearly independent subset of others (Caratheodory); such a subset
    extends, with zero coefficients, to a basis of span(others) drawn from
    others, so only subsets of that size are tried."""
    rank = _rank(others)
    for subset in combinations(others, rank):
        coeffs = _solve(subset, g)
        if coeffs is not None and min(coeffs) >= 0:
            return True
    return False


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


@st.composite
def pointed_cones(draw):
    """Distinct primitive generators of a pointed full-dimensional cone
    of dimension 2-5: every generator pairs positively with w."""
    dim = draw(st.integers(2, 5))
    w = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
    vectors = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
            min_size=dim,
            max_size=dim + 3,
        )
    )
    rays = []
    for v in vectors:
        side = sum(a * b for a, b in zip(v, w))
        if side:
            v = _primitive([x if side > 0 else -x for x in v])
            if all(not _prop(v, r) for r in rays):
                rays.append(v)
    assume(len(rays) >= dim and matrix_rank(rays) == dim)
    return rays


@settings(max_examples=150, deadline=None)
@given(pointed_cones(), st.randoms(use_true_random=False))
def test_cone_verdicts_are_exact(rays, rng):
    cone = Cone.of(rays)
    # the kept rays are exactly the generators not in the cone of the others
    assert cone.rays == tuple(
        g for g in rays
        if not caratheodory_redundant(g, [v for v in rays if v != g])
    )
    report = classify_toric(cone)
    assert report.verdict in ("A", "B")
    data = report.evidence[0].data
    root = root_of(data["root"], cone)
    assert root is not None and root.distinguished == data["distinguished_ray"]
    # permuting the generators or adding positive combinations of them
    # changes neither the cone nor the verdict
    more = list(rays)
    for _ in range(rng.randint(0, 3)):
        coeffs = [rng.randint(0, 2) for _ in rays]
        coeffs[rng.randrange(len(rays))] += 1
        v = _primitive([sum(c * r[k] for c, r in zip(coeffs, rays))
                        for k in range(cone.dim)])
        if all(not _prop(v, r) for r in more):
            more.append(v)
    rng.shuffle(more)
    other = Cone.of(more)
    assert set(other.rays) == set(cone.rays)
    assert classify_toric(other).verdict == report.verdict


def plain_fourier_motzkin(rows, nvars):
    """Fourier-Motzkin elimination that keeps every distinct combined row
    (divided by the gcd of its entries)."""
    system = {(tuple(a), c) for a, c in rows}
    for var in range(nvars):
        pos = [r for r in system if r[0][var] > 0]
        neg = [r for r in system if r[0][var] < 0]
        system = {r for r in system if r[0][var] == 0}
        for pa, pc in pos:
            for na, nc in neg:
                s, t = -na[var], pa[var]
                a = [s * x + t * y for x, y in zip(pa, na)]
                g = gcd(*a, s * pc + t * nc) or 1
                system.add((tuple(x // g for x in a), (s * pc + t * nc) // g))
    return all(c <= 0 for _, c in system)


@st.composite
def inequality_systems(draw):
    nvars = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars),
        st.integers(-2, 2),
    )
    return draw(st.lists(row, min_size=1, max_size=6)), nvars


@settings(max_examples=200, deadline=None)
@given(inequality_systems())
def test_fourier_motzkin_matches_unpruned_elimination(system):
    rows, nvars = system
    feasible = plain_fourier_motzkin(rows, nvars)
    assert _fourier_motzkin(rows, nvars) == feasible
    x = _fourier_motzkin(rows, nvars, point=True)
    assert (x is not None) == feasible
    if feasible:
        assert all(sum(p * q for p, q in zip(a, x)) >= c for a, c in rows)


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
