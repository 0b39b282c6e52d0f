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
from lndkit import (
    LEX,
    Derivation,
    Ideal,
    PresentedAlgebra,
    VarietyDossier,
    classify,
    groebner,
    jacobian_rank_at_point,
)
from lndkit.errors import DegenerateCone, DimensionMismatch, NotVerifiedLND
from lndkit.poly import Polynomial
from lndkit.toric import (
    _fourier_motzkin,
    _solve_echelon,
    Cone,
    DemazureRoot,
    classify_toric,
    column_echelon,
    detect_line_factor,
    dual_membership,
    enumerate_roots,
    phi_degree,
    root_of,
)

from helpers import (
    assert_permutations_keep_the_verdict,
    refuse_groebner_bases,
    transformed_dossier,
    triangular_automorphism,
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


def test_cone_of_reads_any_iterable_of_rays_once():
    # of() took the dimension from rays[0], which a generator does not have
    rays = [[1, 0], [0, 1]]
    assert Cone.of(r for r in rays) == Cone(2, (r for r in rays)) == Cone.of(rays)
    with pytest.raises(ValueError, match=r"^rays must be integer lists, not 5$"):
        Cone.of(5)


def test_the_constructor_checks_and_reduces_like_of():
    # the quadrant with its interior ray (1, 1): A^2, so type A with 8
    # roots in box 3; unreduced, the extra ray gave B and 6 roots
    cone = Cone(2, ((1, 0), (1, 1), (0, 1)))
    assert cone == Cone.of([[1, 0], [1, 1], [0, 1]])
    assert cone.rays == ((1, 0), (0, 1))
    assert classify_toric(cone).verdict == "A"
    assert len(enumerate_roots(cone, 3)) == 8
    for dim, rays in [(1, [[2]]), (2, [[0, 0]]), (2, [[1, 0], [-1, 0]]), (1, [[1.0]])]:
        with pytest.raises(ValueError):
            Cone(dim, rays)
    for dim, rays in [(3, [[1, 0]]), (2, [[1, 0], [1, 0, 1]]), (1.0, [[1]])]:
        with pytest.raises(DimensionMismatch):
            Cone(dim, rays)


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


def test_enumerate_roots_leaf_branches_are_the_box_scan():
    # last coordinates of a prefix: a ray with last entry 0 at -1 claims
    # the window, two rays at -1 on one x leave no root there, and two
    # rays with last entry 0 at -1 leave no root on the whole prefix
    quadrant = Cone.of([[1, 0], [0, 1]])
    roots = enumerate_roots(quadrant, 3)
    assert roots == scan_roots(quadrant, 3)
    assert [r.vector for r in roots if r.vector[0] == -1] == [(-1, x) for x in range(4)]
    assert {r.distinguished for r in roots if r.vector[0] == -1} == {0}
    twin = Cone.of([[1, 1], [-1, 1]])
    roots = enumerate_roots(twin, 4)
    assert roots == scan_roots(twin, 4)
    assert (0, -1) not in {r.vector for r in roots}
    flat = Cone.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    roots = enumerate_roots(flat, 2)
    assert roots == scan_roots(flat, 2)
    assert not [r for r in roots if r.vector[:2] == (-1, -1)]
    assert [r.vector for r in roots if r.vector[:2] == (-1, 0)] == [
        (-1, 0, x) for x in range(3)
    ]


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


def test_classify_solves_one_system_per_cone(monkeypatch):
    # the system that builds the B root also decides pointedness
    a, b, line = (Cone.of(rays) for rays in ([[1, 0], [0, 1]], [[1, 0], [1, 2]],
                                             [[1, 0], [0, 1], [-1, -1]]))
    calls = []

    def counted(rows, nvars, point=False):
        calls.append(point)
        return _fourier_motzkin(rows, nvars, point)

    monkeypatch.setattr(lndkit.toric, "_fourier_motzkin", counted)
    assert [classify_toric(a).verdict, classify_toric(b).verdict] == ["A", "B"]
    with pytest.raises(DegenerateCone, match="cone contains a line; not pointed"):
        classify_toric(line)
    assert calls == [True, True, True]


def test_one_column_echelon_form_per_cone(monkeypatch):
    # Cone.of returns the cone whose form it built, unless it drops a
    # generator; then the kept rays need a form of their own
    calls = []

    def counted(A):
        calls.append([list(r) for r in A])
        return column_echelon(A)

    monkeypatch.setattr(lndkit.toric, "column_echelon", counted)
    square = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]  # all extremal
    for rays, kept, verdict in [
        ([[1, 0], [1, 2]], None, "B"),
        (square, None, "B"),
        ([[1, 0], [1, 1], [0, 1]], [[1, 0], [0, 1]], "A"),
    ]:
        calls.clear()
        cone = Cone.of(rays)
        assert classify_toric(cone).verdict == verdict
        detect_line_factor(cone)
        assert calls == [rays] + ([kept] if kept else [])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-9, 9), min_size=d, max_size=d),
            min_size=1, max_size=6,
        )
    )
)
def test_witness_start_is_read_off_the_echelon_form(rays):
    # the echelon form reduces the first ray first and leaves column 0 of
    # V alone after, so it holds the solution of <rho, e0> = -1
    rho = rays[0]
    assume(gcd(*rho) == 1)
    H, V, _ = column_echelon(rays)
    e0 = [-H[0][0] * row[0] for row in V]
    assert e0 == _solve_echelon(column_echelon([rho]), [-1])
    assert sum(a * b for a, b in zip(e0, rho)) == -1


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
    `jacobian_rank_at_point`, which counts the pivots of a column echelon
    form."""
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
    # the Jacobian of linear forms at the origin is their coefficient matrix
    def jacobian_rank(rows):
        n = len(rows[0]) if rows else 0
        forms = [
            Polynomial(n, [(tuple(int(i == j) for i in range(n)), c)
                           for j, c in enumerate(row)])
            for row in rows
        ]
        return jacobian_rank_at_point(forms, [0] * n)

    assert jacobian_rank(rows) == _rank(rows)
    if rows:  # a combination of two rows leaves the rank as it is
        dependent = rows + [[a - 2 * b for a, b in zip(rows[0], rows[-1])]]
        assert jacobian_rank(dependent) == _rank(dependent) == _rank(rows)


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
    assume(len(rays) >= dim and len(column_echelon(rays)[2]) == dim)
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


def unimodular(rng, dim, steps=6):
    """A random U with det +-1 and its inverse W, as a product of
    elementary row operations on the identity: add k times one row to
    another, swap two rows, or negate one. Each operation E on U's rows
    is undone on W's columns, so U*W stays the identity."""
    U = [[int(i == j) for j in range(dim)] for i in range(dim)]
    W = [row[:] for row in U]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        op = rng.randrange(3)
        if op == 0:  # row i += k row j; then column j of W -= k column i
            k = rng.choice([-2, -1, 1, 2])
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]
            for row in W:
                row[j] -= k * row[i]
        elif op == 1:
            U[i], U[j] = U[j], U[i]
            for row in W:
                row[i], row[j] = row[j], row[i]
        else:
            U[i] = [-a for a in U[i]]
            for row in W:
                row[i] = -row[i]
    return U, W


def _times(M, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in M)


def _transpose(M):
    return [list(col) for col in zip(*M)]


def check_lattice_invariance(generators, rng, box=2):
    """U*sigma is the same toric variety as sigma for a unimodular U: the
    cone's rays, verdict, evidence and line factor move with U, and
    <e, U*r> = <U^T*e, r> maps its roots onto those of sigma."""
    cone = Cone.of(generators)
    U, W = unimodular(rng, cone.dim)
    assert [_times(U, col) for col in _transpose(W)] == [
        tuple(int(i == j) for i in range(cone.dim)) for j in range(cone.dim)
    ]
    moved = Cone.of([_times(U, g) for g in generators])
    assert moved.rays == tuple(_times(U, r) for r in cone.rays)
    report, moved_report = classify_toric(cone), classify_toric(moved)
    assert moved_report.verdict == report.verdict
    data = moved_report.evidence[0].data
    root = root_of(data["root"], moved)
    assert root is not None and root.distinguished == data["distinguished_ray"]
    assert (detect_line_factor(moved) is None) == (detect_line_factor(cone) is None)
    for source, target, M in ((moved, cone, _transpose(U)), (cone, moved, _transpose(W))):
        for e in enumerate_roots(source, box):
            image = root_of(_times(M, e.vector), target)
            assert image is not None and image.distinguished == e.distinguished


def test_toric_verdicts_are_lattice_invariants():
    rng = random.Random(26)
    for n in range(60):
        check_lattice_invariance(rand_pointed_cone(rng, 2 + n % 3).rays, rng)


@settings(max_examples=60, deadline=None)
@given(pointed_cones(), st.randoms(use_true_random=False))
def test_toric_verdicts_are_lattice_invariants_on_redundant_generators(rays, rng):
    check_lattice_invariance(rays, rng)


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


def _det(M):
    """Determinant over Q by Gaussian elimination on Fractions."""
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for col in range(len(M)):
        pivot = next((r for r in range(col, len(M)) if M[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, len(M)):
            f = M[r][col] / M[col][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return det


@settings(max_examples=200, deadline=None)
@example([])
@example([[0, 0, 0], [0, 0, 0], [1, 2, 3]])  # zero rows
@example([[0, 4, 0], [0, -6, 0], [0, 9, 0]])  # zero columns
@example([[6, 10, 15]])  # one row
@example([[0, 0, -2, 3]])
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.just(0), st.integers(-6, 6)), min_size=n, max_size=n
            ),
            max_size=5,
        )
    )
)
def test_column_echelon_properties(A):
    H, V, pivots = column_echelon(A)
    n = len(A[0]) if A else 0
    assert len(V) == n and abs(_det(V)) == 1
    assert [[sum(a * v for a, v in zip(row, col)) for col in zip(*V)]
            for row in A] == H
    assert pivots == sorted(set(pivots)) and len(pivots) == _rank(A)
    for k, r in enumerate(pivots):
        # row r is the first nonzero one in column k and zero right of it
        assert H[r][k] and not any(H[r][k + 1:])
        assert not any(H[i][k] for i in range(r))
    assert not any(x for row in H for x in row[len(pivots):])


def test_solve_integer_system_round_trip():
    rng = random.Random(71)
    solved = 0
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-6, 6) for _ in range(m)]
        x = _solve_echelon(column_echelon(A), b)
        if x is not None:
            solved += 1
            for i in range(m):
                assert sum(A[i][j] * x[j] for j in range(n)) == b[i]
    assert solved > 0


def test_solve_integer_system_detects_infeasible():
    assert _solve_echelon(column_echelon([[2]]), [1]) is None
    assert _solve_echelon(column_echelon([[1, 1], [1, 1]]), [0, 1]) is None


# ---- output pinned on a seeded corpus -------------------------------------

# Recorded with the Smith normal form solver that `column_echelon`
# replaced, on a seeded random corpus: pointed full-dimensional cones of
# dimension 2-5 (the type A ones are unimodular images of cones with a
# line factor) and cones whose rays do not span. On a spanning cone the
# line-factor system has at most one solution; on the others it has many,
# so only existence is pinned.
PINNED_SPANNING = [  # rays, verdict, root, distinguished_ray, line factor
    ([[-2, -5, 9, 7, -1], [-2, 4, 6, 14, -1], [6, 3, -1, 0, 3], [30, -1, 9, 0, 15], [17, 0, 0, -6, 8], [4, -9, 9, 0, 2]], "A", [-1, 0, 0, 0, 2], 4, [-1, 0, 0, 0, 2]),
    ([[4, 8, 31], [1, 1, 4], [-1, -2, -4]], "A", [-2, 1, 0], 1, [-2, 1, 0]),
    ([[1, 0], [1, 1]], "A", [-1, 1], 0, [-1, 1]),
    ([[3, 4, 19, -17, -43], [1, -2, 2, 0, 0], [0, 10, 14, -20, -43], [3, -10, 5, 11, 18], [-2, 2, -3, 2, 9]], "A", [3, 2, 0, 1, 0], 1, [3, 2, 0, 1, 0]),
    ([[1, -12, 9, 0], [0, -7, 6, 0], [-3, 42, -31, 3], [-1, -3, 2, 1], [-4, 45, -34, 4], [0, -9, 7, 0]], "A", [-1, 0, 0, -1], 0, [-1, 0, 0, -1]),
    ([[4, 1, -1], [-6, -3, 2], [-6, -1, 2], [3, 5, -1], [-3, 0, 1]], "A", [-1, 0, -3], 0, [-1, 0, -3]),
    ([[10, -7, -7, 21, -15], [14, -12, 6, 29, -5], [-8, 7, 17, -26, 28], [2, -3, 16, -1, 17], [1, -1, 0, 2, -1], [10, -7, 11, 15, 6]], "A", [-1, 0, -4, 2, 4], 4, [-1, 0, -4, 2, 4]),
    ([[-1, 2], [1, -3]], "A", [3, 1], 0, [3, 1]),
    ([[5, -5, 4, -6], [0, 2, -1, 1], [-5, 11, -3, -4], [-3, 5, -4, 8], [-9, 14, -6, 1], [4, -6, 5, -10]], "A", [-1, 1, 4, 1], 1, [-1, 1, 4, 1]),
    ([[1, 4], [0, 1], [1, 0]], "A", [0, -1], 0, [0, -1]),
    ([[-26, 0, -4, -7], [4, 3, 3, 2], [-22, 1, -3, -5], [1, 0, 0, 0], [1, -2, -3, 2], [-29, 7, 4, -10]], "A", [-1, -3, 3, 2], 2, [-1, -3, 3, 2]),
    ([[7, -1, 3], [0, 1, 0], [8, 3, 4], [6, -2, 3]], "A", [-1, 0, 2], 0, [-1, 0, 2]),
    ([[-2, 8, 7], [-3, 1, 5], [2, -1, -3], [-1, -1, 1], [-4, 10, 11]], "A", [-3, 1, -2], 1, [-3, 1, -2]),
    ([[13, -6], [-2, 1]], "A", [-1, -2], 0, [-1, -2]),
    ([[0, 1], [1, 4]], "A", [4, -1], 0, [4, -1]),
    ([[1, 7, -4, -8, 1], [0, 17, -11, -19, 5], [11, 74, -42, -84, 12], [7, 30, -16, -34, 3], [8, 66, -40, -80, 13], [-1, 6, 0, 4, 0], [7, 51, -26, -49, 7]], "A", [2, 1, 6, -1, 6], 0, [2, 1, 6, -1, 6]),
    ([[-1, 4], [1, 2]], "B", [1, 0], 0, None),
    ([[2, 2, -1, 0], [0, 2, 2, 1], [3, 4, 3, 1], [-1, 0, 3, 3], [4, 3, 2, 4], [4, 0, -1, -3], [-3, 3, 4, 0]], "B", [0, 1, 3, -1], 0, None),
    ([[-1, 3, 1, -2, 2], [-3, 4, 3, 4, -3], [-4, 3, 1, 1, 3], [-4, 4, 0, 1, -2], [-4, 1, 3, -2, 4], [-1, 3, -2, 4, 0], [3, -2, 2, 2, 0], [2, 1, 1, -1, 2]], "B", [1, 0, 12, 8, 2], 0, None),
    ([[0, 0, 3, 4], [-1, 0, -1, 2], [4, 3, 1, 4], [0, 3, 3, -4], [2, 1, -1, 3]], "B", [0, 48, -19, 14], 0, None),
    ([[2, 0, 1, -4, 2], [4, 0, -1, 0, 3], [0, 2, 1, -4, 4], [-1, 1, -4, 4, 3], [2, 3, 3, 4, 2], [4, 1, 0, -4, 2], [-2, 1, 2, 2, 2]], "B", [0, 0, -3, 2, 5], 0, None),
    ([[2, 1, 0], [2, 1, 4], [1, 0, -1], [3, 2, 0]], "B", [0, 3, -1], 0, None),
    ([[4, 0, 1, 4], [-1, 4, 4, 1], [-3, 4, 1, -4], [-2, 2, 1, -1]], "B", [0, 0, 3, -1], 0, None),
    ([[4, 3, 0, -1], [-4, 1, 4, 2], [4, 2, 3, 0], [1, 4, 0, -2], [3, 4, -4, 1], [0, -2, 1, 1], [2, 2, -1, 2]], "B", [-2, 6, 4, 11], 0, None),
    ([[1, 0], [0, 1], [1, 2], [-1, 2]], "B", [-1, 0], 0, None),
    ([[-1, -4, 2, -4, 4], [-2, 1, 4, -2, -2], [4, 3, -4, 4, -1], [-3, 1, 0, -1, 4], [2, 1, 2, 3, -1], [-3, 3, 3, -2, 0], [0, -3, 1, 3, 3], [-3, 4, 4, -1, 1]], "B", [1, 0, 14, 17, 10], 0, None),
    ([[0, 1, 2, -1, -2], [4, 4, 1, 1, 3], [2, 1, -2, -1, 3], [-1, 1, 1, 2, 2], [1, 2, -3, 2, -2], [3, 0, -2, 4, 0], [1, -1, 2, -4, 3]], "B", [0, 5, 2, 2, 4], 0, None),
    ([[4, 1, 2, 1], [-3, 3, 4, 4], [-1, 2, 1, 1], [2, -1, 1, 2]], "B", [0, -1, -2, 4], 0, None),
    ([[-4, 3, 1, 0, 3], [-1, 1, 0, 4, 2], [0, 1, 4, -2, 3], [4, 4, 0, 3, -3], [4, 4, 1, 3, 1], [-1, -1, 2, 3, -4]], "B", [0, 0, 5, 6, -2], 0, None),
    ([[1, 4, -3], [-1, -1, 2], [2, 2, -1]], "B", [-1, 6, 8], 0, None),
    ([[3, 2], [2, -1]], "B", [1, -2], 0, None),
    ([[3, -1, 0], [-1, 4, 2], [4, -1, -3]], "B", [1, 4, 0], 0, None),
    # B cones whose first ray has no entry +-1: the witness depends on how
    # the solver of <rho, e0> = -1 rounds its quotients
    ([[9, -2, 6], [4, 3, 2], [3, 2, 2], [3, -2, 1]], "B", [11, 2, -16], 0, None),
    ([[5, 2, 4, 3, -6], [1, 4, 0, 4, -1], [2, 3, 4, 2, 4], [4, 0, 2, -1, 0], [0, 4, 0, 4, 1]], "B", [1, -3, 6, 6, 7], 0, None),
    ([[-2, 9, 7, 9, -2], [1, 1, -1, 3, -2], [1, -1, 3, 0, -1], [4, 0, 3, 1, 2], [1, 1, -2, 1, -1]], "B", [-4, -161, -29, 181, -7], 0, None),
    ([[3, -2, -5, 2], [3, -3, -2, 4], [4, 3, -4, 1], [2, 2, 1, -2]], "B", [-1, 23, -2, 19], 0, None),
    ([[8, 7, 5, 8], [-1, 2, -2, 1], [2, 1, -2, 1], [1, 3, 1, 2], [2, 3, -4, -1]], "B", [0, -3, -20, 15], 0, None),
    ([[4, -7], [1, 0]], "B", [5, 3], 0, None),
    ([[-9, 9, -4, 5, -7], [4, 0, 2, 0, -1], [-4, 0, 3, 2, -1], [1, -1, 1, 3, -2], [3, -1, 3, 4, -4]], "B", [0, -1, 5, 0, -4], 0, None),
    ([[-5, 4], [1, 3]], "B", [1, 1], 0, None),
]
PINNED_NON_SPANNING = [  # rays, has a line-factor root
    ([[0, 1, -1]], True),
    ([[3, 2, -3, -1], [-1, 2, -5, -1]], False),
    ([[-1, 4, -4, -4], [-1, 2, -8, -7], [-1, 6, -14, -9]], True),
    ([[10, 3, -12, 3, 5], [7, 1, -8, 2, 4], [5, 9, -8, 10, 12]], True),
    ([[3, -2, 3]], True),
    ([[-1, 3, -4]], True),
    ([[3, -1, 6, 1, -2]], True),
    ([[1, 6, -5]], True),
]


@pytest.mark.parametrize("rays, verdict, root, ray, line", PINNED_SPANNING)
def test_toric_output_is_pinned(rays, verdict, root, ray, line):
    cone = Cone.of(rays)
    report = classify_toric(cone)
    assert report.verdict == verdict
    assert report.evidence[0].data == {"root": root, "distinguished_ray": ray}
    found = detect_line_factor(cone)
    assert (None if found is None else list(found.vector)) == line


@pytest.mark.parametrize("rays, has_line", PINNED_NON_SPANNING)
def test_line_factor_existence_is_pinned_on_non_spanning_cones(rays, has_line):
    # the rays do not span, so the line-factor root is one of many
    cone = Cone.of(rays)
    with pytest.raises(DegenerateCone):
        classify_toric(cone)
    found = detect_line_factor(cone)
    assert (found is not None) == has_line
    if found is not None:
        assert root_of(found.vector, cone) == found


# ---- toric path against the dossier path ------------------------------------


def _pair(a, b):
    return sum(x * y for x, y in zip(a, b))


def dual_hilbert_basis(rays):
    """The Hilbert basis of the dual cone's lattice points, by brute force.

    The dual cone's extremal rays u are the primitive normals of the
    facets of a 2- or 3-dimensional cone. Each Hilbert basis element lies
    in a parallelepiped spanned by some of them, so within max-norm
    sum |u|; in that box, a point is irreducible iff no element of
    smaller degree found before it leaves a dual-cone point when taken off.
    """
    dim = len(rays[0])
    normals = set()
    for face in combinations(rays, dim - 1):
        if dim == 2:
            n = (-face[0][1], face[0][0])
        else:
            (a, b, c), (d, e, f) = face
            n = (b * f - c * e, c * d - a * f, a * e - b * d)
        if not any(n):
            continue
        g = gcd(*n)
        for u in ((x // g for x in n), (-x // g for x in n)):
            u = tuple(u)
            if all(_pair(u, v) >= 0 for v in rays):
                normals.add(u)
    box = sum(max(map(abs, u)) for u in normals)
    points = [
        m for m in product(range(-box, box + 1), repeat=dim)
        if any(m) and all(_pair(m, v) >= 0 for v in rays)
    ]
    points.sort(key=lambda m: sum(_pair(m, v) for v in rays))
    basis = []
    for m in points:
        if not any(all(_pair(m, v) >= _pair(h, v) for v in rays) for h in basis):
            basis.append(m)
    return basis


def toric_ideal(H):
    """The relations of x_j -> chi^{H[j]}: the binomials of a kernel basis
    of the lattice map, saturated by x_1...x_k through t*x_1...x_k - 1,
    with t eliminated under lex."""
    k = len(H)
    _, V, pivots = column_echelon([list(row) for row in zip(*H)])
    kernel = [[row[j] for row in V] for j in range(len(pivots), k)]

    def monomial(exponents):
        return Polynomial.monomial(k + 1, exponents)

    gens = [
        monomial([0] + [max(c, 0) for c in col]) - monomial([0] + [max(-c, 0) for c in col])
        for col in kernel
    ]
    gens.append(monomial([1] * (k + 1)) - 1)
    basis = groebner(Ideal.of(gens, k + 1), LEX).basis
    return [
        Polynomial(k, [(m[1:], c) for m, c in g.terms])
        for g in basis
        if not any(m[0] for m in g.num)
    ]


def semigroup_exponents(point, H, rays):
    """An a with sum a_j H[j] = point, for a point of the dual cone: take
    off any Hilbert basis element that leaves a dual-cone point."""
    a = [0] * len(H)
    while any(point):
        j, point = next(
            (j, rest)
            for j, h in enumerate(H)
            for rest in [tuple(x - y for x, y in zip(point, h))]
            if all(_pair(rest, v) >= 0 for v in rays)
        )
        a[j] += 1
    return a


CROSS_PATH_CONES = [  # rays, whether X has a line factor
    ([[1, 0], [0, 1]], True),
    ([[1, 0], [1, 2]], False),
    ([[1, 0], [2, 5]], False),  # degree-2 binomials miss relations
    ([[1, 0], [-1, 3]], False),
    ([[2, -1], [1, 1]], False),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], True),
    ([[1, 0, 0], [0, 1, 0], [0, 1, 2]], True),
    ([[1, 0, 0], [1, 1, 0], [1, 1, 3]], True),
    ([[1, 0, 0], [0, 1, 0], [1, 1, 2]], False),
    ([[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]], False),  # xy = zw
    ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], False),
]


@pytest.mark.parametrize("rays, has_line", CROSS_PATH_CONES)
def test_toric_verdict_matches_the_dossier_of_the_toric_variety(rays, has_line):
    # X_sigma presented by the Hilbert basis of the dual cone, with the
    # homogeneous LND x_j -> <rho, h_j> x^a, deg x^a = h_j + e, of each
    # Demazure root e on ray rho (Demazure): a line factor makes some
    # image 1 (A); otherwise every image vanishes at the origin (B)
    cone = Cone.of(rays)
    H = dual_hilbert_basis(cone.rays)
    k = len(H)
    relations = toric_ideal(H)
    for r in relations:  # each binomial's two monomials have one M-degree
        degrees = {tuple(_pair(m, column) for column in zip(*H)) for m in r.num}
        assert len(r.num) == 2 and len(degrees) == 1
    algebra = PresentedAlgebra([f"x{j}" for j in range(k)], relations)
    roots = enumerate_roots(cone, 2)
    lnds = []
    for root in roots:
        rho = cone.rays[root.distinguished]
        images = [
            Polynomial.monomial(
                k,
                semigroup_exponents([x + y for x, y in zip(h, root.vector)], H, cone.rays),
                _pair(rho, h),
            )
            if _pair(rho, h)
            else Polynomial.zero(k)
            for h in H
        ]
        D = Derivation(algebra, images)
        D.require_lnd()
        lnds.append(D)
    report = classify_toric(cone)
    assert report.verdict == ("A" if has_line else "B")
    assert tuple(report.evidence[0].data["root"]) in {r.vector for r in roots}
    V = VarietyDossier.create(algebra, lnds, tags={"invariant_line": [0] * k})
    assert classify(V).verdict == report.verdict


def toric_variety_dossier(cone):
    """The dossier of X_sigma that the test above builds: the toric ideal
    of the dual Hilbert basis, the LND of every Demazure root in box 2,
    and the origin as the invariant-line point."""
    H = dual_hilbert_basis(cone.rays)
    k = len(H)
    algebra = PresentedAlgebra([f"x{j}" for j in range(k)], toric_ideal(H))
    lnds = []
    for root in enumerate_roots(cone, 2):
        rho = cone.rays[root.distinguished]
        images = [
            Polynomial.monomial(
                k,
                semigroup_exponents([x + y for x, y in zip(h, root.vector)], H, cone.rays),
                _pair(rho, h),
            )
            if _pair(rho, h)
            else Polynomial.zero(k)
            for h in H
        ]
        lnds.append(Derivation(algebra, images))
    return VarietyDossier.create(algebra, lnds, tags={"invariant_line": [0] * k})


@pytest.mark.parametrize("rays", [r for r, has_line in CROSS_PATH_CONES if not has_line])
def test_b_dossier_of_the_toric_variety_needs_no_groebner_basis(rays, monkeypatch):
    # the origin is in the fixed locus of every LND, so classify answers B
    # before any basis; a non-LND among them still raises
    V = toric_variety_dossier(Cone.of(rays))
    k = V.algebra.arity
    euler = Derivation(V.algebra, [Polynomial.variable(k, j) for j in range(k)])
    refuse_groebner_bases(monkeypatch)
    assert classify(V).verdict == "B"
    bad = VarietyDossier(V.algebra, (*V.lnds, euler), V.tags)
    with pytest.raises(NotVerifiedLND, match="failed verification"):
        classify(bad)


@pytest.mark.parametrize("rays, has_line", CROSS_PATH_CONES)
def test_dossier_verdict_of_the_toric_variety_survives_permuting_variables(
    rays, has_line
):
    # the variables permuted and renamed, alone and composed with seeded
    # triangular automorphisms; a B point moves with its variables
    V = toric_variety_dossier(Cone.of(rays))
    assert_permutations_keep_the_verdict(V, "A" if has_line else "B", seed=5, draws=2)


@pytest.mark.parametrize("rays, has_line", CROSS_PATH_CONES)
def test_dossier_verdict_of_the_toric_variety_is_an_isomorphism_invariant(rays, has_line):
    # X_sigma presented through three seeded triangular automorphisms of
    # degree 2: relations, LNDs and the stable point all move, the verdict not
    V = toric_variety_dossier(Cone.of(rays))
    verdict = "A" if has_line else "B"
    assert classify(V).verdict == verdict
    rng = random.Random(1)
    for _ in range(3):
        phi, psi = triangular_automorphism(rng, V.algebra.arity)
        assert classify(transformed_dossier(V, phi, psi)).verdict == verdict
