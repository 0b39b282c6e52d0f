"""Lattice-cone combinatorics: dual cones, Demazure roots, line factors.

Everything works on exact lattice data. `Cone.of` reduces its generators
to the extremal rays. The toric verdict needs no search: a pointed
full-dimensional cone has a line factor (type A) or else a Demazure root
built on its first ray (type B). Root enumeration, for listing roots, is
box-bounded (root sets can be infinite). It is a depth-first search over
the box, one coordinate at a time, that prunes a prefix as soon as no
completion can be a root and solves for the last coordinate; its output,
order included, is that of testing every point of the box with `root_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Sequence

from .errors import DegenerateCone, DimensionMismatch
from .poly import _is_int
from .report import ClassificationReport, Evidence


@dataclass(frozen=True)
class Cone:
    """Pointed-or-not polyhedral cone given by primitive ray generators.

    `Cone.of` drops, in input order, each generator that lies in the cone
    of the generators it still keeps, so the rays of a pointed cone are
    its extremal rays, in input order.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(rays: Sequence[Sequence[int]]) -> "Cone":
        try:
            rays = tuple(tuple(r) for r in rays)
            integral = all(_is_int(x) for r in rays for x in r)
        except TypeError:
            integral = False
        if not integral:
            raise ValueError(f"rays must be integer lists, not {rays!r}")
        if not rays:
            raise ValueError("a cone needs at least one ray")
        dim = len(rays[0])
        for r in rays:
            if len(r) != dim:
                raise DimensionMismatch("rays of mixed dimension")
            if not any(r):
                raise ValueError("zero vector is not a ray")
            if gcd(*[abs(x) for x in r]) != 1:
                raise ValueError(f"ray {r} is not primitive")
        # primitive vectors are proportional iff they are equal up to sign
        for i, r in enumerate(rays):
            negated = tuple(-x for x in r)
            for s in rays[:i]:
                if s == r or s == negated:
                    raise ValueError(f"rays {s} and {r} are proportional")
        kept = list(rays)
        if matrix_rank(rays) < len(rays):
            for r in rays:
                others = [v for v in kept if v != r]
                # r lies in cone(others) iff no m has <m, others> >= 0 > <m, r>
                rows = [(v, 0) for v in others] + [([-x for x in r], 1)]
                if not _fourier_motzkin(rows, dim):
                    kept = others
        return Cone(dim, tuple(kept))


@dataclass(frozen=True)
class DemazureRoot:
    """Lattice vector pairing to -1 on one ray and >= 0 on the rest."""

    vector: tuple[int, ...]
    distinguished: int


def _pair(m: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(m, v))


def _check_vector(v: Sequence[int], cone: Cone) -> None:
    """DimensionMismatch unless v has cone.dim entries; ValueError unless
    they are ints."""
    if len(v) != cone.dim:
        raise DimensionMismatch(f"vector length {len(v)} vs dim {cone.dim}")
    if not all(_is_int(x) for x in v):
        raise ValueError(f"vector {v!r} has a non-integer entry")


def dual_membership(m: Sequence[int], cone: Cone) -> bool:
    """m lies in the dual cone iff it pairs >= 0 with every ray."""
    _check_vector(m, cone)
    return all(_pair(m, v) >= 0 for v in cone.rays)


def phi_degree(m: Sequence[int], cone: Cone) -> int:
    """Sum of pairings with all rays; grades the semigroup algebra."""
    _check_vector(m, cone)
    return sum(_pair(m, v) for v in cone.rays)


def root_of(e: Sequence[int], cone: Cone) -> DemazureRoot | None:
    """Return the root structure of e, or None if e is not a root."""
    _check_vector(e, cone)
    distinguished = None
    for i, v in enumerate(cone.rays):
        p = _pair(e, v)
        if p == -1 and distinguished is None:
            distinguished = i
        elif p < 0:
            return None
    if distinguished is None:
        return None
    return DemazureRoot(tuple(e), distinguished)


def enumerate_roots(cone: Cone, box: int) -> list[DemazureRoot]:
    """All roots of max-norm <= box, in lexicographic vector order.

    A depth-first search fixes the coordinates before the last one in
    increasing value, which is lexicographic order, and carries every
    ray's partial pairing along the path. It drops a prefix as soon as
    some ray can no longer come back up to -1, or two rays would both
    have to end negative, and it solves for the last coordinate instead
    of scanning it. The list is the one a scan of every point of the box
    with `root_of` gives, in the same order.
    """
    if not _is_int(box) or box < 1:
        raise ValueError(f"box must be an integer >= 1, got {box!r}")
    columns = list(zip(*cone.rays))
    last = cone.dim - 1
    # reach[k][i]: the most that coordinates k.. can add to ray i's pairing
    reach = [
        [box * sum(abs(x) for x in v[k:]) for v in cone.rays]
        for k in range(cone.dim + 1)
    ]
    found: list[DemazureRoot] = []
    prefix: list[int] = []

    def walk(partial: list[int], k: int):
        column, slack = columns[k], reach[k + 1]
        window = _window(partial, column, slack, box)
        if window is None:
            return
        if k == last:
            for x, ray in _last_coordinate_roots(partial, column, window):
                found.append(DemazureRoot((*prefix, x), ray))
            return
        for x in range(window[0], window[1] + 1):
            nxt = [s + x * c for s, c in zip(partial, column)]
            # a ray whose best is -1 must end at -1; two such cannot both
            if sum(s + r == -1 for s, r in zip(nxt, slack)) > 1:
                continue
            prefix.append(x)
            walk(nxt, k + 1)
            prefix.pop()

    walk([0] * len(cone.rays), 0)
    return found


def _window(partial, column, slack, box: int) -> tuple[int, int] | None:
    """The x in [-box, box] with s + x*c + r >= -1 for every ray's
    partial pairing s, next entry c and remaining reach r; None if empty."""
    lo, hi = -box, box
    for s, c, r in zip(partial, column, slack):
        need = -1 - s - r  # x*c must be at least this
        if c > 0:
            lo = max(lo, -(-need // c))
        elif c < 0:
            hi = min(hi, need // c)
        elif need > 0:
            return None
    return (lo, hi) if lo <= hi else None


def _last_coordinate_roots(partial, column, window: tuple[int, int]):
    """The (x, distinguished ray) in the window that complete a prefix.

    In the window every pairing s + x*c is >= -1, so x gives a root iff
    exactly one pairing is -1 there. The candidates are the x where some
    ray pairs to exactly -1, or the whole window when a ray with last
    entry 0 already pairs to -1.
    """
    lo, hi = window
    if any(c == 0 and s == -1 for s, c in zip(partial, column)):
        candidates = range(lo, hi + 1)
    else:
        candidates = sorted(
            {
                (-1 - s) // c
                for s, c in zip(partial, column)
                if c and (-1 - s) % c == 0 and lo <= (-1 - s) // c <= hi
            }
        )
    for x in candidates:
        hits = [i for i, (s, c) in enumerate(zip(partial, column)) if s + x * c == -1]
        if len(hits) == 1:
            yield x, hits[0]


def detect_line_factor(cone: Cone) -> DemazureRoot | None:
    """Exact search for a root pairing to 0 on every non-distinguished ray.

    Solves, per ray, the integer linear system <p, v_i> = -1,
    <p, v_j> = 0 (j != i); such a root splits off a line factor. All
    the systems share one matrix, so one Smith normal form serves them.
    """
    snf = smith_normal_form([list(v) for v in cone.rays])
    for i in range(len(cone.rays)):
        rhs = [-1 if j == i else 0 for j in range(len(cone.rays))]
        p = _solve_smith(snf, rhs)
        if p is not None:
            return DemazureRoot(tuple(p), i)
    return None


def classify_toric(cone: Cone) -> ClassificationReport:
    """Type A on a line factor, else type B; both with a Demazure root.

    Requires a pointed full-dimensional cone. Every extremal ray of such
    a cone is the distinguished ray of some root (Demazure), so without
    a line factor the verdict is B, with a root built on the first ray.
    """
    if matrix_rank(cone.rays) != cone.dim:
        raise DegenerateCone("rays do not span; cone is not full-dimensional")
    # pointed iff some m pairs >= 1 with every ray (dual full-dimensional)
    if not _fourier_motzkin([(v, 1) for v in cone.rays], cone.dim):
        raise DegenerateCone("cone contains a line; not pointed")
    root = detect_line_factor(cone)
    verdict, criterion = "A", "line factor: root vanishing on all other rays"
    if root is None:
        root = _witness_root(cone)
        verdict, criterion = "B", "no line factor, but Demazure roots exist (non-rigid)"
    data = {"root": list(root.vector), "distinguished_ray": root.distinguished}
    return ClassificationReport(verdict, (Evidence(criterion, data),))


def _witness_root(cone: Cone) -> DemazureRoot:
    """The root e0 + k*m on ray rho = rays[0]: <rho, e0> = -1, and m pairs
    to 0 with rho and >= 1 with every other ray v (m exists as rho is
    extremal), so k = max(0, ceil(-<v, e0> / <v, m>)) lifts each <v, .>
    to >= 0."""
    rho, others = cone.rays[0], cone.rays[1:]
    e0 = solve_integer_system([list(rho)], [-1])
    rows = [(rho, 0), ([-x for x in rho], 0)] + [(v, 1) for v in others]
    m = _fourier_motzkin(rows, cone.dim, point=True)
    if m is None:
        raise DegenerateCone(f"ray {rho} is not extremal; build cones with Cone.of")
    scale = lcm(*(x.denominator for x in m))
    m = [int(x * scale) for x in m]
    k = max([0] + [-(_pair(e0, v) // _pair(m, v)) for v in others])
    root = root_of([a + k * b for a, b in zip(e0, m)], cone)
    if root is None:
        raise AssertionError(f"constructed witness is not a root of {cone}")
    return root


def _fourier_motzkin(rows, nvars: int, point: bool = False):
    """Feasibility over Q of {a.x >= c for (a, c) in rows}, integer rows.

    Fourier-Motzkin elimination with Chernikov's rule: after k
    eliminations, a combined row built from more than k+1 input rows is
    implied by the others and is dropped. With `point`, returns a
    rational solution by back-substitution, or None if there is none.
    """
    system = [(tuple(a), c, 1 << i) for i, (a, c) in enumerate(rows)]
    stages = []
    for k, var in enumerate(reversed(range(nvars)), start=1):
        stages.append(system)
        pos = [r for r in system if r[0][var] > 0]
        neg = [r for r in system if r[0][var] < 0]
        system = [r for r in system if r[0][var] == 0]
        for pa, pc, ph in pos:
            for na, nc, nh in neg:
                if (ph | nh).bit_count() > k + 1:
                    continue
                # scale so the var cancels: pos gives lower, neg upper bound
                sp, sn = -na[var], pa[var]
                a = [sp * x + sn * y for x, y in zip(pa, na)]
                c = sp * pc + sn * nc
                g = gcd(*a, c) or 1
                system.append((tuple(x // g for x in a), c // g, ph | nh))
    if any(c > 0 for _, c, _ in system):
        return None if point else False
    if not point:
        return True
    x = [0] * nvars
    for var, rows in enumerate(reversed(stages)):
        lo, hi = [], []  # bounds on x[var] once x[:var] is fixed
        for a, c, _ in rows:
            if a[var]:
                rest = c - sum(p * q for p, q in zip(a, x[:var]))
                (lo if a[var] > 0 else hi).append(Fraction(rest, a[var]))
        # the integer nearest 0 in [max lo, min hi], if there is one
        t = min([max([0, *map(ceil, lo)]), *map(floor, hi)])
        x[var] = t if all(t >= b for b in lo) else max(lo)
    return x


# ---- exact linear algebra ------------------------------------------------


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over Q of a matrix with integer or rational entries.

    Scaling a row by a nonzero integer keeps the rank, so each row is
    cleared of denominators and the rank is read off the diagonal of the
    Smith normal form.
    """
    integral = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        integral.append([int(x * scale) for x in row])
    D = smith_normal_form(integral)[0]
    return sum(1 for i, row in enumerate(D) if i < len(row) and row[i])


def smith_normal_form(A: list[list[int]]):
    """Return (D, U, V) with U*A*V = D diagonal, U and V unimodular, and
    each nonzero diagonal entry dividing the next.

    Each pivot is the least nonzero entry of the remaining block, and its
    row and column are cleared with remainders of at most half the pivot,
    which keeps the entries of U, V and the block small.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [row[:] for row in A]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        D[dst] = [a + k * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, k):
        for row in D:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    t = 0
    while t < min(m, n):
        # the entry of least absolute value in the remaining block
        block = [
            (abs(D[i][j]), i, j) for i in range(t, m) for j in range(t, n) if D[i][j]
        ]
        if not block:
            break
        _, i, j = min(block)
        swap_rows(t, i)
        swap_cols(t, j)
        p = D[t][t]
        below, right = range(t + 1, m), range(t + 1, n)
        # remainders rounded to the nearest multiple of p: at most |p|/2
        for i in below:
            if D[i][t]:
                add_row(t, i, -((2 * D[i][t] + p) // (2 * p)))
        for j in right:
            if D[t][j]:
                add_col(t, j, -((2 * D[t][j] + p) // (2 * p)))
        if any(D[i][t] for i in below) or any(D[t][j] for j in right):
            continue  # a nonzero remainder is the next, smaller pivot
        # p must divide the rest; else row t takes a row it does not divide
        bad = next((i for i in below if any(D[i][j] % p for j in right)), None)
        if bad is None:
            t += 1
        else:
            add_row(bad, t, 1)
    return D, U, V


def solve_integer_system(A: list[list[int]], b: list[int]):
    """One integer solution of A x = b, or None if none exists."""
    return _solve_smith(smith_normal_form(A), b)


def _solve_smith(snf, b: list[int]):
    """`solve_integer_system` for the matrix whose (D, U, V) is `snf`."""
    D, U, V = snf
    m = len(D)
    n = len(V)
    Ub = [sum(U[i][k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        d = D[i][i] if i < n else 0
        if d:
            if Ub[i] % d:
                return None
            y[i] = Ub[i] // d
        elif Ub[i]:
            return None
    return [sum(V[i][k] * y[k] for k in range(n)) for i in range(n)]
