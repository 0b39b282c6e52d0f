"""Lattice-cone combinatorics: dual cones, Demazure roots, line factors.

Everything works on exact lattice data. A `Cone` reduces its generators
to the extremal rays. The toric verdict needs no search: a pointed
full-dimensional cone has a line factor (type A) or else a Demazure root
built on its first ray (type B); the one solve that builds that root
also refuses a cone that is not pointed. Ranks and integer solutions
come from each cone's one column echelon form A*V = H of its rays,
built on first use. Root enumeration, for listing roots, is box-bounded
(root sets can be infinite): a depth-first search over all coordinates
but the last two prunes a prefix as soon as no completion can be a root;
at each prefix, the values of the last two that pair a ray to -1 form a
line, which the other rays and the box cut to one interval. Its output,
order included, is that of testing every point of the box with `root_of`.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, inf, lcm
from operator import add

from .errors import DegenerateCone, DimensionMismatch
from .poly import _is_int
from .record import Frozen
from .report import ClassificationReport, Evidence


class Cone(Frozen):
    """Pointed-or-not polyhedral cone given by primitive ray generators.

    The constructor refuses a generator that is not a nonzero primitive
    integer vector of `dim` entries, or is proportional to another, and
    drops, in input order, each generator that lies in the cone of the
    generators it still keeps, so the rays of a pointed cone are its
    extremal rays, in input order. `_echelon`, each cone's one column
    echelon form of its rays, is unseen by == and hash; the constructor
    keeps the form it builds of its input unless it drops a generator.
    """

    _fields = ("dim", "rays")

    def __init__(self, dim: int, rays: Sequence[Sequence[int]]):
        try:
            rays = tuple(tuple(r) for r in rays)
            integral = all(_is_int(x) for r in rays for x in r)
        except TypeError:
            integral = False
        if not integral:
            raise ValueError(f"rays must be integer lists, not {rays!r}")
        if not rays:
            raise ValueError("a cone needs at least one ray")
        for r in rays:
            if not _is_int(dim) or len(r) != dim:
                raise DimensionMismatch(f"ray {r} is not of dimension {dim}")
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
        echelon = column_echelon(rays)
        kept = list(rays)
        if len(echelon[2]) < len(rays):  # independent rays are all extremal
            for r in rays:
                others = [v for v in kept if v != r]
                # r lies in cone(others) iff no m has <m, others> >= 0 > <m, r>
                rows = [(v, 0) for v in others] + [([-x for x in r], 1)]
                if not _fourier_motzkin(rows, dim):
                    kept = others
        self.__dict__.update(dim=dim, rays=tuple(kept))
        if len(kept) == len(rays):
            self.__dict__["_echelon"] = echelon

    @cached_property
    def _echelon(self):
        return column_echelon(self.rays)

    @staticmethod
    def of(rays: Sequence[Sequence[int]]) -> "Cone":
        """The cone of `rays`, of the dimension of the first one."""
        try:
            rays = list(rays)
            dim = len(rays[0])
        except (TypeError, IndexError):
            dim = 0  # the constructor says what is wrong with rays
        return Cone(dim, rays)


class DemazureRoot(Frozen):
    """Lattice vector pairing to -1 on one ray and >= 0 on the rest."""

    _fields = ("vector", "distinguished")

    def __init__(self, vector: Sequence[int], distinguished: int):
        vector = tuple(vector)
        if not all(map(_is_int, vector)) or not _is_int(distinguished) or distinguished < 0:
            raise ValueError(f"not an int vector and ray index: {vector!r}, {distinguished!r}")
        self.__dict__.update(vector=vector, distinguished=distinguished)


def _root(vector: tuple[int, ...], distinguished: int) -> DemazureRoot:
    """Trusted constructor of a root from checked or computed fields."""
    root = object.__new__(DemazureRoot)
    root.__dict__.update(vector=vector, distinguished=distinguished)
    return root


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
    return _root(tuple(e), distinguished)


def enumerate_roots(cone: Cone, box: int) -> list[DemazureRoot]:
    """All roots of max-norm <= box, in lexicographic vector order.

    A depth-first search fixes the coordinates before the last two in
    increasing value, carrying every ray's partial pairing s, and drops
    a prefix as soon as some ray can no longer come back up to -1, or
    two rays would both have to end negative. At a prefix, ray i with
    last entries a, b is at -1 where a*x + b*y = -1 - s: on the points
    of a line if gcd(a, b) divides -1 - s (extended Euclid), on a region
    if a = b = 0 and s = -1. The other rays and the box leave one
    interval of the line, or of y per x. A point at -1 on one ray and
    >= 0 on the rest is that ray's alone, so sorting each prefix's points
    keeps the order of a scan of the box with `root_of`, and its list.
    Dimension 1 gets a phantom last coordinate, held at 0.
    """
    if not _is_int(box) or box < 1:
        raise ValueError(f"box must be an integer >= 1, got {box!r}")
    dim, n = cone.dim, len(cone.rays)
    columns = list(zip(*cone.rays)) + [(0,) * n] * (dim == 1)  # the phantom
    last = len(columns) - 2
    # reach[k][i]: the most that coordinates k.. can add to ray i's pairing
    reach = [[box * sum(map(abs, v[k:])) for v in cone.rays] for k in range(last + 1)]
    # a*x + b*y + s >= 0 must hold for each ray but the one at -1, where s
    # is its prefix pairing, and for the box's four sides, where s is box
    ends = [*zip(*columns[last:]), (1, 0), (-1, 0), (0, 1), (0, -1)]
    edges = [box, box] + [box if dim > 1 else 0] * 2
    lines = []
    for i, (a, b) in enumerate(ends[:n]):
        # a*u + b*w = g: ray i is at -1 on the line (u*t + p*k, w*t + q*k)
        # where g*t = -1 - s, or, if a = b = 0, on the region x = t, y = k
        g = gcd(a, b)
        u = pow(a // g, -1, abs(b // g)) if b else a // g if a else 1
        w, p, q = ((g - a * u) // b if b else 0, b // g, -a // g) if g else (0, 0, 1)
        bounds = ([], [], [])  # along k: constant, rising, falling
        for j, (aj, bj) in enumerate(ends):
            m = aj * p + bj * q
            if j != i:
                bounds[(m > 0) - (m < 0)].append((j, aj * u + bj * w, abs(m)))
        lines.append((g, u, w, p, q, reach[last][i], *bounds))
    found: list[DemazureRoot] = []
    prefix: list[int] = []

    def walk(partial: list[int], level: int):
        if level == last:
            s, hits = partial + edges, []
            for i, (g, u, w, p, q, r, flat, up, down) in enumerate(lines):
                need = -1 - s[i]
                if g:  # the one t of the line, if g divides and the box allows
                    ts = () if need % g or need < -r else (need // g,)
                else:  # each x = t of the region, if ray i is at -1
                    ts = () if need else range(-box, box + 1)
                for t in ts:
                    if flat and not all(s[j] + t * c >= 0 for j, c, _ in flat):
                        continue
                    lo, hi = -inf, inf
                    for j, c, m in down:
                        if (cut := (s[j] + t * c) // m) < hi:
                            hi = cut
                    for j, c, m in up:
                        if (cut := -((s[j] + t * c) // m)) > lo:
                            lo = cut
                    for k in range(lo, hi + 1):
                        hits.append((u * t + p * k, w * t + q * k, i))
            hits.sort()
            found.extend([_root((*prefix, x, y)[:dim], i) for x, y, i in hits])
            return
        column, slack = columns[level], reach[level + 1]
        # the x with s + x*c + r >= -1 for every ray; a ray with c = 0
        # bounds nothing, since the level above kept s + r >= -1
        lo, hi = -box, box
        for s, c, r in zip(partial, column, slack):
            if c > 0 and -((1 + s + r) // c) > lo:
                lo = -((1 + s + r) // c)
            elif c < 0 and (-1 - s - r) // c < hi:
                hi = (-1 - s - r) // c
        nxt = [s + lo * c for s, c in zip(partial, column)]
        for x in range(lo, hi + 1):
            # a ray whose best is -1 must end at -1; two such cannot both
            if list(map(add, nxt, slack)).count(-1) < 2:
                prefix.append(x)
                walk(nxt, level + 1)
                prefix.pop()
            nxt = list(map(add, nxt, column))

    walk([0] * n, 0)
    return found


def detect_line_factor(cone: Cone) -> DemazureRoot | None:
    """Exact search for a root pairing to 0 on every non-distinguished ray.

    Solves, per ray, the integer linear system <p, v_i> = -1,
    <p, v_j> = 0 (j != i); such a root splits off a line factor. All
    the systems share one matrix, so the cone's echelon form serves them.
    """
    n = len(cone.rays)
    for i in range(n):
        p = _solve_echelon(cone._echelon, [-1 if j == i else 0 for j in range(n)])
        if p is not None:
            return _root(tuple(p), i)
    return None


def classify_toric(cone: Cone) -> ClassificationReport:
    """Type A on a line factor, else type B; both with a Demazure root.

    Requires a pointed full-dimensional cone. The cone's column echelon
    form gives the rank of its rays and the line-factor solves. One
    Fourier-Motzkin solve decides the rest: an m pairing to 0 with the
    first ray and >= 1 with the others exists iff the cone is pointed
    (the first ray is then extremal; a line, a zero nonnegative sum of
    rays, rules m out), and without a line factor m builds the B root on
    the first ray (Demazure).
    """
    if len(cone._echelon[2]) != cone.dim:
        raise DegenerateCone("rays do not span; cone is not full-dimensional")
    rho = cone.rays[0]
    rows = [(rho, 0), ([-x for x in rho], 0)] + [(v, 1) for v in cone.rays[1:]]
    m = _fourier_motzkin(rows, cone.dim, point=True)
    if m is None:
        raise DegenerateCone("cone contains a line; not pointed")
    root = detect_line_factor(cone)
    verdict, criterion = "A", "line factor: root vanishing on all other rays"
    if root is None:
        root = _witness_root(cone, m)
        verdict, criterion = "B", "no line factor, but Demazure roots exist (non-rigid)"
    data = {"root": list(root.vector), "distinguished_ray": root.distinguished}
    return ClassificationReport(verdict, (Evidence(criterion, data),))


def _witness_root(cone: Cone, m) -> DemazureRoot:
    """The root e0 + k*m on ray rho = rays[0]: e0 = -H[0][0] * (column 0 of
    V) pairs to -1 with rho, as the echelon form reduces the primitive rho
    first, to +-1, and leaves that column alone after; m (made integral)
    pairs to 0 with rho and >= 1 with every other ray v, so
    k = max(0, ceil(-<v, e0> / <v, m>)) lifts each <v, .> to >= 0."""
    H, V, _ = cone._echelon
    e0 = [-H[0][0] * row[0] for row in V]
    scale = lcm(*(x.denominator for x in m))
    m = [int(x * scale) for x in m]
    k = max([0] + [-(_pair(e0, v) // _pair(m, v)) for v in cone.rays[1:]])
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


def column_echelon(A: list[list[int]]):
    """Return (H, V, pivots) with A*V = H, V unimodular, and H in column
    echelon form: row pivots[k] is the first row with a nonzero entry in
    column k, it is zero right of column k, and the columns past the last
    pivot are zero.

    Row by row, the least nonzero entry from column k on moves into
    column k (the first such column on ties), and every column right of k
    takes off the nearest multiple of column k, leaving a remainder of at
    most half the pivot, until the row is zero right of column k.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    # column j of A stacked on column j of the identity: column operations
    # on the stacks build H on top and V below
    cols = [[row[j] for row in A] + [int(i == j) for i in range(n)] for j in range(n)]
    pivots: list[int] = []
    for r in range(m):
        k = len(pivots)
        while any(cols[j][r] for j in range(k, n)):
            j = min(range(k, n), key=lambda j: abs(cols[j][r]) or inf)
            cols[k], cols[j] = cols[j], cols[k]
            p = cols[k][r]
            for j in range(k + 1, n):
                q = (2 * cols[j][r] + p) // (2 * p)
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[k])]
            if not any(cols[j][r] for j in range(k + 1, n)):
                pivots.append(r)
                break
    H = [[col[i] for col in cols] for i in range(m)]
    V = [[col[i] for col in cols] for i in range(m, m + n)]
    return H, V, pivots


def _solve_echelon(echelon, b: list[int]):
    """One integer solution of A x = b, or None if none exists, for the
    matrix A whose (H, V, pivots) is `echelon`. Forward substitution on
    the pivot rows, with floor division, gives y (entries not yet solved,
    and those past the last pivot, are 0); x = V y if H y = b holds in
    every row, which fails when a pivot does not divide."""
    H, V, pivots = echelon
    y = [0] * len(V)
    for k, r in enumerate(pivots):
        y[k] = (b[r] - sum(h * t for h, t in zip(H[r], y))) // H[r][k]
    if any(sum(h * t for h, t in zip(row, y)) != c for row, c in zip(H, b)):
        return None
    return [sum(v * t for v, t in zip(row, y)) for row in V]
