"""Seeded input generation for the three benchmark workloads.

Everything here is plain data (strings, integers, lists, dicts) built
from ``random.Random`` seeded by the workload name and the seed, so the
same seed gives byte-identical inputs (see ``canonical_bytes``). No
lndkit code runs here: the program under test only ever sees these
values, and parsing and algebra construction happen inside timed jobs.

Each workload's generator returns one *round*: a fixed-quota list of
jobs. The quotas keep the cost mix identical from seed to seed; the
seed varies the instances (names, coefficients, exponents, points).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, prod

TESTS_DATA = "tests/data"


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"lndkit-perfbench/{workload}/{seed}")


def canonical_bytes(jobs) -> bytes:
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()


def _q(x) -> str:
    return str(Fraction(x))


def _term(coeff, factors: list[str]) -> str:
    body = "*".join(factors)
    if not body:
        return _q(coeff)
    return body if coeff == 1 else f"{_q(coeff)}*{body}"


def _sum(terms: list[str]) -> str:
    out = " + ".join(terms) or "0"
    return out.replace("+ -", "- ")


def _names(rng: random.Random, count: int) -> list[str]:
    """Distinct variable names; the seed changes spelling, never cost."""
    pool = list("abcdefghkmnpqrstvwxyz")
    rng.shuffle(pool)
    return [f"{pool[i]}{rng.randint(0, 9)}" if i % 2 else pool[i] for i in range(count)]


def _present(rng: random.Random, gens: list[str]) -> list[str]:
    """Scale each generator by a nonzero rational. Buchberger makes every
    generator monic first, so this leaves the cost as it is; shuffling the
    generators would not (their order breaks ties between S-pairs)."""
    out = []
    for g in gens:
        c = Fraction(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 3))
        out.append(g if c == 1 else f"{_q(c)}*({g})")
    return out


# ---- ideal ------------------------------------------------------------------


def cyclic4(v: list[str]) -> list[str]:
    a, b, c, d = v
    return [
        f"{a} + {b} + {c} + {d}",
        f"{a}*{b} + {b}*{c} + {c}*{d} + {d}*{a}",
        f"{a}*{b}*{c} + {b}*{c}*{d} + {c}*{d}*{a} + {d}*{a}*{b}",
        f"{a}*{b}*{c}*{d} - 1",
    ]


def katsura(v: list[str]) -> list[str]:
    n = len(v) - 1
    gens = [_sum([v[0]] + [f"2*{x}" for x in v[1:]] + ["-1"])]
    for m in range(n):
        terms = []
        for l in range(-n, n + 1):
            if abs(l) <= n and abs(m - l) <= n:
                terms.append(f"{v[abs(l)]}*{v[abs(m - l)]}")
        gens.append(_sum(terms + [f"-{v[m]}"]))
    return gens


def _dense_quadrics(rng, v, count, point):
    """`count` dense quadrics; if `point` is given they all vanish there."""
    monos = [(i, j) for i in range(len(v)) for j in range(i, len(v))]
    monos += [(i,) for i in range(len(v))]
    gens = []
    for _ in range(count):
        coeffs = [rng.choice([c for c in range(-4, 5) if c]) for _ in monos]
        terms = [_term(c, [v[i] for i in m]) for c, m in zip(coeffs, monos)]
        if point is None:
            const = rng.choice([c for c in range(-9, 10) if c])
        else:
            const = -sum(
                c * prod(point[i] for i in m) for c, m in zip(coeffs, monos)
            )
        if const:
            terms.append(_q(const))
        gens.append(_sum(terms))
    return gens


def _gb_jobs(rng, family, gens, v, orders, zero):
    """One ideal presented once per order; `pair` ties the orders together."""
    pair = f"{family}-{rng.getrandbits(32):08x}"
    return [
        {
            "kind": "gb",
            "family": family,
            "pair": pair,
            "order": order,
            "vars": v,
            "gens": _present(rng, gens),
            "zero": None if zero is None else [_q(x) for x in zero],
        }
        for order in orders
    ]


# Type-1 shapes for test_type_a: blocks of exponents, and the column the
# choice function takes in each block. The 4-block shape is the one timed
# in ROADMAP item 1; the seed permutes blocks and draws the constants.
TYPE_A_SHAPES = {
    3: ([[1, 2], [1, 3], [3]], [1, 1, 1]),
    4: ([[1, 2], [1, 3], [4, 1], [5]], [1, 1, 2, 1]),
}


def _type1_trinomial(rng, blocks):
    l, columns = TYPE_A_SHAPES[blocks]
    order = rng.sample(range(blocks), blocks)
    return {
        "l": [l[b] for b in order],
        "a": rng.sample(range(-5, 6), blocks),
        "choice": {str(i + 1): columns[b] for i, b in enumerate(order)},
    }


def ideal_round(seed: int) -> list[dict]:
    """26 jobs. The quotas put the median among the katsura-3 and dense-3
    grevlex jobs (about 40 ms) and the p90 among katsura-4 and dense-4
    (about 0.4 s), so neither percentile sits on a boundary between
    families whatever the seed."""
    rng = rng_for("ideal", seed)
    jobs = []
    # Zeros: cyclic-4 vanishes at (1, 1, -1, -1), katsura at (1, 0, ..., 0).
    for _ in range(3):
        jobs += _gb_jobs(
            rng, "cyclic4", cyclic4(v := _names(rng, 4)), v,
            ["grevlex", "lex"], [1, 1, -1, -1],
        )
    jobs += _gb_jobs(
        rng, "katsura3", katsura(v := _names(rng, 4)), v,
        ["grevlex", "lex"], [1, 0, 0, 0],
    )
    for _ in range(6):
        jobs += _gb_jobs(
            rng, "katsura3", katsura(v := _names(rng, 4)), v,
            ["grevlex"], [1, 0, 0, 0],
        )
    for _ in range(2):
        jobs += _gb_jobs(
            rng, "katsura4", katsura(v := _names(rng, 5)), v,
            ["grevlex"], [1, 0, 0, 0, 0],
        )
    for _ in range(2):
        point = [rng.randint(-2, 2) for _ in range(3)]
        v = _names(rng, 3)
        jobs += _gb_jobs(
            rng, "dense3", _dense_quadrics(rng, v, 3, point), v, ["grevlex"], point
        )
    v = _names(rng, 3)
    jobs += _gb_jobs(
        rng, "dense3x4", _dense_quadrics(rng, v, 4, None), v,
        ["grevlex", "lex"], None,
    )
    point = [rng.randint(-2, 2) for _ in range(4)]
    v = _names(rng, 4)
    jobs += _gb_jobs(
        rng, "dense4", _dense_quadrics(rng, v, 4, point), v, ["grevlex"], point
    )
    for blocks in (3, 3, 3, 4, 4):
        jobs.append({"kind": "type_a", **_type1_trinomial(rng, blocks)})
    rng.shuffle(jobs)
    return jobs


# ---- lnd --------------------------------------------------------------------

W_LND = {"x": "0", "y": "2*z", "z": "x^{n}"}
# the "mixed" derivation of tests/data/w1_cylinder.json, with slice u
CYLINDER = {
    "vars": ["x", "y", "z", "u"],
    "relation": "x*y - z^2 + 1",
    "lnd": {"x": "0", "y": "2*z*u", "z": "x*u", "u": "1"},
    "grading": [0, 0, 0, 1],
    "slice": "u",
}


def _small_poly(rng, v, terms, max_deg):
    out = []
    for _ in range(terms):
        factors = []
        for _ in range(rng.randint(1, max_deg)):
            factors.append(rng.choice(v))
        c = Fraction(rng.choice([1, -1]) * rng.randint(1, 6), rng.randint(1, 3))
        out.append(_term(c, factors))
    return _sum(out)


def lnd_round(seed: int) -> list[dict]:
    rng = rng_for("lnd", seed)
    jobs = []
    # every n in 1..10 twice, each time with k a permutation of 4..13:
    # the round's cost is fixed, its pairing of n and k is seeded
    pairs = []
    for _ in range(2):
        ks = list(range(4, 14))
        rng.shuffle(ks)
        pairs += zip(range(1, 11), ks)
    for n, k in pairs:
        jobs.append(
            {
                "kind": "surface",
                "family": "danielewski",
                "n": n,
                "vars": ["x", "y", "z"],
                "relation": f"x^{n}*y - z^2 + 1",
                "lnd": {x: img.format(n=n) for x, img in W_LND.items()},
                "exp_of": f"y^{k}",
                "s": _q(Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 4))),
                "i": rng.randint(1, 3),
            }
        )
    for k2 in (1, 2):
        roots = rng.sample(range(-4, 5), 3)
        poly = "*".join(f"(z - {r})" if r >= 0 else f"(z + {-r})" for r in roots)
        jobs.append(
            {
                "kind": "suspension",
                "family": "suspension",
                "base": poly,
                "weights": [1, k2],
                "exp_of": "y1^4",
                "s": _q(Fraction(rng.randint(1, 7), rng.randint(1, 4))),
                "i": rng.randint(1, 3),
            }
        )
    for _ in range(3):
        jobs.append(
            {
                "kind": "cylinder",
                **CYLINDER,
                "f": _small_poly(rng, CYLINDER["vars"], 4, 4),
            }
        )
    rng.shuffle(jobs)
    return jobs


# ---- dossier ----------------------------------------------------------------

# Root-box size per cone dimension: the box holds (2*box+1)^dim points.
BOX_BY_DIM = {2: 12, 3: 6, 4: 4, 5: 2}


def _cli(argv, expect=0, **extra):
    """One CLI call; argv[1] is the dossier file, `--json` is appended."""
    return {"kind": "cli", "file": argv[1], "argv": argv + ["--json"],
            "expect": expect, **extra}


def _data_jobs() -> list[dict]:
    d = TESTS_DATA
    return [
        _cli(["check-lnd", f"{d}/quadric.json", "canonical"]),
        _cli(["classify", f"{d}/quadric.json"]),
        _cli(["hdstar-member", f"{d}/quadric.json", "u"], expect=1),
        _cli(["check-lnd", f"{d}/w1.json", "canonical"]),
        _cli(["classify", f"{d}/w1.json"]),
        _cli(["exp", f"{d}/w1.json", "canonical", "y^3", "1/2"]),
        _cli(["exp", f"{d}/w1.json", "canonical", "y^3", "formal"]),
        _cli(["decompose", f"{d}/w1.json", "canonical", "halfspin"]),
        _cli(["hdstar-member", f"{d}/w1.json", "x*u + u^2"]),
        _cli(["check-lnd", f"{d}/w1_cylinder.json", "mixed"]),
        _cli(["decompose", f"{d}/w1_cylinder.json", "mixed", "uweight"]),
        _cli(["exp", f"{d}/w1_cylinder.json", "mixed", "u*z", "formal"]),
        _cli(["classify", f"{d}/toric_plane.json"]),
        _cli(["roots", f"{d}/toric_plane.json", "--box", "6"]),
        _cli(["classify", f"{d}/toric_quadric.json"]),
        # the round's slowest job, on a fixed input: it sets the p99
        _cli(["roots", f"{d}/toric_quadric.json", "--box", "72"]),
        _cli(["classify", f"{d}/trinomial_rigid.json"]),
        _cli(["classify", f"{d}/trinomial_type1.json"]),
        _cli(["classify", f"{d}/trinomial_type2.json"]),
    ]


def _w_dossier(n: int) -> dict:
    return {
        "vars": ["x", "y", "z"],
        "relations": [f"x^{n}*y - z^2 + 1"],
        "gradings": {"spin": [1, -n, 0]},
        "derivations": {
            "canonical": {x: img.format(n=n) for x, img in W_LND.items()}
        },
    }


def _inverse(rows):
    """Exact inverse of a square integer matrix, or None if singular."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [r[n:] for r in m]


def line_factor_rays(rays) -> list[int]:
    """Rays i of a simplicial cone with an integer p such that <p, v_i> = -1
    and <p, v_j> = 0 for j != i: p is minus column i of the inverse."""
    inv = _inverse(rays)
    return [i for i in range(len(rays))
            if all(row[i].denominator == 1 for row in inv)]


def _primitive(v):
    g = gcd(*v)
    return [x // g for x in v]


def _simplicial(rng: random.Random, dim: int) -> list[list[int]]:
    """`dim` independent primitive rays with positive coordinate sum: every
    ray pairs positively with (1, ..., 1), so the cone is pointed, and
    independence makes it full-dimensional with every ray extremal."""
    while True:
        rays = []
        while len(rays) < dim:
            v = [rng.randint(-2, 3) for _ in range(dim)]
            if sum(v) > 0:
                rays.append(_primitive(v))
        if _inverse(rays) is not None:
            return rays


def cone_without_line_factor(rng: random.Random, dim: int) -> list[list[int]]:
    while True:
        rays = _simplicial(rng, dim)
        if not line_factor_rays(rays):
            return rays


def cone_with_line_factor(rng: random.Random, dim: int) -> list[list[int]]:
    """A cone whose only line-factor ray is ray 0 (dim >= 3), or a smooth
    cone (dim 2): the ray e_1 times a cone without line factor, moved by
    a random unimodular map."""
    if dim == 2:
        rays = [[1, 0], [0, 1]]
    else:
        rays = [[1] + [0] * (dim - 1)]
        rays += [[0] + w for w in cone_without_line_factor(rng, dim - 1)]
    shear = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(dim):
        i, j = rng.sample(range(dim), 2)
        k = rng.choice([-1, 1])
        shear[i] = [a + k * b for a, b in zip(shear[i], shear[j])]
    return [[sum(v[r] * shear[r][c] for r in range(dim)) for c in range(dim)]
            for v in rays]


def with_redundant_ray(rng: random.Random, rays) -> list[list[int]]:
    """Add the primitive sum of ray 0 and another ray. The sum lies inside
    the cone, so the cone, and its verdict A from ray 0's line factor, stay
    the same; only the list of generators grows."""
    other = rng.randrange(1, len(rays))
    out = [list(r) for r in rays]
    out.append(_primitive([x + y for x, y in zip(rays[0], rays[other])]))
    rng.shuffle(out)
    return out


def dossier_round(seed: int) -> tuple[list[dict], dict[str, dict]]:
    """Jobs plus the seeded dossier files they read (name -> document)."""
    rng = rng_for("dossier", seed)
    files: dict[str, dict] = {}
    jobs = _data_jobs()
    for n in rng.sample(range(2, 9), 2):
        name = f"w{n}.json"
        files[name] = _w_dossier(n)
        jobs += [
            _cli(["check-lnd", name, "canonical"]),
            _cli(["classify", name]),
            _cli(["exp", name, "canonical", f"y^{rng.randint(3, 6)}", "formal"]),
            _cli(["decompose", name, "canonical", "spin"]),
            _cli(["hdstar-member", name, f"z*u^{rng.randint(1, 3)} + x"]),
        ]
    trinomials = [
        # variant 1: exponent 1 in all blocks but one, or rigid (none)
        {"type": 1, "l": [[1, rng.randint(1, 4)], [rng.randint(2, 5)]]},
        {"type": 1, "l": [[rng.randint(2, 4)], [rng.randint(2, 5)], [2, 3]]},
        # variant 2: at most two blocks without exponent 1, or rigid
        {"type": 2, "l": [[1, 2], [rng.randint(2, 5)], [rng.randint(2, 5)]]},
        {"type": 2, "l": [[3], [rng.randint(2, 5)], [rng.randint(2, 5)], [2, 5]]},
        {"type": 1, "l": [[1], [rng.randint(2, 4)], [1, 2]], "m": 1},
        {"type": 2, "l": [[2], [2], [1, 3]]},
    ]
    for idx, t in enumerate(trinomials):
        r = len(t["l"]) if t["type"] == 1 else len(t["l"]) - 1
        if t["type"] == 1:
            t["a"] = [_q(x) for x in rng.sample(range(-5, 6), r)]
        else:
            # columns (1, c) with distinct c are pairwise independent
            cs = rng.sample(range(-4, 5), r + 1)
            t["A"] = [[1] * (r + 1), cs]
        name = f"trinomial{idx}.json"
        files[name] = {"trinomial": t}
        jobs.append(_cli(["classify", name]))
    for dim, box in BOX_BY_DIM.items():
        cones = {
            f"cone{dim}a.json": cone_with_line_factor(rng, dim),
            f"cone{dim}b.json": cone_without_line_factor(rng, dim),
        }
        redundant = f"cone{dim}ar.json"
        cones[redundant] = with_redundant_ray(rng, cones[f"cone{dim}a.json"])
        for name, rays in cones.items():
            files[name] = {"toric": {"rays": rays}}
            if name == redundant:
                check = {"same_verdict_as": f"cone{dim}a.json"}
            else:
                check = {"line_factor": name.endswith("a.json")}
            jobs += [
                _cli(["classify", name, "--box", str(box)], **check),
                _cli(["roots", name, "--box", str(box)]),
            ]
    rng.shuffle(jobs)
    return jobs, files


ROUNDS = {"ideal": ideal_round, "lnd": lnd_round, "dossier": dossier_round}
