"""Gröbner-basis kernel: Buchberger, normal forms, ideal membership.

Leading terms come from `Polynomial.leading(order)`, which memoises
them on each polynomial, so a basis element's leading term is found
once however many S-pairs and reductions use it. Buchberger keeps the
pending S-pairs in a heap, each keyed once on insertion by its lcm's
order key and its indices. S-polynomials and remainders are built as
one coefficient dict each and handed to the trusted polynomial
constructor.

Deterministic throughout: for fixed generators and order, the reduced
basis and every normal form are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le
from typing import Sequence

from .errors import ArityMismatch, PointNotOnVariety, ResourceLimit
from .poly import Monomial, Polynomial, _add_into, _from_coeffs, grevlex_key
from .toric import matrix_rank

DEFAULT_PAIR_BUDGET = 100_000


# ---- monomial orders ----------------------------------------------------


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on monomials, compatible with multiplication, 1 minimal.

    kind is one of "lex", "grevlex", "weighted"; weighted orders break
    ties by grevlex.
    """

    kind: str
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "weighted"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "weighted" and self.weights is None:
            raise ValueError("weighted order requires a weight vector")

    def key(self, m: Monomial):
        if self.kind == "lex":
            return m
        if self.kind == "grevlex":
            return grevlex_key(m)
        w = self.weights
        if len(w) != len(m):
            raise ArityMismatch(f"weights length {len(w)} vs monomial {len(m)}")
        return (sum(e * wi for e, wi in zip(m, w)), grevlex_key(m))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# ---- ideals ----------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """Finitely generated ideal; zero generators are dropped.

    The empty generator tuple denotes the zero ideal.
    """

    generators: tuple[Polynomial, ...]
    arity: int

    @staticmethod
    def of(generators: Sequence[Polynomial], arity: int | None = None) -> "Ideal":
        gens = tuple(g for g in generators if not g.is_zero())
        if arity is None:
            if not gens:
                raise ValueError("arity required for an empty generator list")
            arity = gens[0].arity
        for g in gens:
            if g.arity != arity:
                raise ArityMismatch("generators of mixed arity")
        return Ideal(gens, arity)


# ---- monomial helpers ----------------------------------------------------


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _quotient(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def reduce_poly(
    f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder
) -> Polynomial:
    """Full remainder of f under multivariate division by `basis`.

    Each step cancels the leading term of what is left against the first
    basis element whose leading monomial divides it, or moves that term
    to the remainder. The work happens on a copy of `f.coeffs`, with each
    monomial's order key computed once per call; basis leading terms come
    from `Polynomial.leading`, memoised on the basis elements. The
    remainder goes to the trusted constructor. Raises ArityMismatch if a
    basis element's arity differs from f's.
    """
    if not basis:
        return f
    for g in basis:
        if g.arity != f.arity:
            raise ArityMismatch(f"arity {f.arity} vs basis arity {g.arity}")
    keys: dict[Monomial, object] = {}

    def key(m: Monomial):
        k = keys.get(m)
        if k is None:
            k = keys[m] = order.key(m)
        return k

    divisors = []
    for g in basis:
        glm, glc = g.leading(order)
        divisors.append((glm, glc, [t for t in g.coeffs.items() if t[0] != glm]))
    acc = dict(f.coeffs)
    for m in acc:
        key(m)
    remainder: dict[Monomial, Fraction] = {}
    while acc:
        # every monomial that enters acc has its key in `keys`
        lm = max(acc, key=keys.__getitem__)
        lc = acc.pop(lm)
        for glm, glc, tail in divisors:
            if _divides(glm, lm):
                q = _quotient(lm, glm)
                c = -lc / glc
                for m, gc in tail:
                    m = tuple(map(add, m, q))
                    v = acc.get(m)
                    if v is None:
                        acc[m] = c * gc
                        key(m)
                    else:
                        v += c * gc
                        if v:
                            acc[m] = v
                        else:
                            del acc[m]
                break
        else:
            remainder[lm] = lc
    return _from_coeffs(f.arity, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """lcm/LT(f) * f - lcm/LT(g) * g, built in one coefficient dict."""
    flm, flc = f.leading(order)
    glm, glc = g.leading(order)
    l = _lcm(flm, glm)
    qf, cf = _quotient(l, flm), 1 / flc
    acc = {tuple(map(add, m, qf)): c * cf for m, c in f.coeffs.items()}
    qg, cg = _quotient(l, glm), -1 / glc
    _add_into(acc, {tuple(map(add, m, qg)): c * cg for m, c in g.coeffs.items()})
    return _from_coeffs(f.arity, acc)


# ---- Buchberger ----------------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    basis: tuple[Polynomial, ...]
    arity: int

    def is_trivial(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant()


def groebner(
    ideal: Ideal,
    order: MonomialOrder = GREVLEX,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> GroebnerBasis:
    """Reduced Gröbner basis by Buchberger with the normal strategy.

    Pair selection: smallest lcm in the order, ties by index. Each basis
    element's leading monomial is computed once, when it enters the
    basis, and each pair is keyed once, when it enters a heap, by
    (order key of the lcm, i, j). The product and chain criteria prune
    pairs. Every pair taken from the heap counts against `pair_budget`;
    past it, ResourceLimit is raised.
    """
    G: list[Polynomial] = []
    lms: list[Monomial] = []  # lms[k] is the leading monomial of G[k]
    heap: list[tuple] = []
    pairs: set[tuple[int, int]] = set()  # the pairs still in the heap

    def enter(g: Polynomial) -> None:
        lm, lc = g.leading(order)
        j = len(G)
        for i in range(j):
            heapq.heappush(heap, (order.key(_lcm(lms[i], lm)), i, j))
            pairs.add((i, j))
        G.append(g.scale(1 / lc))
        lms.append(lm)

    for g in ideal.generators:
        if not g.is_zero():
            enter(g)
    processed = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        pairs.discard((i, j))
        processed += 1
        if processed > pair_budget:
            raise ResourceLimit(f"S-pair budget {pair_budget} exceeded")
        lmi, lmj = lms[i], lms[j]
        l = _lcm(lmi, lmj)
        # product criterion: coprime leading monomials
        if l == tuple(a + b for a, b in zip(lmi, lmj)):
            continue
        # chain criterion
        if any(
            k != i
            and k != j
            and _divides(lmk, l)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, lmk in enumerate(lms)
        ):
            continue
        r = reduce_poly(s_polynomial(G[i], G[j], order), G, order)
        if not r.is_zero():
            enter(r)
    return GroebnerBasis(order, _autoreduce(G, order), ideal.arity)


def _autoreduce(
    G: list[Polynomial], order: MonomialOrder
) -> tuple[Polynomial, ...]:
    # minimalize: drop elements whose leading monomial another one divides
    lead = sorted(
        ((g.leading(order)[0], g) for g in G if not g.is_zero()),
        key=lambda e: order.key(e[0]),
    )
    minimal = [
        g
        for idx, (lm, g) in enumerate(lead)
        if not any(
            jdx != idx and _divides(hlm, lm) and (hlm != lm or jdx < idx)
            for jdx, (hlm, _) in enumerate(lead)
        )
    ]
    # inter-reduce tails; no other leading monomial divides an element's
    # leading term, so it survives: the results stay monic and sorted
    return tuple(
        reduce_poly(g, minimal[:idx] + minimal[idx + 1 :], order)
        for idx, g in enumerate(minimal)
    )


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f under full reduction by the basis."""
    if f.arity != gb.arity:
        raise ArityMismatch(f"arity {f.arity} vs basis arity {gb.arity}")
    return reduce_poly(f, gb.basis, gb.order)


def contains_one(
    ideal: Ideal,
    order: MonomialOrder = GREVLEX,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> bool:
    """True iff the ideal is the whole ring (reduced basis is {1})."""
    if not ideal.generators:
        return False
    gb = groebner(ideal, order, pair_budget)
    return gb.is_trivial()


# ---- Jacobian evidence ----------------------------------------------------


def jacobian_rank_at_point(
    relations: Sequence[Polynomial], point: Sequence
) -> int:
    """Exact rank over Q of the Jacobian of `relations` at `point`.

    The point must satisfy every relation.
    """
    if not relations:
        return 0
    arity = relations[0].arity
    pt = [Fraction(x) for x in point]
    if len(pt) != arity:
        raise ArityMismatch(f"point length {len(pt)} vs arity {arity}")
    for rel in relations:
        if rel.evaluate(pt) != 0:
            raise PointNotOnVariety(f"relation {rel!r} nonzero at {pt}")
    rows = [
        [rel.partial_derivative(j).evaluate(pt) for j in range(arity)]
        for rel in relations
    ]
    return matrix_rank(rows)
