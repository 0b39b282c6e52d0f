"""Gröbner-basis kernel: Buchberger, normal forms, ideal membership.

`reduce_poly` and `normal_form` work on `Fraction` polynomials, with
leading terms memoised by `Polynomial.leading(order)`. Buchberger's pair
loop works on integers. At entry each generator's denominators are
cleared and its content divided out: an element is then a primitive
integer coefficient dict, keyed by the same exponent tuples, with a
positive leading coefficient, held as (leading monomial, leading
coefficient, tail). S-polynomials are cross-multiplied by the cofactors
of the gcd of the two leading coefficients, and remainders come from
primitive pseudo-division. Each integer remainder is a nonzero multiple
of the remainder over Q, so the leading monomials, and with them the
pair sequence, are those of division over Q. At exit the minimal basis
goes back to `Fraction`, each element made monic, and `reduce_poly`
inter-reduces it over Q. Pending S-pairs sit in a heap, each keyed
once on insertion by its lcm's order key and its indices; one
`groebner` call reads every order key from one cache.

Deterministic throughout: for fixed generators and order, the reduced
basis and every normal form are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import gcd, lcm
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


# ---- Buchberger ----------------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    basis: tuple[Polynomial, ...]
    arity: int

    def is_trivial(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant()


def _primitive(coeffs: dict[Monomial, int]) -> dict[Monomial, int]:
    """coeffs over their content, signed so the first (leading) one is > 0."""
    g = gcd(*coeffs.values())
    g = -g if next(iter(coeffs.values())) < 0 else g
    return {m: c // g for m, c in coeffs.items()}


def _pseudo_reduce(acc: dict, divisors: list, key) -> dict[Monomial, int]:
    """Primitive pseudo-remainder of the integer dict `acc` by `divisors`.

    Each divisor is an (lm, lc, tail) triple. The steps and the choice of
    divisor are those of `reduce_poly`, but before lc*x^lm is cancelled
    against glc*x^glm, `acc` and the remainder so far are multiplied by
    glc/gcd(lc, glc). So the result, made primitive with a positive
    leading coefficient, is a multiple of `reduce_poly`'s remainder; its
    terms are in descending order.
    """
    remainder: dict[Monomial, int] = {}
    while acc:
        lm = max(acc, key=key)
        lc = acc.pop(lm)
        for glm, glc, tail in divisors:
            if _divides(glm, lm):
                g = gcd(lc, glc)
                s, c, q = glc // g, -(lc // g), _quotient(lm, glm)
                if s != 1:
                    acc = {m: v * s for m, v in acc.items()}
                    remainder = {m: v * s for m, v in remainder.items()}
                _add_into(acc, {tuple(map(add, m, q)): c * v for m, v in tail})
                break
        else:
            remainder[lm] = lc
    return _primitive(remainder) if remainder else remainder


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
    key = lru_cache(maxsize=None)(order.key)
    G: list[tuple[Monomial, int, list]] = []  # (lm, lc, tail) per element
    lms: list[Monomial] = []  # lms[k] is the leading monomial of G[k]
    heap: list[tuple] = []
    pairs: set[tuple[int, int]] = set()  # the pairs still in the heap

    def enter(coeffs: dict[Monomial, int]) -> None:
        lm, lc = next(iter(coeffs.items()))
        j = len(G)
        for i in range(j):
            heapq.heappush(heap, (key(_lcm(lms[i], lm)), i, j))
            pairs.add((i, j))
        G.append((lm, lc, list(coeffs.items())[1:]))
        lms.append(lm)

    for f in ideal.generators:
        if f.is_zero():
            continue
        # clear denominators; the leading monomial goes first
        den = lcm(*(c.denominator for c in f.coeffs.values()))
        ints = {f.leading(order)[0]: 0}
        for m, c in f.coeffs.items():
            ints[m] = c.numerator * (den // c.denominator)
        enter(_primitive(ints))
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
        # (lcj/g)*x^(l-lmi)*f_i - (lci/g)*x^(l-lmj)*f_j: the leading terms
        # cancel, so the S-polynomial is built from the tails alone
        (_, lci, taili), (_, lcj, tailj) = G[i], G[j]
        g = gcd(lci, lcj)
        ci, cj = lcj // g, -(lci // g)
        qi, qj = _quotient(l, lmi), _quotient(l, lmj)
        acc = {tuple(map(add, m, qi)): ci * c for m, c in taili}
        _add_into(acc, {tuple(map(add, m, qj)): cj * c for m, c in tailj})
        r = _pseudo_reduce(acc, G, key)
        if r:
            enter(r)
    return GroebnerBasis(order, _autoreduce(G, key, order, ideal.arity), ideal.arity)


def _autoreduce(
    G: list, key, order: MonomialOrder, arity: int
) -> tuple[Polynomial, ...]:
    # minimalize: drop elements whose leading monomial another one divides
    lead = sorted(G, key=lambda e: key(e[0]))
    minimal = [
        e
        for idx, e in enumerate(lead)
        if not any(
            jdx != idx and _divides(h[0], e[0]) and (h[0] != e[0] or jdx < idx)
            for jdx, h in enumerate(lead)
        )
    ]
    # back to Fraction, monic; then reduce_poly inter-reduces over Q, the
    # division a traced benchmark run (perfbench/spans.py) records as
    # groebner.reduce. No other leading monomial divides an element's
    # leading term, so it survives: the results stay monic and sorted
    monic = [
        _from_coeffs(arity, {lm: Fraction(1), **{m: Fraction(c, lc) for m, c in tail}})
        for lm, lc, tail in minimal
    ]
    return tuple(
        reduce_poly(g, monic[:idx] + monic[idx + 1 :], order)
        for idx, g in enumerate(monic)
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
