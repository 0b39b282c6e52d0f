"""Gröbner-basis kernel: Buchberger, normal forms, ideal membership.

`reduce_poly` and `normal_form` share one fraction-free division,
`_divide`, on integer numerators keyed by exponent tuples. A
`GroebnerBasis` builds its divisors once, for every `normal_form` by it;
an input with no monomial divisible by a leading monomial comes back
untouched. Buchberger's pair loop works on integers, coefficients and
monomials alike.

Coefficients: at entry each generator's numerator has its content
divided out: an element is then a primitive integer coefficient dict
with a positive leading coefficient, held as (leading monomial, leading
coefficient, tail, tail maximum). S-polynomials are cross-multiplied by
the cofactors of the gcd of the two leading coefficients, and remainders
come from primitive pseudo-division. Each integer remainder is a nonzero
multiple of the remainder over Q, so the leading monomials, and with
them the pair sequence, are those of division over Q.

Monomials (packed exponent vectors, after Monagan & Pearce, "Polynomial
Division Using Dynamic Arrays, Heaps, and Packed Exponent Vectors"): at
entry each exponent vector becomes one int of fixed-width fields, most
significant first lex (e_0, ..., e_{n-1}), grevlex (deg, e_{n-1}, ...,
e_0) and weighted (w·e, deg, e_{n-1}, ..., e_0). The top bit of every
field is a guard bit, clear in every packed monomial. XOR with a fixed
mask that flips the variable fields of grevlex and weighted makes the
int its order key. A product is one add; a divides b iff (b - a) has no
guard bit set; the lcm is a masked field-wise maximum of the variable
fields. The field width comes from the input: two bits more than a
bound on the largest field value of any generator, at least 8. Each
element keeps the field-wise maximum of its tail, and before a tail is
multiplied by x^q the guard bits of that maximum plus q are tested; a
new pair's lcm is tested the same way. On overflow the call starts over
with fields twice as wide, so exponents stay unbounded. Pending S-pairs
sit in a heap keyed by their lcm's packed order key and their indices.

At exit the minimal basis is unpacked, each element made monic by
taking its leading coefficient as the denominator, and `reduce_poly`
inter-reduces it.

Deterministic throughout: for fixed generators and order, the reduced
basis and every normal form are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from fractions import Fraction
from math import gcd
from operator import add, le, mul
from typing import Sequence

from .errors import ArityMismatch, PointNotOnVariety, ResourceLimit
from .poly import Monomial, Polynomial, _add_into, _from_num, grevlex_key
from .toric import matrix_rank

DEFAULT_PAIR_BUDGET = 100_000


# ---- monomial orders ----------------------------------------------------


def integer_weights(w: Sequence[int]) -> tuple[int, ...]:
    """The weights w as a tuple; ValueError for a non-integer or boolean."""
    w = tuple(w)
    for x in w:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"weight {x!r} is not an integer")
    return w


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on monomials, compatible with multiplication, 1 minimal.

    kind is one of "lex", "grevlex", "weighted"; weighted orders break
    ties by grevlex. The weights of a weighted order are non-negative
    ints, stored as a tuple; a negative weight would make 1 no longer
    minimal, and division need not terminate.
    """

    kind: str
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "weighted"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind != "weighted":
            if self.weights is not None:
                raise ValueError(f"{self.kind} order takes no weights")
            return
        if self.weights is None:
            raise ValueError("weighted order requires a weight vector")
        try:
            weights = integer_weights(self.weights)
        except TypeError:
            raise ValueError(f"weights {self.weights!r} are not a sequence") from None
        for w in weights:
            if w < 0:
                raise ValueError(f"weight {w!r} is not a non-negative integer")
        object.__setattr__(self, "weights", weights)

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


# ---- division -------------------------------------------------------------


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _quotient(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _primitive(coeffs: dict) -> dict:
    """coeffs over their content, signed so the first (leading) one is > 0;
    `coeffs` itself when that divisor is 1."""
    g = gcd(*coeffs.values())
    g = -g if next(iter(coeffs.values())) < 0 else g
    return coeffs if g == 1 else {m: c // g for m, c in coeffs.items()}


def _divisor_forms(
    basis: Sequence[Polynomial], order: MonomialOrder, arity: int
) -> list[tuple[Monomial, int, list]]:
    """Each basis element as a divisor (glm, glc, tail): its primitive
    integer numerator (`_primitive`), whose leading coefficient glc at
    glm is positive. Raises ArityMismatch if an element's arity is not
    `arity`."""
    divisors = []
    for g in basis:
        if g.arity != arity:
            raise ArityMismatch(f"arity {arity} vs basis arity {g.arity}")
        glm = g.leading(order)[0]
        prim = _primitive({glm: g.num[glm], **g.num})  # leading term first
        divisors.append((glm, prim[glm], [t for t in prim.items() if t[0] != glm]))
    return divisors


def reduce_poly(
    f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder
) -> Polynomial:
    """Full remainder of f under multivariate division by `basis`: builds
    the divisors, then divides. Raises ArityMismatch if a basis element's
    arity differs from f's."""
    return _divide(f, _divisor_forms(basis, order, f.arity), order)


def _divide(f: Polynomial, divisors: list, order: MonomialOrder) -> Polynomial:
    """Full remainder of f under division by `divisors`, fraction-free.

    When no leading monomial divides a monomial of f, f is its own
    remainder and is returned as is. Otherwise each step cancels the
    leading term lc*x^lm of what is left against the first divisor whose
    glm divides lm, or moves that term to the remainder. Before the
    cancellation, what is left and the remainder so far are multiplied by
    glc/gcd(lc, glc), and so is the denominator, which starts at f.den:
    the result is the exact remainder over Q, with the steps of division
    over Q. The work happens on a copy of `f.num`, with each monomial's
    order key computed once per call.
    """
    if not any(_divides(d[0], m) for m in f.num for d in divisors):
        return f
    acc = dict(f.num)
    keys = {m: order.key(m) for m in acc}
    remainder: dict[Monomial, int] = {}
    den = f.den
    while acc:
        # every monomial that enters acc has its key in `keys`
        lm = max(acc, key=keys.__getitem__)
        lc = acc.pop(lm)
        for glm, glc, tail in divisors:
            if _divides(glm, lm):
                q = _quotient(lm, glm)
                g = gcd(lc, glc)
                s, c = glc // g, -(lc // g)
                if s != 1:
                    acc = {m: v * s for m, v in acc.items()}
                    remainder = {m: v * s for m, v in remainder.items()}
                    den *= s
                for m, gc in tail:
                    m = tuple(map(add, m, q))
                    v = acc.get(m)
                    if v is None:
                        acc[m] = c * gc
                        if m not in keys:
                            keys[m] = order.key(m)
                    else:
                        v += c * gc
                        if v:
                            acc[m] = v
                        else:
                            del acc[m]
                break
        else:
            remainder[lm] = lc
    return _from_num(f.arity, remainder, den)


# ---- packed monomials ----------------------------------------------------


class _Overflow(Exception):
    """A packed field would reach its guard bit: repack wider."""


class _Packing:
    """Exponent vectors under `order` packed into `width`-bit fields of an int.

    Fields, most significant first: lex (e_0, ..., e_{n-1}); grevlex
    (deg, e_{n-1}, ..., e_0); weighted (w·e, deg, e_{n-1}, ..., e_0). The
    top bit of each field is its guard bit, clear in every packed
    monomial. `flip` holds the value bits of the variable fields of
    grevlex and weighted, so that comparing p ^ flip compares order.key.
    Packing is linear: `units[k]` is the packed k-th unit vector. Every
    method expects operands and results whose fields stay below the
    guard bits; the kernel tests that before it relies on it.
    """

    def __init__(self, order: MonomialOrder, n: int, width: int):
        derived = {"lex": 0, "grevlex": 1, "weighted": 2}[order.kind]
        if derived == 2 and len(order.weights) != n:
            raise ArityMismatch(f"weights length {len(order.weights)} vs arity {n}")
        self.width, self.value = width, (1 << width - 1) - 1
        fields = [width * f for f in range(n + derived)]
        self.guard = sum(1 << s + width - 1 for s in fields)
        self.var_guard = sum(1 << s + width - 1 for s in fields[:n])
        # the bit offset of each variable's field
        self.shifts = fields[:n][::-1] if derived == 0 else fields[:n]
        self.flip = 0 if derived == 0 else sum(self.value << s for s in fields[:n])
        deg = 1 << width * n if derived else 0
        weights = order.weights if derived == 2 else (0,) * n
        self.units = [
            (1 << s) + deg + (w << width * (n + 1))
            for s, w in zip(self.shifts, weights)
        ]

    def pack(self, m: Monomial) -> int:
        return sum(map(mul, m, self.units))

    def unpack(self, p: int) -> Monomial:
        return tuple(p >> s & self.value for s in self.shifts)

    def monus(self, b: int, a: int, guard: int) -> int:
        """Field-wise max(b - a, 0) in the fields whose guard bits `guard` holds."""
        d = (b | guard) - a
        t = d & guard
        return d & t - (t >> self.width - 1)

    def max(self, a: int, b: int) -> int:
        """Field-wise maximum over every field."""
        return a + self.monus(b, a, self.guard)

    def lcm(self, a: int, b: int) -> int:
        """a times the field-wise max(b - a, 0) of the variable fields,
        whose degree fields are rebuilt from `units`."""
        d = self.monus(b, a, self.var_guard)
        return a + sum(
            (d >> s & self.value) * u for s, u in zip(self.shifts, self.units)
        )


@lru_cache(maxsize=256)
def _packing(order: MonomialOrder, n: int, width: int) -> _Packing:
    """The packing for these parameters, built once: it never changes, and
    one-relation algebras call `groebner` often on tiny inputs."""
    return _Packing(order, n, width)


# ---- Buchberger ----------------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    basis: tuple[Polynomial, ...]
    arity: int

    def is_trivial(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant()

    @cached_property
    def _divisors(self) -> list[tuple[Monomial, int, list]]:
        """The basis as `_divisor_forms`, built on first use; equality
        and hashing see only the three fields."""
        return _divisor_forms(self.basis, self.order, self.arity)


def _pseudo_reduce(acc: dict, divisors: list, flip: int, guard: int) -> dict[int, int]:
    """Primitive pseudo-remainder of the packed integer dict `acc`.

    Each divisor is an (lm, lc, tail, tail maximum) tuple. This is the
    pseudo-division of `reduce_poly` on packed monomials: the same steps,
    the same choice of divisor, and the same scaling by glc/gcd(lc, glc)
    before lc*x^lm is cancelled against glc*x^glm. So the result, made
    primitive with a positive leading coefficient, is a multiple of
    `reduce_poly`'s remainder; its terms are in descending order. Raises
    _Overflow when the tail times x^(lm - glm) could reach a guard bit.
    """
    remainder: dict[int, int] = {}
    while acc:
        lm = max(acc, key=flip.__xor__)
        lc = acc.pop(lm)
        for glm, glc, tail, top in divisors:
            q = lm - glm
            if not q & guard:
                if top + q & guard:
                    raise _Overflow
                g = gcd(lc, glc)
                s, c = glc // g, -(lc // g)
                if s != 1:
                    acc = {m: v * s for m, v in acc.items()}
                    remainder = {m: v * s for m, v in remainder.items()}
                for m, v in tail:
                    m += q
                    v = acc.get(m, 0) + c * v
                    if v:
                        acc[m] = v
                    else:
                        del acc[m]
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

    Pair selection: smallest lcm in the order, ties by index. Each pair
    is keyed once, when it enters a heap, by (packed order key of the
    lcm, i, j). The product and chain criteria prune pairs. Every pair
    taken from the heap counts against `pair_budget`; past it,
    ResourceLimit is raised. A run restarted at a wider packing counts
    its pairs afresh.
    """
    # the numerators: a generator's denominator does not change its ideal
    gens = [f.num for f in ideal.generators if f.num]
    # no field of a packed monomial exceeds deg * (1 + the largest weight)
    top = max((max(map(sum, g)) for g in gens), default=0)
    top *= 1 + max(order.weights or (0,))
    width = max(8, top.bit_length() + 2)
    while True:
        packing = _packing(order, ideal.arity, width)
        try:
            G = _buchberger(gens, packing, pair_budget)
        except _Overflow:
            width *= 2
            continue
        basis = _autoreduce(G, packing, order, ideal.arity)
        return GroebnerBasis(order, basis, ideal.arity)


def _buchberger(gens: list[dict], packing: _Packing, pair_budget: int) -> list[tuple]:
    """Buchberger's pair loop on primitive packed integer dicts; returns
    each basis element as (lm, lc, tail, field-wise maximum of the tail)."""
    flip, guard = packing.flip, packing.guard
    G: list[tuple[int, int, list, int]] = []
    lms: list[int] = []  # lms[k] is the leading monomial of G[k]
    heap: list[tuple[int, int, int]] = []
    pairs: set[tuple[int, int]] = set()  # the pairs still in the heap

    def enter(coeffs: dict[int, int]) -> None:
        lm, lc = next(iter(coeffs.items()))
        j = len(G)
        for i in range(j):
            l = packing.lcm(lms[i], lm)
            if l & guard:
                raise _Overflow
            heapq.heappush(heap, (l ^ flip, i, j))
            pairs.add((i, j))
        tail = list(coeffs.items())[1:]
        G.append((lm, lc, tail, reduce(packing.max, (m for m, _ in tail), 0)))
        lms.append(lm)

    for g in gens:
        ints = {packing.pack(m): c for m, c in g.items()}
        lm = max(ints, key=flip.__xor__)
        enter(_primitive({lm: ints.pop(lm), **ints}))
    processed = 0
    while heap:
        key, i, j = heapq.heappop(heap)
        pairs.discard((i, j))
        processed += 1
        if processed > pair_budget:
            raise ResourceLimit(f"S-pair budget {pair_budget} exceeded")
        l = key ^ flip
        (lmi, lci, taili, topi), (lmj, lcj, tailj, topj) = G[i], G[j]
        # product criterion: coprime leading monomials
        if l == lmi + lmj:
            continue
        # chain criterion
        if any(
            k != i
            and k != j
            and not l - lmk & guard
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, lmk in enumerate(lms)
        ):
            continue
        # (lcj/g)*x^(l-lmi)*f_i - (lci/g)*x^(l-lmj)*f_j: the leading terms
        # cancel, so the S-polynomial is built from the tails alone
        qi, qj = l - lmi, l - lmj
        if topi + qi & guard or topj + qj & guard:
            raise _Overflow
        g = gcd(lci, lcj)
        ci, cj = lcj // g, -(lci // g)
        acc = {m + qi: ci * c for m, c in taili}
        _add_into(acc, {m + qj: cj * c for m, c in tailj})
        r = _pseudo_reduce(acc, G, flip, guard)
        if r:
            enter(r)
    return G


def _autoreduce(
    G: list, packing: _Packing, order: MonomialOrder, arity: int
) -> tuple[Polynomial, ...]:
    # minimalize: drop elements whose leading monomial another one divides
    flip, guard = packing.flip, packing.guard
    lead = sorted(G, key=lambda e: e[0] ^ flip)
    minimal = [
        e
        for idx, e in enumerate(lead)
        if not any(
            jdx != idx and not e[0] - h[0] & guard and (h[0] != e[0] or jdx < idx)
            for jdx, h in enumerate(lead)
        )
    ]
    # unpacked and monic: a primitive element over its positive leading
    # coefficient is in lowest terms. Then reduce_poly inter-reduces,
    # the division a traced benchmark run (perfbench/spans.py) records as
    # groebner.reduce. No other leading monomial divides an element's
    # leading term, so it survives: the results stay monic and sorted
    unpack = packing.unpack
    monic = [
        _from_num(arity, {unpack(lm): lc, **{unpack(m): c for m, c in tail}}, lc)
        for lm, lc, tail, _ in minimal
    ]
    return tuple(
        reduce_poly(g, monic[:idx] + monic[idx + 1 :], order)
        for idx, g in enumerate(monic)
    )


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f under full reduction by the basis: `_divide`
    by the basis's cached divisors, so f comes back as is when no leading
    monomial divides any of its monomials."""
    if f.arity != gb.arity:
        raise ArityMismatch(f"arity {f.arity} vs basis arity {gb.arity}")
    return _divide(f, gb._divisors, gb.order)


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
