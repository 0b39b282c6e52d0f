"""Gröbner-basis kernel: Buchberger, normal forms, ideal membership.

There is one division, `_pseudo_reduce`, fraction-free on integers keyed
by packed order keys. Buchberger's pair loop reduces its S-polynomials
with it, and `normal_form` and `reduce_poly` get the exact remainder over
Q from it. A `GroebnerBasis` packs its elements once per field width, for
every `normal_form` by it; an input with no monomial divisible by a
leading monomial comes back untouched, before any packing.

Coefficients: at entry each generator's numerator has its content
divided out: an element is then a primitive integer coefficient dict
with a positive leading coefficient. S-polynomials are cross-multiplied
by the cofactors of the gcd of the two leading coefficients, and
remainders come from pseudo-division. A remainder's terms wait in a
list, each with the product of the rescales made so far, and are
rescaled once when the division ends. Each integer remainder is the
remainder over Q times the product of the rescales, which the division
returns with it: Buchberger makes the remainder primitive, and a normal
form puts it over that product times the input's denominator. So the
leading monomials, the pair sequence and every normal form are those of
division over Q.

Monomials (packed exponent vectors, after Monagan & Pearce, "Polynomial
Division Using Dynamic Arrays, Heaps, and Packed Exponent Vectors"): at
entry each exponent vector becomes one int of fixed-width fields, most
significant first lex (e_0, ..., e_{n-1}, deg) and grevlex (deg, e_{n-1},
..., e_0). The top bit of every field is a guard bit, clear in every
packed monomial. XOR with a fixed mask that flips the variable fields of
grevlex makes the int its order key. A product is one add; a divides b
iff (b - a) has no guard bit set; the lcm is a plus the masked
field-wise max(b - a, 0) of the variable fields, whose degree is that
value modulo 2^width - 1. The pair loop keys every term by its order
key, so a plain `max` finds a leading term, and a product stays one add
of keys: while no field reaches its guard bit, (a + b) ^ mask ==
(a ^ mask) + (b ^ mask) - mask. An element is held as (packed leading monomial, its key, leading
coefficient, tail keyed by order key, tail maximum, sugar);
divisibility, lcms and the overflow tests use the packed monomial. The
field width is two bits more than a bound on the largest field value
of any generator (of a division: of its input and basis), at least 8.
Each element keeps the field-wise maximum of its tail, and before a
tail is multiplied by x^q the guard bits of that maximum plus q are
tested; a new pair's lcm is tested the same way. On overflow Buchberger
or the division starts over with fields twice as wide, so exponents
stay unbounded.

Pending S-pairs sit in a heap keyed by (sugar, lcm's order key, i, j).
Grevlex keys lead with a degree field, so their pairs keep the normal
strategy: the sugar slot is 0 and the smallest lcm goes first. Lex keys
do not lead with a degree, and the smallest lcm can be a pair of high
degree; lex takes the pair of least sugar (Giovini, Mora,
Niesi, Robbiano, Traverso, "One sugar cube, please, or selection
strategies in the Buchberger algorithm", 1991). A generator's sugar is
its total degree, a pair's is max(sug_i - deg lm_i, sug_j - deg lm_j) +
deg lcm, and a remainder's is the largest of its pair's and deg t +
sug g over every step t*g of its division. Only lex reads degrees.

Buchberger stops at the first generator or remainder whose packed
leading monomial is 0, a nonzero constant: the ideal is then the whole
ring, and its reduced basis is (1,), whatever pairs are left.

At exit the minimal basis is unpacked, each element made monic by
taking its leading coefficient as the denominator, and `reduce_poly`
inter-reduces it in ascending order, each element by the smaller ones
only. No element is packed twice: each keeps in its memo, under the
packing, the element the pair loop built for it, which `_Divisors` takes
as dividend and divisor, and a remainder keeps the one it was left as.

Deterministic throughout: for fixed generators and order, the reduced
basis and every normal form are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import itemgetter, le, mul

from .errors import ArityMismatch, PointNotOnVariety, ResourceLimit
from .poly import Monomial, Polynomial, _add_into, _from_num, _is_int, _number, _set, grevlex_key
from .record import Frozen
from .toric import column_echelon

DEFAULT_PAIR_BUDGET = 100_000


# ---- monomial orders ----------------------------------------------------


ORDER_KINDS = ("lex", "grevlex")


class MonomialOrder(Frozen):
    """Total order on monomials, compatible with multiplication, 1 minimal:
    kind is one of `ORDER_KINDS`, "lex" or "grevlex"."""

    _fields = ("kind",)

    def __init__(self, kind: str):
        if kind not in ORDER_KINDS:
            raise ValueError(
                f"unknown order kind {kind!r}; the kinds are {', '.join(ORDER_KINDS)}"
            )
        self.__dict__.update(kind=kind)

    def key(self, m: Monomial):
        return m if self.kind == "lex" else grevlex_key(m)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# ---- ideals ----------------------------------------------------------


class Ideal(Frozen):
    """Finitely generated ideal; zero generators are dropped, and one of
    another arity is refused. No generators: the zero ideal. `Ideal.of`
    reads the arity off the first nonzero generator."""

    _fields = ("generators", "arity")

    def __init__(self, generators: Sequence[Polynomial], arity: int):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.arity != arity:
                raise ArityMismatch("generators of mixed arity")
        self.__dict__.update(generators=gens, arity=arity)

    @staticmethod
    def of(generators: Sequence[Polynomial], arity: int | None = None) -> "Ideal":
        generators = tuple(generators)
        if arity is None:
            arity = next((g.arity for g in generators if not g.is_zero()), None)
            if arity is None:
                raise ValueError("arity required for an empty generator list")
        return Ideal(generators, arity)


# ---- packed monomials ----------------------------------------------------


class _Overflow(Exception):
    """A packed field would reach its guard bit: repack wider."""


class _Packing:
    """Exponent vectors under `order` packed into `width`-bit fields of an int.

    Fields, most significant first: lex (e_0, ..., e_{n-1}, deg); grevlex
    (deg, e_{n-1}, ..., e_0). The top bit of each field is its guard bit,
    clear in every packed monomial. `flip` holds the value bits of the
    variable fields of grevlex, so that comparing p ^ flip compares
    order.key. Lex's trailing degree decides no comparison, since the
    exponents above it already differ; it is there so that p & value is
    the degree of a lex-packed p. Packing is linear: `units[k]` is the
    packed k-th unit vector. Every method expects operands and results
    whose fields stay below the guard bits; the kernel tests that before
    it relies on it.
    """

    def __init__(self, order: MonomialOrder, n: int, width: int):
        self.order, self.width, self.value = order, width, (1 << width - 1) - 1
        self.ones = (1 << width) - 1  # 2^width is 1 modulo it
        # grevlex keys lead with a degree; lex keys end with one
        self.graded = order.kind != "lex"
        fields = [width * f for f in range(n + 1)]
        self.guard = sum(1 << s + width - 1 for s in fields)
        # the bit offset of each variable's field, and the degree's unit
        self.shifts = fields[:n] if self.graded else fields[1:][::-1]
        self.deg = 1 << (width * n if self.graded else 0)
        # the value bits of the variable fields
        self.vars = sum(self.value << s for s in self.shifts)
        self.flip = self.vars if self.graded else 0
        self.units = [(1 << s) + self.deg for s in self.shifts]

    def pack(self, m: Monomial) -> int:
        return sum(map(mul, m, self.units))

    def unpack(self, p: int) -> Monomial:
        return tuple([p >> s & self.value for s in self.shifts])

    def max(self, *ps: int) -> int:
        """Field-wise maximum over every field of `ps`; 0 for none."""
        guard, shift = self.guard, self.width - 1
        top = 0
        for p in ps:
            d = (p | guard) - top
            t = d & guard
            top += d & t - (t >> shift)
        return top

    def lcm(self, a: int, b: int) -> int:
        """a times d, the field-wise max(b - a, 0) of the variable fields.
        Every field of b - a is taken against its own guard bit, so that
        no field borrows from the one above it. The degree of d is the sum
        of its fields, d mod `ones`: the sum is at most deg b, below
        2^(width - 1). So a degree field of the lcm that reaches its guard
        bit sets it and carries no further, for the caller to test."""
        d = (b | self.guard) - a
        t = d & self.guard
        d &= (t - (t >> self.width - 1)) & self.vars
        return a + d + d % self.ones * self.deg


@lru_cache(maxsize=256)
def _packing(order: MonomialOrder, n: int, width: int) -> _Packing:
    """The packing for these parameters, built once: it never changes, and
    one-relation algebras call `groebner` often on tiny inputs."""
    return _Packing(order, n, width)


def _field_width(nums: Sequence[dict]) -> int:
    """Field width for the monomials of the nonzero numerator dicts `nums`:
    two bits past the largest degree, a bound on every field; >= 8."""
    top = max((max(map(sum, g)) for g in nums), default=0)
    return max(8, top.bit_length() + 2)


def _element(coeffs: dict[int, int], packing: _Packing, sugar: int = 0) -> tuple:
    """A primitive dict keyed by order key, its leading term first, as
    `_pseudo_reduce`'s divisor (lm, key, lc, tail, tail maximum, sugar):
    packed leading monomial, its key lm ^ flip, leading coefficient, the
    tail keyed by order key, the packed field-wise maximum of the tail,
    and its sugar, which only lex Buchberger reads."""
    flip = packing.flip
    (lk, lc), *tail = coeffs.items()
    return lk ^ flip, lk, lc, tail, packing.max(*[k ^ flip for k, _ in tail]), sugar


def _pack(num: dict[Monomial, int], packing: _Packing, sugar: int = 0) -> tuple:
    """The nonzero numerator dict `num` as an `_element`: keyed by order
    key and made `_primitive`, so its leading coefficient is positive."""
    keyed = {packing.pack(m) ^ packing.flip: c for m, c in num.items()}
    lk = max(keyed)
    return _element(_primitive({lk: keyed.pop(lk), **keyed}), packing, sugar)


def _kept(g: Polynomial, packing: _Packing) -> tuple | None:
    """The `_element` of g.num at `packing` that g's memo keeps, if any."""
    return (g._memo or {}).get(packing)


# ---- division -------------------------------------------------------------


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _primitive(coeffs: dict) -> dict:
    """coeffs over their content, signed so the first (leading) one is > 0;
    `coeffs` itself when that divisor is 1."""
    g = gcd(*coeffs.values())
    g = -g if next(iter(coeffs.values())) < 0 else g
    return coeffs if g == 1 else {m: c // g for m, c in coeffs.items()}


def _pseudo_reduce(
    acc: dict,
    divisors: list,
    flip: int,
    guard: int,
    dmask: int = 0,
    sugar: int = 0,
) -> tuple[dict[int, int], int, int]:
    """Pseudo-remainder of the integer dict `acc`, keyed by order key, the
    product of the rescales it made, and the remainder's sugar: the one
    division of the kernel.

    Each divisor is an `_element` (lm, key, lc, tail, tail maximum,
    sugar), with lc > 0. Each step cancels the leading term lc*x^lm of
    what is left against the first divisor whose glm divides lm, or moves
    that term to the remainder. Before the cancellation, what is left is
    multiplied by s = glc/gcd(lc, glc). So the remainder, in descending
    order, is the remainder of `acc` over Q times the product of the s,
    with the steps and the choice of divisor of division over Q.

    The leading term of what is left is `max(acc)`. Divisibility and the
    overflow test work on the packed lm = key ^ flip. A key times x^q,
    q = lm - glm, is the key plus (key - glm's key): on fields below
    their guard bits, XOR with flip is flip minus the variable fields, so
    (a + b) ^ flip == (a ^ flip) + (b ^ flip) - flip, and the guard test
    of the tail maximum plus q has already ruled out a carry. Terms move
    to the remainder in descending order, each with the product of the
    rescales so far; at the end each is multiplied once by the rescales
    that came after it. Raises _Overflow when the tail times x^q could
    reach a guard bit.

    Sugar (Giovini et al.): given `dmask`, the mask of lex's trailing
    degree field, each step x^q * g raises `sugar` to at least deg q +
    g's sugar, where deg q = q & dmask. With dmask 0 `sugar` comes back
    as given.
    """
    remainder: list[tuple[int, int, int]] = []
    scale = 1
    while acc:
        k = max(acc)
        lc = acc.pop(k)
        lm = k ^ flip
        for glm, gk, glc, tail, top, gsugar in divisors:
            q = lm - glm
            if not q & guard:
                if top + q & guard:
                    raise _Overflow
                if dmask and (q & dmask) + gsugar > sugar:
                    sugar = (q & dmask) + gsugar
                g = gcd(lc, glc)
                s, c = glc // g, -(lc // g)
                if s != 1:
                    acc = {m: v * s for m, v in acc.items()}
                    scale *= s
                d = k - gk
                for m, v in tail:
                    m += d
                    v = acc.get(m, 0) + c * v
                    if v:
                        acc[m] = v
                    else:
                        del acc[m]
                break
        else:
            remainder.append((k, lc, scale))
    r = {k: c if s == scale else c * (scale // s) for k, c, s in remainder}
    return r, scale, sugar


class _Divisors:
    """A basis as divisors: its leading monomials, its field width, and its
    elements kept or `_pack`ed, with their packing, for each field width a
    division uses. Raises ArityMismatch if an element's arity is not `arity`."""

    def __init__(self, basis: Sequence[Polynomial], order: MonomialOrder, arity: int):
        for g in basis:
            if g.arity != arity:
                raise ArityMismatch(f"arity {arity} vs basis arity {g.arity}")
        self.basis, self.order, self.arity = basis, order, arity
        self.packed: dict[int, tuple] = {}
        # the basis's field width, 0 until a division first packs: most
        # `reduce_poly` calls return at the early exit
        self.width = 0

    @cached_property
    def lms(self) -> list[Monomial]:
        return [g.leading(self.order)[0] for g in self.basis]

    def at(self, width: int) -> tuple[_Packing, list]:
        if width not in self.packed:
            packing = _packing(self.order, self.arity, width)
            divisors = [_kept(g, packing) or _pack(g.num, packing) for g in self.basis]
            self.packed[width] = packing, divisors
        return self.packed[width]

    def remainder(self, f: Polynomial) -> Polynomial:
        """Full remainder of f under division by the basis, over Q: f
        itself when no leading monomial divides a monomial of f, else the
        `_pseudo_reduce` remainder of f.num over f.den times the product
        of the rescales. If f and every divisor keep an `_element` at one
        packing, both run on those, and a remainder that keeps f's leading
        term keeps its own; else the test reads exponent tuples and the
        division packs at the width that f and the basis need, and on
        _Overflow at twice that width."""
        num = f.num
        for packing in f._memo or ():
            if type(packing) is _Packing and packing.order == self.order:
                divisors = [_kept(g, packing) for g in self.basis]
                if all(divisors):
                    break
        else:
            packing = None
        if packing:
            width, flip, guard = packing.width, packing.flip, packing.guard
            lm, _, _, tail, _, _ = _kept(f, packing)
            ms = [lm, *[k ^ flip for k, _ in tail]]
            if not any(not m - g[0] & guard for m in ms for g in divisors):
                return f
        else:
            if not any(_divides(lm, m) for m in num for lm in self.lms):
                return f
            if not self.width:
                self.width = _field_width([g.num for g in self.basis])
            width = max(self.width, _field_width([num]))
            packing, divisors = self.at(width)
        while True:
            flip = packing.flip
            kept = _kept(f, packing)
            if kept:  # (key, lc) and the tail
                acc = dict([kept[1:3], *kept[3]])
            else:
                acc = {packing.pack(m) ^ flip: c for m, c in num.items()}
            try:
                r, scale, _ = _pseudo_reduce(acc, divisors, flip, packing.guard)
            except _Overflow:
                width *= 2
                packing, divisors = self.at(width)
                continue
            remainder = {packing.unpack(k ^ flip): c for k, c in r.items()}
            out = _from_num(f.arity, remainder, f.den * scale)
            if kept and r and next(iter(r)) == kept[1]:
                kept = _element(dict(zip(r, out.num.values())), packing)
                _set(out, "_memo", {packing: kept})
            return out


class GroebnerBasis(Frozen):
    """A reduced Gröbner basis under `order`, built by `groebner` and
    `cylinder`; unchecked, so a basis built by hand is taken as reduced."""

    _fields = ("order", "basis", "arity")

    def __init__(
        self, order: MonomialOrder, basis: tuple[Polynomial, ...], arity: int
    ):
        self.__dict__.update(order=order, basis=basis, arity=arity)

    def is_trivial(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant()

    @cached_property
    def _divisors(self) -> _Divisors:
        """The basis as `_Divisors`, built on first use; equality and
        hashing see only the three fields."""
        return _Divisors(self.basis, self.order, self.arity)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f under full reduction by the basis, its
    divisors cached; f itself when no leading monomial divides any of its
    monomials."""
    if f.arity != gb.arity:
        raise ArityMismatch(f"arity {f.arity} vs basis arity {gb.arity}")
    return gb._divisors.remainder(f)


def reduce_poly(
    f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder
) -> Polynomial:
    """Full remainder of f under multivariate division by `basis`, by
    divisors built for this one call. Raises ArityMismatch if a basis
    element's arity differs from f's."""
    return _Divisors(tuple(basis), order, f.arity).remainder(f)


# ---- Buchberger ----------------------------------------------------------


def groebner(
    ideal: Ideal,
    order: MonomialOrder = GREVLEX,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> GroebnerBasis:
    """Reduced Gröbner basis by Buchberger's algorithm.

    Pair selection: under grevlex the normal strategy, smallest lcm in
    the order; under lex the sugar strategy, least sugar, then smallest
    lcm. Ties go by index. Each pair is keyed
    once, when it enters a heap, by (sugar, packed order key of the lcm,
    i, j), with sugar 0 outside lex. The product and chain criteria prune
    pairs. Every pair taken from the heap counts against `pair_budget`,
    a non-negative int (ValueError otherwise); past it, ResourceLimit is
    raised. A run restarted at a wider packing counts its pairs afresh.
    """
    if not _is_int(pair_budget) or pair_budget < 0:
        raise ValueError(f"pair_budget must be a non-negative int, got {pair_budget!r}")
    # the numerators: a generator's denominator does not change its ideal
    gens = [f.num for f in ideal.generators]
    width = _field_width(gens)
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
    """Buchberger's pair loop on primitive integer dicts keyed by order key.

    Each generator is `_pack`ed and each nonzero remainder made
    `_primitive`, so every basis element is an `_element`; the loop
    returns them, or only the first element whose packed leading
    monomial is 0: a nonzero constant, which generates the whole ring.
    The pair heap, the criteria, the lcm and the overflow tests use the
    packed leading monomials; the S-polynomial shifts each
    tail key by the lcm's key minus the element's, which is exact for the
    reason `_pseudo_reduce` gives. Under lex each element carries its
    sugar, which `_pseudo_reduce` hands on to a remainder.
    """
    flip, guard = packing.flip, packing.guard
    # lex takes pairs by sugar, with degrees from its trailing degree
    # field; a graded key already leads with its degree
    dmask = 0 if packing.graded else packing.value
    G: list[tuple[int, int, int, list, int, int]] = []
    lms: list[int] = []  # lms[k] is the packed leading monomial of G[k]
    ecarts: list[int] = []  # under lex, G[k]'s sugar minus the degree of lms[k]
    heap: list[tuple[int, int, int, int]] = []
    pairs: set[tuple[int, int]] = set()  # the pairs still in the heap

    def enter(e: tuple) -> None:
        lm = e[0]
        j = len(G)
        ecart = e[5] - (lm & dmask)
        for i in range(j):
            l = packing.lcm(lms[i], lm)
            if l & guard:
                raise _Overflow
            # a pair's sugar: max(sugar - deg lm) of the two, plus deg lcm
            sugar = max(ecarts[i], ecart) + (l & dmask) if dmask else 0
            heapq.heappush(heap, (sugar, l ^ flip, i, j))
            pairs.add((i, j))
        G.append(e)
        lms.append(lm)
        ecarts.append(ecart)

    for g in gens:
        # a generator's sugar is its total degree
        e = _pack(g, packing, max(map(sum, g)) if dmask else 0)
        if not e[0]:  # a nonzero constant: the ideal is the whole ring
            return [e]
        enter(e)
    processed = 0
    while heap:
        sugar, key, i, j = heapq.heappop(heap)
        pairs.discard((i, j))
        processed += 1
        if processed > pair_budget:
            raise ResourceLimit(f"S-pair budget {pair_budget} exceeded")
        l = key ^ flip
        (lmi, lki, lci, taili, topi, _), (lmj, lkj, lcj, tailj, topj, _) = G[i], G[j]
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
        if topi + (l - lmi) & guard or topj + (l - lmj) & guard:
            raise _Overflow
        g = gcd(lci, lcj)
        ci, cj = lcj // g, -(lci // g)
        di, dj = key - lki, key - lkj
        acc = {k + di: ci * c for k, c in taili}
        _add_into(acc, {k + dj: cj * c for k, c in tailj})
        r, _, sugar = _pseudo_reduce(acc, G, flip, guard, dmask, sugar)
        if r:
            e = _element(_primitive(r), packing, sugar)
            if not e[0]:
                return [e]
            enter(e)
    return G


def _autoreduce(
    G: list, packing: _Packing, order: MonomialOrder, arity: int
) -> tuple[Polynomial, ...]:
    # minimalize: in ascending order, keep an element unless the leading
    # monomial of one kept before it divides its own (a divisor is never
    # larger; of equal leading monomials the first is kept). After a stop
    # at a unit, G is that one constant, and the result is (1,)
    flip, guard = packing.flip, packing.guard
    minimal: list[tuple] = []
    for e in sorted(G, key=itemgetter(1)):
        if not any(not e[0] - h[0] & guard for h in minimal):
            minimal.append(e)
    # then, in ascending order, each element is unpacked, made monic (a
    # primitive element over its positive leading coefficient is in lowest
    # terms) with its memo keeping the element, and inter-reduced by the
    # smaller ones, already reduced. A tail monomial lies below its own
    # leading monomial, and a leading monomial divides only monomials at
    # or above it, so no larger element can reduce a tail; the leading
    # terms survive, and the results are the unique reduced basis, monic
    # and sorted. The division stays a reduce_poly call per element, so
    # that a traced benchmark run (perfbench/spans.py) still records it as
    # groebner.reduce under groebner.buchberger
    unpack = packing.unpack
    out: list[Polynomial] = []
    for e in minimal:
        lm, _, lc, tail, _, _ = e
        g = _from_num(arity, {unpack(lm): lc, **{unpack(k ^ flip): c for k, c in tail}}, lc)
        _set(g, "_memo", {packing: e})
        out.append(reduce_poly(g, out, order))
    return tuple(out)


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

    The point must satisfy every relation. Scaling a row by a nonzero
    integer keeps the rank, so each row is cleared of denominators and
    the rank is the number of pivots of the column echelon form.
    """
    if not relations:
        return 0
    arity = relations[0].arity
    pt = [_number(x) for x in point]
    if len(pt) != arity:
        raise ArityMismatch(f"point length {len(pt)} vs arity {arity}")
    for rel in relations:
        if rel.evaluate(pt) != 0:
            raise PointNotOnVariety(f"relation {rel!r} nonzero at {pt}")
    rows = []
    for rel in relations:
        row = [rel.partial_derivative(j).evaluate(pt) for j in range(arity)]
        scale = lcm(*(x.denominator for x in row))
        rows.append([int(x * scale) for x in row])
    return len(column_echelon(rows)[2])
