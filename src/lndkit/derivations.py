"""Derivations on finitely presented algebras.

A PresentedAlgebra is K[vars]/(relations); computation happens on normal
forms modulo a cached Gröbner basis of the relation ideal. A Derivation
is given by generator images and extended by the Leibniz rule. Each
Derivation builds its Leibniz table once, on first use: for every
generator x_j with D(x_j) != 0, the monomials of D(x_j) shifted by -e_j
with their numerators over one common image denominator, so applying D
is one pass over the terms of f. It also keeps the last chain f, D(f),
D^2(f), ... that reached zero, keyed by the normal form of f; the
nilpotency check, exp(sD) and the Dixmier projection all read their
chains through `Derivation.iterate`.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import cached_property
from itertools import islice
from math import factorial, lcm
from operator import add

from .errors import (
    ArityMismatch,
    NotASlice,
    NotVerifiedLND,
    ReservedVariable,
)
from .groebner import (
    GREVLEX, GroebnerBasis, Ideal, MonomialOrder, groebner, integer_weights, normal_form
)
from .poly import _TOKEN, Polynomial, _from_num, _is_int, _mul, _number, _sum, parse_poly
from .record import Frozen

FORMAL_PARAMETER = "_s"

DEFAULT_NILPOTENCY_BOUND = 64


class PresentedAlgebra:
    """K[vars]/(relations) with a cached reduced Gröbner basis."""

    def __init__(
        self,
        vars: Sequence[str],
        relations: Sequence[Polynomial] = (),
        gradings: dict[str, Sequence[int]] | None = None,
        order: MonomialOrder = GREVLEX,
    ):
        self._build(vars, relations, gradings, order, None)

    def _build(self, vars, relations, gradings, order, basis) -> None:
        """The constructor's work; `basis`, when not None, is the reduced
        Gröbner basis of the relations under `order`, taken unchecked."""
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        for v in self.vars:  # one token of the parser, read as a variable
            if re.findall(_TOKEN, str(v)) != [v] or not (v[0].isalpha() or v[0] == "_"):
                raise ValueError(f"variable name {v!r} is not an identifier")
        arity = len(self.vars)
        self.relations = tuple(r for r in relations if not r.is_zero())
        for r in self.relations:
            if r.arity != arity:
                raise ArityMismatch("relation arity differs from variable count")
        self.order = order
        if basis is None and self.relations:
            basis = groebner(Ideal(self.relations, arity), order).basis
        self.gb = GroebnerBasis(order, tuple(basis or ()), arity)
        if self.gb.is_trivial():
            raise ValueError("relations generate the unit ideal; algebra is zero")
        self.gradings: dict[str, tuple[int, ...]] = {}
        for name, w in (gradings or {}).items():
            w = integer_weights(w)
            if len(w) != arity:
                raise ArityMismatch(f"grading {name!r} has wrong length")
            self.gradings[name] = w

    @property
    def arity(self) -> int:
        return len(self.vars)

    def parse(self, text: str) -> Polynomial:
        return self.normal(parse_poly(text, self.vars))

    def normal(self, f: Polynomial) -> Polynomial:
        if f.arity != self.arity:
            raise ArityMismatch(f"arity {f.arity} vs algebra arity {self.arity}")
        return normal_form(f, self.gb)

    def is_compatible_grading(self, w: Sequence[int]) -> bool:
        """True iff every relation is homogeneous for the weights."""
        return all(r.is_homogeneous(w) for r in self.relations)

    def format(self, f: Polynomial) -> str:
        return f.format(self.vars)

    def __repr__(self) -> str:
        rels = ", ".join(self.format(r) for r in self.relations) or "0"
        return f"PresentedAlgebra(K[{', '.join(self.vars)}] / ({rels}))"


def cylinder(algebra: PresentedAlgebra, name: str = "u") -> PresentedAlgebra:
    """Adjoin one free variable: K[Y] -> K[Y][u], no new relations.

    A weighted order gives u weight 0 (ties still break by grevlex).
    u is last in lex and grevlex and has weight 0, so the order restricted
    to K[Y] is Y's, every S-pair of the extended basis is one of Y's, and
    the base's reduced basis, extended, is the cylinder's.
    """
    fresh = name
    k = 0
    while fresh in algebra.vars:
        k += 1
        fresh = f"{name}{k}"
    gradings = {g: w + (0,) for g, w in algebra.gradings.items()}
    gradings[fresh] = (0,) * algebra.arity + (1,)
    order = algebra.order
    if order.kind == "weighted":
        order = MonomialOrder("weighted", (*order.weights, 0))
    cyl = object.__new__(PresentedAlgebra)
    cyl._build(
        algebra.vars + (fresh,),
        [r.extend(1) for r in algebra.relations],
        gradings,
        order,
        [g.extend(1) for g in algebra.gb.basis],
    )
    return cyl


def check_bound(bound: int) -> None:
    """ValueError unless the nilpotency bound is an int >= 1."""
    if not _is_int(bound):
        raise ValueError(f"bound must be an int, got {bound!r}")
    if bound < 1:
        raise ValueError("bound must be >= 1")


class NilpotencyVerdict(Frozen):
    """Outcome of a bounded local-nilpotency check on the generators."""

    _fields = ("status", "max_order", "witness_var", "witness_order", "bound")

    def __init__(
        self,
        status: str,
        max_order: int | None = None,
        witness_var: str | None = None,
        witness_order: int | None = None,
        bound: int | None = None,
    ):
        if status not in ("verified", "not_nilpotent", "inconclusive"):
            raise ValueError(f"unknown nilpotency status {status!r}")
        self.__dict__.update(
            status=status, max_order=max_order, witness_var=witness_var,
            witness_order=witness_order, bound=bound,
        )

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def describe(self) -> str:
        if self.status == "verified":
            return f"VerifiedLND(max_order={self.max_order})"
        if self.status == "not_nilpotent":
            return (
                f"NotNilpotentWitness(var={self.witness_var},"
                f" order={self.witness_order})"
            )
        return f"Inconclusive(bound={self.bound})"

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}


class Derivation:
    """Derivation determined by generator images, reduced to normal form."""

    def __init__(self, algebra: PresentedAlgebra, images: Sequence[Polynomial]):
        if len(images) != algebra.arity:
            raise ArityMismatch("one image per generator required")
        self.algebra = algebra
        self.images = tuple(algebra.normal(f) for f in images)
        self._well_defined: tuple[bool, tuple] | None = None
        self._verdict: NilpotencyVerdict | None = None  # only a verified one
        # (normal form of f, chain of f) for the last chain that reached zero
        self._last_chain: tuple[Polynomial, tuple[Polynomial, ...]] | None = None

    @staticmethod
    def from_strings(
        algebra: PresentedAlgebra, images: dict[str, str]
    ) -> "Derivation":
        missing = set(algebra.vars) - set(images)
        extra = set(images) - set(algebra.vars)
        if missing or extra:
            raise ValueError(
                f"image map mismatch (missing {sorted(missing)},"
                f" extra {sorted(extra)})"
            )
        return Derivation(
            algebra, [parse_poly(images[v], algebra.vars) for v in algebra.vars]
        )

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.images)

    @cached_property
    def _leibniz(self) -> tuple[tuple, int]:
        """The Leibniz table and its denominator L, the lcm of the image
        denominators: for each j with D(x_j) != 0 the pair (j, rows), with
        one row (m - e_j, c * L / den) per term c*m/den of D(x_j)."""
        images = self.images
        common = lcm(*[image.den for image in images if image.num])
        table = []
        for j, image in enumerate(images):
            if image.num:
                k = common // image.den
                rows = tuple(
                    (m[:j] + (m[j] - 1,) + m[j + 1 :], c * k)
                    for m, c in image.num.items()
                )
                table.append((j, rows))
        return tuple(table), common

    def apply(self, f: Polynomial) -> Polynomial:
        """D(f) = sum_j (df/dx_j) D(x_j), reduced modulo relations.

        One pass over the terms of f against the Leibniz table: a term
        c*x^m of f with m_j = e > 0 adds c*e*k * x^(m + shift) for each
        row (shift, k) of j, and the sum is over f.den * L.
        """
        if f.arity != self.algebra.arity:
            raise ArityMismatch("polynomial arity differs from algebra arity")
        table, common = self._leibniz
        acc: dict = {}
        get = acc.get
        for m, c in f.num.items():
            for j, rows in table:
                e = m[j]
                if e:
                    ce = c * e
                    for shift, k in rows:
                        mk = tuple(map(add, m, shift))
                        v = get(mk, 0) + ce * k
                        if v:
                            acc[mk] = v
                        else:
                            del acc[mk]
        return self.algebra.normal(_from_num(f.arity, acc, f.den * common))

    def is_well_defined(self) -> tuple[bool, tuple]:
        """Check D kills every relation; certificate lists the reductions."""
        if self._well_defined is None:
            cert = tuple(
                (rel, self.apply(rel)) for rel in self.algebra.relations
            )
            ok = all(image.is_zero() for _, image in cert)
            self._well_defined = (ok, cert)
        return self._well_defined

    def nilpotency_check(
        self, bound: int = DEFAULT_NILPOTENCY_BOUND
    ) -> NilpotencyVerdict:
        """Read each generator's chain D(x_j), D^2(x_j), ... through
        `iterate`, at most `bound` entries, an int >= 1 (ValueError otherwise).

        A chain that ends within the bound gives x_j's order; an entry
        proportional to an earlier one certifies non-nilpotency; `bound`
        nonzero entries are Inconclusive. Raises NotVerifiedLND if D does
        not preserve the relations, since no verdict about such a D is a
        verdict about an LND. A verified verdict is kept and reused at any
        bound.
        """
        check_bound(bound)
        if not self.is_well_defined()[0]:
            raise NotVerifiedLND(
                f"derivation {self!r} failed verification:"
                " it does not preserve the relations"
            )
        if self._verdict is not None:
            return self._verdict
        max_order = 0
        for name, image in zip(self.algebra.vars, self.images):
            chain: list[Polynomial] = []
            for current in islice(self.iterate(image), bound):
                if _proportional(chain, current):
                    return NilpotencyVerdict(
                        "not_nilpotent",
                        witness_var=name,
                        witness_order=len(chain) + 1,
                        bound=bound,
                    )
                chain.append(current)
            if len(chain) == bound:
                return NilpotencyVerdict("inconclusive", bound=bound)
            max_order = max(max_order, len(chain) + 1)
        verdict = NilpotencyVerdict("verified", max_order=max_order, bound=bound)
        self._verdict = verdict
        return verdict

    def require_lnd(
        self, bound: int = DEFAULT_NILPOTENCY_BOUND
    ) -> NilpotencyVerdict:
        """The verified verdict that D is an LND, else NotVerifiedLND.

        The one gate for "D is an LND": D preserves the relations and is
        nilpotent on every generator within `bound` applications, which
        makes it locally nilpotent. An earlier verified verdict decides,
        at whatever bound it was reached.
        """
        verdict = self.nilpotency_check(bound)
        if not verdict.verified:
            raise NotVerifiedLND(
                f"derivation {self!r} failed verification: {verdict.describe()}"
            )
        return verdict

    def iterate(self, f: Polynomial):
        """Yield f, D(f), D^2(f), ... stopping at the first zero.

        Lazy, so a D that is not nilpotent on f can be read a few steps
        at a time. A chain that reaches zero is kept, keyed by the normal
        form of f, until the next one does; iterating the same f again
        (or f plus a relation) yields the kept chain without applying D.
        An iteration stopped early keeps nothing. It is the one chain
        walker: `nilpotency_check`, `exp_action` and `kernel_projection`
        read their chains through it, so the kept chain may also be a
        generator image's chain from verification.
        """
        key = self.algebra.normal(f)
        last = self._last_chain
        if last is not None and last[0] == key:
            yield from last[1]
            return
        chain = []
        current = key
        while not current.is_zero():
            chain.append(current)
            yield current
            current = self.apply(current)
        self._last_chain = (key, tuple(chain))

    def check_slice(self, s: Polynomial) -> bool:
        return self.apply(s) == Polynomial.constant(self.algebra.arity, 1)

    def exp_action(self, f: Polynomial, s=None):
        """exp(sD)(f) = sum_i s^i D^i(f) / i!; finite since D is an LND.

        With s=None the parameter stays formal: the result lives in the
        algebra extended by the reserved variable `_s` and is returned
        together with that extended algebra.
        """
        self.require_lnd()
        # Each D^i(f) is a normal form, and reducibility is per monomial,
        # so both sums are normal forms too: `_s` lies in no relation, and
        # the cylinder's reduced basis is the base's.
        if s is None:
            if FORMAL_PARAMETER in self.algebra.vars:
                raise ReservedVariable(
                    f"variable {FORMAL_PARAMETER!r} is reserved for exp"
                )
            ext = cylinder(self.algebra, FORMAL_PARAMETER)
            # the terms of s^i D^i(f) / i! are the only ones with _s-degree i
            parts = [
                ({m + (i,): c for m, c in term.num.items()}, term.den * factorial(i))
                for i, term in enumerate(self.iterate(f))
            ]
            return _sum(ext.arity, parts), ext
        s = _number(s)
        p, q = s.numerator, s.denominator
        # s^i D^i(f) / i! over its denominator; for s = 0 only i = 0 counts
        parts = [
            ({m: c * p**i for m, c in term.num.items()}, term.den * q**i * factorial(i))
            for i, term in enumerate(self.iterate(f))
            if p or not i
        ]
        return _sum(self.algebra.arity, parts)

    def kernel_membership(self, f: Polynomial) -> bool:
        return self.apply(f).is_zero()

    def kernel_projection(self, s: Polynomial, f: Polynomial) -> Polynomial:
        """Dixmier projection onto Ker D along a slice s.

        rho(f) = sum_i (-s)^i D^i(f) / i!; fixes the kernel pointwise and
        sends s to 0.
        """
        self.require_lnd()
        if not self.check_slice(s):
            raise NotASlice(f"D({self.algebra.format(s)}) != 1")
        neg_s = {m: -c for m, c in s.num.items()}
        weight = {(0,) * self.algebra.arity: 1}  # the numerator of (-s)^i
        parts = []
        for i, term in enumerate(self.iterate(f)):
            if i:
                weight = _mul(weight, neg_s)
            parts.append(
                (_mul(term.num, weight), term.den * s.den**i * factorial(i))
            )
        return self.algebra.normal(_sum(self.algebra.arity, parts))

    def image_ideal(self) -> Ideal:
        """Ideal generated by the images of the generators."""
        return Ideal(self.images, self.algebra.arity)

    def __repr__(self) -> str:
        imgs = ", ".join(
            f"{v} -> {self.algebra.format(f)}"
            for v, f in zip(self.algebra.vars, self.images)
        )
        return f"Derivation({imgs})"


def _proportional(chain: list[Polynomial], current: Polynomial) -> bool:
    """True iff the nonzero current is a multiple of an earlier chain entry."""
    cur = current.num
    m0 = next(iter(cur))
    a = cur[m0]
    # cur[m] / e == a / ear[m0] for every monomial m
    return any(
        ear.keys() == cur.keys()
        and all(cur[m] * ear[m0] == e * a for m, e in ear.items())
        for ear in (earlier.num for earlier in chain)
    )


def lift(D: Derivation, i: int) -> Derivation:
    """Extend D to the cylinder K[Y][u] by D(u)=0 and multiply by u^i.

    Each image D(x_j) becomes D(x_j) u^i: its monomials gain u-exponent i.
    """
    if not _is_int(i) or i < 0:
        raise ValueError("power of the cylinder variable must be an int >= 0")
    cyl = cylinder(D.algebra)
    images = [
        _from_num(cyl.arity, {m + (i,): c for m, c in img.num.items()}, img.den)
        for img in D.images
    ]
    images.append(Polynomial.zero(cyl.arity))
    return Derivation(cyl, images)
