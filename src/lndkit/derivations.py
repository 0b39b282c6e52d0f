"""Derivations on finitely presented algebras.

A PresentedAlgebra is K[vars]/(relations); computation happens on normal
forms modulo a cached Gröbner basis of the relation ideal. A Derivation
is given by generator images and extended by the Leibniz rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .errors import (
    ArityMismatch,
    NotASlice,
    NotVerifiedLND,
    ReservedVariable,
)
from .groebner import (
    GREVLEX, GroebnerBasis, Ideal, MonomialOrder, groebner, integer_weights, normal_form
)
from .poly import Polynomial, _mul, _sum, parse_poly

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
        arity = len(self.vars)
        self.relations = tuple(r for r in relations if not r.is_zero())
        for r in self.relations:
            if r.arity != arity:
                raise ArityMismatch("relation arity differs from variable count")
        self.order = order
        if basis is None and self.relations:
            basis = groebner(Ideal.of(self.relations, arity), order).basis
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


@dataclass(frozen=True)
class NilpotencyVerdict:
    """Outcome of a bounded local-nilpotency check on the generators."""

    status: str  # "verified" | "not_nilpotent" | "inconclusive"
    max_order: int | None = None
    witness_var: str | None = None
    witness_order: int | None = None
    bound: int | None = None

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


class Derivation:
    """Derivation determined by generator images, reduced to normal form."""

    def __init__(self, algebra: PresentedAlgebra, images: Sequence[Polynomial]):
        if len(images) != algebra.arity:
            raise ArityMismatch("one image per generator required")
        self.algebra = algebra
        self.images = tuple(algebra.normal(f) for f in images)
        self._well_defined: tuple[bool, tuple] | None = None
        self._verdict: NilpotencyVerdict | None = None  # only a verified one

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

    def apply(self, f: Polynomial) -> Polynomial:
        """D(f) = sum_j (df/dx_j) D(x_j), reduced modulo relations."""
        if f.arity != self.algebra.arity:
            raise ArityMismatch("polynomial arity differs from algebra arity")
        parts = []
        for j, image in enumerate(self.images):
            if image.num:
                df = f.partial_derivative(j)
                if df.num:
                    parts.append((_mul(df.num, image.num), df.den * image.den))
        return self.algebra.normal(_sum(f.arity, parts))

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
        """Iterate D on each generator, up to `bound` applications.

        A chain entry proportional to an earlier one certifies
        non-nilpotency; exhausting the bound is Inconclusive. Raises
        NotVerifiedLND if D does not preserve the relations, since no
        verdict about such a D is a verdict about an LND. A verified
        verdict is kept and reused at any bound.
        """
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if not self.is_well_defined()[0]:
            raise NotVerifiedLND(
                f"derivation {self!r} failed verification:"
                " it does not preserve the relations"
            )
        if self._verdict is not None:
            return self._verdict
        max_order = 0
        for j, name in enumerate(self.algebra.vars):
            chain = [self.images[j]]
            order = None
            while len(chain) <= bound:
                current = chain[-1]
                if current.is_zero():
                    order = len(chain)
                    break
                if _proportional_index(chain[:-1], current) is not None:
                    return NilpotencyVerdict(
                        "not_nilpotent",
                        witness_var=name,
                        witness_order=len(chain),
                        bound=bound,
                    )
                chain.append(self.apply(current))
            if order is None:
                return NilpotencyVerdict("inconclusive", bound=bound)
            max_order = max(max_order, order)
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
        """Yield f, D(f), D^2(f), ... stopping at the first zero."""
        current = self.algebra.normal(f)
        while not current.is_zero():
            yield current
            current = self.apply(current)

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
        s = Fraction(s)
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
        return Ideal.of(self.images, self.algebra.arity)

    def __repr__(self) -> str:
        imgs = ", ".join(
            f"{v} -> {self.algebra.format(f)}"
            for v, f in zip(self.algebra.vars, self.images)
        )
        return f"Derivation({imgs})"


def _proportional_index(chain: list[Polynomial], current: Polynomial):
    """Index of an earlier chain entry that current is a multiple of."""
    cur = current.num
    for idx, earlier in enumerate(chain):
        ear = earlier.num
        if not ear or ear.keys() != cur.keys():
            continue
        m0 = next(iter(cur))
        a, b = cur[m0], ear[m0]
        # cur[m] / e == a / b for every monomial m
        if all(cur[m] * b == e * a for m, e in ear.items()):
            return idx
    return None


def lift(
    D: Derivation, i: int, cyl: PresentedAlgebra | None = None
) -> Derivation:
    """Extend D to K[Y][u] by D(u)=0 and multiply by u^i."""
    if i < 0:
        raise ValueError("power of the cylinder variable must be >= 0")
    if cyl is None:
        cyl = cylinder(D.algebra)
    base = D.algebra.arity
    if cyl.arity != base + 1 or cyl.vars[:base] != D.algebra.vars:
        raise ArityMismatch("cylinder algebra does not extend the base")
    u_power = Polynomial.monomial(cyl.arity, (0,) * base + (i,))
    images = [img.extend(1) * u_power for img in D.images]
    images.append(Polynomial.zero(cyl.arity))
    return Derivation(cyl, images)
