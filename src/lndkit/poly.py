"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are tuples of Python ``int`` exponents, so no exponent can
overflow. A polynomial is a positive ``int`` denominator ``den`` under a
dict ``num`` from monomial to nonzero ``int`` numerator, in no
particular order. The pair is kept canonical: gcd(den, every numerator)
= 1, and the zero polynomial has den 1. So equal polynomials have equal
``(arity, den, num)``, and equality and hashing look only at those.
The ring operations, the derivative and the parser work on the
numerators and look for a common factor only when ``den`` is not 1, so
arithmetic on integer polynomials builds no ``Fraction`` and takes no
gcd.

The public constructor checks its input and sums its terms with
``_sum``; the operations build their result dicts directly. Both end in
the trusted ``_from_num``, the one place that brings num/den to lowest
terms. The rational views ``coeffs`` (monomial to ``Fraction``) and
``terms`` (grevlex-descending pairs) are built from num/den on each
read. Term order appears only where it is asked for: ``terms``,
``format`` and ``leading(order)`` (memoised per order).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    ParseError,
    UnknownVariable,
)

Monomial = tuple[int, ...]


def _is_int(x) -> bool:
    """True for an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def grevlex_key(m: Monomial):
    """Sort key realizing grevlex: higher keys are larger monomials."""
    return (sum(m), tuple(map(neg, reversed(m))))


_set = object.__setattr__


def _from_num(arity: int, num: dict[Monomial, int], den: int = 1) -> "Polynomial":
    """Trusted constructor for num/den: takes ownership of `num` without checks.

    Every key must be a tuple of `arity` non-negative exponents and every
    value a nonzero int; `den` is a positive int. When `den` is not 1, the
    gcd of den and the numerators is divided out.
    """
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    p = object.__new__(Polynomial)
    _set(p, "arity", arity)
    _set(p, "num", num)
    _set(p, "den", den)
    return p


def _add_into(acc: dict[Monomial, int], num: dict[Monomial, int]) -> None:
    """acc += num in place, dropping the monomials that cancel."""
    for m, c in num.items():
        c += acc.get(m, 0)
        if c:
            acc[m] = c
        else:
            del acc[m]


def _mul(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """The product of two numerator dicts."""
    acc: dict[Monomial, int] = {}
    right = b.items()
    for m1, c1 in a.items():
        for m2, c2 in right:
            m = tuple(map(add, m1, m2))
            c = acc.get(m, 0) + c1 * c2
            if c:
                acc[m] = c
            else:
                del acc[m]
    return acc


def _sum(arity: int, parts: Sequence[tuple[dict[Monomial, int], int]]) -> "Polynomial":
    """The sum of num/den over the (num, den) pairs of `parts`, each den > 0,
    brought to the lcm of the denominators."""
    den = lcm(*[d for _, d in parts])
    acc: dict[Monomial, int] = {}
    for num, d in parts:
        k = den // d
        _add_into(acc, num if k == 1 else {m: c * k for m, c in num.items()})
    return _from_num(arity, acc, den)


class Polynomial:
    """Immutable polynomial num/den: an int denominator under a dict from
    monomial to nonzero int numerator."""

    # `_leads` is filled on first use. It is the one view kept, because
    # leading terms are re-read: `_autoreduce` calls `reduce_poly` once per
    # basis element, and each call reads the leading monomials of the
    # elements reduced before it, for divisors of its own (399 of 534
    # reads are repeats in a seed-1 `ideal` round, all from there).
    __slots__ = ("arity", "num", "den", "_leads")

    def __new__(cls, arity: int, terms: Iterable[tuple[Monomial, Fraction]]):
        parts = []
        for mono, coeff in terms:
            mono = tuple(mono)
            if len(mono) != arity:
                raise ArityMismatch(
                    f"monomial of length {len(mono)} in arity-{arity} ring"
                )
            if not all(_is_int(e) and e >= 0 for e in mono):
                raise ValueError(f"exponents must be non-negative ints, got {mono}")
            c = Fraction(coeff)
            if c:
                parts.append(({mono: c.numerator}, c.denominator))
        return _sum(arity, parts)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the trusted constructor,
        # not through the checking __new__ or the blocked __setattr__
        return (_from_num, (self.arity, dict(self.num), self.den))

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "Polynomial":
        return _from_num(arity, {})

    @staticmethod
    def constant(arity: int, c) -> "Polynomial":
        c = Fraction(c)
        return _from_num(
            arity, {(0,) * arity: c.numerator} if c else {}, c.denominator
        )

    @staticmethod
    def variable(arity: int, index: int) -> "Polynomial":
        if not 0 <= index < arity:
            raise IndexOutOfRange(f"variable index {index} in arity {arity}")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return _from_num(arity, {mono: 1})

    @staticmethod
    def monomial(arity: int, exponents: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(arity, [(exponents, coeff)])

    # ---- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> dict[Monomial, Fraction]:
        """The coefficients as a dict from monomial to nonzero Fraction."""
        den = self.den
        return {m: Fraction(c, den) for m, c in self.num.items()}

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """(monomial, coefficient) pairs, grevlex-descending."""
        return tuple(
            sorted(self.coeffs.items(), key=lambda t: grevlex_key(t[0]), reverse=True)
        )

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.num)

    def leading(self, order=None) -> tuple[Monomial, Fraction]:
        """Leading term under `order` (grevlex when None), memoised per order.

        `order` is anything with a `key(monomial)` method, such as a
        `groebner.MonomialOrder`.
        """
        try:
            leads = self._leads
        except AttributeError:
            leads = {}
            _set(self, "_leads", leads)
        lt = leads.get(order)
        if lt is None:
            if not self.num:
                raise ValueError("zero polynomial has no leading term")
            lm = max(self.num, key=grevlex_key if order is None else order.key)
            lt = leads[order] = (lm, Fraction(self.num[lm], self.den))
        return lt

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.num.get(tuple(mono), 0), self.den)

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.arity == other.arity
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.arity, self.den, frozenset(self.num.items())))

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.arity != self.arity:
                raise ArityMismatch(f"arity {self.arity} vs {other.arity}")
            return other
        return Polynomial.constant(self.arity, other)

    # ---- ring operations -------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        return _sum(self.arity, [(self.num, self.den), (other.num, other.den)])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _from_num(self.arity, {m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        return _from_num(self.arity, _mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        # (num/den)^n = num^n / den^n, whose content is coprime to den^n
        den = self.den**n
        if n and len(self.num) <= 1:  # a term or zero: no products needed
            return _from_num(
                self.arity,
                {tuple(e * n for e in m): c**n for m, c in self.num.items()},
                den,
            )
        # n products by the base: for a base of several terms that takes
        # far fewer term products than repeated squaring, as for sparse
        # polynomials in general (Fateman, "On the computation of powers
        # of sparse polynomials", 1974)
        result = {(0,) * self.arity: 1}
        for _ in range(n):
            result = _mul(result, self.num)
        return _from_num(self.arity, result, den)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.arity)
        k = c.numerator
        num = {m: v * k for m, v in self.num.items()}
        return _from_num(self.arity, num, self.den * c.denominator)

    # ---- calculus / grading -------------------------------------------------

    def partial_derivative(self, var_index: int) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        if not 0 <= var_index < self.arity:
            raise IndexOutOfRange(f"index {var_index} in arity {self.arity}")
        out = {}
        for m, c in self.num.items():
            e = m[var_index]
            if e:
                dm = m[:var_index] + (e - 1,) + m[var_index + 1 :]
                out[dm] = c * e
        return _from_num(self.arity, out, self.den)

    def weighted_degree(self, w: Sequence[int]) -> int:
        if len(w) != self.arity:
            raise ArityMismatch(f"weight length {len(w)} vs arity {self.arity}")
        if not self.num:
            raise ValueError("weighted degree of zero polynomial is undefined")
        degs = {sum(e * wi for e, wi in zip(m, w)) for m in self.num}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous for these weights")
        return degs.pop()

    def weighted_components(
        self, w: Sequence[int]
    ) -> list[tuple[int, "Polynomial"]]:
        """Split into w-homogeneous pieces, sorted by increasing degree."""
        if len(w) != self.arity:
            raise ArityMismatch(f"weight length {len(w)} vs arity {self.arity}")
        buckets: dict[int, dict[Monomial, int]] = {}
        for m, c in self.num.items():
            d = sum(e * wi for e, wi in zip(m, w))
            buckets.setdefault(d, {})[m] = c
        return [
            (d, _from_num(self.arity, buckets[d], self.den)) for d in sorted(buckets)
        ]

    def is_homogeneous(self, w: Sequence[int]) -> bool:
        return len(self.weighted_components(w)) <= 1

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.arity:
            raise ArityMismatch(f"point length {len(point)} vs arity {self.arity}")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for m, c in self.num.items():
            v = c
            for e, x in zip(m, pt):
                if e:
                    v *= x**e
            total += v
        return total / self.den

    # ---- ring embeddings -------------------------------------------------

    def extend(self, extra: int) -> "Polynomial":
        """Embed into a ring with `extra` fresh variables appended."""
        if extra < 0:
            raise ValueError("extra must be >= 0")
        pad = (0,) * extra
        return _from_num(
            self.arity + extra, {m + pad: c for m, c in self.num.items()}, self.den
        )

    # ---- formatting -------------------------------------------------

    def format(self, vars: Sequence[str]) -> str:
        if len(vars) != self.arity:
            raise ArityMismatch(f"{len(vars)} names for arity {self.arity}")
        if not self.num:
            return "0"
        pieces = []
        for i, (m, c) in enumerate(self.terms):
            factors = []
            for name, e in zip(vars, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if i == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.arity)]
        return f"Polynomial({self.format(names)!r})"


# ---- parsing ----------------------------------------------------------

_TOKEN_CHARS = set("+-*^/()")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append(("op", ch))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr  := term (('+'|'-') term)*
    term  := unary ('*' unary)*
    unary := '-' unary | power
    power := atom ('^' INT)?
    atom  := NUMBER | IDENT | '(' expr ')'        NUMBER := INT ('/' INT)?
    """

    def __init__(self, tokens, vars: Sequence[str], arity: int):
        self.tokens = tokens
        self.pos = 0
        self.vars = {name: i for i, name in enumerate(vars)}
        self.arity = arity

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, found {tok[1]!r}")

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()[1]!r}")
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.unary()
        while self.peek() == ("op", "*"):
            self.take()
            p = p * self.unary()
        return p

    def unary(self) -> Polynomial:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Polynomial:
        p = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            tok = self.take()
            if tok[0] != "int":
                raise ParseError(f"exponent must be an integer, found {tok[1]!r}")
            return p ** int(tok[1])
        return p

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok[0] == "int":
            num = int(tok[1])
            if self.peek() == ("op", "/"):
                save = self.pos
                self.take()
                nxt = self.peek()
                if nxt is not None and nxt[0] == "int":
                    den = int(self.take()[1])
                    if den == 0:
                        raise ParseError("zero denominator")
                    return Polynomial.constant(self.arity, Fraction(num, den))
                self.pos = save
                raise ParseError("'/' is only allowed inside rational literals")
            return Polynomial.constant(self.arity, num)
        if tok[0] == "ident":
            idx = self.vars.get(tok[1])
            if idx is None:
                raise UnknownVariable(f"unknown variable {tok[1]!r}")
            return Polynomial.variable(self.arity, idx)
        if tok == ("op", "("):
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {tok[1]!r}")


def parse_poly(text: str, vars: Sequence[str]) -> Polynomial:
    """Parse `text` into the canonical polynomial over the named variables."""
    if len(set(vars)) != len(vars):
        raise ValueError("duplicate variable names")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens, vars, len(vars)).parse()
