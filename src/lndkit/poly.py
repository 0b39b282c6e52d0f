"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are tuples of Python ``int`` exponents, so no exponent can
overflow; coefficients are ``fractions.Fraction``.
A polynomial stores its terms in one dict, ``coeffs``, from monomial to
nonzero coefficient, in no particular order; equality and hashing look
only at that mapping. The public constructor checks its input; the ring
operations build their result dicts directly and hand them to the
trusted ``_from_coeffs``. Term order appears only where it is asked
for: ``terms`` (grevlex-descending, built on first use and cached),
``format`` and ``leading(order)`` (memoised per order).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    ParseError,
    UnknownVariable,
)

Monomial = tuple[int, ...]


def grevlex_key(m: Monomial):
    """Sort key realizing grevlex: higher keys are larger monomials."""
    return (sum(m), tuple(map(neg, reversed(m))))


_set = object.__setattr__


def _fill(p: "Polynomial", arity: int, coeffs: dict[Monomial, Fraction]) -> None:
    _set(p, "arity", arity)
    _set(p, "coeffs", coeffs)
    _set(p, "_terms", None)
    _set(p, "_leads", None)
    _set(p, "_hash", None)


def _from_coeffs(arity: int, coeffs: dict[Monomial, Fraction]) -> "Polynomial":
    """Trusted constructor: takes ownership of `coeffs` without checks.

    Every key must be a tuple of `arity` non-negative exponents and every
    value a nonzero Fraction.
    """
    p = object.__new__(Polynomial)
    _fill(p, arity, coeffs)
    return p


def _add_into(
    acc: dict[Monomial, Fraction], coeffs: dict[Monomial, Fraction]
) -> None:
    """acc += coeffs in place, dropping the monomials that cancel."""
    for m, c in coeffs.items():
        v = acc.get(m)
        if v is None:
            acc[m] = c
        else:
            v += c
            if v:
                acc[m] = v
            else:
                del acc[m]


class Polynomial:
    """Immutable polynomial: a dict from monomial to nonzero Fraction."""

    __slots__ = ("arity", "coeffs", "_terms", "_leads", "_hash")

    def __init__(self, arity: int, terms: Iterable[tuple[Monomial, Fraction]]):
        collected: dict[Monomial, Fraction] = {}
        for mono, coeff in terms:
            mono = tuple(mono)
            if len(mono) != arity:
                raise ArityMismatch(
                    f"monomial of length {len(mono)} in arity-{arity} ring"
                )
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = collected.get(mono, Fraction(0)) + Fraction(coeff)
            if c:
                collected[mono] = c
            elif mono in collected:
                del collected[mono]
        _fill(self, arity, collected)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "Polynomial":
        return _from_coeffs(arity, {})

    @staticmethod
    def constant(arity: int, c) -> "Polynomial":
        c = Fraction(c)
        return _from_coeffs(arity, {(0,) * arity: c} if c else {})

    @staticmethod
    def variable(arity: int, index: int) -> "Polynomial":
        if not 0 <= index < arity:
            raise IndexOutOfRange(f"variable index {index} in arity {arity}")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return _from_coeffs(arity, {mono: Fraction(1)})

    @staticmethod
    def monomial(arity: int, exponents: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(arity, [(tuple(exponents), Fraction(coeff))])

    # ---- basic queries -------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """(monomial, coefficient) pairs, grevlex-descending."""
        terms = self._terms
        if terms is None:
            terms = tuple(
                sorted(
                    self.coeffs.items(),
                    key=lambda t: grevlex_key(t[0]),
                    reverse=True,
                )
            )
            _set(self, "_terms", terms)
        return terms

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.coeffs)

    def leading(self, order=None) -> tuple[Monomial, Fraction]:
        """Leading term under `order` (grevlex when None), memoised per order.

        `order` is anything with a `key(monomial)` method, such as a
        `groebner.MonomialOrder`.
        """
        leads = self._leads
        if leads is None:
            leads = {}
            _set(self, "_leads", leads)
        lt = leads.get(order)
        if lt is None:
            if not self.coeffs:
                raise ValueError("zero polynomial has no leading term")
            lm = max(self.coeffs, key=grevlex_key if order is None else order.key)
            lt = leads[order] = (lm, self.coeffs[lm])
        return lt

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.coeffs.get(tuple(mono), Fraction(0))

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash((self.arity, frozenset(self.coeffs.items()))))
        return self._hash

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.arity != self.arity:
                raise ArityMismatch(f"arity {self.arity} vs {other.arity}")
            return other
        return Polynomial.constant(self.arity, other)

    # ---- ring operations -------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        acc = dict(self.coeffs)
        _add_into(acc, other.coeffs)
        return _from_coeffs(self.arity, acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _from_coeffs(self.arity, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        acc: dict[Monomial, Fraction] = {}
        right = other.coeffs.items()
        for m1, c1 in self.coeffs.items():
            for m2, c2 in right:
                m = tuple(map(add, m1, m2))
                v = acc.get(m)
                if v is None:
                    acc[m] = c1 * c2
                else:
                    v += c1 * c2
                    if v:
                        acc[m] = v
                    else:
                        del acc[m]
        return _from_coeffs(self.arity, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.arity)
        return _from_coeffs(self.arity, {m: v * c for m, v in self.coeffs.items()})

    # ---- calculus / grading -------------------------------------------------

    def partial_derivative(self, var_index: int) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        if not 0 <= var_index < self.arity:
            raise IndexOutOfRange(f"index {var_index} in arity {self.arity}")
        out = {}
        for m, c in self.coeffs.items():
            e = m[var_index]
            if e:
                dm = m[:var_index] + (e - 1,) + m[var_index + 1 :]
                out[dm] = c * e
        return _from_coeffs(self.arity, out)

    def weighted_degree(self, w: Sequence[int]) -> int:
        if len(w) != self.arity:
            raise ArityMismatch(f"weight length {len(w)} vs arity {self.arity}")
        if not self.coeffs:
            raise ValueError("weighted degree of zero polynomial is undefined")
        degs = {sum(e * wi for e, wi in zip(m, w)) for m in self.coeffs}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous for these weights")
        return degs.pop()

    def weighted_components(
        self, w: Sequence[int]
    ) -> list[tuple[int, "Polynomial"]]:
        """Split into w-homogeneous pieces, sorted by increasing degree."""
        if len(w) != self.arity:
            raise ArityMismatch(f"weight length {len(w)} vs arity {self.arity}")
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.coeffs.items():
            d = sum(e * wi for e, wi in zip(m, w))
            buckets.setdefault(d, {})[m] = c
        return [
            (d, _from_coeffs(self.arity, buckets[d])) for d in sorted(buckets)
        ]

    def is_homogeneous(self, w: Sequence[int]) -> bool:
        return len(self.weighted_components(w)) <= 1

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.arity:
            raise ArityMismatch(f"point length {len(point)} vs arity {self.arity}")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for m, c in self.coeffs.items():
            v = c
            for e, x in zip(m, pt):
                if e:
                    v *= x**e
            total += v
        return total

    # ---- ring embeddings -------------------------------------------------

    def extend(self, extra: int) -> "Polynomial":
        """Embed into a ring with `extra` fresh variables appended."""
        if extra < 0:
            raise ValueError("extra must be >= 0")
        pad = (0,) * extra
        return _from_coeffs(
            self.arity + extra, {m + pad: c for m, c in self.coeffs.items()}
        )

    # ---- formatting -------------------------------------------------

    def format(self, vars: Sequence[str]) -> str:
        if len(vars) != self.arity:
            raise ArityMismatch(f"{len(vars)} names for arity {self.arity}")
        if not self.coeffs:
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
