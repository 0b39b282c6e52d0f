"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are exponent tuples, coefficients are ``fractions.Fraction``.
Terms are kept in a canonical order (graded reverse lexicographic,
descending) so equal polynomials have identical representations.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    ExponentOverflow,
    IndexOutOfRange,
    ParseError,
    UnknownVariable,
)

Monomial = tuple[int, ...]

# exponents stay within a signed 64-bit machine word
EXPONENT_CAP = 2**63 - 1


def grevlex_key(m: Monomial):
    """Sort key realizing grevlex: higher keys are larger monomials."""
    return (sum(m), tuple(map(neg, reversed(m))))


def _check_exponents(m: Monomial) -> Monomial:
    for e in m:
        if e > EXPONENT_CAP:
            raise ExponentOverflow(f"exponent {e} exceeds {EXPONENT_CAP}")
    return m


class Polynomial:
    """Immutable polynomial with Fraction coefficients in canonical form."""

    __slots__ = ("arity", "terms", "_hash")

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
            _check_exponents(mono)
            c = collected.get(mono, Fraction(0)) + Fraction(coeff)
            if c:
                collected[mono] = c
            elif mono in collected:
                del collected[mono]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(
            self,
            "terms",
            tuple(
                sorted(collected.items(), key=lambda t: grevlex_key(t[0]), reverse=True)
            ),
        )
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "Polynomial":
        return Polynomial(arity, ())

    @staticmethod
    def constant(arity: int, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial.zero(arity)
        return Polynomial(arity, [((0,) * arity, c)])

    @staticmethod
    def variable(arity: int, index: int) -> "Polynomial":
        if not 0 <= index < arity:
            raise IndexOutOfRange(f"variable index {index} in arity {arity}")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return Polynomial(arity, [(mono, Fraction(1))])

    @staticmethod
    def monomial(arity: int, exponents: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(arity, [(tuple(exponents), Fraction(coeff))])

    # ---- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m, _ in self.terms)

    def constant_value(self) -> Fraction:
        for m, c in self.terms:
            if not any(m):
                return c
        return Fraction(0)

    def leading(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def coefficient(self, mono: Monomial) -> Fraction:
        mono = tuple(mono)
        for m, c in self.terms:
            if m == mono:
                return c
        return Fraction(0)

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of zero polynomial is undefined")
        return max(sum(m) for m, _ in self.terms)

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.arity, self.terms)))
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
        return Polynomial(self.arity, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.arity, [(m, -c) for m, c in self.terms])

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _check_exponents(tuple(a + b for a, b in zip(m1, m2)))
                c = acc.get(m, Fraction(0)) + c1 * c2
                if c:
                    acc[m] = c
                elif m in acc:
                    del acc[m]
        return Polynomial(self.arity, acc.items())

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
        return Polynomial(self.arity, [(m, coeff * c) for m, coeff in self.terms])

    # ---- calculus / grading -------------------------------------------------

    def partial_derivative(self, var_index: int) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        if not 0 <= var_index < self.arity:
            raise IndexOutOfRange(f"index {var_index} in arity {self.arity}")
        out = []
        for m, c in self.terms:
            e = m[var_index]
            if e:
                dm = tuple(
                    v - 1 if i == var_index else v for i, v in enumerate(m)
                )
                out.append((dm, c * e))
        return Polynomial(self.arity, out)

    def weighted_degree(self, w: Sequence[int]) -> int:
        if len(w) != self.arity:
            raise ArityMismatch(f"weight length {len(w)} vs arity {self.arity}")
        if not self.terms:
            raise ValueError("weighted degree of zero polynomial is undefined")
        degs = {sum(e * wi for e, wi in zip(m, w)) for m, _ in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous for these weights")
        return degs.pop()

    def weighted_components(
        self, w: Sequence[int]
    ) -> list[tuple[int, "Polynomial"]]:
        """Split into w-homogeneous pieces, sorted by increasing degree."""
        if len(w) != self.arity:
            raise ArityMismatch(f"weight length {len(w)} vs arity {self.arity}")
        buckets: dict[int, list[tuple[Monomial, Fraction]]] = {}
        for m, c in self.terms:
            d = sum(e * wi for e, wi in zip(m, w))
            buckets.setdefault(d, []).append((m, c))
        return [
            (d, Polynomial(self.arity, buckets[d])) for d in sorted(buckets)
        ]

    def is_homogeneous(self, w: Sequence[int]) -> bool:
        return len(self.weighted_components(w)) <= 1

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.arity:
            raise ArityMismatch(f"point length {len(point)} vs arity {self.arity}")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for m, c in self.terms:
            v = c
            for e, x in zip(m, pt):
                if e:
                    v *= x**e
            total += v
        return total

    # ---- ring embeddings -------------------------------------------------

    def extend(self, extra: int) -> "Polynomial":
        """Embed into a ring with `extra` fresh variables appended."""
        pad = (0,) * extra
        return Polynomial(
            self.arity + extra, [(m + pad, c) for m, c in self.terms]
        )

    # ---- formatting -------------------------------------------------

    def format(self, vars: Sequence[str]) -> str:
        if len(vars) != self.arity:
            raise ArityMismatch(f"{len(vars)} names for arity {self.arity}")
        if not self.terms:
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
