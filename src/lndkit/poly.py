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
``_sum``. The operations build their result dicts directly, and so does
the parser: a term's numbers and variables fold into one dict entry, and
only parenthesised groups are multiplied. All end in the trusted
``_from_num``, the one place that brings num/den to lowest terms. The
rational views ``coeffs`` (monomial to ``Fraction``) and ``terms``
(grevlex-descending pairs) are built from num/den on each read. Term
order appears only where it is asked for: ``terms``, ``format`` and
``leading(order)``.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg

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
    _set(p, "_memo", None)
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

    # `_memo` is None, or on each element of a reduced basis a dict from
    # its `_Packing` to the packed form of `num`, which `groebner` keeps so
    # that no division packs the element again. Copy and pickle drop it.
    __slots__ = ("arity", "num", "den", "_memo")

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
            c = _number(coeff)
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
        c = _number(c)
        return _from_num(
            arity, {(0,) * arity: c.numerator} if c else {}, c.denominator
        )

    @staticmethod
    def variable(arity: int, index: int) -> "Polynomial":
        if not (_is_int(index) and 0 <= index < arity):
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
        """Leading term under `order` (grevlex when None).

        `order` is anything with a `key(monomial)` method, such as a
        `groebner.MonomialOrder`.
        """
        if not self.num:
            raise ValueError("zero polynomial has no leading term")
        lm = max(self.num, key=grevlex_key if order is None else order.key)
        return lm, Fraction(self.num[lm], self.den)

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
        if not _is_int(n) or n < 0:
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
        c = _number(c)
        if not c:
            return Polynomial.zero(self.arity)
        k = c.numerator
        num = {m: v * k for m, v in self.num.items()}
        return _from_num(self.arity, num, self.den * c.denominator)

    # ---- calculus / grading -------------------------------------------------

    def partial_derivative(self, var_index: int) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        if not (_is_int(var_index) and 0 <= var_index < self.arity):
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
        pt = [_number(x) for x in point]
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
        if not _is_int(extra):
            raise ValueError(f"extra must be an integer, not {extra!r}")
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
            mag = _rational(abs(c))
            if factors and mag == "1":
                body = "*".join(factors)
            elif factors:
                body = f"{mag}*" + "*".join(factors)
            else:
                body = mag
            if i == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.arity)]
        return f"Polynomial({self.format(names)!r})"


# ---- parsing ----------------------------------------------------------

# A token: decimal digits, a word (an identifier if it starts with a letter
# or '_'), or one other non-space character. Kept as a string for `re`'s
# own cache, so that importing lndkit compiles nothing.
_TOKEN = r"\d+|\w+|\S"


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # past the interpreter's limit on digits
        raise ParseError(f"integer literal of {len(tok)} digits is too long") from None


def _digits(n: int) -> str:
    """str(n) for an int n >= 0, also past the limit on digits that `_int`
    holds literals to: a long n is split in two at a power of ten."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half: a bit is worth 0.30103 digits
        high, low = divmod(n, 10**k)
        return _digits(high) + _digits(low).zfill(k)


def _rational(c: Fraction) -> str:
    """str(c) for a Fraction c, however many digits it has."""
    text = _digits(abs(c.numerator))
    if c.denominator != 1:
        text += f"/{_digits(c.denominator)}"
    return text if c >= 0 else "-" + text


def _check_power(k: int, *numbers: int) -> None:
    """ParseError if a k-th power of these numbers (a denominator among
    them) could pass the limit on decimal digits that `_int` holds
    literals to; checked only for k > 1, before the power is computed.
    |a|^k <= 2^(k*b) for b the bit length of |a| - 1, and a bit is worth
    under 0.30103 digits, so k*b*0.30103 < limit keeps within it."""
    if k > 1:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        bits = max(abs(a) - 1 for a in numbers).bit_length()
        if limit and k * bits * 30103 >= limit * 100000:
            raise ParseError(f"power too large: it could pass {limit} digits")


def _exponent(tokens: list[str], i: int) -> tuple[int, int]:
    """The exponent of a '^' at tokens[i] (1 if none) and the index after it."""
    if i == len(tokens) or tokens[i] != "^":
        return 1, i
    if i + 1 == len(tokens):
        raise ParseError("unexpected end of expression")
    tok = tokens[i + 1]
    if not tok[0].isdecimal():
        raise ParseError(f"exponent must be an integer, found {tok!r}")
    return _int(tok), i + 2


def _expr(tokens: list[str], i: int, index: dict[str, int], arity: int):
    """The expr at tokens[i] as (numerator dict, denominator, index after it).

    A term's numbers and variables fold into one coefficient c/d and one
    exponent list; only parenthesised groups are multiplied as dicts.
    """
    n = len(tokens)
    acc: dict[Monomial, int] = {}
    den = 1
    c = 1
    while True:
        d = 1
        exps = [0] * arity
        group = None  # the product of the term's groups, over d
        while True:
            while i < n and tokens[i] == "-":
                c = -c
                i += 1
            if i == n:
                raise ParseError("unexpected end of expression")
            tok = tokens[i]
            first = tok[0]
            i += 1
            if first.isdecimal():
                a, b = _int(tok), 1
                if i < n and tokens[i] == "/":
                    if i + 1 == n or not tokens[i + 1][0].isdecimal():
                        raise ParseError("'/' is only allowed inside rational literals")
                    b = _int(tokens[i + 1])
                    if not b:
                        raise ParseError("zero denominator")
                    i += 2
                k, i = _exponent(tokens, i)
                _check_power(k, a, b)
                c *= a**k
                d *= b**k
            elif first.isalpha() or first == "_":
                j = index.get(tok)
                if j is None:
                    raise UnknownVariable(f"unknown variable {tok!r}")
                k, i = _exponent(tokens, i)
                exps[j] += k
            elif tok == "(":
                num, nd, i = _expr(tokens, i, index, arity)
                if i == n:
                    raise ParseError("unexpected end of expression")
                if tokens[i] != ")":
                    raise ParseError(f"expected ')', found {tokens[i]!r}")
                k, i = _exponent(tokens, i + 1)
                if k != 1:
                    _check_power(k, nd, *num.values())
                    p = _from_num(arity, num, nd) ** k
                    num, nd = p.num, p.den
                group = num if group is None else _mul(group, num)
                d *= nd
            else:
                raise ParseError(f"unexpected token {tok!r}")
            if i == n or tokens[i] != "*":
                break
            i += 1
        if c:
            if d != den:  # bring acc and the term to lcm(den, d)
                common = lcm(den, d)
                if common != den:
                    s = common // den
                    acc = {m: v * s for m, v in acc.items()}
                    den = common
                c *= common // d
            mono = tuple(exps)
            _add_into(acc, {mono: c} if group is None else {
                tuple(map(add, m, mono)): v * c for m, v in group.items()
            })
        if i == n or tokens[i] not in ("+", "-"):
            return acc, den, i
        c = -1 if tokens[i] == "-" else 1
        i += 1


def parse_poly(text: str, vars: Sequence[str]) -> Polynomial:
    """Parse `text` into the canonical polynomial over the named variables.

    expr  := term (('+'|'-') term)*
    term  := unary ('*' unary)*
    unary := '-' unary | power
    power := atom ('^' INT)?
    atom  := NUMBER | IDENT | '(' expr ')'        NUMBER := INT ('/' INT)?

    The terms are summed into one numerator dict over a common
    denominator, brought to lowest terms once at the end.
    """
    if len(set(vars)) != len(vars):
        raise ValueError("duplicate variable names")
    tokens = re.findall(_TOKEN, text)
    if not tokens:
        raise ParseError("empty expression")
    try:
        num, den, i = _expr(tokens, 0, {v: j for j, v in enumerate(vars)}, len(vars))
        if i < len(tokens):
            raise ParseError(f"trailing input at token {tokens[i]!r}")
    except (ParseError, RecursionError) as exc:
        # a character that starts no token is reported first, wherever it is
        for match in re.finditer(_TOKEN, text):
            ch = match[0][0]
            if not (ch.isalpha() or ch.isdecimal() or ch in "_+-*^/()"):
                raise ParseError(
                    f"unexpected character {ch!r} at position {match.start()}"
                ) from None
        if isinstance(exc, RecursionError):  # _expr recurses once per '('
            raise ParseError("parentheses nested too deeply") from None
        raise
    return _from_num(len(vars), num, den)


def _number(x) -> Fraction:
    """The rational a number argument names: a str as `parse_poly` reads a
    number, a bool refused with TypeError, anything else by `Fraction`."""
    if isinstance(x, str):
        return parse_poly(x, ()).coefficient(())
    if isinstance(x, bool):
        raise TypeError(f"a boolean is not a number here: {x!r}")
    return Fraction(x)
