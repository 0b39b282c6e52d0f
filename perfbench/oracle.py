"""Independent exact arithmetic for the benchmark's correctness checks.

A polynomial is a dict {exponent tuple: Fraction}. Parsing goes through
Python's ``ast`` and division is written out here, so a check never
runs the lndkit code path it is checking.
"""

from __future__ import annotations

import ast
from fractions import Fraction


def const(arity: int, c) -> dict:
    c = Fraction(c)
    return {(0,) * arity: c} if c else {}


def var(arity: int, i: int) -> dict:
    return {tuple(1 if k == i else 0 for k in range(arity)): Fraction(1)}


def add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def parse(text: str, names) -> dict:
    """Polynomial from the benchmark's input syntax (``^`` is power)."""
    names = list(names)
    arity = len(names)

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return const(arity, node.value)
        if isinstance(node, ast.Name):
            return var(arity, names.index(node.id))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return {m: -c for m, c in ev(node.operand).items()}
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                out = const(arity, 1)
                for _ in range(node.right.value):
                    out = mul(out, ev(node.left))
                return out
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return add(a, b)
            if isinstance(node.op, ast.Sub):
                return add(a, b, -1)
            if isinstance(node.op, ast.Mult):
                return mul(a, b)
            if isinstance(node.op, ast.Div):
                return {m: c / b[(0,) * arity] for m, c in a.items()}
        raise ValueError(f"unsupported syntax in {text!r}")

    return ev(ast.parse(text.replace("^", "**"), mode="eval"))


def from_poly(P) -> dict:
    """Dict form of an lndkit Polynomial (reads its public `terms`)."""
    return {tuple(m): Fraction(c) for m, c in P.terms}


def order_key(order: str):
    if order == "lex":
        return lambda m: m
    if order == "grevlex":
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))
    raise ValueError(f"unknown order {order!r}")


def remainder(f: dict, basis: list[dict], order: str) -> dict:
    """Remainder of multivariate division of f by `basis`."""
    key = order_key(order)
    leads = [max(g, key=key) for g in basis]
    p, rem = dict(f), {}
    while p:
        lm = max(p, key=key)
        lc = p[lm]
        for g, glm in zip(basis, leads):
            if all(a >= b for a, b in zip(lm, glm)):
                q = tuple(a - b for a, b in zip(lm, glm))
                scale = lc / g[glm]
                p = add(p, {tuple(a + b for a, b in zip(m, q)): c * scale
                            for m, c in g.items()}, -1)
                break
        else:
            rem[lm] = lc
            del p[lm]
    return rem


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        v = c
        for e, x in zip(m, point):
            v *= Fraction(x) ** e
        total += v
    return total


def derivative(p: dict, i: int) -> dict:
    out = {}
    for m, c in p.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return out


def apply_derivation(images: list[dict], p: dict) -> dict:
    out: dict = {}
    for i, img in enumerate(images):
        out = add(out, mul(derivative(p, i), img))
    return out


def weighted_degrees(p: dict, w) -> set[int]:
    return {sum(e * x for e, x in zip(m, w)) for m in p}
