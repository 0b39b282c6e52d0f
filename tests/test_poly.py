import copy
import math
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lndkit.errors import (
    ArityMismatch,
    IndexOutOfRange,
    ParseError,
    UnknownVariable,
)
from lndkit.groebner import GREVLEX, LEX
from lndkit.poly import Polynomial, grevlex_key, parse_poly

from helpers import assert_reduced_form, cli_env, rand_poly


# ---- parsing -------------------------------------------------------------


def test_parse_simple():
    p = parse_poly("x^2*y - 3", ["x", "y"])
    assert p.terms == (((2, 1), Fraction(1)), ((0, 0), Fraction(-3)))


def test_parse_danielewski_relation():
    p = parse_poly("x^1*y - (z^2 - 1)", ["x", "y", "z"])
    q = parse_poly("x*y - z^2 + 1", ["x", "y", "z"])
    assert p == q


def test_parse_koras_russell_cubic():
    p = parse_poly("x + x^2*y + z^2 + t^3", ["x", "y", "z", "t"])
    assert len(p.terms) == 4
    assert p.evaluate([0, 0, 0, 0]) == 0


def test_parse_rational_literals():
    p = parse_poly("1/2*x + 3/4", ["x"])
    assert p.coefficient((1,)) == Fraction(1, 2)
    assert p.coefficient((0,)) == Fraction(3, 4)


def test_parse_unary_minus_and_precedence():
    assert parse_poly("-x^2", ["x"]) == -parse_poly("x", ["x"]) ** 2
    assert parse_poly("2*x^3", ["x"]) == parse_poly("x", ["x"]) ** 3 * 2
    assert parse_poly("x - -x", ["x"]) == parse_poly("2*x", ["x"])


@pytest.mark.parametrize(
    "bad",
    [
        "", "x y", "2x", "x/2", "x^", "x^y", "(x", "x +", "x**2", "1/0", "²", "x^²",
        pytest.param("1" * 5000, id="5000-digit-literal"),
        pytest.param("(" * 1100 + "x" + ")" * 1100, id="1100-nested-parentheses"),
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_poly(bad, ["x", "y"])


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", ParseError, "empty expression"),
        ("x y", ParseError, "trailing input at token 'y'"),
        ("x +", ParseError, "unexpected end of expression"),
        ("x^y", ParseError, "exponent must be an integer, found 'y'"),
        ("x**2", ParseError, "unexpected token '*'"),
        ("(x y)", ParseError, "expected ')', found 'y'"),
        ("1/0", ParseError, "zero denominator"),
        ("1/x", ParseError, "'/' is only allowed inside rational literals"),
        ("x !", ParseError, "unexpected character '!' at position 2"),
        # a character outside the grammar is reported before any other error
        ("x y !", ParseError, "unexpected character '!' at position 4"),
        ("x^²", ParseError, "unexpected character '²' at position 2"),
        ("x + w", UnknownVariable, "unknown variable 'w'"),
    ],
)
def test_parse_error_messages(text, error, message):
    with pytest.raises(ParseError) as caught:
        parse_poly(text, ["x", "y"])
    assert type(caught.value) is error
    assert str(caught.value) == message


# Expression trees for the parser: leaves are variables, integers and
# rational literals; inner nodes are '+', '-', '*', unary "neg", "^" with
# a small exponent, and "()" for explicit parentheses.
TREE_VARS = ["x", "y", "z"]
tree_leaves = st.one_of(
    st.sampled_from(TREE_VARS).map(lambda v: ("var", v)),
    st.integers(0, 12).map(lambda n: ("int", n)),
    st.tuples(st.just("frac"), st.integers(0, 12), st.integers(1, 6)),
)
trees = st.recursive(
    tree_leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("()"), sub),
        st.tuples(st.just("^"), sub, st.integers(0, 3)),
    ),
    max_leaves=8,
)
# the grammar's levels: expr 0, term 1, unary 2, power 3, atom 4
LEVEL = {"+": 0, "-": 0, "*": 1}


def render(tree) -> tuple[list[str], int]:
    """The tokens of `tree` and the grammar level they form."""
    kind = tree[0]
    if kind in ("var", "int"):
        return [str(tree[1])], 4
    if kind == "frac":
        return [str(tree[1]), "/", str(tree[2])], 4
    if kind == "()":
        return ["(", *render(tree[1])[0], ")"], 4
    if kind == "neg":
        return ["-", *operand(tree[1], 2)], 2
    if kind == "^":
        return [*operand(tree[1], 4), "^", str(tree[2])], 3
    level = LEVEL[kind]
    return [*operand(tree[1], level), kind, *operand(tree[2], level + 1)], level


def operand(tree, level: int) -> list[str]:
    """The tokens of `tree`, in parentheses if they form a lower level."""
    tokens, have = render(tree)
    return tokens if have >= level else ["(", *tokens, ")"]


def evaluate(tree) -> Polynomial:
    """`tree` computed with the ring operations, which the parser does not use."""
    kind, n = tree[0], len(TREE_VARS)
    if kind == "var":
        return Polynomial.variable(n, TREE_VARS.index(tree[1]))
    if kind == "int":
        return Polynomial.constant(n, tree[1])
    if kind == "frac":
        return Polynomial.constant(n, Fraction(tree[1], tree[2]))
    if kind == "()":
        return evaluate(tree[1])
    if kind == "neg":
        return -evaluate(tree[1])
    if kind == "^":
        return evaluate(tree[1]) ** tree[2]
    a, b = evaluate(tree[1]), evaluate(tree[2])
    return a + b if kind == "+" else a - b if kind == "-" else a * b


@settings(max_examples=300, deadline=None)
@given(trees, st.lists(st.sampled_from(["", " ", "  ", "\t", "\n "]), min_size=1))
def test_parse_matches_ring_operations(tree, spaces):
    tokens, _ = render(tree)
    text = spaces[-1] + "".join(
        tok + spaces[i % len(spaces)] for i, tok in enumerate(tokens)
    )
    p = parse_poly(text, TREE_VARS)
    assert p == evaluate(tree)
    assert_reduced_form(p)


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_poly("x + w", ["x", "y"])


def test_format_parse_round_trip():
    rng = random.Random(7)
    names = ["x", "y", "z"]
    for _ in range(200):
        p = rand_poly(rng, 3, max_deg=4, max_terms=5)
        assert parse_poly(p.format(names), names) == p


def test_format_prints_numbers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    n = limit + 700
    p = Polynomial(2, [((1, 0), 10**n + 1), ((0, 0), Fraction(-1, 2 * 10**n))])
    ones = "1" + "0" * (n - 1) + "1"
    assert p.format(["x", "y"]) == f"{ones}*x - 1/2{'0' * n}"
    assert repr(Polynomial.constant(1, 10**5000)) == f"Polynomial('1{'0' * 5000}')"
    # the digits read back in chunks short enough for int()
    rng = random.Random(26)
    for _ in range(20):
        big = rng.randrange(10 ** (2 * limit), 10 ** (3 * limit))
        text = Polynomial.constant(0, -big).format([])
        assert text[0] == "-" and text[1] != "0"
        value = 0
        for i in range(1, len(text), 1000):
            chunk = text[i : i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == big


# ---- arithmetic -------------------------------------------------------------


def test_add_inverse():
    x = parse_poly("x", ["x", "y"])
    assert (x + (-x)).is_zero()


def test_mul_difference_of_squares():
    x = parse_poly("x", ["x", "y"])
    y = parse_poly("y", ["x", "y"])
    assert (x + y) * (x - y) == parse_poly("x^2 - y^2", ["x", "y"])


def test_pow_binomial():
    p = parse_poly("x + 1", ["x"])
    assert p**3 == parse_poly("x^3 + 3*x^2 + 3*x + 1", ["x"])


def test_pow_takes_only_non_negative_int_exponents():
    p = parse_poly("x + 1", ["x"])
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError):
            p**bad


def test_truth_iteration_and_reflected_subtraction():
    names = ["x", "y"]
    p = parse_poly("x^2 - 3/2*y + 1", names)
    assert p and not Polynomial.zero(2) and not (p - p)
    assert list(p) == list(p.terms) == [
        ((2, 0), Fraction(1)), ((0, 1), Fraction(-3, 2)), ((0, 0), Fraction(1))
    ]
    assert 1 - p == parse_poly("3/2*y - x^2", names)
    assert Fraction(1, 2) - p == -(p - Fraction(1, 2))


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_poly("x", ["x"]) + parse_poly("x", ["x", "y"])


POWER_TOO_LARGE = f"power too large: it could pass {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("text", ["x - 3^30000000", "(3)^30000000", "(2*x)^30000000"])
def test_oversized_numeric_powers_fail_before_they_are_computed(text):
    # each power would take seconds to compute and could not be printed
    start = time.perf_counter()
    with pytest.raises(ParseError) as caught:
        parse_poly(text, ["x"])
    assert str(caught.value) == POWER_TOO_LARGE
    assert time.perf_counter() - start < 0.5


def test_numeric_powers_up_to_the_digit_limit_parse():
    limit = sys.get_int_max_str_digits()
    # the largest power of 2 with at most `limit` digits, and the next
    k = int(limit / math.log10(2))
    for text in (f"2^{k}", f"(1/2)^{k}", f"(-2*x)^{k}"):
        p = parse_poly(text, ["x"])
        assert len(str(max(*p.num.values(), p.den, key=abs))) == limit
        with pytest.raises(ParseError, match="power too large"):
            parse_poly(text.replace(str(k), str(k + 1)), ["x"])
    # powers of 0 and 1, and of a group whose numbers are all 1, grow no number
    assert parse_poly("0^99999999 + 1^99999999 + (x)^99999999", ["x"]) == (
        Polynomial.constant(1, 1) + Polynomial.monomial(1, [99999999])
    )


def test_exponents_past_64_bits_stay_exact():
    big = Polynomial.monomial(1, [2**63])
    assert (big * Polynomial.variable(1, 0)).coeffs == {(2**63 + 1,): 1}
    assert parse_poly("x^9223372036854775808", ["x"]) == big


small_polys = st.builds(
    lambda seed: rand_poly(random.Random(seed), 2, max_deg=3, max_terms=4),
    st.integers(0, 10**9),
)


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys)
def test_partial_derivative_leibniz(f, g):
    for j in range(2):
        lhs = (f * g).partial_derivative(j)
        rhs = f * g.partial_derivative(j) + g * f.partial_derivative(j)
        assert lhs == rhs


# ---- the dict store against a dict oracle ----------------------------------

ARITY = 3
monomials = st.tuples(*[st.integers(0, 3)] * ARITY)
term_lists = st.lists(
    st.tuples(
        monomials, st.fractions(min_value=-4, max_value=4, max_denominator=3)
    ),
    max_size=7,
)


def oracle(terms) -> dict:
    """Collect terms into {monomial: coefficient}, dropping zeros."""
    out: dict = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def oracle_mul(a: dict, b: dict) -> dict:
    return oracle(
        (tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
        for m1, c1 in a.items()
        for m2, c2 in b.items()
    )


def assert_canonical(p: Polynomial) -> None:
    assert all(type(c) is Fraction and c != 0 for c in p.coeffs.values())
    keys = [grevlex_key(m) for m, _ in p.terms]
    assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))
    assert dict(p.terms) == p.coeffs


@settings(max_examples=120, deadline=None)
@given(
    term_lists,
    term_lists,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(0, ARITY - 1),
)
def test_operations_match_dict_oracle(ta, tb, k, j):
    a, b = Polynomial(ARITY, ta), Polynomial(ARITY, tb)
    oa, ob = oracle(ta), oracle(tb)
    assert a.coeffs == oa
    assert b.coeffs == ob
    expected = [
        (a + b, oracle([*oa.items(), *ob.items()])),
        (a - b, oracle([*oa.items(), *((m, -c) for m, c in ob.items())])),
        (-a, oracle((m, -c) for m, c in oa.items())),
        (a * b, oracle_mul(oa, ob)),
        (a.scale(k), oracle((m, c * k) for m, c in oa.items())),
        (
            a.partial_derivative(j),
            oracle(
                (m[:j] + (m[j] - 1,) + m[j + 1 :], c * m[j])
                for m, c in oa.items()
                if m[j]
            ),
        ),
    ]
    for got, want in expected:
        assert got.arity == ARITY
        assert got.coeffs == want
        assert_canonical(got)
    extended = a.extend(2)
    assert extended.arity == ARITY + 2
    assert extended.coeffs == {m + (0, 0): c for m, c in oa.items()}
    assert_canonical(extended)


@settings(max_examples=100, deadline=None)
@given(term_lists, st.data())
def test_permuted_terms_give_equal_polynomials(terms, data):
    shuffled = data.draw(st.permutations(terms))
    p, q = Polynomial(ARITY, terms), Polynomial(ARITY, shuffled)
    assert p == q
    assert hash(p) == hash(q)
    assert p.terms == q.terms
    assert_canonical(p)


@settings(max_examples=60, deadline=None)
@given(term_lists.filter(oracle))
def test_leading_per_order(terms):
    p = Polynomial(ARITY, terms)
    assert p.leading() == p.terms[0] == p.leading(GREVLEX)
    lm = max(p.coeffs)
    assert p.leading(LEX) == (lm, p.coeffs[lm])


def test_leading_of_zero():
    with pytest.raises(ValueError):
        Polynomial.zero(2).leading(LEX)


@settings(max_examples=60, deadline=None)
@given(term_lists, st.data())
def test_public_constructor_checks(terms, data):
    at = data.draw(st.integers(0, len(terms)))
    bad_length = (data.draw(st.integers(0, 3)),) * data.draw(
        st.sampled_from([ARITY - 1, ARITY + 1])
    )
    with pytest.raises(ArityMismatch):
        Polynomial(ARITY, [*terms[:at], (bad_length, 1), *terms[at:]])
    negative = data.draw(monomials)
    negative = negative[:1] + (-1,) + negative[2:]
    with pytest.raises(ValueError):
        Polynomial(ARITY, [*terms[:at], (negative, 1), *terms[at:]])
    for bad in (1.5, 0.5, True):
        fractional = negative[:1] + (bad,) + negative[2:]
        with pytest.raises(ValueError):
            Polynomial(ARITY, [*terms[:at], (fractional, 1), *terms[at:]])
        with pytest.raises(ValueError):
            Polynomial.monomial(ARITY, fractional)
    # exponents are unbounded: 2^63 is taken as given, not capped
    huge = Polynomial(ARITY, [*terms[:at], ((2**63, 0, 0), 1), *terms[at:]])
    assert huge.coeffs[(2**63, 0, 0)] == 1
    big = Polynomial.monomial(ARITY, (0, 2**63, 0))
    assert (big * big).coeffs == {(0, 2**64, 0): 1}


# ---- partial derivatives -------------------------------------------------


def test_partial_derivative_examples():
    assert parse_poly("z^2 - 1", ["z"]).partial_derivative(0) == parse_poly(
        "2*z", ["z"]
    )
    assert parse_poly("y", ["x", "y"]).partial_derivative(0).is_zero()
    names = ["T11", "T12"]
    assert parse_poly("T11^2*T12^3", names).partial_derivative(0) == parse_poly(
        "2*T11*T12^3", names
    )


def test_partial_derivative_index_range():
    with pytest.raises(IndexOutOfRange):
        parse_poly("x", ["x"]).partial_derivative(1)


# ---- weighted components ---------------------------------------------------


def test_weighted_components_cylinder_grading():
    f = parse_poly("y + u^2*y", ["y", "u"])
    comps = f.weighted_components([0, 1])
    assert [(d, c.format(["y", "u"])) for d, c in comps] == [
        (0, "y"),
        (2, "y*u^2"),
    ]


def test_weighted_components_univariate():
    f = parse_poly("x^2 + x", ["x"])
    assert f.weighted_components([1]) == [
        (1, parse_poly("x", ["x"])),
        (2, parse_poly("x^2", ["x"])),
    ]


def test_weighted_components_standard_grading():
    f = parse_poly("x*y - z^2 + 1", ["x", "y", "z"])
    comps = f.weighted_components([1, 1, 1])
    assert [d for d, _ in comps] == [0, 2]
    assert comps[0][1] == Polynomial.constant(3, 1)


def test_weighted_components_properties():
    rng = random.Random(11)
    for _ in range(100):
        f = rand_poly(rng, 3, max_deg=4, max_terms=5)
        w = [rng.randint(-2, 3) for _ in range(3)]
        comps = f.weighted_components(w)
        total = Polynomial.zero(3)
        degrees = []
        for d, c in comps:
            assert not c.is_zero()
            assert c.weighted_degree(w) == d
            degrees.append(d)
            total = total + c
        assert total == f
        assert degrees == sorted(degrees)
        assert bool(comps) == (not f.is_zero())


def test_weighted_components_zero():
    assert Polynomial.zero(2).weighted_components([1, 1]) == []


# ---- evaluation -------------------------------------------------------------


def test_evaluate_examples():
    assert parse_poly("x^2 - y", ["x", "y"]).evaluate([2, 4]) == 0
    cubic = parse_poly("x + x^2*y + z^2 + t^3", ["x", "y", "z", "t"])
    assert cubic.evaluate([0, 0, 0, 0]) == 0
    assert Polynomial.constant(2, 1).evaluate([Fraction(5, 7), -3]) == 1


def test_evaluate_arity():
    with pytest.raises(ArityMismatch):
        parse_poly("x", ["x", "y"]).evaluate([1])


XY_MIXED = parse_poly("x + y^2", ["x", "y"])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Polynomial.variable(2, 2), IndexOutOfRange, "variable index 2 in arity 2"),
        (lambda: XY_MIXED.weighted_degree([1]), ArityMismatch, "weight length 1 vs arity 2"),
        (lambda: Polynomial.zero(2).weighted_degree([1, 1]), ValueError,
         "weighted degree of zero polynomial is undefined"),
        (lambda: XY_MIXED.weighted_degree([1, 1]), ValueError,
         "polynomial is not homogeneous for these weights"),
        (lambda: XY_MIXED.weighted_components([1, 1, 1]), ArityMismatch,
         "weight length 3 vs arity 2"),
        (lambda: XY_MIXED.extend(-1), ValueError, "extra must be >= 0"),
        (lambda: XY_MIXED.format(["x"]), ArityMismatch, "1 names for arity 2"),
    ],
    ids=[
        "variable index", "weighted_degree length", "weighted_degree of zero",
        "weighted_degree inhomogeneous", "weighted_components length",
        "extend negative", "format names",
    ],
)
def test_polynomial_methods_refuse_bad_arguments(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("index", [0.5, 1.0, True, "1"], ids=repr)
def test_indices_must_be_ints(index):
    # a float or a bool is not an index, even where it equals one
    with pytest.raises(IndexOutOfRange, match=f"index {index} in arity 2"):
        Polynomial.variable(2, index)
    with pytest.raises(IndexOutOfRange, match=f"index {index} in arity 2"):
        XY_MIXED.partial_derivative(index)
    with pytest.raises(ValueError, match=f"extra must be an integer, not {index!r}"):
        XY_MIXED.extend(index)


# ---- integer numerators over one denominator ------------------------------

# denominators with common factors, so sums and products cancel some of them
wide_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
wide_term_lists = st.lists(st.tuples(monomials, wide_coeffs), max_size=6)


def fraction_view(p: Polynomial) -> dict:
    """p as {monomial: Fraction}, read off num and den."""
    return {m: Fraction(c, p.den) for m, c in p.num.items()}


@settings(max_examples=200, deadline=None)
@given(wide_term_lists, wide_term_lists, wide_coeffs, st.integers(0, ARITY - 1),
       st.integers(0, 4))
def test_operations_keep_numerators_over_one_denominator(ta, tb, k, j, n):
    a, b = Polynomial(ARITY, ta), Polynomial(ARITY, tb)
    oa, ob = oracle(ta), oracle(tb)
    power = {(0,) * ARITY: Fraction(1)}
    for _ in range(n):
        power = oracle_mul(power, oa)
    expected = [
        (a, oa),
        (a + b, oracle([*oa.items(), *ob.items()])),
        (a - b, oracle([*oa.items(), *((m, -c) for m, c in ob.items())])),
        (-a, oracle((m, -c) for m, c in oa.items())),
        (a * b, oracle_mul(oa, ob)),
        (a.scale(k), oracle((m, c * k) for m, c in oa.items())),
        (a**n, power),
        (
            a.partial_derivative(j),
            oracle(
                (m[:j] + (m[j] - 1,) + m[j + 1 :], c * m[j])
                for m, c in oa.items()
                if m[j]
            ),
        ),
        (a.extend(1).partial_derivative(ARITY), {}),
    ]
    for got, want in expected:
        assert_reduced_form(got)
        assert fraction_view(got) == want
        assert got.coeffs == want
    for _, part in (a + b).weighted_components((1, 2, 0)):
        assert_reduced_form(part)


@settings(max_examples=100, deadline=None)
@given(wide_term_lists)
def test_equal_polynomials_have_equal_numerators_and_denominator(terms):
    p = Polynomial(ARITY, terms)
    # the same polynomial by another route: scaled up and back down
    q = p.scale(Fraction(7, 3)).scale(Fraction(3, 7))
    assert (q.den, q.num) == (p.den, p.num)
    assert q == p and hash(q) == hash(p)


def test_power_of_a_trinomial_has_the_multinomial_coefficients():
    n = 30
    p = parse_poly(f"(x+y+z)^{n}", ["x", "y", "z"])
    assert p.den == 1
    f = factorial
    assert p.num == {
        (i, j, n - i - j): f(n) // (f(i) * f(j) * f(n - i - j))
        for i in range(n + 1)
        for j in range(n + 1 - i)
    }


@pytest.mark.parametrize("text", ["x + 1", "1/3*x*y - 2/5", "0"])
def test_copy_deepcopy_and_pickle_keep_the_polynomial(text):
    p = parse_poly(text, ["x", "y"])
    for q in [copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))]:
        assert q == p and hash(q) == hash(p)
        with pytest.raises(AttributeError, match="immutable"):
            q.den = 2


# ---- numbers from outside ----------------------------------------------------

# Every library call that takes a number, with the number as `v`; the
# names are defined by NUMBER_SETUP. One reader, `poly._number`, serves all.
NUMBER_SETUP = """
from lndkit import (
    Derivation, PresentedAlgebra, TrinomialData, VarietyDossier, classify,
    jacobian_rank_at_point, parse_poly,
)
from lndkit.errors import ParseError
from lndkit.poly import Polynomial
XYZ = ["x", "y", "z"]
Q = PresentedAlgebra(XYZ, [parse_poly("x*y - z^2", XYZ)])
D = Derivation.from_strings(Q, {"x": "0", "y": "2*z", "z": "x"})
p = parse_poly("x*y", XYZ)
"""
NUMBER_CALLS = {
    "Polynomial": "Polynomial(3, [((0, 0, 0), v)])",
    "Polynomial.monomial": "Polynomial.monomial(3, (1, 0, 0), v)",
    "Polynomial.constant": "Polynomial.constant(3, v)",
    "p + v": "p + v",
    "scale": "p.scale(v)",
    "evaluate": "p.evaluate([1, v, 0])",
    "Derivation.exp_action": "D.exp_action(Q.parse('y'), v)",
    "jacobian_rank_at_point": "jacobian_rank_at_point([p], [0, v, 0])",
    "TrinomialData.type1": "TrinomialData.type1([[1], [2]], [v, 7])",
    "TrinomialData.type2": "TrinomialData.type2([[1], [2], [2]], [[v, 0, 1], [0, 1, 1]])",
    "classify invariant_line": (
        "classify(VarietyDossier.create(Q, [D], {'invariant_line': [0, 0, v]}))"
    ),
}


def number_call(name, v):
    names = {}
    exec(NUMBER_SETUP, names)
    return eval(NUMBER_CALLS[name], {**names, "v": v})


@pytest.mark.parametrize("name", NUMBER_CALLS)
def test_every_number_argument_is_read_by_one_rule(name):
    # a str as parse_poly reads a number; a float still passes
    for text, value in [("-1/3", Fraction(-1, 3)), ("2^10", 1024),
                        ("(1/2)^3", Fraction(1, 8)), (0.5, Fraction(1, 2))]:
        assert number_call(name, text) == number_call(name, value)
    with pytest.raises(TypeError, match="a boolean is not a number here: True"):
        number_call(name, True)
    for text, message in [("0.5", "unexpected character '.' at position 1"),
                          ("1e5", "trailing input at token 'e5'"),
                          ("1/0", "zero denominator")]:
        with pytest.raises(ParseError) as caught:
            number_call(name, text)
        assert str(caught.value) == message


@pytest.mark.parametrize("name", NUMBER_CALLS)
def test_exponent_notation_is_refused_at_once(name):
    # Fraction's grammar would compute 10^99999999 first; a child process
    # lets a hang fail the test after 10 s instead of holding the suite
    code = (
        NUMBER_SETUP + "v = '1e99999999'\ntry:\n"
        f"    {NUMBER_CALLS[name]}\nexcept ParseError as exc:\n    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=cli_env(), timeout=10,
    )
    assert (result.stdout, result.stderr) == ("trailing input at token 'e99999999'\n", "")
