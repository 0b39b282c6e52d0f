import copy
import pickle
import random
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
from lndkit.groebner import GREVLEX, LEX, MonomialOrder
from lndkit.poly import Polynomial, grevlex_key, parse_poly

from helpers import assert_reduced_form, rand_poly


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
    "bad", ["", "x y", "2x", "x/2", "x^", "x^y", "(x", "x +", "x**2", "1/0"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_poly(bad, ["x", "y"])


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_poly("x + w", ["x", "y"])


def test_format_parse_round_trip():
    rng = random.Random(7)
    names = ["x", "y", "z"]
    for _ in range(200):
        p = rand_poly(rng, 3, max_deg=4, max_terms=5)
        assert parse_poly(p.format(names), names) == p


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


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_poly("x", ["x"]) + parse_poly("x", ["x", "y"])


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
    weighted = MonomialOrder("weighted", (2, 1, 3))
    for order in (LEX, weighted):
        lm = max(p.coeffs, key=order.key)
        assert p.leading(order) == (lm, p.coeffs[lm])
        assert p.leading(order) is p.leading(order)


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
    if not p.is_zero():
        p.leading()  # copied with its leading-term memo filled
    for q in [copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))]:
        assert q == p and hash(q) == hash(p)
        with pytest.raises(AttributeError, match="immutable"):
            q.den = 2
