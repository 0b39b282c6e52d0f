import copy
import itertools
import linecache
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lndkit.cli import main
from lndkit.errors import ArityMismatch, PointNotOnVariety, ResourceLimit
from lndkit.groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    Ideal,
    MonomialOrder,
    contains_one,
    groebner,
    jacobian_rank_at_point,
    normal_form,
    reduce_poly,
    _divides,
    _pack,
    _Packing,
)
from lndkit.poly import Polynomial, parse_poly

from helpers import assert_reduced_form, fraction_reduce, rand_poly

# the module, which `import lndkit.groebner` would not give: the package
# exports a function of the same name
groebner_module = sys.modules["lndkit.groebner"]

DATA = Path(__file__).parent / "data"
XYZ = ["x", "y", "z"]


def p(text, names=XYZ):
    return parse_poly(text, names)


def gb_of(texts, names=XYZ, order=GREVLEX):
    return groebner(Ideal.of([parse_poly(t, names) for t in texts]), order)


def s_polynomial(f, g, order):
    """lcm/LT(f) * f - lcm/LT(g) * g, from the public Polynomial operations."""
    (flm, flc), (glm, glc) = f.leading(order), g.leading(order)
    l = tuple(map(max, flm, glm))

    def cofactor(lm, lc):
        return Polynomial(f.arity, [(tuple(a - b for a, b in zip(l, lm)), 1 / lc)])

    return cofactor(flm, flc) * f - cofactor(glm, glc) * g


def test_two_generator_basis_spolys_reduce():
    gb = gb_of(["x^2 - y", "y^2 - x"], ["x", "y"])
    assert len(gb.basis) == 2
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            s = s_polynomial(gb.basis[i], gb.basis[j], gb.order)
            assert reduce_poly(s, gb.basis, gb.order).is_zero()


def test_unit_ideal_basis():
    gb = gb_of(["1"], ["x"])
    assert gb.basis == (Polynomial.constant(1, 1),)
    assert gb.is_trivial()


def test_principal_ideal_already_reduced():
    gb = gb_of(["x*y - z^2 + 1"])
    assert gb.basis == (p("x*y - z^2 + 1"),)


def test_normal_form_single_step_division():
    gb = gb_of(["x*y - z^2 + 1"])
    # oracle: one division step by the only generator
    f = p("x*y")
    g = gb.basis[0]
    expected = f - g  # leading terms cancel exactly
    assert normal_form(f, gb) == expected == p("z^2 - 1")


def test_normal_form_of_generators_is_zero():
    texts = ["x^2 - y", "y^2 - x"]
    gb = gb_of(texts, ["x", "y"])
    for t in texts:
        assert normal_form(p(t, ["x", "y"]), gb).is_zero()


def test_normal_form_of_one_modulo_proper_ideal():
    gb = gb_of(["x^2 - y", "y^2 - x"], ["x", "y"])
    one = Polynomial.constant(2, 1)
    assert normal_form(one, gb) == one


def test_normal_form_idempotent_and_membership():
    rng = random.Random(3)
    gens = [p("x*y - z^2 + 1"), p("x^2 - z")]
    gb = groebner(Ideal.of(gens))
    for _ in range(50):
        f = rand_poly(rng, 3, max_deg=3, max_terms=4)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        # random combinations of generators reduce to zero
        combo = Polynomial.zero(3)
        for g in gens:
            combo = combo + rand_poly(rng, 3, max_deg=2, max_terms=3) * g
        assert normal_form(combo, gb).is_zero()


def test_buchberger_postcondition_random():
    rng = random.Random(5)
    for _ in range(20):
        gens = [rand_poly(rng, 2, max_deg=3, max_terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = groebner(Ideal.of(gens, 2))
        for i in range(len(gb.basis)):
            for j in range(i + 1, len(gb.basis)):
                s = s_polynomial(gb.basis[i], gb.basis[j], gb.order)
                assert reduce_poly(s, gb.basis, gb.order).is_zero()
        # auto-reduced with monic leads
        for i, g in enumerate(gb.basis):
            others = gb.basis[:i] + gb.basis[i + 1 :]
            assert reduce_poly(g, others, gb.order) == g
            assert max(g.terms, key=lambda t: gb.order.key(t[0]))[1] == 1


def test_determinism():
    gens = ["x^2*y - 1", "x*z - y^2", "y^3 - z"]
    assert gb_of(gens) == gb_of(gens)
    assert gb_of(gens, order=LEX) == gb_of(gens, order=LEX)


def test_contains_one_examples():
    assert contains_one(Ideal.of([p("x", ["x"]), p("x - 1", ["x"])]))
    assert not contains_one(Ideal.of([p("x", ["x", "y"]), p("y", ["x", "y"])]))
    # W_1 image ideal plus relation: gcd(f, f') = 1 forces the unit ideal
    assert contains_one(
        Ideal.of([p("2*z"), p("x"), p("y"), p("x*y - z^2 + 1")])
    )


def test_contains_one_agrees_with_normal_form():
    gens = [p("2*z"), p("x"), p("x*y - z^2 + 1")]
    ideal = Ideal.of(gens)
    gb = groebner(ideal)
    one = Polynomial.constant(3, 1)
    assert contains_one(ideal) == normal_form(one, gb).is_zero()


def test_contains_one_zero_ideal():
    assert not contains_one(Ideal.of([], arity=2))


def test_resource_limit():
    gens = [p("x^2*y - z^3"), p("x*z^2 - y^2"), p("y^3*z - x")]
    with pytest.raises(ResourceLimit):
        groebner(Ideal.of(gens), pair_budget=1)


def test_jacobian_rank_examples():
    assert jacobian_rank_at_point([p("x*y - z^2")], [0, 0, 0]) == 0
    # smooth point on x*y - z^2 + 1 = 0
    assert jacobian_rank_at_point([p("x*y - z^2 + 1")], [1, 0, 1]) == 1
    assert jacobian_rank_at_point([], [1, 2]) == 0


def test_jacobian_rejects_off_variety_point():
    with pytest.raises(PointNotOnVariety):
        jacobian_rank_at_point([p("x*y - z^2")], [1, 1, 0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Ideal.of([Polynomial.zero(2)]), ValueError,
         "arity required for an empty generator list"),
        (lambda: Ideal.of([p("x"), p("x", ["x"])]), ArityMismatch, "generators of mixed arity"),
        (lambda: jacobian_rank_at_point([p("x*y - z^2")], [0, 0]), ArityMismatch,
         "point length 2 vs arity 3"),
    ],
    ids=["empty ideal", "mixed ideal", "jacobian point"],
)
def test_arity_faults_are_refused(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_the_ideal_constructor_drops_zeros_and_refuses_another_arity():
    # unchecked, groebner packed both in 2 variables: x*y*z - 1 lost z
    # and came back as x0*x1 - 1, and x - 1 with z gave the unit ideal
    for gens in [(p("x*y*z - 1"),), (p("x - 1", ["x", "y"]), p("z"))]:
        with pytest.raises(ArityMismatch, match="generators of mixed arity"):
            Ideal(gens, 2)
    ideal = Ideal([Polynomial.zero(3), p("x*y - z"), Polynomial.zero(3)], 3)
    assert ideal.generators == (p("x*y - z"),) and ideal == Ideal.of(ideal.generators)
    assert groebner(Ideal((Polynomial.zero(3),), 3)).basis == ()


def test_normal_form_arity_check():
    gb = gb_of(["x^2 - y"], ["x", "y"])
    with pytest.raises(ArityMismatch):
        normal_form(p("x", ["x"]), gb)


# ---- larger systems: fixed pair sequence -------------------------------


def _cyclic(n):
    names = [f"x{i}" for i in range(n)]
    texts = [
        " + ".join(
            "*".join(names[(i + k) % n] for k in range(d)) for i in range(n)
        )
        for d in range(1, n)
    ]
    texts.append("*".join(names) + " - 1")
    return names, texts


KATSURA3 = (
    ["x0", "x1", "x2", "x3"],
    [
        "x0 + 2*x1 + 2*x2 + 2*x3 - 1",
        "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0",
        "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1",
        "x1^2 + 2*x0*x2 + 2*x1*x3 - x2",
    ],
)


def test_cyclic5_grevlex():
    names, texts = _cyclic(5)
    gens = [parse_poly(t, names) for t in texts]
    gb = groebner(Ideal.of(gens), GREVLEX)
    assert len(gb.basis) == 20
    for g in gb.basis:
        assert max(g.terms, key=lambda t: GREVLEX.key(t[0]))[1] == 1
    for g in gens:
        assert normal_form(g, gb).is_zero()


def _assert_pair_budget_boundary(system, order, budget):
    names, texts = system
    ideal = Ideal.of([parse_poly(t, names) for t in texts])
    gb = groebner(ideal, order, pair_budget=budget)
    assert all(normal_form(g, gb).is_zero() for g in ideal.generators)
    with pytest.raises(ResourceLimit):
        groebner(ideal, order, pair_budget=budget - 1)


# a random lex ideal whose remainders would take 45 pairs if each kept
# its pair's sugar instead of the sugar of every reduction step
TRACKED_SUGAR = (
    XYZ,
    ["-5*x^2*y^2*z^3 + x^2*y^2 - 5*y^3 + 3*x*z", "3*x^2*y^2*z + 2*y^2*z^2",
     "-x*y^2*z^3"],
)

# the fixed locus of a 3-block type-1 trinomial with its LND's images,
# as test_type_a builds it: a unit ideal. Buchberger stops at its first
# constant remainder, after 9 grevlex pairs and 6 lex pairs; a full basis
# took 36 and 45
TRINOMIAL3_LOCUS = (
    ["T11", "T12", "T21", "T22", "T31"],
    ["3*T22^2*T31^2", "3*T12^3*T31^2", "T12^3*T22^2",
     "T11*T12^3 - T21*T22^2 - 4", "T21*T22^2 - T31^3 + 8"],
)


@pytest.mark.parametrize(
    "system, budget",
    [(_cyclic(4), 55), (KATSURA3, 120), (TRACKED_SUGAR, 36), (TRINOMIAL3_LOCUS, 6)],
    ids=["cyclic4", "katsura3", "tracked-sugar", "trinomial3-locus"],
)
def test_lex_pair_budget_boundary(system, budget):
    # the number of S-pairs taken is part of the contract: the smallest
    # budget that succeeds, measured with lex pairs selected by sugar
    _assert_pair_budget_boundary(system, LEX, budget)


@pytest.mark.parametrize(
    "system, budget",
    [(_cyclic(4), 45), (KATSURA3, 36), (TRINOMIAL3_LOCUS, 9)],
    ids=["cyclic4", "katsura3", "trinomial3-locus"],
)
def test_grevlex_pair_budget_boundary(system, budget):
    # grevlex keeps the normal strategy (smallest lcm first): these are
    # the counts of the selection before lex took pairs by sugar
    _assert_pair_budget_boundary(system, GREVLEX, budget)


@pytest.mark.parametrize("budget", [True, False, 2.5, 100.0, -1, "10", None])
def test_pair_budget_must_be_a_non_negative_int(budget):
    ideal = Ideal.of([p("x^2 - y"), p("y^2 - x")])
    with pytest.raises(ValueError, match="pair_budget"):
        groebner(ideal, LEX, pair_budget=budget)


def test_pair_budget_zero_admits_no_pair():
    # zero stays a valid budget: enough for an ideal with no S-pair
    assert groebner(Ideal.of([p("x^2 - y")]), LEX, pair_budget=0).basis == (
        p("x^2 - y"),
    )
    with pytest.raises(ResourceLimit):
        groebner(Ideal.of([p("x^2 - y"), p("y^2 - x")]), LEX, pair_budget=0)


# three generators with large rational coefficients whose lex basis the
# normal strategy took more than a minute to reach: coefficients swell to
# thousands of bits over hundreds of S-pairs
SWELLING_LEX = (
    ["x0", "x1", "x2"],
    [
        "-145414*x0^2*x1^2*x2^2 - 64655*x0^2*x1*x2^2 + 99283*x0*x1^2",
        "-157466*x0^2*x1^2 + 336143/2*x0 + 926543/4",
        "-791791/6*x0*x1^2*x2 + 300485/4*x0^2*x2 - 232601/2*x2^2",
    ],
)


def test_swelling_lex_ideal_finishes_with_a_reduced_basis():
    names, texts = SWELLING_LEX
    gens = [parse_poly(t, names) for t in texts]
    gb = groebner(Ideal.of(gens), LEX)
    basis = gb.basis
    lms = [g.leading(LEX)[0] for g in basis]
    # reduced: monic, in lowest terms, no term divisible by another
    # element's leading monomial
    for k, g in enumerate(basis):
        assert_reduced_form(g)
        assert g.leading(LEX)[1] == 1
        others = lms[:k] + lms[k + 1 :]
        assert not any(_divides(lm, m) for m in g.num for lm in others)
    # a Gröbner basis of an ideal holding the generators: every S-pair
    # and every generator reduces to zero by division over Q
    for i, j in itertools.combinations(range(len(basis)), 2):
        s_pair = s_polynomial(basis[i], basis[j], LEX)
        assert fraction_reduce(s_pair, basis, LEX).is_zero()
    for g in gens:
        assert fraction_reduce(g, basis, LEX).is_zero()
    # and inside the ideal of the generators, by its grevlex basis
    by_grevlex = groebner(Ideal.of(gens), GREVLEX)
    assert all(normal_form(g, by_grevlex).is_zero() for g in basis)


# ---- division against the immutable-Polynomial reference -----------------


def _reference_reduce(f, basis, order):
    """Textbook division that builds a new Polynomial at every step."""

    def leading(h):
        return max(h.terms, key=lambda t: order.key(t[0]))

    def shifted(h, mono, coeff):
        return Polynomial(
            h.arity,
            [(tuple(a + b for a, b in zip(m, mono)), c * coeff) for m, c in h.terms],
        )

    if not basis:
        return f
    lead = [leading(g) for g in basis]
    remainder = []
    p = f
    while not p.is_zero():
        lm, lc = leading(p)
        for g, (glm, glc) in zip(basis, lead):
            if all(x <= y for x, y in zip(glm, lm)):
                q = tuple(x - y for x, y in zip(lm, glm))
                p = p - shifted(g, q, lc / glc)
                break
        else:
            remainder.append((lm, lc))
            p = p - Polynomial(p.arity, [(lm, lc)])
    return Polynomial(f.arity, remainder)


ORDERS = [LEX, GREVLEX]

_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_term = st.tuples(st.tuples(*[st.integers(0, 3)] * 3), _coeff)
_poly = st.lists(_term, min_size=0, max_size=6).map(lambda ts: Polynomial(3, ts))


@settings(max_examples=150, deadline=None)
@given(
    f=_poly,
    basis=st.lists(_poly.filter(lambda g: not g.is_zero()), max_size=4),
    order=st.sampled_from(ORDERS),
)
def test_reduce_poly_matches_reference_division(f, basis, order):
    assert reduce_poly(f, basis, order) == _reference_reduce(f, basis, order)


# leading coefficients of either sign with common factors, so the
# fraction-free division scales what is left and divides the scale out
_wide_coeff = st.fractions(min_value=-12, max_value=12, max_denominator=6)
_wide_poly = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3)] * 3), _wide_coeff), max_size=6
).map(lambda ts: Polynomial(3, ts))


@settings(max_examples=200, deadline=None)
@given(
    f=_wide_poly,
    basis=st.lists(_wide_poly.filter(lambda g: not g.is_zero()), max_size=4),
    order=st.sampled_from(ORDERS),
)
def test_reduce_poly_matches_fraction_division(f, basis, order):
    r = reduce_poly(f, basis, order)
    assert_reduced_form(r)
    assert r == fraction_reduce(f, basis, order)


def test_reduce_poly_arity_mismatch():
    f = p("x*y + z")
    for basis in ([p("x", ["x", "y"])], [p("y"), parse_poly("x^2 + 1", ["x", "y"])]):
        for order in ORDERS:
            with pytest.raises(ArityMismatch):
                reduce_poly(f, basis, order)


def test_normal_form_rejects_a_basis_element_of_another_arity():
    # built by hand, not by groebner(): an arity-1 element in arity 2
    gb = GroebnerBasis(GREVLEX, (p("x", ["x"]),), 2)
    for f in (p("x", ["x", "y"]), p("y", ["x", "y"])):
        with pytest.raises(ArityMismatch):
            normal_form(f, gb)


# ---- normal forms by one reused basis ------------------------------------


# one GroebnerBasis per (ideal, order): every normal form after the first
# divides by the divisors that basis built on its first use
REUSED_BASES = [
    gb_of(texts, order=order)
    for texts in (["x^2 - y"], ["x^2*y - 3*z", "x*z^2 - 1/2*y"])
    for order in ORDERS
]


def _reused_basis_inputs(gb):
    """Zero, an already-reduced f, an f whose leading term is irreducible
    but whose tail is reducible (lex by {x^2 - y} has none), each basis
    element plus one, and seeded random inputs."""
    rng = random.Random(12)
    key, lms = gb.order.key, [g.leading(gb.order)[0] for g in gb.basis]
    monos = list(itertools.product(range(6), repeat=3))
    reducible = [m for m in monos if any(_divides(lm, m) for lm in lms)]
    tail = min(reducible, key=key)
    leads = [m for m in monos if key(m) > key(tail) and m not in reducible]
    fs = [Polynomial.zero(3), normal_form(p("x^3*y*z + 2/3*x*z^2 - 1"), gb)]
    fs += [p("z^3 + x^2")]  # z^3 + y by {x^2 - y} in grevlex
    fs += [
        Polynomial(3, [(m, Fraction(-7, 3)), (tail, Fraction(5, 2))])
        for m in leads[:3]
    ]
    fs += [g + 1 for g in gb.basis]
    fs += [rand_poly(rng, 3, max_deg=5, max_terms=6, coeff_range=9) for _ in range(40)]
    return fs


@pytest.mark.parametrize("gb", REUSED_BASES, ids=lambda gb: gb.order.kind)
def test_normal_forms_by_one_reused_basis_match_fraction_division(gb):
    for f in _reused_basis_inputs(gb):
        r = normal_form(f, gb)
        assert_reduced_form(r)
        assert r == fraction_reduce(f, gb.basis, gb.order)
        if r == f:
            # already reduced: returned as is
            assert r is f


def test_groebner_bases_stay_equal_after_one_builds_its_divisors():
    a, b = gb_of(["x^2 - y", "y*z - 1"]), gb_of(["x^2 - y", "y*z - 1"])
    assert a is not b and a == b and hash(a) == hash(b)
    normal_form(p("x^3*z"), a)
    assert "_divisors" in vars(a) and "_divisors" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert {a: "a"}[b] == "a"


# ---- packed forms that basis elements keep -------------------------------


KATSURA4 = (
    ["x0", "x1", "x2", "x3", "x4"],
    [
        "x0 + 2*x1 + 2*x2 + 2*x3 + 2*x4 - 1",
        "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 - x0",
        "2*x0*x1 + 2*x1*x2 + 2*x2*x3 + 2*x3*x4 - x1",
        "x1^2 + 2*x0*x2 + 2*x1*x3 + 2*x2*x4 - x2",
        "2*x0*x3 + 2*x1*x2 + 2*x1*x4 - x3",
    ],
)


def _kept_forms(g):
    """The (packing, element) pairs that g's memo keeps."""
    memo = g._memo or {}
    return [(k, e) for k, e in memo.items() if isinstance(k, _Packing)]


def _assert_kept_forms_are_packings(g):
    """Each form g keeps is g.num packed: the same keys, leading term, tail
    and tail maximum as `_pack` builds, so the same primitive integers."""
    for packing, (lm, lk, lc, tail, top, _) in _kept_forms(g):
        plm, plk, plc, ptail, ptop, _ = _pack(g.num, packing)
        assert (lm, lk, lc, dict(tail), top) == (plm, plk, plc, dict(ptail), ptop)


_kept_term = st.tuples(st.tuples(*[st.integers(0, 2)] * 3), _coeff)
_kept_gens = st.lists(
    st.lists(_kept_term, min_size=1, max_size=3).map(lambda ts: Polynomial(3, ts)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(gens1=_kept_gens, gens2=_kept_gens, plain=_poly, order=st.sampled_from(ORDERS))
def test_reduce_poly_on_kept_packed_forms_matches_fraction_division(
    gens1, gens2, plain, order
):
    # two bases at one packing: each element keeps the form the pair loop
    # built, and an element of one divides by the other on those forms
    a = groebner(Ideal.of(gens1, 3), order).basis
    b = groebner(Ideal.of(gens2, 3), order).basis
    for g in a + b:
        assert _kept_forms(g)
        _assert_kept_forms_are_packings(g)

    def check(f, divisors, order=order):
        r = reduce_poly(f, divisors, order)
        assert_reduced_form(r)
        assert r == fraction_reduce(f, divisors, order)
        _assert_kept_forms_are_packings(r)
        return r

    for g in a:
        # a kept remainder, divided again and dividing in turn
        r = check(g, b[:1])
        check(r, b)
        check(g, [r, *b] if r else b)
        # kept and plain polynomials in one call, as dividends and divisors
        check(plain, a + b)
        check(g + plain, b)
        check(g, [*b, plain] if plain else b)
        # a dividend in its own basis
        assert check(g, [g]).is_zero()
        assert check(g, a).is_zero()
        # forms kept at a packing the call does not use: the other order
        check(g, b, LEX if order == GREVLEX else GREVLEX)
    # and at a wider packing: x^100 - y*z keeps its form at 9 bits, the
    # others at 8, so the call packs f and b at 9 bits
    wide = groebner(Ideal.of([p("x^100 - y*z")]), order).basis
    for g in a:
        check(g, [*wide, *b])


def test_a_kept_lex_division_that_outgrows_its_packing_widens(monkeypatch):
    # both keep forms at the 10-bit packing of their degrees 200 and 150;
    # x^3 -> y^600 outgrows it, and the division packs again at 20 bits
    names = ["x", "y"]
    (g,) = gb_of(["x - y^200"], names, LEX).basis
    (h,) = gb_of(["x^3 + 1/3*x*y + y^150"], names, LEX).basis
    assert [k.width for k, _ in _kept_forms(g)] == [10]
    assert [k for k, _ in _kept_forms(g)] == [k for k, _ in _kept_forms(h)]
    seen = []
    packing = groebner_module._packing

    def recording(order, n, width):
        seen.append(width)
        return packing(order, n, width)

    monkeypatch.setattr(groebner_module, "_packing", recording)
    r = reduce_poly(h, [g], LEX)
    # the 10-bit attempt ran on the kept forms and packed nothing
    assert seen == [20]
    assert_reduced_form(r)
    assert r == fraction_reduce(h, [g], LEX)
    # the remainder was left at a packing h keeps no form at: it keeps none
    assert _kept_forms(r) == []


def test_groebner_packs_each_generator_and_basis_element_at_most_once(monkeypatch):
    names, texts = KATSURA4
    ideal = Ideal.of([parse_poly(t, names) for t in texts])
    packed = []
    pack = groebner_module._pack

    def counting(num, packing, sugar=0):
        packed.append(frozenset(num.items()))
        return pack(num, packing, sugar)

    monkeypatch.setattr(groebner_module, "_pack", counting)
    gb = groebner(ideal, GREVLEX)
    assert len(packed) == len(set(packed)) <= len(ideal.generators) + len(gb.basis)
    # normal forms by the basis divide on the forms its elements keep
    packed.clear()
    for g in ideal.generators:
        assert normal_form(g * g + g, gb).is_zero()
    assert packed == []


def test_a_basis_element_drops_its_packed_form_in_copy_and_pickle():
    names, texts = KATSURA3
    basis = gb_of(texts, names).basis
    for g in basis:
        assert _kept_forms(g)
        data = pickle.dumps(g)
        assert b"_Packing" not in data
        for q in [copy.copy(g), copy.deepcopy(g), pickle.loads(data)]:
            assert q == g and hash(q) == hash(g)
            assert _kept_forms(q) == []


# ---- the integer kernel against textbook Buchberger over Q ---------------


def _reference_groebner(gens, order):
    """Reduced basis by textbook Buchberger on Fractions: every S-pair,
    no criteria, then minimalise, inter-reduce and make monic. The pair
    with the smallest lcm goes first, which keeps the basis small. It
    divides with `fraction_reduce`, not with the kernel's division."""

    def lm(g):
        return g.leading(order)[0]

    def lcm_key(pair):
        return order.key(tuple(map(max, lm(G[pair[0]]), lm(G[pair[1]]))))

    G = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pair = min(pairs, key=lcm_key)
        pairs.remove(pair)
        r = fraction_reduce(s_polynomial(G[i], G[j], order), G, order)
        if not r.is_zero():
            pairs += [(k, len(G)) for k in range(len(G))]
            G.append(r)
    minimal = []
    for g in sorted(G, key=lambda g: order.key(lm(g))):
        if not any(all(a <= b for a, b in zip(lm(h), lm(g))) for h in minimal):
            minimal.append(g)
    basis = []
    for idx, g in enumerate(minimal):
        r = fraction_reduce(g, minimal[:idx] + minimal[idx + 1 :], order)
        basis.append(r.scale(1 / r.leading(order)[1]))
    return tuple(basis)


# numerators up to 10^6 over denominators up to 9, so clearing
# denominators, content removal and sign normalisation all happen; with
# three generators of this size, lex can take more than 20 s
_big_coeff = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 9))
_small_term = st.tuples(st.tuples(*[st.integers(0, 2)] * 3), _big_coeff)
_generator = st.lists(_small_term, min_size=1, max_size=3).map(
    lambda ts: Polynomial(3, ts)
)


@settings(max_examples=150, deadline=None)
@given(gens=st.lists(_generator, min_size=1, max_size=2), order=st.sampled_from(ORDERS))
def test_groebner_matches_textbook_buchberger(gens, order):
    ideal = Ideal.of(gens, 3)
    assert groebner(ideal, order).basis == _reference_groebner(ideal.generators, order)


@pytest.mark.parametrize(
    "system, order",
    [(_cyclic(4), LEX), (_cyclic(4), GREVLEX), (KATSURA3, GREVLEX), (KATSURA3, LEX)],
    ids=["cyclic4-lex", "cyclic4-grevlex", "katsura3-grevlex", "katsura3-lex"],
)
def test_groebner_matches_textbook_buchberger_on_systems(system, order):
    names, texts = system
    ideal = Ideal.of([parse_poly(t, names) for t in texts])
    assert groebner(ideal, order).basis == _reference_groebner(ideal.generators, order)


def _random_unit_ideals(seed, count):
    """`count` seeded ideals (f, g, 1 - u*f - v*g), none with a constant
    generator: each contains 1, which only S-pairs can show."""
    rng = random.Random(seed)
    one = Polynomial.constant(3, 1)
    while count:
        f, g = rand_poly(rng, 3, 3, 3), rand_poly(rng, 3, 3, 3)
        u, v = rand_poly(rng, 3, 1, 2), rand_poly(rng, 3, 1, 2)
        gens = [f, g, one - u * f - v * g]
        if not any(h.is_constant() for h in gens):
            count -= 1
            yield Ideal.of(gens, 3)


@pytest.mark.parametrize("order", [LEX, GREVLEX], ids=["lex", "grevlex"])
def test_groebner_matches_textbook_buchberger_on_unit_ideals(order):
    for ideal in _random_unit_ideals(28, 30):
        basis = groebner(ideal, order).basis
        assert basis == (Polynomial.constant(3, 1),)
        assert basis == _reference_groebner(ideal.generators, order)
        with pytest.raises(ResourceLimit):
            groebner(ideal, order, pair_budget=0)


@pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex"])
@pytest.mark.parametrize(
    "system",
    [
        (XYZ, ["2*z", "x", "y", "x*y - z^2 + 1"]),  # W_1's fixed locus
        (XYZ, ["x*y - 1", "x*z", "y^2 - z"]),  # z = 0 forces y = 0
        TRINOMIAL3_LOCUS,
    ],
    ids=["w1-locus", "binomials", "trinomial3-locus"],
)
def test_buchberger_stops_at_the_first_unit(system, order):
    names, texts = system
    ideal = Ideal.of([parse_poly(t, names) for t in texts])
    gens = [g.num for g in ideal.generators]
    packing = groebner_module._packing(order, ideal.arity, 16)
    (e,) = groebner_module._buchberger(gens, packing, 10**6)
    assert e[0] == 0 and not e[3]  # a constant, with no tail
    gb = groebner(ideal, order)
    assert gb.basis == (Polynomial.constant(ideal.arity, 1),) and gb.is_trivial()
    assert contains_one(ideal, order)


@pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex"])
def test_a_constant_generator_needs_no_pair(order):
    # the constant enters after two generators whose pair is never taken
    ideal = Ideal.of([p("x^2 - y"), p("y^2 - x"), p("-3/2"), p("x*z - 1")])
    assert groebner(ideal, order, pair_budget=0).basis == (Polynomial.constant(3, 1),)


# ---- monomial order validation -------------------------------------------


@pytest.mark.parametrize(
    "kind, weights",
    [
        # every weight vector, once taken or refused, is now a TypeError:
        # no kind takes weights
        ("weighted", (-1,)),
        ("weighted", (1.5, 2)),
        ("weighted", (True, 1)),
        ("weighted", ("1", "2")),
        ("weighted", 3),
        ("weighted", None),  # no longer a kind
        ("lex", (1, 2)),
        ("grevlex", ()),
        ("revlex", None),  # never one
    ],
)
def test_monomial_order_rejects_bad_weights(capsys, kind, weights):
    if weights is not None:
        with pytest.raises(TypeError):
            MonomialOrder(kind, weights)
        return
    with pytest.raises(ValueError) as caught:
        MonomialOrder(kind)
    assert str(caught.value).endswith("the kinds are lex, grevlex")
    # the CLI offers the same kinds: any other is a usage error
    with pytest.raises(SystemExit) as caught:
        main(["classify", "--order", kind, str(DATA / "w1.json")])
    assert caught.value.code == 2
    assert "(choose from 'lex', 'grevlex')" in capsys.readouterr().err


# ---- packed monomials against their tuple definitions --------------------

def _fields(m):
    """The values a packing stores for m: its exponents and its degree."""
    return [*m, sum(m)]


@st.composite
def _packed_case(draw, parts=1):
    """(order, packing, monomials): each field of the sum of `parts`
    monomials fits below the guard bits, up to the field limit."""
    order = draw(st.sampled_from(ORDERS))
    width = draw(st.sampled_from([8, 12, 70]))
    limit = ((1 << width - 1) - 1) // parts
    monomials = []
    for _ in range(parts):
        m = draw(st.tuples(*[st.integers(0, limit)] * 3))
        top = max(_fields(m))
        if top > limit:  # scale down into range; the largest field meets the limit
            m = tuple(e * limit // top for e in m)
        monomials.append(m)
    return order, _Packing(order, 3, width), monomials


@settings(max_examples=300, deadline=None)
@given(_packed_case())
def test_packing_round_trip(case):
    _, P, (m,) = case
    assert P.unpack(P.pack(m)) == m
    assert not P.pack(m) & P.guard


@settings(max_examples=300, deadline=None)
@given(_packed_case(parts=2))
def test_packed_product_divisibility_lcm_and_max(case):
    order, P, (a, b) = case
    pa, pb = P.pack(a), P.pack(b)
    assert pa + pb == P.pack(tuple(x + y for x, y in zip(a, b)))
    c = tuple(map(max, a, b))
    assert P.lcm(pa, pb) == P.pack(c)
    for x, y in [(a, b), (a, c), (c, a)]:
        divides = not (P.pack(y) - P.pack(x)) & P.guard
        assert divides == all(map(int.__le__, x, y))

    def field(q, f):
        return q >> P.width * f & P.value

    top = P.max(pa, pb)
    for f in range(len(_fields(a))):
        assert field(top, f) == max(field(pa, f), field(pb, f))


@st.composite
def _lcm_case(draw):
    """(order, packing, a, b): every field of a and of b is below the
    guard bits, each under the field limit or half of it; the degree
    field of their lcm may reach the guard bit."""
    order = draw(st.sampled_from(ORDERS))
    width = draw(st.sampled_from([8, 12, 70]))
    monomials = []
    for _ in range(2):
        limit = ((1 << width - 1) - 1) // draw(st.sampled_from([1, 2]))
        m = draw(st.tuples(*[st.integers(0, limit)] * 3))
        top = max(_fields(m))
        if top > limit:
            m = tuple(e * limit // top for e in m)
        monomials.append(m)
    return order, _Packing(order, 3, width), *monomials


@settings(max_examples=500, deadline=None)
@given(_lcm_case())
def test_packed_lcm_sets_a_guard_bit_exactly_on_overflow(case):
    order, P, a, b = case
    c = tuple(map(max, a, b))
    lcm = P.lcm(P.pack(a), P.pack(b))
    overflow = max(_fields(c)) > P.value
    assert bool(lcm & P.guard) == overflow
    if not overflow:
        assert lcm == P.pack(c)


@settings(max_examples=300, deadline=None)
@given(_packed_case(parts=2))
def test_packed_keys_compare_as_order_keys(case):
    order, P, (a, b) = case
    pa, pb = P.pack(a), P.pack(b)
    ka, kb = pa ^ P.flip, pb ^ P.flip
    assert (ka < kb) == (order.key(a) < order.key(b))
    assert (ka == kb) == (a == b)
    # a product is one add on order keys too: the pair loop relies on it
    assert (pa + pb) ^ P.flip == ka + kb - P.flip


# ---- exponents past the first field width and past 2^64 ------------------

N = 2**64 + 3


@pytest.mark.parametrize(
    "texts, order",
    [
        (["x^200*y - z", "y^3 - x*z^150"], GREVLEX),
        (["x^200*y - z", "y^2 - z^3"], LEX),
        ([f"x^{N}*y^2 - z", f"x^{N}*y - z^3"], LEX),
        ([f"x^{N}*y^2 - z", f"x^{N}*y - z^3"], GREVLEX),
        ([f"x^{N}*y - z", "y^2 - z"], LEX),
    ],
)
def test_groebner_with_wide_exponents_matches_textbook_buchberger(texts, order):
    ideal = Ideal.of([p(t) for t in texts])
    assert groebner(ideal, order).basis == _reference_groebner(ideal.generators, order)


def test_groebner_repacks_wider_on_overflow(monkeypatch):
    # the input's fields fit in 8 bits, the basis needs more: the first
    # run overflows, and the second, at twice the width, succeeds
    widths = []
    buchberger = groebner_module._buchberger

    def recording(gens, packing, pair_budget):
        widths.append(packing.width)
        return buchberger(gens, packing, pair_budget)

    monkeypatch.setattr(groebner_module, "_buchberger", recording)
    ideal = Ideal.of([p("x^40*y - z"), p("x*y^2 - z^3")])
    gb = groebner(ideal, GREVLEX)
    assert widths == [8, 16]
    assert gb.basis == _reference_groebner(ideal.generators, GREVLEX)


def test_s_polynomial_tail_overflow_restarts_wider(monkeypatch):
    # under lex a tail shifted to the lcm can outgrow the lcm's degree:
    # with 8-bit fields (the input asks for 9) the S-polynomial's shifted
    # tail overflows, before any lcm or division does
    ideal = Ideal.of([p("x*y - z^100"), p("x*z^30 - 1")])
    gens = [g.num for g in ideal.generators]
    with pytest.raises(groebner_module._Overflow) as exc:
        groebner_module._buchberger(gens, groebner_module._packing(LEX, 3, 8), 10**6)
    tb = exc.value.__traceback__
    while tb.tb_next:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    assert code.co_name == "_buchberger"
    # the test on the line above the raise
    above = linecache.getline(code.co_filename, tb.tb_lineno - 1)
    assert "topi + (l - lmi) & guard" in above
    expected = groebner(ideal, LEX).basis
    widths = []
    buchberger = groebner_module._buchberger

    def recording(gens, packing, pair_budget):
        widths.append(packing.width)
        return buchberger(gens, packing, pair_budget)

    monkeypatch.setattr(groebner_module, "_field_width", lambda nums: 8)
    monkeypatch.setattr(groebner_module, "_buchberger", recording)
    assert groebner(ideal, LEX).basis == expected
    assert widths == [8, 16]
    assert expected == _reference_groebner(ideal.generators, LEX)


@pytest.mark.parametrize(
    "names, order, relation, text, widths, small_widths",
    [
        # x -> y^200 three times: the remainder holds y^600, past 10 bits
        (["x", "y"], LEX, "x - y^200", "x^3 + 1/3*x*y", [10, 20], []),
        # x -> 2*y^100 - 1/5 seven times, each step a rescale by the
        # leading coefficient 5 of 5*x - 10*y^100 + 1: degree 700, past 9 bits
        (["x", "y"], LEX, "x - 2*y^100 + 1/5", "x^7 - x", [9, 18], []),
        # grevlex division never raises the degree, so it never overflows:
        # f alone needs 11 bits, and the small input the basis's own 8
        (XYZ, GREVLEX, "x^2 - y", "x^300*y + 1/2*x*z", [11], [8]),
    ],
    ids=["lex", "lex-rescaled", "grevlex"],
)
def test_division_repacks_wider_on_overflow(
    monkeypatch, names, order, relation, text, widths, small_widths
):
    # the basis is built before the recording starts, so each width
    # recorded is one that a division packed the basis at
    gb = gb_of([relation], names, order)
    f, small = p(text, names), p("x^2 + 3", names)
    seen = []
    packing = groebner_module._packing

    def recording(order, n, width):
        seen.append(width)
        return packing(order, n, width)

    monkeypatch.setattr(groebner_module, "_packing", recording)
    r = normal_form(f, gb)
    assert seen == widths
    assert_reduced_form(r)
    assert r == fraction_reduce(f, gb.basis, order)
    # reduce_poly packs a basis of its own
    assert reduce_poly(f, gb.basis, order) == r
    assert seen == widths * 2
    # the same basis still divides a small input, at its narrower width
    r = normal_form(small, gb)
    assert_reduced_form(r)
    assert r == fraction_reduce(small, gb.basis, order)
    assert seen == widths * 2 + small_widths
