import itertools
import random
from fractions import Fraction
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lndkit import (
    GREVLEX,
    LEX,
    Derivation,
    Ideal,
    MonomialOrder,
    NilpotencyVerdict,
    PresentedAlgebra,
    cylinder,
    groebner,
    lift,
)
from lndkit.errors import ArityMismatch, NotASlice, NotVerifiedLND, ReservedVariable
from lndkit.poly import Polynomial, parse_poly

from helpers import (
    assert_reduced_form,
    corpus,
    leibniz_apply,
    plane_algebra,
    plane_ddx,
    rand_poly,
    rand_rational,
    suspension_surface,
    w1_algebra,
    w1_canonical,
    walk_nilpotency,
)


@pytest.fixture(scope="module")
def w1():
    return w1_algebra()


@pytest.fixture(scope="module")
def w1_lnd(w1):
    return w1_canonical(w1)


@pytest.fixture(scope="module")
def w1_cyl(w1):
    return cylinder(w1)


@pytest.fixture(scope="module")
def ddu(w1_cyl):
    images = [Polynomial.zero(4)] * 3 + [Polynomial.constant(4, 1)]
    return Derivation(w1_cyl, images)


@pytest.mark.parametrize("name", ["1x", "", "x y", "x-1", "\u00b2", 1])
def test_algebra_refuses_a_variable_name_the_parser_cannot_read(name):
    # parse_poly splits each of these, so no relation or image could name it
    with pytest.raises(ValueError) as caught:
        PresentedAlgebra(["x", name])
    assert str(caught.value) == f"variable name {name!r} is not an identifier"


def test_generated_variable_names_are_identifiers():
    # cylinder's fresh names and the trinomial layout's names
    base = PresentedAlgebra(["u", "_s", "T11", "T1_12", "S1", "x\u00b2"])
    ext = cylinder(cylinder(base), "_s")
    assert ext.vars[-2:] == ("u1", "_s1")
    for j, name in enumerate(ext.vars):
        assert parse_poly(name, ext.vars) == Polynomial.variable(ext.arity, j)


def test_algebra_repr_names_variables_and_relations(w1):
    assert repr(w1) == "PresentedAlgebra(K[x, y, z] / (x*y - z^2 + 1))"
    assert repr(PresentedAlgebra(["x", "y"], [])) == "PresentedAlgebra(K[x, y] / (0))"


# ---- apply -------------------------------------------------------------


def test_apply_kills_relation_representative(w1, w1_lnd):
    assert w1_lnd.apply(parse_poly("x*y - z^2 + 1", w1.vars)).is_zero()


def test_apply_slice_variable(ddu, w1_cyl):
    assert ddu.apply(w1_cyl.parse("u")) == Polynomial.constant(4, 1)


def test_apply_constant_is_zero(w1_lnd, w1):
    assert w1_lnd.apply(Polynomial.constant(w1.arity, 5)).is_zero()


def test_leibniz_on_corpus():
    rng = random.Random(17)
    for name, algebra, D in corpus():
        for _ in range(30):
            f = rand_poly(rng, algebra.arity)
            g = rand_poly(rng, algebra.arity)
            lhs = D.apply(algebra.normal(f * g))
            rhs = algebra.normal(f * D.apply(g) + g * D.apply(f))
            assert lhs == rhs, name


def test_apply_with_denominators_is_the_reduced_leibniz_sum():
    # f and the images over denominators other than 1, against the sum of
    # Polynomial products; D need not preserve the relations for this
    rng = random.Random(23)
    for name, algebra, _ in corpus():
        n = algebra.arity
        for _ in range(20):
            images = [
                rand_poly(rng, n).scale(Fraction(1, rng.randint(2, 6)))
                for _ in range(n)
            ]
            D = Derivation(algebra, images)
            assert any(image.den != 1 for image in D.images), name
            f = algebra.normal(rand_poly(rng, n, max_deg=4, max_terms=5))
            f = f.scale(Fraction(rng.randint(1, 9), rng.randint(2, 12)))
            expected = sum(
                (f.partial_derivative(j) * image for j, image in enumerate(D.images)),
                Polynomial.zero(n),
            )
            result = D.apply(f)
            assert result == algebra.normal(expected), name
            assert_reduced_form(result)


def _random_algebra(rng, order, relation_count):
    """K[x,y,z] modulo `relation_count` random non-constant relations, not
    the unit ideal."""
    vars = ["x", "y", "z"]
    while True:
        relations = [rand_poly(rng, 3, max_deg=3) for _ in range(relation_count)]
        if any(r.is_constant() for r in relations):
            continue
        try:
            return PresentedAlgebra(vars, relations, {}, order)
        except ValueError:  # the relations generate the unit ideal
            continue


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PresentedAlgebra(["x", "y"], [parse_poly("x", ["x"])]),
         "relation arity differs from variable count"),
        (lambda: PresentedAlgebra(["x"]).normal(parse_poly("x", ["x", "y"])),
         "arity 2 vs algebra arity 1"),
        (lambda: Derivation(PresentedAlgebra(["x", "y"]), [Polynomial.zero(2)]),
         "one image per generator required"),
    ],
    ids=["relation", "normal form", "images"],
)
def test_algebra_and_derivation_refuse_other_arities(call, message):
    with pytest.raises(ArityMismatch) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("relation_count", [1, 2])
@pytest.mark.parametrize(
    "order",
    [LEX, GREVLEX],
    ids=lambda order: order.kind,
)
def test_apply_matches_the_leibniz_oracle(order, relation_count):
    # images over denominators other than 1 and zero images (all zero for
    # the first D), f over a denominator other than 1; D need not preserve
    # the relations for this
    rng = random.Random(41 + relation_count)
    zero_images = images_over_den = 0
    for _ in range(4):
        algebra = _random_algebra(rng, order, relation_count)
        assert len(algebra.relations) == relation_count
        for k in range(6):
            images = [
                Polynomial.zero(3)
                if not k or rng.random() < 0.3
                else rand_poly(rng, 3).scale(Fraction(1, rng.randint(1, 6)))
                for _ in range(3)
            ]
            D = Derivation(algebra, images)
            zero_images += sum(image.is_zero() for image in D.images)
            images_over_den += sum(image.den != 1 for image in D.images)
            for _ in range(5):
                f = rand_poly(rng, 3, max_deg=4, max_terms=5)
                f = f.scale(Fraction(rng.randint(1, 9), rng.randint(2, 12)))
                for g in (f, algebra.normal(f)):
                    result = D.apply(g)
                    assert result == leibniz_apply(D, g)
                    assert_reduced_form(result)
            with pytest.raises(ArityMismatch):
                D.apply(Polynomial.variable(4, 0))
    assert zero_images and images_over_den


# ---- chains ----------------------------------------------------------------


def _triangular():
    """x -> 1, y -> x, z -> y on K[x,y,z]: an LND with slice x."""
    algebra = PresentedAlgebra(["x", "y", "z"])
    return algebra, Derivation.from_strings(algebra, {"x": "1", "y": "x", "z": "y"})


def test_exp_and_projection_reuse_the_chain_and_match_a_fresh_derivation():
    algebra, D = _triangular()
    f = algebra.parse("1/3*z^2*x - y*z + 1/2*x^2")
    s = algebra.parse("x")
    calls = [
        lambda E: E.exp_action(f, Fraction(2, 3)),
        lambda E: E.exp_action(f, None)[0],
        lambda E: E.exp_action(f, -5),
        lambda E: E.kernel_projection(s, f),
    ]
    applied = []
    apply = D.apply

    def recording_apply(g):
        applied.append(g)
        return apply(g)

    D.apply = recording_apply
    for k, call in enumerate(calls):
        applied.clear()
        assert call(D) == call(Derivation(algebra, D.images))
        if 0 < k < 3:
            assert applied == []  # the whole chain came from the last one
    # the projection applies D only to check its slice
    assert applied == [s]


def test_an_interrupted_iteration_keeps_no_chain():
    algebra, D = _triangular()
    f = algebra.parse("z^3 + x*y")
    full = list(Derivation(algebra, D.images).iterate(f))
    assert len(full) == 10  # z^3 has weight 9 for x, y, z of weights 1, 2, 3
    assert list(itertools.islice(D.iterate(f), 2)) == full[:2]
    assert list(D.iterate(f)) == full
    assert list(D.iterate(f)) == full


def test_iterate_is_lazy_for_a_derivation_that_is_not_nilpotent():
    algebra = PresentedAlgebra(["x"])
    D = Derivation.from_strings(algebra, {"x": "x"})
    x = algebra.parse("x")
    assert list(itertools.islice(D.iterate(x), 5)) == [x] * 5


def test_a_chain_is_keyed_by_the_normal_form(w1, w1_lnd):
    f = w1.parse("y*z + z^2")
    relation = parse_poly("x*y - z^2 + 1", w1.vars)
    unreduced = f + relation
    assert unreduced != f
    chain = list(w1_lnd.iterate(f))
    again = list(w1_lnd.iterate(unreduced))
    assert again == chain
    assert all(a is b for a, b in zip(again, chain))
    assert list(Derivation(w1, w1_lnd.images).iterate(unreduced)) == chain


# ---- well-definedness -------------------------------------------------------


def test_w1_lnd_well_defined(w1_lnd):
    ok, cert = w1_lnd.is_well_defined()
    assert ok
    assert all(image.is_zero() for _, image in cert)


def test_suspension_lnd_well_defined():
    vars = ["z", "y1", "y2"]
    algebra = PresentedAlgebra(vars, [parse_poly("y1*y2 - z^2 + 1", vars)])
    delta = Derivation.from_strings(
        algebra, {"z": "y2", "y1": "2*z", "y2": "0"}
    )
    assert delta.is_well_defined()[0]


def test_not_well_defined_counterexample():
    algebra = PresentedAlgebra(["x", "y"], [parse_poly("x^2", ["x", "y"])])
    D = Derivation.from_strings(algebra, {"x": "1", "y": "0"})
    ok, cert = D.is_well_defined()
    assert not ok
    # D(x^2) = 2x, which is nonzero modulo (x^2)
    assert cert[0][1] == algebra.parse("2*x")


# ---- nilpotency -------------------------------------------------------------


def test_slice_derivation_verdict(ddu):
    verdict = ddu.nilpotency_check(4)
    assert verdict.verified and verdict.max_order == 2


def test_w1_lnd_verdict(w1_lnd):
    verdict = w1_lnd.nilpotency_check(8)
    assert verdict.verified and verdict.max_order <= 8


def test_euler_derivation_witness():
    algebra = PresentedAlgebra(["x"])
    euler = Derivation.from_strings(algebra, {"x": "x"})
    verdict = euler.nilpotency_check(10)
    assert verdict.status == "not_nilpotent"
    assert verdict.witness_var == "x"
    assert verdict.witness_order == 2


def test_inconclusive_without_witness():
    # x -> x^2 grows without a proportional repeat
    algebra = PresentedAlgebra(["x"])
    D = Derivation.from_strings(algebra, {"x": "x^2"})
    assert D.nilpotency_check(5).status == "inconclusive"


def _fresh_verdicts(D, bounds):
    """The verdict of a fresh copy of D at each bound, so that no kept
    verdict decides."""
    return [Derivation(D.algebra, D.images).nilpotency_check(b) for b in bounds]


def test_nilpotency_matches_an_independent_walk_on_the_corpus():
    for _, _, D in corpus():
        bounds = range(1, 11)
        assert _fresh_verdicts(D, bounds) == [walk_nilpotency(D, b) for b in bounds]


def test_nilpotency_at_the_order_and_one_past_it():
    # z -> y -> x -> 1 -> 0: order 4
    algebra, D = _triangular()
    verdicts = _fresh_verdicts(D, [3, 4, 5])
    assert verdicts == [walk_nilpotency(D, b) for b in (3, 4, 5)]
    assert [v.describe() for v in verdicts] == [
        "Inconclusive(bound=3)", "VerifiedLND(max_order=4)", "VerifiedLND(max_order=4)"
    ]


_FREE = PresentedAlgebra(["x", "y", "z"])


@st.composite
def walked_derivations(draw):
    """A derivation of K[x, y, z]: triangular (the image of each variable
    a polynomial in the ones before it, so an LND), Euler-like (plus c*x_j
    in the image of x_j) or growing (plus c*x_j^e, e = 2 or 3)."""
    kind = draw(st.sampled_from(["triangular", "euler", "growing"]))
    coefficient = st.fractions(-3, 3, max_denominator=2)
    images = []
    for j in range(3):
        exponents = st.tuples(*[st.integers(0, 2)] * j, *[st.just(0)] * (3 - j))
        terms = draw(st.lists(st.tuples(exponents, coefficient), max_size=2))
        if kind != "triangular" and draw(st.booleans()):
            e = 1 if kind == "euler" else draw(st.integers(2, 3))
            c = draw(coefficient.filter(bool))
            terms.append((tuple(e if k == j else 0 for k in range(3)), c))
        images.append(Polynomial(3, terms))
    return Derivation(_FREE, images)


@settings(max_examples=80, deadline=None)
@given(walked_derivations())
def test_nilpotency_matches_an_independent_walk(D):
    bounds = range(1, 11)
    assert _fresh_verdicts(D, bounds) == [walk_nilpotency(D, b) for b in bounds]


def test_an_inconclusive_walk_never_computes_past_the_bound():
    # x -> x^2: D^k(x) = k! x^(k+1), never zero, never a multiple of an
    # earlier entry
    algebra = PresentedAlgebra(["x"])
    D = Derivation.from_strings(algebra, {"x": "x^2"})
    applied = []
    apply = D.apply
    D.apply = lambda g: applied.append(g) or apply(g)
    assert D.nilpotency_check(5).describe() == "Inconclusive(bound=5)"
    # D(x) is the image; D^2(x), ..., D^5(x) take one application each
    assert applied == [algebra.parse(f"{factorial(k)}*x^{k + 1}") for k in range(1, 5)]


def test_verification_keeps_the_last_generator_chain():
    algebra, D = _triangular()
    D.require_lnd()
    applied = []
    apply = D.apply
    D.apply = lambda g: applied.append(g) or apply(g)
    # z's chain y, x, 1 was walked last and reached zero
    assert list(D.iterate(algebra.parse("y"))) == [algebra.parse(t) for t in "yx1"]
    assert applied == []


# ---- slices -------------------------------------------------------------


def test_check_slice(ddu, w1_cyl, w1_lnd, w1):
    assert ddu.check_slice(w1_cyl.parse("u"))
    assert ddu.check_slice(w1_cyl.parse("u + y"))
    assert not w1_lnd.check_slice(w1.parse("z"))
    assert w1_lnd.apply(w1.parse("z")) == w1.parse("x")


# ---- exponentials -------------------------------------------------------------


def test_exp_formal_binomial():
    Kx = PresentedAlgebra(["x"])
    D = Derivation.from_strings(Kx, {"x": "1"})
    result, ext = D.exp_action(Kx.parse("x^2"), None)
    assert result == parse_poly("x^2 + 2*_s*x + _s^2", ["x", "_s"])


def test_exp_fixes_kernel(w1_lnd, w1):
    f = w1.parse("x^3 - 2*x")
    assert w1_lnd.kernel_membership(f)
    assert w1_lnd.exp_action(f, Fraction(3, 2)) == f


def test_exp_group_law_w1(w1_lnd, w1):
    rng = random.Random(23)
    for _ in range(25):
        s, t = rand_rational(rng), rand_rational(rng)
        for j in range(w1.arity):
            xj = Polynomial.variable(w1.arity, j)
            both = w1_lnd.exp_action(xj, s + t)
            composed = w1_lnd.exp_action(w1_lnd.exp_action(xj, t), s)
            assert both == composed


def test_exp_homomorphism_on_corpus():
    rng = random.Random(29)
    for name, algebra, D in corpus():
        for _ in range(15):
            f = rand_poly(rng, algebra.arity)
            g = rand_poly(rng, algebra.arity)
            s = rand_rational(rng)
            lhs = D.exp_action(algebra.normal(f * g), s)
            rhs = algebra.normal(D.exp_action(f, s) * D.exp_action(g, s))
            assert lhs == rhs, name


@cache
def exp_case(name: str, order_name: str):
    """An algebra with a verified LND: W_1-W_3 or the suspension surface
    under grevlex or lex."""
    if name == "suspension":
        algebra, D = suspension_surface()
    else:
        n = int(name[1])
        algebra = w1_algebra(n)
        D = w1_canonical(algebra, n)
    if order_name == "lex":
        algebra = PresentedAlgebra(algebra.vars, algebra.relations, {}, LEX)
        D = Derivation(algebra, D.images)
    D.require_lnd()
    return algebra, D


EXP_CASES = [
    (name, order_name)
    for name in ("W1", "W2", "W3", "suspension")
    for order_name in ("grevlex", "lex")
]


@st.composite
def exp_inputs(draw):
    """A case, a polynomial of up to three terms of degree <= 3 in each
    variable, and a small rational parameter."""
    name, order_name = draw(st.sampled_from(EXP_CASES))
    algebra, D = exp_case(name, order_name)
    term = st.tuples(
        st.tuples(*[st.integers(0, 3)] * algebra.arity),
        st.fractions(-3, 3, max_denominator=3),
    )
    f = Polynomial(algebra.arity, draw(st.lists(term, max_size=3)))
    return algebra, D, f, draw(st.fractions(-2, 2, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(exp_inputs())
def test_exp_returns_normal_forms(case):
    # both sums are returned as built; reducing them again changes nothing
    algebra, D, f, s = case
    numeric = D.exp_action(f, s)
    assert algebra.normal(numeric) == numeric
    formal, ext = D.exp_action(f, None)
    assert ext.normal(formal) == formal


@settings(max_examples=60, deadline=None)
@given(exp_inputs())
def test_derivation_results_are_in_lowest_terms(case):
    algebra, D, f, s = case
    assert_reduced_form(D.apply(f))
    assert_reduced_form(D.exp_action(f, s))
    assert_reduced_form(D.exp_action(f, None)[0])


def test_exp_requires_verified_lnd():
    algebra = PresentedAlgebra(["x"])
    euler = Derivation.from_strings(algebra, {"x": "x"})
    with pytest.raises(NotVerifiedLND):
        euler.exp_action(algebra.parse("x"), Fraction(1))


def test_require_lnd_is_the_gate():
    algebra = PresentedAlgebra(["x", "y"])
    D = Derivation.from_strings(algebra, {"x": "y^5", "y": "1"})
    message = r"x -> y\^5.*failed verification: Inconclusive\(bound=3\)"
    with pytest.raises(NotVerifiedLND, match=message):
        D.require_lnd(3)
    verdict = D.require_lnd()
    assert verdict.verified and verdict is D.nilpotency_check()
    # a verified verdict decides at any bound, even one it needed more than
    assert D.require_lnd(3) is verdict
    euler = Derivation.from_strings(PresentedAlgebra(["x"]), {"x": "x"})
    with pytest.raises(NotVerifiedLND, match="failed verification: NotNilpotent"):
        euler.require_lnd()


@pytest.mark.parametrize("status", ["bogus", "Verified", None])
def test_nilpotency_verdict_refuses_an_unknown_status(status):
    with pytest.raises(ValueError, match="unknown nilpotency status"):
        NilpotencyVerdict(status)


@pytest.mark.parametrize(
    "bound, message",
    [
        (True, "bound must be an int"),
        (2.5, "bound must be an int"),
        (8.0, "bound must be an int"),
        (Fraction(3), "bound must be an int"),
        (0, "bound must be >= 1"),
        (-2, "bound must be >= 1"),
    ],
)
def test_nilpotency_bound_must_be_a_positive_int(bound, message):
    algebra = PresentedAlgebra(["x", "y"])
    D = Derivation.from_strings(algebra, {"x": "y^5", "y": "1"})
    with pytest.raises(ValueError, match=message):
        D.nilpotency_check(bound)
    with pytest.raises(ValueError, match=message):
        D.require_lnd(bound)
    # a verified verdict does not excuse a bad bound either
    assert D.nilpotency_check().verified
    with pytest.raises(ValueError, match=message):
        D.nilpotency_check(bound)


def test_exp_rechecks_after_weaker_verdict():
    # a small explicit bound is inconclusive; exp must not reuse that verdict
    algebra = PresentedAlgebra(["x", "y"])
    D = Derivation.from_strings(algebra, {"x": "y^5", "y": "1"})
    assert D.nilpotency_check(3).status == "inconclusive"
    x = algebra.parse("x")
    assert D.exp_action(x, Fraction(1)) == algebra.parse("x + 1/6*(y + 1)^6 - 1/6*y^6")
    assert D.nilpotency_check().describe() == "VerifiedLND(max_order=7)"


def test_exp_and_projection_require_well_defined():
    # d/dx does not preserve x*y = z^2 - 1, although its chains vanish
    xyz = ["x", "y", "z"]
    algebra = PresentedAlgebra(xyz, [parse_poly("x*y - z^2 + 1", xyz)])
    D = Derivation.from_strings(algebra, {"x": "1", "y": "0", "z": "0"})
    assert not D.is_well_defined()[0]
    with pytest.raises(NotVerifiedLND):
        D.nilpotency_check()
    with pytest.raises(NotVerifiedLND):
        D.exp_action(algebra.parse("x*y"), Fraction(1))
    with pytest.raises(NotVerifiedLND):
        D.exp_action(algebra.parse("x*y"), None)
    with pytest.raises(NotVerifiedLND):
        D.kernel_projection(algebra.parse("x"), algebra.parse("y"))


def test_exp_reserved_variable_collision():
    algebra = PresentedAlgebra(["x", "_s"])
    D = Derivation.from_strings(algebra, {"x": "1", "_s": "0"})
    with pytest.raises(ReservedVariable):
        D.exp_action(algebra.parse("x"), None)


def test_exp_leaves_relation_invariant(w1_lnd, w1):
    # the relation ideal is stable under the one-parameter action
    rel = w1.relations[0]
    result, ext = w1_lnd.exp_action(rel, None)
    assert result.is_zero()


# ---- kernels -------------------------------------------------------------


def test_kernel_membership(ddu, w1_cyl, w1_lnd, w1):
    assert w1_lnd.kernel_membership(w1.parse("x"))
    assert ddu.kernel_membership(w1_cyl.parse("x*y^2 - z"))
    assert not ddu.kernel_membership(w1_cyl.parse("u"))


def test_kernel_is_subalgebra(w1_lnd, w1):
    a, b = w1.parse("x"), w1.parse("x^2 - 3*x")
    assert w1_lnd.kernel_membership(a + b)
    assert w1_lnd.kernel_membership(a * b)


def test_kernel_projection_strips_slice_part(ddu, w1_cyl):
    u = w1_cyl.parse("u")
    f = w1_cyl.parse("y*u + y^2")
    assert ddu.kernel_projection(u, f) == w1_cyl.parse("y^2")
    assert ddu.kernel_projection(u, u).is_zero()


def test_kernel_projection_fixes_kernel(ddu, w1_cyl):
    f = w1_cyl.parse("x^2*z - y")
    assert ddu.kernel_projection(w1_cyl.parse("u"), f) == w1_cyl.normal(f)


def test_kernel_projection_requires_slice(w1_lnd, w1):
    with pytest.raises(NotASlice):
        w1_lnd.kernel_projection(w1.parse("z"), w1.parse("y"))


def test_slice_reconstruction_identity():
    # f = sum_i rho(D^i(f)/i!) * s^i for D = d/dx, s = x on K[x,y]
    rng = random.Random(31)
    algebra = plane_algebra()
    D = plane_ddx(algebra)
    s = algebra.parse("x")
    from math import factorial

    for _ in range(40):
        f = rand_poly(rng, 2, max_deg=4, max_terms=4)
        total = Polynomial.zero(2)
        for i, df in enumerate(D.iterate(f)):
            rho = D.kernel_projection(s, df.scale(Fraction(1, factorial(i))))
            assert D.kernel_membership(rho)
            total = total + rho * s**i
        assert total == f


# ---- image ideals and cylinders ------------------------------------------


def test_image_ideal_w1(w1_lnd, w1):
    gens = w1_lnd.image_ideal().generators
    assert set(gens) == {w1.parse("2*z"), w1.parse("x")}


def test_image_ideal_zero_derivation(w1):
    D = Derivation(w1, [Polynomial.zero(3)] * 3)
    assert D.image_ideal().generators == ()


def test_image_ideal_slice_derivation(ddu):
    assert ddu.image_ideal().generators == (Polynomial.constant(4, 1),)


def test_cylinder_appends_fresh_variable():
    Kz = PresentedAlgebra(["z"])
    cz = cylinder(Kz)
    assert cz.vars == ("z", "u")
    assert cz.relations == ()
    again = cylinder(cz)
    assert again.vars == ("z", "u", "u1")


@pytest.mark.parametrize(
    "order",
    [LEX, MonomialOrder("grevlex")],
)
def test_cylinder_basis_is_the_extended_base_basis(order):
    vars = ["x", "y", "z"]
    texts = ("x^2*y - z^2 + 1", "y^2*z - 1/2*x*z - y", "x*z^3 - y")
    relations = [parse_poly(t, vars) for t in texts]
    base = PresentedAlgebra(vars, relations, {}, order)
    cyl = cylinder(base)
    fresh = groebner(Ideal.of([r.extend(1) for r in relations]), cyl.order)
    assert len(fresh.basis) > 1
    assert cyl.gb == fresh


def test_lift_multiplies_by_u_power():
    Kz = PresentedAlgebra(["z"])
    ddz = Derivation.from_strings(Kz, {"z": "1"})
    cz = cylinder(Kz)
    lifted = lift(ddz, 2)
    assert lifted.apply(cz.parse("z")) == cz.parse("u^2")
    assert lifted.apply(cz.parse("u")).is_zero()


def test_lift_preserves_verified_status(w1_lnd):
    assert w1_lnd.nilpotency_check(8).verified
    lifted = lift(w1_lnd, 3)
    assert lifted.nilpotency_check(8).verified
