import json
import random
import sys
from pathlib import Path

import pytest

from lndkit import (
    Cone,
    Derivation,
    Ideal,
    MonomialOrder,
    PresentedAlgebra,
    TrinomialData,
    VarietyDossier,
    classify,
    combined_image_ideal,
    conjectured_hdstar_member,
    contains_one,
    fixed_locus,
    groebner,
    ji_lower_bound_check,
    normal_form,
)
from lndkit import test_type_a as type_a_certificate
from lndkit.derivations import cylinder, lift
from lndkit.errors import ArityMismatch, NoLNDs, NotVerifiedLND
from lndkit.poly import Polynomial, parse_poly
from lndkit.report import ClassificationReport, Evidence

from helpers import (
    assert_permutations_keep_the_verdict,
    refuse_groebner_bases,
    substitute,
    transformed_dossier,
    triangular_automorphism,
    w1_algebra,
    w1_canonical,
)

XYZ = ["x", "y", "z"]
DATA = Path(__file__).parent / "data"


def quadric_cone():
    """x*y = z^2 with the LND x -> 0, y -> 2z, z -> x; origin is fixed."""
    algebra = PresentedAlgebra(XYZ, [parse_poly("x*y - z^2", XYZ)])
    D = Derivation.from_strings(algebra, {"x": "0", "y": "2*z", "z": "x"})
    return algebra, D


@pytest.fixture(scope="module")
def w1_dossier():
    algebra = w1_algebra()
    return VarietyDossier.create(algebra, [w1_canonical(algebra)])


@pytest.fixture(scope="module")
def cone_dossier():
    algebra, D = quadric_cone()
    return VarietyDossier.create(
        algebra, [D], tags={"invariant_line": (0, 0, 0)}
    )


# ---- dossiers ------------------------------------------------------------


def test_create_rejects_unverified_derivation():
    algebra = PresentedAlgebra(["x"])
    euler = Derivation.from_strings(algebra, {"x": "x"})
    with pytest.raises(NotVerifiedLND, match="failed verification"):
        VarietyDossier.create(algebra, [euler])


@pytest.mark.parametrize(
    "tags",
    [
        {"toric": Cone.of([[1, 0], [0, 1]])},
        {"trinomial": TrinomialData.type1([[1], [2], [3]], [0, 1, 2])},
    ],
    ids=["toric", "trinomial"],
)
@pytest.mark.parametrize(
    "bound, message",
    [(0, "bound must be >= 1"), (-3, "bound must be >= 1"), (2.5, "bound must be an int")],
)
def test_create_checks_the_bound_without_derivations(tags, bound, message):
    with pytest.raises(ValueError, match=message):
        VarietyDossier.create(None, (), tags, bound)


def test_create_rejects_ill_defined_derivation():
    algebra = PresentedAlgebra(["x", "y"], [parse_poly("x^2", ["x", "y"])])
    D = Derivation.from_strings(algebra, {"x": "1", "y": "0"})
    with pytest.raises(NotVerifiedLND, match="does not preserve the relations"):
        VarietyDossier.create(algebra, [D])


def test_a_derivation_of_another_algebra_is_refused():
    # d/dx on K[x, y] does not preserve x*y - 1, and K[x, 1/x] has no
    # nonzero LND; unchecked, the dossier classified as A with basis ['1']
    XY = ["x", "y"]
    torus = PresentedAlgebra(XY, [parse_poly("x*y - 1", XY)])
    d_x = Derivation.from_strings(PresentedAlgebra(XY), {"x": "1", "y": "0"})
    with pytest.raises(ValueError, match="derivation #0 is not a derivation of"):
        VarietyDossier(torus, (d_x,))
    with pytest.raises(ValueError, match="derivation #0 is not a derivation of"):
        VarietyDossier.create(torus, [d_x])
    with pytest.raises(ValueError, match="derivation #0 is not a derivation of None"):
        VarietyDossier(None, (d_x,))
    # an equal but distinct algebra: the same vars and reduced basis
    algebra, D = quadric_cone()
    twin = PresentedAlgebra(XYZ, [parse_poly("2*z^2 - 2*x*y", XYZ)])
    assert twin is not algebra and twin.gb == algebra.gb
    V = VarietyDossier.create(twin, [D], {"invariant_line": [0, 0, 0]})
    assert V.lnds == (D,) and classify(V).verdict == "B"


# ---- image ideals -----------------------------------------------------------


def test_combined_image_ideal_w1(w1_dossier):
    gens = set(combined_image_ideal(w1_dossier).generators)
    algebra = w1_dossier.algebra
    assert gens == {algebra.parse("2*z"), algebra.parse("x")}


def test_combined_image_ideal_requires_lnds():
    algebra = w1_algebra()
    with pytest.raises(NoLNDs):
        combined_image_ideal(VarietyDossier(algebra))


def test_combined_ideal_grows_with_more_lnds():
    algebra, D = quadric_cone()
    zero = Derivation(algebra, [Polynomial.zero(3)] * 3)
    small = VarietyDossier.create(algebra, [zero])
    big = VarietyDossier.create(algebra, [zero, D])
    small_gb = groebner(
        Ideal.of(
            combined_image_ideal(small).generators + algebra.relations, 3
        )
    )
    for g in combined_image_ideal(big).generators:
        if normal_form(g, small_gb).is_zero():
            continue
        break
    else:
        pytest.fail("second derivation added nothing to the image ideal")


# ---- type A certificates ---------------------------------------------------


def test_type_a_certificate_w1(w1_dossier):
    cert = type_a_certificate(w1_dossier)
    assert cert is not None and cert.is_trivial()


def test_type_a_no_certificate_for_quadric_cone(cone_dossier):
    assert type_a_certificate(cone_dossier) is None


def test_type_a_no_certificate_for_zero_ideal():
    algebra = PresentedAlgebra(["x"])
    V = VarietyDossier.create(algebra, [Derivation(algebra, [Polynomial.zero(1)])])
    assert fixed_locus(V).generators == ()
    assert type_a_certificate(V) is None


# ---- fixed loci -------------------------------------------------------------


def test_fixed_locus_quadric_cone(cone_dossier):
    locus = fixed_locus(cone_dossier)
    gb = groebner(locus)
    # the zero set is the line {x = z = 0}
    assert normal_form(parse_poly("x", XYZ), gb).is_zero()
    assert normal_form(parse_poly("z", XYZ), gb).is_zero()
    assert not normal_form(parse_poly("y", XYZ), gb).is_zero()
    assert not contains_one(locus)


def test_fixed_locus_empty_for_w1(w1_dossier):
    assert contains_one(fixed_locus(w1_dossier))


def test_fixed_locus_lists_images_before_relations(cone_dossier):
    # test_type_a runs Buchberger on this list, so its order fixes the pairs
    images = combined_image_ideal(cone_dossier).generators
    relations = cone_dossier.algebra.relations
    assert fixed_locus(cone_dossier).generators == images + relations


# ---- conjectured graded-piece membership ------------------------------------


def test_hdstar_member_goldens(cone_dossier):
    base = cone_dossier.algebra
    ideal = combined_image_ideal(cone_dossier)
    names = XYZ + ["u"]
    assert not conjectured_hdstar_member(base, parse_poly("u", names), ideal)
    assert conjectured_hdstar_member(base, parse_poly("y^3 + 1", names), ideal)
    assert conjectured_hdstar_member(base, parse_poly("x*u", names), ideal)
    assert conjectured_hdstar_member(
        base, parse_poly("2*z*u^2 + y", names), ideal
    )
    assert not conjectured_hdstar_member(
        base, parse_poly("y*u^2", names), ideal
    )
    # membership is tested modulo the relations of the base
    assert conjectured_hdstar_member(
        base, parse_poly("z^2*u", names), ideal
    )


def test_hdstar_member_closure_random(cone_dossier):
    rng = random.Random(97)
    base = cone_dossier.algebra
    ideal = combined_image_ideal(cone_dossier)
    members = [
        parse_poly(t, XYZ + ["u"])
        for t in ["y^2", "x*u", "2*z*u^2 + y", "x^2*u^3", "z*u - 1"]
    ]
    for _ in range(40):
        f = rng.choice(members)
        g = rng.choice(members)
        assert conjectured_hdstar_member(base, f + g, ideal)
        assert conjectured_hdstar_member(base, f * g, ideal)


def test_hdstar_member_arity_checks(cone_dossier):
    base = cone_dossier.algebra
    ideal = combined_image_ideal(cone_dossier)
    with pytest.raises(ArityMismatch):
        conjectured_hdstar_member(base, parse_poly("x", XYZ), ideal)
    with pytest.raises(ArityMismatch):
        conjectured_hdstar_member(
            base, parse_poly("x", XYZ + ["u"]), Ideal.of([], arity=4)
        )


# ---- J_i certificates -----------------------------------------------------


def test_ji_certificate_entries(cone_dossier):
    cert = ji_lower_bound_check(cone_dossier, 2)
    assert cert.i == 2 and not cert.degenerate
    assert {e["generator"] for e in cert.entries} == {"y", "z"}
    assert all(e["lift_verified_order"] is not None for e in cert.entries)


def test_ji_zero_is_degenerate(w1_dossier):
    assert ji_lower_bound_check(w1_dossier, 0).degenerate


def test_ji_lift_not_verified_within_bound(w1_dossier):
    # `bound` verifies a D not verified yet, and the error names D itself
    D = w1_dossier.lnds[0]
    fresh = Derivation(D.algebra, D.images)
    message = r"Derivation\(x -> 0, y -> 2\*z, z -> x\) failed verification:"
    with pytest.raises(NotVerifiedLND, match=message + r" Inconclusive\(bound=1\)"):
        ji_lower_bound_check(VarietyDossier(D.algebra, (fresh,)), 1, bound=1)
    # a verified D keeps its verdict, whatever the bound
    cert = ji_lower_bound_check(w1_dossier, 1, bound=1)
    assert {e["lift_verified_order"] for e in cert.entries} == {3}


def test_ji_trusts_the_verdict_of_require_lnd():
    # D(y) = x^70 needs 72 applications: more than the default bound of 64
    algebra = PresentedAlgebra(["x", "y"])
    D = Derivation.from_strings(algebra, {"x": "1", "y": "x^70"})
    V = VarietyDossier.create(algebra, [D], bound=100)
    assert D.require_lnd().describe() == "VerifiedLND(max_order=72)"
    cert = ji_lower_bound_check(V, 1)
    assert [e["lift_verified_order"] for e in cert.entries] == [72, 72]
    fresh = Derivation(algebra, D.images)
    for bound in (1, 64):
        with pytest.raises(NotVerifiedLND, match=rf"Inconclusive\(bound={bound}\)"):
            ji_lower_bound_check(VarietyDossier(algebra, (fresh,)), 1, bound)
    assert ji_lower_bound_check(VarietyDossier(algebra, (fresh,)), 1, bound=72) == cert


@pytest.mark.parametrize("i", [0, 1, 3])
@pytest.mark.parametrize("dossier", ["w1_dossier", "cone_dossier"])
def test_ji_lift_order_is_that_of_a_fresh_lift_verification(dossier, i, request):
    V = request.getfixturevalue(dossier)
    cyl = cylinder(V.algebra)
    cert = ji_lower_bound_check(V, i)
    assert cert.entries
    u_power = Polynomial.variable(cyl.arity, V.algebra.arity) ** i
    for e in cert.entries:
        D = V.lnds[e["derivation"]]
        j = V.algebra.vars.index(e["generator"])
        g = D.images[j]
        lifted = lift(D, i)
        assert e["lift_verified_order"] == lifted.require_lnd().max_order
        assert lifted.apply(Polynomial.variable(cyl.arity, j)) == cyl.normal(
            g.extend(1) * u_power
        )
        assert e["image"] == V.algebra.format(g)


@pytest.mark.parametrize("i", [-1, True, 1.5])
def test_ji_and_lift_take_only_non_negative_int_powers(w1_dossier, i):
    with pytest.raises(ValueError):
        ji_lower_bound_check(w1_dossier, i)
    with pytest.raises(ValueError):
        lift(w1_dossier.lnds[0], i)


def test_ji_skips_zero_derivations(w1_dossier):
    D = w1_dossier.lnds[0]
    zero = Derivation(D.algebra, [Polynomial.zero(3)] * 3)
    cert = ji_lower_bound_check(VarietyDossier(D.algebra, (zero, D)), 1)
    assert cert.entries == tuple(
        dict(e, derivation=1) for e in ji_lower_bound_check(w1_dossier, 1).entries
    )


@pytest.mark.parametrize("bound", [0, -3])
def test_ji_checks_the_bound_when_every_derivation_is_zero(bound):
    algebra = w1_algebra()
    zero = Derivation(algebra, [Polynomial.zero(3)] * 3)
    with pytest.raises(ValueError, match="bound must be >= 1"):
        ji_lower_bound_check(VarietyDossier(algebra, (zero,)), 1, bound)


def test_ji_requires_lnds():
    with pytest.raises(NoLNDs):
        ji_lower_bound_check(VarietyDossier(w1_algebra()), 1)


# ---- dispatch ------------------------------------------------------------


def test_classify_w1_is_a(w1_dossier):
    report = classify(w1_dossier)
    assert report.verdict == "A"
    assert any("contains 1" in e.criterion for e in report.evidence)


def test_classify_quadric_cone_is_b(cone_dossier):
    report = classify(cone_dossier)
    assert report.verdict == "B"


def test_classify_trinomial_tag_takes_priority():
    T = TrinomialData.type1([[2], [2]], [0, 1])
    V = VarietyDossier(None, tags={"trinomial": T})
    assert classify(V).verdict == "C"


def test_classify_toric_tag():
    V = VarietyDossier(None, tags={"toric": Cone.of([[1, 0], [1, 2]])})
    assert classify(V).verdict == "B"


def test_classify_rigid_assertion():
    algebra = PresentedAlgebra(["x"])
    V = VarietyDossier.create(algebra, tags={"rigid_asserted": True})
    assert classify(V).verdict == "C"


def test_classify_refuses_a_rigidity_assertion_a_structural_verdict_contradicts():
    # a structural A or B shows Y is not rigid; a structural C agrees
    for name, verdict in [
        ("toric_plane.json", "A"),
        ("toric_quadric.json", "B"),
        ("trinomial_type1.json", "A"),
        ("trinomial_type2.json", "B"),
    ]:
        doc = json.loads((DATA / name).read_text())
        assert classify(VarietyDossier.from_json(doc)).verdict == verdict
        doc["assertions"] = {"rigid": True}
        what = "toric cone" if "toric" in doc else "trinomial datum"
        with pytest.raises(ValueError) as caught:
            classify(VarietyDossier.from_json(doc))
        assert str(caught.value) == (
            f"rigidity is asserted, but the {what} gives verdict {verdict}"
        )
    doc = json.loads((DATA / "trinomial_rigid.json").read_text())
    plain = classify(VarietyDossier.from_json(doc))
    doc["assertions"] = {"rigid": True}
    assert classify(VarietyDossier.from_json(doc)) == plain
    assert plain.verdict == "C"


def test_classify_refuses_a_rigidity_assertion_a_verified_lnd_contradicts():
    # a verified nonzero LND shows Y is not rigid, whether the LNDs alone
    # would give B (the quadric cone) or A (W_1)
    algebra, D = quadric_cone()
    zero = Derivation(algebra, [Polynomial.zero(3)] * 3)
    W = w1_algebra()
    for V in (
        VarietyDossier.create(algebra, [zero, D], tags={"rigid_asserted": True}),
        VarietyDossier.create(W, [w1_canonical(W)], tags={"rigid_asserted": True}),
    ):
        with pytest.raises(ValueError) as caught:
            classify(V)
        index = len(V.lnds) - 1
        assert str(caught.value) == (
            f"rigidity is asserted, but derivation #{index} is a verified nonzero LND"
        )
    doc = json.loads((DATA / "quadric.json").read_text())
    doc["assertions"] = {"rigid": True}
    with pytest.raises(ValueError, match="derivation 'canonical' is a verified"):
        classify(VarietyDossier.from_json(doc))
    # only zero derivations leave the assertion standing
    V = VarietyDossier.create(algebra, [zero], tags={"rigid_asserted": True})
    assert classify(V).verdict == "C"
    # a derivation that is no LND contradicts nothing, and is reported as such
    doc["derivations"] = {"bad": {"x": "1", "y": "0", "z": "0"}}
    with pytest.raises(NotVerifiedLND, match="does not preserve the relations"):
        classify(VarietyDossier.from_json(doc))


def test_report_rejects_an_unknown_verdict():
    with pytest.raises(ValueError, match="unknown verdict 'D'"):
        ClassificationReport("D")


def test_classify_inconclusive_without_evidence():
    algebra, D = quadric_cone()
    V = VarietyDossier.create(algebra, [D])  # no invariant-line tag
    assert classify(V).verdict == "Inconclusive"


def test_classify_rejects_off_locus_invariant_line():
    algebra, D = quadric_cone()
    V = VarietyDossier.create(
        algebra, [D], tags={"invariant_line": (1, 1, 1)}
    )
    report = classify(V)
    assert report.verdict == "Inconclusive"
    assert any("not in the fixed locus" in e.criterion for e in report.evidence)


# ---- dossier documents ------------------------------------------------------


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_from_json_loads_every_data_file(path):
    doc = json.loads(path.read_text())
    V = VarietyDossier.from_json(doc)
    assert V.names == tuple(doc.get("derivations", {}))
    for name in V.names:
        assert V.derivation(name).algebra is V.algebra
    assert (V.algebra is None) == ("vars" not in doc)
    assert ("toric" in V.tags) == ("toric" in doc)
    assert ("trinomial" in V.tags) == ("trinomial" in doc)


@pytest.mark.parametrize("name", ["quadric.json", "w1.json"])
def test_from_json_needs_an_invariant_line_entry_per_variable(name):
    # from_json refuses the assertion itself, before any verdict reads it
    doc = json.loads((DATA / name).read_text())
    doc["assertions"] = {"invariant_line": [0]}
    message = r"invariant_line must have one entry per variable \(3\), not 1"
    with pytest.raises(ValueError, match=message):
        VarietyDossier.from_json(doc)


def test_from_json_reads_tags_and_gradings():
    V = VarietyDossier.from_json(json.loads((DATA / "quadric.json").read_text()))
    assert V.tags == {"invariant_line": [0, 0, 0]}
    assert V.algebra.relations == (parse_poly("x*y - z^2", XYZ),)
    W = VarietyDossier.from_json(json.loads((DATA / "w1.json").read_text()))
    assert W.algebra.gradings == {"halfspin": (2, -2, 0)}
    assert W.lnds == (W.derivation("canonical"),)
    T = VarietyDossier.from_json(
        {"trinomial": {"type": 1, "l": [[2], [2]], "a": [0, 1]},
         "assertions": {"rigid": True}}
    )
    assert T.tags == {
        "trinomial": TrinomialData.type1([[2], [2]], [0, 1]),
        "rigid_asserted": True,
    }


def test_from_json_keeps_unverified_derivations():
    V = VarietyDossier.from_json(
        {"vars": ["x"], "derivations": {"euler": {"x": "x"}}}
    )
    assert not V.derivation("euler").nilpotency_check().verified
    with pytest.raises(NotVerifiedLND, match="failed verification"):
        VarietyDossier.create(V.algebra, V.lnds, V.tags)


@pytest.mark.parametrize(
    "doc, reason",
    [
        (
            {"vars": ["x", "y"], "derivations": {"bad": {"x": "1", "y": "y"}}},
            "NotNilpotentWitness",
        ),
        (
            {
                "vars": XYZ,
                "relations": ["x*y - z^2"],
                "derivations": {"bad": {"x": "1", "y": "0", "z": "0"}},
            },
            "does not preserve the relations",
        ),
    ],
)
def test_verdicts_on_a_loaded_non_lnd_raise(doc, reason):
    # from_json verifies nothing, so the verdicts must verify for themselves
    V = VarietyDossier.from_json(doc)
    for verdict in (classify, type_a_certificate, fixed_locus, combined_image_ideal):
        with pytest.raises(NotVerifiedLND, match=reason):
            verdict(V)


def test_from_json_derivations_require_vars():
    with pytest.raises(ValueError, match="require vars"):
        VarietyDossier.from_json({"derivations": {"d": {"x": "1"}}})


def test_from_json_unknown_derivation_name():
    V = VarietyDossier.from_json(json.loads((DATA / "w1.json").read_text()))
    with pytest.raises(KeyError, match="no derivation named 'nope'"):
        V.derivation("nope")


def test_ji_lower_bound_check_on_weighted_algebra():
    order = MonomialOrder("weighted", (1, 2, 3))
    algebra = PresentedAlgebra(XYZ, [parse_poly("x*y - z^2 + 1", XYZ)], {}, order)
    V = VarietyDossier.create(algebra, [w1_canonical(algebra)])
    cert = ji_lower_bound_check(V, 2)
    assert [(e["generator"], e["image"]) for e in cert.entries] == [
        ("y", "2*z"),
        ("z", "x"),
    ]


def test_a_rigidity_assertion_gives_c_before_any_groebner_basis(monkeypatch):
    # past the contradiction check every derivation is zero, and zero images
    # plus relations never give the unit ideal, so no basis could give A
    algebra, _ = quadric_cone()
    zero = Derivation(algebra, [Polynomial.zero(3)] * 3)
    V = VarietyDossier.create(algebra, [zero], tags={"rigid_asserted": True})
    module = sys.modules["lndkit.classify"]
    calls = []

    def counted(*args):
        calls.append(args)
        return groebner(*args)

    monkeypatch.setattr(module, "groebner", counted)
    report = classify(V)
    assert len(calls) == 0
    assert report == ClassificationReport("C", (
        Evidence("classification relative to supplied LND generators", {"lnd_count": 1}),
        Evidence("rigidity asserted by the caller", {}),
    ))


def test_b_is_found_before_any_groebner_basis(monkeypatch):
    # a point of the fixed locus makes the image ideal proper: no A to try
    V = VarietyDossier.from_json(json.loads((DATA / "quadric.json").read_text()))
    refuse_groebner_bases(monkeypatch)
    assert classify(V) == ClassificationReport("B", (
        Evidence("classification relative to supplied LND generators", {"lnd_count": 1}),
        Evidence(
            "non-rigid (verified nonzero LND) with a stable point on an asserted"
            " invariant line",
            {"point": ["0", "0", "0"]},
        ),
    ))


def test_b_first_still_verifies_every_derivation(monkeypatch):
    doc = json.loads((DATA / "quadric.json").read_text())
    doc["derivations"]["bad"] = {"x": "1", "y": "0", "z": "0"}
    V = VarietyDossier.from_json(doc)
    refuse_groebner_bases(monkeypatch)
    with pytest.raises(NotVerifiedLND, match="does not preserve the relations"):
        classify(V)


def test_a_point_off_the_fixed_locus_still_tries_a_then_says_why(monkeypatch):
    algebra, D = quadric_cone()
    V = VarietyDossier.create(algebra, [D], tags={"invariant_line": (1, "1/2", 1)})
    assert classify(V) == ClassificationReport("Inconclusive", (
        Evidence("classification relative to supplied LND generators", {"lnd_count": 1}),
        Evidence(
            "asserted invariant-line point is not in the fixed locus",
            {"point": ["1", "1/2", "1"]},
        ),
    ))
    # the point decides nothing, so the basis for A is still built
    refuse_groebner_bases(monkeypatch)
    with pytest.raises(AssertionError, match="built a Gröbner basis"):
        classify(V)
    # and an A verdict carries no word of the point
    monkeypatch.undo()
    w1 = w1_algebra()
    W = VarietyDossier.create(w1, [w1_canonical(w1)], tags={"invariant_line": (1, 1, 1)})
    assert [e.criterion for e in classify(W).evidence] == [
        "classification relative to supplied LND generators",
        "image ideal contains 1 (no stable points)",
    ]


@pytest.mark.parametrize("name, verdict", [("w1.json", "A"), ("quadric.json", "B")])
def test_dossier_verdict_is_an_isomorphism_invariant(name, verdict):
    # the same variety presented through ten seeded triangular automorphisms
    # x_i -> x_i + p_i(x_<i): relations, LNDs and the stable point all move
    V = VarietyDossier.from_json(json.loads((DATA / name).read_text()))
    assert classify(VarietyDossier.create(V.algebra, V.lnds, V.tags)).verdict == verdict
    xs = [Polynomial.variable(3, i) for i in range(3)]
    rng = random.Random(1)
    moved = 0
    for _ in range(10):
        phi, psi = triangular_automorphism(rng, 3)
        assert [substitute(g, phi) for g in psi] == xs
        W = transformed_dossier(V, phi, psi)
        moved += W.algebra.relations != V.algebra.relations
        assert classify(W).verdict == verdict
    assert moved >= 8


@pytest.mark.parametrize("name, verdict", [("w1.json", "A"), ("quadric.json", "B")])
def test_dossier_verdict_survives_permuting_and_renaming_variables(name, verdict):
    V = VarietyDossier.from_json(json.loads((DATA / name).read_text()))
    assert_permutations_keep_the_verdict(V, verdict, seed=3, draws=6)
