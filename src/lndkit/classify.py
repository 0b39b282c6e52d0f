"""Type A/B/C classification of Y (for the cylinder Y x A^1).

Classification is relative to the supplied list of verified LNDs unless
a structural tag (toric cone, trinomial datum) makes it absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .derivations import (
    DEFAULT_NILPOTENCY_BOUND, Derivation, PresentedAlgebra, cylinder, lift
)
from .errors import ArityMismatch, NoLNDs
from .groebner import GREVLEX, GroebnerBasis, Ideal, MonomialOrder, groebner, normal_form
from .poly import Polynomial, parse_poly
from .report import ClassificationReport, Evidence
from .toric import Cone, classify_toric
from .trinomial import TrinomialData, classify_trinomial


@dataclass
class VarietyDossier:
    """An algebra for Y plus whatever LNDs and structural tags are known.

    tags may carry: "toric" (Cone), "trinomial" (TrinomialData),
    "rigid_asserted" (bool), "invariant_line" (rational point of Y whose
    cylinder line is asserted invariant).
    """

    algebra: PresentedAlgebra | None
    lnds: tuple[Derivation, ...] = ()
    tags: dict = field(default_factory=dict)
    names: tuple[str, ...] = ()  # names of the lnds, set by from_json

    @staticmethod
    def from_json(
        doc: dict, order: MonomialOrder = GREVLEX
    ) -> "VarietyDossier":
        """Parse a dossier document (see the README) without verifying it.

        The derivations keep their names for `derivation`; they are not
        checked to be LNDs, so pass the result through `create` to
        classify it.
        """
        gradings = {
            name: [int(x) for x in w]
            for name, w in doc.get("gradings", {}).items()
        }
        algebra = None
        tags: dict = {}
        if "trinomial" in doc:
            tri = doc["trinomial"]
            variant, m, l = tri["type"], tri.get("m", 0), tri["l"]
            try:
                variant, m = int(variant), int(m)
            except TypeError:
                raise ValueError(
                    f"trinomial type and m must be integers, not {variant!r}, {m!r}"
                ) from None
            if variant == 1:
                a = [Fraction(x) for x in tri["a"]]
                tags["trinomial"] = TrinomialData.type1(l, a, m)
            else:
                A = [[Fraction(x) for x in row] for row in tri["A"]]
                tags["trinomial"] = TrinomialData.type2(l, A, m)
        if "toric" in doc:
            tags["toric"] = Cone.of(doc["toric"]["rays"])
        assertions = doc.get("assertions", {})
        if assertions.get("rigid"):
            tags["rigid_asserted"] = True
        if "invariant_line" in assertions:
            tags["invariant_line"] = [
                Fraction(x) for x in assertions["invariant_line"]
            ]
        if "vars" in doc:
            vars = list(doc["vars"])
            relations = [
                parse_poly(text, vars) for text in doc.get("relations", [])
            ]
            algebra = PresentedAlgebra(vars, relations, gradings, order)
        derivations = doc.get("derivations") or {}
        if derivations and algebra is None:
            raise ValueError("derivations require vars/relations")
        lnds = [
            Derivation.from_strings(algebra, images)
            for images in derivations.values()
        ]
        return VarietyDossier(algebra, tuple(lnds), tags, tuple(derivations))

    def derivation(self, name: str) -> Derivation:
        """The derivation the dossier document names `name`."""
        if name not in self.names:
            raise KeyError(f"no derivation named {name!r} in the dossier")
        return self.lnds[self.names.index(name)]

    @staticmethod
    def create(
        algebra: PresentedAlgebra | None,
        lnds: Sequence[Derivation] = (),
        tags: dict | None = None,
        bound: int = DEFAULT_NILPOTENCY_BOUND,
    ) -> "VarietyDossier":
        lnds = tuple(lnds)
        for D in lnds:
            ok, cert = D.is_well_defined()
            if not ok:
                raise ValueError(f"derivation {D!r} is not well-defined")
            verdict = D.nilpotency_check(bound)
            if not verdict.verified:
                raise ValueError(
                    f"derivation {D!r} failed verification: {verdict.describe()}"
                )
        return VarietyDossier(algebra, lnds, dict(tags or {}))


def combined_image_ideal(V: VarietyDossier) -> Ideal:
    """Ideal generated by the images of all supplied LNDs."""
    if not V.lnds:
        raise NoLNDs("dossier supplies no derivations")
    gens: list[Polynomial] = []
    for D in V.lnds:
        gens.extend(D.image_ideal().generators)
    return Ideal.of(gens, V.algebra.arity)


def test_type_a(V: VarietyDossier) -> GroebnerBasis | None:
    """Certificate that 1 lies in the image ideal modulo relations.

    Returns the trivial Gröbner basis as the certificate, or None.
    Absence is not evidence against type A; the LND list may be partial.
    """
    gb = groebner(fixed_locus(V), V.algebra.order)
    return gb if gb.is_trivial() else None


def fixed_locus(V: VarietyDossier) -> Ideal:
    """All LND images plus the relations; its zero set is the fixed locus."""
    ideal = combined_image_ideal(V)
    return Ideal.of(
        ideal.generators + V.algebra.relations, V.algebra.arity
    )


def conjectured_hdstar_member(
    base: PresentedAlgebra, f: Polynomial, ideal: Ideal
) -> bool:
    """Membership in K[Y] + sum_{i>0} I u^i inside the cylinder algebra.

    f lives in K[Y][u] (arity + 1); each positive u-component must have
    its K[Y] cofactor inside the ideal, modulo the relations of Y.
    """
    if f.arity != base.arity + 1:
        raise ArityMismatch(
            f"expected cylinder arity {base.arity + 1}, got {f.arity}"
        )
    if ideal.arity != base.arity:
        raise ArityMismatch("ideal must live in the base ring")
    gb = groebner(
        Ideal.of(ideal.generators + base.relations, base.arity), base.order
    )
    w = (0,) * base.arity + (1,)
    for degree, component in f.weighted_components(w):
        if degree == 0:
            continue
        cofactor = Polynomial(
            base.arity,
            [(m[:-1], c) for m, c in component.coeffs.items()],
        )
        if not normal_form(cofactor, gb).is_zero():
            return False
    return True


@dataclass(frozen=True)
class JiCertificate:
    """Exhibits image-ideal generators inside J_i via lifted LNDs."""

    i: int
    entries: tuple[dict, ...]
    degenerate: bool = False


def ji_lower_bound_check(
    V: VarietyDossier, i: int, bound: int = DEFAULT_NILPOTENCY_BOUND
) -> JiCertificate:
    """Reproduce the containment of the image ideal in J_i.

    For each nonzero supplied LND D and generator x_j with g = D(x_j)
    nonzero, the lift u^i D is re-verified as an LND of the cylinder and
    shown to produce g u^i as an image.
    """
    if not V.lnds:
        raise NoLNDs("dossier supplies no derivations")
    if i < 0:
        raise ValueError("i must be >= 0")
    cyl = cylinder(V.algebra)
    base = V.algebra.arity
    entries = []
    for idx, D in enumerate(V.lnds):
        if D.is_zero():
            continue
        lifted = lift(D, i, cyl)
        verdict = lifted.nilpotency_check(bound)
        if not verdict.verified:
            raise ValueError(
                f"lift of derivation {idx} failed verification:"
                f" {verdict.describe()}"
            )
        u_power = Polynomial.monomial(cyl.arity, (0,) * base + (i,))
        for j, g in enumerate(D.images):
            if g.is_zero():
                continue
            produced = lifted.apply(Polynomial.variable(cyl.arity, j))
            expected = cyl.normal(g.extend(1) * u_power)
            if produced != expected:
                raise AssertionError(
                    "lifted derivation does not reproduce g*u^i"
                )
            entries.append(
                {
                    "derivation": idx,
                    "generator": V.algebra.vars[j],
                    "image": V.algebra.format(g),
                    "lift_verified_order": verdict.max_order,
                }
            )
    return JiCertificate(i, tuple(entries), degenerate=(i == 0))


def classify(V: VarietyDossier, box: int = 10) -> ClassificationReport:
    """Trichotomy dispatch; honest Inconclusive when evidence runs out."""
    if "trinomial" in V.tags:
        T: TrinomialData = V.tags["trinomial"]
        return classify_trinomial(T).with_evidence(
            Evidence("structural tag: trinomial datum", {})
        )
    if "toric" in V.tags:
        cone: Cone = V.tags["toric"]
        return classify_toric(cone, box).with_evidence(
            Evidence("structural tag: toric cone", {})
        )
    evidence = [
        Evidence(
            "classification relative to supplied LND generators",
            {"lnd_count": len(V.lnds)},
        )
    ]
    if V.lnds:
        certificate = test_type_a(V)
        if certificate is not None:
            evidence.append(
                Evidence(
                    "image ideal contains 1 (no stable points)",
                    {
                        "basis": [
                            V.algebra.format(g) for g in certificate.basis
                        ]
                    },
                )
            )
            return ClassificationReport("A", tuple(evidence))
    if V.tags.get("rigid_asserted"):
        evidence.append(Evidence("rigidity asserted by the caller", {}))
        return ClassificationReport("C", tuple(evidence))
    nonzero = [D for D in V.lnds if not D.is_zero()]
    if nonzero and "invariant_line" in V.tags:
        point = [Fraction(x) for x in V.tags["invariant_line"]]
        locus = fixed_locus(V)
        # the tagged point must lie in the fixed locus (which is then
        # nonempty, so the image ideal is proper: a not-type-A witness)
        stable = all(g.evaluate(point) == 0 for g in locus.generators)
        if stable:
            evidence.append(
                Evidence(
                    "non-rigid (verified nonzero LND) with a stable point"
                    " on an asserted invariant line",
                    {"point": [str(x) for x in point]},
                )
            )
            return ClassificationReport("B", tuple(evidence))
        evidence.append(
            Evidence(
                "asserted invariant-line point is not in the fixed locus",
                {"point": [str(x) for x in point]},
            )
        )
    return ClassificationReport("Inconclusive", tuple(evidence))
