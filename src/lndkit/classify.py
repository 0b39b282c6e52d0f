"""Type A/B/C classification of Y (for the cylinder Y x A^1).

Classification is relative to the supplied list of verified LNDs unless
a structural tag (toric cone, trinomial datum) makes it absolute.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .derivations import (
    DEFAULT_NILPOTENCY_BOUND, Derivation, PresentedAlgebra, check_bound
)
from .errors import ArityMismatch, NoLNDs, ParseError
from .groebner import GREVLEX, GroebnerBasis, Ideal, MonomialOrder, groebner, normal_form
from .poly import Polynomial, _from_num, _is_int, _number, _rational, parse_poly
from .record import Frozen
from .report import ClassificationReport, Evidence
from .toric import Cone, classify_toric
from .trinomial import TrinomialData, classify_trinomial


class VarietyDossier(Frozen):
    """An algebra for Y plus whatever LNDs and structural tags are known.

    It holds the tags `toric` (a Cone), `trinomial` (a TrinomialData),
    `rigid_asserted` (a bool) and, given an algebra, `invariant_line` (one
    Fraction per var: a point of Y whose cylinder line is asserted
    invariant) as attributes, None or False when unset; `tags` is a new
    dict of those set on each read. It is unhashable, and refuses with
    ValueError other tags, names that do not name each derivation once by
    a str, and a derivation whose algebra has other vars or another reduced
    basis `gb`. `classify` refuses a toric and a trinomial verdict that differ.
    """

    _fields = ("algebra", "lnds", "tags", "names")

    def __init__(
        self,
        algebra: PresentedAlgebra | None,
        lnds: Sequence[Derivation] = (),
        tags: dict | None = None,
        names: tuple[str, ...] = (),  # names of the lnds, set by from_json
    ):
        lnds, names, tags = tuple(lnds), tuple(names), dict(tags or {})
        ring = None if algebra is None else (algebra.vars, algebra.gb)
        for idx, D in enumerate(lnds):
            if (D.algebra.vars, D.algebra.gb) != ring:
                raise ValueError(f"derivation #{idx} is not a derivation of {algebra!r}")
        strs = all(isinstance(n, str) for n in names)
        if names and (len(names) != len(lnds) or not strs or len(set(names)) < len(names)):
            raise ValueError(f"names {names!r} must name each of {len(lnds)} derivations once")
        toric, trinomial = _tag(tags, "toric", Cone), _tag(tags, "trinomial", TrinomialData)
        rigid, line = _tag(tags, "rigid_asserted", bool), _tag(tags, "invariant_line", Sequence)
        if tags:
            raise ValueError(f"unknown dossier tag {next(iter(tags))!r}")
        if line is not None:
            if algebra is None:
                raise ValueError("invariant_line requires vars")
            line = tuple(_number(x) for x in line)
            if len(line) != algebra.arity:
                raise ValueError(
                    "invariant_line must have one entry per variable"
                    f" ({algebra.arity}), not {len(line)}"
                )
        self.__dict__.update(algebra=algebra, lnds=lnds, names=names, toric=toric,
                             trinomial=trinomial, rigid_asserted=bool(rigid), invariant_line=line)

    @property
    def tags(self) -> dict:
        line = None if self.invariant_line is None else list(self.invariant_line)
        tags = {"toric": self.toric, "trinomial": self.trinomial,
                "rigid_asserted": self.rigid_asserted or None, "invariant_line": line}
        return {key: value for key, value in tags.items() if value is not None}

    @staticmethod
    def from_json(
        doc: dict, order: MonomialOrder = GREVLEX
    ) -> "VarietyDossier":
        """Parse a dossier document (see the README) without verifying it.

        The derivations keep their names for `derivation`; they are not
        checked to be LNDs, so `verify` the result to classify it.
        """
        doc = _shape(doc, "a dossier", dict)
        gradings = {
            name: _shape(w, f"grading {name!r}", list, int)
            for name, w in _shape(doc.get("gradings", {}), "gradings", dict).items()
        }
        algebra = trinomial = toric = line = None
        if "trinomial" in doc:
            tri = _shape(doc["trinomial"], "trinomial", dict)
            variant = _shape(tri.get("type"), "trinomial type", int)
            m = _shape(tri.get("m", 0), "trinomial m", int)
            if variant not in (1, 2):
                raise ValueError(f"trinomial type must be 1 or 2, not {variant}")
            l = _shape(tri.get("l"), "trinomial l", list, list)
            for block in l:
                _shape(block, "a trinomial l block", list, int)
            if variant == 1:
                a = _rationals(tri.get("a"), "trinomial a")
                trinomial = TrinomialData.type1(l, a, m)
            else:
                rows = _shape(tri.get("A"), "trinomial A", list, list)
                A = [_rationals(row, "a trinomial A row") for row in rows]
                trinomial = TrinomialData.type2(l, A, m)
        if "toric" in doc:
            rays = _shape(_shape(doc["toric"], "toric", dict).get("rays"), "toric rays", list, list)
            toric = Cone.of([_shape(r, "a toric ray", list, int) for r in rays])
        assertions = _shape(doc.get("assertions", {}), "assertions", dict)
        rigid = _shape(assertions.get("rigid", False), "assertions rigid", bool)
        if "invariant_line" in assertions:
            line = _rationals(assertions["invariant_line"], "invariant_line")
        if "vars" in doc:
            vars = _shape(doc["vars"], "vars", list, str)
            relations = [
                parse_poly(text, vars)
                for text in _shape(doc.get("relations", []), "relations", list, str)
            ]
            algebra = PresentedAlgebra(vars, relations, gradings, order)
        else:
            for field in ("relations", "gradings"):
                if field in doc:
                    raise ValueError(f"{field} require vars")
        derivations = _shape(doc.get("derivations", {}), "derivations", dict, dict)
        if derivations and algebra is None:
            raise ValueError("derivations require vars/relations")
        lnds = [
            Derivation.from_strings(
                algebra, _shape(images, f"derivation {name!r}", dict, str)
            )
            for name, images in derivations.items()
        ]
        tags = dict(toric=toric, trinomial=trinomial, rigid_asserted=rigid, invariant_line=line)
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
        """A dossier whose every derivation passed `Derivation.require_lnd`.

        Raises ValueError unless `bound` is an int >= 1, derivations or
        not, before it checks the dossier; then as `verify`.
        """
        check_bound(bound)
        return VarietyDossier(algebra, lnds, tags).verify(bound)

    def verify(self, bound: int = DEFAULT_NILPOTENCY_BOUND) -> "VarietyDossier":
        """This dossier, once every derivation passed `Derivation.require_lnd`.

        Raises ValueError unless `bound` is an int >= 1, and NotVerifiedLND
        for the first derivation that fails verification.
        """
        check_bound(bound)
        for D in self.lnds:
            D.require_lnd(bound)
        return self


def _shape(value, what: str, kind: type = list, item: type = object):
    """value if it is a JSON boolean (kind bool) or integer (kind int), or
    a list (kind list) or object (kind dict) whose entries are `item`s,
    else a ValueError naming what. A boolean is not an integer here."""

    def fits(x, t: type) -> bool:
        return _is_int(x) if t is int else isinstance(x, t)

    entries = value.values() if isinstance(value, dict) else value
    scalar = kind in (int, bool)
    if fits(value, kind) and (scalar or all(fits(x, item) for x in entries)):
        return value
    noun = {
        list: "a list", dict: "an object", int: "an integer", bool: "a boolean"
    }[kind]
    if item is not object:
        noun += f" of {item.__name__}s"
    raise ValueError(f"{what} must be {noun}, not {value!r}")


def _tag(tags: dict, key: str, kind: type):
    """tags.pop(key, None): None (unset), or a `kind` that is not a str (else ValueError)."""
    value = tags.pop(key, None)
    if value is not None and (not isinstance(value, kind) or isinstance(value, str)):
        raise ValueError(f"tag {key!r} must be a {kind.__name__}, not {value!r}")
    return value


def _rationals(value, what: str) -> list[Fraction]:
    """The entries of a JSON list as `_number` reads them, else a ValueError."""
    entries = _shape(value, what)
    try:
        return [_number(x) for x in entries]
    except (TypeError, ValueError, OverflowError, ParseError):
        raise ValueError(f"{what} must be a list of rationals, not {value!r}") from None


def combined_image_ideal(V: VarietyDossier) -> Ideal:
    """Ideal generated by the images of all supplied LNDs.

    Raises NotVerifiedLND for the first derivation that is not a verified
    LND, so no verdict built on this ideal rests on a non-LND.
    """
    if not V.lnds:
        raise NoLNDs("dossier supplies no derivations")
    gens: list[Polynomial] = []
    for D in V.lnds:
        D.require_lnd()
        gens.extend(D.image_ideal().generators)
    return Ideal(gens, V.algebra.arity)


def test_type_a(V: VarietyDossier) -> GroebnerBasis | None:
    """Certificate that 1 lies in the image ideal modulo relations.

    Returns the trivial Gröbner basis as the certificate, or None.
    Absence is not evidence against type A; the LND list may be partial.
    """
    gb = groebner(fixed_locus(V), V.algebra.order)
    return gb if gb.is_trivial() else None


def fixed_locus(V: VarietyDossier) -> Ideal:
    """All LND images plus the relations; its zero set is the fixed locus."""
    return Ideal(combined_image_ideal(V).generators + V.algebra.relations, V.algebra.arity)


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
    gb = groebner(Ideal(ideal.generators + base.relations, base.arity), base.order)
    w = (0,) * base.arity + (1,)
    for degree, component in f.weighted_components(w):
        if degree == 0:
            continue
        cofactor = _from_num(
            base.arity,
            {m[:-1]: c for m, c in component.num.items()},
            component.den,
        )
        if not normal_form(cofactor, gb).is_zero():
            return False
    return True


class JiCertificate(Frozen):
    """Exhibits image-ideal generators inside J_i via lifted LNDs."""

    _fields = ("i", "entries", "degenerate")
    degenerate = property(lambda self: self.i == 0)

    def __init__(self, i: int, entries: tuple[dict, ...]):
        self.__dict__.update(i=i, entries=entries)


def ji_lower_bound_check(
    V: VarietyDossier, i: int, bound: int = DEFAULT_NILPOTENCY_BOUND
) -> JiCertificate:
    """Reproduce the containment of the image ideal in J_i.

    For each nonzero supplied LND D and generator x_j with g = D(x_j)
    nonzero, the lift u^i D produces g u^i as the image of x_j, since it
    extends D by D(u) = 0 and multiplies by u^i. The lift needs no
    verification of its own: u^i lies in the kernel, so
    (u^i D)^k(x_j) = u^{ik} D^k(x_j), and u^i D is well-defined and
    nilpotent exactly when D is, with the same orders. So each entry is
    read off D's images and the verdict of `D.require_lnd(bound)`, and
    nothing is lifted. As in `VarietyDossier.create`, `bound` verifies a
    D not verified yet, and must be an int >= 1 even when every D is
    zero; a verified verdict decides at whatever bound it was reached.
    """
    if not V.lnds:
        raise NoLNDs("dossier supplies no derivations")
    if not _is_int(i) or i < 0:
        raise ValueError("i must be an int >= 0")
    check_bound(bound)
    entries = []
    for idx, D in enumerate(V.lnds):
        if D.is_zero():
            continue
        order = D.require_lnd(bound).max_order
        entries.extend(
            {
                "derivation": idx,
                "generator": V.algebra.vars[j],
                "image": V.algebra.format(g),
                "lift_verified_order": order,
            }
            for j, g in enumerate(D.images)
            if not g.is_zero()
        )
    return JiCertificate(i, tuple(entries))


def classify(V: VarietyDossier) -> ClassificationReport:
    """Trichotomy dispatch; honest Inconclusive when evidence runs out.

    A trinomial datum or toric cone decides absolutely (a cone gives A or
    B, `classify_toric`). Otherwise the verdict rests on the supplied LNDs
    and assertions, and may be Inconclusive. B, a nonzero LND with the
    asserted invariant-line point in the fixed locus, is checked before A,
    which needs a Gröbner basis; both verify every derivation first. A
    rigidity assertion gives C. Data that disagree raise ValueError: a
    trinomial and a toric verdict that differ, or a rigidity assertion
    against a structural A or B or a verified nonzero LND.
    """
    structural = []
    if V.trinomial is not None:
        structural.append(("trinomial datum", classify_trinomial(V.trinomial)))
    if V.toric is not None:
        structural.append(("toric cone", classify_toric(V.toric)))
    if structural:
        if len({report.verdict for _, report in structural}) > 1:
            claims = (f"the {what} gives verdict {report.verdict}" for what, report in structural)
            raise ValueError(", but ".join(claims))
        what, report = structural[0]
        if V.rigid_asserted and report.verdict != "C":
            raise ValueError(
                f"rigidity is asserted, but the {what} gives verdict {report.verdict}"
            )
        return report.with_evidence(Evidence(f"structural tag: {what}", {}))
    evidence = [
        Evidence(
            "classification relative to supplied LND generators",
            {"lnd_count": len(V.lnds)},
        )
    ]
    if V.rigid_asserted:
        # past this loop every D is 0, and the relations are never a unit ideal: no A
        for idx, D in enumerate(V.lnds):
            if not D.is_zero():
                D.require_lnd()
                name = repr(V.names[idx]) if V.names else f"#{idx}"
                raise ValueError(
                    f"rigidity is asserted, but derivation {name} is a"
                    " verified nonzero LND"
                )
        evidence.append(Evidence("rigidity asserted by the caller", {}))
        return ClassificationReport("C", tuple(evidence))
    if V.lnds:
        point = None if all(D.is_zero() for D in V.lnds) else V.invariant_line
        locus = fixed_locus(V)
        if point is not None:
            data = {"point": [_rational(x) for x in point]}
            # a point of the fixed locus makes the image ideal proper, so
            # no basis could give A: B needs none
            if all(g.evaluate(point) == 0 for g in locus.generators):
                evidence.append(
                    Evidence(
                        "non-rigid (verified nonzero LND) with a stable point"
                        " on an asserted invariant line",
                        data,
                    )
                )
                return ClassificationReport("B", tuple(evidence))
        gb = groebner(locus, V.algebra.order)
        if gb.is_trivial():
            basis = [V.algebra.format(g) for g in gb.basis]
            evidence.append(
                Evidence("image ideal contains 1 (no stable points)", {"basis": basis})
            )
            return ClassificationReport("A", tuple(evidence))
        if point is not None:
            evidence.append(
                Evidence("asserted invariant-line point is not in the fixed locus", data)
            )
    return ClassificationReport("Inconclusive", tuple(evidence))
