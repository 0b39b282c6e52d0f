"""Trinomial varieties: relation generation, rigidity, classification.

A trinomial datum fixes blocks of variables T_i = (T_i1, ..., T_in_i)
with exponent tuples l_i, plus m free variables S_k. Type 1 relations
chain the block monomials against pairwise distinct constants; Type 2
relations are 3x3 determinants against a coefficient matrix with
pairwise independent columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .derivations import Derivation, PresentedAlgebra
from .errors import (
    BadChoiceFunction,
    BadWeights,
    InvalidData,
    UnreducedPresentation,
)
from .poly import Polynomial, _is_int, _number
from .record import Frozen
from .report import ClassificationReport, Evidence


class TrinomialData(Frozen):
    """Input datum; blocks are indexed from 1 (variant 1) or 0 (variant 2).

    Construction raises InvalidData unless the datum is valid.
    """

    _fields = ("variant", "m", "l", "a", "A")

    def __init__(
        self,
        variant: int,
        m: int,
        l: tuple[tuple[int, ...], ...],
        a: tuple[Fraction, ...] | None = None,
        A: tuple[tuple[Fraction, ...], ...] | None = None,
    ):
        self.__dict__.update(variant=variant, m=m, l=l, a=a, A=A)
        self._validate()

    @staticmethod
    def type1(l: Sequence[Sequence[int]], a: Sequence, m: int = 0) -> "TrinomialData":
        return TrinomialData(
            1,
            m,
            tuple(tuple(li) for li in l),
            a=tuple(_number(x) for x in a),
        )

    @staticmethod
    def type2(l: Sequence[Sequence[int]], A: Sequence[Sequence], m: int = 0) -> "TrinomialData":
        return TrinomialData(
            2,
            m,
            tuple(tuple(li) for li in l),
            A=tuple(tuple(_number(x) for x in row) for row in A),
        )

    @property
    def r(self) -> int:
        return len(self.l) if self.variant == 1 else len(self.l) - 1

    @property
    def block_indices(self) -> range:
        return range(1, self.r + 1) if self.variant == 1 else range(self.r + 1)

    def block(self, i: int) -> tuple[int, ...]:
        return self.l[i - 1] if self.variant == 1 else self.l[i]

    def _validate(self) -> None:
        if self.variant not in (1, 2):
            raise InvalidData(f"variant must be 1 or 2, got {self.variant}")
        if not _is_int(self.m) or self.m < 0:
            raise InvalidData(f"m must be an integer >= 0, got {self.m!r}")
        if self.r < 2:
            raise InvalidData("need r >= 2 blocks")
        for li in self.l:
            if not li:
                raise InvalidData("empty exponent tuple")
            if not all(_is_int(e) for e in li):
                raise InvalidData(f"exponents must be integers, got {li}")
            if any(e < 1 for e in li):
                raise InvalidData("exponents must be positive")
        if self.variant == 1:
            if self.a is None or len(self.a) != self.r:
                raise InvalidData(f"need {self.r} constants a_i")
            if len(set(self.a)) != len(self.a):
                raise InvalidData("constants a_i must be pairwise distinct")
        else:
            if self.A is None or len(self.A) != 2 or any(
                len(row) != self.r + 1 for row in self.A
            ):
                raise InvalidData(f"need a 2x{self.r + 1} coefficient matrix")
            for i in range(self.r + 1):
                if self.A[0][i] == self.A[1][i] == 0:
                    raise InvalidData("zero column in coefficient matrix")
                for j in range(i + 1, self.r + 1):
                    if column_minor(self.A, i, j) == 0:
                        raise InvalidData(
                            f"columns {i} and {j} are linearly dependent"
                        )


class RigidityVerdict(Frozen):
    _fields = ("rigid", "witness", "condition")

    def __init__(self, rigid: bool, witness: str, condition: int | None = None):
        self.__dict__.update(rigid=rigid, witness=witness, condition=condition)


def _var_name(i: int, j: int) -> str:
    return f"T{i}{j}" if i < 10 and j < 10 else f"T{i}_{j}"


def variable_layout(T: TrinomialData) -> list[str]:
    names = [
        _var_name(i, j)
        for i in T.block_indices
        for j in range(1, len(T.block(i)) + 1)
    ]
    names += [f"S{k}" for k in range(1, T.m + 1)]
    return names


def _block_monomial(T: TrinomialData, names: list[str], i: int) -> Polynomial:
    arity = len(names)
    exps = [0] * arity
    for j, e in enumerate(T.block(i), start=1):
        exps[names.index(_var_name(i, j))] = e
    return Polynomial.monomial(arity, exps)


def build_relations(T: TrinomialData) -> PresentedAlgebra:
    """The presented coordinate ring of the trinomial variety."""
    names = variable_layout(T)
    arity = len(names)
    monomials = {i: _block_monomial(T, names, i) for i in T.block_indices}
    relations = []
    if T.variant == 1:
        for i in range(1, T.r):
            const = Polynomial.constant(arity, T.a[i] - T.a[i - 1])
            relations.append(monomials[i] - monomials[i + 1] - const)
    else:
        for i in range(T.r - 1):
            c0 = column_minor(T.A, i + 1, i + 2)
            c1 = -column_minor(T.A, i, i + 2)
            c2 = column_minor(T.A, i, i + 1)
            relations.append(
                monomials[i].scale(c0)
                + monomials[i + 1].scale(c1)
                + monomials[i + 2].scale(c2)
            )
    return PresentedAlgebra(names, relations)


def column_minor(A, p: int, q: int) -> Fraction:
    """2x2 minor of the coefficient matrix from columns p and q."""
    return A[0][p] * A[1][q] - A[0][q] * A[1][p]


def _has_one(li: Sequence[int]) -> bool:
    return 1 in li


def _even_with_two(li: Sequence[int]) -> bool:
    return 2 in li and all(e % 2 == 0 for e in li)


def is_rigid(T: TrinomialData) -> RigidityVerdict:
    """Scan the non-rigidity conditions in order; rigid iff none holds."""
    if T.m > 0:
        return RigidityVerdict(False, f"condition 1: m = {T.m} > 0", 1)
    missing = [i for i in T.block_indices if not _has_one(T.block(i))]
    if T.variant == 1:
        if len(missing) <= 1:
            b = missing[0] if missing else min(T.block_indices)
            return RigidityVerdict(
                False,
                f"condition 2: exponent 1 in every block except b = {b}",
                2,
            )
        return RigidityVerdict(True, "all conditions fail")
    # variant 2
    if len(missing) <= 2:
        note = ""
        if len(missing) < 2:
            note = " (exceptional set smaller than two; vacuous quantification)"
        return RigidityVerdict(
            False,
            "condition 2: at most two blocks"
            f" {missing} lack an exponent 1{note}",
            2,
        )
    if len(missing) == 3 and sum(
        1 for i in missing if _even_with_two(T.block(i))
    ) >= 2:
        return RigidityVerdict(
            False,
            f"condition 3: exceptional blocks {missing}, two of them"
            " all-even containing an exponent 2",
            3,
        )
    return RigidityVerdict(True, "all conditions fail")


def classify_trinomial(T: TrinomialData) -> ClassificationReport:
    """C when rigid; A for m > 0 or variant 1; B for variant 2 with m = 0."""
    if T.variant == 2 and T.m == 0:
        for i in T.block_indices:
            if len(T.block(i)) == 1 and T.block(i)[0] == 1:
                raise UnreducedPresentation(
                    f"block {i} is a bare variable; reduce r before classifying"
                )
    verdict = is_rigid(T)
    if verdict.rigid:
        return ClassificationReport(
            "C",
            (Evidence("rigid: no non-rigidity condition holds", {"witness": verdict.witness}),),
        )
    evidence = [Evidence("non-rigidity witness", {"witness": verdict.witness})]
    if T.m > 0:
        evidence.append(
            Evidence("free variables split off a line factor", {"m": T.m})
        )
        return ClassificationReport("A", tuple(evidence))
    if T.variant == 1:
        evidence.append(
            Evidence(
                "variant-1 canonical derivation leaves no stable points", {}
            )
        )
        return ClassificationReport("A", tuple(evidence))
    # variant 2, m = 0: the origin is singular. No block monomial is a
    # bare variable (checked above), so every relation lies in the square
    # of the maximal ideal at the origin and the Jacobian there is 0.
    evidence.append(
        Evidence(
            "variant 2 with m = 0: invariant line through the origin",
            {"jacobian_rank_at_origin": 0},
        )
    )
    return ClassificationReport("B", tuple(evidence))


def type1_lnd(T: TrinomialData, choice: dict[int, int]) -> Derivation:
    """The canonical derivation attached to a variant-1 choice function.

    choice maps each block i to a column j(i); every block but at most
    one must have l_{i,j(i)} = 1. The chosen variable of block i maps to
    the product over the other blocks of the partial derivative of their
    monomial at the chosen column; everything else maps to 0.
    """
    if T.variant != 1:
        raise InvalidData("canonical derivation is defined for variant 1 only")
    if T.m != 0:
        raise InvalidData("canonical derivation requires m = 0")
    for i in T.block_indices:
        j = choice.get(i)
        if not _is_int(j) or not 1 <= j <= len(T.block(i)):
            raise BadChoiceFunction(f"choice for block {i} is not an int in range: {j!r}")
    exceptional = [i for i in T.block_indices if T.block(i)[choice[i] - 1] != 1]
    if len(exceptional) > 1:
        raise BadChoiceFunction(
            f"blocks {exceptional} all have non-unit chosen exponents"
        )
    algebra = build_relations(T)
    names = list(algebra.vars)
    monomials = {i: _block_monomial(T, names, i) for i in T.block_indices}
    images = [Polynomial.zero(algebra.arity) for _ in names]
    for i in T.block_indices:
        target = names.index(_var_name(i, choice[i]))
        image = Polynomial.constant(algebra.arity, 1)
        for k in T.block_indices:
            if k == i:
                continue
            chosen = names.index(_var_name(k, choice[k]))
            image = image * monomials[k].partial_derivative(chosen)
        images[target] = image
    return Derivation(algebra, images)


def suspension_lnd(
    Z: PresentedAlgebra,
    D: Derivation,
    f: Polynomial,
    k: Sequence[int],
) -> tuple[PresentedAlgebra, Derivation]:
    """Lift an LND of the base to the suspension y_1^{k_1}...y_m^{k_m} = f.

    Requires k_1 = 1. Base generators h map to D(h) * y_2^{k_2}...y_m^{k_m},
    y_1 maps to D(f), the remaining y_i map to 0.
    """
    k = list(k)
    if not k or not all(_is_int(x) and x >= 1 for x in k):
        raise BadWeights("weights must be positive integers")
    if k[0] != 1:
        raise BadWeights(f"first weight must be 1, got {k[0]}")
    ok, _ = D.is_well_defined()
    if not ok:
        raise InvalidData("base derivation is not well-defined")
    m = len(k)
    y_names = tuple(f"y{i}" for i in range(1, m + 1))
    if set(y_names) & set(Z.vars):
        raise ValueError("suspension coordinate names collide with the base")
    base = Z.arity
    arity = base + m
    y_mono = Polynomial.monomial(arity, (0,) * base + tuple(k))
    tail = Polynomial.monomial(arity, (0,) * base + (0,) + tuple(k[1:]))
    relations = [r.extend(m) for r in Z.relations]
    relations.append(y_mono - f.extend(m))
    algebra = PresentedAlgebra(Z.vars + y_names, relations)
    images = [D.images[j].extend(m) * tail for j in range(base)]
    images.append(D.apply(f).extend(m))
    images.extend(Polynomial.zero(arity) for _ in range(m - 1))
    return algebra, Derivation(algebra, images)
