"""Graded decomposition of derivations.

For a weight vector w making all relations homogeneous, a derivation
splits as a finite sum of w-homogeneous derivations; the extreme parts
of an LND are again LNDs, which the tests check on examples.
"""

from __future__ import annotations

from collections.abc import Sequence

from .derivations import Derivation, integer_weights
from .errors import ArityMismatch, IncompatibleGrading, ZeroDerivation
from .poly import Polynomial
from .record import Frozen


class GradedDerivationPart(Frozen):
    _fields = ("degree", "part")

    def __init__(self, degree: int, part: Derivation):
        self.__dict__.update(degree=degree, part=part)


def decompose(D: Derivation, w: Sequence[int]) -> list[GradedDerivationPart]:
    """Split D into homogeneous parts of strictly increasing degree.

    The part of degree d sends a generator of weight w_j to the
    (d + w_j)-homogeneous component of its image. Zero derivation gives
    an empty list.
    """
    algebra = D.algebra
    w = integer_weights(w)
    if len(w) != algebra.arity:
        raise ArityMismatch(f"weight length {len(w)} vs arity {algebra.arity}")
    if not algebra.is_compatible_grading(w):
        raise IncompatibleGrading(
            "a relation is not homogeneous for the given weights"
        )
    by_degree: dict[int, list[Polynomial]] = {}
    for j, image in enumerate(D.images):
        for comp_degree, comp in image.weighted_components(w):
            d = comp_degree - w[j]
            images = by_degree.setdefault(
                d, [Polynomial.zero(algebra.arity) for _ in range(algebra.arity)]
            )
            images[j] = comp  # each degree comes once per generator
    return [
        GradedDerivationPart(d, Derivation(algebra, by_degree[d]))
        for d in sorted(by_degree)
    ]


def extreme_parts(
    D: Derivation, w: Sequence[int]
) -> tuple[GradedDerivationPart, GradedDerivationPart]:
    """Lowest- and highest-degree homogeneous parts of a nonzero D."""
    parts = decompose(D, w)
    if not parts:
        raise ZeroDerivation("zero derivation has no extreme parts")
    return parts[0], parts[-1]
