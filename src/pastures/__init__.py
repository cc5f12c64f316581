"""Computer algebra for pastures.

A pasture is a field-like structure: a commutative monoid with zero whose
nonzero elements form an abelian group, together with a scaling-closed set of
null triples recording which three-term sums vanish.  The package constructs
pastures (named ones, finite fields, presentations, products, tensor
products), enumerates their hexagons of fundamental elements, computes
binary, ternary, WLUM and GRS lifts, and checks lift theorems empirically on
matroid representations.
"""

from .groups import AbelianGroup, GroupMap
from .pasture import (
    Pasture,
    PastureElement,
    ZERO,
    named,
    finite_field,
    product,
    tensor,
)
from .hexagons import Hexagon, hexagons, fundamental_pairs, census
from .morphisms import (
    PastureMorphism,
    SearchStats,
    make,
    hom_set,
    compose,
    iso_check,
)
from .lifts import (
    LiftResult,
    binary_lift,
    ternary_lift,
    wlum_lift,
    grs_lift,
    lift_descriptor_iso,
)
from .matroids import Matroid, Representation, representation_classes

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "GroupMap",
    "Pasture",
    "PastureElement",
    "ZERO",
    "named",
    "finite_field",
    "product",
    "tensor",
    "Hexagon",
    "hexagons",
    "fundamental_pairs",
    "census",
    "PastureMorphism",
    "SearchStats",
    "make",
    "hom_set",
    "compose",
    "iso_check",
    "LiftResult",
    "binary_lift",
    "ternary_lift",
    "wlum_lift",
    "grs_lift",
    "lift_descriptor_iso",
    "Matroid",
    "Representation",
    "representation_classes",
]
