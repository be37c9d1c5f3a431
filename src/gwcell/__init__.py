"""gwcell: exact decompositions of Hermitian K-theory of cell varieties.

Computes shifted, twisted Grothendieck-Witt groups of Grassmannians,
projective bundles and flag bundles over a regular base as formal direct
sums of base K-theory and base GW-theory summands, indexed by even Young
diagrams.

The value classes share one equality and hash, defined by
``gwcell.value.Value``.
"""

from .engine import (
    GrassmannQuery,
    ProjBundleQuery,
    decompose_grassmannian,
    decompose_point,
    decompose_projective_bundle,
    decompose_total,
    flag_closed_form,
    les_theorem_d,
)
from .expr import (
    AbelianGroup,
    BaseTheoryTable,
    FormalSum,
    GWSummand,
    LongExactSequence,
    direct_sum,
    equals,
    evaluate,
    witt_specialize,
)
from .twist import BaseSymbol, Delta, FlagQuotient, PicClass
from .young import Frame, YoungDiagram, enumerate_diagrams, enumerate_even, is_even

__all__ = [
    "AbelianGroup",
    "BaseSymbol",
    "BaseTheoryTable",
    "Delta",
    "FlagQuotient",
    "FormalSum",
    "Frame",
    "GWSummand",
    "GrassmannQuery",
    "LongExactSequence",
    "PicClass",
    "ProjBundleQuery",
    "YoungDiagram",
    "decompose_grassmannian",
    "decompose_point",
    "decompose_projective_bundle",
    "decompose_total",
    "direct_sum",
    "enumerate_diagrams",
    "enumerate_even",
    "equals",
    "evaluate",
    "flag_closed_form",
    "is_even",
    "les_theorem_d",
    "witt_specialize",
]

__version__ = "0.1.0"
