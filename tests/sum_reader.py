"""Formal-sum reader: a ``FORMAL_SUM_SCHEMA`` document back to the ``FormalSum`` it was written from.

The program writes formal sums and never reads one back; the tests read
them back to check that a document keeps every field of its sum.
"""

from gwcell.expr import FORMAL_SUM_SCHEMA, FormalSum, GWSummand, validate_json
from gwcell.twist import PicClass
from gwcell.young import Frame, YoungDiagram


def _meta_from_json(v):
    """Inverse of ``expr._meta_value``: JSON lists back to tuples."""
    if isinstance(v, list):
        return tuple(_meta_from_json(x) for x in v)
    return v


def formal_sum_from_json(doc: dict, frame: Frame | None = None) -> FormalSum:
    """The sum of a ``FORMAL_SUM_SCHEMA`` document, integral floats read as ints; without ``frame`` its summands read back unlabelled."""
    validate_json(doc, FORMAL_SUM_SCHEMA)
    gw = []
    for g in doc["gw"]:
        diagram = None
        if g["diagram"] is not None and frame is not None:
            diagram = YoungDiagram(frame, tuple(map(int, g["diagram"])))
        t, rho = g["t"], g.get("rho")
        gw.append(
            GWSummand(
                shift=int(g["shift"]),
                twist=PicClass.parse(g["twist"]),
                diagram=diagram,
                t_index=None if t is None else int(t),
                rho=None if rho is None else int(rho),
            )
        )
    return FormalSum(int(doc["k"]), gw, ((k, _meta_from_json(v)) for k, v in doc["meta"].items()))
