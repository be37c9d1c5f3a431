"""Formal direct sums of K- and GW-summands, and their evaluation.

A decomposition result is a multiset of building blocks: anonymous copies
of the base K-theory (stored as a single count, since all of them are
isomorphic) and shifted, twisted GW-summands of the base, each optionally
labelled by the Young diagram that produced it.  Formal sums can be
specialized to Witt groups or evaluated against a user-supplied table of
base groups.

Documents that come in from outside (base tables, formal sums read back)
are validated against their JSON schemas.  A base table that passes a
plain structural check, stricter than its schema, needs no ``jsonschema``;
it is imported only for the other documents.  Documents this module
builds are not re-validated on every call: ``verify``'s ``output_schema``
check, the golden CLI sweep and a property test check that they conform
to ``FORMAL_SUM_SCHEMA``.

A formal-sum document has one writer, ``formal_sum_json_text``,
specialized to its shape.  Its text is exactly ``json.dumps(doc,
sort_keys=True, indent=2)``, without that encoder's pure-Python cost per
value; the same ``output_schema`` check asserts the equality.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache

from .twist import PicClass
from .young import Frame, YoungDiagram


class MissingKeyError(KeyError):
    """Raised when a base-theory table lacks entries needed for evaluation."""

    def __init__(self, keys):
        self.keys = list(keys)
        super().__init__(f"base table is missing {len(self.keys)} keys: {self.keys}")


class ContextMismatchError(ValueError):
    """Raised when combining formal sums from different query contexts."""


class SchemaMismatchError(ValueError):
    """Raised when a JSON document (a base table, a formal sum) fails its schema."""


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group as a multiset of cyclic orders.

    Order 0 denotes an infinite cyclic factor; order-1 factors are dropped.
    """

    orders: tuple[int, ...] = ()

    def __post_init__(self):
        cleaned = tuple(sorted(o for o in self.orders if o != 1))
        if any(o < 0 for o in cleaned):
            raise ValueError(f"cyclic orders must be nonnegative, got {self.orders}")
        object.__setattr__(self, "orders", cleaned)

    def __add__(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup(self.orders + other.orders)

    def free_rank(self) -> int:
        return sum(1 for o in self.orders if o == 0)

    def __str__(self):
        if not self.orders:
            return "0"
        return " x ".join("Z" if o == 0 else f"Z/{o}" for o in self.orders)


@dataclass(frozen=True)
class GWSummand:
    """One shifted, twisted GW-summand of the base.

    ``t_index`` is the twist class the summand lives in and ``rho`` the
    determinant exponent accumulated by the recursion; both are optional
    provenance.
    """

    shift: int
    twist: PicClass
    diagram: YoungDiagram | None = None
    t_index: int | None = None
    rho: int | None = None


def summand_order(g: GWSummand) -> tuple:
    """The canonical order of GW summands: shift, twist key, diagram rows, then twist class and rho (unknown as 0)."""
    rows = g.diagram.rows if g.diagram is not None else ()
    return (g.shift, g.twist.sort_key, rows, g.t_index or 0, g.rho or 0)


@dataclass(frozen=True)
class FormalSum:
    """Canonical multiset of summands: a K count plus sorted GW-summands."""

    k: int = 0
    gw: tuple[GWSummand, ...] = ()
    meta: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gw", tuple(sorted(self.gw, key=summand_order)))
        object.__setattr__(self, "meta", tuple(self.meta))

    @classmethod
    def with_meta(cls, k=0, gw=(), **meta) -> "FormalSum":
        return cls(k, tuple(gw), tuple(sorted(meta.items())))

    def meta_dict(self) -> dict:
        return dict(self.meta)

    def is_empty(self) -> bool:
        return self.k == 0 and not self.gw


def direct_sum(a: FormalSum, b: FormalSum, merge: bool = False) -> FormalSum:
    """Multiset union of two formal sums.

    The two sums must echo the same query context unless ``merge`` is set,
    in which case the contexts are recorded side by side.  A merge keeps
    the Witt mode of two Witt sums, so it evaluates against W entries, and
    refuses to mix a Witt sum with a non-Witt one.
    """
    witt = {s.meta_dict().get("mode") == "witt" for s in (a, b)}
    if a.meta == b.meta:
        meta = a.meta
    elif merge and len(witt) == 1:
        meta = (("merged", (a.meta, b.meta)),) + ((("mode", "witt"),) if witt == {True} else ())
    else:
        raise ContextMismatchError(f"context mismatch: {a.meta} vs {b.meta}")
    return FormalSum(a.k + b.k, a.gw + b.gw, meta)


def _profile(s: FormalSum, with_diagrams: bool):
    if with_diagrams:
        return sorted(summand_order(g)[:3] for g in s.gw)
    return sorted((g.shift, g.twist.sort_key) for g in s.gw)


def equals(a: FormalSum, b: FormalSum) -> bool:
    """Equality of canonical forms, ignoring diagram labels when absent.

    If either side carries a GW-summand without a diagram, comparison falls
    back to the (shift, twist) profile.
    """
    if a.k != b.k:
        return False
    labelled = all(g.diagram is not None for g in a.gw + b.gw)
    return _profile(a, labelled) == _profile(b, labelled)


def witt_specialize(a: FormalSum) -> FormalSum:
    """Pass to Witt groups: K-summands vanish, shifts reduce mod 4."""
    gw = tuple(replace(g, shift=g.shift % 4) for g in a.gw)
    meta = dict(a.meta)
    meta["mode"] = "witt"
    return FormalSum(0, gw, tuple(sorted(meta.items())))


@dataclass(frozen=True)
class BaseTheoryTable:
    """User-supplied evaluation data: (theory, shift, twist, degree) -> group."""

    name: str
    entries: tuple = ()

    def _index(self) -> dict:
        return {key: grp for key, grp in self.entries}

    @classmethod
    def from_json(cls, doc: dict) -> "BaseTheoryTable":
        if not _plainly_valid_table(doc):
            validate_json(doc, BASE_TABLE_SCHEMA)
        entries = []
        for e in doc["entries"]:
            key = (e["theory"], e["shift"], tuple(sorted(e["twist"])), e["degree"])
            entries.append((key, AbelianGroup(tuple(e["group"]))))
        return cls(doc["name"], tuple(entries))

    @classmethod
    def load(cls, path) -> "BaseTheoryTable":
        with open(path) as f:
            return cls.from_json(json.load(f))


def evaluate(a: FormalSum, table: BaseTheoryTable, degree: int) -> AbelianGroup:
    """Direct sum of looked-up base groups; all-or-nothing on missing keys.

    Counts the copies of each key and builds the result once from all the
    looked-up orders, so the cost is linear in the number of summands.
    """
    mode = a.meta_dict().get("mode")
    gw_theory = "W" if mode == "witt" else "GW"
    index = table._index()
    copies = Counter()
    if a.k:
        copies["K", 0, (), degree] = a.k
    for g in a.gw:
        copies[gw_theory, g.shift, g.twist.sort_key, degree] += 1
    missing = sorted(k for k in copies if k not in index)
    if missing:
        raise MissingKeyError(missing)
    return AbelianGroup(tuple(o for k, n in copies.items() for o in index[k].orders * n))


@dataclass(frozen=True)
class LongExactSequence:
    """A cyclic list of labeled terms with the connecting maps between them.

    Terms are formal sums or named group symbols; maps are the names of the
    morphisms between consecutive terms, never evaluated.
    """

    terms: tuple
    maps: tuple[str, ...]

    def __post_init__(self):
        if len(self.terms) != len(self.maps):
            raise ValueError("a cyclic sequence needs one map per consecutive term pair")


# --- JSON serialization -------------------------------------------------

FORMAL_SUM_SCHEMA = {
    "type": "object",
    "properties": {
        "k": {"type": "integer", "minimum": 0},
        "gw": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "shift": {"type": "integer"},
                    "twist": {"type": "array", "items": {"type": "string"}},
                    "diagram": {"type": ["array", "null"], "items": {"type": "integer"}},
                    "t": {"type": ["integer", "null"], "enum": [0, 1, None]},
                    "rho": {"type": ["integer", "null"], "enum": [0, 1, None]},
                },
                "required": ["shift", "twist", "diagram", "t"],
                "additionalProperties": False,
            },
        },
        "meta": {"type": "object"},
    },
    "required": ["k", "gw", "meta"],
    "additionalProperties": False,
}

BASE_TABLE_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "theory": {"enum": ["GW", "K", "W"]},
                    "shift": {"type": "integer"},
                    "twist": {"type": "array", "items": {"type": "string"}},
                    "degree": {"type": "integer"},
                    "group": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                },
                "required": ["theory", "shift", "twist", "degree", "group"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["name", "entries"],
    "additionalProperties": False,
}


def _plainly_valid_table(doc) -> bool:
    """True only for documents ``BASE_TABLE_SCHEMA`` accepts, checked without jsonschema.

    Stricter than the schema: numbers must be ``int`` (the schema also takes
    integral floats).  A document it turns down goes to ``validate_json``,
    which decides and words the error, so a well-formed table is read
    without importing jsonschema and at a cost that stays small as it grows.
    """
    if type(doc) is not dict or doc.keys() != {"name", "entries"}:
        return False
    if type(doc["name"]) is not str or type(doc["entries"]) is not list:
        return False
    for e in doc["entries"]:
        if type(e) is not dict or e.keys() != {"theory", "shift", "twist", "degree", "group"}:
            return False
        if type(e["theory"]) is not str or e["theory"] not in ("GW", "K", "W"):
            return False
        if type(e["shift"]) is not int or type(e["degree"]) is not int:
            return False
        if type(e["twist"]) is not list or any(type(g) is not str for g in e["twist"]):
            return False
        if type(e["group"]) is not list or any(type(o) is not int or o < 0 for o in e["group"]):
            return False
    return True


@cache
def _validator(schema_text: str):
    """A checked validator for one schema, keyed by its canonical JSON text."""
    import jsonschema

    schema = json.loads(schema_text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_json(doc: dict, schema: dict):
    """Validate like ``jsonschema.validate``, checking each schema only once."""
    from jsonschema.exceptions import best_match

    validator = _validator(json.dumps(schema, sort_keys=True))
    exc = best_match(validator.iter_errors(doc))
    if exc is not None:
        raise SchemaMismatchError(f"JSON document does not match its schema at {exc.json_path}: {exc.message}") from exc


def _meta_value(v):
    if isinstance(v, tuple):
        return [_meta_value(x) for x in v]
    return v


def _meta_from_json(v):
    """Inverse of ``_meta_value``: JSON lists back to tuples."""
    if isinstance(v, list):
        return tuple(_meta_from_json(x) for x in v)
    return v


def formal_sum_to_json(a: FormalSum) -> dict:
    """The ``FORMAL_SUM_SCHEMA`` document of a formal sum, built without validation.

    Conformance is checked by ``verify.check_output_schema`` and in the
    tests, not on every call.
    """
    return {
        "k": a.k,
        "gw": [
            {
                "shift": g.shift,
                "twist": list(g.twist.sort_key),
                "diagram": list(g.diagram.rows) if g.diagram is not None else None,
                "t": g.t_index,
                "rho": g.rho,
            }
            for g in a.gw
        ],
        "meta": {k: _meta_value(v) for k, v in a.meta},
    }


def formal_sum_json_text(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` of a document ``formal_sum_to_json`` built.

    The standard encoder runs in pure Python whenever ``indent`` is set.
    This writer knows the document's shape instead: each ``gw`` entry is
    one template with its five keys in sorted order, ints written with
    ``str`` and ``None`` as ``null``; each distinct twist list is rendered
    once, its strings by ``json.dumps``; ``k`` and ``meta`` are rendered by
    ``json.dumps`` and spliced in after ``gw``, which sorts first.
    ``verify.check_output_schema`` checks the text against ``json.dumps``.
    """
    twists = {}
    entries = []
    for g in doc["gw"]:
        key = tuple(g["twist"])
        twist = twists.get(key)
        if twist is None:
            twist = twists[key] = _list_text([json.dumps(s) for s in key], 6)
        rows, t, rho = g["diagram"], g["t"], g["rho"]
        entries.append(
            f'    {{\n      "diagram": {"null" if rows is None else _list_text(map(str, rows), 6)},'
            f'\n      "rho": {"null" if rho is None else rho},'
            f'\n      "shift": {g["shift"]},'
            f'\n      "t": {"null" if t is None else t},'
            f'\n      "twist": {twist}\n    }}'
        )
    gw = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    rest = json.dumps({"k": doc["k"], "meta": doc["meta"]}, sort_keys=True, indent=2)
    return '{\n  "gw": ' + gw + "," + rest[1:]


def _list_text(items, indent: int) -> str:
    """A JSON list of already-rendered items, laid out as ``indent=2`` lays it out at ``indent`` spaces."""
    pad = "\n" + " " * (indent + 2)
    text = ("," + pad).join(items)
    return "[" + pad + text + "\n" + " " * indent + "]" if text else "[]"


def formal_sum_from_json(doc: dict, frame: Frame | None = None) -> FormalSum:
    validate_json(doc, FORMAL_SUM_SCHEMA)
    gw = []
    for g in doc["gw"]:
        diagram = None
        if g["diagram"] is not None and frame is not None:
            diagram = YoungDiagram(frame, tuple(g["diagram"]))
        gw.append(
            GWSummand(
                shift=g["shift"],
                twist=PicClass.parse(g["twist"]),
                diagram=diagram,
                t_index=g.get("t"),
                rho=g.get("rho"),
            )
        )
    meta = tuple(sorted((k, _meta_from_json(v)) for k, v in doc["meta"].items()))
    return FormalSum(doc["k"], tuple(gw), meta)


def les_to_json(seq: LongExactSequence) -> dict:
    terms = []
    for t in seq.terms:
        if isinstance(t, FormalSum):
            terms.append(formal_sum_to_json(t))
        else:
            terms.append(t)
    return {"terms": terms, "maps": list(seq.maps)}
