"""Formal direct sums of K- and GW-summands, and their evaluation.

A decomposition result is a multiset of building blocks: anonymous copies
of the base K-theory (stored as a single count, since all of them are
isomorphic) and shifted, twisted GW-summands of the base, each optionally
labelled by the Young diagram that produced it.  Formal sums can be
specialized to Witt groups or evaluated against a user-supplied table of
base groups.

A base table comes in from outside and is validated against its JSON
schema.  One that passes a plain structural check, stricter than its
schema, needs no ``jsonschema``; it is imported only for any other table.
Formal sums are written, never read back.  Documents this module builds
are not re-validated on every call: ``verify``'s ``output_schema`` check,
the golden CLI sweep and a property test check that they conform to
``FORMAL_SUM_SCHEMA``.  ``verify`` runs its own plain check first, and
hands ``validate_json`` only a document that check turns down.

A formal sum holds each GW-summand as one plain record, which every
reader uses; an engine sum builds no ``GWSummand`` or ``YoungDiagram``
until a caller reads ``gw``.  Its document has one writer,
``formal_sum_json_text``, specialized to its shape.  Its text is exactly
``json.dumps(formal_sum_to_json(s), sort_keys=True, indent=2)``, without
that encoder's pure-Python cost per value; the same ``output_schema``
check asserts the equality.  It fills ASCII bytes templates with ``%d``
slots, so ``GWSummand``, ``YoungDiagram``, ``FormalSum`` and the engine's
queries read every shift, row and K count through ``value.exact_ints``:
a float is a ``ValueError``, never truncated.  ``les_json_text`` writes a
long exact sequence's document from its terms' texts; only a merged sum's
list meta takes the indenting encoder.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from functools import lru_cache
from itertools import chain

from .twist import PicClass
from .value import Value, exact_ints, read_once
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


class AbelianGroup(Value):
    """Finitely generated abelian group as a multiset of cyclic orders.

    Order 0 denotes an infinite cyclic factor; order-1 factors are dropped.
    """

    __slots__ = ("orders",)

    def __init__(self, orders: tuple[int, ...] = ()):
        cleaned = tuple(sorted(o for o in orders if o != 1))
        if any(o < 0 for o in cleaned):
            raise ValueError(f"cyclic orders must be nonnegative, got {orders}")
        self.orders = cleaned

    def _values(self) -> tuple:
        return (self.orders,)

    def __add__(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup(self.orders + other.orders)

    def __str__(self):
        if not self.orders:
            return "0"
        return " x ".join("Z" if o == 0 else f"Z/{o}" for o in self.orders)


class GWSummand(Value):
    """One shifted, twisted GW-summand of the base.

    ``t_index`` is the twist class the summand lives in and ``rho`` the
    determinant exponent accumulated by the recursion; both are optional
    provenance.  The shift is an exact int (``value.exact_ints``).
    """

    __slots__ = ("shift", "twist", "diagram", "t_index", "rho")

    def __init__(
        self,
        shift: int,
        twist: PicClass,
        diagram: YoungDiagram | None = None,
        t_index: int | None = None,
        rho: int | None = None,
    ):
        (shift,) = exact_ints("shift", shift)
        self.shift = shift
        self.twist = twist
        self.diagram = diagram
        self.t_index = t_index
        self.rho = rho

    def _values(self) -> tuple:
        return (self.shift, self.twist, self.diagram, self.t_index, self.rho)

    def record(self) -> tuple:
        """The summand as a formal-sum record: its fields with the twist as its ``sort_key`` and the diagram as its rows, None when unlabelled."""
        return (self.shift, self.twist.sort_key, None if self.diagram is None else self.diagram.rows, self.t_index, self.rho)


def record_order(record: tuple) -> tuple:
    """The canonical order of GW records ``(shift, twist key, rows, t, rho)``: plain tuple order, each unset field (None) read as -1, an unset diagram as the one-row vector of -1.

    Engine records never hold None, so ``FormalSum.of_records`` sorts them in plain tuple order, with no key.
    """
    s, key, rows, t, rho = record
    return (s, key, (-1,) if rows is None else rows, -1 if t is None else t, -1 if rho is None else rho)


class FormalSum(Value):
    """Canonical multiset of summands: a K count, a nonnegative exact int, plus GW-summands in ``record_order`` of their records.

    ``meta``: the query context as (key, value) pairs, sorted by key however given.

    ``records`` holds each GW-summand's ``GWSummand.record``, in
    ``record_order``.  A sum built from ``GWSummand``s keeps them as ``gw``.
    A sum the engine builds (``of_records``) has its ``gw`` built from the
    records, its frame and its twists by rho when first read, and each
    diagram is then validated against the frame.
    """

    def __init__(self, k: int = 0, gw=(), meta=()):
        (k,) = exact_ints("k", k)
        if k < 0:
            raise ValueError(f"K count must be nonnegative, got k={k}")
        gw = tuple(sorted(gw, key=lambda g: record_order(g.record())))
        records = tuple(g.record() for g in gw)
        self.__dict__.update(k=k, records=records, meta=tuple(sorted(dict(meta).items())), gw=gw, frame=None, twists=None)

    @classmethod
    def with_meta(cls, k=0, gw=(), **meta) -> "FormalSum":
        return cls(k, gw, meta.items())

    @classmethod
    def of_records(cls, k: int, records, frame: Frame, twists: tuple[PicClass, PicClass], **meta) -> "FormalSum":
        """An engine sum: records with every field set (see ``record_order``), their diagrams in ``frame``, ``twists[rho]`` behind each key."""
        s = cls.__new__(cls)
        s.__dict__.update(k=k, records=tuple(sorted(records)), meta=tuple(sorted(meta.items())), frame=frame, twists=twists)
        return s

    @read_once
    def gw(self) -> tuple[GWSummand, ...]:
        frame, twists = self.frame, self.twists
        return tuple(GWSummand(s, twists[rho], YoungDiagram(frame, rows), t, rho) for s, _, rows, t, rho in self.records)

    def _values(self) -> tuple:
        return (self.k, self.records, self.meta)

    def meta_dict(self) -> dict:
        return dict(self.meta)


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


def equals(a: FormalSum, b: FormalSum) -> bool:
    """Equality of canonical forms, ignoring diagram labels when absent.

    If either side carries a GW-summand without a diagram, comparison falls
    back to the (shift, twist) profile.  Records are in canonical order, so
    their (shift, twist, rows) prefixes are already sorted.
    """
    n = 3 if all(r[2] is not None for r in a.records + b.records) else 2
    return a.k == b.k and [r[:n] for r in a.records] == [r[:n] for r in b.records]


def witt_specialize(a: FormalSum) -> FormalSum:
    """Pass to Witt groups: K-summands vanish, shifts reduce mod 4."""
    meta = {**dict(a.meta), "mode": "witt"}
    if a.frame is None:
        return FormalSum.with_meta(0, (GWSummand(g.shift % 4, g.twist, g.diagram, g.t_index, g.rho) for g in a.gw), **meta)
    records = [(s % 4, key, rows, t, rho) for s, key, rows, t, rho in a.records]
    return FormalSum.of_records(0, records, a.frame, a.twists, **meta)


class BaseTheoryTable(Value):
    """User-supplied evaluation data: (theory, shift, twist, degree) -> group.

    ``groups`` maps each key of ``entries`` to its group; a key given two groups is a ``ValueError``.
    """

    __slots__ = ("name", "entries", "groups")

    def __init__(self, name: str, entries: tuple = ()):
        entries = tuple(entries)
        groups = {}
        for key, group in entries:
            first = groups.setdefault(key, group)
            if first is not group and first != group:
                raise ValueError(f"base table gives key {key} two groups: {first} and {group}")
        self.name = name
        self.entries = entries
        self.groups = groups

    def _values(self) -> tuple:
        return (self.name, self.entries)

    @classmethod
    def from_json(cls, doc: dict) -> "BaseTheoryTable":
        """The table of a ``BASE_TABLE_SCHEMA`` document, integral floats read as ints; equal group lists share one group."""
        columns = _plain_table_columns(doc)
        if columns is None:
            validate_json(doc, BASE_TABLE_SCHEMA)
            columns = _table_columns(doc["entries"])
        theories, shifts, twists, degrees, groups = columns
        keys = zip(theories, map(int, shifts), map(tuple, map(sorted, twists)), map(int, degrees))
        orders = list(map(tuple, groups))
        made = {o: AbelianGroup(tuple(map(int, o))) for o in dict.fromkeys(orders)}
        return cls(doc["name"], zip(keys, map(made.__getitem__, orders)))

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
    groups = table.groups
    copies = Counter()
    if a.k:
        copies["K", 0, (), degree] = a.k
    for shift, key, *_ in a.records:
        copies[gw_theory, shift, key, degree] += 1
    missing = sorted(k for k in copies if k not in groups)
    if missing:
        raise MissingKeyError(missing)
    return AbelianGroup(tuple(o for k, n in copies.items() for o in groups[k].orders * n))


class LongExactSequence(Value):
    """A cyclic list of labeled terms with the connecting maps between them.

    Terms are formal sums or named group symbols; maps are the names of the
    morphisms between consecutive terms, never evaluated.
    """

    __slots__ = ("terms", "maps")

    def __init__(self, terms: tuple, maps: tuple[str, ...]):
        if len(terms) != len(maps):
            raise ValueError("a cyclic sequence needs one map per consecutive term pair")
        self.terms = terms
        self.maps = maps

    def _values(self) -> tuple:
        return (self.terms, self.maps)


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


def _table_columns(entries: list) -> tuple:
    """The entries' theories, shifts, twists, degrees and groups, one tuple per field, read in one C pass."""
    return tuple(zip(*map(operator.itemgetter("theory", "shift", "twist", "degree", "group"), entries))) or ((),) * 5


def _plain_table_columns(doc) -> tuple | None:
    """The ``_table_columns`` of a document ``BASE_TABLE_SCHEMA`` accepts, checked a column at a time without jsonschema; else None.

    Stricter than the schema: numbers must be ``int`` (the schema also takes
    integral floats, and a bool is no int here).  A document it turns down
    goes to ``validate_json``, which decides and words the error.
    """
    if type(doc) is not dict or doc.keys() != {"name", "entries"} or type(doc["name"]) is not str:
        return None
    entries = doc["entries"]
    if type(entries) is not list or not set(map(type, entries)) <= {dict} or not set(map(len, entries)) <= {5}:
        return None
    try:  # five keys, the five fields among them: exactly the entry's keys
        theories, shifts, twists, degrees, groups = columns = _table_columns(entries)
    except KeyError:
        return None
    plain = (
        set(map(type, theories)) <= {str} and set(theories) <= {"GW", "K", "W"}
        and set(map(type, shifts + degrees)) <= {int} and set(map(type, twists + groups)) <= {list}
        and set(map(type, chain.from_iterable(twists))) <= {str}
        and set(map(type, chain.from_iterable(groups))) <= {int} and min(chain.from_iterable(groups), default=0) >= 0
    )
    return columns if plain else None


_VALIDATORS: dict[int, tuple] = {}  # id(schema) -> (schema, its checked validator); holding the schema keeps its id its own


def _validator(schema: dict):
    """A checked validator for one schema object, built and checked on its first use."""
    hit = _VALIDATORS.get(id(schema))
    if hit is None:
        import jsonschema

        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        hit = _VALIDATORS[id(schema)] = (schema, cls(schema))
    return hit[1]


def validate_json(doc: dict, schema: dict):
    """Validate like ``jsonschema.validate``, checking each schema only once."""
    from jsonschema.exceptions import best_match

    validator = _validator(schema)
    exc = best_match(validator.iter_errors(doc))
    if exc is not None:
        raise SchemaMismatchError(f"JSON document does not match its schema at {exc.json_path}: {exc.message}") from exc


def _meta_value(v):
    if isinstance(v, tuple):
        return [_meta_value(x) for x in v]
    return v


def formal_sum_to_json(a: FormalSum) -> dict:
    """The ``FORMAL_SUM_SCHEMA`` document of a formal sum, built without validation.

    Conformance is checked by ``verify.check_output_schema`` and in the
    tests, not on every call.
    """
    return {
        "k": a.k,
        "gw": [
            {"shift": s, "twist": list(key), "diagram": None if rows is None else list(rows), "t": t, "rho": rho}
            for s, key, rows, t, rho in a.records
        ],
        "meta": {k: _meta_value(v) for k, v in a.meta},
    }


def formal_sum_json_text(a: FormalSum) -> str:
    """``json.dumps(formal_sum_to_json(a), sort_keys=True, indent=2)``, written from the records as ASCII bytes.

    The standard encoder runs in pure Python whenever ``indent`` is set.
    This writer knows the document's shape instead: each ``gw`` entry is
    filled into the bytes template of its record shape (twist key, row
    count or None, t, rho); the rows and the shift fill its ``%d`` slots.
    ``bytes %`` finds each slot with ``memchr`` and writes an int with no
    temporary ``str``, where ``str %`` scans the template a code point at a
    time.  The text is ASCII, as ``json.dumps`` escapes every other
    character, so the bytes decode once to the same ``str``.  An engine
    sum's rows all have the frame's length and its key follows from rho,
    so its at most four templates are bound once.  ``k`` and ``meta``
    follow the last entry, as ``gw`` sorts first, and the head precedes
    the first, so one join writes the whole document.
    ``verify.check_output_schema`` checks the text against ``json.dumps``.
    """
    tail = _tail_text(a)
    if not a.records:
        return '{\n  "gw": [],' + tail
    if a.frame is None:
        entries = [
            _entry_template(key, None if rows is None else len(rows), t, rho) % ((shift,) if rows is None else rows + (shift,))
            for shift, key, rows, t, rho in a.records
        ]
    else:
        keys = [tw.sort_key for tw in a.twists]
        by_t = [[_entry_template(keys[rho], a.frame.d, t, rho) for rho in (0, 1)] for t in (0, 1)]
        entries = [by_t[t][rho] % (rows + (shift,)) for shift, _, rows, t, rho in a.records]
    entries[0] = b'{\n  "gw": [\n' + entries[0]
    entries[-1] += b"\n  ]," + tail.encode("ascii")
    document = b",\n".join(entries)
    del entries  # freed before the decode, so no more than two copies of the document are ever alive
    return document.decode("ascii")


# lays out a dict of scalars as indent=2 lays out a formal sum's meta, less its braces' line breaks, in C
_FLAT = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))


def _tail_text(a: FormalSum) -> str:
    """``json.dumps({"k": a.k, "meta": ...}, sort_keys=True, indent=2)`` after its brace; only a merged sum's list meta needs that encoder."""
    if any(isinstance(v, (tuple, list, dict)) for _, v in a.meta):
        return json.dumps({"k": a.k, "meta": dict(a.meta)}, sort_keys=True, indent=2)[1:]
    meta = "{\n    " + _FLAT.encode(dict(a.meta))[1:-1] + "\n  }" if a.meta else "{}"
    return f'\n  "k": {_FLAT.encode(a.k)},\n  "meta": {meta}\n}}'


@lru_cache(maxsize=256, typed=True)
def _entry_template(key: tuple, n: int | None, t: int | None, rho: int | None) -> bytes:
    """The ASCII bytes of one ``gw`` entry, keys sorted, with ``%d`` slots for its n rows, then its shift.

    The twist strings are rendered by ``json.dumps``, which escapes every
    non-ASCII character, with ``%`` escaped, and ``None`` as ``null``.  The
    cache tells argument types apart: 1, 1.0 and True are one key, but
    ``json.dumps`` writes them apart.
    """
    diagram = "null" if n is None else _list_text(["%d"] * n, 6)
    twist = _list_text([json.dumps(s).replace("%", "%%") for s in key], 6)
    return (
        f'    {{\n      "diagram": {diagram},\n      "rho": {json.dumps(rho)},\n      "shift": %d,'
        f'\n      "t": {json.dumps(t)},\n      "twist": {twist}\n    }}'
    ).encode("ascii")


def _list_text(items, indent: int) -> str:
    """A JSON list of already-rendered items, laid out as ``indent=2`` lays it out at ``indent`` spaces."""
    pad = "\n" + " " * (indent + 2)
    text = ("," + pad).join(items)
    return "[" + pad + text + "\n" + " " * indent + "]" if text else "[]"


def les_to_json(seq: LongExactSequence) -> dict:
    terms = [formal_sum_to_json(t) if isinstance(t, FormalSum) else t for t in seq.terms]
    return {"terms": terms, "maps": list(seq.maps)}


def les_json_text(seq: LongExactSequence) -> str:
    """``json.dumps(les_to_json(seq), sort_keys=True, indent=2)``; each term's own text is indented two levels, as JSON escapes every line break in a string."""
    terms = [formal_sum_json_text(t) if isinstance(t, FormalSum) else json.dumps(t, sort_keys=True, indent=2) for t in seq.terms]
    maps = _list_text([json.dumps(f) for f in seq.maps], 2)
    return '{\n  "maps": %s,\n  "terms": %s\n}' % (maps, _list_text([t.replace("\n", "\n    ") for t in terms], 2))
