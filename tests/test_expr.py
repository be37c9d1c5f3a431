import copy
import json
import operator
from functools import reduce

import pytest
from hypothesis import example, given, strategies as st

from gwcell.expr import (
    BASE_TABLE_SCHEMA,
    AbelianGroup,
    BaseTheoryTable,
    ContextMismatchError,
    FormalSum,
    GWSummand,
    LongExactSequence,
    MissingKeyError,
    SchemaMismatchError,
    _plain_table_columns,
    direct_sum,
    equals,
    evaluate,
    formal_sum_json_text,
    formal_sum_to_json,
    record_order,
    validate_json,
    witt_specialize,
)
from gwcell.engine import decompose_total
from gwcell.twist import BaseSymbol, PicClass
from gwcell.young import Frame, YoungDiagram
from sum_reader import formal_sum_from_json

L = PicClass.of(BaseSymbol("L"))


def gw(shift, twist=L, rows=None, d=2, m=2, t=None, rho=None):
    diagram = None
    if rows is not None:
        diagram = YoungDiagram(Frame(d, m), tuple(rows) + (0,) * (d - len(rows)))
    return GWSummand(shift=shift, twist=twist, diagram=diagram, t_index=t, rho=rho)


def fsum(k=0, *summands, **meta):
    return FormalSum.with_meta(k, summands, **meta)


def formal_sums():
    summand = st.builds(
        gw,
        st.integers(-6, 2),
        st.sampled_from([L, PicClass()]),
    )
    return st.builds(lambda k, s: fsum(k, *s), st.integers(0, 4), st.lists(summand, max_size=4))


class TestDirectSum:
    def test_multiset_union(self):
        a = fsum(2)
        b = fsum(1, gw(0))
        c = direct_sum(a, b)
        assert c.k == 3 and len(c.gw) == 1

    def test_identity(self):
        a = fsum(1, gw(-2))
        assert equals(direct_sum(a, fsum(0)), a)

    def test_multiplicity(self):
        a = fsum(0, gw(-2))
        c = direct_sum(a, a)
        assert len(c.gw) == 2 and c.gw[0] == c.gw[1]

    def test_context_mismatch(self):
        a = fsum(1, d=2)
        b = fsum(1, d=3)
        with pytest.raises(ContextMismatchError):
            direct_sum(a, b)
        merged = direct_sum(a, b, merge=True)
        assert merged.k == 2

    def test_merged_witt_sums_evaluate_against_witt_entries(self):
        # two Witt specializations of different frames merge into a Witt sum
        a, b = (witt_specialize(decompose_total(1, m, 0, L)) for m in (1, 2))
        entries = [{"theory": "K", "shift": 0, "twist": [], "degree": 0, "group": [0]}]
        entries += [{"theory": "W", "shift": s, "twist": ["L"], "degree": 0, "group": [2]} for s in range(4)]
        table = BaseTheoryTable.from_json({"name": "w", "entries": entries})
        assert evaluate(a, table, 0) == evaluate(b, table, 0) == AbelianGroup((2, 2))
        merged = direct_sum(a, b, merge=True)
        assert merged.meta_dict()["mode"] == "witt"
        assert evaluate(merged, table, 0) == AbelianGroup((2, 2, 2, 2))

    def test_merge_refuses_a_witt_sum_with_a_gw_sum(self):
        witt = witt_specialize(fsum(0, gw(0), d=2))
        with pytest.raises(ContextMismatchError):
            direct_sum(witt, fsum(0, gw(0), d=3), merge=True)
        with pytest.raises(ContextMismatchError):
            direct_sum(fsum(0, gw(0), d=3), witt, merge=True)

    @given(formal_sums(), formal_sums())
    def test_commutative(self, a, b):
        assert equals(direct_sum(a, b), direct_sum(b, a))

    @given(formal_sums(), formal_sums(), formal_sums())
    def test_associative(self, a, b, c):
        assert equals(direct_sum(direct_sum(a, b), c), direct_sum(a, direct_sum(b, c)))


class TestSummandOrder:
    def test_sort_index_then_class_then_rho(self):
        a, b, c, d = gw(-2, rows=(1, 1), t=1, rho=1), gw(-2, rows=(1, 1), t=1), gw(-2, rows=(1, 1), t=0, rho=1), gw(-4, rows=(2, 2))
        assert fsum(0, a, b, c, d).gw == (d, c, b, a)
        assert record_order(b.record()) == (-2, b.twist.sort_key, (1, 1), 1, -1)

    @example(([gw(0), gw(0, t=0, rho=0)], [gw(0, t=0, rho=0), gw(0)]))
    @given(
        st.lists(
            st.builds(
                gw,
                st.integers(-1, 0),
                st.sampled_from([L, PicClass()]),
                st.sampled_from([None, (), (2,)]),
                t=st.sampled_from([None, 0, 1]),
                rho=st.sampled_from([None, 0, 1]),
            ),
            max_size=5,
        ).flatmap(lambda s: st.tuples(st.just(s), st.permutations(s)))
    )
    def test_canonical_in_any_given_order(self, orders):
        # unknown fields sort apart from known ones, so the order given never shows
        a, b = (fsum(0, *s) for s in orders)
        assert a == b and formal_sum_json_text(a) == formal_sum_json_text(b)

    def test_meta_in_any_given_order(self):
        # two sums that print the same document are equal, so the constructor sorts its meta as with_meta does
        a, b = FormalSum(0, (), (("z", 1), ("a", 2))), FormalSum(0, (), (("a", 2), ("z", 1)))
        assert formal_sum_json_text(a) == formal_sum_json_text(b)
        assert a == b and hash(a) == hash(b) and a.meta == fsum(0, a=2, z=1).meta


class TestEquals:
    def test_reflexive_and_canonical(self):
        a = fsum(1, gw(-2), gw(0))
        b = fsum(1, gw(0), gw(-2))
        assert equals(a, b)

    def test_ignores_diagrams_when_absent(self):
        with_diagram = fsum(0, gw(-2, rows=(1, 1)))
        without = fsum(0, gw(-2))
        assert equals(with_diagram, without)

    def test_distinguishes_shifts(self):
        assert not equals(fsum(0, gw(-2)), fsum(0, gw(-1)))

    def test_distinguishes_diagrams_when_both_labelled(self):
        a = fsum(0, gw(-2, rows=(1, 1)))
        b = fsum(0, gw(-2, rows=(2,)))
        assert not equals(a, b)


class TestWittSpecialize:
    def test_kills_k_and_reduces_shifts(self):
        a = fsum(4, gw(0), gw(-2), gw(-2), gw(-4))
        w = witt_specialize(a)
        assert w.k == 0
        assert sorted(g.shift for g in w.gw) == [0, 0, 2, 2]

    def test_pure_k_becomes_empty(self):
        w = witt_specialize(fsum(5))
        assert w.k == 0 and not w.records

    def test_empty(self):
        w = witt_specialize(fsum(0))
        assert w.k == 0 and not w.records

    @given(formal_sums(), formal_sums())
    def test_commutes_with_direct_sum(self, a, b):
        lhs = witt_specialize(direct_sum(a, b, merge=True))
        rhs = direct_sum(witt_specialize(a), witt_specialize(b), merge=True)
        assert equals(lhs, rhs)


_TABLE_ENTRIES = st.fixed_dictionaries(
    {
        "theory": st.sampled_from(["GW", "K", "W"]),
        "shift": st.integers(-4, 4),
        "twist": st.lists(st.sampled_from(["L", "M", "detV"]), max_size=2),
        "degree": st.integers(0, 2),
        "group": st.lists(st.integers(0, 4), max_size=3),
    }
)
_WELL_FORMED_TABLE = {
    "name": "t",
    "entries": [
        {"theory": "K", "shift": 0, "twist": [], "degree": 0, "group": [0]},
        {"theory": "GW", "shift": -2, "twist": ["L"], "degree": 1, "group": [0, 2]},
    ],
}
_JUNK = (None, True, False, -1, 1.5, 1.0, "", "X", "GW", [], {}, ["L"], [-1])


def _containers(node, path=()):
    """Paths to every dict and list in a JSON document, the document first."""
    yield path
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from _containers(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def one_defect_tables():
    """The well-formed table with one change: a value replaced by junk, a key or item dropped, or one added."""
    for path in _containers(_WELL_FORMED_TABLE):
        node = _at(_WELL_FORMED_TABLE, path)
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            for junk in _JUNK:
                doc = copy.deepcopy(_WELL_FORMED_TABLE)
                _at(doc, path)[key] = junk
                yield doc
            doc = copy.deepcopy(_WELL_FORMED_TABLE)
            del _at(doc, path)[key]
            yield doc
        for junk in _JUNK:
            doc = copy.deepcopy(_WELL_FORMED_TABLE)
            target = _at(doc, path)
            if isinstance(target, list):
                target.append(junk)
            else:
                target["extra"] = junk
            yield doc


def simple_table():
    doc = {
        "name": "synthetic",
        "entries": [
            {"theory": "K", "shift": 0, "twist": [], "degree": 0, "group": [0]},
            {"theory": "GW", "shift": 0, "twist": ["L"], "degree": 0, "group": [0, 2]},
            {"theory": "GW", "shift": -2, "twist": ["L"], "degree": 0, "group": [2]},
        ],
    }
    return BaseTheoryTable.from_json(doc)


class TestEvaluate:
    def test_k_additivity(self):
        assert evaluate(fsum(3), simple_table(), 0) == AbelianGroup((0, 0, 0))

    def test_gw_lookup(self):
        got = evaluate(fsum(1, gw(0), gw(-2)), simple_table(), 0)
        assert got == AbelianGroup((0, 0, 2, 2))

    def test_empty_sum(self):
        assert evaluate(fsum(0), simple_table(), 0) == AbelianGroup()

    def test_missing_keys_all_reported(self):
        with pytest.raises(MissingKeyError) as err:
            evaluate(fsum(0, gw(-1), gw(-3)), simple_table(), 0)
        assert len(err.value.keys) == 2

    @given(formal_sums(), formal_sums())
    def test_distributes_over_direct_sum(self, a, b):
        entries = [{"theory": "K", "shift": 0, "twist": [], "degree": 0, "group": [0]}]
        for shift in range(-6, 3):
            for tw in (["L"], []):
                entries.append({"theory": "GW", "shift": shift, "twist": tw, "degree": 0, "group": [0, 3]})
        table = BaseTheoryTable.from_json({"name": "t", "entries": entries})
        lhs = evaluate(direct_sum(a, b, merge=True), table, 0)
        rhs = evaluate(a, table, 0) + evaluate(b, table, 0)
        assert lhs == rhs

    @given(formal_sums(), st.booleans(), st.lists(st.lists(st.integers(0, 6), max_size=3), min_size=41, max_size=41))
    def test_matches_fold_of_one_group_per_summand(self, a, witt, groups):
        if witt:
            a = witt_specialize(a)
        keys = [("K", 0, ())] + [(th, shift, tw) for th in ("GW", "W") for shift in range(-6, 4) for tw in (("L",), ())]
        entries = [{"theory": th, "shift": sh, "twist": list(tw), "degree": 0, "group": g} for (th, sh, tw), g in zip(keys, groups)]
        table = BaseTheoryTable.from_json({"name": "t", "entries": entries})
        index = table.groups
        theory = "W" if witt else "GW"
        looked_up = [("K", 0, (), 0)] * a.k + [(theory, g.shift, tuple(g.twist.serialize()), 0) for g in a.gw]
        assert evaluate(a, table, 0) == reduce(operator.add, (index[k] for k in looked_up), AbelianGroup())

    def test_builds_one_group(self, monkeypatch):
        table = simple_table()
        a = fsum(5, *[gw(0), gw(-2)] * 20)
        built = []
        init = AbelianGroup.__init__

        def counted(group, orders=()):
            built.append(orders)
            init(group, orders)

        monkeypatch.setattr(AbelianGroup, "__init__", counted)
        assert evaluate(a, table, 0).orders == (0,) * 25 + (2,) * 40
        assert len(built) <= 2


class TestAbelianGroup:
    def test_canonical_form(self):
        assert AbelianGroup((4, 0, 1, 2)).orders == (0, 2, 4)

    def test_direct_sum_concatenates(self):
        assert (AbelianGroup((0,)) + AbelianGroup((2,))).orders == (0, 2)

    def test_str(self):
        assert str(AbelianGroup((0, 2))) == "Z x Z/2"
        assert str(AbelianGroup()) == "0"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AbelianGroup((-1,))


# names JSON escapes or that hold a %, and meta values of every JSON kind
_NAMES = st.text(st.sampled_from('Lq1"\\\u00e9\x01%\n'), max_size=4)
_META_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _NAMES


def _meta_containers(inner):
    return st.lists(inner, max_size=2).map(tuple) | st.dictionaries(_NAMES, inner, max_size=2)


class TestJson:
    def test_roundtrip(self):
        a = fsum(2, gw(-2, rows=(1, 1), t=1, rho=0), d=2, m=2)
        doc = formal_sum_to_json(a)
        back = formal_sum_from_json(doc, Frame(2, 2))
        assert equals(a, back)
        assert back.gw[0].diagram.rows == (1, 1)
        assert back.meta == a.meta
        merged = direct_sum(a, fsum(0, gw(0), d=3, m=1), merge=True)
        back = formal_sum_from_json(formal_sum_to_json(merged))
        assert back.meta == merged.meta

    @given(
        st.integers(0, 10**20),
        st.dictionaries(_NAMES, st.recursive(_META_SCALARS, _meta_containers, max_leaves=5), max_size=4),
        st.booleans(),
    )
    def test_tail_text_is_json_dumps(self, k, meta, with_gw):
        # flat meta is written by the flat encoder, a merge's lists and read-back dicts by json.dumps
        a = FormalSum(k, (gw(0),) if with_gw else (), tuple(sorted(meta.items())))
        assert formal_sum_json_text(a) == json.dumps(formal_sum_to_json(a), sort_keys=True, indent=2)

    def test_json_is_deterministic(self):
        a = fsum(1, gw(0), gw(-2))
        assert json.dumps(formal_sum_to_json(a), sort_keys=True) == json.dumps(
            formal_sum_to_json(a), sort_keys=True
        )

    def test_base_table_rejects_malformed(self):
        with pytest.raises(Exception):
            BaseTheoryTable.from_json({"name": "x", "entries": [{"theory": "bogus"}]})

    def test_second_validation_serializes_nothing(self, monkeypatch):
        # the validator is found by the schema object, not by its JSON text
        schema = copy.deepcopy(BASE_TABLE_SCHEMA)
        doc = {"name": "x", "entries": []}
        validate_json(doc, schema)
        dumps = []
        monkeypatch.setattr(json, "dumps", lambda *a, **k: dumps.append(a))
        validate_json(doc, schema)
        with pytest.raises(SchemaMismatchError):
            validate_json({"entries": []}, schema)
        assert dumps == []

    def test_plain_table_check_accepts_only_schema_valid(self):
        # a table the plain check passes, the schema passes; any other goes to
        # validate_json, so from_json fails with validate_json's error
        variants = list(one_defect_tables())
        assert len(variants) == 356
        for doc in variants:
            try:
                validate_json(doc, BASE_TABLE_SCHEMA)
            except SchemaMismatchError as exc:
                assert _plain_table_columns(doc) is None, doc
                with pytest.raises(SchemaMismatchError) as err:
                    BaseTheoryTable.from_json(doc)
                assert str(err.value) == str(exc)

    def test_plain_table_check_keeps_its_acceptance_rule(self):
        # reference: the rule written an entry and a value at a time
        def plainly_valid(doc):
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

        class Name(str):
            pass

        entry = _WELL_FORMED_TABLE["entries"][1]
        renamed = {("extra" if k == "group" else k): v for k, v in entry.items()}  # five keys, one of them wrong
        odd = [dict(entry, twist=[Name("L")]), dict(entry, theory=Name("GW")), dict(entry, group=[True]), dict(entry, group=[0, -3]), renamed]
        docs = [*one_defect_tables(), *({"name": "t", "entries": [e]} for e in odd), {"name": "t", "entries": []}]
        for doc in docs:
            assert (_plain_table_columns(doc) is not None) == plainly_valid(doc), doc

    @given(st.fixed_dictionaries({"name": st.text(max_size=3), "entries": st.lists(_TABLE_ENTRIES, max_size=4)}))
    def test_plain_table_check_accepts_well_formed_tables(self, doc):
        assert _plain_table_columns(doc) is not None

    def test_integral_float_table_goes_to_the_schema(self):
        # the schema takes 1.0 as an integer; the plain check leaves it to jsonschema
        doc = {"name": "t", "entries": [{"theory": "K", "shift": 0, "twist": [], "degree": 1.0, "group": [0, 2.0]}]}
        assert _plain_table_columns(doc) is None
        key, group = BaseTheoryTable.from_json(doc).entries[0]
        assert key == ("K", 0, (), 1) and type(key[3]) is int
        assert group.orders == (0, 2) and all(type(o) is int for o in group.orders)

    def test_equal_group_lists_share_one_group(self):
        doc = {"name": "t", "entries": [{"theory": "GW", "shift": -s, "twist": ["L"], "degree": 0, "group": [2, 0]} for s in range(3)]}
        doc["entries"].append({"theory": "K", "shift": 0, "twist": [], "degree": 0, "group": [2.0, 0]})
        groups = [group for _, group in BaseTheoryTable.from_json(doc).entries]
        assert groups[0].orders == (0, 2) and all(g is groups[0] for g in groups)

    def test_table_built_directly_gives_each_key_one_group(self):
        key = ("K", 0, (), 0)
        with pytest.raises(ValueError, match="two groups"):
            BaseTheoryTable("t", ((key, AbelianGroup((0,))), (key, AbelianGroup((2,)))))
        table = BaseTheoryTable("t", ((key, AbelianGroup((2,))), (key, AbelianGroup((2,)))))
        assert table.groups == {key: AbelianGroup((2,))}


class TestLongExactSequence:
    def test_requires_matching_map_count(self):
        with pytest.raises(ValueError):
            LongExactSequence(terms=("A", "B"), maps=("f",))
