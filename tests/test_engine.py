import json
from dataclasses import replace
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gwcell import engine, expr, twist, young
from gwcell.engine import (
    DET_E,
    DET_V,
    FLAGGED,
    TRIVIAL,
    GrassmannQuery,
    ProjBundleQuery,
    clear_cache,
    decompose_grassmannian,
    decompose_point,
    decompose_projective_bundle,
    decompose_total,
    flag_closed_form,
    les_theorem_d,
)
from gwcell.expr import (
    FORMAL_SUM_SCHEMA,
    FormalSum,
    GWSummand,
    LongExactSequence,
    direct_sum,
    formal_sum_from_json,
    formal_sum_json_text,
    formal_sum_to_json,
    summand_order,
    validate_json,
    witt_specialize,
)
from gwcell.twist import BaseSymbol, Delta, FlagQuotient, PicClass
from gwcell.young import Frame, YoungDiagram
from word_walk import solve_by_words

L = PicClass.of(BaseSymbol("L"))


def leaf_profile(s):
    return sorted((g.shift, g.diagram.rows, g.t_index, g.rho) for g in s.gw)


class TestPoint:
    def test_base_twist(self):
        s = decompose_point(3, L)
        assert s.k == 0 and len(s.gw) == 1
        assert s.gw[0].shift == 3 and s.gw[0].twist == L
        assert s.gw[0].diagram.rows == () and s.gw[0].t_index == 0 and s.gw[0].rho == 0
        assert s.meta_dict() == {"kind": "point", "shift": 3}

    def test_rejects_delta_twist(self):
        # a point is Gr_0, whose tautological determinant is trivial
        with pytest.raises(ValueError):
            decompose_point(0, L + PicClass.of(Delta(0)))

    def test_zero_dim_query_routes_to_point(self):
        s = decompose_grassmannian(GrassmannQuery(0, 4, 1, L))
        assert s.k == 0 and len(s.gw) == 1 and s.gw[0].shift == 1


class TestProjectiveBundle:
    def test_r1_odd_twist_is_pure_k(self):
        s = decompose_projective_bundle(ProjBundleQuery(1, 1, 0))
        assert s.k == 1 and not s.gw

    def test_r2_odd_twist(self):
        s = decompose_projective_bundle(ProjBundleQuery(2, 1, 0))
        assert s.k == 1
        (g,) = s.gw
        assert g.shift == -2 and g.twist == PicClass.of(DET_E)

    def test_r3_even_twist_split(self):
        s = decompose_projective_bundle(ProjBundleQuery(3, 0, 0, split=True))
        assert s.k == 1
        assert sorted(g.shift for g in s.gw) == [-3, 0]
        twists = {g.shift: g.twist for g in s.gw}
        assert twists[0] == PicClass() and twists[-3] == PicClass.of(DET_E)

    def test_r_even_even_twist(self):
        s = decompose_projective_bundle(ProjBundleQuery(4, 0, 5))
        assert s.k == 2
        (g,) = s.gw
        assert g.shift == 5 and g.twist == PicClass()

    def test_nonsplit_returns_sequence(self):
        seq = decompose_projective_bundle(ProjBundleQuery(3, 0, 0, split=False))
        assert isinstance(seq, LongExactSequence)

    @pytest.mark.parametrize("r", range(1, 21))
    @pytest.mark.parametrize("parity", [0, 1])
    def test_summand_counts_all_ranks(self, r, parity):
        s = decompose_projective_bundle(ProjBundleQuery(r, parity, 0))
        if r % 2 == 0:
            assert s.k == r // 2 and len(s.gw) == 1
            assert s.gw[0].shift == (0 if parity == 0 else -r)
        elif parity == 1:
            assert s.k == (r + 1) // 2 and not s.gw
        else:
            assert s.k == (r - 1) // 2
            assert sorted(g.shift for g in s.gw) == [-r, 0]

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            ProjBundleQuery(0, 0, 0)


class TestLesTheoremD:
    def test_r1_terms(self):
        seq = les_theorem_d(1, 0)
        assert len(seq.terms) == 3 and len(seq.maps) == 3
        assert seq.maps == ("(Theta_even, q^*)", "q_*", "(0, eta cup c(E))")
        assert seq.terms[0].k == 0  # empty even-index K sum for r=1

    def test_r3_first_term_has_one_k(self):
        seq = les_theorem_d(3, 0)
        assert seq.terms[0].k == 1

    def test_even_rank_rejected(self):
        with pytest.raises(ValueError):
            les_theorem_d(2, 0)


class TestGrassmannian:
    def test_gr22_even_twist(self):
        s = decompose_grassmannian(GrassmannQuery(2, 2, 0, L))
        assert s.k == 2
        assert leaf_profile(s) == [(-4, (2, 2), 0, 0), (0, (0, 0), 0, 0)]

    def test_gr22_odd_twist(self):
        s = decompose_grassmannian(GrassmannQuery(2, 2, 0, L + PicClass.of(Delta(2))))
        assert s.k == 2
        assert leaf_profile(s) == [(-2, (1, 1), 1, 0), (-2, (2, 0), 1, 1)]

    def test_gr22_counts_projection(self):
        s = decompose_total(2, 2, 0, L)
        profile = sorted((g.shift, "+".join(g.twist.serialize()), g.t_index) for g in s.gw)
        assert s.k == 4
        assert profile == [(-4, "L", 0), (-2, "L", 1), (-2, "L", 1), (0, "L", 0)]

    def test_gr33_total(self):
        # box counts of the four published even diagrams force the shifts
        s = decompose_total(3, 3, 0, L)
        assert s.k == young.beta(3, 3) == 18
        assert sorted(g.shift for g in s.gw) == [-9, -5, -4, 0]
        assert sorted(g.diagram.rows for g in s.gw) == [
            (0, 0, 0),
            (2, 2, 0),
            (3, 1, 1),
            (3, 3, 3),
        ]

    def test_gr44_total(self):
        s = decompose_total(4, 4, 0, L)
        assert s.k == 64
        assert sorted(g.diagram.boxes() for g in s.gw) == [0, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 16]

    def test_gr11_total(self):
        s = decompose_total(1, 1, 0, L, bundle=FLAGGED)
        assert s.k == 1
        by_shift = {g.shift: g for g in s.gw}
        assert set(by_shift) == {0, -1}
        assert by_shift[0].rho == 0 and by_shift[-1].rho == 1

    def test_rejects_foreign_delta(self):
        with pytest.raises(ValueError):
            decompose_grassmannian(GrassmannQuery(2, 2, 0, PicClass.of(Delta(3))))

    def test_rejects_out_of_range_quotient(self):
        with pytest.raises(ValueError):
            decompose_grassmannian(GrassmannQuery(2, 2, 0, PicClass.parse(["q9"])))


class TestEngineInvariants:
    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("m", range(1, 7))
    def test_oracles(self, d, m):
        total_k = 0
        leaves = []
        for l in (0, 1):
            t = L + (PicClass.of(Delta(d)) if l else PicClass())
            s = decompose_grassmannian(GrassmannQuery(d, m, 0, t))
            total_k += s.k
            leaves.extend(s.gw)
            assert s.k == young.beta_parity(l, d, m)
            assert 2 * s.k + len(s.gw) == comb(d + m, d)
            for g in s.gw:
                assert g.shift == -g.diagram.boxes()
                assert young.is_even(g.diagram)
                assert g.t_index == l
        assert total_k == young.beta(d, m)
        expected = sorted(lam.rows for lam in young.enumerate_even(Frame(d, m)))
        assert sorted(g.diagram.rows for g in leaves) == expected

    @pytest.mark.parametrize("d,m", [(d, m) for d in (1, 3, 5, 7) for m in (1, 3, 5, 7)])
    def test_odd_odd_concentration(self, d, m):
        s = decompose_grassmannian(GrassmannQuery(d, m, 0, L + PicClass.of(Delta(d))))
        assert not s.gw
        assert s.k == comb(d + m, d) // 2

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 2), (2, 5), (4, 2), (5, 3)])
    def test_transpose_equivariance(self, d, m):
        a = decompose_total(d, m, 0, L)
        b = decompose_total(m, d, 0, L)
        assert a.k == b.k
        assert sorted((g.shift, g.diagram.rows) for g in a.gw) == sorted(
            (g.shift, g.diagram.transpose().rows) for g in b.gw
        )

    @pytest.mark.parametrize("d,m", [(d, m) for d in range(1, 6) for m in range(1, 6)])
    def test_flagged_leaf_twists_telescope(self, d, m):
        for l in (0, 1):
            s = flag_closed_form(d, m, l, 0, L)
            for g in s.gw:
                assert g.twist in (L, L + PicClass.of(BaseSymbol("detV")))
                assert g.twist == L + (PicClass.of(BaseSymbol("detV")) if g.rho else PicClass())

    def test_deep_thin_frame_within_recursion_limit(self):
        # the recursion depth on Gr_2 is about m/2 frames, one per level
        clear_cache()
        try:
            s = decompose_grassmannian(GrassmannQuery(2, 1300, 0, L))
            assert s.k == young.beta_parity(0, 2, 1300)
            assert 2 * s.k + len(s.gw) == comb(1302, 2)
        finally:
            clear_cache()

    def test_dual_projective_bundle_is_a_base_case(self):
        # Gr_d of a rank d+1 bundle needs no recursion over d: it is the
        # transposed Gr_1 of the same rank, rho flipped at the odd class
        clear_cache()
        try:
            for l in (0, 1):
                s = flag_closed_form(3000, 1, l, 0, L)
                dual = flag_closed_form(1, 3000, l, 0, L)
                assert s.k == dual.k
                assert sorted((g.shift, g.diagram.rows, g.rho) for g in s.gw) == sorted(
                    (g.shift, g.diagram.transpose().rows, g.rho ^ l) for g in dual.gw
                )
        finally:
            clear_cache()

    def test_memo_counts_follow_the_rank_rule(self):
        # the memo holds one leaf count per node; with K the closed form, every
        # node reached, inner ones included, has C(d+m, d) - 2 K leaves
        clear_cache()
        try:
            frames = [(d, m) for d in range(1, 11) for m in range(1, 11)]
            frames += [f for d in range(1, 4) for m in range(1, 61) for f in ((d, m), (m, d))]
            for d, m in frames:
                decompose_total(d, m, 0, L)
            nodes = {key: n for key, n in engine._CACHE.items() if key[0] >= 1 and key[1] >= 1}
            assert {(d, m, eps) for d, m in frames for eps in (0, 1)} <= set(nodes)
            for (d, m, eps), n in nodes.items():
                assert n == comb(d + m, d) - 2 * young.beta_parity(eps, d, m), (d, m, eps)
        finally:
            clear_cache()

    @pytest.mark.parametrize(
        "nodes",
        [
            [(d, m) for d in range(13) for m in range(13)],
            [f for m in range(1, 301) for f in ((2, m), (m, 2))],
        ],
        ids=["small", "thin"],
    )
    def test_walk_matches_word_walk_reference(self, nodes):
        # the row-vector walk gives the boundary-word walk's K and leaf multiset
        clear_cache()
        try:
            for d, m in nodes:
                for eps in (0, 1) if d else (0,):
                    k, leaves = engine._solve(d, m, eps)
                    ref_k, ref_leaves = solve_by_words(d, m, eps)
                    assert k == ref_k and sorted(leaves) == sorted(ref_leaves), (d, m, eps)
        finally:
            clear_cache()

    def test_clear_cache_empties_every_memo(self):
        clear_cache()
        dicts = {name: v for name, v in vars(engine).items() if isinstance(v, dict)}
        sizes = {name: len(v) for name, v in dicts.items()}
        decompose_total(5, 4, 0, L, FLAGGED)
        decompose_projective_bundle(ProjBundleQuery(3, 1, 0))
        memos = [name for name, v in dicts.items() if len(v) > sizes[name]]
        assert {"_CACHE", "_LEAVES"} <= set(memos)
        clear_cache()
        assert all(not dicts[name] for name in memos)

    def test_repeated_query_is_not_walked_again(self, monkeypatch):
        clear_cache()
        walks = []
        walk = engine._walk

        def counted(d, m, eps):
            walks.append((d, m, eps))
            return walk(d, m, eps)

        monkeypatch.setattr(engine, "_walk", counted)
        first = decompose_grassmannian(GrassmannQuery(6, 3, 0, L, FLAGGED))
        again = decompose_grassmannian(GrassmannQuery(6, 3, 2, L))
        assert walks == [(6, 3, 0)]
        assert leaf_profile(again) == [(shift + 2, rows, t, rho) for shift, rows, t, rho in leaf_profile(first)]

    def test_total_sorts_its_records_once_with_no_key(self, monkeypatch):
        # both twist classes' records are sorted together, once, in plain tuple order
        sorts = []

        def counted(items, **kwargs):
            items = list(items)
            sorts.append((len(items), kwargs))
            return sorted(items, **kwargs)

        monkeypatch.setattr(expr, "sorted", counted, raising=False)
        s = decompose_total(8, 8, 0, L)
        formal_sum_json_text(s)
        assert len(s.records) == 140
        assert [kwargs for n, kwargs in sorts if n == 140] == [{}]

    def test_twist_keys_sorted_per_twist_not_per_summand(self, monkeypatch):
        def sorts_for(n):
            sorts = []

            def counted(*args, **kwargs):
                sorts.append(args)
                return sorted(*args, **kwargs)

            monkeypatch.setattr(twist, "sorted", counted, raising=False)
            try:
                base = PicClass.of(BaseSymbol("L"))  # a new instance: nothing sorted yet
                s = decompose_total(n, n, 0, base, FLAGGED)
                formal_sum_to_json(s)
            finally:
                monkeypatch.undo()
            return len(sorts), len(s.gw), {g.twist for g in s.gw}

        small, few, twists = sorts_for(2)
        large, many, same = sorts_for(8)
        assert twists == same == {L, L + PicClass.of(DET_V)}
        assert (few, many) == (4, 140)
        # the query twist, then the two twists each twist class builds
        assert small == large <= 1 + 2 * len(twists)

    def test_shift_offset_independent_of_query_shift(self):
        a = decompose_total(3, 2, 0, L)
        b = decompose_total(3, 2, 7, L)
        assert a.k == b.k
        assert sorted(g.shift + 7 for g in a.gw) == sorted(g.shift for g in b.gw)


class TestFlagClosedForm:
    def test_projective_line_cases(self):
        s = flag_closed_form(1, 3, 1, 0)
        assert s.k == 2 and not s.gw
        s = flag_closed_form(1, 4, 1, 0)
        assert s.k == 2
        (g,) = s.gw
        assert g.shift == -4 and g.rho == 1

    def test_gr22_even_class(self):
        s = flag_closed_form(2, 2, 0, 0)
        assert s.k == 2
        assert sorted(g.shift for g in s.gw) == [-4, 0]


class TestWittOnEngine:
    def test_gr22_witt_shifts(self):
        w = witt_specialize(decompose_total(2, 2, 0, L))
        assert w.k == 0
        assert sorted(g.shift for g in w.gw) == [0, 0, 2, 2]


@cache
def even_rows(d, m):
    return sorted(lam.rows for lam in young.enumerate_even(Frame(d, m)))


def square_frames(max_side):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side))


# d <= 3 against m <= 60, either way round: deep paths on both sides of the diagonal
thin_frames = st.tuples(st.integers(1, 3), st.integers(1, 60)).flatmap(lambda f: st.sampled_from([f, f[::-1]]))


@st.composite
def grassmann_cases(draw, frames=square_frames(8)):
    """A frame drawn from ``frames``, a query shift, a bundle and a Delta-free base twist."""
    d, m = draw(frames)
    symbols = st.sampled_from([BaseSymbol("L"), BaseSymbol("M")])
    quotients = st.integers(1, d + m).map(FlagQuotient)
    base = PicClass.of(*draw(st.lists(symbols | quotients, max_size=4)))
    return d, m, draw(st.integers(-20, 20)), draw(st.sampled_from([TRIVIAL, FLAGGED])), base


@settings(max_examples=120, deadline=None)
@given(grassmann_cases(square_frames(8) | thin_frames))
def test_engine_against_oracles(case):
    d, m, shift, bundle, base = case
    rows = []
    for l in (0, 1):
        q = GrassmannQuery(d, m, shift, base + (PicClass.of(Delta(d)) if l else PicClass()), bundle)
        s = decompose_grassmannian(q)
        assert s.k == young.beta_parity(l, d, m)
        for g in s.gw:
            rows.append(g.diagram.rows)
            assert young.is_even(g.diagram)
            assert g.shift == q.shift - g.diagram.boxes()
            assert g.t_index == l
            flagged = bundle == FLAGGED and g.rho
            assert g.twist == base + (PicClass.of(DET_V) if flagged else PicClass())
        # transpose equivariance: Gr_d(V) is Gr_m(V^dual), where Delta_d is Delta_m + det V
        dual = decompose_grassmannian(GrassmannQuery(m, d, shift, base + (PicClass.of(Delta(m)) if l else PicClass())))
        assert dual.k == s.k
        assert sorted((g.shift, g.diagram.rows, g.rho) for g in s.gw) == sorted(
            (g.shift, g.diagram.transpose().rows, g.rho ^ l) for g in dual.gw
        )
    if max(d, m) <= 8:
        assert sorted(rows) == even_rows(d, m)
    else:
        # enumeration is too slow here: distinct even diagrams, as many as there are even ones
        assert len(set(rows)) == len(rows) == young.even_cardinality(d, m)


@settings(max_examples=100, deadline=None)
@given(grassmann_cases(square_frames(8) | thin_frames))
def test_gw_read_from_records_is_the_summands_built_per_leaf(case):
    # reference: one GWSummand with a validated diagram per walked leaf, sorted by summand_order
    d, m, shift, bundle, base = case
    twists = (base, base + PicClass.of(DET_V) if bundle == FLAGGED else base)
    both = []
    for l in (0, 1):
        s = decompose_grassmannian(GrassmannQuery(d, m, shift, base + (PicClass.of(Delta(d)) if l else PicClass()), bundle))
        leaves = engine._solve(d, m, l)[1]
        want = [GWSummand(shift - sum(rows), twists[rho], YoungDiagram(Frame(d, m), rows), l, rho) for rows, rho in leaves]
        assert s.gw == tuple(sorted(want, key=summand_order))
        assert formal_sum_json_text(s) == json.dumps(formal_sum_to_json(s), sort_keys=True, indent=2)
        both += want
    total = decompose_total(d, m, shift, base, bundle)
    assert total.gw == tuple(sorted(both, key=summand_order))
    assert witt_specialize(total).gw == tuple(sorted((replace(g, shift=g.shift % 4) for g in both), key=summand_order))


def test_gw_is_built_once_on_first_read_with_validated_diagrams(monkeypatch):
    validated = []
    check = YoungDiagram.__post_init__

    def counted(lam):
        validated.append(lam.rows)
        check(lam)

    monkeypatch.setattr(YoungDiagram, "__post_init__", counted)
    s = decompose_total(6, 5, 0, L, FLAGGED)
    assert validated == []
    assert [g.diagram.rows for g in s.gw] == validated == [r[2] for r in s.records]
    assert s.gw is s.gw and len(validated) == len(s.records) == young.even_cardinality(6, 5)


@settings(max_examples=80, deadline=None)
@given(grassmann_cases(square_frames(6)), st.sampled_from([0, 1]), st.sampled_from(["formal", "witt"]))
def test_json_round_trip_and_witt_shifts(case, l, mode):
    d, m, shift, bundle, base = case
    s = decompose_grassmannian(GrassmannQuery(d, m, shift, base + (PicClass.of(Delta(d)) if l else PicClass()), bundle))
    if mode == "witt":
        s = witt_specialize(s)
    doc = formal_sum_to_json(s)
    validate_json(doc, FORMAL_SUM_SCHEMA)
    back = formal_sum_from_json(doc, Frame(d, m))
    assert back.k == s.k and back.meta == s.meta
    assert [(g.shift, g.twist, g.diagram, g.t_index, g.rho) for g in back.gw] == [
        (g.shift, g.twist, g.diagram, g.t_index, g.rho) for g in s.gw
    ]
    for g in s.gw:
        expected = shift - g.diagram.boxes()
        assert g.shift == (expected % 4 if mode == "witt" else expected)


ESCAPED_NAMES = ('"x', "back\\slash", "\u00e9", "ctl\x01")


@st.composite
def printed_sums(draw):
    """A formal sum from any source the CLI or ``verify`` prints, over base symbols JSON may escape."""
    d, m, shift, bundle, _ = draw(grassmann_cases(square_frames(6) | thin_frames))
    base = PicClass.of(*map(BaseSymbol, draw(st.lists(st.sampled_from(("L", "M") + ESCAPED_NAMES), max_size=3))))
    odd = base + PicClass.of(Delta(d))
    total = decompose_total(d, m, shift, base, bundle)
    r = draw(st.integers(1, 9))
    sources = {
        "total": lambda: total,
        "one class": lambda: decompose_grassmannian(GrassmannQuery(d, m, shift, draw(st.sampled_from([base, odd])), bundle)),
        "witt": lambda: witt_specialize(total),
        "merged": lambda: direct_sum(total, decompose_point(shift, base), merge=True),
        "point": lambda: decompose_point(shift, base),
        "projective bundle": lambda: decompose_projective_bundle(ProjBundleQuery(r, draw(st.sampled_from([0, 1])), shift)),
        "empty": FormalSum,
    }
    kind = draw(st.sampled_from(sorted(sources) + ["les term"]))
    if kind == "les term":
        return draw(st.sampled_from([t for t in les_theorem_d(r | 1, shift).terms if isinstance(t, FormalSum)]))
    return sources[kind]()


@settings(max_examples=150, deadline=None)
@given(printed_sums())
def test_json_text_is_json_dumps(s):
    assert formal_sum_json_text(s) == json.dumps(formal_sum_to_json(s), sort_keys=True, indent=2)
