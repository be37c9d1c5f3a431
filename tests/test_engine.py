import json
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
    formal_sum_json_text,
    formal_sum_to_json,
    record_order,
    validate_json,
    witt_specialize,
)
from gwcell.twist import BaseSymbol, Delta, FlagQuotient, PicClass
from gwcell.young import Frame, YoungDiagram
from sum_reader import formal_sum_from_json
from word_walk import solve_by_words

L = PicClass.of(BaseSymbol("L"))


def summand_order(g):
    return record_order(g.record())


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
        assert g.shift == -2 and g.twist == DET_E

    def test_r3_even_twist_split(self):
        s = decompose_projective_bundle(ProjBundleQuery(3, 0, 0, split=True))
        assert s.k == 1
        assert sorted(g.shift for g in s.gw) == [-3, 0]
        twists = {g.shift: g.twist for g in s.gw}
        assert twists[0] == PicClass() and twists[-3] == DET_E

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

    @pytest.mark.parametrize("r", [0, -1])
    def test_rank_rule_is_projective_bundles(self, r):
        # one rule for P(E): the sequence and the query word it alike
        with pytest.raises(ValueError) as seq_error:
            les_theorem_d(r, 0)
        with pytest.raises(ValueError) as query_error:
            ProjBundleQuery(r, 0, 0)
        assert str(seq_error.value) == str(query_error.value) == f"need bundle rank >= 2, got r+1 = {r + 1}"


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

    def test_walked_counts_follow_the_rank_rule(self):
        # K comes from the walked leaf count by the rank rule, so it must be
        # the closed form; the walk prunes a child by one rule in _plan, which
        # the unpruned reference must bear out: no leaves exactly at the odd
        # twist of an odd x odd frame
        clear_cache()
        try:
            nodes = [(d, m) for d in range(13) for m in range(13)]
            nodes += [f for d in range(1, 4) for m in range(1, 61) for f in ((d, m), (m, d))]
            for d, m in nodes:
                for eps in (0, 1) if d else (0,):
                    k, leaves = engine._solve(d, m, eps)
                    assert k == (young.beta_parity(eps, d, m) if d and m else 0), (d, m, eps)
                    assert 2 * k + len(leaves) == comb(d + m, d)
                    empty = eps == 1 and d % 2 == 1 and m % 2 == 1
                    assert (not solve_by_words(d, m, eps)[1]) == empty, (d, m, eps)
                    if d > 1 and m > 1:
                        *children, _ = engine._plan((d, m, eps))
                        for child, node in zip(children, engine.split_node(d, m, eps)):
                            assert (child is None) == (not solve_by_words(*node)[1]), (d, m, eps, node)
        finally:
            clear_cache()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eps", [0, 1])
    def test_thin_frame_far_past_the_old_recursion_limit(self, d, eps):
        # the walk keeps its own stack, so the frame's length sets no depth
        m = 100_000
        clear_cache()
        try:
            k, leaves = engine._solve(d, m, eps)
            assert k == young.beta_parity(eps, d, m)
            assert 2 * k + len(leaves) == comb(d + m, d)
        finally:
            clear_cache()

    @pytest.mark.parametrize(
        "nodes",
        [
            [(d, m) for d in range(13) for m in range(13)],
            # (3, m)'s unshifted children are the Gr_2 even-class base nodes
            [f for d in (2, 3) for m in range(1, 301) for f in ((d, m), (m, d))],
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
        assert set(memos) == {"_LEAVES"}
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

    def test_walk_reads_base_leaves_only_at_base_nodes(self, monkeypatch):
        # an inner node (d, m >= 2, not Gr_2 at the even class) goes straight to split_node
        clear_cache()
        calls = []
        base_leaves = engine._base_leaves

        def counted(d, m, eps):
            calls.append((d, m, eps))
            return base_leaves(d, m, eps)

        monkeypatch.setattr(engine, "_base_leaves", counted)
        s = decompose_total(7, 6, 0, L, FLAGGED)
        assert calls and all(d < 2 or m < 2 or d == 2 and eps == 0 for d, m, eps in calls)
        assert len(calls) <= len(s.records)

    def test_gr2_walk_splits_at_most_its_root(self, monkeypatch):
        # Gr_2 at the even class is a base node, so its walk makes no split, and the odd class
        # splits its root once into two base children
        splits = []
        split_node = engine.split_node

        def counted(d, m, eps):
            splits.append((d, m, eps))
            return split_node(d, m, eps)

        monkeypatch.setattr(engine, "split_node", counted)
        for m in range(2, 401):
            for eps in (0, 1):
                splits.clear()
                leaves = engine._walk(2, m, eps)
                assert splits == ([(2, m, 1)] if eps else []), (m, eps)
                assert len(leaves) == comb(m + 2, 2) - 2 * young.beta_parity(eps, 2, m), (m, eps)

    def test_walk_splits_each_node_once(self, monkeypatch):
        # each walk splits a node into its plan once: a node on the query's row, planned without a
        # lookup, and every node below it alike; a 16 x 16 frame has at most 17 * 17 nodes per
        # class, and splitting at every visit made 25,738 splits for its 2 * C(16, 8) leaves
        splits = []
        split_node = engine.split_node

        def counted(d, m, eps):
            splits.append((d, m, eps))
            return split_node(d, m, eps)

        monkeypatch.setattr(engine, "split_node", counted)
        for d, m in [(16, 16), (2, 300), (3, 200), (200, 3)]:
            clear_cache()
            splits.clear()
            s = decompose_total(d, m, 0, L, FLAGGED)
            assert len(s.records) == young.even_cardinality(d, m), (d, m)
            assert len(splits) <= 2 * (d + 1) * (m + 1), (d, m)
            assert len(splits) == len(set(splits)), (d, m)
        clear_cache()

    def test_only_a_root_splits_with_step_one(self):
        # every child is solved at ceps = cd mod 2, never the first family's (cd - 1) mod 2, so an
        # inner child always splits with step 2
        bad = []
        for d in range(2, 41):
            for m in range(2, 41):
                for eps in (0, 1):
                    *children, _ = engine.split_node(d, m, eps)
                    for cd, cm, ceps in children:
                        if ceps != cd % 2 or cd >= 2 and cm >= 2 and engine.split_node(cd, cm, ceps)[2] != 2:
                            bad.append((d, m, eps, (cd, cm, ceps)))
        assert bad == []

    def test_fixed_twists_are_not_rebuilt_per_call(self, monkeypatch):
        # P(E)'s O and det E and the flagged bundle's det V are module constants: a call builds only
        # the classes that depend on its own twist
        built = []
        init = PicClass.__init__

        def counted(self, generators=frozenset()):
            init(self, generators)
            built.append(self.generators)

        odd, flagged = L + PicClass.of(Delta(3)), (L + DET_V).generators
        monkeypatch.setattr(PicClass, "__init__", counted)
        decompose_projective_bundle(ProjBundleQuery(3, 0, 0))
        decompose_projective_bundle(ProjBundleQuery(3, 1, 0))
        les_theorem_d(3, 0)
        assert built == []
        GrassmannQuery(3, 3, 0, L, FLAGGED)
        assert built == [flagged]
        built.clear()
        GrassmannQuery(3, 3, 0, odd, FLAGGED)
        assert built == [L.generators, flagged]  # the base part, then its sum with det V

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.integers(0, 14), st.integers(0, 14)),
            st.tuples(st.integers(0, 3), st.integers(0, 400)).flatmap(lambda f: st.sampled_from([f, f[::-1]])),
        ),
        st.integers(0, 1),
    )
    def test_solve_matches_word_walk_on_random_frames(self, frame, eps):
        # the planned walk gives the boundary-word walk's K and leaf multiset
        d, m = frame
        eps = eps if d else 0
        clear_cache()
        try:
            k, leaves = engine._solve(d, m, eps)
        finally:
            clear_cache()
        ref_k, ref_leaves = solve_by_words(d, m, eps)
        assert k == ref_k and sorted(leaves) == sorted(ref_leaves)

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
        assert twists == same == {L, L + DET_V}
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
            assert g.twist == base + (DET_V if flagged else PicClass())
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
    twists = (base, base + DET_V if bundle == FLAGGED else base)
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
    twisted = decompose_total(d, m, shift, base + PicClass.of(Delta(d)), bundle)
    assert (twisted.k, twisted.records) == (total.k, total.records)
    assert witt_specialize(total).gw == tuple(
        sorted((GWSummand(g.shift % 4, g.twist, g.diagram, g.t_index, g.rho) for g in both), key=summand_order)
    )


def test_gw_is_built_once_on_first_read_with_validated_diagrams(monkeypatch):
    validated = []
    check = YoungDiagram.__init__

    def counted(lam, frame, rows):
        validated.append(rows)
        check(lam, frame, rows)

    monkeypatch.setattr(YoungDiagram, "__init__", counted)
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


# base-symbol names JSON escapes (non-ASCII, astral, quote, backslash, control) or that hold a % or a %d
ESCAPED_NAMES = st.text(st.sampled_from('Ld%"\\\x01\n\u00e9\U0001d11e'), min_size=1, max_size=4)

# d in {2, 3} against m <= 120, either way round: the writer's longest and shortest row vectors
wide_thin_frames = st.tuples(st.integers(2, 3), st.integers(1, 120)).flatmap(lambda f: st.sampled_from([f, f[::-1]]))


def read_back(s, frame):
    """``s`` read back through ``formal_sum_from_json``, its shifts written as the integral floats the schema also accepts."""
    doc = formal_sum_to_json(s)
    for g in doc["gw"]:
        g["shift"] = float(g["shift"])
    return formal_sum_from_json(doc, frame)


@st.composite
def printed_sums(draw):
    """A formal sum from any source the CLI or ``verify`` prints, or read back, over base symbols JSON may escape.

    Engine sums (frames up to 8 x 8, and 2 or 3 x up to 120 both ways
    round, both bundles, any shift, formal or witt), a long exact
    sequence's terms, merged direct sums and sums read back from their
    documents, with a frame or without.
    """
    d, m, shift, bundle, base = draw(grassmann_cases(square_frames(8) | wide_thin_frames))
    named = PicClass.of(*map(BaseSymbol, draw(st.lists(ESCAPED_NAMES, max_size=3))))  # lives on the point too
    base += named
    odd = base + PicClass.of(Delta(d))
    total = decompose_total(d, m, shift, base, bundle)
    r = draw(st.integers(1, 9))
    sources = {
        "total": lambda: total,
        "one class": lambda: decompose_grassmannian(GrassmannQuery(d, m, shift, draw(st.sampled_from([base, odd])), bundle)),
        "merged": lambda: direct_sum(total, decompose_point(shift, named), merge=True),
        "point": lambda: decompose_point(shift, named),
        "projective bundle": lambda: decompose_projective_bundle(ProjBundleQuery(r, draw(st.sampled_from([0, 1])), shift)),
        "les term": lambda: draw(st.sampled_from([t for t in les_theorem_d(r | 1, shift).terms if isinstance(t, FormalSum)])),
        "read back": lambda: read_back(total, draw(st.sampled_from([None, Frame(d, m)]))),
        "empty": FormalSum,
    }
    s = sources[draw(st.sampled_from(sorted(sources)))]()
    return witt_specialize(s) if draw(st.booleans()) else s


@settings(max_examples=200, deadline=None)
@given(printed_sums())
def test_json_text_is_json_dumps(s):
    text = formal_sum_json_text(s)
    assert text == json.dumps(formal_sum_to_json(s), sort_keys=True, indent=2)
    assert text.isascii()


def test_read_back_sum_prints_as_the_sum_it_was_read_from():
    # integral float shifts are read as ints, so the bytes writer prints them as it printed the original
    s = decompose_total(3, 4, -2, PicClass.of(BaseSymbol("\u00e9%")), FLAGGED)
    assert formal_sum_json_text(read_back(s, Frame(3, 4))) == formal_sum_json_text(s)


class IntLike:
    """An int-like value that is not an int: it has ``__index__`` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "build, read",
    [
        (lambda x: GrassmannQuery(x, 2, 0, L), lambda q: q.d),
        (lambda x: GrassmannQuery(2, x, 0, L), lambda q: q.m),
        (lambda x: GrassmannQuery(2, 2, x, L), lambda q: q.shift),
        (lambda x: ProjBundleQuery(x, 0, 0), lambda q: q.r),
        (lambda x: ProjBundleQuery(2, x, 0), lambda q: q.parity),
        (lambda x: ProjBundleQuery(2, 0, x), lambda q: q.shift),
        (lambda x: GWSummand(x, L), lambda g: g.shift),
        (lambda x: YoungDiagram(Frame(2, 2), (x, 0)), lambda lam: lam.rows[0]),
        (lambda x: decompose_total(2, 2, x, L), lambda s: s.records[-1][0]),
        (lambda x: decompose_point(x, L), lambda s: s.records[0][0]),
        (lambda x: FormalSum(x), lambda s: s.k),
        (lambda x: les_theorem_d(x, 0), lambda seq: seq.terms[0].meta_dict()["r"]),
        (lambda x: les_theorem_d(1, x), lambda seq: seq.terms[0].meta_dict()["shift"]),
    ],
)
def test_constructors_take_exact_ints(build, read):
    # the writer's %d slots would truncate a float, so a float never gets in
    for bad in (1.0, 1.5):
        with pytest.raises(ValueError, match="must be integers"):
            build(bad)
    for like in (IntLike(1), True):
        got = read(build(like))
        assert got == 1 and type(got) is int


def test_les_theorem_d_names_the_arguments_it_was_given():
    # not a shift it derived from them
    with pytest.raises(ValueError) as info:
        les_theorem_d(3.0, 0)
    assert str(info.value) == "r and shift must be integers, got (3.0, 0)"


def test_json_text_templates_keep_equal_values_of_other_types_apart():
    # 1, 1.0 and True are one dict key, but json.dumps writes them apart
    for t in (1, 1.0, True, 1):
        s = FormalSum(0, (GWSummand(0, L, None, t, t),))
        assert formal_sum_json_text(s) == json.dumps(formal_sum_to_json(s), sort_keys=True, indent=2)


@pytest.mark.parametrize("build", [lambda: decompose_total(12, 12, 0, L, FLAGGED), lambda: decompose_total(98, 3, 0, L)])
def test_json_text_is_json_dumps_on_large_documents(build):
    # about 490 KB and 120 KB of text: the head, the entries and the tail joined once
    clear_cache()
    s = build()
    text = formal_sum_json_text(s)
    assert len(text) > 100_000
    assert text == json.dumps(formal_sum_to_json(s), sort_keys=True, indent=2)
