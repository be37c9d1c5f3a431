import inspect
import sys
from itertools import combinations_with_replacement, groupby
from math import comb

import pytest
from hypothesis import given, strategies as st

from gwcell.young import (
    Frame,
    YoungDiagram,
    _even_rows,
    beta,
    beta_parity,
    enumerate_diagrams,
    enumerate_even,
    even_cardinality,
    is_even,
    render_ascii,
    verify_pascal,
)
from gwcell import young
from interface_scan import brute_force_interface
from word_walk import boundary_word, rows_of_word


def diagram(d, m, *rows):
    padded = tuple(rows) + (0,) * (d - len(rows))
    return YoungDiagram(Frame(d, m), padded)


def _recursion_depth():
    """The interpreter's recursion depth here, C calls included: one less than the lowest limit it accepts."""
    limit, depth = sys.getrecursionlimit(), len(inspect.stack())
    try:
        while True:
            try:
                sys.setrecursionlimit(depth + 1)
                return depth
            except RecursionError:
                depth += 1
    finally:
        sys.setrecursionlimit(limit)


@st.composite
def framed_diagrams(draw, max_side=6):
    d = draw(st.integers(0, max_side))
    m = draw(st.integers(0, max_side))
    rows = []
    bound = m
    for _ in range(d):
        r = draw(st.integers(0, bound))
        rows.append(r)
        bound = r
    return YoungDiagram(Frame(d, m), tuple(rows))


class TestEnumeration:
    def test_frame_2x2_lists_all_six(self):
        got = [lam.rows for lam in enumerate_diagrams(Frame(2, 2))]
        assert got == [(2, 2), (2, 1), (2, 0), (1, 1), (1, 0), (0, 0)]

    def test_degenerate_frame(self):
        assert [lam.rows for lam in enumerate_diagrams(Frame(0, 5))] == [()]

    def test_frame_3x2_count(self):
        assert len(enumerate_diagrams(Frame(3, 2))) == comb(5, 3)

    @pytest.mark.parametrize("d,m", [(d, m) for d in range(5) for m in range(5)])
    def test_count_is_binomial(self, d, m):
        assert len(enumerate_diagrams(Frame(d, m))) == comb(d + m, d)

    def test_frame_deeper_than_the_recursion_limit(self):
        rows = [lam.rows for lam in enumerate_diagrams(Frame(1500, 1))]
        assert len(rows) == 1501
        assert rows[0] == (1,) * 1500 and rows[-1] == (0,) * 1500

    def test_order_and_even_subsequence_on_small_frames(self):
        for d in range(7):
            for m in range(7):
                frame = Frame(d, m)
                diagrams = enumerate_diagrams(frame)
                rows = [lam.rows for lam in diagrams]
                assert len(rows) == comb(d + m, d)
                assert all(a > b for a, b in zip(rows, rows[1:]))
                assert enumerate_even(frame) == [lam for lam in diagrams if is_even(lam)]

    def test_generator_is_the_filter(self):
        # thin frames too: the generator nests once per run, so 3000 rows of one run nest once
        for d, m in [(d, m) for d in range(11) for m in range(11)] + [(3000, 1), (1, 3000), (2, 300), (300, 2)]:
            want = [rows for rows in young._row_vectors(Frame(d, m)) if _even_rows(rows, m)]
            assert list(young._even_row_vectors(d, m)) == want, (d, m)

    @pytest.mark.parametrize("d, m", [(12, 12), (16, 8), (8, 16), (3000, 1), (1, 3000), (2, 300), (300, 2)])
    def test_generator_nests_at_most_once_per_run(self, d, m):
        # at most min(d, m // 2 + 1) runs, each one nested generator, whatever the frame's length
        want = [rows for rows in young._row_vectors(Frame(d, m)) if _even_rows(rows, m)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_recursion_depth() + min(d, m // 2 + 1) + 5)
        try:
            got = list(young._even_row_vectors(d, m))
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    def test_enumerate_even_builds_only_the_diagrams_it_returns(self, monkeypatch):
        built = []
        original = YoungDiagram.__init__

        def counted(self, frame, rows):
            built.append(rows)
            original(self, frame, rows)

        monkeypatch.setattr(YoungDiagram, "__init__", counted)
        evens = enumerate_even(Frame(6, 6))
        assert len(evens) == len(built) == 40

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            YoungDiagram(Frame(2, 2), (1, 2))
        with pytest.raises(ValueError):
            YoungDiagram(Frame(2, 2), (3, 0))
        with pytest.raises(ValueError):
            YoungDiagram(Frame(2, 2), (1,))

    def test_str_is_the_partition(self):
        # zero rows are dropped
        assert str(YoungDiagram(Frame(3, 3), (2, 1, 0))) == "(2,1)"
        assert str(YoungDiagram(Frame(2, 2), (0, 0))) == "()"

    @pytest.mark.parametrize("d, m", [(1.5, 2), (2, 2.0), (2.0, 2)])
    def test_frame_reads_exact_ints(self, d, m):
        # a float side is a ValueError naming d and m, raised before any generator reads it
        with pytest.raises(ValueError, match=r"d and m must be integers"):
            enumerate_even(Frame(d, m))


class TestInterfaceSegments:
    # the grid-scan segments of a diagram, and is_even's row-length verdict on the same diagram
    def test_hook(self):
        lam = diagram(2, 2, 2, 1)
        assert brute_force_interface(lam.rows, lam.frame.m) == (("horizontal", 1), ("vertical", 1))
        assert not is_even(lam)

    def test_staircase_order_top_right_first(self):
        lam = diagram(3, 3, 3, 1, 1)
        assert brute_force_interface(lam.rows, lam.frame.m) == (("horizontal", 2), ("vertical", 2))
        assert is_even(lam)

    def test_full_frame_has_no_interface(self):
        lam = diagram(3, 3, 3, 3, 3)
        assert brute_force_interface(lam.rows, lam.frame.m) == ()
        assert is_even(lam)


def reference_even_rows(rows, m):
    """Reference for young._even_rows: every drop by zip, every run of equal rows by groupby."""
    if any((a - b) % 2 for a, b in zip(rows, rows[1:])):
        return False
    return all(len(list(run)) % 2 == 0 for r, run in groupby(rows) if 0 < r < m)


class TestEvenness:
    def test_rule_matches_reference_on_every_row_vector_up_to_8x8(self):
        for d in range(9):
            for m in range(9):
                for rows in combinations_with_replacement(range(m, -1, -1), d):
                    assert _even_rows(rows, m) == reference_even_rows(rows, m), (rows, m)

    def test_examples_2x2(self):
        assert is_even(diagram(2, 2, 1, 1))
        assert not is_even(diagram(2, 2, 2, 1))

    def test_example_3x3(self):
        assert is_even(diagram(3, 3, 3, 1, 1))

    def test_odd_interior_run(self):
        # no drops, but a vertical segment of length 3 at column 2
        assert not is_even(diagram(3, 3, 2, 2, 2))

    def test_odd_drop(self):
        # rows 3 and 0 lie on the frame border; only the drop of 3 counts
        assert not is_even(diagram(2, 3, 3))

    def test_empty_and_full_always_even(self):
        for d in range(6):
            for m in range(6):
                assert is_even(diagram(d, m))
                assert is_even(diagram(d, m, *([m] * d)))

    def test_even_sets_match_figures(self):
        assert {lam.rows for lam in enumerate_even(Frame(2, 2))} == {(0, 0), (2, 0), (1, 1), (2, 2)}
        assert {lam.rows for lam in enumerate_even(Frame(3, 3))} == {
            (0, 0, 0),
            (2, 2, 0),
            (3, 1, 1),
            (3, 3, 3),
        }

    def test_4x4_contains_spec_shapes(self):
        got = {lam.rows for lam in enumerate_even(Frame(4, 4))}
        assert len(got) == 12
        for rows in [(4, 4, 2, 2), (2, 2, 2, 2), (3, 3, 1, 1), (4, 2, 2, 0)]:
            assert rows in got

    @given(framed_diagrams())
    def test_transpose_preserves_evenness_and_boxes(self, lam):
        t = lam.transpose()
        assert t.frame == Frame(lam.frame.m, lam.frame.d)
        assert t.boxes() == lam.boxes()
        assert is_even(t) == is_even(lam)
        assert t.transpose() == lam


class TestTranspose:
    def test_conjugation(self):
        assert diagram(2, 2, 2).transpose() == diagram(2, 2, 1, 1)

    def test_self_conjugate(self):
        assert diagram(3, 3, 3, 1, 1).transpose() == diagram(3, 3, 3, 1, 1)

    def test_empty(self):
        assert diagram(2, 3).transpose() == diagram(3, 2)

    @given(framed_diagrams(max_side=12))
    def test_transpose_rows_is_the_box_set_transpose(self, lam):
        rows, m = lam.rows, lam.frame.m
        t = young.transpose_rows(rows, m)
        boxes = {(i, j) for i, r in enumerate(rows) for j in range(r)}
        assert {(i, j) for i, c in enumerate(t) for j in range(c)} == {(j, i) for i, j in boxes}
        assert young.transpose_rows(t, lam.frame.d) == rows
        assert sum(t) == sum(rows) == len(boxes)


class TestBetaNumbers:
    @pytest.mark.parametrize(
        "d,m,expected",
        [((2), 2, 4), (1, 1, 1), (4, 4, 64)],
    )
    def test_beta_values(self, d, m, expected):
        assert beta(d, m) == expected

    @pytest.mark.parametrize("d,m,expected", [(2, 2, 4), (4, 4, 12), (1, 1, 2)])
    def test_even_cardinality_values(self, d, m, expected):
        assert even_cardinality(d, m) == expected

    def test_even_cardinality_matches_enumeration(self):
        for d in range(1, 9):
            for m in range(1, 9):
                assert len(enumerate_even(Frame(d, m))) == even_cardinality(d, m)

    def test_beta_parity_values(self):
        assert beta_parity(1, 1, 1) == 1
        assert beta_parity(0, 1, 1) == 0
        assert beta_parity(0, 2, 2) == 2

    def test_beta_parity_sums_to_beta(self):
        for d in range(1, 31):
            for m in range(1, 31):
                assert beta_parity(0, d, m) + beta_parity(1, d, m) == beta(d, m)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            beta(0, 3)
        with pytest.raises(ValueError):
            even_cardinality(3, 0)
        with pytest.raises(ValueError):
            beta_parity(0, 0, 1)


class TestPascal:
    def test_spec_cases(self):
        assert verify_pascal(3, 3) == []

    def test_all_hold_up_to_30(self):
        assert verify_pascal(30, 30) == []

    def test_out_of_domain_skipped_not_failed(self):
        # an all-zero table meets identity 1 everywhere; identity 2 needs m >= 2, so at m = 1 it is not tried
        zeros = tuple(tuple((0,) * 4 for _ in range(4)) for _ in (0, 1))
        assert verify_pascal(2, 1, zeros) == []
        assert (3, 3, 2) in verify_pascal(3, 3, zeros)
        # one perturbed sub-term, beta^[1](1, 1), breaks identity 1 at (2, 1) alone
        perturbed = (zeros[0], (zeros[1][0], (0, 1, 0, 0)) + zeros[1][2:])
        assert verify_pascal(2, 1, perturbed) == [(2, 1, 1)]


class TestAscii:
    def test_render(self):
        assert render_ascii(diagram(2, 2, 2, 1)) == "+--+\n|##|\n|#.|\n+--+"

    def test_render_empty_frame(self):
        assert render_ascii(diagram(0, 3)) == "+---+\n+---+"


class TestBoundaryWord:
    """The word format of the reference walk in ``word_walk``."""

    def test_examples(self):
        # from the bottom-left corner: the bottom row, then each step up
        assert boundary_word(diagram(2, 3, 2, 1)) == "ENENE"
        assert boundary_word(diagram(2, 2)) == "NNEE"
        assert boundary_word(diagram(2, 2, 2, 2)) == "EENN"
        assert boundary_word(diagram(0, 3)) == "EEE"
        assert boundary_word(diagram(3, 0)) == "NNN"

    @given(framed_diagrams(max_side=10))
    def test_round_trip(self, lam):
        word = boundary_word(lam)
        assert len(word) == lam.frame.d + lam.frame.m and word.count("N") == lam.frame.d
        assert rows_of_word(word) == lam.rows

    @given(framed_diagrams(max_side=10))
    def test_transpose_reverses_and_swaps(self, lam):
        assert boundary_word(lam.transpose()) == boundary_word(lam)[::-1].translate(str.maketrans("EN", "NE"))
