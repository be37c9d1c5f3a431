import pytest
from hypothesis import given, strategies as st

from gwcell.twist import (
    H,
    H_TILDE,
    BaseSymbol,
    Delta,
    FlagQuotient,
    LINE_BUNDLE_TABLE,
    PicClass,
    child_twists,
    instantiate_row,
)

L = PicClass.of(BaseSymbol("L"))


def pic_classes():
    gens = st.one_of(
        st.sampled_from([BaseSymbol("L"), BaseSymbol("M")]),
        st.integers(1, 6).map(FlagQuotient),
        st.integers(0, 4).map(Delta),
    )
    return st.frozensets(gens, max_size=6).map(PicClass)


class TestPicClass:
    def test_square_is_zero(self):
        t = PicClass.of(BaseSymbol("L"), FlagQuotient(2))
        assert t + t == PicClass()

    @given(pic_classes(), pic_classes(), pic_classes())
    def test_abelian_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + PicClass() == a
        assert a + a == PicClass()

    def test_serialize_sorted_and_parse_roundtrip(self):
        t = PicClass.of(Delta(2), FlagQuotient(3), BaseSymbol("L"))
        assert t.serialize() == ["Delta:2", "L", "q3"]
        assert PicClass.parse(t.serialize()) == t

    def test_canonical_sparse_form(self):
        # zero coefficients are simply absent from the generator set
        t = PicClass.of(BaseSymbol("L")) + PicClass.of(BaseSymbol("L"))
        assert not t.generators

    def test_only_the_zero_class_is_false(self):
        assert not PicClass() and PicClass.of(Delta(2))


class TestLambdaParity:
    # the coefficient of Delta_d alone picks the family: at d even, H-tilde's defining row holds Delta_d and H's does not
    def test_base_twist(self):
        assert list(child_twists(2, L, 4)) == [H]
        assert list(child_twists(2, PicClass(), 4)) == [H]

    def test_delta_twist(self):
        assert list(child_twists(2, L + PicClass.of(Delta(2)), 4)) == [H_TILDE]
        assert list(child_twists(2, PicClass.of(Delta(2)), 4)) == [H_TILDE]

    def test_quotients_contribute_zero(self):
        assert list(child_twists(2, L + PicClass.of(FlagQuotient(3)), 4)) == [H]
        assert list(child_twists(2, L + PicClass.of(FlagQuotient(3), Delta(2)), 4)) == [H_TILDE]


class TestChildTwists:
    def test_h_family_d_even(self):
        out = child_twists(4, L, 6)
        assert out == {H: {(4, 2): L, (2, 2): L}}

    def test_htilde_family_d_even(self):
        t = L + PicClass.of(Delta(4))
        out = child_twists(4, t, 6)[H_TILDE]
        assert out[(4, 1)] == L
        assert out[(3, 1)] == L + PicClass.of(FlagQuotient(6), Delta(3))

    def test_h_family_d_odd(self):
        t = L + PicClass.of(Delta(3))
        out = child_twists(3, t, 6)[H]
        assert out[(3, 2)] == L + PicClass.of(FlagQuotient(6), FlagQuotient(5), Delta(3))
        assert out[(1, 2)] == L + PicClass.of(FlagQuotient(6), FlagQuotient(5), Delta(1))

    def test_family_follows_defining_rows(self):
        # the defining rows put Delta parity d - 1 mod 2 in H-tilde (corank-1
        # children) and parity d mod 2 in H (corank-2 children)
        for d in range(3, 7):
            for eps in (0, 1):
                t = L + (PicClass.of(Delta(d)) if eps else PicClass())
                out = child_twists(d, t, d + 3)
                if eps == (d - 1) % 2:
                    assert list(out) == [H_TILDE] and set(out[H_TILDE]) == {(d, 1), (d - 1, 1)}
                else:
                    assert list(out) == [H] and set(out[H]) == {(d, 2), (d - 2, 2)}

    def test_child_parity_matches_family_requirement(self):
        # every child of either family lands in the second family at its level
        for d in (3, 4):
            for eps in (0, 1):
                t = L + (PicClass.of(Delta(d)) if eps else PicClass())
                (children,) = child_twists(d, t, 8).values()
                for (cd, _), ct in children.items():
                    assert (Delta(cd) in ct.generators) == cd % 2

    def test_trivial_bundle_manufactures_no_base_twists(self):
        # with all quotient classes set to zero, children live in span{L, Delta}
        for d in (3, 4):
            for eps in (0, 1):
                t = L + (PicClass.of(Delta(d)) if eps else PicClass())
                (children,) = child_twists(d, t, 9).values()
                for ct in children.values():
                    assert PicClass(g for g in ct.generators if isinstance(g, BaseSymbol)) in (PicClass(), L)


class TestTable:
    def test_table_rows_present(self):
        names = {family: {site: row[0] for site, row in rows.items()} for family, rows in LINE_BUNDLE_TABLE.items()}
        assert names == {
            H_TILDE: {(0, 0): "Htilde", (0, 1): "Htilde^(1)_d", (-1, 1): "Htilde^(1)_d-1"},
            H: {(0, 0): "H", (0, 2): "H^(2)_d", (-2, 2): "H^(2)_d-2"},
        }

    def test_defining_rows(self):
        htilde, h = LINE_BUNDLE_TABLE[H_TILDE][0, 0], LINE_BUNDLE_TABLE[H][0, 0]
        assert instantiate_row(htilde, 0, 3, 6, L) == L
        assert instantiate_row(htilde, 0, 4, 6, L) == L + PicClass.of(Delta(4))
        assert instantiate_row(h, 0, 3, 6, L) == L + PicClass.of(Delta(3))
        assert instantiate_row(h, 0, 4, 6, L) == L

    def test_unknown_token_raises(self):
        with pytest.raises(ValueError, match="unknown table token 'detV/V3'"):
            instantiate_row(("bad", "L,detV/V3", "L"), 0, 3, 6, L)
