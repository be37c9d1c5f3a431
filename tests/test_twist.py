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
    lambda_parity,
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


class TestLambdaParity:
    def test_base_twist(self):
        assert lambda_parity(L, Delta(2)) == 0

    def test_delta_twist(self):
        assert lambda_parity(L + PicClass.of(Delta(2)), Delta(2)) == 1

    def test_quotients_contribute_zero(self):
        assert lambda_parity(L + PicClass.of(FlagQuotient(3)), Delta(2)) == 0


class TestChildTwists:
    def test_h_family_d_even(self):
        out = child_twists(H, 4, L, 0, 6)
        assert out == {(4, 2): L, (2, 2): L}

    def test_htilde_family_d_even(self):
        t = L + PicClass.of(Delta(4))
        out = child_twists(H_TILDE, 4, t, 0, 6)
        assert out[(4, 1)] == L
        assert out[(3, 1)] == L + PicClass.of(FlagQuotient(6), Delta(3))

    def test_h_family_d_odd(self):
        t = L + PicClass.of(Delta(3))
        out = child_twists(H, 3, t, 0, 6)
        assert out[(3, 2)] == L + PicClass.of(FlagQuotient(6), FlagQuotient(5), Delta(3))
        assert out[(1, 2)] == L + PicClass.of(FlagQuotient(6), FlagQuotient(5), Delta(1))

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            child_twists(H, 4, L + PicClass.of(Delta(4)), 0, 6)
        with pytest.raises(ValueError):
            child_twists(H_TILDE, 4, L, 0, 6)

    def test_level_shifts_quotient_indices(self):
        t = L + PicClass.of(Delta(3))
        out = child_twists(H, 3, t, 2, 8)
        # at level j=2 the top quotient of V^2 is q_6
        assert out[(3, 4)] == L + PicClass.of(FlagQuotient(6), FlagQuotient(5), Delta(3))

    def test_child_parity_matches_family_requirement(self):
        # every child twist is in the right family at the child level
        # every child of either family lands in the second family at its level
        for family in (H_TILDE, H):
            for d in (3, 4):
                eps = (d - 1) % 2 if family == H_TILDE else d % 2
                t = L + (PicClass.of(Delta(d)) if eps else PicClass())
                for (cd, _), ct in child_twists(family, d, t, 0, 8).items():
                    assert lambda_parity(ct, Delta(cd)) == cd % 2

    def test_trivial_bundle_manufactures_no_base_twists(self):
        # with all quotient classes set to zero, children live in span{L, Delta}
        for family, d in ((H_TILDE, 3), (H_TILDE, 4), (H, 3), (H, 4)):
            eps = (d - 1) % 2 if family == H_TILDE else d % 2
            t = L + (PicClass.of(Delta(d)) if eps else PicClass())
            for ct in child_twists(family, d, t, 0, 9).values():
                assert PicClass(g for g in ct.generators if isinstance(g, BaseSymbol)) in (PicClass(), L)


class TestTable:
    def test_table_rows_present(self):
        names = {e.name for e in LINE_BUNDLE_TABLE}
        assert names == {
            "Htilde",
            "Htilde^(1)_d",
            "Htilde^(1)_d-1",
            "H",
            "H^(2)_d",
            "H^(2)_d-2",
            "H^(1)_d",
            "H^(1)_d-1",
            "H^(2)_d-1",
        }

    def test_defining_rows(self):
        by_name = {e.name: e for e in LINE_BUNDLE_TABLE}
        assert instantiate_row(by_name["Htilde"], 3, 6, 0, L) == L
        assert instantiate_row(by_name["Htilde"], 4, 6, 0, L) == L + PicClass.of(Delta(4))
        assert instantiate_row(by_name["H"], 3, 6, 0, L) == L + PicClass.of(Delta(3))
        assert instantiate_row(by_name["H"], 4, 6, 0, L) == L

    def test_second_from_top_quotient_row(self):
        by_name = {e.name: e for e in LINE_BUNDLE_TABLE}
        got = instantiate_row(by_name["H^(2)_d-1"], 4, 6, 0, L)
        assert got == L + PicClass.of(FlagQuotient(5), Delta(3))
