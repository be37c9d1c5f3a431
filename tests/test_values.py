"""The value classes: equality and hash by class and fields, and validation on construction."""

from itertools import combinations

import pytest

from gwcell.engine import FLAGGED, GrassmannQuery, ProjBundleQuery
from gwcell.expr import AbelianGroup, BaseTheoryTable, FormalSum, GWSummand, LongExactSequence
from gwcell.twist import BaseSymbol, Delta, FlagQuotient, PicClass
from gwcell.value import Value
from gwcell.young import Frame, YoungDiagram

L = PicClass.of(BaseSymbol("L"))


def _summand(shift):
    return GWSummand(shift, L, YoungDiagram(Frame(2, 2), (1, 1)), 0, 1)


# Per class: a factory for one value and one for a value differing in one field.
VALUES = {
    "Frame": (lambda: Frame(2, 3), lambda: Frame(3, 2)),
    "YoungDiagram": (lambda: YoungDiagram(Frame(2, 2), [2, 1]), lambda: YoungDiagram(Frame(2, 3), (2, 1))),
    "BaseSymbol": (lambda: BaseSymbol("q3"), lambda: BaseSymbol("L")),
    "FlagQuotient": (lambda: FlagQuotient(3), lambda: FlagQuotient(4)),
    "Delta": (lambda: Delta(3), lambda: Delta(4)),
    "PicClass": (lambda: PicClass.of(BaseSymbol("L"), Delta(2)), lambda: PicClass([BaseSymbol("L")])),
    "AbelianGroup": (lambda: AbelianGroup((2, 1, 0)), lambda: AbelianGroup((2,))),
    "GWSummand": (lambda: _summand(-2), lambda: _summand(2)),
    "FormalSum": (lambda: FormalSum(1, (_summand(-2),), (("kind", "x"),)), lambda: FormalSum(1, (_summand(-2),))),
    "BaseTheoryTable": (
        lambda: BaseTheoryTable("t", ((("K", 0, (), 0), AbelianGroup((0,))),)),
        lambda: BaseTheoryTable("u", ((("K", 0, (), 0), AbelianGroup((0,))),)),
    ),
    "LongExactSequence": (lambda: LongExactSequence(("A", "B"), ("f", "g")), lambda: LongExactSequence(("A", "B"), ("f", "h"))),
    "GrassmannQuery": (lambda: GrassmannQuery(2, 3, 0, L, FLAGGED), lambda: GrassmannQuery(2, 3, 0, L)),
    "ProjBundleQuery": (lambda: ProjBundleQuery(3, 0, 1, split=False), lambda: ProjBundleQuery(3, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_give_equal_values(name):
    make, make_other = VALUES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(a._values())
    assert type(a).__eq__ is Value.__eq__ and type(a).__hash__ is Value.__hash__
    assert a != make_other() and not a == make_other()


def test_every_value_class_has_a_case():
    assert {cls.__name__ for cls in Value.__subclasses__()} == set(VALUES)


def test_values_of_different_classes_never_compare_equal():
    values = [make() for make, _ in VALUES.values()] + [(2, 3), "q3", 3]
    for a, b in combinations(values, 2):
        assert a != b and b != a and not a == b


def test_generators_of_each_kind_are_distinct():
    # one index or name, three kinds of generator
    assert len(PicClass.of(FlagQuotient(3), Delta(3), BaseSymbol("q3")).generators) == 3
    assert PicClass.of(FlagQuotient(3)) != PicClass.of(Delta(3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Frame(-1, 2),
        lambda: YoungDiagram(Frame(2, 2), (1, 2)),
        lambda: AbelianGroup((2, -3)),
        lambda: LongExactSequence(("A", "B", "C"), ("f", "g")),
        lambda: GrassmannQuery(2, -1, 0, L),
        lambda: GrassmannQuery(2, 2, 0, L, "twisted"),
        lambda: GrassmannQuery(2, 2, 0, PicClass.parse(["q9"])),
        lambda: GrassmannQuery(2, 2, 0, PicClass.of(Delta(3))),
        lambda: GrassmannQuery(0, 0, 0, PicClass.of(Delta(0))),
        lambda: ProjBundleQuery(0, 0, 0),
        lambda: ProjBundleQuery(2, 2, 0),
        lambda: FormalSum(-1),
    ],
)
def test_bad_fields_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_base_table_from_a_list_is_the_table_from_a_tuple():
    entry = (("K", 0, (), 0), AbelianGroup((0,)))
    from_list, from_tuple = BaseTheoryTable("t", [entry]), BaseTheoryTable("t", (entry,))
    assert from_list.entries == (entry,)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert BaseTheoryTable("t", iter([entry])) == from_tuple
