"""Picard classes modulo squares on flag bundles, and the paper's twist table.

A twist is a sparse Z/2 vector over named line-bundle generators: symbols
pulled back from the base (e.g. ``L`` or ``detE``), the rank-one quotients
``q_j`` of a fixed complete flag, and the determinant ``Delta_e`` of the
tautological rank-e subbundle.  Only the class modulo squares matters for
the duality, so addition is symmetric difference of generator sets.

The engine carries a leaf's flag twist as one bit; the line bundle table
here is the independent oracle that ``verify.check_twist_table`` checks
the engine's bit rules against.  The table is plain data, each family's
rows by site; a twist is in the family whose row at site (0, 0) holds
Delta_d exactly when the twist does, and its other rows give the children.
"""

from __future__ import annotations

from collections.abc import Iterable

from .value import Value, read_once


class BaseSymbol(Value):
    """A line bundle class pulled back from the base scheme."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _values(self) -> tuple:
        return (self.name,)

    def key(self) -> str:
        return self.name


class FlagQuotient(Value):
    """The class of V_j / V_{j-1} for the fixed complete flag of V."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def _values(self) -> tuple:
        return (self.index,)

    def key(self) -> str:
        return f"q{self.index}"


class Delta(Value):
    """det of the tautological rank-e subbundle of the current Grassmannian."""

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        self.rank = rank

    def _values(self) -> tuple:
        return (self.rank,)

    def key(self) -> str:
        return f"Delta:{self.rank}"


Generator = BaseSymbol | FlagQuotient | Delta


def _parse_generator(token: str) -> Generator:
    if token.startswith("Delta:"):
        if not token[6:].isdecimal():
            raise ValueError(f"twist generator {token!r}: the rank after 'Delta:' must be a nonnegative integer")
        return Delta(int(token[6:]))
    if token.startswith("q") and token[1:].isdecimal():
        return FlagQuotient(int(token[1:]))
    return BaseSymbol(token)


class PicClass(Value):
    """An element of Pic modulo squares: a finite set of generators, mod 2."""

    def __init__(self, generators=frozenset()):
        self.generators = frozenset(generators)

    def _values(self) -> tuple:
        return (self.generators,)

    @classmethod
    def of(cls, *gens: Generator) -> "PicClass":
        """The sum of ``gens``, built as one set: a generator given twice cancels."""
        out = set()
        for g in gens:
            out ^= {g}
        return cls(out)

    @classmethod
    def parse(cls, tokens: Iterable[str]) -> "PicClass":
        return cls.of(*[_parse_generator(t) for t in tokens])

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.generators ^ other.generators)

    def __bool__(self) -> bool:
        return bool(self.generators)

    def base_part(self) -> "PicClass":
        """The twist with all Delta generators removed."""
        return PicClass(frozenset(g for g in self.generators if not isinstance(g, Delta)))

    @read_once
    def sort_key(self) -> tuple[str, ...]:
        """The sorted generator keys, computed on an instance's first read and kept there."""
        return tuple(sorted([g.key() for g in self.generators]))

    def serialize(self) -> list[str]:
        return list(self.sort_key)

    def __str__(self):
        return "+".join(self.serialize()) if self.generators else "0"


H_TILDE = "H-tilde"
H = "H"


# The defining table of the two twist families and their child twists:
# each family's rows by site (e, i), the Grassmannian Gr_{d+e}(V^i) carrying
# the twist, each row (name, value at d odd, value at d even) as a function
# of the ambient rank r.  Token meanings: "L" stands for the base part of
# the incoming twist, "detV/V1" and "detV/V2" for the top one or two flag
# quotients, "Delta" for the child site's Delta.  Each family's row at site
# (0, 0) defines it, and its rows at other sites give its two child twists.
LINE_BUNDLE_TABLE = {
    H_TILDE: {
        (0, 0): ("Htilde", "L", "L,Delta"),
        (0, 1): ("Htilde^(1)_d", "L,detV/V1,Delta", "L"),
        (-1, 1): ("Htilde^(1)_d-1", "L", "L,detV/V1,Delta"),
    },
    H: {
        (0, 0): ("H", "L,Delta", "L"),
        (0, 2): ("H^(2)_d", "L,detV/V2,Delta", "L"),
        (-2, 2): ("H^(2)_d-2", "L,detV/V2,Delta", "L"),
    },
}


def instantiate_row(row: tuple[str, str, str], e: int, d: int, r: int, base: PicClass) -> PicClass:
    """Evaluate a table row of site offset e on Gr_d(V) with V of rank r; its top quotient class is q_r."""
    _, value_d_odd, value_d_even = row
    out = set()  # summed mod 2, then frozen once
    for tok in (value_d_odd if d % 2 == 1 else value_d_even).split(","):
        if tok == "L":
            out ^= base.generators
        elif tok == "detV/V1":
            out ^= {FlagQuotient(r)}
        elif tok == "detV/V2":
            out ^= {FlagQuotient(r), FlagQuotient(r - 1)}
        elif tok == "Delta":
            out ^= {Delta(d + e)}
        else:
            raise ValueError(f"unknown table token {tok!r}")
    return PicClass(out)


def child_twists(d: int, t: PicClass, ambient_rank: int) -> dict:
    """Child twists one recursion step down, per family whose defining row has t's Delta_d parity.

    t lives on Gr_d(V) with V of rank ``ambient_rank``; a sound table puts it
    in exactly one family.  Maps each such family to a map from child site
    (child subbundle rank, child upper flag index) to the child twist of the
    family's row there, off site (0, 0); its K-theory site has no row.
    """
    delta, base = Delta(d), t.base_part()
    eps = delta in t.generators
    return {
        family: {(d + e, i): instantiate_row(row, e, d, ambient_rank, base) for (e, i), row in rows.items() if (e, i) != (0, 0)}
        for family, rows in LINE_BUNDLE_TABLE.items()
        if (delta in instantiate_row(rows[0, 0], 0, d, ambient_rank, base).generators) == eps
    }
