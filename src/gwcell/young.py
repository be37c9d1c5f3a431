"""Young diagrams in a rectangular frame and their evenness combinatorics.

A diagram lives inside a d x m frame (d rows, m columns).  The diagrams
whose filled/unfilled interface consists only of even-length straight
segments index the rank-one summands of the decompositions computed by
the engine; the beta numbers below count the remaining K-theory summands.
Each such segment is a drop between consecutive rows or a run of equal
rows inside the frame, so evenness is a test on the row lengths.
Enumeration walks the row vectors with ``itertools``, with no recursion,
and filters them by that test before building any diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb


@dataclass(frozen=True)
class Frame:
    """A d x m rectangle: d rows, m columns."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 0 or self.m < 0:
            raise ValueError(f"frame dimensions must be nonnegative, got {self.d}x{self.m}")


@dataclass(frozen=True)
class YoungDiagram:
    """A partition fitting inside a frame, stored as all d row lengths.

    Rows are weakly decreasing and bounded by the frame width; trailing
    zero rows are kept so that two diagrams in the same frame always have
    row vectors of equal length.
    """

    frame: Frame
    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.frame.d:
            raise ValueError(f"expected {self.frame.d} rows, got {len(rows)}")
        prev = self.frame.m
        for r in rows:
            if not 0 <= r <= prev:
                raise ValueError(f"rows {rows} are not weakly decreasing within width {self.frame.m}")
            prev = r

    def boxes(self) -> int:
        return sum(self.rows)

    def transpose(self) -> "YoungDiagram":
        """Conjugate partition in the transposed frame."""
        new_rows = tuple(sum(1 for r in self.rows if r > j) for j in range(self.frame.m))
        return YoungDiagram(Frame(self.frame.m, self.frame.d), new_rows)

    def __str__(self):
        return rows_text(self.rows)


def rows_text(rows: tuple[int, ...]) -> str:
    """A row vector printed as its partition, the nonzero rows: ``(3,1)``, or ``()`` when empty."""
    return "(" + ",".join(str(r) for r in rows if r > 0) + ")"


def _even_rows(rows: tuple[int, ...], m: int) -> bool:
    """The evenness rule on a row vector in a frame of width m, in one pass.

    Horizontal segments are the drops between consecutive rows; vertical
    segments are the runs of equal rows strictly inside the frame, since
    rows of length 0 or m end on the frame border.  One pass keeps the
    previous row and its run length, failing on an odd drop or inner run.
    """
    prev, run = (rows[0] if rows else 0), 0
    for r in rows:
        if r == prev:
            run += 1
            continue
        if (prev - r) & 1 or run & 1 and 0 < prev < m:
            return False
        prev, run = r, 1
    return not (run & 1 and 0 < prev < m)


def is_even(diagram: YoungDiagram) -> bool:
    """True iff every interface segment has even length (vacuously for none)."""
    return _even_rows(diagram.rows, diagram.frame.m)


def _row_vectors(frame: Frame):
    """The weakly decreasing d-tuples bounded by m, lexicographically descending."""
    return combinations_with_replacement(range(frame.m, -1, -1), frame.d)


def enumerate_diagrams(frame: Frame) -> list[YoungDiagram]:
    """All partitions fitting the frame, lexicographically descending on rows."""
    return [YoungDiagram(frame, rows) for rows in _row_vectors(frame)]


def enumerate_even(frame: Frame) -> list[YoungDiagram]:
    """The even diagrams of the frame, in canonical enumeration order; only these are built."""
    return [YoungDiagram(frame, rows) for rows in _row_vectors(frame) if _even_rows(rows, frame.m)]


def even_cardinality(d: int, m: int) -> int:
    """Closed form for the number of even diagrams in a d x m frame, d,m >= 1."""
    _require_positive(d, m)
    return 2 * comb(d // 2 + m // 2, d // 2)


def beta(d: int, m: int) -> int:
    """Number of K-theory summands contributed by the d x m frame, both twists."""
    _require_positive(d, m)
    return comb(d + m, d) - comb(d // 2 + m // 2, d // 2)


def beta_parity(l: int, d: int, m: int) -> int:
    """The per-twist-class count whose two values sum to beta(d, m)."""
    _require_positive(d, m)
    l = l % 2
    full = comb(d + m, d)
    half = comb(d // 2 + m // 2, d // 2)
    if d % 2 == 0 or m % 2 == 0:
        return (full - half) // 2
    if l == 1:
        return full // 2
    return full // 2 - half


def _require_positive(d: int, m: int):
    if d < 1 or m < 1:
        raise ValueError(f"formula requires d, m >= 1, got d={d}, m={m}")


def _beta_parity_or_zero(l: int, d: int, m: int) -> int:
    # degenerate convention: an empty frame direction contributes no K summand
    if d == 0 or m == 0:
        return 0
    return beta_parity(l, d, m)


def verify_pascal(d_max: int, m_max: int) -> list[tuple[int, int, int]]:
    """The (d, m, identity) triples, 1 <= d <= d_max and 1 <= m <= m_max, where a beta identity fails.

    Identity 1: beta^[d+1](d, m) = beta^[d](d, m-1) + beta^[d-1](d-1, m).
    Identity 2: beta^[d](d, m)   = beta^[d](d, m-2) + C(d+m-2, m-1)
                                   + beta^[d-2](d-2, m).
    Sub-terms with a zero index use the degenerate value 0; identity 2 is
    tried only where its indices are nonnegative, d, m >= 2.
    """
    bad = []
    for d in range(1, d_max + 1):
        for m in range(1, m_max + 1):
            if beta_parity(d + 1, d, m) != _beta_parity_or_zero(d, d, m - 1) + _beta_parity_or_zero(d - 1, d - 1, m):
                bad.append((d, m, 1))
            if d >= 2 and m >= 2 and beta_parity(d, d, m) != (
                _beta_parity_or_zero(d, d, m - 2) + comb(d + m - 2, m - 1) + _beta_parity_or_zero(d - 2, d - 2, m)
            ):
                bad.append((d, m, 2))
    return bad


def render_ascii(diagram: YoungDiagram) -> str:
    """Draw the diagram in its frame: '#' filled boxes, '.' empty ones."""
    m = diagram.frame.m
    border = "+" + "-" * m + "+"
    lines = ["|" + "#" * r + "." * (m - r) + "|" for r in diagram.rows]
    return "\n".join([border, *lines, border])
