"""Young diagrams in a rectangular frame and their evenness combinatorics.

A diagram lives inside a d x m frame (d rows, m columns).  The diagrams
whose filled/unfilled interface consists only of even-length straight
segments index the rank-one summands of the decompositions computed by
the engine; the beta numbers below count the remaining K-theory summands.
Each such segment is a drop between consecutive rows or a run of equal
rows inside the frame, so evenness is a test on the row lengths.
``enumerate_diagrams`` walks the row vectors with ``itertools``;
``enumerate_even`` generates only the even ones from the same rule, one
nested generator per run, at most min(d, m // 2 + 1) deep.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from .value import Value, exact_ints


class Frame(Value):
    """A d x m rectangle: d rows, m columns, read as exact ints (``value.exact_ints``): a float is a ``ValueError``."""

    __slots__ = ("d", "m")

    def __init__(self, d: int, m: int):
        d, m = exact_ints("d and m", d, m)
        if d < 0 or m < 0:
            raise ValueError(f"frame dimensions must be nonnegative, got {d}x{m}")
        self.d = d
        self.m = m

    def _values(self) -> tuple:
        return (self.d, self.m)


class YoungDiagram(Value):
    """A partition fitting inside a frame, stored as all d row lengths.

    Rows are weakly decreasing and bounded by the frame width; trailing
    zero rows are kept so that two diagrams in the same frame always have
    row vectors of equal length.  Rows are read through
    ``value.exact_ints``, so a float row is a ``ValueError``.
    """

    __slots__ = ("frame", "rows")

    def __init__(self, frame: Frame, rows: tuple[int, ...]):
        rows = exact_ints("rows", *rows)
        if len(rows) != frame.d:
            raise ValueError(f"expected {frame.d} rows, got {len(rows)}")
        prev = frame.m
        for r in rows:
            if not 0 <= r <= prev:
                raise ValueError(f"rows {rows} are not weakly decreasing within width {frame.m}")
            prev = r
        self.frame = frame
        self.rows = rows

    def _values(self) -> tuple:
        return (self.frame, self.rows)

    def boxes(self) -> int:
        return sum(self.rows)

    def transpose(self) -> "YoungDiagram":
        """Conjugate partition in the transposed frame."""
        return YoungDiagram(Frame(self.frame.m, self.frame.d), transpose_rows(self.rows, self.frame.m))

    def __str__(self):
        return rows_text(self.rows)


def transpose_rows(rows: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The conjugate of a row vector in a frame of width m: column j counts the rows longer than j, read from the bottom row up."""
    cols, i = [], len(rows)
    for r in reversed(rows):
        cols += (i,) * (r - len(cols))
        i -= 1
    return tuple(cols) + (0,) * (m - len(cols))


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


def _even_row_vectors(d: int, m: int):
    """The row vectors ``_even_rows`` accepts in a d x m frame, in ``_row_vectors`` order, built run by run.

    A run of equal rows may have any length on the frame border (value 0 or
    m) and only an even length inside it; the next run starts an even drop
    lower, so a run that leaves rows to fill has value 2 or more.  Larger
    values come first, then longer runs, so the vectors come out
    lexicographically descending.  Each run nests one generator, at most
    min(d, m // 2 + 1) deep; nesting k deep needs d >= k and m >= 2k - 2, so
    such a frame has at least 2 C(k // 2 + k - 1, k // 2) even diagrams, far
    too many to list long before k nears Python's recursion limit.
    """

    def extend(prefix, top, step, left):
        for v in range(top, -1, -step):
            for n in range(left, 0, -1) if v in (0, m) else range(left - left % 2, 0, -2):
                if n == left:
                    yield prefix + (v,) * n
                elif v >= 2:
                    yield from extend(prefix + (v,) * n, v - 2, 2, left - n)

    return extend((), m, 1, d) if d else iter([()])


def enumerate_even(frame: Frame) -> list[YoungDiagram]:
    """The even diagrams of the frame, in canonical enumeration order; only these are built."""
    return [YoungDiagram(frame, rows) for rows in _even_row_vectors(frame.d, frame.m)]


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


def beta_parity_table(d_max: int, m_max: int) -> tuple:
    """``beta_parity(l, d, m)`` as ``table[l][d][m]``, for l in (0, 1), 0 <= d <= d_max and 0 <= m <= m_max.

    Degenerate convention: an empty frame direction (d or m = 0) contributes no K summand.
    """
    return tuple(tuple(tuple(beta_parity(l, d, m) if d and m else 0 for m in range(m_max + 1)) for d in range(d_max + 1)) for l in (0, 1))


def verify_pascal(d_max: int, m_max: int, table=None) -> list[tuple[int, int, int]]:
    """The (d, m, identity) triples, 1 <= d <= d_max and 1 <= m <= m_max, where a beta identity fails.

    Identity 1: beta^[d+1](d, m) = beta^[d](d, m-1) + beta^[d-1](d-1, m).
    Identity 2: beta^[d](d, m)   = beta^[d](d, m-2) + C(d+m-2, m-1)
                                   + beta^[d-2](d-2, m).
    Sub-terms with a zero index use the degenerate value 0; identity 2 is
    tried only where its indices are nonnegative, d, m >= 2.  Both sides
    are read from ``table``, ``beta_parity``'s values as a
    ``beta_parity_table`` covering the bounds, built here when not given.
    """
    if table is None:
        table = beta_parity_table(d_max, m_max)
    bad = []
    for d in range(1, d_max + 1):
        same, other = table[d % 2], table[(d - 1) % 2]  # other is also beta^[d+1]
        for m in range(1, m_max + 1):
            if other[d][m] != same[d][m - 1] + other[d - 1][m]:
                bad.append((d, m, 1))
            if d >= 2 and m >= 2 and same[d][m] != same[d][m - 2] + comb(d + m - 2, m - 1) + same[d - 2][m]:
                bad.append((d, m, 2))
    return bad


def render_ascii(diagram: YoungDiagram) -> str:
    """Draw the diagram in its frame: '#' filled boxes, '.' empty ones."""
    return _ascii_drawer(diagram.frame.d, diagram.frame.m)(diagram.rows)


def _ascii_drawer(d: int, m: int):
    """The function drawing a row vector of the d x m frame as ``render_ascii`` draws it, from one line per row length."""
    border = "+" + "-" * m + "+"
    lines = ["|" + "#" * r + "." * (m - r) + "|" for r in range(m + 1)]
    picture = "\n".join([border, *["%s"] * d, border])
    return lambda rows: picture % tuple(map(lines.__getitem__, rows))
