"""The decomposition engine.

Executes the splitting recursions for Grassmannians over a base with a
complete flag, on every frame, whichever side is longer.  The Gr_1 base
case also serves P(E) = Gr_1(E), the m = 1 base case is its dual Gr_d of
a rank d+1 bundle, and Gr_0 serves the point.  Every GW leaf is a pair
(even Young diagram recording which cells produced it, flag twist bit
rho); K-theory copies are only counted.

The recursion on Gr_d of an ambient rank d+m bundle dispatches on the
parity of the twist relative to the tautological determinant:

* parity d-1 ("first family"): split into Gr_d of the corank-1 subbundle,
  shifted by d, and Gr_{d-1} of it, unshifted; the shifted branch prepends
  a full column to every leaf diagram.
* parity d ("second family"): a K-theory block plus Gr_d of the corank-2
  subbundle shifted by 2d (two prepended columns) and Gr_{d-2} of it
  unshifted (two appended empty rows).

The memo keeps one count per (d, m, eps), its number of GW leaves; K
follows from the rank rule 2 K + leaves = C(d + m, d) at every node.
A query's leaves are then walked once, top down, skipping subtrees with no
leaves.  The walk carries each leaf as its row vector: a pending node
records the full columns its shifted ancestors prepend and the empty-row
tail its unshifted ones append, so a leaf costs its own d rows.  Each
leaf becomes one formal-sum record; no ``GWSummand`` is built for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .expr import FormalSum, GWSummand, LongExactSequence
from .twist import BaseSymbol, Delta, FlagQuotient, PicClass, lambda_parity
from .young import Frame

TRIVIAL = "trivial"
FLAGGED = "flagged"

DET_E = BaseSymbol("detE")
DET_V = BaseSymbol("detV")


@dataclass(frozen=True)
class GrassmannQuery:
    d: int
    m: int
    shift: int
    twist: PicClass
    bundle: str = TRIVIAL

    def __post_init__(self):
        if self.d < 0 or self.m < 0:
            raise ValueError(f"need d, m >= 0, got d={self.d}, m={self.m}")
        if self.bundle not in (TRIVIAL, FLAGGED):
            raise ValueError(f"unknown bundle kind {self.bundle!r}")


@dataclass(frozen=True)
class ProjBundleQuery:
    """P(E) for a rank r+1 bundle E; the twist enters only through its parity."""

    r: int
    parity: int
    shift: int
    split: bool = True

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"need bundle rank >= 2, got r+1 = {self.r + 1}")
        if self.parity not in (0, 1):
            raise ValueError("twist parity must be 0 or 1")


Leaf = tuple[tuple[int, ...], int]  # (rows, rho): the shift drops by the box count, rho picks the twist

_CACHE: dict[tuple[int, int, int], int] = {}  # number of GW leaves per node
_LEAVES: dict[tuple[int, int, int], tuple[int, tuple[Leaf, ...]]] = {}  # walked leaves of queried frames


def _solve(d: int, m: int, eps: int) -> tuple[int, tuple[Leaf, ...]]:
    """K count and GW leaves (rows, rho) of Gr_d (ambient rank d+m) at twist eps * Delta_d.

    A leaf's flag quotient classes always telescope to 0 or det V, so they
    travel as one bit ``rho``: d = 0 gives 0, m = 0 gives eps, Gr_1 gives 0
    to its empty leaf and 1 to its full one, m = 1 gives 0 to its empty
    leaf and 1 - eps to its full one, and an inner node passes each child's
    bit through unchanged.  ``verify.check_twist_table`` checks these rules
    against the paper's line bundle table.  An arbitrary base twist rides
    along additively, so this is the only shape that needs memoizing.
    Callers reject d = 0 with eps set, so d = 0 means eps = 0.

    The memo ``_CACHE`` holds leaf counts, filled by ``_count``, and K
    follows from the query's count by the rank rule.  The leaves are walked
    once per queried frame, as row vectors, by ``_walk`` and kept in
    ``_LEAVES`` so that a repeated query is one lookup.
    """
    key = (d, m, eps)
    hit = _LEAVES.get(key)
    if hit is None:
        hit = _LEAVES[key] = ((comb(d + m, d) - _count(d, m, eps)) // 2, tuple(_walk(d, m, eps)))
    return hit


def _base_leaves(d: int, m: int, eps: int):
    """Rows and rho bits of the leaves at d = 0, m = 0, d = 1 and m = 1; None elsewhere."""
    if d == 0:
        return (((), 0),)
    if m == 0:
        # Gr_d of a rank-d bundle is the base; Delta_d telescopes to det V.
        return (((0,) * d, eps),)
    if d == 1:
        # P(E) for E of rank m+1: the empty row survives at eps = 0, the full
        # row (twisted by det E) at eps = m+1 mod 2, and the rest is K by rank.
        return ((((0,), 0),) if eps == 0 else ()) + ((((m,), 1),) if eps != m % 2 else ())
    if m == 1:
        # Gr_d of a rank d+1 bundle, dual to P(E): the empty column survives
        # at eps = 0, the full column at eps = d+1 mod 2 with rho 1 - eps.
        return ((((0,) * d, 0),) if eps == 0 else ()) + ((((1,) * d, 1 - eps),) if eps != d % 2 else ())
    return None


def _count(d: int, m: int, eps: int) -> int:
    """Number of GW leaves of one node, memoized in ``_CACHE``."""
    key = (d, m, eps)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    base = _base_leaves(d, m, eps)
    if base is not None:
        n = len(base)
    else:
        shifted, unshifted, _ = split_node(d, m, eps)
        n = _count(*shifted) + _count(*unshifted)
    _CACHE[key] = n
    return n


def _walk(d: int, m: int, eps: int) -> list[Leaf]:
    """The GW leaves of a counted node, walked top down with an explicit stack.

    A pending node ``(d, m, eps, cols, tail)`` stands for the query rows
    ``tuple(x + cols for x in r) + tail``, where r runs over the node's own
    leaf rows: the shifted child adds its step to ``cols``, the unshifted
    one puts ``step`` rows of length ``cols`` in front of ``tail``, and
    leaves keep the rho bit of their base case.  Children without leaves
    are skipped, so every pending node ends in an output leaf.
    """
    leaves = []
    stack = [(d, m, eps, 0, ())]
    while stack:
        d, m, eps, cols, tail = stack.pop()
        base = _base_leaves(d, m, eps)
        if base is not None:
            leaves.extend((tuple([x + cols for x in rows]) + tail, rho) for rows, rho in base)
        else:
            shifted, unshifted, step = split_node(d, m, eps)
            if _CACHE[shifted]:
                stack.append((*shifted, cols + step, tail))
            if _CACHE[unshifted]:
                stack.append((*unshifted, cols, (cols,) * step + tail))
    return leaves


def split_node(d: int, m: int, eps: int):
    """The children (shifted, unshifted, step) of an inner node, each (cd, cm, ceps) with ceps = cd mod 2.

    The shifted child's leaves gain ``step`` full columns, and the
    unshifted child's leaves gain ``step`` empty rows at the bottom.
    """
    step = 1 if eps == (d - 1) % 2 else 2  # first family, else second
    return (d, m - step, d % 2), (d - step, m, (d - step) % 2), step


def _records(leaves, shift: int, twists: tuple[PicClass, PicClass], t: int) -> list:
    """Formal-sum records of the leaves: the query shift less the box count, the twist key picked by rho."""
    keys = (twists[0].sort_key, twists[1].sort_key)
    return [(shift - sum(rows), keys[rho], rows, t, rho) for rows, rho in leaves]


def decompose_point(shift: int, t: PicClass) -> FormalSum:
    """A degenerate Grassmannian: the base itself, one GW summand."""
    s = decompose_grassmannian(GrassmannQuery(0, 0, shift, t))
    return FormalSum.of_records(s.k, s.records, s.frame, s.twists, kind="point", shift=shift)


def decompose_grassmannian(q: GrassmannQuery) -> FormalSum:
    """Decompose one Grassmannian at one twist into base K and GW summands."""
    k, records, twists = _query_records(q)
    return FormalSum.of_records(
        k,
        records,
        Frame(q.d, q.m),
        twists,
        kind="grassmannian",
        d=q.d,
        m=q.m,
        shift=q.shift,
        twist="+".join(q.twist.serialize()),
        bundle=q.bundle,
    )


def _query_records(q: GrassmannQuery) -> tuple[int, list, tuple[PicClass, PicClass]]:
    """K count, unsorted records and twists by rho of one checked query; the caller sorts the records once."""
    r0 = q.d + q.m
    eps = lambda_parity(q.twist, Delta(q.d))
    base0 = q.twist.base_part()
    for g in base0.generators:
        if isinstance(g, FlagQuotient) and not 1 <= g.index <= r0:
            raise ValueError(f"twist generator {g.key()} outside the rank-{r0} flag")
    if q.twist.delta_part() not in (PicClass(), PicClass.of(Delta(q.d))):
        raise ValueError(f"twist {q.twist} is not expressed over the query's Delta_{q.d}")
    if q.d == 0 and eps:
        raise ValueError("Gr_0 has a trivial tautological determinant: the twist cannot carry Delta:0")

    k, leaves = _solve(q.d, q.m, eps)
    twists = (base0, base0 + PicClass.of(DET_V) if q.bundle == FLAGGED else base0)
    return k, _records(leaves, q.shift, twists, eps), twists


def decompose_total(d: int, m: int, shift: int, base: PicClass, bundle: str = TRIVIAL) -> FormalSum:
    """Both twist classes of one Grassmannian, summed and sorted once."""
    if d < 1 or m < 1:
        raise ValueError(f"total decomposition needs d, m >= 1, got {d}, {m}")
    k_even, even, twists = _query_records(GrassmannQuery(d, m, shift, base, bundle))
    k_odd, odd, _ = _query_records(GrassmannQuery(d, m, shift, base + PicClass.of(Delta(d)), bundle))
    return FormalSum.of_records(
        k_even + k_odd,
        even + odd,
        Frame(d, m),
        twists,
        kind="grassmannian-total",
        d=d,
        m=m,
        shift=shift,
        twist="+".join(base.serialize()),
        bundle=bundle,
    )


def flag_closed_form(d: int, m: int, l: int, shift: int, base: PicClass = PicClass()) -> FormalSum:
    """One twist class of the flagged Grassmannian, with determinant exponents."""
    t = base + (PicClass.of(Delta(d)) if l % 2 else PicClass())
    return decompose_grassmannian(GrassmannQuery(d, m, shift, t, FLAGGED))


def decompose_projective_bundle(q: ProjBundleQuery) -> FormalSum | LongExactSequence:
    """Decompose P(E) = Gr_1(E) for a rank r+1 bundle E over the base.

    The full-row leaf (rho set) is twisted by det E.  With r odd and the
    twist even, the two leaves are a splitting of the long exact sequence,
    which is returned instead when ``split`` is off.
    """
    if q.r % 2 and not q.parity and not q.split:
        return les_theorem_d(q.r, q.shift)
    k, leaves = _solve(1, q.r, q.parity)
    twists = (PicClass(), PicClass.of(DET_E))
    records = _records(leaves, q.shift, twists, q.parity)
    return FormalSum.of_records(k, records, Frame(1, q.r), twists, kind="projective-bundle", r=q.r, parity=q.parity, shift=q.shift)


def les_theorem_d(r: int, shift: int) -> LongExactSequence:
    """The non-split localization sequence for P(E) with r odd, even twist.

    Purely structural: three terms cycling with degree, with the paper's
    map labels attached and no map ever evaluated.
    """
    if r < 1:
        raise ValueError(f"need bundle rank >= 2, got r+1 = {r + 1}")
    if r % 2 == 0:
        raise ValueError(f"the sequence exists for odd r only, got r={r}")
    meta = dict(kind="les-term", site="S", r=r, shift=shift)
    first = FormalSum.with_meta((r - 1) // 2, (GWSummand(shift=shift, twist=PicClass(), t_index=0),), **meta)
    last = FormalSum.with_meta(0, (GWSummand(shift=shift - r, twist=PicClass.of(DET_E), t_index=0),), **meta)
    return LongExactSequence(
        terms=(first, f"GW^[{shift}](P(E))", last),
        maps=("(Theta_even, q^*)", "q_*", "(0, eta cup c(E))"),
    )


def clear_cache():
    _CACHE.clear()
    _LEAVES.clear()
