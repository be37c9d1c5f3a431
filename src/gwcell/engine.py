"""The decomposition engine.

Executes the splitting recursions for Grassmannians over a base with a
complete flag, on every frame, whichever side is longer.  The Gr_1 base
case also serves P(E) = Gr_1(E), the m = 1 base case is its dual Gr_d of
a rank d+1 bundle, Gr_0 serves the point, and m = 0 is the base itself.
Gr_2 at the even twist class is a base case too: its chain of splits,
unrolled, gives its leaves (2k, 2k) at once, so a frame with d <= 2
splits at most its root.  Every GW leaf is a pair
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

A query's leaves are walked once, top down, with an explicit stack and no
count per node: a node has no GW leaf exactly when eps = 1 and d, m are
both odd, and K follows from the leaves walked by the rank rule
2 K + leaves = C(d + m, d).  The walk carries each leaf as its row vector:
a pending node records the full columns its shifted ancestors prepend and
the empty-row tail its unshifted ones append, so a leaf costs its own d
rows.  A frame has few distinct nodes (d, m, eps), visited by many paths,
so each walk splits a node once into a plan, its two children read off
one ``split_node`` call and classified inline, and revisits read the
plan.  Each leaf becomes one formal-sum record; no ``GWSummand`` is
built.
"""

from __future__ import annotations

from math import comb

from .expr import FormalSum, GWSummand, LongExactSequence
from .twist import BaseSymbol, Delta, FlagQuotient, PicClass
from .value import Value, exact_ints
from .young import Frame

TRIVIAL = "trivial"
FLAGGED = "flagged"

DET_E = PicClass.of(BaseSymbol("detE"))
DET_V = PicClass.of(BaseSymbol("detV"))  # what rho 1 adds to a flagged bundle's base twist
PE_TWISTS = (PicClass(), DET_E)  # P(E)'s twists by rho: O and det E


class GrassmannQuery(Value):
    """Gr_d of a rank d+m bundle at a twist checked to live on it; ``eps`` is its Delta_d parity, ``twists`` its twist by rho.

    One pass over the twist's generators checks it; a flag quotient outside the flag is
    named by its lowest index.  The base twist is ``twist.base_part()``.  d, m and the
    shift are read as exact ints (``value.exact_ints``): a float is a ``ValueError``.
    """

    __slots__ = ("d", "m", "shift", "twist", "bundle", "eps", "twists")

    def __init__(self, d: int, m: int, shift: int, twist: PicClass, bundle: str = TRIVIAL):
        d, m, shift = exact_ints("d, m and shift", d, m, shift)
        if d < 0 or m < 0:
            raise ValueError(f"need d, m >= 0, got d={d}, m={m}")
        if bundle not in (TRIVIAL, FLAGGED):
            raise ValueError(f"unknown bundle kind {bundle!r}")
        delta_ranks, outside = set(), []
        for g in twist.generators:
            if isinstance(g, Delta):
                delta_ranks.add(g.rank)
            elif isinstance(g, FlagQuotient) and not 1 <= g.index <= d + m:
                outside.append(g.index)
        if outside:  # named by index, not by set order, which varies with the string hash seed
            raise ValueError(f"twist generator q{min(outside)} outside the rank-{d + m} flag")
        if not delta_ranks <= {d}:
            raise ValueError(f"twist {twist} is not expressed over the query's Delta_{d}")
        eps = len(delta_ranks)
        if d == 0 and eps:
            raise ValueError("Gr_0 has a trivial tautological determinant: the twist cannot carry Delta:0")
        base = twist.base_part() if eps else twist
        self.d = d
        self.m = m
        self.shift = shift
        self.twist = twist
        self.bundle = bundle
        self.eps = eps
        self.twists = (base, base + DET_V if bundle == FLAGGED else base)

    def _values(self) -> tuple:
        return (self.d, self.m, self.shift, self.twist, self.bundle)


class ProjBundleQuery(Value):
    """P(E) for a rank r+1 bundle E; the twist enters only through its parity.  r, parity and shift are exact ints."""

    __slots__ = ("r", "parity", "shift", "split")

    def __init__(self, r: int, parity: int, shift: int, split: bool = True):
        r, parity, shift = exact_ints("r, parity and shift", r, parity, shift)
        _require_bundle_rank(r)
        if parity not in (0, 1):
            raise ValueError("twist parity must be 0 or 1")
        self.r = r
        self.parity = parity
        self.shift = shift
        self.split = split

    def _values(self) -> tuple:
        return (self.r, self.parity, self.shift, self.split)


def _require_bundle_rank(r: int):
    """P(E) needs a bundle E of rank r + 1 >= 2."""
    if r < 1:
        raise ValueError(f"need bundle rank >= 2, got r+1 = {r + 1}")


Leaf = tuple[tuple[int, ...], int]  # (rows, rho): the shift drops by the box count, rho picks the twist

_LEAVES: dict[tuple[int, int, int], tuple[int, tuple[Leaf, ...]]] = {}  # walked leaves of queried frames


def _solve(d: int, m: int, eps: int) -> tuple[int, tuple[Leaf, ...]]:
    """K count and GW leaves (rows, rho) of Gr_d (ambient rank d+m) at twist eps * Delta_d.

    A leaf's flag quotient classes always telescope to 0 or det V, so they
    travel as one bit ``rho``: d = 0 gives 0, m = 0 gives eps, Gr_1 gives 0
    to its empty leaf and 1 to its full one, m = 1 gives 0 to its empty
    leaf and 1 - eps to its full one, and an inner node passes each child's
    bit through unchanged.  ``verify.check_twist_table`` checks these rules
    against the paper's line bundle table.  An arbitrary base twist rides
    along additively, so this is the only shape that needs solving.
    ``GrassmannQuery`` rejects d = 0 with eps set, so d = 0 means eps = 0.

    The leaves are walked once per queried frame, as row vectors, by
    ``_walk`` and kept in ``_LEAVES`` so that a repeated query is one
    lookup; K follows from the number walked by the rank rule.
    """
    key = (d, m, eps)
    hit = _LEAVES.get(key)
    if hit is None:
        leaves = tuple(_walk(d, m, eps))
        hit = _LEAVES[key] = ((comb(d + m, d) - len(leaves)) // 2, leaves)
    return hit


def _base_leaves(d: int, m: int, eps: int):
    """The leaves of a base node, each a constant row vector (row count, row length, rho).

    A base node has d < 2 or m < 2, or is Gr_2 at the even class (d = 2,
    eps = 0); ``_walk`` calls this on no other.  That last case is
    ``split_node`` unrolled: (2, m, 0) is a second-family node with step 2
    whose shifted child is (2, m - 2, 0) and whose unshifted child is Gr_0,
    with its one leaf () of rho 0.  So the k-th node down the chain gives
    the leaf (2k, 2k), and the chain ends at m < 2 with the leaf of
    k = m // 2, as Gr_2 at m = 0 or 1 keeps only its empty diagram at
    eps = 0.  Derived, not fitted, it agrees with the box-partition model
    of the leaves (ROADMAP.md), whose d-even row gives D(mu) for mu in an
    a x b box with rho 0, at a = 1.
    """
    if d == 0:
        return ((0, 0, 0),)
    if m == 0:
        # Gr_d of a rank-d bundle is the base; Delta_d telescopes to det V.
        return ((d, 0, eps),)
    if d == 1:
        # P(E) for E of rank m+1: the empty row survives at eps = 0, the full
        # row (twisted by det E) at eps = m+1 mod 2, and the rest is K by rank.
        return (((1, 0, 0),) if eps == 0 else ()) + (((1, m, 1),) if eps != m % 2 else ())
    if d == 2 and eps == 0:
        # Gr_2 at the even class, unrolled as in the docstring.
        return tuple((2, 2 * k, 0) for k in range(m // 2 + 1))
    # m = 1: Gr_d of a rank d+1 bundle, dual to P(E): the empty column
    # survives at eps = 0, the full column at eps = d+1 mod 2 with rho 1 - eps.
    return (((d, 0, 0),) if eps == 0 else ()) + (((d, 1, 1 - eps),) if eps != d % 2 else ())


def _plan(node: tuple[int, int, int]):
    """An inner node's (shifted, unshifted, step) from one ``split_node`` call, each child classified inline.

    A child with eps, d and m all odd has no leaves (that twist class of its
    frame is all K) and is None; a base child (d < 3 or m < 2, as a child
    with d = 2 has eps 0) is its ``_base_leaves``; any other child is the
    node itself.
    """
    d, m, eps = node
    shifted, unshifted, step = split_node(d, m, eps)
    sd, sm, seps = shifted
    ud, um, ueps = unshifted
    return (
        None if seps and sd % 2 and sm % 2 else shifted if sd > 2 and sm > 1 else _base_leaves(sd, sm, seps),
        None if ueps and ud % 2 and um % 2 else unshifted if ud > 2 and um > 1 else _base_leaves(ud, um, ueps),
        step,
    )


def _walk(d: int, m: int, eps: int) -> list[Leaf]:
    """The GW leaves of a node, walked top down with an explicit stack of inner nodes.

    A pending node ``(node, cols, tail)`` stands for the query rows
    ``tuple(x + cols for x in r) + tail``, where r runs over the node's own
    leaf rows: the shifted child adds its step to ``cols``, the unshifted
    one puts ``step`` rows of length ``cols`` in front of ``tail``, and
    leaves keep the rho bit of their base case.  The walk descends into an
    inner shifted child in place and pushes an inner unshifted one, or goes
    on with it in place when the shifted branch ends; a base child's
    ``count`` rows of one length become ``(length + cols,) * count + tail``
    on the spot.

    Each node is split into its plan once per walk.  A node on the query's
    own row (its d is the query's d) lies on the root's chain of shifted
    children, the only path to it, since an unshifted step lowers d and no
    step raises it: it is planned at its one visit without a lookup.  Any
    other node is looked up at every visit, and its plan is stored only
    when it is reached as an unshifted child, where a square frame's many
    paths to its few nodes meet.  So a thin frame (d <= 3, m long), whose
    nodes lie mostly on its chain, stores next to nothing.  As Gr_2 at the
    even class is a base node, a 2 x m frame plans at most its root and a
    3 x m frame only its chain, each unshifted child of which is a base.
    """
    if d < 2 or m < 2 or d == 2 and eps == 0:
        return [((length,) * count, rho) for count, length, rho in _base_leaves(d, m, eps)]
    leaves, plans, stack = [], {}, []
    append = leaves.append
    plan, cols, tail = _plan((d, m, eps)), 0, ()
    while True:
        shifted, unshifted, step = plan
        if unshifted is not None:
            below = (cols,) * step + tail
            if unshifted[0].__class__ is not int:  # a node starts with its d, a leaf tuple with a leaf
                for count, length, rho in unshifted:
                    append(((length + cols,) * count + below, rho))
                unshifted = None
        if shifted is not None:
            if shifted[0].__class__ is int:
                if unshifted is not None:
                    stack.append((unshifted, cols, below))
                cols += step
                plan = _plan(shifted) if shifted[0] == d else plans.get(shifted) or _plan(shifted)
                continue
            for count, length, rho in shifted:
                append(((length + cols + step,) * count + tail, rho))
        if unshifted is not None:
            node, tail = unshifted, below
        elif stack:
            node, cols, tail = stack.pop()
        else:
            return leaves
        plan = plans.get(node)
        if plan is None:
            plan = plans[node] = _plan(node)


def split_node(d: int, m: int, eps: int):
    """The children (shifted, unshifted, step) of an inner node, each (cd, cm, ceps) with ceps = cd mod 2.

    The shifted child's leaves gain ``step`` full columns, and the
    unshifted child's leaves gain ``step`` empty rows at the bottom.  As
    ceps is never (cd - 1) mod 2, an inner child always splits with step
    2: only a query's root can take step 1.
    """
    step = 1 if eps == (d - 1) % 2 else 2  # first family, else second
    return (d, m - step, d % 2), (d - step, m, (d - step) % 2), step


def _engine_sum(d: int, m: int, shift: int, classes, twists: tuple[PicClass, PicClass], meta: dict) -> FormalSum:
    """The formal sum of Gr_d (ambient rank d+m) over the twist classes ``classes``, sorted once.

    Each leaf becomes one record: the shift less its box count, the twist
    key picked by rho, its rows, the class solved and rho.  ``meta`` is a
    dict because its keys include ``d``, ``m`` and ``shift``.
    """
    keys = (twists[0].sort_key, twists[1].sort_key)
    k, records = 0, []
    for eps in classes:
        k_eps, leaves = _solve(d, m, eps)
        k += k_eps
        records += [(shift - sum(rows), keys[rho], rows, eps, rho) for rows, rho in leaves]
    return FormalSum.of_records(k, records, Frame(d, m), twists, **meta)


def decompose_point(shift: int, t: PicClass) -> FormalSum:
    """A degenerate Grassmannian: the base itself, one GW summand."""
    q = GrassmannQuery(0, 0, shift, t)
    return _engine_sum(0, 0, q.shift, (q.eps,), q.twists, {"kind": "point", "shift": q.shift})


def decompose_grassmannian(q: GrassmannQuery) -> FormalSum:
    """Decompose one Grassmannian at one twist into base K and GW summands."""
    twist = "+".join(q.twist.serialize())
    meta = {"kind": "grassmannian", "d": q.d, "m": q.m, "shift": q.shift, "twist": twist, "bundle": q.bundle}
    return _engine_sum(q.d, q.m, q.shift, (q.eps,), q.twists, meta)


def decompose_total(d: int, m: int, shift: int, base: PicClass, bundle: str = TRIVIAL) -> FormalSum:
    """Both twist classes of one Grassmannian, summed and sorted once."""
    if d < 1 or m < 1:
        raise ValueError(f"total decomposition needs d, m >= 1, got {d}, {m}")
    q = GrassmannQuery(d, m, shift, base, bundle)
    twist = "+".join(base.serialize())
    meta = {"kind": "grassmannian-total", "d": q.d, "m": q.m, "shift": q.shift, "twist": twist, "bundle": bundle}
    return _engine_sum(q.d, q.m, q.shift, (0, 1), q.twists, meta)


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
    meta = {"kind": "projective-bundle", "r": q.r, "parity": q.parity, "shift": q.shift}
    return _engine_sum(1, q.r, q.shift, (q.parity,), PE_TWISTS, meta)


def les_theorem_d(r: int, shift: int) -> LongExactSequence:
    """The non-split localization sequence for P(E) with r odd, even twist.

    Purely structural: three terms cycling with degree, with the paper's
    map labels attached and no map ever evaluated.
    """
    r, shift = exact_ints("r and shift", r, shift)
    _require_bundle_rank(r)
    if r % 2 == 0:
        raise ValueError(f"the sequence exists for odd r only, got r={r}")
    meta = dict(kind="les-term", site="S", r=r, shift=shift)
    first = FormalSum.with_meta((r - 1) // 2, (GWSummand(shift=shift, twist=PE_TWISTS[0], t_index=0),), **meta)
    last = FormalSum.with_meta(0, (GWSummand(shift=shift - r, twist=PE_TWISTS[1], t_index=0),), **meta)
    return LongExactSequence(
        terms=(first, f"GW^[{shift}](P(E))", last),
        maps=("(Theta_even, q^*)", "q_*", "(0, eta cup c(E))"),
    )


def clear_cache():
    _LEAVES.clear()
