"""Cross-check suite: every identity and fixture the calculator rests on.

Each check is independent and pure; ``run_all`` assembles a deterministic
report.  The figure fixtures are literal row vectors transcribed from the
published pictures of the even diagrams for the 2x2, 3x3 and 4x4 frames
and are the only external ground truth for the evenness rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from math import comb

from . import twist as tw
from . import young
from .engine import (
    FLAGGED,
    GrassmannQuery,
    ProjBundleQuery,
    clear_cache,
    decompose_grassmannian,
    decompose_projective_bundle,
    decompose_total,
    les_theorem_d,
    split_node,
)
from .expr import (
    FORMAL_SUM_SCHEMA,
    SchemaMismatchError,
    direct_sum,
    formal_sum_json_text,
    formal_sum_to_json,
    validate_json,
    witt_specialize,
)
from .twist import BaseSymbol, Delta, PicClass, lambda_parity, quotient_range
from .young import Frame

# Even-diagram fixtures, one row vector per published figure.
EVEN_FIXTURES = {
    (2, 2): {(2, 2), (2, 0), (1, 1), (0, 0)},
    (3, 3): {(3, 3, 3), (2, 2, 0), (3, 1, 1), (0, 0, 0)},
    (4, 4): {
        (4, 4, 4, 4),
        (4, 4, 2, 2),
        (2, 2, 2, 2),
        (4, 4, 0, 0),
        (2, 2, 0, 0),
        (0, 0, 0, 0),
        (3, 3, 3, 3),
        (3, 3, 1, 1),
        (1, 1, 1, 1),
        (4, 4, 4, 0),
        (4, 2, 2, 0),
        (4, 0, 0, 0),
    },
}

ORACLE_FRAME_LIMIT = 12

L = PicClass.of(BaseSymbol("L"))


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[dict, ...]

    def passed(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c["status"]] += 1
        return out

    def to_json(self) -> dict:
        return {"checks": list(self.checks), "summary": self.summary(), "ok": self.passed()}

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{c['status']:>7}] {c['id']} {c.get('detail', '')}".rstrip())
        s = self.summary()
        lines.append(f"total: {s['pass']} pass, {s['fail']} fail, {s['skipped']} skipped")
        return "\n".join(lines)


def brute_force_interface(rows: tuple[int, ...], m: int) -> tuple[tuple[str, int], ...]:
    """Independent interface oracle: a grid scan over the filled boxes of a row vector in a frame of width m.

    Returns the (orientation, length) of each maximal straight segment,
    from the top-right of the frame to the bottom-left.  Tests each filled
    box's right neighbour and the box below it against the row lengths,
    collects the edges between a filled and an unfilled in-frame box, and
    orders them along the staircase (both unit steps increase y - x by
    one).  A segment grows while the next edge keeps its orientation and
    is at the next position.  Calls no evenness rule.
    """
    d = len(rows)
    if d > ORACLE_FRAME_LIMIT or m > ORACLE_FRAME_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_FRAME_LIMIT}x{ORACLE_FRAME_LIMIT} frames")
    edges = []  # (path position, orientation)
    for i in range(1, d + 1):
        r = rows[i - 1]
        below = rows[i] if i < d else m  # below the frame counts as filled: its border is no edge
        for j in range(1, r + 1):
            if j < m and j + 1 > r:
                edges.append((i - 1 - j, "vertical"))
            if j > below:
                edges.append((i - j + 1, "horizontal"))
    orients, lengths, next_pos = [], [], None
    for pos, orient in sorted(edges):
        if pos == next_pos and orient == orients[-1]:
            lengths[-1] += 1
        else:
            orients.append(orient)
            lengths.append(1)
        next_pos = pos + 1
    return tuple(zip(orients, lengths))


def _check(checks, check_id, ok: bool, detail: str = "", params=None):
    checks.append(
        {
            "id": check_id,
            "params": params or {},
            "status": "pass" if ok else "fail",
            "detail": detail,
        }
    )


def _frames(d_max, m_max, step=1):
    """The (d, m) grid of a sweep: d and m from 1 to their bounds, every ``step``-th value."""
    return ((d, m) for d in range(1, d_max + 1, step) for m in range(1, m_max + 1, step))


def _report(checks, check_id, bad, params, cap=None):
    """A pass when nothing failed, else a failure listing the first ``cap`` cases (all when None)."""
    _check(checks, check_id, not bad, f"failures: {bad[:cap]}" if bad else "", params)


def even_diagrams(d_max, m_max):
    """The even diagrams of every frame up to the bounds and of every fixture frame.

    Maps (d, m) to ``young.enumerate_even(Frame(d, m))``.  ``run_all``
    builds it once, so each frame is enumerated once however many checks
    read it.
    """
    frames = set(_frames(d_max, m_max)) | set(EVEN_FIXTURES)
    return {(d, m): young.enumerate_even(Frame(d, m)) for d, m in sorted(frames)}


def check_fixtures(checks, evens):
    for (d, m), expected in sorted(EVEN_FIXTURES.items()):
        got = {lam.rows for lam in evens[d, m]}
        _check(
            checks,
            f"fixtures_{d}x{m}",
            got == expected,
            f"{len(got)} diagrams",
            {"d": d, "m": m},
        )


def check_cardinality(checks, d_max, m_max, evens):
    bad = [(d, m) for d, m in _frames(d_max, m_max) if len(evens[d, m]) != young.even_cardinality(d, m)]
    _report(checks, "cardinality", bad, {"d_max": d_max, "m_max": m_max})


def check_pascal(checks, d_max=30, m_max=30):
    _report(checks, "pascal", young.verify_pascal(d_max, m_max), {"d_max": d_max, "m_max": m_max}, cap=5)


def check_beta_parity_sum(checks, d_max=30, m_max=30):
    bad = [
        (d, m)
        for d, m in _frames(d_max, m_max)
        if young.beta_parity(0, d, m) + young.beta_parity(1, d, m) != young.beta(d, m)
    ]
    _report(checks, "beta_parity_sum", bad, {"d_max": d_max, "m_max": m_max})


def flagged_sums(d_max, m_max):
    """Both twist classes (L and L + Delta) of every flagged frame up to the bounds, both ways.

    Maps (d, m) and its transpose (m, d), for every d <= d_max and
    m <= m_max, to the pair (even sum, odd sum).  ``run_all`` builds it
    once and hands it to each check that reads these frames.
    """
    frames = {f for d, m in _frames(d_max, m_max) for f in ((d, m), (m, d))}
    return {
        (d, m): tuple(decompose_grassmannian(GrassmannQuery(d, m, 0, t, FLAGGED)) for t in (L, L + PicClass.of(Delta(d))))
        for d, m in frames
    }


def check_engine_vs_enumeration(checks, d_max, m_max, sums, evens):
    bad = []
    for d, m in _frames(d_max, m_max):
        leaves = [g.diagram for s in sums[d, m] for g in s.gw]
        if sorted(g.rows for g in leaves) != sorted(lam.rows for lam in evens[d, m]):
            bad.append((d, m, "diagrams"))
        if any(not young.is_even(g) for g in leaves):
            bad.append((d, m, "evenness"))
        for s in sums[d, m]:
            if any(g.shift != -g.diagram.boxes() for g in s.gw):
                bad.append((d, m, "shift-law"))
    _report(checks, "engine_vs_enumeration", bad, {"d_max": d_max, "m_max": m_max})


def check_k_counts(checks, d_max, m_max, sums):
    bad_beta, bad_rank = [], []
    for d, m in _frames(d_max, m_max):
        for l, s in enumerate(sums[d, m]):
            if s.k != young.beta_parity(l, d, m):
                bad_beta.append((d, m, l))
            if 2 * s.k + len(s.gw) != comb(d + m, d):
                bad_rank.append((d, m, l))
        if sum(s.k for s in sums[d, m]) != young.beta(d, m):
            bad_beta.append((d, m, "total"))
    _report(checks, "k_counts", bad_beta, {"d_max": d_max, "m_max": m_max})
    _report(checks, "rank_accounting", bad_rank, {"d_max": d_max, "m_max": m_max})


def check_odd_odd(checks, d_max, m_max, sums):
    bad = []
    for d, m in _frames(d_max, m_max, 2):
        s = sums[d, m][1]
        if s.gw or s.k != comb(d + m, d) // 2:
            bad.append((d, m))
    _report(checks, "odd_odd_concentration", bad, {"d_max": d_max, "m_max": m_max})


def check_transpose(checks, d_max, m_max, sums):
    """Gr_d(V) is Gr_m(V^dual), where Delta_d corresponds to Delta_m + det V.

    Per twist class l of the flagged bundle, Gr(d, m) and Gr(m, d) have the
    same K count, and transposing the diagrams of Gr(m, d) and flipping
    their rho when l is set gives the (shift, rows, rho) of Gr(d, m).  The
    engine splits the two frames by the same rules along different paths,
    so neither side is computed from the other.
    """
    bad = []
    for d, m in _frames(d_max, m_max):
        for l, (a, b) in enumerate(zip(sums[d, m], sums[m, d])):
            profile_a = sorted((g.shift, g.diagram.rows, g.rho) for g in a.gw)
            profile_b = sorted((g.shift, g.diagram.transpose().rows, g.rho ^ l) for g in b.gw)
            if a.k != b.k or profile_a != profile_b:
                bad.append((d, m))
                break
    _report(checks, "transpose_equivariance", bad, {"d_max": d_max, "m_max": m_max})


def check_witt_counts(checks, d_max, m_max, sums):
    bad = []
    for d, m in _frames(d_max, m_max):
        for l, s in enumerate(sums[d, m]):
            w = witt_specialize(s)
            # the per-class count is pinned by the rank accounting identity
            expected_count = comb(d + m, d) - 2 * young.beta_parity(l, d, m)
            expected_shifts = sorted((-g.diagram.boxes()) % 4 for g in s.gw)
            if w.k != 0 or len(w.records) != expected_count or sorted(r[0] for r in w.records) != expected_shifts:
                bad.append((d, m, l))
    _report(checks, "witt_counts", bad, {"d_max": d_max, "m_max": m_max})


def check_determinism(checks, d_max, m_max):
    d, m = min(d_max, 3), min(m_max, 3)

    def run():
        clear_cache()
        return json.dumps(formal_sum_to_json(decompose_total(d, m, 0, L)), sort_keys=True)

    _check(checks, "determinism", run() == run(), "", {"d": d, "m": m})


def check_output_schema(checks):
    """One small document of each kind the serializer builds conforms to FORMAL_SUM_SCHEMA.

    ``formal_sum_to_json`` does not validate what it builds, so this is
    where its output meets the schema: a flagged Gr(2, 2) over both twists
    (it has rho = 1 summands) and a base symbol whose name JSON escapes,
    its Witt specialization, a projective bundle, the formal-sum terms of a
    long exact sequence, and a merged direct sum (list-valued meta).  Each
    sum must also print through ``formal_sum_json_text`` exactly as
    ``json.dumps(doc, sort_keys=True, indent=2)`` prints its document.
    """
    gr = decompose_total(2, 2, 0, L + PicClass.of(BaseSymbol('"\\\u00e9\x01')), FLAGGED)
    pb = decompose_projective_bundle(ProjBundleQuery(2, 1, 0))
    sums = [gr, witt_specialize(gr), pb, direct_sum(gr, pb, merge=True)]
    sums += [t for t in les_theorem_d(3, 0).terms if not isinstance(t, str)]
    bad = []
    for i, s in enumerate(sums):
        doc = formal_sum_to_json(s)
        try:
            validate_json(doc, FORMAL_SUM_SCHEMA)
        except SchemaMismatchError as exc:
            bad.append((i, str(exc)))
        else:
            if formal_sum_json_text(s) != json.dumps(doc, sort_keys=True, indent=2):
                bad.append((i, "formal_sum_json_text differs from json.dumps"))
    _check(checks, "output_schema", not bad, f"failures: {bad}" if bad else f"{len(sums)} documents")


def check_interface_oracle(checks, limit=6):
    """The evenness rule against the grid scan on every row vector of every frame up to ``limit``; builds no diagram."""
    bad = []
    for d in range(0, limit + 1):
        for m in range(0, limit + 1):
            for rows in young._row_vectors(Frame(d, m)):
                if young._even_rows(rows, m) != all(length % 2 == 0 for _, length in brute_force_interface(rows, m)):
                    bad.append((d, m, rows))
    _report(checks, "interface_oracle", bad, {"limit": limit}, cap=5)


def _rho_by_rows(d, m, eps):
    """The rho bit of each leaf of a flagged frame, keyed by the leaf's row vector."""
    t = PicClass.of(Delta(d)) if eps else PicClass()
    s = decompose_grassmannian(GrassmannQuery(d, m, 0, t, FLAGGED))
    return {g.diagram.rows: g.rho for g in s.gw}


def check_twist_table(checks, d_max, m_max):
    """The paper's line bundle table as an oracle for the engine's one-bit twist.

    At every inner node (d, m >= 2) and twist parity eps, the table's
    defining rows must put the twist in one family, whose child twists must
    sit on the engine's child nodes, have the Delta-parity each is solved
    at, and telescope with each child leaf's det V to the det V bit of the
    parent leaf it grows into: the shifted child's rows plus step full
    columns, or the unshifted child's rows above step empty rows.  Each
    frame's leaves are read once.
    """
    params = {"d_max": d_max, "m_max": m_max}
    if d_max < 2 or m_max < 2:
        detail = "no inner node (d, m >= 2) within the bounds"
        checks.append({"id": "twist_table", "params": params, "status": "skipped", "detail": detail})
        return
    bad = []
    rho_by_rows = cache(_rho_by_rows)
    for d in range(2, d_max + 1):
        for m in range(2, m_max + 1):
            for eps in (0, 1):
                families = tw.child_twists(d, PicClass.of(Delta(d)) if eps else PicClass(), d + m)
                if len(families) != 1:
                    bad.append((d, m, eps, "family"))
                    continue
                (sites,) = families.values()
                table = {(cd, d + m - i - cd): ct for (cd, i), ct in sites.items()}
                shifted, unshifted, step = split_node(d, m, eps)
                if set(table) != {shifted[:2], unshifted[:2]}:
                    bad.append((d, m, eps, "sites"))
                    continue
                parent = rho_by_rows(d, m, eps)
                det_v = quotient_range(1, d + m)
                for (cd, cm, ceps), cols, tail in ((shifted, step, ()), (unshifted, 0, (0,) * step)):
                    ct = table[cd, cm]
                    if lambda_parity(ct, Delta(cd)) != ceps:
                        bad.append((d, m, eps, "parity"))
                        continue
                    for rows, rho_c in rho_by_rows(cd, cm, ceps).items():
                        grown = tuple(x + cols for x in rows) + tail
                        got = ct.base_part() + (quotient_range(1, cd + cm) if rho_c else PicClass())
                        if grown not in parent or got != (det_v if parent[grown] else PicClass()):
                            bad.append((d, m, eps, grown))
    _report(checks, "twist_table", bad, params, cap=5)


def run_all(d_max: int, m_max: int) -> VerificationReport:
    """Execute every check up to the given frame bounds."""
    if d_max < 1 or m_max < 1:
        raise ValueError("need d_max, m_max >= 1")
    checks = []
    evens = even_diagrams(d_max, m_max)
    check_fixtures(checks, evens)
    check_cardinality(checks, min(d_max, 8), min(m_max, 8), evens)
    check_pascal(checks)
    check_beta_parity_sum(checks)
    sums = flagged_sums(d_max, m_max)
    check_engine_vs_enumeration(checks, d_max, m_max, sums, evens)
    check_k_counts(checks, d_max, m_max, sums)
    check_odd_odd(checks, d_max, m_max, sums)
    check_transpose(checks, d_max, m_max, sums)
    check_witt_counts(checks, d_max, m_max, sums)
    check_determinism(checks, d_max, m_max)
    check_output_schema(checks)
    check_interface_oracle(checks, min(max(d_max, m_max), 6))
    check_twist_table(checks, min(d_max, 6), min(m_max, 6))
    checks.sort(key=lambda c: c["id"])
    return VerificationReport(tuple(checks))
