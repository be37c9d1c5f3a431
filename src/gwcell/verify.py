"""Cross-check suite: every identity and fixture the calculator rests on.

Each check is pure.  ``run_all`` builds the data several checks read once,
the even diagrams as row vectors (``even_diagrams``), the beta parities
(``young.beta_parity_table``) and the flagged sums (``flagged_sums``), and
assembles a deterministic report.  The figure fixtures are literal row
vectors transcribed from the published pictures of the even diagrams for
the 2x2, 3x3 and 4x4 frames and are the only external ground truth for
both the evenness rule and the generator of even diagrams.
"""

from __future__ import annotations

import json
from collections import Counter
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
    decompose_point,
    decompose_projective_bundle,
    decompose_total,
    flag_closed_form,
    les_theorem_d,
    split_node,
)
from .expr import (
    FORMAL_SUM_SCHEMA,
    AbelianGroup,
    BaseTheoryTable,
    FormalSum,
    LongExactSequence,
    MissingKeyError,
    SchemaMismatchError,
    direct_sum,
    evaluate,
    formal_sum_json_text,
    formal_sum_to_json,
    record_order,
    validate_json,
    witt_specialize,
)
from .twist import BaseSymbol, Delta, FlagQuotient, PicClass
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

BETA_BOUND = 30  # pascal and beta_parity_sum check every frame up to BETA_BOUND x BETA_BOUND

L = PicClass.of(BaseSymbol("L"))


class VerificationReport:
    """The checks ``run_all`` made, sorted by id, with their summary and their JSON and text forms."""

    def __init__(self, checks: tuple[dict, ...]):
        self.checks = checks

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


def _row_edges(i: int, r: int, above: int, m: int) -> list[tuple[int, str]]:
    """The (path position, orientation) edges that row i, of length r, adds below a row of length ``above``, width m.

    A horizontal edge under each column j in (r, above], at position i - j,
    then the row's own vertical edge at i - 1 - r when 0 < r < m: in
    staircase order, each edge credited to its unfilled box.  Row 1 passes
    ``above=r``.
    """
    edges = [(i - j, "horizontal") for j in range(above, r, -1)]
    if 0 < r < m:
        edges.append((i - 1 - r, "vertical"))
    return edges


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
    """The row vectors of the even diagrams of every frame up to the bounds and of every fixture frame.

    Maps (d, m) to the list of ``young._even_row_vectors(d, m)``, in its
    order.  ``run_all`` builds it once, so each frame is enumerated once
    however many checks read it, and no ``YoungDiagram`` is built.
    """
    frames = set(_frames(d_max, m_max)) | set(EVEN_FIXTURES)
    return {(d, m): list(young._even_row_vectors(d, m)) for d, m in sorted(frames)}


def check_fixtures(checks, evens):
    """Each figure's even set against the enumerated row vectors and against the rows the evenness rule accepts."""
    for (d, m), expected in sorted(EVEN_FIXTURES.items()):
        got = set(evens[d, m])
        ruled = {rows for rows in young._row_vectors(Frame(d, m)) if young._even_rows(rows, m)}
        _check(
            checks,
            f"fixtures_{d}x{m}",
            got == expected == ruled,
            f"{len(got)} diagrams",
            {"d": d, "m": m},
        )


def check_cardinality(checks, d_max, m_max, evens):
    bad = [(d, m) for d, m in _frames(d_max, m_max) if len(evens[d, m]) != young.even_cardinality(d, m)]
    _report(checks, "cardinality", bad, {"d_max": d_max, "m_max": m_max})


def check_pascal(checks, betas):
    _report(checks, "pascal", young.verify_pascal(BETA_BOUND, BETA_BOUND, betas), {"d_max": BETA_BOUND, "m_max": BETA_BOUND}, cap=5)


def check_beta_parity_sum(checks, betas):
    bad = [(d, m) for d, m in _frames(BETA_BOUND, BETA_BOUND) if betas[0][d][m] + betas[1][d][m] != young.beta(d, m)]
    _report(checks, "beta_parity_sum", bad, {"d_max": BETA_BOUND, "m_max": BETA_BOUND})


def flagged_sums(d_max, m_max):
    """Both twist classes (L and L + Delta) of every flagged frame up to the bounds, both ways.

    Maps (d, m) and its transpose (m, d), for every d <= d_max and
    m <= m_max, to the pair (even sum, odd sum).  ``run_all`` builds it
    once and hands it to each check that reads these frames:
    engine_vs_enumeration, k_counts, odd_odd, transpose, witt_counts,
    totals and twist_table.
    """
    frames = {f for d, m in _frames(d_max, m_max) for f in ((d, m), (m, d))}
    return {
        (d, m): tuple(decompose_grassmannian(GrassmannQuery(d, m, 0, t, FLAGGED)) for t in (L, L + PicClass.of(Delta(d))))
        for d, m in frames
    }


def check_engine_vs_enumeration(checks, d_max, m_max, sums, evens):
    """The engine's leaves are the enumerated even diagrams, each even, shifted by minus its box count and keyed by its rho.

    Reads records.  The sums are built at base L, so a record's twist key
    is L's at rho 0 and L + det V's at rho 1.  At any bounds, it also reads
    the keys of the trivial-bundle totals of the 1x1, 2x2 and 3x3 frames at
    base L (L at either rho) and of P(E) for r <= 3 at both parities (det E
    at rho 1); a wrong key fails as ``"twist-key"``.
    """
    keys = (L.sort_key, (L + PicClass.of(BaseSymbol("detV"))).sort_key)
    bad = []
    for d, m in _frames(d_max, m_max):
        leaves = [rows for s in sums[d, m] for _, _, rows, _, _ in s.records]
        if sorted(leaves) != sorted(evens[d, m]):
            bad.append((d, m, "diagrams"))
        if not all(young._even_rows(rows, m) for rows in leaves):
            bad.append((d, m, "evenness"))
        for s in sums[d, m]:
            if any(shift != -sum(rows) for shift, _, rows, _, _ in s.records):
                bad.append((d, m, "shift-law"))
            if any(key != keys[rho] for _, key, _, _, rho in s.records):
                bad.append((d, m, "twist-key"))
    for d, m in ((1, 1), (2, 2), (3, 3)):
        if any(key != keys[0] for _, key, _, _, _ in decompose_total(d, m, 0, L).records):
            bad.append((d, m, "trivial", "twist-key"))
    pe_keys = (PicClass().sort_key, PicClass.of(BaseSymbol("detE")).sort_key)
    for r in (1, 2, 3):
        for parity in (0, 1):
            s = decompose_projective_bundle(ProjBundleQuery(r, parity, 0))
            if any(key != pe_keys[rho] for _, key, _, _, rho in s.records):
                bad.append(("P(E)", r, parity, "twist-key"))
    _report(checks, "engine_vs_enumeration", bad, {"d_max": d_max, "m_max": m_max})


def check_k_counts(checks, d_max, m_max, sums, betas):
    bad_beta, bad_rank = [], []
    for d, m in _frames(d_max, m_max):
        for l, s in enumerate(sums[d, m]):
            if s.k != betas[l][d][m]:
                bad_beta.append((d, m, l))
            if 2 * s.k + len(s.records) != comb(d + m, d):
                bad_rank.append((d, m, l))
        if sum(s.k for s in sums[d, m]) != young.beta(d, m):
            bad_beta.append((d, m, "total"))
    _report(checks, "k_counts", bad_beta, {"d_max": d_max, "m_max": m_max})
    _report(checks, "rank_accounting", bad_rank, {"d_max": d_max, "m_max": m_max})


def check_odd_odd(checks, d_max, m_max, sums):
    bad = []
    for d, m in _frames(d_max, m_max, 2):
        s = sums[d, m][1]
        if s.records or s.k != comb(d + m, d) // 2:
            bad.append((d, m))
    _report(checks, "odd_odd_concentration", bad, {"d_max": d_max, "m_max": m_max})


def check_transpose(checks, d_max, m_max, sums):
    """Gr_d(V) is Gr_m(V^dual), where Delta_d corresponds to Delta_m + det V.

    Per twist class l of the flagged bundle, Gr(d, m) and Gr(m, d) have the
    same K count, and transposing the diagrams of Gr(m, d) and flipping
    their rho when l is set gives the (shift, rows, rho) of Gr(d, m).  The
    engine splits the two frames by the same rules along different paths,
    so neither side is computed from the other.  Reads records.
    """
    bad = []
    for d, m in _frames(d_max, m_max):
        for l, (a, b) in enumerate(zip(sums[d, m], sums[m, d])):
            profile_a = sorted((shift, rows, rho) for shift, _, rows, _, rho in a.records)
            profile_b = sorted((shift, young.transpose_rows(rows, d), rho ^ l) for shift, _, rows, _, rho in b.records)
            if a.k != b.k or profile_a != profile_b:
                bad.append((d, m))
                break
    _report(checks, "transpose_equivariance", bad, {"d_max": d_max, "m_max": m_max})


def check_witt_counts(checks, d_max, m_max, sums, betas):
    bad = []
    for d, m in _frames(d_max, m_max):
        for l, s in enumerate(sums[d, m]):
            w = witt_specialize(s)
            # the per-class count is pinned by the rank accounting identity
            expected_count = comb(d + m, d) - 2 * betas[l][d][m]
            expected_shifts = sorted(-sum(rows) % 4 for _, _, rows, _, _ in s.records)
            if w.k != 0 or len(w.records) != expected_count or sorted(r[0] for r in w.records) != expected_shifts:
                bad.append((d, m, l))
    _report(checks, "witt_counts", bad, {"d_max": d_max, "m_max": m_max})


def check_totals(checks, d_max, m_max, sums):
    """``decompose_total`` is its two twist classes summed: K the sum of their K, its records their sorted merge.

    The flagged total at base L is read against ``flagged_sums`` on every
    frame up to 6 x 6 within the bounds, and the trivial bundle's total
    against its two classes, decomposed here, at 1x1, 2x2 and 3x3.
    """
    d_max, m_max = min(d_max, 6), min(m_max, 6)
    cases = [((d, m), decompose_total(d, m, 0, L, FLAGGED), sums[d, m]) for d, m in _frames(d_max, m_max)]
    for d in (1, 2, 3):
        classes = tuple(decompose_grassmannian(GrassmannQuery(d, d, 0, t)) for t in (L, L + PicClass.of(Delta(d))))
        cases.append(((d, d, "trivial"), decompose_total(d, d, 0, L), classes))
    bad = [
        case
        for case, total, (a, b) in cases
        if total.k != a.k + b.k or total.records != tuple(sorted(a.records + b.records))
    ]
    _report(checks, "totals", bad, {"d_max": d_max, "m_max": m_max})


def check_point(checks, m_max):
    """The base itself: ``decompose_point(s, t)`` is k = 0 and the one record (s, t, empty diagram, t = 0, rho = 0).

    Gr_0 of a rank-m bundle, at every m up to the bound, is the same sum.
    Checked at shift 3, where a dropped or negated shift shows, and at the
    trivial twist and L.
    """
    bad, shift = [], 3
    for t in (PicClass(), L):
        want = (0, ((shift, t.sort_key, (), 0, 0),))
        point = decompose_point(shift, t)
        if (point.k, point.records) != want:
            bad.append((str(t), "point"))
        for m in range(m_max + 1):
            gr0 = decompose_grassmannian(GrassmannQuery(0, m, shift, t))
            if (gr0.k, gr0.records) != want:
                bad.append((str(t), m))
    _report(checks, "point", bad, {"m_max": m_max})


def check_les_splitting(checks, m_max):
    """For odd r up to the bound, the split P(E) at even parity is the outer terms of ``les_theorem_d(r, s)``.

    Both have K = (r - 1)/2 and the (shift, twist key) pairs (s, O) and
    (s - r, det E), here at s = 3: the split sum from the engine's Gr_1
    walk, the sequence's terms as it writes them.
    """
    det_e = PicClass.of(BaseSymbol("detE"))
    bad, shift = [], 3
    for r in range(1, m_max + 1, 2):
        want = ((r - 1) // 2, [(shift - r, det_e.sort_key), (shift, PicClass().sort_key)])
        split = decompose_projective_bundle(ProjBundleQuery(r, 0, shift))
        seq = les_theorem_d(r, shift)
        outer = (seq.terms[0], seq.terms[-1])
        if (split.k, sorted(rec[:2] for rec in split.records)) != want:
            bad.append((r, "split"))
        if (sum(t.k for t in outer), sorted(rec[:2] for t in outer for rec in t.records)) != want:
            bad.append((r, "sequence"))
    _report(checks, "les_splitting", bad, {"r_max": m_max})


def check_projbundle_modes(checks, m_max):
    """P(E) without ``split`` is the long exact sequence exactly at odd r and even parity, and a formal sum elsewhere.

    For r up to the bound at both parities: with ``split`` off,
    ``decompose_projective_bundle`` returns a ``LongExactSequence`` exactly
    where the paper's sequence does not split, and a ``FormalSum`` at every
    other (r, parity); with ``split`` on it always returns a sum.
    """
    bad = []
    for r in range(1, m_max + 1):
        for parity in (0, 1):
            for split in (False, True):
                got = decompose_projective_bundle(ProjBundleQuery(r, parity, 0, split))
                want = FormalSum if split or parity or r % 2 == 0 else LongExactSequence
                if got.__class__ is not want:
                    bad.append((r, parity, split))
    _report(checks, "projbundle_modes", bad, {"r_max": m_max})


def check_determinism(checks, d_max, m_max):
    """A fresh walk and the cached repeat of one total give the same document."""
    d, m = min(d_max, 3), min(m_max, 3)

    def run():
        return json.dumps(formal_sum_to_json(decompose_total(d, m, 0, L)), sort_keys=True)

    clear_cache()
    _check(checks, "determinism", run() == run(), "", {"d": d, "m": m})


def document_sums() -> list:
    """One small sum of each kind the serializer writes, in a fixed order that ``check_evaluate`` and ``check_direct_sum`` read.

    A flagged Gr(2, 2) over both twists (it has rho = 1 summands) and a
    base symbol whose name JSON escapes and holds a ``%``, its Witt
    specialization, a projective bundle, the merged direct sum of the
    first and the third (list-valued meta), and the formal-sum terms of a
    long exact sequence.
    """
    gr = decompose_total(2, 2, 0, L + PicClass.of(BaseSymbol('"\\\u00e9\x01%')), FLAGGED)
    pb = decompose_projective_bundle(ProjBundleQuery(2, 1, 0))
    sums = [gr, witt_specialize(gr), pb, direct_sum(gr, pb, merge=True)]
    return sums + [t for t in les_theorem_d(3, 0).terms if not isinstance(t, str)]


_GW_FIELDS = frozenset(("shift", "twist", "diagram", "t"))  # the fields FORMAL_SUM_SCHEMA requires of a gw entry; rho may join them


def _plain_formal_sum(doc) -> bool:
    """Whether ``doc`` passes a plain structural check, stricter than ``FORMAL_SUM_SCHEMA``, made without jsonschema.

    Exactly the keys k, gw and meta; k an int >= 0 and meta a dict; gw a
    list of dicts, each holding shift, twist, diagram and t, and at most
    also rho; shift an int, twist a list of str, diagram None or a list of
    ints; t and rho each None, 0 or 1.  Every int must be ``int``, so a bool
    or an integral float goes to ``validate_json``, as does every other
    document this turns down: the schema decides and words each failure,
    as it does for a base table ``expr._plain_table_columns`` turns down.
    """
    if type(doc) is not dict or doc.keys() != {"k", "gw", "meta"}:
        return False
    k, gw = doc["k"], doc["gw"]
    if type(k) is not int or k < 0 or type(doc["meta"]) is not dict or type(gw) is not list:
        return False
    for g in gw:
        if type(g) is not dict or not _GW_FIELDS <= g.keys() <= _GW_FIELDS | {"rho"}:
            return False
        twist, diagram = g["twist"], g["diagram"]
        if type(g["shift"]) is not int or type(twist) is not list or not all(type(x) is str for x in twist):
            return False
        if diagram is not None and (type(diagram) is not list or not all(type(x) is int for x in diagram)):
            return False
        if not all(x is None or type(x) is int and 0 <= x <= 1 for x in (g["t"], g.get("rho"))):
            return False
    return True


def check_output_schema(checks, documents):
    """Each of ``document_sums`` conforms to FORMAL_SUM_SCHEMA.

    ``formal_sum_to_json`` does not validate what it builds, so this is
    where its output meets the schema.  A document that passes
    ``_plain_formal_sum`` conforms; only one it turns down is validated,
    which imports jsonschema.  Each sum must also print through
    ``formal_sum_json_text`` exactly as ``json.dumps(doc, sort_keys=True,
    indent=2)`` prints its document.
    """
    bad = []
    for i, s in enumerate(documents):
        doc = formal_sum_to_json(s)
        try:
            if not _plain_formal_sum(doc):
                validate_json(doc, FORMAL_SUM_SCHEMA)
        except SchemaMismatchError as exc:
            bad.append((i, str(exc)))
        else:
            if formal_sum_json_text(s) != json.dumps(doc, sort_keys=True, indent=2):
                bad.append((i, "formal_sum_json_text differs from json.dumps"))
    _check(checks, "output_schema", not bad, f"failures: {bad}" if bad else f"{len(documents)} documents")


def check_canonical_order(checks, d_max, m_max, sums, documents):
    """Every flagged sum (as (d, m, class)) and every ``document_sums`` sum has its records in ``record_order`` with no duplicate.

    So its records equal their distinct records sorted by ``record_order``.
    Every other sum ``run_all`` builds is of one of these kinds.
    """
    labelled = [((d, m, l), s) for (d, m), pair in sorted(sums.items()) for l, s in enumerate(pair)]
    labelled += [(("document", i), s) for i, s in enumerate(documents)]
    bad = [label for label, s in labelled if s.records != tuple(sorted(set(s.records), key=record_order))]
    _report(checks, "canonical_order", bad, {"d_max": d_max, "m_max": m_max}, cap=5)


def _primes():
    """2, 3, 5, 7, ...: each number no smaller number above 1 divides."""
    n = 2
    while True:
        if all(n % p for p in range(2, n)):
            yield n
        n += 1


def check_evaluate(checks, documents):
    """``evaluate`` of ``document_sums``' total (GW) and its Witt specialization (W), against tables of prime orders.

    Each key the sum needs, its K key included when K is nonzero, gets its
    own prime order, so the group ``evaluate`` returns must hold each prime
    as often as the sum holds records at its key (K copies for the K key).
    A table without one key, for each key in turn, must raise
    ``MissingKeyError`` naming exactly that key.
    """
    bad, degree = [], 1  # a nonzero degree, so a key that loses it is missed
    for theory, s in zip(("GW", "W"), documents[:2]):
        want = Counter((theory, shift, key, degree) for shift, key, *_ in s.records)
        if s.k:
            want["K", 0, (), degree] = s.k
        primes = dict(zip(want, _primes()))
        entries = [(key, AbelianGroup((p,))) for key, p in primes.items()]
        got = Counter(evaluate(s, BaseTheoryTable("primes", entries), degree).orders)
        if got != {primes[key]: n for key, n in want.items()}:
            bad.append((theory, "multiplicities"))
        for i, (key, _) in enumerate(entries):
            try:
                evaluate(s, BaseTheoryTable("primes", entries[:i] + entries[i + 1 :]), degree)
            except MissingKeyError as exc:
                if exc.keys != [key]:
                    bad.append((theory, key))
            else:
                bad.append((theory, key))
    _report(checks, "evaluate", bad, {"degree": degree})


def check_direct_sum(checks, documents):
    """``document_sums``' merged sum is its two parts added: K their K summed, its records theirs merged in ``record_order``."""
    gr, _, pb, merged = documents[:4]
    bad = []
    if merged.k != gr.k + pb.k:
        bad.append("k")
    if merged.records != tuple(sorted(gr.records + pb.records, key=record_order)):
        bad.append("records")
    _report(checks, "direct_sum", bad, {})


def check_flag_closed_form(checks, d_max, m_max):
    """``flag_closed_form(d, m, l, 0, L)`` for l = 0, 1: every record's t is l mod 2, and its meta twist holds Delta_d exactly when l is odd."""
    bad = []
    for d, m in _frames(d_max, m_max):
        for l in (0, 1):
            s = flag_closed_form(d, m, l, 0, L)
            delta = f"Delta:{d}" in s.meta_dict()["twist"].split("+")
            if delta != bool(l % 2) or any(t != l % 2 for _, _, _, t, _ in s.records):
                bad.append((d, m, l))
    _report(checks, "flag_closed_form", bad, {"d_max": d_max, "m_max": m_max})


def check_interface_oracle(checks, limit=6):
    """The evenness rule and the even-vector generator against the grid scan, on every frame up to ``limit``; builds no diagram.

    Walks each width m once, depth first, top row first and each row's
    values descending, so the vectors of each frame (i, m) come in
    ``young._row_vectors`` order.  Each vector's scan state (closed segments
    all even, last edge, open length, in order) is its parent's fed with the
    edges its last row adds, read from a table of ``_row_edges`` built once
    per width.  An edge sorting before the last one fed fails its vector as
    ``"order"``.  The vectors the scan calls even must be exactly
    ``young._even_row_vectors(i, m)``, in order, else the frame fails as
    ``"generator"``.  Failures are listed by frame, d then m.
    """
    if limit > ORACLE_FRAME_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_FRAME_LIMIT}x{ORACLE_FRAME_LIMIT} frames")
    bad, even_rows = [], young._even_rows

    def walk(m, i, rows, even, last, length, ordered, edges, scanned_even):
        """Judge frame (i, m) on ``rows`` from the scan state after all their edges, and walk on."""
        judged = even and length % 2 == 0
        if not ordered:
            bad.append((i, m, rows, "order"))
        else:
            if even_rows(rows, m) != judged:
                bad.append((i, m, rows))
            if judged:
                scanned_even[i].append(rows)
        if i == limit:
            return
        top = rows[-1] if i else m
        for r in range(top, -1, -1):
            c_even, c_last, c_length, c_ordered = even, last, length, ordered  # the child's state
            for edge in edges[i + 1, r, top if i else r]:  # the edges row i + 1 adds
                c_ordered = c_ordered and c_last <= edge
                if edge[1] == c_last[1] and edge[0] == c_last[0] + 1:  # same orientation, next position
                    c_length += 1
                else:
                    c_even, c_length = c_even and c_length % 2 == 0, 1
                c_last = edge
            walk(m, i + 1, rows + (r,), c_even, c_last, c_length, c_ordered, edges, scanned_even)

    for m in range(0, limit + 1):
        scanned_even = [[] for _ in range(limit + 1)]
        rows_in_width = ((i, r, above) for i in range(1, limit + 1) for above in range(m + 1) for r in range(above + 1))
        edges = {key: _row_edges(*key, m) for key in rows_in_width}
        walk(m, 0, (), True, (float("-inf"), ""), 0, True, edges, scanned_even)
        bad += [(d, m, "generator") for d, rows in enumerate(scanned_even) if rows != list(young._even_row_vectors(d, m))]
    bad.sort(key=lambda b: b[:2])  # stable: each frame's vectors stay in enumeration order
    _report(checks, "interface_oracle", bad, {"limit": limit}, cap=5)


def check_twist_table(checks, d_max, m_max, sums):
    """The paper's line bundle table as an oracle for the engine's one-bit twist.

    At every inner node (d, m >= 2) and twist parity eps, the table's
    defining rows must put the twist in one family, whose child twists must
    sit on the engine's child nodes, have the Delta-parity each is solved
    at, and telescope with each child leaf's det V to the det V bit of the
    parent leaf it grows into: the shifted child's rows plus step full
    columns, or the unshifted child's rows above step empty rows.  rho does
    not depend on the base twist, so each frame's leaves are read once from
    the records of ``flagged_sums`` (built at base L); only the child frames
    it does not hold, with d = 0 or m = 0, are decomposed here.  Each child
    twist's base part is looked up once, by class, among the four sums of
    the two ranks' det V bits; it picks the one (child rho, parent rho) pair.
    """
    params = {"d_max": d_max, "m_max": m_max}
    if d_max < 2 or m_max < 2:
        detail = "no inner node (d, m >= 2) within the bounds"
        checks.append({"id": "twist_table", "params": params, "status": "skipped", "detail": detail})
        return
    bad = []

    @cache  # lives for this call only
    def rho_by_rows(d, m, eps):
        """The rho bit of each leaf of a flagged frame by its rows: read from ``sums``, else decomposed."""
        t = PicClass.of(Delta(d)) if eps else PicClass()
        s = sums[d, m][eps] if (d, m) in sums else decompose_grassmannian(GrassmannQuery(d, m, 0, t, FLAGGED))
        return {rows: rho for _, _, rows, _, rho in s.records}

    det_v = cache(lambda n: (PicClass(), PicClass(map(FlagQuotient, range(1, n + 1)))))  # a leaf's det V at rank n, by its rho
    # (child rho, parent rho) by the twist that carries a rank-nc leaf's det V bit to a rank-n one's; distinct as 0 < nc < n
    telescoping = cache(lambda nc, n: {det_v(nc)[a] + det_v(n)[b]: (a, b) for a in (0, 1) for b in (0, 1)})
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
                for (cd, cm, ceps), cols, tail in ((shifted, step, ()), (unshifted, 0, (0,) * step)):
                    ct = table[cd, cm]
                    if (Delta(cd) in ct.generators) != ceps:
                        bad.append((d, m, eps, "parity"))
                        continue
                    pair = telescoping(cd + cm, d + m).get(ct.base_part())  # None when no pair agrees
                    for rows, rho_c in rho_by_rows(cd, cm, ceps).items():
                        grown = (tuple(x + cols for x in rows) if cols else rows) + tail
                        if (rho_c, parent.get(grown)) != pair:
                            bad.append((d, m, eps, grown))
    _report(checks, "twist_table", bad, params, cap=5)


def run_all(d_max: int, m_max: int) -> VerificationReport:
    """Execute every check up to the given frame bounds."""
    if d_max < 1 or m_max < 1:
        raise ValueError("need d_max, m_max >= 1")
    checks = []
    evens = even_diagrams(d_max, m_max)
    check_fixtures(checks, evens)
    check_cardinality(checks, d_max, m_max, evens)
    betas = young.beta_parity_table(max(d_max, BETA_BOUND), max(m_max, BETA_BOUND))
    check_pascal(checks, betas)
    check_beta_parity_sum(checks, betas)
    sums = flagged_sums(d_max, m_max)
    check_engine_vs_enumeration(checks, d_max, m_max, sums, evens)
    check_k_counts(checks, d_max, m_max, sums, betas)
    check_odd_odd(checks, d_max, m_max, sums)
    check_transpose(checks, d_max, m_max, sums)
    check_witt_counts(checks, d_max, m_max, sums, betas)
    check_totals(checks, d_max, m_max, sums)
    check_determinism(checks, d_max, m_max)
    check_point(checks, m_max)
    check_les_splitting(checks, m_max)
    check_projbundle_modes(checks, m_max)
    documents = document_sums()
    check_output_schema(checks, documents)
    check_canonical_order(checks, d_max, m_max, sums, documents)
    check_evaluate(checks, documents)
    check_direct_sum(checks, documents)
    check_flag_closed_form(checks, min(d_max, 3), min(m_max, 3))
    check_interface_oracle(checks, min(max(d_max, m_max), 6))
    check_twist_table(checks, min(d_max, 6), min(m_max, 6), sums)
    checks.sort(key=lambda c: c["id"])
    return VerificationReport(tuple(checks))
