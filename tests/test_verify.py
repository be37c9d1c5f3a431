import copy
import json
import subprocess
import sys
from collections import Counter
from itertools import groupby, product
from types import SimpleNamespace

import pytest
from hypothesis import given, note, strategies as st
from interface_scan import brute_force_interface
from test_cli import _child_env
from test_young import framed_diagrams

from gwcell import engine, twist, verify, young
from gwcell.expr import (
    FORMAL_SUM_SCHEMA,
    AbelianGroup,
    FormalSum,
    GWSummand,
    MissingKeyError,
    SchemaMismatchError,
    direct_sum,
    formal_sum_to_json,
    record_order,
    validate_json,
    witt_specialize,
)
from gwcell.verify import (
    EVEN_FIXTURES,
    ORACLE_FRAME_LIMIT,
    VerificationReport,
    _plain_formal_sum,
    check_determinism,
    check_direct_sum,
    check_evaluate,
    check_flag_closed_form,
    check_interface_oracle,
    check_output_schema,
    check_twist_table,
    document_sums,
    flagged_sums,
    run_all,
)
from gwcell.twist import PicClass
from gwcell.young import Frame, YoungDiagram


def _table_with(rows):
    """``twist.LINE_BUNDLE_TABLE`` with the row at each (family, site) of ``rows`` replaced."""
    table = {family: dict(by_site) for family, by_site in twist.LINE_BUNDLE_TABLE.items()}
    for (family, site), row in rows.items():
        table[family][site] = row
    return table


def diagram(d, m, *rows):
    return YoungDiagram(Frame(d, m), tuple(rows) + (0,) * (d - len(rows)))


def brute_force_even(lam):
    return all(length % 2 == 0 for _, length in brute_force_interface(lam.rows, lam.frame.m))


def reference_interface(lam):
    """Reference for brute_force_interface: a scan of every cell of the frame.

    Asks per cell whether it and its right and lower neighbours are
    filled, and counts runs with groupby on (orientation, position - index).
    """
    d, m = lam.frame.d, lam.frame.m

    def contains_box(i, j):
        return 1 <= i <= d and 1 <= j <= lam.rows[i - 1]

    edges = []
    for i in range(1, d + 1):
        for j in range(1, m + 1):
            if not contains_box(i, j):
                continue
            if j + 1 <= m and not contains_box(i, j + 1):
                edges.append((i - 1 - j, "vertical"))
            if i + 1 <= d and not contains_box(i + 1, j):
                edges.append((i - j + 1, "horizontal"))
    runs = groupby(enumerate(sorted(edges)), key=lambda ke: (ke[1][1], ke[1][0] - ke[0]))
    return tuple((orient, len(list(run))) for (orient, _), run in runs)


class TestBruteForceInterface:
    def test_single_row(self):
        assert brute_force_interface((2, 0), 2) == (("horizontal", 2),)

    def test_empty(self):
        assert brute_force_interface((0, 0), 2) == ()

    def test_hook(self):
        assert brute_force_interface((2, 1), 2) == (("horizontal", 1), ("vertical", 1))

    def test_full_frame(self):
        assert brute_force_interface((3, 3, 3), 3) == ()

    def test_gr33_thick_edges(self):
        # ordered from the top-right: the drop of 2 under row 1, then the run of two 1s
        assert brute_force_interface((3, 1, 1), 3) == (("horizontal", 2), ("vertical", 2))

    @given(framed_diagrams())
    def test_alternating_orientations(self, lam):
        segs = brute_force_interface(lam.rows, lam.frame.m)
        for (a, _), (b, _) in zip(segs, segs[1:]):
            assert a != b

    def test_is_even_matches_on_all_small_frames(self):
        for d in range(7):
            for m in range(7):
                for lam in young.enumerate_diagrams(Frame(d, m)):
                    assert young.is_even(lam) == brute_force_even(lam)

    @given(framed_diagrams(max_side=ORACLE_FRAME_LIMIT))
    def test_is_even_matches_on_random_frames(self, lam):
        assert young.is_even(lam) == brute_force_even(lam)

    def test_oracle_check_catches_wrong_evenness(self, monkeypatch):
        # a rule that forgets the interior runs calls (1) in the 1x2 frame even
        def drops_only(rows, m):
            return all((a - b) % 2 == 0 for a, b in zip(rows, rows[1:]))

        monkeypatch.setattr(young, "_even_rows", drops_only)
        checks = []
        check_interface_oracle(checks, 3)
        assert checks[0]["status"] == "fail"
        assert checks[0]["detail"].startswith("failures: [(1, 2, (1,)), ")

    def test_oracle_covers_the_rule_enumeration_uses(self, monkeypatch):
        # a mutant of the row rule: the grid scan catches it, and so do the published figures
        def drops_only(rows, m):
            return all((a - b) % 2 == 0 for a, b in zip(rows, rows[1:]))

        monkeypatch.setattr(young, "_even_rows", drops_only)
        failed = {c["id"] for c in run_all(4, 4).checks if c["status"] == "fail"}
        assert "interface_oracle" in failed
        assert any(name.startswith("fixtures_") for name in failed)

    def test_rejects_oversize_frame(self):
        with pytest.raises(ValueError):
            brute_force_interface((0,) * 13, 13)
        with pytest.raises(ValueError):
            check_interface_oracle([], ORACLE_FRAME_LIMIT + 1)


class TestScanMatchesReference:
    def test_every_diagram_up_to_7x7(self):
        for d in range(8):
            for m in range(8):
                for lam in young.enumerate_diagrams(Frame(d, m)):
                    assert brute_force_interface(lam.rows, lam.frame.m) == reference_interface(lam), lam.rows

    @given(framed_diagrams(max_side=ORACLE_FRAME_LIMIT))
    def test_random_frames_up_to_the_limit(self, lam):
        assert brute_force_interface(lam.rows, lam.frame.m) == reference_interface(lam)

    def test_scan_calls_no_evenness_rule(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the grid scan called the rule it checks")

        monkeypatch.setattr(young, "_even_rows", forbidden)
        monkeypatch.setattr(young, "is_even", forbidden)
        assert brute_force_interface((3, 1, 1), 3) == (("horizontal", 2), ("vertical", 2))


# the order mutant in a fresh interpreter; prints the check's status and detail
_ORDER_MUTANT = """
from gwcell import verify
row_edges = verify._row_edges
verify._row_edges = lambda i, r, above, m: row_edges(i, r, above, m)[::-1]
checks = []
verify.check_interface_oracle(checks, 3)
print(checks[0]["status"], checks[0]["detail"])
"""


class TestInterfaceWalk:
    """check_interface_oracle shares row scans and prefixes but must still check each vector in full."""

    def test_asks_about_every_vector_once_in_enumeration_order(self, monkeypatch):
        # the walk goes width by width, so frames interleave; within a frame the order is _row_vectors'
        asked, even_rows = [], young._even_rows

        def recorder(rows, m):
            asked.append((rows, m))
            return even_rows(rows, m)

        monkeypatch.setattr(young, "_even_rows", recorder)
        checks = []
        check_interface_oracle(checks, 6)
        expected = [(rows, m) for d in range(7) for m in range(7) for rows in list(young._row_vectors(Frame(d, m)))]
        assert len(expected) == 3431
        assert sorted(asked) == sorted(expected)
        for d in range(7):
            for m in range(7):
                in_frame = [rows for rows, width in asked if width == m and len(rows) == d]
                assert in_frame == list(young._row_vectors(Frame(d, m)))
        assert checks[0]["status"] == "pass"

    def test_generator_mutant_fails_as_generator(self, monkeypatch):
        # a generator that lets an odd inner run through: the scan disagrees, and so do the engine's leaves
        def odd_runs_too(d, m):
            rule = lambda rows: all((a - b) % 2 == 0 for a, b in zip(rows, rows[1:]))
            return (rows for rows in young._row_vectors(Frame(d, m)) if rule(rows))

        monkeypatch.setattr(young, "_even_row_vectors", odd_runs_too)
        checks = []
        check_interface_oracle(checks, 3)
        assert checks[0]["status"] == "fail"
        assert checks[0]["detail"].startswith("failures: [(1, 2, 'generator'), ")
        by_id = {c["id"]: c for c in run_all(4, 4).checks}
        assert by_id["engine_vs_enumeration"]["status"] == "fail"
        assert by_id["interface_oracle"]["status"] == "fail"

    def test_verdict_is_the_global_sort_verdict(self, monkeypatch):
        # passes only where the incremental merge agrees with brute_force_interface's sort-and-merge
        def scan_verdict(rows, m):
            return all(n % 2 == 0 for _, n in brute_force_interface(rows, m))

        monkeypatch.setattr(young, "_even_rows", scan_verdict)
        checks = []
        check_interface_oracle(checks, 7)
        assert checks[0] == {"id": "interface_oracle", "params": {"limit": 7}, "status": "pass", "detail": ""}

    def test_dropped_vertical_edge_fails(self, monkeypatch):
        row_edges = verify._row_edges

        def no_vertical(i, r, above, m):
            return [edge for edge in row_edges(i, r, above, m) if edge[1] != "vertical"]

        monkeypatch.setattr(verify, "_row_edges", no_vertical)
        checks = []
        check_interface_oracle(checks, 3)
        assert checks[0]["status"] == "fail"
        assert checks[0]["detail"].startswith("failures: [(1, 2, (1,)), ")

    def test_reversed_row_edges_fail_as_order(self, monkeypatch):
        # the first row with two edges: row 2 of (2, 1) in the 2x2 frame, horizontal then vertical at position 0
        row_edges = verify._row_edges
        monkeypatch.setattr(verify, "_row_edges", lambda i, r, above, m: row_edges(i, r, above, m)[::-1])
        checks = []
        check_interface_oracle(checks, 3)
        assert checks[0]["status"] == "fail"
        assert checks[0]["detail"].startswith("failures: [(2, 2, (2, 1), 'order'), ")

    def test_reversed_row_edges_fail_as_order_under_optimize(self):
        # the order test must not be an assert, which python -O strips
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _ORDER_MUTANT], capture_output=True, text=True, env=_child_env(), check=True
        )
        assert proc.stdout.startswith("fail failures: [(2, 2, (2, 1), 'order'), ")


class TestFixtures:
    def test_counts_match_published_figures(self):
        assert len(EVEN_FIXTURES[(2, 2)]) == 4
        assert len(EVEN_FIXTURES[(3, 3)]) == 4
        assert len(EVEN_FIXTURES[(4, 4)]) == 12


class TestCanonicalOrder:
    def test_unlabelled_records_compare_as_summand_order(self):
        # plain tuples cannot compare a None diagram, t or rho with a set one: the check reads record_order keys
        labelled = GWSummand(0, PicClass(), YoungDiagram(Frame(1, 1), (0,)), 0, 0)
        bare = GWSummand(0, PicClass())
        s = FormalSum.with_meta(0, (labelled, bare))
        assert [r[2] for r in s.records] == [None, (0,)]
        assert record_order(s.records[0]) < record_order(s.records[1])
        assert not record_order(s.records[1]) < record_order(s.records[0])
        checks = []
        verify.check_canonical_order(checks, 1, 1, {(1, 1): (s, SimpleNamespace(records=s.records[::-1]))}, [s])
        assert checks[0]["detail"] == "failures: [(1, 1, 1)]"

    def test_duplicates_and_disorder_fail(self):
        total = engine.decompose_total(2, 2, 0, PicClass())
        backwards = SimpleNamespace(records=total.records[::-1])
        checks = []
        verify.check_canonical_order(checks, 2, 2, {(2, 2): (total, backwards)}, [total, direct_sum(total, total)])
        assert checks[0]["detail"] == "failures: [(2, 2, 1), ('document', 1)]"


_ODD_VALUES = [0, 1, 2, -1, 1.0, 2.5, True, "x", None, [], {}, [1.0], [True], ["x"], [None]]
_DELETE = object()


def _slots(doc):
    """Each (path, slot) a change can hit: a key of each dict (also "extra" and "rho"), an index of each list (also its end)."""
    stack = [((), doc)]
    while stack:
        path, x = stack.pop()
        if type(x) is dict:
            yield from ((path, key) for key in [*x, "extra", "rho"] if key != "extra" or key not in x)
            stack += [(path + (key,), v) for key, v in x.items()]
        elif type(x) is list:
            yield from ((path, i) for i in range(len(x) + 1))
            stack += [(path + (i,), v) for i, v in enumerate(x)]


def _changed(doc, path, slot, value):
    """A copy of ``doc`` with ``value`` (a copy of it) put at ``slot`` of the container at ``path``, or that slot deleted."""
    doc = copy.deepcopy(doc)
    target = doc
    for step in path:
        target = target[step]
    if value is _DELETE:
        if slot in (target if type(target) is dict else range(len(target))):
            del target[slot]
    elif type(target) is list and slot == len(target):
        target.append(copy.deepcopy(value))
    else:
        target[slot] = copy.deepcopy(value)
    return doc


def _real_documents():
    return [formal_sum_to_json(s) for s in document_sums()]


class TestPlainFormalSum:
    # the plain check must be stricter than FORMAL_SUM_SCHEMA, and still take every document the package writes
    def test_every_single_change_it_accepts_conforms(self):
        accepted = 0
        for doc in _real_documents():
            for path, slot in list(_slots(doc)):
                for value in (*_ODD_VALUES, _DELETE):
                    changed = _changed(doc, path, slot, value)
                    if _plain_formal_sum(changed):
                        validate_json(changed, FORMAL_SUM_SCHEMA)
                        accepted += 1
        assert accepted  # some changes keep a document plain: a shift of -1, a t of 0, a new meta key

    @given(st.data())
    def test_accepts_only_documents_the_schema_accepts(self, data):
        doc = data.draw(st.sampled_from(_real_documents()))
        for _ in range(data.draw(st.integers(1, 4))):
            path, slot = data.draw(st.sampled_from(sorted(_slots(doc), key=repr)))
            doc = _changed(doc, path, slot, data.draw(st.sampled_from([*_ODD_VALUES, _DELETE])))
        note(doc)
        if _plain_formal_sum(doc):
            validate_json(doc, FORMAL_SUM_SCHEMA)

    @pytest.mark.parametrize(
        "doc, schema_accepts",
        [
            ({"k": -1, "gw": [], "meta": {}}, False),
            ({"k": True, "gw": [], "meta": {}}, False),
            ({"k": 0, "gw": [], "meta": {}, "extra": 0}, False),
            ({"k": 0, "gw": [{"shift": 0, "twist": [], "diagram": None, "t": 2}], "meta": {}}, False),
            ({"k": 0, "gw": [{"shift": 0, "twist": [], "diagram": None, "t": 0, "rho": 2}], "meta": {}}, False),
            ({"k": 0, "gw": [{"shift": 0, "twist": [], "diagram": None}], "meta": {}}, False),
            # integral floats: the schema reads them as integers, the plain check leaves them to it
            ({"k": 1.0, "gw": [], "meta": {}}, True),
            ({"k": 0, "gw": [{"shift": 0, "twist": [], "diagram": [1.0], "t": 0}], "meta": {}}, True),
        ],
    )
    def test_leaves_to_the_schema_what_it_turns_down(self, doc, schema_accepts):
        assert not _plain_formal_sum(doc)
        if schema_accepts:
            validate_json(doc, FORMAL_SUM_SCHEMA)
        else:
            with pytest.raises(SchemaMismatchError):
                validate_json(doc, FORMAL_SUM_SCHEMA)

    def test_accepts_every_document_the_package_writes(self):
        sums = list(document_sums())
        for d, m in product(range(1, 5), repeat=2):
            for bundle in (engine.TRIVIAL, engine.FLAGGED):
                sums.append(engine.decompose_total(d, m, 0, verify.L, bundle))
        for r in range(1, 5):
            for parity in (0, 1):
                sums.append(engine.decompose_projective_bundle(engine.ProjBundleQuery(r, parity, 0, True)))
        sums += [witt_specialize(s) for s in sums]
        for s in sums:
            assert _plain_formal_sum(formal_sum_to_json(s)), s.meta


class TestEvaluateDirectSumAndFlagChecks:
    def test_evaluate_names_wrong_multiplicities(self, monkeypatch):
        original = verify.evaluate
        monkeypatch.setattr(verify, "evaluate", lambda s, table, degree: original(s, table, degree) + original(s, table, degree))
        checks = []
        check_evaluate(checks, document_sums())
        assert checks[0]["detail"] == "failures: [('GW', 'multiplicities'), ('W', 'multiplicities')]"

    def test_evaluate_names_each_key_a_table_lacks_silently(self, monkeypatch):
        original = verify.evaluate

        def lenient(s, table, degree):
            try:
                return original(s, table, degree)
            except MissingKeyError:
                return AbelianGroup()

        monkeypatch.setattr(verify, "evaluate", lenient)
        checks = []
        check_evaluate(checks, document_sums())
        gr, witt = document_sums()[:2]
        keys = {("GW", *rec[:2], 1) for rec in gr.records} | {("K", 0, (), 1)} | {("W", *rec[:2], 1) for rec in witt.records}
        failures = eval(checks[0]["detail"].removeprefix("failures: "))
        assert {key for _, key in failures} == keys and len(failures) == len(keys)

    def test_direct_sum_names_the_part_that_differs(self):
        gr, witt, pb, merged, *terms = document_sums()
        checks = []
        check_direct_sum(checks, [gr, witt, pb, FormalSum(merged.k + 1, merged.gw[1:], merged.meta)])
        assert checks[0]["detail"] == "failures: ['k', 'records']"

    def test_flag_closed_form_catches_a_flipped_parity(self, monkeypatch):
        original = verify.flag_closed_form
        monkeypatch.setattr(verify, "flag_closed_form", lambda d, m, l, shift, base: original(d, m, l + 1, shift, base))
        checks = []
        check_flag_closed_form(checks, 1, 2)
        assert checks[0]["detail"] == "failures: [(1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1)]"


class TestRunAll:
    def test_small_sweep_passes(self):
        report = run_all(4, 4)
        assert report.passed()
        by_id = {c["id"]: c for c in report.checks}
        assert "fixtures_4x4" in by_id
        assert by_id["engine_vs_enumeration"]["status"] == "pass"
        assert by_id["output_schema"] == {"id": "output_schema", "params": {}, "status": "pass", "detail": "6 documents"}
        assert {"direct_sum", "evaluate", "flag_closed_form"} <= by_id.keys()

    def test_base_case_sweep(self):
        report = run_all(1, 1)
        assert report.passed()

    @pytest.mark.parametrize("bounds", [(1, 1), (1, 5), (5, 1)])
    def test_twist_table_skipped_without_inner_nodes(self, bounds):
        # its nodes start at d, m = 2: below that it checks nothing and must not read as a pass
        by_id = {c["id"]: c for c in run_all(*bounds).checks}
        assert by_id["twist_table"] == {
            "id": "twist_table",
            "params": {"d_max": min(bounds[0], 6), "m_max": min(bounds[1], 6)},
            "status": "skipped",
            "detail": "no inner node (d, m >= 2) within the bounds",
        }

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            run_all(0, 4)

    def test_report_serializes(self):
        report = run_all(2, 2)
        doc = report.to_json()
        assert doc["ok"] is True
        json.dumps(doc)  # must be JSON-serializable
        text = report.to_text()
        assert "pass" in text

    def test_twist_table_check_passes(self):
        by_id = {c["id"]: c for c in run_all(6, 6).checks}
        assert by_id["twist_table"]["status"] == "pass"
        assert by_id["twist_table"]["params"] == {"d_max": 6, "m_max": 6}

    def test_corrupted_twist_table_fails(self, monkeypatch):
        # drop detV/V1 from Htilde^(1)_d: the engine's bit rules no longer follow from the table
        table = _table_with({(twist.H_TILDE, (0, 1)): ("Htilde^(1)_d", "L,Delta", "L")})
        monkeypatch.setattr(twist, "LINE_BUNDLE_TABLE", table)
        checks = []
        check_twist_table(checks, 6, 6, flagged_sums(6, 6))
        assert checks[0]["status"] == "fail"

    def test_flagged_frames_decomposed_once(self, monkeypatch):
        # engine_vs_enumeration, k_counts, odd_odd, transpose, witt_counts and
        # twist_table share one decomposition per query, both orientations of a frame
        calls = []
        original = verify.decompose_grassmannian

        def counted(q):
            calls.append(q)
            return original(q)

        monkeypatch.setattr(verify, "decompose_grassmannian", counted)
        # 4 x 4 frames; 3 x 5 frames and the 6 transposes (4, 1..3), (5, 1..3)
        for bounds, frames in (((4, 4), 16), ((3, 5), 21)):
            calls.clear()
            run_all(*bounds)
            shared = [q for q in calls if q.twist.base_part() == verify.L and q.bundle == engine.FLAGGED]
            assert len(shared) == len(set(shared)) == frames * 2

    def test_cardinality_reaches_the_sweep_bounds(self, monkeypatch):
        # even_cardinality off by one only past 8 rows: the check must sweep to the bounds, not stop at 8
        original = young.even_cardinality
        monkeypatch.setattr(young, "even_cardinality", lambda d, m: original(d, m) + (d > 8))
        by_id = {c["id"]: c for c in run_all(9, 2).checks}
        assert by_id["cardinality"]["params"] == {"d_max": 9, "m_max": 2}
        assert by_id["cardinality"]["detail"] == "failures: [(9, 1), (9, 2)]"

    def test_each_frame_enumerated_once(self, monkeypatch):
        # fixtures, cardinality and engine_vs_enumeration read one table; the
        # interface oracle compares its own scan with every frame up to its limit
        frames = []
        original = young._even_row_vectors

        def counted(d, m):
            frames.append((d, m))
            return original(d, m)

        def oracle(limit):
            return Counter((d, m) for d in range(limit + 1) for m in range(limit + 1))

        monkeypatch.setattr(young, "_even_row_vectors", counted)
        run_all(5, 5)
        assert Counter(frames) == Counter(product(range(1, 6), repeat=2)) + oracle(5)
        frames.clear()
        run_all(3, 2)
        assert Counter(frames) == Counter({(d, m) for d in range(1, 4) for m in range(1, 3)} | set(EVEN_FIXTURES)) + oracle(3)

    def test_only_the_merged_document_builds_diagrams(self, monkeypatch):
        # every check reads row vectors and records; the merged direct sum of
        # document_sums builds its gw, a diagram per summand of its two parts
        built = []
        original = young.YoungDiagram.__init__

        def counted(self, frame, rows):
            built.append(rows)
            return original(self, frame, rows)

        monkeypatch.setattr(young.YoungDiagram, "__init__", counted)
        merged = document_sums()[3]
        assert merged.meta_dict().keys() == {"merged"} and len(built) == len(merged.records) > 0
        built.clear()
        run_all(6, 6)
        assert len(built) == len(merged.records)

    @pytest.mark.parametrize("mutant", ["defining_row", "child_eps", "family_rows", "family_split"])
    def test_twist_table_catches_mutant(self, monkeypatch, mutant):
        # each mutant is reported as a failure, never raised
        original = verify.split_node
        if mutant == "defining_row":
            # Htilde then shares H's parity at even d: no family, or both
            table = _table_with({(twist.H_TILDE, (0, 0)): ("Htilde", "L", "L")})
            monkeypatch.setattr(twist, "LINE_BUNDLE_TABLE", table)
            reason = "family"
        elif mutant == "child_eps":
            def wrong_eps(d, m, eps):
                shifted, (cd, cm, ceps), step = original(d, m, eps)
                return shifted, (cd, cm, 1 - ceps), step

            monkeypatch.setattr(verify, "split_node", wrong_eps)
            reason = "parity"
        elif mutant == "family_rows":
            # each family defined by the other's row
            defining = {family: rows[0, 0] for family, rows in twist.LINE_BUNDLE_TABLE.items()}
            table = _table_with({(twist.H, (0, 0)): defining[twist.H_TILDE], (twist.H_TILDE, (0, 0)): defining[twist.H]})
            monkeypatch.setattr(twist, "LINE_BUNDLE_TABLE", table)
            reason = "sites"
        else:
            monkeypatch.setattr(verify, "split_node", lambda d, m, eps: original(d, m, 1 - eps))
            reason = "sites"
        checks = []
        check_twist_table(checks, 6, 6, flagged_sums(6, 6))
        assert checks[0]["status"] == "fail"
        assert repr(reason) in checks[0]["detail"]

    def test_twist_table_decomposes_only_frames_the_sums_lack(self, monkeypatch):
        # twist_table reads the leaves flagged_sums built; it decomposes only
        # the child frames with d = 0 or m = 0, and no query is decomposed twice
        calls, in_table = [], []
        decompose, check = verify.decompose_grassmannian, verify.check_twist_table

        def counted(q):
            calls.append((q, bool(in_table)))
            return decompose(q)

        def table_check(*args):
            in_table.append(True)
            try:
                return check(*args)
            finally:
                in_table.clear()

        monkeypatch.setattr(verify, "decompose_grassmannian", counted)
        monkeypatch.setattr(verify, "check_twist_table", table_check)
        by_id = {c["id"]: c for c in run_all(6, 6).checks}
        assert by_id["twist_table"]["status"] == "pass"
        queries = [q for q, _ in calls]
        # flagged_sums' frames at two twists, 10 more, point's Gr_0 at m = 0..6 at two twists,
        # and the trivial 1x1, 2x2 and 3x3 frames' two classes that totals reads
        assert len(queries) == len(set(queries)) == 36 * 2 + 10 + 7 * 2 + 3 * 2
        own = sorted((q.d, q.m) for q, in_check in calls if in_check)
        assert own == sorted({(0, m) for m in range(2, 7)} | {(d, 0) for d in range(2, 7)})

    @pytest.mark.parametrize("mutant", ["base_key_for_rho_1", "det_e_for_det_v"])
    def test_engine_vs_enumeration_reads_twist_keys(self, monkeypatch, mutant):
        # rows, shifts, rho and K all hold: only the key a record prints is wrong
        if mutant == "base_key_for_rho_1":
            original = engine._engine_sum

            def base_keys(d, m, shift, classes, twists, meta):
                return original(d, m, shift, classes, (twists[0],) * 2, meta)

            monkeypatch.setattr(engine, "_engine_sum", base_keys)
        else:
            monkeypatch.setattr(engine, "DET_V", engine.DET_E)
        failed = {c["id"]: c for c in run_all(3, 3).checks if c["status"] == "fail"}
        # the split P(E)'s det E key is O under the first: les_splitting reads keys too
        assert list(failed) == ["engine_vs_enumeration"] + ["les_splitting"] * (mutant == "base_key_for_rho_1")
        assert failed["engine_vs_enumeration"]["detail"].startswith("failures: [(1, 1, 'twist-key'), (1, 2, 'twist-key'), ")

    def test_transpose_catches_dual_base_case_rho(self, monkeypatch):
        # flip rho of the full leaf of Gr_d of a rank d+1 bundle: rows, K and
        # every other check still hold, but Gr_1 of the same rank disagrees
        original = engine._base_leaves

        def mutant(d, m, eps):
            base = original(d, m, eps)
            if m == 1 and d > 1:
                return tuple((count, length, rho ^ (length == 1)) for count, length, rho in base)
            return base

        engine.clear_cache()
        monkeypatch.setattr(engine, "_base_leaves", mutant)
        try:
            by_id = {c["id"]: c for c in run_all(4, 4).checks}
        finally:
            engine.clear_cache()
        assert by_id["transpose_equivariance"]["status"] == "fail"

    def test_determinism_compares_a_cached_result_with_a_fresh_walk(self, monkeypatch):
        # a cache that loses a leaf on every hit: the fresh walk is right, only its repeat is not
        class LossyCache(dict):
            def get(self, key, default=None):
                hit = super().get(key, default)
                return hit if hit is None else (hit[0], hit[1][1:])

        monkeypatch.setattr(engine, "_LEAVES", LossyCache())
        checks = []
        check_determinism(checks, 3, 3)
        assert checks == [{"id": "determinism", "params": {"d": 3, "m": 3}, "status": "fail", "detail": ""}]

    def test_output_schema_catches_bad_document(self, monkeypatch):
        original = verify.formal_sum_to_json

        def bad_t(a):
            doc = original(a)
            for g in doc["gw"]:
                g["t"] = 2
            return doc

        monkeypatch.setattr(verify, "formal_sum_to_json", bad_t)
        checks = []
        check_output_schema(checks, document_sums())
        assert checks[0]["status"] == "fail"
        assert "t: 2 is not one of [0, 1, None]" in checks[0]["detail"]

    def test_output_schema_catches_writer_that_does_not_escape(self, monkeypatch):
        original = verify.formal_sum_json_text

        def unescaped(s):
            text = original(s)
            for name in {name for _, key, *_ in s.records for name in key}:
                text = text.replace(json.dumps(name), f'"{name}"')
            return text

        monkeypatch.setattr(verify, "formal_sum_json_text", unescaped)
        by_id = {c["id"]: c for c in run_all(3, 3).checks}
        assert by_id["output_schema"]["status"] == "fail"
        assert "formal_sum_json_text differs from json.dumps" in by_id["output_schema"]["detail"]

    def test_failure_detected(self):
        bad = VerificationReport(
            (
                {"id": "a", "params": {}, "status": "pass", "detail": ""},
                {"id": "b", "params": {}, "status": "fail", "detail": "boom"},
            )
        )
        assert not bad.passed()
        assert bad.summary() == {"pass": 1, "fail": 1, "skipped": 0}
