import json
from dataclasses import replace
from itertools import groupby

import pytest
from hypothesis import given
from test_young import framed_diagrams

from gwcell import engine, twist, verify, young
from gwcell.verify import (
    EVEN_FIXTURES,
    ORACLE_FRAME_LIMIT,
    VerificationReport,
    brute_force_interface,
    check_interface_oracle,
    check_output_schema,
    check_twist_table,
    run_all,
)
from gwcell.young import Frame, YoungDiagram


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
        # is_even and enumerate_even share one row rule: the grid scan catches a mutant of it
        def drops_only(rows, m):
            return all((a - b) % 2 == 0 for a, b in zip(rows, rows[1:]))

        monkeypatch.setattr(young, "_even_rows", drops_only)
        failed = {c["id"] for c in run_all(4, 4).checks if c["status"] == "fail"}
        assert "interface_oracle" in failed
        assert any(name.startswith("fixtures_") for name in failed)

    def test_rejects_oversize_frame(self):
        with pytest.raises(ValueError):
            brute_force_interface((0,) * 13, 13)


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


class TestFixtures:
    def test_counts_match_published_figures(self):
        assert len(EVEN_FIXTURES[(2, 2)]) == 4
        assert len(EVEN_FIXTURES[(3, 3)]) == 4
        assert len(EVEN_FIXTURES[(4, 4)]) == 12


class TestRunAll:
    def test_small_sweep_passes(self):
        report = run_all(4, 4)
        assert report.passed()
        by_id = {c["id"]: c for c in report.checks}
        assert "fixtures_4x4" in by_id
        assert by_id["engine_vs_enumeration"]["status"] == "pass"
        assert by_id["output_schema"] == {"id": "output_schema", "params": {}, "status": "pass", "detail": "6 documents"}

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
        table = tuple(
            replace(e, value_d_odd="L,Delta") if e.name == "Htilde^(1)_d" else e for e in twist.LINE_BUNDLE_TABLE
        )
        monkeypatch.setattr(twist, "LINE_BUNDLE_TABLE", table)
        checks = []
        check_twist_table(checks, 6, 6)
        assert checks[0]["status"] == "fail"

    def test_flagged_frames_decomposed_once(self, monkeypatch):
        # engine_vs_enumeration, k_counts, odd_odd, transpose and witt_counts
        # share one decomposition per query, both orientations of a frame
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
            shared = [q for q in calls if q.twist.base_part() == verify.L]
            assert len(shared) == len(set(shared)) == frames * 2

    def test_each_frame_enumerated_once(self, monkeypatch):
        # fixtures, cardinality and engine_vs_enumeration read one table
        frames = []
        original = young.enumerate_even

        def counted(frame):
            frames.append((frame.d, frame.m))
            return original(frame)

        monkeypatch.setattr(young, "enumerate_even", counted)
        run_all(5, 5)
        assert sorted(frames) == [(d, m) for d in range(1, 6) for m in range(1, 6)]
        frames.clear()
        run_all(3, 2)
        assert sorted(frames) == sorted({(d, m) for d in range(1, 4) for m in range(1, 3)} | set(EVEN_FIXTURES))

    @pytest.mark.parametrize("mutant", ["defining_row", "child_eps", "family_rows", "family_split"])
    def test_twist_table_catches_mutant(self, monkeypatch, mutant):
        # each mutant is reported as a failure, never raised
        original = verify.split_node
        if mutant == "defining_row":
            # Htilde then shares H's parity at even d: no family, or both
            table = tuple(replace(e, value_d_even="L") if e.name == "Htilde" else e for e in twist.LINE_BUNDLE_TABLE)
            monkeypatch.setattr(twist, "LINE_BUNDLE_TABLE", table)
            reason = "family"
        elif mutant == "child_eps":
            def wrong_eps(d, m, eps):
                shifted, (cd, cm, ceps), step = original(d, m, eps)
                return shifted, (cd, cm, 1 - ceps), step

            monkeypatch.setattr(verify, "split_node", wrong_eps)
            reason = "parity"
        elif mutant == "family_rows":
            flip = {twist.H: twist.H_TILDE, twist.H_TILDE: twist.H}
            table = tuple(replace(e, family=flip[e.family]) if e.site == (0, 0) else e for e in twist.LINE_BUNDLE_TABLE)
            monkeypatch.setattr(twist, "LINE_BUNDLE_TABLE", table)
            reason = "sites"
        else:
            monkeypatch.setattr(verify, "split_node", lambda d, m, eps: original(d, m, 1 - eps))
            reason = "sites"
        checks = []
        check_twist_table(checks, 6, 6)
        assert checks[0]["status"] == "fail"
        assert repr(reason) in checks[0]["detail"]

    def test_twist_table_reads_each_frame_once(self, monkeypatch):
        calls = []
        original = verify.decompose_grassmannian

        def counted(q):
            calls.append(q)
            return original(q)

        monkeypatch.setattr(verify, "decompose_grassmannian", counted)
        checks = []
        check_twist_table(checks, 6, 6)
        assert checks[0]["status"] == "pass"
        assert len(calls) == len(set(calls)) == 70

    def test_transpose_catches_dual_base_case_rho(self, monkeypatch):
        # flip rho of the full leaf of Gr_d of a rank d+1 bundle: rows, K and
        # every other check still hold, but Gr_1 of the same rank disagrees
        original = engine._base_leaves

        def mutant(d, m, eps):
            base = original(d, m, eps)
            if base is not None and m == 1 and d > 1:
                return tuple((rows, rho ^ (rows == (1,) * d)) for rows, rho in base)
            return base

        engine.clear_cache()
        monkeypatch.setattr(engine, "_base_leaves", mutant)
        try:
            by_id = {c["id"]: c for c in run_all(4, 4).checks}
        finally:
            engine.clear_cache()
        assert by_id["transpose_equivariance"]["status"] == "fail"

    def test_output_schema_catches_bad_document(self, monkeypatch):
        original = verify.formal_sum_to_json

        def bad_t(a):
            doc = original(a)
            for g in doc["gw"]:
                g["t"] = 2
            return doc

        monkeypatch.setattr(verify, "formal_sum_to_json", bad_t)
        checks = []
        check_output_schema(checks)
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
