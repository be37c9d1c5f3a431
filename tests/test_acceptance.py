"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Every check is exact (tolerance 0); the stated wall-clock budgets are
asserted where the criterion gives one.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import json
import random
import time
from math import comb

from gwcell import young
from gwcell.cli import main
from gwcell.engine import (
    DET_E,
    GrassmannQuery,
    ProjBundleQuery,
    clear_cache,
    decompose_grassmannian,
    decompose_projective_bundle,
    decompose_total,
)
from gwcell.expr import (
    FORMAL_SUM_SCHEMA,
    BaseTheoryTable,
    FormalSum,
    GWSummand,
    direct_sum,
    evaluate,
    formal_sum_to_json,
    validate_json,
    witt_specialize,
)
from gwcell.twist import BaseSymbol, Delta, PicClass
from gwcell.verify import EVEN_FIXTURES
from gwcell.young import Frame

L = PicClass.of(BaseSymbol("L"))


LABELS = {
    1: "figure fidelity",
    2: "even-diagram cardinality",
    3: "beta identities",
    4: "engine vs enumeration",
    5: "free-rank accounting",
    6: "odd-odd concentration",
    7: "projective bundle splitting",
    8: "Witt specialization",
    9: "transpose duality",
    10: "determinism, schema, evaluation",
}


def report(criterion, ok):
    print(f"acceptance criterion {criterion} ({LABELS[criterion]}): {'PASS' if ok else 'FAIL'}")
    assert ok


def both_twists(d, m, shift=0, bundle="trivial"):
    for l in (0, 1):
        t = L + (PicClass.of(Delta(d)) if l else PicClass())
        yield l, decompose_grassmannian(GrassmannQuery(d, m, shift, t, bundle))


def test_c01_figure_fidelity():
    start = time.monotonic()
    ok = all(
        {lam.rows for lam in young.enumerate_even(Frame(d, m))} == expected
        for (d, m), expected in EVEN_FIXTURES.items()
    )
    ok = ok and time.monotonic() - start < 1.0
    report(1, ok)


def test_c02_cardinality():
    start = time.monotonic()
    ok = all(
        len(young.enumerate_even(Frame(d, m))) == young.even_cardinality(d, m)
        for d in range(1, 9)
        for m in range(1, 9)
    )
    ok = ok and time.monotonic() - start < 30.0
    report(2, ok)


def test_c03_beta_identities():
    start = time.monotonic()
    ok = all(
        young.beta_parity(0, d, m) + young.beta_parity(1, d, m) == young.beta(d, m)
        for d in range(1, 31)
        for m in range(1, 31)
    )
    ok = ok and not young.verify_pascal(30, 30)
    ok = ok and time.monotonic() - start < 5.0
    report(3, ok)


def test_c04_engine_enumeration_oracle():
    clear_cache()
    start = time.monotonic()
    ok = True
    for d in range(1, 7):
        for m in range(1, 7):
            leaves = []
            for _, s in both_twists(d, m, shift=3):
                leaves.extend(s.gw)
                ok = ok and all(g.shift == 3 - g.diagram.boxes() for g in s.gw)
                ok = ok and all(young.is_even(g.diagram) for g in s.gw)
            expected = sorted(lam.rows for lam in young.enumerate_even(Frame(d, m)))
            ok = ok and sorted(g.diagram.rows for g in leaves) == expected
    ok = ok and time.monotonic() - start < 60.0
    report(4, ok)


def test_c05_k_counts():
    ok = True
    for d in range(1, 7):
        for m in range(1, 7):
            total = 0
            for l, s in both_twists(d, m):
                total += s.k
                ok = ok and s.k == young.beta_parity(l, d, m)
                ok = ok and 2 * s.k + len(s.gw) == comb(d + m, d)
            ok = ok and total == young.beta(d, m)
    report(5, ok)


def test_c06_odd_odd_concentration():
    ok = True
    for d in range(1, 8, 2):
        for m in range(1, 8, 2):
            s = decompose_grassmannian(GrassmannQuery(d, m, 0, L + PicClass.of(Delta(d))))
            ok = ok and not s.gw and s.k == comb(d + m, d) // 2
            ok = ok and young.beta_parity(1, d, m) == comb(d + m, d) // 2
    report(6, ok)


def test_c07_projective_bundle_theorem():
    ok = True
    n = 2
    for r in range(1, 21):
        for parity in (0, 1):
            s = decompose_projective_bundle(ProjBundleQuery(r, parity, n))
            shifts = sorted(g.shift for g in s.gw)
            if r % 2 == 0 and parity == 0:
                ok = ok and s.k == r // 2 and shifts == [n]
            elif r % 2 == 0:
                ok = ok and s.k == r // 2 and shifts == [n - r]
            elif parity == 1:
                ok = ok and s.k == (r + 1) // 2 and not shifts
            else:
                ok = ok and s.k == (r - 1) // 2 and shifts == [n - r, n]
            for g in s.gw:
                if g.shift == n - r and r >= 1:
                    ok = ok and g.twist == DET_E
                if g.shift == n and parity == 0:
                    ok = ok and g.twist == PicClass()
    report(7, ok)


def test_c08_witt_specialization():
    ok = True
    for d in range(1, 7):
        for m in range(1, 7):
            for l, s in both_twists(d, m):
                w = witt_specialize(s)
                expected_count = comb(d + m, d) - 2 * young.beta_parity(l, d, m)
                ok = ok and w.k == 0 and len(w.gw) == expected_count
                ok = ok and sorted(g.shift for g in w.gw) == sorted(
                    (-g.diagram.boxes()) % 4 for g in s.gw
                )
    report(8, ok)


def test_c09_transpose_duality():
    ok = True
    for d in range(1, 7):
        for m in range(1, 7):
            a = decompose_total(d, m, 0, L)
            b = decompose_total(m, d, 0, L)
            ok = ok and a.k == b.k
            ok = ok and sorted((g.shift, g.diagram.rows) for g in a.gw) == sorted(
                (g.shift, g.diagram.transpose().rows) for g in b.gw
            )
    report(9, ok)


def test_c10_determinism_schema_and_evaluation(capsys):
    argv = ["grassmann", "-d", "3", "-m", "3", "--twist", "both", "--format", "json"]
    main(argv)
    out1 = capsys.readouterr().out
    clear_cache()
    main(argv)
    out2 = capsys.readouterr().out
    ok = out1 == out2

    doc = json.loads(out1)
    validate_json(doc, FORMAL_SUM_SCHEMA)
    for d, m in [(2, 2), (1, 4), (4, 1)]:
        validate_json(formal_sum_to_json(decompose_total(d, m, 0, L)), FORMAL_SUM_SCHEMA)

    entries = [{"theory": "K", "shift": 0, "twist": [], "degree": 0, "group": [0]}]
    for shift in range(-8, 1):
        entries.append({"theory": "GW", "shift": shift, "twist": ["L"], "degree": 0, "group": [0, 2]})
    table = BaseTheoryTable.from_json({"name": "synthetic", "entries": entries})

    rng = random.Random(20260825)
    for _ in range(20):
        def random_sum():
            gw = tuple(
                GWSummand(shift=rng.randint(-8, 0), twist=L) for _ in range(rng.randint(0, 4))
            )
            return FormalSum(rng.randint(0, 5), gw)

        a, b = random_sum(), random_sum()
        lhs = evaluate(direct_sum(a, b, merge=True), table, 0)
        rhs = evaluate(a, table, 0) + evaluate(b, table, 0)
        ok = ok and lhs == rhs and lhs.orders.count(0) == rhs.orders.count(0)
    report(10, ok)
