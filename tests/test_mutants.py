"""Source mutants that ``gwcell verify --max 6`` must catch.

Each entry is (file under ``src/gwcell``, old text, new text, checks that
must fail).  The old text must occur exactly once in its file, so a change
that moves the code fails here instead of testing nothing.  Each mutant is
applied to its own copy of ``src/`` and ``python -m gwcell.cli verify``
runs there in a fresh interpreter, two children at a time.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from test_cli import SRC, _child_env

MUTANTS = {
    "split_node_step": (
        "engine.py",
        "step = 1 if eps == (d - 1) % 2 else 2",
        "step = 1 if eps == d % 2 else 2",
        {
            "engine_vs_enumeration",
            "k_counts",
            "odd_odd_concentration",
            "transpose_equivariance",
            "twist_table",
            "witt_counts",
        },
    ),
    "shifted_child_parity": (
        "engine.py",
        "return (d, m - step, d % 2), (d - step, m, (d - step) % 2), step",
        "return (d, m - step, (d + 1) % 2), (d - step, m, (d - step) % 2), step",
        {
            "engine_vs_enumeration",
            "k_counts",
            "odd_odd_concentration",
            "transpose_equivariance",
            "twist_table",
            "witt_counts",
        },
    ),
    "unshifted_child_parity": (
        "engine.py",
        "return (d, m - step, d % 2), (d - step, m, (d - step) % 2), step",
        "return (d, m - step, d % 2), (d - step, m, (d - step + 1) % 2), step",
        {
            "engine_vs_enumeration",
            "k_counts",
            "odd_odd_concentration",
            "transpose_equivariance",
            "twist_table",
            "witt_counts",
        },
    ),
    "gr1_full_row_rho": (
        "engine.py",
        "(((1, m, 1),) if eps != m % 2 else ())",
        "(((1, m, 0),) if eps != m % 2 else ())",
        {"transpose_equivariance", "twist_table"},
    ),
    "m1_full_column_rho": (
        "engine.py",
        "(((d, 1, 1 - eps),) if eps != d % 2 else ())",
        "(((d, 1, eps),) if eps != d % 2 else ())",
        {"transpose_equivariance"},
    ),
    "m0_rho": (
        "engine.py",
        "return ((d, 0, eps),)",
        "return ((d, 0, 0),)",
        {"transpose_equivariance", "twist_table"},
    ),
    "shift_off_by_rho": (
        "engine.py",
        "records += [(shift - sum(rows), keys[rho],",
        "records += [(shift - sum(rows) - rho, keys[rho],",
        {"engine_vs_enumeration", "transpose_equivariance", "witt_counts"},
    ),
    "k_plus_one": (
        "engine.py",
        "((comb(d + m, d) - len(leaves)) // 2, leaves)",
        "((comb(d + m, d) - len(leaves)) // 2 + 1, leaves)",
        {"k_counts", "odd_odd_concentration", "rank_accounting"},
    ),
    "base_key_for_rho_1": (
        "engine.py",
        "keys = (twists[0].sort_key, twists[1].sort_key)",
        "keys = (twists[0].sort_key, twists[0].sort_key)",
        {"engine_vs_enumeration"},
    ),
    "det_e_for_det_v": (
        "engine.py",
        "base + DET_V if bundle == FLAGGED",
        "base + DET_E if bundle == FLAGGED",
        {"engine_vs_enumeration"},
    ),
    "trivial_bundle_det_v": (
        "engine.py",
        "else base)",
        "else base + DET_V)",
        {"engine_vs_enumeration"},
    ),
    "projective_bundle_det_v": (
        "engine.py",
        "PE_TWISTS = (PicClass(), DET_E)",
        "PE_TWISTS = (PicClass(), DET_V)",
        {"engine_vs_enumeration"},
    ),
    "gr1_empty_row_dropped": (
        "engine.py",
        "(((1, 0, 0),) if eps == 0 else ())",
        "()",
        {"engine_vs_enumeration", "rank_accounting", "transpose_equivariance", "witt_counts"},
    ),
    "d0_empty_diagram_rho": (
        "engine.py",
        "return ((0, 0, 0),)",
        "return ((0, 0, 1),)",
        {"transpose_equivariance", "twist_table"},
    ),
    # pascal reads both sides of its identities from the beta_parity table, so it must still catch these
    "beta_parity_odd_odd": (
        "young.py",
        "return full // 2 - half",
        "return full // 2 - half + 1",
        {"beta_parity_sum", "k_counts", "pascal", "witt_counts"},
    ),
    "beta_parity_even": (
        "young.py",
        "return (full - half) // 2",
        "return (full - half + 2) // 2",
        {"beta_parity_sum", "k_counts", "pascal", "witt_counts"},
    ),
    "even_rows_no_drop_clause": (
        "young.py",
        "if (prev - r) & 1 or run & 1 and 0 < prev < m:",
        "if run & 1 and 0 < prev < m:",
        {"fixtures_3x3", "fixtures_4x4", "interface_oracle"},
    ),
    "even_rows_no_inner_run_clause": (
        "young.py",
        "if (prev - r) & 1 or run & 1 and 0 < prev < m:",
        "if (prev - r) & 1:",
        {"fixtures_3x3", "fixtures_4x4", "interface_oracle"},
    ),
    "even_rows_no_last_run_clause": (
        "young.py",
        "return not (run & 1 and 0 < prev < m)",
        "return True",
        {"fixtures_3x3", "fixtures_4x4", "interface_oracle"},
    ),
    "generator_odd_inner_runs": (
        "young.py",
        "else range(left - left % 2, 0, -2)",
        "else range(left, 0, -1)",
        {"cardinality", "engine_vs_enumeration", "fixtures_3x3", "fixtures_4x4", "interface_oracle"},
    ),
    "point_shift_plus_one": (
        "engine.py",
        "return _engine_sum(0, 0, q.shift, (q.eps,)",
        "return _engine_sum(0, 0, q.shift + 1, (q.eps,)",
        {"point"},
    ),
    "les_k_rounded_up": (
        "engine.py",
        "FormalSum.with_meta((r - 1) // 2,",
        "FormalSum.with_meta((r + 1) // 2,",
        {"les_splitting"},
    ),
    "les_last_shift_off_by_one": (
        "engine.py",
        "GWSummand(shift=shift - r,",
        "GWSummand(shift=shift - r - 1,",
        {"les_splitting"},
    ),
    # a repeated query must read back what its first walk stored
    "cache_hit_drops_a_leaf": (
        "engine.py",
        "len(leaves)) // 2, leaves)\n    return hit\n",
        "len(leaves)) // 2, leaves)\n        return hit\n    return hit[0], hit[1][1:]\n",
        {"determinism", "point", "totals"},
    ),
    "projbundle_sequence_at_odd_parity": (
        "engine.py",
        "if q.r % 2 and not q.parity and not q.split:",
        "if q.r % 2 and not q.split:",
        {"projbundle_modes"},
    ),
    "total_solves_one_class": (
        "engine.py",
        "return _engine_sum(q.d, q.m, q.shift, (0, 1), q.twists, meta)",
        "return _engine_sum(q.d, q.m, q.shift, (0,), q.twists, meta)",
        {"totals"},
    ),
    # the shipped self-check guards the bytes writer: its entries must print as json.dumps prints them
    "writer_rho_t_labels_swapped": (
        "expr.py",
        '"rho": {json.dumps(rho)},\\n      "shift": %d,\'\n        f\'\\n      "t": {json.dumps(t)},',
        '"t": {json.dumps(rho)},\\n      "shift": %d,\'\n        f\'\\n      "rho": {json.dumps(t)},',
        {"output_schema"},
    ),
    "of_records_unsorted": (
        "expr.py",
        "records=tuple(sorted(records))",
        "records=tuple(records)",
        {"canonical_order"},
    ),
    # the line bundle table is data read only by twist_table: dropping a flag quotient from a child row must fail it
    "table_htilde1_no_flag_quotient": (
        "twist.py",
        '("Htilde^(1)_d", "L,detV/V1,Delta", "L")',
        '("Htilde^(1)_d", "L,Delta", "L")',
        {"twist_table"},
    ),
    "row_edges_no_vertical": (
        "verify.py",
        'edges.append((i - 1 - r, "vertical"))',
        "pass",
        {"interface_oracle"},
    ),
}


def _verify(src):
    """Exit code and failed check ids of ``gwcell verify --max 6`` run on the package under ``src``."""
    proc = subprocess.run(
        [sys.executable, "-m", "gwcell.cli", "verify", "--max", "6", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=src,
        env=_child_env(src),
        timeout=120,
    )
    failed = set()
    if proc.stdout:
        failed = {c["id"] for c in json.loads(proc.stdout)["checks"] if c["status"] == "fail"}
    return proc.returncode, failed


def _src_copy(tmp_path, *mutant):
    """A copy of ``src/`` under ``tmp_path``, with ``mutant`` (file, old text, new text) applied when given."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant:
        path, old, new = mutant
        target = src / "gwcell" / path
        text = target.read_text()
        assert text.count(old) == 1, f"{old!r} must occur once in {path}"
        target.write_text(text.replace(old, new))
    return str(src)


@pytest.fixture(scope="module")
def verdicts(request, tmp_path_factory):
    """A future of ``_verify`` on the copy of each selected test of this module, by mutant name (None: unmutated).

    The copies are made and verified by two workers, one ``verify`` child
    each, from the first test on, so each test waits only for its own.
    """
    selected = [item for item in request.session.items if getattr(item, "module", None) is request.module]
    names = [item.callspec.params["name"] if hasattr(item, "callspec") else None for item in selected]

    def verify_copy(name):
        tmp = tmp_path_factory.mktemp(name or "unmutated")
        return _verify(_src_copy(tmp, *MUTANTS[name][:3]) if name else _src_copy(tmp))

    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {name: pool.submit(verify_copy, name) for name in names}


def test_unmutated_copy_passes(verdicts):
    assert verdicts[None].result() == (0, set())


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_verify(verdicts, name):
    must_fail = MUTANTS[name][3]
    code, failed = verdicts[name].result()
    assert code == 2
    assert must_fail <= failed, failed
