"""Golden output: sha256 digests over the CLI's stdout, stderr and exit code on fixed sweeps.

A digest pins every byte its sweep prints, so a refactor of the engine or
of serialization that changes any output, error message or exit code fails
here.  Regenerate a digest only for a deliberate change of output.  The
small sweep covers every frame with d, m <= 6 and checks every JSON
document it prints against FORMAL_SUM_SCHEMA, since the serializer itself
does not validate.  The large sweep reaches frames of benchmark size,
where the engine's walk runs through deep paths on both sides of the
diagonal.  The walk sweep pins a 16 x 16 frame over both twists and
both bundles, and the thin frames Gr_2 at m = 1500 and its transpose,
whose leaves pass through a thousand levels of the walk.  The text sweep
pins ``--format text`` on the small sweep's grassmann calls (formal and
witt) and split projective bundles.  The young sweep pins diagram
enumeration and rendering, with and without the evenness filter, and a
verify report in both formats.  The verify sweep pins ``verify --max 7``
in both formats: its interface oracle runs at its full limit of 6 and
the other checks reach one frame past it.  The report digests pin the JSON
report of ``run_all`` at each pair of bounds the benchmark's verify sweep
draws.  The streamed digests pin the whole stdout of a `python -m
gwcell.cli` child for two `young` calls, one of them about 19 MB long.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from gwcell import engine
from gwcell.cli import main
from gwcell.expr import FORMAL_SUM_SCHEMA, validate_json
from gwcell.verify import run_all

GOLDEN_SHA256 = "8a652cd96a76d2e220fc0d13852a8869951438fa7eda9a88220407d2c0864b81"
GOLDEN_LARGE_SHA256 = "77eeb36a0d85e7bc51077e7b54fc49a57822330d517931b8b9b91997e1590039"
GOLDEN_YOUNG_SHA256 = "5e589218fc0588c5c387d8c4c90bfc3a5dd798975a5b9ca6ef164addeb663d6c"
GOLDEN_WALK_SHA256 = "608e36eba0a3bb0406d39abebe4a694f03501c1bda13eb45fb108a6a0acab82f"
GOLDEN_TEXT_SHA256 = "678ded6a67b206e7769938d2ba7f4bfe2ef86397d192a9200b00dbce4a71920c"
GOLDEN_VERIFY_SHA256 = "171b634c0ba5fc9f8b19e66c4f81c81da7cd16b3393f135b2504e3e30e378409"
# sha256 of json.dumps(run_all(d_max, m_max).to_json(), sort_keys=True)
GOLDEN_REPORT_SHA256 = {
    (5, 5): "fc0494563177bd98f29d72cd529d73f1da88f241d3d7eb71f799f21615112f19",
    (5, 6): "44b7aa593a0247afe8c9eae9e3f8589335383ee5a50df426ddbc1f65cc473f6b",
    (6, 5): "3b1eb849e2c9cadfb9b256c7d71c1644449175d4757c6f45de0ae09b2ee6fadb",
    (5, 7): "85b2fba4c959df7030152421bf565266ca965a6390fc513ebeac50b6f05ac2a0",
    (7, 5): "142e64262e1c02bd5656c1f29e988bb97864dd5d02c6c2eee88d96fb99ea3505",
    (6, 6): "b5cf731e93572f9f9c63d4828ac3e9e962fa30d89503fd68404936e2a2952969",
    (6, 7): "0fdad314ce0c505967cc01854b54253917eb1dbcd33d88ba22fcb9dd2f91bc11",
    (7, 6): "85a1e529a6625419cb16b330a90d5f69f2eb1be2a736fcd784ab0e3648bf0349",
    (7, 7): "2fbdfaafb3ab1dd59dcaa5fac5157317934b69a22bcea086bb92280cfe6552d7",
    (8, 8): "bad14ddb7cd37e70781d4953ca04f885640624030cdba1f7a1ba262ca703bf55",
}

# sha256 of the whole stdout of one `python -m gwcell.cli` child
GOLDEN_STREAMED_SHA256 = {
    "young -d 10 -m 10": "2e619542dbbcb308c3cd9c559e83c5b8c50e7cd36ee06b3ac3ce5ad8e029b2cf",
    "young -d 8 -m 9 --even --render ascii": "43b800e874e1567fa43702e937507e1b6564d1762832324d7fab0619dc950170",
}

TWISTS = ("both", "even", "odd", "L,Delta,q1")


def _argvs():
    for d in range(7):
        for m in range(7):
            for twist in TWISTS:
                if d == 0 and twist in ("odd", "L,Delta,q1"):
                    continue  # an odd twist on Gr_0 is rejected; tested in test_cli
                for bundle in ("trivial", "flagged"):
                    for mode in ("formal", "witt"):
                        yield ["grassmann", "-d", str(d), "-m", str(m), "--twist", twist,
                               "--bundle", bundle, "--mode", mode]
    for r in range(8):
        for parity in (0, 1):
            yield ["projbundle", "-r", str(r), "--parity", str(parity)]
            yield ["projbundle", "-r", str(r), "--parity", str(parity), "--no-split"]


def _text_argvs():
    """The small sweep's grassmann calls and split projective bundles, each with --format text."""
    for argv in _argvs():
        if "--no-split" not in argv:
            yield [*argv, "--format", "text"]


def _large_argvs():
    """Squares 7 to 10 and thin frames with their transposes, two twists, both bundles."""
    frames = [(n, n) for n in range(7, 11)]
    for d, m in ((2, 100), (2, 101), (3, 60), (3, 61)):
        frames += [(d, m), (m, d)]
    for d, m in frames:
        for twist in ("both", "L,Delta,q1"):
            for bundle in ("trivial", "flagged"):
                yield ["grassmann", "-d", str(d), "-m", str(m), "--twist", twist, "--bundle", bundle]


def _walk_argvs():
    """16 x 16 with both bundles, then the thin flagged frames 2 x 1500 and 1500 x 2; both twists each."""
    for bundle in ("trivial", "flagged"):
        yield ["grassmann", "-d", "16", "-m", "16", "--twist", "both", "--bundle", bundle]
    for d, m in (("2", "1500"), ("1500", "2")):
        yield ["grassmann", "-d", d, "-m", m, "--twist", "both", "--bundle", "flagged"]


def _young_argvs():
    """Every frame with d, m <= 6 in both renderings, all diagrams and even ones; then verify --max 4."""
    for d in range(7):
        for m in range(7):
            for render in ("json", "ascii"):
                for even in ([], ["--even"]):
                    yield ["young", "-d", str(d), "-m", str(m), "--render", render, *even]
    for fmt in ("text", "json"):
        yield ["verify", "--max", "4", "--format", fmt]


def _run(argvs):
    """(argv, exit code, stdout, stderr) of every call, from a cold engine cache."""
    engine.clear_cache()
    runs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs.append((argv, code, out.getvalue(), err.getvalue()))
    return runs


def _digest(runs):
    h = hashlib.sha256()
    for argv, code, out, err in runs:
        h.update(f"{' '.join(argv)}\n{code}\n{out}\n{err}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def sweep():
    return _run(_argvs())


def test_cli_sweep_matches_golden_digest(sweep):
    assert _digest(sweep) == GOLDEN_SHA256


def test_large_frames_match_golden_digest():
    runs = _run(_large_argvs())
    assert len(runs) == 48 and all(code == 0 for _, code, _, _ in runs)
    assert _digest(runs) == GOLDEN_LARGE_SHA256


def test_walked_frames_match_golden_digest():
    runs = _run(_walk_argvs())
    assert len(runs) == 4 and all(code == 0 for _, code, _, _ in runs)
    assert _digest(runs) == GOLDEN_WALK_SHA256


def test_text_format_matches_golden_digest():
    runs = _run(_text_argvs())
    assert len(runs) == 744
    assert _digest(runs) == GOLDEN_TEXT_SHA256


def test_young_and_verify_match_golden_digest():
    runs = _run(_young_argvs())
    assert len(runs) == 198 and all(code == 0 for _, code, _, _ in runs)
    assert _digest(runs) == GOLDEN_YOUNG_SHA256


def test_full_oracle_verify_matches_golden_digest():
    runs = _run([["verify", "--max", "7", "--format", fmt] for fmt in ("text", "json")])
    assert all(code == 0 for _, code, _, _ in runs)
    assert _digest(runs) == GOLDEN_VERIFY_SHA256


def test_verify_sweep_reports_match_golden_digests():
    digests = {}
    for bounds in GOLDEN_REPORT_SHA256:
        engine.clear_cache()
        doc = run_all(*bounds).to_json()
        assert doc["ok"], bounds
        digests[bounds] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digests == GOLDEN_REPORT_SHA256


@pytest.mark.parametrize("argv", sorted(GOLDEN_STREAMED_SHA256))
def test_streamed_documents_match_golden_digests(argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    h = hashlib.sha256()
    with subprocess.Popen([sys.executable, "-m", "gwcell.cli", *argv.split()], stdout=subprocess.PIPE, env=env) as proc:
        for block in iter(lambda: proc.stdout.read(1 << 16), b""):
            h.update(block)
    assert proc.returncode == 0
    assert h.hexdigest() == GOLDEN_STREAMED_SHA256[argv]


def test_cli_sweep_documents_match_schema(sweep):
    assert len(sweep) == 760
    for argv, code, out, _ in sweep:
        if code != 0:
            continue  # an error prints nothing on stdout; the digest pins its message
        doc = json.loads(out)
        # a long exact sequence prints its terms: formal sums between named groups
        terms = [t for t in doc["terms"] if isinstance(t, dict)] if "terms" in doc else [doc]
        assert terms, argv
        for term in terms:
            validate_json(term, FORMAL_SUM_SCHEMA)
