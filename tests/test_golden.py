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
verify report in both formats.
"""

import contextlib
import hashlib
import io
import json

import pytest

from gwcell import engine
from gwcell.cli import main
from gwcell.expr import FORMAL_SUM_SCHEMA, validate_json

GOLDEN_SHA256 = "8a652cd96a76d2e220fc0d13852a8869951438fa7eda9a88220407d2c0864b81"
GOLDEN_LARGE_SHA256 = "77eeb36a0d85e7bc51077e7b54fc49a57822330d517931b8b9b91997e1590039"
GOLDEN_YOUNG_SHA256 = "973b9e97a5298e65767a281259f68b2ab1d269dea48e3f7945628fafe3021df6"
GOLDEN_WALK_SHA256 = "608e36eba0a3bb0406d39abebe4a694f03501c1bda13eb45fb108a6a0acab82f"
GOLDEN_TEXT_SHA256 = "678ded6a67b206e7769938d2ba7f4bfe2ef86397d192a9200b00dbce4a71920c"

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
