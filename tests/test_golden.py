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
GOLDEN_YOUNG_SHA256 = "973b9e97a5298e65767a281259f68b2ab1d269dea48e3f7945628fafe3021df6"
GOLDEN_WALK_SHA256 = "608e36eba0a3bb0406d39abebe4a694f03501c1bda13eb45fb108a6a0acab82f"
GOLDEN_TEXT_SHA256 = "678ded6a67b206e7769938d2ba7f4bfe2ef86397d192a9200b00dbce4a71920c"
GOLDEN_VERIFY_SHA256 = "538b0d780c7a8d80a553f4719a4b3ace7462ed9b8ba9289da1cfdec4167290e5"
# sha256 of json.dumps(run_all(d_max, m_max).to_json(), sort_keys=True)
GOLDEN_REPORT_SHA256 = {
    (5, 5): "e86ea9898b82fef345c1bbe7540893f755cc5cadb43e4c6352be3be7c49d5d0d",
    (5, 6): "78c09a0a249b8ea086c2e6dfef73dd0de61f0cf43c98c520ff08ad6b07e95515",
    (6, 5): "001d0f58733d0fd9e1462a63c64f9981800cb192c7f53a148748bdfe20a25993",
    (5, 7): "02b07c308600e39881968280185a42dd3ce06193db8a2d6dd4783ae74b5b4195",
    (7, 5): "41f7fea5ece305c0b1f1766a2ad4db1c130e5416b7677099ca30d56455213523",
    (6, 6): "0c35a2e889e46f1587ab6778945878ec2dfaaec7de69a3fb9a5ef72dc5b6a4a3",
    (6, 7): "a656999b7976404ee7793e8c5b479bc0f06b39065a6c84133fa8bfda0cc0dc3d",
    (7, 6): "3c6b0481a9896eeaf28d8235cfd5570c60a3b7903f79c6ad180f52cc63d951f7",
    (7, 7): "d905713525f8b9c2500893b8f600474b2946b9ae3db61b827837d1e36723afed",
    (8, 8): "22fb465a7c3c06fa86609cdd1c7b37c947430592898ee82e261c0b0befde2876",
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
