"""Golden output: one sha256 over the CLI's stdout, stderr and exit code on a fixed sweep.

The digest pins every byte the sweep prints, so a refactor of the engine or
of serialization that changes any output, error message or exit code fails
here.  Regenerate the digest only for a deliberate change of output.
"""

import contextlib
import hashlib
import io

from gwcell import engine
from gwcell.cli import main

GOLDEN_SHA256 = "8a652cd96a76d2e220fc0d13852a8869951438fa7eda9a88220407d2c0864b81"

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


def sweep_digest() -> str:
    engine.clear_cache()
    h = hashlib.sha256()
    for argv in _argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        h.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    return h.hexdigest()


def test_cli_sweep_matches_golden_digest():
    assert sweep_digest() == GOLDEN_SHA256
