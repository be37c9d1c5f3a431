"""Command-line front end with deterministic JSON output.

Exit codes: 0 success, 1 domain error or bad arguments, 2 verification failure,
3 missing base-table keys.  The default output format is JSON; set GWCELL_FORMAT=text
or pass --format to override.  Every JSON document is the text of
json.dumps(doc, sort_keys=True, indent=2); all but verify's report are written
without building the document, and young writes a chunk of diagrams at a time.
The gwcell process flushes stdout and stderr and exits without interpreter
teardown, so atexit handlers do not run unless a profiler or tracer is set; a
failed final flush of stdout is exit 1 with one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import young
from .engine import (
    GrassmannQuery,
    ProjBundleQuery,
    decompose_grassmannian,
    decompose_projective_bundle,
    decompose_total,
    les_theorem_d,
)
from .expr import (
    BaseTheoryTable,
    FormalSum,
    LongExactSequence,
    MissingKeyError,
    _list_text,
    evaluate,
    formal_sum_json_text,
    formal_sum_to_json,  # unused here, but perfbench/tracer.py wraps it under this name
    les_json_text,
    les_to_json,  # the same
    witt_specialize,
)
from .twist import BaseSymbol, Delta, PicClass
from .young import Frame

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_MISSING_KEYS = 3


def _emit(result: FormalSum | LongExactSequence, fmt: str):
    """Print a formal sum or a long exact sequence: its text with --format text, else its JSON document, written directly."""
    if isinstance(result, LongExactSequence):
        print(_les_text(result) if fmt == "text" else les_json_text(result))
    else:
        print(_sum_text(result) if fmt == "text" else formal_sum_json_text(result))


def _write_joined(head: str, texts, sep: str, tail: str):
    """Write ``head + sep.join(texts) + tail`` to stdout, joining 4096 of the iterator ``texts`` at a time, so the text is never held whole."""
    write = sys.stdout.write
    write(head + sep.join(islice(texts, 4096)))
    while part := sep.join(islice(texts, 4096)):
        write(sep + part)
    write(tail)


def _twist_from_arg(spec: str, d: int) -> PicClass:
    """Parse --twist: 'even'/'odd' name the parity classes; otherwise a generator list."""
    if spec == "even":
        return PicClass.of(BaseSymbol("L"))
    if spec == "odd":
        return PicClass.of(BaseSymbol("L"), Delta(d))
    gens = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == "Delta":
            tok = f"Delta:{d}"
        gens.append(tok)
    return PicClass.parse(gens)


def _sum_text(s: FormalSum) -> str:
    parts = [f"{s.k}.K"] if s.k else []
    for shift, key, rows, _, _ in s.records:
        parts.append(f"GW[{shift}]({'+'.join(key) or 'O'}){'?' if rows is None else young.rows_text(rows)}")
    return " (+) ".join(parts) if parts else "0"


def _les_text(seq: LongExactSequence) -> str:
    """The cyclic sequence, a term a line with each map's name below it; the last map returns to the first term."""
    terms = [_sum_text(t) if isinstance(t, FormalSum) else t for t in seq.terms]
    return "".join(f"{term}\n  --{f}-->\n" for term, f in zip(terms, seq.maps)) + terms[0]


def _cmd_grassmann(args) -> int:
    if args.twist == "both":
        result = decompose_total(args.d, args.m, args.shift, PicClass.of(BaseSymbol("L")), args.bundle)
    else:
        t = _twist_from_arg(args.twist, args.d)
        result = decompose_grassmannian(GrassmannQuery(args.d, args.m, args.shift, t, args.bundle))
    if args.mode == "witt":
        result = witt_specialize(result)
    elif args.mode == "eval":
        if not args.base_table:
            raise ValueError("--mode eval requires --base-table")
        table = BaseTheoryTable.load(args.base_table)
        group = evaluate(result, table, args.degree)
        if args.format == "text":
            print(group)
        else:
            print('{\n  "degree": %d,\n  "group": %s\n}' % (args.degree, _list_text(map(str, group.orders), 2)))
        return EXIT_OK
    _emit(result, args.format)
    return EXIT_OK


def _cmd_projbundle(args) -> int:
    q = ProjBundleQuery(args.r, args.parity, args.shift, split=not args.no_split)
    _emit(decompose_projective_bundle(q), args.format)
    return EXIT_OK


def _cmd_young(args) -> int:
    """Write each diagram straight from its row vector into one ``%`` template of the frame, a chunk at a time."""
    frame = Frame(args.d, args.m)
    vectors = young._even_row_vectors(args.d, args.m) if args.even else young._row_vectors(frame)
    if args.render == "ascii":
        _write_joined("", map(young._ascii_drawer(args.d, args.m), vectors), "\n\n", "\n")
    else:
        entry = "    " + _list_text(["%s"] * args.d, 4)
        tail = '\n  ],\n  "even_only": %s,\n  "frame": {\n    "d": %d,\n    "m": %d\n  }\n}\n' % (json.dumps(args.even), args.d, args.m)
        _write_joined('{\n  "diagrams": [\n', map(entry.__mod__, vectors), ",\n", tail)
    return EXIT_OK


def _cmd_les(args) -> int:
    _emit(les_theorem_d(args.r, args.shift), args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify  # loaded by this command only, to keep every other command's start-up short

    d_max = args.d_max if args.d_max is not None else args.both_max
    m_max = args.m_max if args.m_max is not None else args.both_max
    report = verify.run_all(d_max, m_max)
    print(report.to_text() if args.format == "text" else json.dumps(report.to_json(), sort_keys=True, indent=2))
    return EXIT_OK if report.passed() else EXIT_VERIFY


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors are domain errors (exit 1, JSON on stderr), not exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="gwcell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command word -> its parser, which main parses with directly

    def add_format(p):
        # None means "not given": main reads GWCELL_FORMAT at each call
        p.add_argument("--format", choices=["json", "text"], default=None)

    p = sub.add_parser("grassmann", help="decompose a Grassmannian")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--twist", default="both", help="'even', 'odd', 'both', or a generator list like L,Delta")
    p.add_argument("--mode", choices=["formal", "witt", "eval"], default="formal")
    p.add_argument("--bundle", choices=["trivial", "flagged"], default="trivial")
    p.add_argument("--base-table", help="base-theory JSON table, required for --mode eval")
    p.add_argument("--degree", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_grassmann)

    p = sub.add_parser("projbundle", help="decompose a projective bundle")
    p.add_argument("-r", type=int, required=True, help="bundle rank minus one")
    p.add_argument("--parity", type=int, choices=[0, 1], default=0)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--no-split", action="store_true", help="return the long exact sequence when r is odd")
    add_format(p)
    p.set_defaults(func=_cmd_projbundle)

    p = sub.add_parser("young", help="enumerate Young diagrams in a frame")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--even", action="store_true")
    p.add_argument("--render", choices=["ascii", "json"], default="json")
    p.set_defaults(func=_cmd_young)

    p = sub.add_parser("les", help="the non-split sequence for odd-rank projective space")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--shift", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_les)

    p = sub.add_parser("verify", help="run the cross-check suite")
    p.add_argument("--max", type=int, default=6, dest="both_max")
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


_PARSER = build_parser()
_COMMANDS = _PARSER.commands


def _parse(argv) -> argparse.Namespace:
    """The namespace of ``_PARSER.parse_args(argv)``, from one parse.

    ``_PARSER`` would scan the whole line, then hand the words after the
    command word to that command's parser, which scans them again; here the
    command's parser reads them once.  An empty argv, help and an unknown
    command word go through ``_PARSER``, which words their help and errors,
    and so does a leftover word.
    """
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if getattr(args, "format", "json") is None:
            args.format = os.environ.get("GWCELL_FORMAT", "json")
        return args.func(args)
    except MissingKeyError as exc:
        print(json.dumps({"error": "missing-keys", "keys": [list(map(str, k)) for k in exc.keys]}), file=sys.stderr)
        return EXIT_MISSING_KEYS
    except (ValueError, OSError, ImportError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_DOMAIN
    except RecursionError:
        print(json.dumps({"error": "input file nested too deeply (Python's recursion limit reached)"}), file=sys.stderr)
        return EXIT_DOMAIN


def run():
    """The gwcell process: ``main``, then flush stdout and stderr and exit without interpreter teardown.

    Module teardown and the final collection cost several milliseconds of a
    small call and print nothing, so ``os._exit`` skips them once both
    streams are flushed.  A failed stdout flush (say, a closed pipe) is
    reported like ``main`` reports an OSError, with exit 1; a failed stderr
    flush has nowhere to be reported.  ``--help`` and an unexpected
    exception leave by Python's normal exit, and so does a process with a
    profiler or tracer installed, so that its report is written.
    """
    code = main()
    try:
        if sys.stdout is not None:  # None when the process started with descriptor 1 closed
            sys.stdout.flush()
    except OSError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        code = EXIT_DOMAIN
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile and coverage may use it instead
    if sys.getprofile() or sys.gettrace() or monitoring and any(map(monitoring.get_tool, range(6))):
        sys.exit(code)  # Python's normal exit, which writes the profiler's or tracer's report
    os._exit(code)


if __name__ == "__main__":
    run()
