"""Command-line front end with deterministic JSON output.

Exit codes: 0 success, 1 domain error or bad arguments, 2 verification failure,
3 missing base-table keys.  The default output format is JSON; set GWCELL_FORMAT=text
or pass --format to override.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify, young
from .engine import (
    FLAGGED,
    TRIVIAL,
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
    evaluate,
    formal_sum_json_text,
    formal_sum_to_json,  # unused here, but perfbench/tracer.py wraps it under this name
    les_to_json,
    witt_specialize,
)
from .twist import BaseSymbol, Delta, PicClass
from .young import Frame

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_MISSING_KEYS = 3


def _emit(doc, fmt: str, text=None):
    """Print the JSON document, or with --format text the string ``text()`` renders, when given."""
    if fmt == "text" and text is not None:
        print(text())
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


def _emit_sum(s: FormalSum, fmt: str):
    """Print a formal sum: its text with --format text, else its JSON document through ``formal_sum_json_text``."""
    print(_sum_text(s) if fmt == "text" else formal_sum_json_text(s))


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
    bundle = FLAGGED if args.bundle == "flagged" else TRIVIAL
    if args.twist == "both":
        result = decompose_total(args.d, args.m, args.shift, PicClass.of(BaseSymbol("L")), bundle)
    else:
        t = _twist_from_arg(args.twist, args.d)
        result = decompose_grassmannian(GrassmannQuery(args.d, args.m, args.shift, t, bundle))
    if args.mode == "witt":
        result = witt_specialize(result)
    elif args.mode == "eval":
        if not args.base_table:
            raise ValueError("--mode eval requires --base-table")
        table = BaseTheoryTable.load(args.base_table)
        group = evaluate(result, table, args.degree)
        _emit({"degree": args.degree, "group": list(group.orders)}, args.format, lambda: str(group))
        return EXIT_OK
    _emit_sum(result, args.format)
    return EXIT_OK


def _cmd_projbundle(args) -> int:
    q = ProjBundleQuery(args.r, args.parity, args.shift, split=not args.no_split)
    result = decompose_projective_bundle(q)
    if isinstance(result, LongExactSequence):
        _emit(les_to_json(result), args.format, lambda: _les_text(result))
    else:
        _emit_sum(result, args.format)
    return EXIT_OK


def _cmd_young(args) -> int:
    frame = Frame(args.d, args.m)
    diagrams = young.enumerate_even(frame) if args.even else young.enumerate_diagrams(frame)
    if args.render == "ascii":
        print("\n\n".join(young.render_ascii(lam) for lam in diagrams))
    else:
        doc = {
            "frame": {"d": args.d, "m": args.m},
            "even_only": bool(args.even),
            "diagrams": [list(lam.rows) for lam in diagrams],
        }
        _emit(doc, "json")
    return EXIT_OK


def _cmd_les(args) -> int:
    seq = les_theorem_d(args.r, args.shift)
    _emit(les_to_json(seq), args.format, lambda: _les_text(seq))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify.run_all(args.d_max, args.m_max)
    _emit(report.to_json(), args.format, report.to_text)
    return EXIT_OK if report.passed() else EXIT_VERIFY


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors are domain errors (exit 1, JSON on stderr), not exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="gwcell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

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


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "format", "json") is None:
            args.format = os.environ.get("GWCELL_FORMAT", "json")
        if args.command == "verify":
            args.d_max = args.d_max if args.d_max is not None else args.both_max
            args.m_max = args.m_max if args.m_max is not None else args.both_max
        return args.func(args)
    except MissingKeyError as exc:
        print(json.dumps({"error": "missing-keys", "keys": [list(map(str, k)) for k in exc.keys]}), file=sys.stderr)
        return EXIT_MISSING_KEYS
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_DOMAIN
    except RecursionError:
        print(json.dumps({"error": "frame too deep for the recursion, or an input file nested too deeply (Python's recursion limit reached)"}), file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
