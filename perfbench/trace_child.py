"""Child-process side of the traced cli_session run and of the import probe.

    python perfbench/trace_child.py --import-probe
        time `import gwcell.cli` and print {"import_ms": ...} as JSON.
    python perfbench/trace_child.py SPANS_OUT ARGV...
        run `gwcell ARGV...` like `python -m gwcell.cli` does, with the
        layer wrappers of tracer.py installed, and write the spans and
        per-layer totals to SPANS_OUT.  Stdout, stderr and the exit code
        are the CLI's own.

Both expect `src` on PYTHONPATH.
"""

import sys
import time


def import_probe():
    # Nothing but time and sys is imported before gwcell, so modules gwcell
    # shares with the standard library are charged to gwcell's import.
    start = time.perf_counter()
    import gwcell.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    import json

    print(json.dumps({"import_ms": elapsed * 1e3}))


def traced(out_path, argv):
    import json

    from tracer import Tracer, install

    tracer = Tracer()
    main = install(tracer)
    tracer.active = True
    try:
        code = main(argv)
    finally:
        tracer.active = False
        summary = {
            "self_ns": tracer.self_ns,
            "calls": tracer.calls,
            "incl_ns": tracer.incl_ns,
            "errors": tracer.errors,
            "counters": tracer.counters,
            "names": tracer.names,
            "spans": tracer.spans,
            "dropped": tracer.dropped,
        }
        with open(out_path, "w") as f:
            json.dump(summary, f)
    sys.exit(code)


if __name__ == "__main__":
    if sys.argv[1:] == ["--import-probe"]:
        import_probe()
    else:
        traced(sys.argv[1], sys.argv[2:])
