"""gwcell benchmark: seeded, closed-loop, single-client workloads through the real CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gwcell checkout (the directory holding `src/gwcell`).
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The lines before it
print the same numbers for people, with the sample counts, the failed
ratio, the raw (unnormalized) times, a digest of the stdout of one deck
pass and the environment.  A copy of the result, and with --trace 1 the
spans, go to `.bench_out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import workloads
from oracle import Oracle, check_error
from speed import INTERPRETER_NOMINAL_MS, Speedometer, sample_ms, setup_factor
from tracer import ENGINE_DECOMPOSE, LAYERS, MAX_SPANS, VERIFY_CHECKS, Tracer, install

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"
SETUP_PROBES = 4  # set-ups in child processes, plus the run's own
CHILD_PROBES = 5  # interpreter and import probes of a traced run
HARD_CAP_S = 140  # stop starting ops after this, whatever --seconds says


def _child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def spawn(argv, out_path, err_path):
    """Run a child to completion; return (ns, exit code, ru_maxrss in KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], _child_env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return time.perf_counter_ns() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


class Bench:
    """Set-up state of one run: the imported program, the deck and the oracle."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.workdir = os.path.join(OUT, f"{workload}-seed{seed}")
        self.references = {}
        self.child_rss_kib = 0

    def setup(self):
        """Import, input generation and warm-up; return (raw, normalized) seconds."""
        sample_ms()  # warms the kernel, untimed
        before = [sample_ms() for _ in range(3)]
        start = time.perf_counter()
        sys.path.insert(0, SRC)
        import gwcell.cli
        from gwcell import engine, verify, young

        self.engine, self.verify = engine, verify
        self.main = gwcell.cli.main
        self.deck = workloads.build(self.workload, self.seed, self.workdir)
        if self.workload == "verify_sweep":
            verify.run_all(3, 3)
        elif self.workload == "warm_mixed":
            for op in self.deck.ops:
                self.run_in_process(self.main, op.argv)
        else:
            self.run_in_process(self.main, ("grassmann", "-d", "3", "-m", "3"))
        engine.clear_cache()
        raw = time.perf_counter() - start
        self.oracle = Oracle(young, self.reference, self.deck.files)
        return raw, raw * setup_factor(before + [sample_ms() for _ in range(3)])

    # --- one op -------------------------------------------------------

    def run_in_process(self, main, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the op failed; the run goes on
                code = f"{type(exc).__name__} escaped"
            ns = time.perf_counter_ns() - start
        return ns, code, out.getvalue(), err.getvalue()

    def reference(self, argv):
        """In-process result of an argv, untraced and memoized; used by the oracle."""
        if argv not in self.references:
            self.references[argv] = self.run_in_process(self.main, argv)[1:]
        return self.references[argv]

    def run_op(self, op, traced_main=None, tracer=None, op_no=0):
        """Return (ns, exit code, stdout, stderr) of one op."""
        if self.workload == "cli_session":
            return self.run_child(op, tracer, op_no)
        if self.workload != "warm_mixed":
            self.engine.clear_cache()
        if tracer:
            tracer.active = True
        try:
            if self.workload == "verify_sweep":
                start = time.perf_counter_ns()
                report = self.verify.run_all(op.argv[1], op.argv[2])
                return time.perf_counter_ns() - start, 0, report.to_json(), ""
            return self.run_in_process(traced_main or self.main, op.argv)
        finally:
            if tracer:
                tracer.active = False

    def run_child(self, op, tracer, op_no):
        out_path, err_path = os.path.join(self.workdir, "child.out"), os.path.join(self.workdir, "child.err")
        if tracer is None:
            ns, code, rss = spawn(["-m", "gwcell.cli", *op.argv], out_path, err_path)
        else:
            spans_path = os.path.join(self.workdir, "child.spans.json")
            start = time.perf_counter_ns()
            ns, code, rss = spawn([os.path.join(HERE, "trace_child.py"), spans_path, *op.argv], out_path, err_path)
            merge_child_trace(tracer, spans_path, op_no, start, ns)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        return ns, code, _read(out_path), _read(err_path)

    def check(self, op, code, out, err):
        """None if the op is right, else ("error", why) when it did not complete as documented or ("wrong", why)."""
        want = op.expect.get("exit", 0)
        if code != want:
            return "error", code if isinstance(code, str) else f"exit {code}, want {want}: {err.strip()[-200:]}"
        reason = self.oracle.check(op, code, out, err)
        if reason is None and self.workload == "cli_session" and (code, out) != self.reference(op.argv)[:2]:
            reason = "stdout or exit code differs from in-process cli.main"
        return ("wrong", reason) if reason else None

    def speedometer(self):
        """CLI children are scaled by a bare interpreter's start, in-process ops by the Python kernel."""
        if self.workload != "cli_session":
            return Speedometer()
        out, err = os.path.join(self.workdir, "kernel.out"), os.path.join(self.workdir, "kernel.err")
        return Speedometer(lambda: spawn(["-c", "pass"], out, err)[0] / 1e6, INTERPRETER_NOMINAL_MS, min_gap_s=0.5)

    # --- the loop -----------------------------------------------------

    def measure(self, seconds, deadline, traced_main=None, tracer=None):
        """Cycle the deck in whole passes for about `seconds` of op time.

        Whole passes keep the mix of cost classes exact; another pass starts
        only while it would end nearer to `seconds` than stopping now.
        Latencies come back raw and scaled to the nominal machine speed.
        """
        lat, starts, failures, stdout_bytes, passes = [], [], [], 0, 0
        digest = hashlib.sha256()
        speed = self.speedometer()
        spent = last_pass = 0.0
        while passes == 0 or (spent + last_pass / 2 < seconds and time.monotonic() < deadline):
            first = len(lat)
            for op in self.deck.ops:
                speed.tick()
                starts.append(time.monotonic())
                ns, code, out, err = self.run_op(op, traced_main, tracer, len(lat))
                lat.append(ns / 1e6)
                spent += ns / 1e9
                text = out if isinstance(out, str) else json.dumps(out, sort_keys=True, indent=2) + "\n"
                stdout_bytes += len(text.encode())
                if passes == 0:
                    digest.update(text.encode())
                failure = self.check(op, code, out, err)
                if failure:
                    failures.append((" ".join(map(str, op.argv)), *failure))
                if time.monotonic() > deadline:
                    break
            passes += 1
            last_pass = sum(lat[first:]) / 1e3
        speed.tick(force=True)
        return dict(
            lat=lat,
            norm=[x * speed.factor(t) for x, t in zip(lat, starts)],
            kernel=(statistics.median(speed.samples), speed.nominal_ms),
            failures=failures,
            stdout_bytes=stdout_bytes,
            passes=passes,
            digest=digest.hexdigest(),
        )

    def bad_table_probe(self):
        """A base table that fails its schema: documented as exit 1 with a JSON error."""
        path = os.path.join(self.workdir, "table_bad_schema.json")
        with open(path, "w") as f:
            json.dump({"name": "bad", "entries": [{"theory": "GW", "shift": 0, "twist": [], "degree": 0, "group": [-1]}]}, f)
        argv = ("grassmann", "-d", "2", "-m", "2", "--twist", "L", "--mode", "eval", "--base-table", path)
        _, code, out, err = self.run_in_process(self.main, argv)
        if not isinstance(code, str) and check_error({"exit": 1}, code, out, err) is None:
            return "pass"
        return f"FAIL ({code}; ROADMAP item 4)"


def merge_child_trace(tracer, path, op_no, start, wall_ns):
    """Fold a traced child's spans into the parent's tracer as one op.

    The child's non-cli layers keep their self times; the rest of the wall
    time (interpreter start, imports, argument parsing, printing, exit) is
    the cli layer's, so the op's self times add up to its wall time.
    """
    with open(path) as f:
        child = json.load(f)
    os.remove(path)
    for key in ("calls", "incl_ns", "errors", "counters"):
        getattr(tracer, key).update(child[key])
    own = {layer: ns for layer, ns in child["self_ns"].items() if layer != "cli"}
    own["cli"] = wall_ns - sum(own.values())
    tracer.self_ns.update(own)
    tracer.ops.append((op_no, wall_ns, own))
    root = tracer.next_id
    tracer.spans.append((op_no, root, -1, tracer.names.setdefault("cli.process", len(tracer.names)), start, start + wall_ns))
    names = {i: name for name, i in child["names"].items()}
    for _, span_id, parent, name_id, s, e in child["spans"]:
        if len(tracer.spans) >= MAX_SPANS:
            tracer.dropped += 1
            continue
        name = tracer.names.setdefault(names[name_id], len(tracer.names))
        tracer.spans.append((op_no, root + 1 + span_id, root + 1 + parent if parent >= 0 else root, name, s, e))
    tracer.next_id = root + 2 + max((s[1] for s in child["spans"]), default=0)
    tracer.dropped += child["dropped"]


# --- metrics ----------------------------------------------------------------


def tail(lat):
    """(p, value): the highest percentile up to p90 with at least ten samples above it."""
    if len(lat) < 11:
        return 50, statistics.median(lat)
    qs = statistics.quantiles(lat, n=100)
    for p in range(90, 49, -1):
        if sum(1 for x in lat if x > qs[p - 1]) >= 10:
            return p, qs[p - 1]
    return 50, statistics.median(lat)


def ops_per_s(lat_ms):
    return len(lat_ms) / (sum(lat_ms) / 1e3)


def end_to_end(bench, run, setups, workload):
    """{name: (value, unit)} with every time at the nominal machine speed."""
    p, p_tail = tail(run["norm"])
    if workload == "cli_session":
        rss_kib = bench.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(n for _, n in setups), "s"),
        "ops_per_s": (ops_per_s(run["norm"]), "1/s"),
        "op_p50_ms": (statistics.median(run["norm"]), "ms"),
        "op_p90_ms": (p_tail, "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }, p


def per_layer(tracer, untraced, traced, probes):
    """{name: (value, unit)} of a traced run; times and counts are per traced op and raw."""
    n = max(len(tracer.ops), 1)
    op_ns = sum(d for _, d, _ in tracer.ops)
    calls, incl, ctr, self_ns = tracer.calls, tracer.incl_ns, tracer.counters, tracer.self_ns
    summands = ctr["engine.summands"]
    scanned, returned = ctr["young.enumerate_even_scanned"], ctr["young.enumerate_even_returned"]
    per_op_ns = {
        "engine.decompose_ms": self_ns["engine"],
        "young.is_even_ms": incl["young.is_even"],
        "young.enumerate_even_ms": incl["young.enumerate_even"],
        "twist.child_twists_ms": incl["twist.child_twists"],
        "expr.validate_ms": incl["expr.validate_json"],
        "expr.to_json_ms": incl["expr.formal_sum_to_json"],
        "expr.witt_ms": incl["expr.witt_specialize"],
        "expr.evaluate_ms": incl["expr.evaluate"],
        "expr.table_load_ms": incl["expr.BaseTheoryTable.load"],
        "trace.op_ms": op_ns,
        "trace.unaccounted_ms": sum(abs(d - sum(s.values())) for _, d, s in tracer.ops),
    }
    per_op_ns.update({f"verify.{check}_ms": incl[f"verify.{check}"] for check in VERIFY_CHECKS})
    # the engine's self time is engine.decompose_ms
    per_op_ns.update({f"{layer}.self_ms": self_ns[layer] for layer in LAYERS if layer != "engine"})
    per_op_count = {
        "engine.decompose_calls": sum(calls[k] for k in ENGINE_DECOMPOSE),
        "engine.summands": summands,
        "young.is_even_calls": calls["young.is_even"],
        "young.enumerate_even_calls": calls["young.enumerate_even"],
        "twist.child_twists_calls": calls["twist.child_twists"],
        "expr.validate_calls": calls["expr.validate_json"],
        "verify.checks_failed": ctr["verify.checks_failed"],
        "trace.spans_per_op": len(tracer.spans) + tracer.dropped,
    }
    per_op_count.update({f"{layer}.errors": tracer.errors[layer] for layer in LAYERS})
    m = {name: (ns / n / 1e6, "ms/op") for name, ns in per_op_ns.items()}
    m.update({name: (count / n, "count/op") for name, count in per_op_count.items()})
    fast, slow = ops_per_s(untraced["norm"]), ops_per_s(traced["norm"])
    m.update(
        {
            "engine.ns_per_summand": (self_ns["engine"] / summands if summands else 0.0, "ns"),
            "young.is_even_per_summand": (calls["young.is_even"] / summands if summands else 0.0, "ratio"),
            "young.even_yield": (returned / max(scanned, returned) if returned else 0.0, "ratio"),
            "expr.validate_share": (incl["expr.validate_json"] / op_ns if op_ns else 0.0, "ratio"),
            "cli.interpreter_ms": (probes["interpreter_ms"], "ms"),
            "cli.import_ms": (probes["import_ms"], "ms"),
            "cli.import_jsonschema_ms": (probes["import_jsonschema_ms"], "ms"),
            "cli.stdout_bytes": (traced["stdout_bytes"] / len(traced["lat"]), "bytes/op"),
            "cli.bad_table_probe_failed": (probes["bad_table_failed"], "count"),
            "trace.ops_per_s_untraced": (fast, "1/s"),
            "trace.ops_per_s_traced": (slow, "1/s"),
            "trace.overhead_ratio": (fast / slow, "ratio"),
            "trace.kernel_ms": (traced["kernel"][0], "ms"),
        }
    )
    return m


def child_probes(bench):
    """Bare interpreter start and `import gwcell.cli` (with jsonschema's share), medians over child runs."""
    out, err = os.path.join(bench.workdir, "probe.out"), os.path.join(bench.workdir, "probe.err")
    interp, imports, js = [], [], []
    for _ in range(CHILD_PROBES):
        ns, _, _ = spawn(["-c", "pass"], out, err)
        interp.append(ns / 1e6)
        _, code, _ = spawn(["-X", "importtime", os.path.join(HERE, "trace_child.py"), "--import-probe"], out, err)
        if code != 0:
            raise RuntimeError(f"import probe failed: {_read(err)[-500:]}")
        imports.append(json.loads(_read(out))["import_ms"])
        js.append(_jsonschema_import_ms(_read(err)))
    return {
        "interpreter_ms": statistics.median(interp),
        "import_ms": statistics.median(imports),
        "import_jsonschema_ms": statistics.median(js),
    }


def _jsonschema_import_ms(importtime_log):
    """Cumulative time of the top-level jsonschema import in a -X importtime log (0 if never imported)."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "jsonschema":
            return int(parts[1]) / 1e3
    return 0.0


def setup_probe(workload, seed):
    """Set up in a child process; return its (raw, normalized) seconds."""
    out = os.path.join(OUT, f"setup-{workload}.out")
    err = os.path.join(OUT, f"setup-{workload}.err")
    _, code, _ = spawn([os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"], out, err)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {_read(err)[-500:]}")
    return tuple(json.loads(_read(out).splitlines()[-1])["setup_s"])


def environment(seed):
    try:
        from importlib.metadata import PackageNotFoundError, version

        js = version("jsonschema")
    except PackageNotFoundError:
        js = "absent"
    paths = sorted(
        os.path.relpath(os.path.join(base, name), SRC)
        for base, _, files in os.walk(SRC)
        for name in files
        if name.endswith(".py")
    )
    src = hashlib.sha256()
    for path in paths:
        with open(os.path.join(SRC, path), "rb") as f:
            src.update(path.encode() + b"\0" + f.read())
    return {
        "python": platform.python_version(),
        "jsonschema": js,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def _commit():
    """HEAD of a git checkout in the working directory, read without running git."""
    try:
        head = _read(os.path.join(".git", "HEAD")).strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            return _read(os.path.join(".git", ref)).strip()[:12]
        for line in _read(os.path.join(".git", "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


# --- entry point ------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gwcell", "cli.py")):
        print("run from the root of a gwcell checkout: src/gwcell/cli.py not found", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    bench = Bench(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": bench.setup()}))
        return 0

    deadline = time.monotonic() + HARD_CAP_S
    setups = [] if args.trace else [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setups.append(bench.setup())
    env = environment(args.seed)

    if args.trace:
        untraced = bench.measure(args.seconds / 3, deadline)
        tracer = Tracer()
        traced_main = install(tracer)
        run = bench.measure(args.seconds * 2 / 3, deadline, traced_main, tracer)
        probes = child_probes(bench)
        probes["bad_table_failed"] = 0 if bench.bad_table_probe() == "pass" else 1
        runs = [untraced, run]
        metrics = per_layer(tracer, untraced, run, probes)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as f:
            json.dump(
                {
                    "env": env,
                    "columns": ["op", "span", "parent", "name", "start_ns", "end_ns"],
                    "names": {i: name for name, i in tracer.names.items()},
                    "spans": tracer.spans,
                    "spans_dropped": tracer.dropped,
                    "ops": [{"op": i, "ns": d, "self_ns": s} for i, d, s in tracer.ops],
                },
                f,
            )
    else:
        run = bench.measure(args.seconds, deadline)
        runs = [run]
        metrics, p = end_to_end(bench, run, setups, args.workload)
        probe = bench.bad_table_probe()

    attempted = sum(len(r["lat"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    result = {
        "correct": attempted > 0 and not any(kind == "wrong" for _, kind, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    print(f"gwcell benchmark  workload={args.workload} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    kernel_ms, nominal_ms = run["kernel"]
    print(f"  machine: speed kernel {kernel_ms:.3f} ms median, times scaled to its {nominal_ms} ms (see speed.py)")
    if args.trace:
        print(f"  traced: {len(run['lat'])} ops; untraced: {len(untraced['lat'])} ops; spans in {trace_path}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:38s} {value:14.6g} {unit}")
    else:
        lat, norm, n = run["lat"], run["norm"], len(run["lat"])
        raw = {
            "setup_s": statistics.median(r for r, _ in setups),
            "ops_per_s": ops_per_s(lat),
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": tail(lat)[1],
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "ops_per_s": f"{n} ops, {run['passes']} deck passes, closed loop, 1 client",
            "op_p50_ms": f"median of {n} ops",
            "op_p90_ms": f"p{p} of {n} ops, {sum(1 for x in norm if x > metrics['op_p90_ms'][0])} above it",
            "peak_rss_mb": "ru_maxrss of the " + ("CLI children" if args.workload == "cli_session" else "benchmark process"),
        }
        for name, (value, unit) in metrics.items():
            raw_text = f"raw {raw[name]:.4f}" if name in raw else ""
            print(f"  {name:12s} {value:12.4f} {unit:4s} {raw_text:16s} {notes[name]}")
        print(f"  {'failed_ratio':12s} {len(failures) / attempted:12.4f} ratio {len(failures)} failed / {attempted} attempted")
        print(f"  stdout_sha256 {run['digest']} (first deck pass, {len(bench.deck.ops)} ops)")
        print(f"  bad-schema base table probe: {probe}")
    for argv_text, kind, reason in failures[:10]:
        print(f"  failed ({kind}): {argv_text}: {reason}")
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(dict(result, env=env, kernel=run["kernel"], failures=failures[:100], stdout_sha256=run["digest"]), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
