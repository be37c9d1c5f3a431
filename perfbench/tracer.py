"""Spans around the calls into gwcell's layers, recorded from outside the program.

Nothing under ``src/`` is edited.  ``install`` rebinds public names in the
module namespace where the *calling* module looks them up (``young.is_even``
as seen by ``engine._solve``, ``formal_sum_to_json`` as imported into
``gwcell.cli``...) to a wrapper that records a span.  A span is
(op id, span id, parent span id, name, start ns, end ns); spans stay in
memory and are written when the run ends.

A layer's self time is the duration of its spans minus the part covered by
child spans, so for every op the self times of all layers add up to the
duration of the op's root span.
"""

from __future__ import annotations

import time
from collections import Counter

LAYERS = ("cli", "engine", "young", "twist", "expr", "verify")

# Checks of gwcell.verify, each reported as verify.<name>_ms.
VERIFY_CHECKS = (
    "check_fixtures",
    "check_cardinality",
    "check_pascal",
    "check_beta_parity_sum",
    "check_engine_vs_enumeration",
    "check_k_counts",
    "check_odd_odd",
    "check_transpose",
    "check_witt_counts",
    "check_determinism",
    "check_interface_oracle",
)

# Engine entry points, each reported under its own span name.
ENGINE_DECOMPOSE = (
    "engine.decompose_total",
    "engine.decompose_grassmannian",
    "engine.decompose_projective_bundle",
    "engine.les_theorem_d",
)

# Spans kept for the trace file; counters and self times cover every call.
MAX_SPANS = 100_000


def _summands(result) -> int:
    if hasattr(result, "gw"):
        return len(result.gw)
    return sum(len(t.gw) for t in getattr(result, "terms", ()) if hasattr(t, "gw"))


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []  # [span id, layer, child ns]
        self.next_id = 0
        self.op_id = -1
        self.spans = []
        self.dropped = 0
        self.names = {}
        self.calls = Counter()
        self.incl_ns = Counter()
        self.self_ns = Counter()  # per layer, whole run
        self.errors = Counter()  # per layer: exceptions that leave the layer
        self.counters = Counter()
        self.ops = []  # (op id, duration ns, {layer: self ns})
        self._op_self = Counter()

    def wrap(self, name: str, layer: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = tracer.next_id
            tracer.next_id += 1
            if parent is None:
                tracer.op_id += 1
                tracer._op_self = Counter()
            frame = [span_id, layer, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[1] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - start
                own = dur - frame[2]
                tracer.self_ns[layer] += own
                tracer._op_self[layer] += own
                tracer.calls[name] += 1
                tracer.incl_ns[name] += dur
                if parent is not None:
                    parent[2] += dur
                else:
                    tracer.ops.append((tracer.op_id, dur, dict(tracer._op_self)))
                if len(tracer.spans) < MAX_SPANS:
                    name_id = tracer.names.setdefault(name, len(tracer.names))
                    tracer.spans.append((tracer.op_id, span_id, parent[0] if parent else -1, name_id, start, end))
                else:
                    tracer.dropped += 1
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, n: int = 1):
        self.counters[key] += n


def install(tracer: Tracer):
    """Wrap the public names each gwcell module calls in another; return cli.main wrapped as the op root."""
    import gwcell.cli as cli
    from gwcell import expr, twist, verify, young

    def patch(module, attr, name, layer, on_result=None):
        original = getattr(module, attr)
        setattr(module, attr, tracer.wrap(name, layer, original, on_result))

    def count_summands(_args, result):
        tracer.count("engine.summands", _summands(result))

    def count_checks(_args, report):
        tracer.count("verify.checks_failed", sum(1 for c in report.checks if c["status"] == "fail"))

    # young: looked up as young.<name> by engine, cli and verify, and as a
    # module global by young.enumerate_even itself.
    for attr in ("is_even", "enumerate_diagrams", "verify_pascal", "render_ascii"):
        patch(young, attr, f"young.{attr}", "young")
    original_enumerate_even = young.enumerate_even

    def enumerate_even(frame):
        before = tracer.calls["young.is_even"]
        out = original_enumerate_even(frame)
        tracer.count("young.enumerate_even_scanned", tracer.calls["young.is_even"] - before)
        tracer.count("young.enumerate_even_returned", len(out))
        return out

    young.enumerate_even = tracer.wrap("young.enumerate_even", "young", enumerate_even)

    # twist: engine._solve calls tw.child_twists once per inner node.
    patch(twist, "child_twists", "twist.child_twists", "twist")

    # expr: validate_json is a module global of expr; the rest are imported
    # by name into cli and verify (and formal_sum_to_json is also called by
    # expr.les_to_json).
    patch(expr, "validate_json", "expr.validate_json", "expr")
    for module in (cli, verify, expr):
        patch(module, "formal_sum_to_json", "expr.formal_sum_to_json", "expr")
    for module in (cli, verify):
        patch(module, "witt_specialize", "expr.witt_specialize", "expr")
    patch(cli, "les_to_json", "expr.les_to_json", "expr")
    patch(cli, "evaluate", "expr.evaluate", "expr")
    load = expr.BaseTheoryTable.load.__func__
    expr.BaseTheoryTable.load = classmethod(tracer.wrap("expr.BaseTheoryTable.load", "expr", load))

    # engine: the decompose entry points as imported into cli and verify.
    for name in ENGINE_DECOMPOSE:
        attr = name.split(".")[1]
        patch(cli, attr, name, "engine", count_summands)
    for attr in ("decompose_total", "decompose_grassmannian"):
        patch(verify, attr, f"engine.{attr}", "engine", count_summands)
    patch(verify, "clear_cache", "engine.clear_cache", "engine")

    # verify: run_all calls each check as a module global.
    for attr in VERIFY_CHECKS:
        patch(verify, attr, f"verify.{attr}", "verify")
    patch(verify, "run_all", "verify.run_all", "verify", count_checks)

    return tracer.wrap("cli.main", "cli", cli.main)
