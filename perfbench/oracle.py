"""Per-op correctness checks, independent of the engine's own recursion.

Each ``check_*`` returns None when the op's result is right, else a short
reason.  The checks use closed forms (``young.beta_parity``, ``beta``,
``even_cardinality``, binomials) and an evenness test written from the
definition here, never the decomposition being checked.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb


def is_even(rows, d, m) -> bool:
    """Every interface segment has even length.

    Vertical segments are runs of equal row lengths strictly inside the
    frame; horizontal segments are the drops between consecutive rows.
    """
    runs = Counter(r for r in rows if 0 < r < m)
    return all(n % 2 == 0 for n in runs.values()) and all((rows[i] - rows[i + 1]) % 2 == 0 for i in range(d - 1))


def _in_frame(rows, d, m) -> bool:
    return len(rows) == d and all(0 <= r <= m for r in rows) and all(a >= b for a, b in zip(rows, rows[1:]))


def _json_error(stderr: str) -> bool:
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    if not lines:
        return False
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return False
    return isinstance(doc, dict) and "error" in doc


def check_error(e, code, stdout, stderr):
    if code != e["exit"]:
        return f"exit {code}, want {e['exit']}"
    if stdout:
        return "stdout not empty"
    if not _json_error(stderr):
        return "no JSON error on stderr"
    if "missing" in e and json.loads(stderr.strip().splitlines()[-1]).get("keys") != e["missing"]:
        return "missing-keys list differs"
    return None


def check_grassmann_doc(e, doc, young):
    d, m, shift = e["d"], e["m"], e["shift"]
    witt = e["mode"] == "witt"
    gw = doc["gw"]
    want_k = 0 if witt else sum(young.beta_parity(t, d, m) for t in e["classes"])
    if doc["k"] != want_k:
        return f"k = {doc['k']}, want {want_k}"
    per_class = Counter(g["t"] for g in gw)
    for t in e["classes"]:
        want = comb(d + m, d) - 2 * young.beta_parity(t, d, m)
        if per_class[t] != want:
            return f"class {t}: {per_class[t]} GW summands, want C(d+m,d) - 2k = {want}"
    if set(per_class) - set(e["classes"]):
        return "summand in a class not asked for"
    for g in gw:
        rows = g["diagram"]
        if not _in_frame(rows, d, m) or not is_even(rows, d, m):
            return f"diagram {rows} is not an even diagram of the {d}x{m} frame"
        want_shift = shift - sum(rows)
        if g["shift"] != (want_shift % 4 if witt else want_shift):
            return f"shift {g['shift']} for diagram {rows}, want query shift - boxes"
        twist = sorted(e["base"] + (["detV"] if e["bundle"] == "flagged" and g["rho"] == 1 else []))
        if g["twist"] != twist or g["rho"] not in (0, 1):
            return f"twist {g['twist']} (rho {g['rho']}), want {twist}"
    if len(e["classes"]) == 2:
        distinct = {tuple(g["diagram"]) for g in gw}
        if len(distinct) != young.even_cardinality(d, m):
            return f"{len(distinct)} distinct diagrams, want even_cardinality = {young.even_cardinality(d, m)}"
    meta = doc["meta"]
    if (meta.get("d"), meta.get("m"), meta.get("shift"), meta.get("bundle")) != (d, m, shift, e["bundle"]):
        return "meta does not echo the query"
    return None


def expected_group(formal_doc, table_doc, degree):
    """Cyclic orders of the evaluated sum: table lookups over a checked formal sum."""
    index = {(x["theory"], x["shift"], tuple(sorted(x["twist"])), x["degree"]): x["group"] for x in table_doc["entries"]}
    orders = index[("K", 0, (), degree)] * formal_doc["k"]
    for g in formal_doc["gw"]:
        orders = orders + index[("GW", g["shift"], tuple(g["twist"]), degree)]
    return sorted(o for o in orders if o != 1)


def check_young(e, out):
    d, m = e["d"], e["m"]
    want = comb(d + m, d)
    if e["render"] == "ascii":
        blocks = out.rstrip("\n").split("\n\n")
        if any(len(b.splitlines()) != d + 2 for b in blocks):
            return "ascii block of the wrong height"
        rows = [tuple(line[1:-1].count("#") for line in b.splitlines()[1:-1]) for b in blocks]
    else:
        doc = json.loads(out)
        rows = [tuple(r) for r in doc["diagrams"]]
        if doc["frame"] != {"d": d, "m": m} or doc["even_only"] != e["even"]:
            return "frame or even_only does not echo the query"
    if e["even"]:
        want = 2 * comb(d // 2 + m // 2, d // 2)
        if not all(is_even(r, d, m) for r in rows):
            return "uneven diagram listed"
    if len(set(rows)) != len(rows) or len(rows) != want or not all(_in_frame(r, d, m) for r in rows):
        return f"{len(rows)} diagrams, want {want} distinct ones in the frame"
    return None


def _check_projective(doc, r, parity, shift):
    k, shifts = {
        (0, 0): (r // 2, [shift]),
        (0, 1): (r // 2, [shift - r]),
        (1, 1): ((r + 1) // 2, []),
        (1, 0): ((r - 1) // 2, [shift - r, shift]),
    }[(r % 2, parity)]
    got = sorted(g["shift"] for g in doc["gw"])
    if doc["k"] != k or got != sorted(shifts) or 2 * doc["k"] + len(doc["gw"]) != r + 1:
        return f"k {doc['k']} shifts {got}, want k {k} shifts {sorted(shifts)} (rank r+1 = {r + 1})"
    return None


def _check_les(doc, r, shift):
    terms = doc["terms"]
    if len(terms) != 3 or len(doc["maps"]) != 3:
        return "sequence is not three terms with three maps"
    if terms[0]["k"] != (r - 1) // 2 or [g["shift"] for g in terms[2]["gw"]] != [shift - r]:
        return "sequence terms do not match Theorem D"
    return None


def check_projbundle(e, out):
    doc = json.loads(out)
    if not e["split"] and e["r"] % 2 == 1 and e["parity"] == 0:
        return _check_les(doc, e["r"], e["shift"])
    return _check_projective(doc, e["r"], e["parity"], e["shift"])


def check_witt_doc(e, doc, young):
    if any(not 0 <= g["shift"] <= 3 for g in doc["gw"]):
        return "Witt shift outside 0..3"
    return check_grassmann_doc(e, doc, young)


class Oracle:
    """Checks op results; remembers each distinct op's first output so repeats compare bytes."""

    def __init__(self, young, run_reference, tables):
        self.young = young
        self.run_reference = run_reference  # argv -> (code, stdout, stderr), in process
        self.tables = tables
        self.seen = {}

    def check(self, op, code, stdout, stderr):
        key = op.argv
        if key in self.seen:
            return None if self.seen[key] == (code, stdout) else "output differs from an earlier run of the same op"
        try:
            reason = self._check_new(op, code, stdout, stderr)
        except (ValueError, KeyError, TypeError, IndexError) as exc:  # output not in the documented shape
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is None:
            self.seen[key] = (code, stdout)
        return reason

    def _check_new(self, op, code, stdout, stderr):
        e = op.expect
        if e["cmd"] == "error":
            return check_error(e, code, stdout, stderr)
        if e["cmd"] == "verify":
            return None if stdout["ok"] else f"report failed: {stdout['summary']}"
        if e["cmd"] == "young":
            return check_young(e, stdout)
        if e["cmd"] == "projbundle":
            return check_projbundle(e, stdout)
        if e["cmd"] == "les":
            return _check_les(json.loads(stdout), e["r"], e["shift"])
        if e["mode"] == "eval":
            return self._check_eval(op, stdout)
        doc = json.loads(stdout)
        return check_witt_doc(e, doc, self.young) if e["mode"] == "witt" else check_grassmann_doc(e, doc, self.young)

    def _check_eval(self, op, stdout):
        e = op.expect
        i = op.argv.index("--mode")
        formal_argv = op.argv[:i] + op.argv[i + 2 : op.argv.index("--base-table")]
        code, formal_out, _ = self.run_reference(formal_argv)
        formal = json.loads(formal_out)
        reason = check_grassmann_doc(dict(e, mode="formal"), formal, self.young)
        if code != 0 or reason:
            return f"formal decomposition behind the evaluation is wrong: {reason}"
        doc = json.loads(stdout)
        want = expected_group(formal, self.tables[e["table"]], e["degree"])
        if doc != {"degree": e["degree"], "group": want}:
            return f"group {doc}, want {want}"
        return None
