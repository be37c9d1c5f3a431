"""Seeded inputs for the four workloads.

Every workload is a deck: a fixed list of slots, cycled in whole passes.  A
slot fixes what sets an op's cost (frame shape and size band, twist class
where it matters, command), and the seed fills in the rest (exact size
within the band, orientation, twist spelling, bundle, shift, mode details,
table contents) and shuffles the deck.  Each run therefore executes the
same mix of cost classes, and the slots are weighted so that the median and
the tail percentile fall inside a class of similar ops, not on the boundary
between two classes, where the percentile would jump from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("cold_large", "warm_mixed", "cli_session", "verify_sweep")

# Twist spellings per parity class, with the base twist they leave once
# the tautological determinant Delta is removed.
EVEN_TWISTS = {"even": ["L"], "L": ["L"], "M": ["M"], "L,M": ["L", "M"]}
ODD_TWISTS = {"odd": ["L"], "L,Delta": ["L"], "Delta": [], "M,Delta": ["M"]}


@dataclass(frozen=True)
class Op:
    """One operation: a gwcell CLI argv (or run_all bounds) and what the oracle needs."""

    argv: tuple
    expect: dict


@dataclass
class Deck:
    ops: list
    files: dict  # relative path -> JSON document the ops read


def _twist(rng, klass):
    """klass: 'both', 'even', 'odd' or 'any' (either class, seed's choice)."""
    if klass == "both":
        return "both", [0, 1], ["L"]
    if klass == "any":
        klass = rng.choice(["even", "odd"])
    table = EVEN_TWISTS if klass == "even" else ODD_TWISTS
    spec = rng.choice(sorted(table))
    return spec, [0 if klass == "even" else 1], table[spec]


def _grassmann(rng, d, m, klass, mode="formal", table=None, degree=0, bundle=None):
    spec, classes, base = _twist(rng, klass)
    shift = rng.randint(-8, 8)
    bundle = bundle or rng.choice(["trivial", "flagged"])
    argv = ["grassmann", "-d", str(d), "-m", str(m), f"--shift={shift}", "--twist", spec, "--bundle", bundle]
    if mode != "formal":
        argv += ["--mode", mode]
    if mode == "eval":
        argv += ["--base-table", table, f"--degree={degree}"]
    expect = dict(cmd="grassmann", d=d, m=m, shift=shift, classes=classes, base=base, bundle=bundle, mode=mode)
    if mode == "eval":
        expect.update(table=table, degree=degree)
    return Op(tuple(argv), expect)


def _thin(rng, thin, lo, hi, bundle, transposed=False):
    """A thin x long frame (long x thin if transposed), long in [lo, hi], both twist classes."""
    long = rng.randint(lo, hi)
    d, m = (long, thin) if transposed else (thin, long)
    return _grassmann(rng, d, m, "both", bundle=bundle)


def _square(rng, n, klass, bundle):
    # For odd n the odd class is concentrated (no GW summand) and ~20x
    # cheaper, so single-class slots on odd n stay in the even class.
    if n % 2 == 1 and klass == "any":
        klass = "even"
    return _grassmann(rng, n, n, klass, bundle=bundle)


def cold_large(rng, workdir):
    """Output-heavy grassmann queries; the engine cache is cleared before each op.

    The bundle is fixed per slot: a flagged thin frame costs up to 40% more
    than a trivial one.
    """
    t, f = "trivial", "flagged"
    ops = [
        # 7 cheap slots, about 60-120 ms each at the seed
        _square(rng, 9, "both", t),
        _square(rng, 9, "any", f),
        _square(rng, 8, "both", f),
        _thin(rng, 2, 95, 110, t),
        _thin(rng, 2, 95, 110, f),
        _thin(rng, 3, 95, 110, t),
        _square(rng, 10, "any", t),
        # 7 middle slots, about 200-250 ms: the median falls here
        _square(rng, 10, "both", t),
        _square(rng, 10, "both", f),
        _thin(rng, 2, 190, 210, f),
        _thin(rng, 2, 95, 105, t, transposed=True),
        _thin(rng, 3, 95, 105, f, transposed=True),
        _square(rng, 11, "both", t),
        _square(rng, 11, "any", f),
        # 2 upper slots, about 300 ms
        _square(rng, 12, "even", t),
        _thin(rng, 3, 145, 160, f),
        # 4 tail slots, about 420-440 ms: the tail percentile falls here
        _thin(rng, 2, 290, 300, f),
        _thin(rng, 2, 290, 300, f),
        _thin(rng, 3, 195, 205, t),
        _square(rng, 12, "odd", t),
    ]
    rng.shuffle(ops)
    return Deck(ops, {})


def _small_frame(rng, cap):
    while True:
        d, m = rng.randint(1, 5), rng.randint(1, 5)
        if d * m <= cap:
            return d, m


def _table_entries(rng, ops):
    """Entries covering every key the eval ops can ask for, groups drawn from the seed."""
    keys = set()
    for op in ops:
        e = op.expect
        if e.get("mode") != "eval":
            continue
        keys.add(("K", 0, (), e["degree"]))
        twists = [tuple(sorted(e["base"]))]
        if e["bundle"] == "flagged":
            twists.append(tuple(sorted(e["base"] + ["detV"])))
        for boxes in range(e["d"] * e["m"] + 1):
            for tw in twists:
                keys.add(("GW", e["shift"] - boxes, tw, e["degree"]))
    groups = ([0], [2], [], [0, 2], [0, 0], [4], [0, 2, 2])
    return [
        {"theory": t, "shift": s, "twist": list(tw), "degree": deg, "group": list(rng.choice(groups))}
        for t, s, tw, deg in sorted(keys)
    ]


def _bad_frame(rng):
    k = rng.randint(1, 6)
    argv = rng.choice(
        [
            ["grassmann", "-d", "0", "-m", str(k), "--twist", "both"],
            ["grassmann", "-d", str(-k), "-m", "3", "--twist", "even"],
            ["young", "-d", str(-k), "-m", "2"],
            ["projbundle", "-r", "0"],
            ["les", "-r", str(2 * k)],
        ]
    )
    return Op(tuple(argv), dict(cmd="error", exit=1))


def _young(rng):
    d, m = rng.randint(1, 4), rng.randint(1, 4)
    even = rng.random() < 0.5
    render = rng.choice(["json", "ascii"])
    argv = ["young", "-d", str(d), "-m", str(m), "--render", render] + (["--even"] if even else [])
    return Op(tuple(argv), dict(cmd="young", d=d, m=m, even=even, render=render))


def _projbundle(rng, split):
    r = rng.choice([1, 3, 5, 7, 9, 11]) if not split else rng.randint(1, 12)
    parity = 0 if not split else rng.randint(0, 1)
    shift = rng.randint(-8, 8)
    argv = ["projbundle", "-r", str(r), f"--parity={parity}", f"--shift={shift}"] + ([] if split else ["--no-split"])
    return Op(tuple(argv), dict(cmd="projbundle", r=r, parity=parity, shift=shift, split=split))


def _les(rng):
    r, shift = rng.choice([1, 3, 5, 7, 9, 11]), rng.randint(-8, 8)
    return Op(("les", "-r", str(r), f"--shift={shift}"), dict(cmd="les", r=r, shift=shift))


def small_mixed(rng, workdir):
    """Small ops of every command, plus the documented error cases; shared by warm_mixed and cli_session."""
    full = os.path.join(workdir, "table_full.json")
    partial = os.path.join(workdir, "table_no_k.json")
    ops = []
    # 6 young ops and 2 bad frames: about 2 ms in process
    ops += [_young(rng) for _ in range(6)]
    ops += [_bad_frame(rng) for _ in range(2)]
    # 22 small validated ops, about 8-15 ms in process: the median falls here
    for _ in range(8):
        ops.append(_grassmann(rng, *_small_frame(rng, 16), "any"))
    for _ in range(5):
        ops.append(_grassmann(rng, *_small_frame(rng, 16), rng.choice(["any", "both"]), mode="witt"))
    for _ in range(4):
        d, m = _small_frame(rng, 9)
        ops.append(_grassmann(rng, d, m, "any", mode="eval", table=full, degree=rng.randint(0, 1)))
    d, m = _small_frame(rng, 9)
    missing = _grassmann(rng, d, m, "both", mode="eval", table=partial, degree=rng.randint(0, 1))
    ops.append(Op(missing.argv, dict(cmd="error", exit=3, missing=[["K", "0", "()", str(missing.expect["degree"])]])))
    ops += [_projbundle(rng, split=True) for _ in range(4)]
    # 8 larger ops, about 15-20 ms: the tail percentile falls here
    for _ in range(4):
        ops.append(_grassmann(rng, rng.randint(6, 7), rng.randint(6, 7), "both", mode=rng.choice(["formal", "witt"])))
    ops += [_projbundle(rng, split=False) for _ in range(2)]
    ops += [_les(rng) for _ in range(2)]
    # 2 top slots, about 25 and 45 ms
    ops.append(_grassmann(rng, *rng.choice([(7, 8), (8, 7)]), "both"))
    ops.append(_grassmann(rng, 8, 8, "both", mode=rng.choice(["formal", "witt"])))
    entries = _table_entries(rng, [op for op in ops if op.expect.get("table") == full] + [missing])
    name = f"seeded base table {rng.getrandbits(32):08x}"
    no_k = [e for e in entries if e["theory"] != "K"]
    files = {full: {"name": name, "entries": entries}, partial: {"name": name + " without K", "entries": no_k}}
    rng.shuffle(ops)
    return Deck(ops, files)


def verify_sweep(rng, workdir):
    """verify.run_all over seeded frame bounds; the cache is cleared before each op."""

    def pair(a, b):
        d, m = (a, b) if rng.random() < 0.5 else (b, a)
        return Op(("run_all", d, m), dict(cmd="verify"))

    ops = [pair(5, 5) for _ in range(6)]  # about 0.12 s
    ops += [pair(6, 6) for _ in range(2)] + [pair(5, 6) for _ in range(3)] + [pair(5, 7) for _ in range(3)]  # 0.25-0.35 s
    ops += [pair(6, 7)]  # about 0.5 s
    ops += [pair(7, 7) for _ in range(4)]  # about 0.6 s: the tail percentile falls here
    ops += [pair(8, 8)]  # about 2 s, brute-force enumeration at its largest
    rng.shuffle(ops)
    return Deck(ops, {})


_BUILDERS = {
    "cold_large": cold_large,
    "warm_mixed": small_mixed,
    "cli_session": small_mixed,
    "verify_sweep": verify_sweep,
}


def build(workload: str, seed: int, workdir: str) -> Deck:
    """The deck for one workload and seed; writes the files its ops read."""
    rng = random.Random(f"{workload}:{seed}")
    deck = _BUILDERS[workload](rng, workdir)
    os.makedirs(workdir, exist_ok=True)
    for path, doc in deck.files.items():
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
    return deck
