"""Reference walk: the splitting recursion with each leaf carried as its boundary word.

A diagram's boundary, walked from the bottom-left corner of its frame to
the top-right one, is its boundary word: d + m unit steps, "N" once per
row and "E" once per column.  A row's length is the number of E steps
before its N step.  This walk builds its leaves' words by prepending
steps, E for a full column and N for an empty row, and decodes rows once
per leaf.  It carries its own base cases and split rule in word form, so
it shares no leaf code with ``gwcell.engine``, which carries row vectors.
"""

from itertools import accumulate
from math import comb


def boundary_word(diagram) -> str:
    """The boundary word of a diagram, bottom row first."""
    steps, prev = [], 0
    for r in reversed(diagram.rows):
        steps.append("E" * (r - prev) + "N")
        prev = r
    steps.append("E" * (diagram.frame.m - prev))
    return "".join(steps)


def rows_of_word(word: str) -> tuple[int, ...]:
    """Row lengths, top row first, of a boundary word."""
    return tuple(accumulate(map(len, word.split("N")[:-1])))[::-1]


def base_words(d, m, eps):
    """Boundary words and rho bits of the leaves at d = 0, m = 0, d = 1 and m = 1; None elsewhere."""
    if d == 0:
        return (("E" * m, 0),)
    if m == 0:
        return (("N" * d, eps),)
    if d == 1:
        return ((("N" + "E" * m, 0),) if eps == 0 else ()) + ((("E" * m + "N", 1),) if eps != m % 2 else ())
    if m == 1:
        return ((("N" * d + "E", 0),) if eps == 0 else ()) + ((("E" + "N" * d, 1 - eps),) if eps != d % 2 else ())
    return None


def split_words(d, m, eps):
    """The two children ((cd, cm, ceps), step) of an inner node; step is prepended to the child's words."""
    step = 1 if eps == (d - 1) % 2 else 2
    return ((d, m - step, d % 2), "E" * step), ((d - step, m, (d - step) % 2), "N" * step)


def solve_by_words(d, m, eps):
    """K count and GW leaves (rows, rho) of a node, walked as words ``head + w`` and decoded per leaf."""
    leaves = []
    stack = [(d, m, eps, "")]
    while stack:
        d_, m_, eps_, head = stack.pop()
        base = base_words(d_, m_, eps_)
        if base is not None:
            leaves.extend((rows_of_word(head + word), rho) for word, rho in base)
        else:
            stack.extend((*node, head + step) for node, step in split_words(d_, m_, eps_))
    return (comb(d + m, d) - len(leaves)) // 2, leaves
