"""Grid scan of a row vector's interface: the oracle the tests hold ``verify.check_interface_oracle`` and the evenness rule to.

The check feeds ``_row_edges`` to a depth-first walk over row vectors;
this scan sorts one vector's edges instead.
"""

from gwcell.verify import ORACLE_FRAME_LIMIT, _row_edges


def brute_force_interface(rows: tuple[int, ...], m: int) -> tuple[tuple[str, int], ...]:
    """Independent interface oracle: a grid scan over the filled boxes of a row vector in a frame of width m.

    Returns the (orientation, length) of each maximal straight segment,
    from the top-right of the frame to the bottom-left.  Collects every
    row's edges (``_row_edges``) and sorts them all along the staircase
    (both unit steps increase y - x by one), which assumes nothing about
    the order the rows give them in.  A segment grows while the next edge
    keeps its orientation and is at the next position.  Calls no evenness rule.
    """
    d = len(rows)
    if d > ORACLE_FRAME_LIMIT or m > ORACLE_FRAME_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_FRAME_LIMIT}x{ORACLE_FRAME_LIMIT} frames")
    edges = []  # (path position, orientation)
    for i in range(1, d + 1):
        edges += _row_edges(i, rows[i - 1], rows[i - 2] if i > 1 else rows[0], m)
    orients, lengths, next_pos = [], [], None
    for pos, orient in sorted(edges):
        if pos == next_pos and orient == orients[-1]:
            lengths[-1] += 1
        else:
            orients.append(orient)
            lengths.append(1)
        next_pos = pos + 1
    return tuple(zip(orients, lengths))
