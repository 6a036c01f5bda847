"""Grid-geometry kernels: the hot inner loops of the engine.

Per-cell rasterization, free cells bucketed by side of an anchor (one
pass for all four sides), and the overlap scan of one box against the
placed boxes.

Every coordinate is a whole number of length units (0.01 mm), so each
test is an exact integer comparison.  Cells are indexed row-major:
``index = row * cols + col``; cell (r, c) covers ``[c*s, (c+1)*s] x
[r*s, (r+1)*s]``.  Occupancy codes: 0 free, 1 occupied, 2
anchor-occupied.  Rectangles have positive extents, so two overlap with
positive area exactly when their open x spans and their open y spans
meet; rectangles sharing an edge do not overlap.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import compress
from operator import not_


def _cells_meeting(lo: int, hi: int, cell: int, n: int) -> range:
    """The cells among ``n`` of edge ``cell`` whose open span meets ``(lo, hi)``."""
    return range(max(0, lo // cell), min(n, -(-hi // cell)))


def rasterize_codes(
    cols: int,
    rows: int,
    cell: int,
    rects: list[tuple[int, int, int, int, int]],
) -> list[int]:
    """Occupancy code per cell: the highest code of any rect that overlaps
    the cell with positive area (shared edges never mark)."""
    codes = [0] * (rows * cols)
    for (x0, y0, x1, y1, code) in rects:
        covered = _cells_meeting(x0, x1, cell, cols)
        for r in _cells_meeting(y0, y1, cell, rows):
            base = r * cols
            for c in covered:
                if code > codes[base + c]:
                    codes[base + c] = code
    return codes


def free_cells_on_side(
    cols: int,
    rows: int,
    cell: int,
    codes: Sequence[int],
    ax0: int, ay0: int, ax1: int, ay1: int,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Indices of the free cells strictly on each side of the anchor
    rectangle, bucketed (left, right, bottom, top), each in row-major order.

    A cell is left when its max-x <= anchor min-x, that is its column is
    below ``ax0 // cell``; right when its min-x >= anchor max-x, its column
    at least ``ceil(ax1 / cell)``; likewise bottom/top on y, so flush cells
    count.  One pass picks the free cells of the grid; each row's share
    is then split by column with a search of the sorted indices.
    """
    left, right, bottom, top = [], [], [], []
    left_end, right_start = ax0 // cell, max(-(-ax1 // cell), 0)
    bottom_end, top_start = ay0 // cell, -(-ay1 // cell)
    free_cells = list(compress(range(rows * cols), map(not_, codes)))
    start = 0
    for r in range(rows):
        base = r * cols
        end = bisect_left(free_cells, base + cols, start)
        free = free_cells[start:end]
        start = end
        if left_end > 0:
            left += free[:bisect_left(free, base + left_end)]
        if right_start < cols:
            right += free[bisect_left(free, base + right_start):]
        if r < bottom_end:
            bottom += free
        if r >= top_start:
            top += free
    return left, right, bottom, top


def first_overlap(
    x0: int, y0: int, x1: int, y1: int,
    rects: Sequence[tuple[int, int, int, int]],
) -> int:
    """Index of the first rect overlapping (x0,y0,x1,y1), else -1,
    scanning the rects in order: the overlap term of the legality
    verdict on a completed pose (``_Lattice.verdict``)."""
    return next((i for i, (bx0, by0, bx1, by1) in enumerate(rects)
                 if x0 < bx1 and bx0 < x1 and y0 < by1 and by0 < y1), -1)
