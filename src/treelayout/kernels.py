"""Grid-geometry kernels: the hot inner loops of the engine.

Per-cell rasterization, the free cells on each side of an anchor as
bit masks, and the overlap scan of one box against the placed boxes.

Every coordinate is a whole number of length units (0.01 mm), so each
test is an exact integer comparison.  Cells are indexed row-major:
``index = row * cols + col``; cell (r, c) covers ``[c*s, (c+1)*s] x
[r*s, (r+1)*s]``.  Occupancy codes: 0 free, 1 occupied, 2
anchor-occupied.  Rectangles have positive extents, so two overlap with
positive area exactly when their open x spans and their open y spans
meet; rectangles sharing an edge do not overlap.

A set of cells is also held as one integer, a mask laid out as
``OccupancyGrid.free_flat``: bit ``r * stride + c`` for the cell at row
``r`` and column ``c``, with ``stride`` bits per row, at least ``cols``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache


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


@lru_cache(maxsize=256)
def row_repeat(rows: int, stride: int) -> int:
    """Bit ``r * stride`` for each of ``rows`` rows: times a row mask, that
    mask on every row of a flat grid integer."""
    return sum(1 << r * stride for r in range(rows))


def free_cells_on_side(
    cols: int,
    rows: int,
    stride: int,
    cell: int,
    free_flat: int,
    ax0: int, ay0: int, ax1: int, ay1: int,
) -> tuple[int, int, int, int]:
    """Masks of the free cells strictly on each side of the anchor
    rectangle, (left, right, bottom, top), given the free cells
    ``free_flat`` of a grid laid out with ``stride`` bits per row.

    A cell is left when its max-x <= anchor min-x, that is its column is
    below ``ax0 // cell``; right when its min-x >= anchor max-x, its column
    at least ``ceil(ax1 / cell)``; likewise bottom/top on y, so flush cells
    count.  Each bound is clamped to the grid, so an anchor may reach past
    it: a side it spills over has no cells.
    """
    left, right = min(max(ax0 // cell, 0), cols), min(max(-(-ax1 // cell), 0), cols)
    below, above = min(max(ay0 // cell, 0), rows), min(max(-(-ay1 // cell), 0), rows)
    every_row = row_repeat(rows, stride)
    return (
        free_flat & ((1 << left) - 1) * every_row,
        free_flat & ((1 << cols) - (1 << right)) * every_row,
        free_flat & (1 << below * stride) - 1,
        free_flat >> above * stride << above * stride,
    )


def first_overlap(
    x0: int, y0: int, x1: int, y1: int,
    rects: Sequence[tuple[int, int, int, int]],
) -> int:
    """Index of the first rect overlapping (x0,y0,x1,y1), else -1,
    scanning the rects in order: the overlap term of the legality
    verdict on a completed pose (``_Lattice.verdict``)."""
    return next((i for i, (bx0, by0, bx1, by1) in enumerate(rects)
                 if x0 < bx1 and bx0 < x1 and y0 < by1 and by0 < y1), -1)
