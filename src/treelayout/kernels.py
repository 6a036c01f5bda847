"""Grid-geometry kernels: the hot inner loops of the engine.

Per-cell rasterization, free cells bucketed by side of an anchor (one
pass for all four sides), and rectangle overlap scans, per box or for a
block of boxes at once.

Cells are indexed row-major: ``index = row * cols + col``; cell (r, c)
covers ``[c*s, (c+1)*s] x [r*s, (r+1)*s]``.  Occupancy codes: 0 free,
1 occupied, 2 anchor-occupied.

Block scans take the boxes as column spans ``(x0, x1)`` times row spans
``(y0, y1)`` and answer with one integer bitmask per row, bit ``c`` for
column ``c``.
"""

from __future__ import annotations

from collections.abc import Sequence

_EPS = 1e-9


def rasterize_codes(
    cols: int,
    rows: int,
    cell_size: float,
    rects: list[tuple[float, float, float, float, int]],
) -> list[int]:
    """Occupancy code per cell: the highest code of any rect whose
    intersection with the cell has area > eps (shared edges never mark)."""
    codes = [0] * (rows * cols)
    for (x0, y0, x1, y1, code) in rects:
        for r in range(rows):
            cy0 = r * cell_size
            cy1 = cy0 + cell_size
            h = min(y1, cy1) - max(y0, cy0)
            if h <= 0.0:
                continue
            base = r * cols
            for c in range(cols):
                cx0 = c * cell_size
                cx1 = cx0 + cell_size
                w = min(x1, cx1) - max(x0, cx0)
                if w <= 0.0:
                    continue
                if w * h > _EPS and code > codes[base + c]:
                    codes[base + c] = code
    return codes


def free_cells_on_side(
    cols: int,
    rows: int,
    cell_size: float,
    codes: Sequence[int],
    ax0: float, ay0: float, ax1: float, ay1: float,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Indices of the free cells strictly on each side of the anchor
    rectangle, bucketed (left, right, bottom, top), each in row-major order.

    A cell is left when its max-x <= anchor min-x, right when its min-x
    >= anchor max-x, and likewise bottom/top on y, with a 1e-9 slack so
    flush cells count.  One pass over the grid fills all four buckets.
    """
    left, right, bottom, top = [], [], [], []
    col_x0 = [c * cell_size for c in range(cols)]
    is_left = [x0 + cell_size <= ax0 + _EPS for x0 in col_x0]
    is_right = [x0 >= ax1 - _EPS for x0 in col_x0]
    for r in range(rows):
        cy0 = r * cell_size
        is_bottom = cy0 + cell_size <= ay0 + _EPS
        is_top = cy0 >= ay1 - _EPS
        base = r * cols
        for c in range(cols):
            if codes[base + c] != 0:
                continue
            idx = base + c
            if is_left[c]:
                left.append(idx)
            if is_right[c]:
                right.append(idx)
            if is_bottom:
                bottom.append(idx)
            if is_top:
                top.append(idx)
    return left, right, bottom, top


def overlap_rows(
    xspans: Sequence[tuple[float, float]],
    yspans: Sequence[tuple[float, float]],
    rects: Sequence[tuple[float, float, float, float]],
    eps: float,
    want: Sequence[int],
) -> list[int]:
    """Per row ``r``, the bits ``c`` of ``want[r]`` whose box
    ``xspans[c] x yspans[r]`` overlaps some rect with area > eps.

    A box's overlap width with a rect depends on its column alone and the
    height on its row alone, so each is computed once per rect; only the
    product ``w * h > eps`` is formed per cell.
    """
    hit = [0] * len(yspans)
    for bx0, by0, bx1, by1 in rects:
        widths = [(1 << c, w) for c, (x0, x1) in enumerate(xspans)
                  if (w := min(x1, bx1) - max(x0, bx0)) > 0.0]
        for r, (y0, y1) in enumerate(yspans):
            todo = want[r] & ~hit[r]
            if not todo:
                continue
            h = min(y1, by1) - max(y0, by0)
            if h <= 0.0:
                continue
            for bit, w in widths:
                if todo & bit and w * h > eps:
                    hit[r] |= bit
    return hit


def first_overlap(
    x0: float, y0: float, x1: float, y1: float,
    rects: Sequence[tuple[float, float, float, float]],
    eps: float,
) -> int:
    """Index of the first rect overlapping (x0,y0,x1,y1) with area > eps,
    else -1: the one-box case of :func:`overlap_rows`, rect by rect."""
    for i, rect in enumerate(rects):
        if overlap_rows(((x0, x1),), ((y0, y1),), (rect,), eps, (1,))[0]:
            return i
    return -1
