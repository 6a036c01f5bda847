"""Deterministic spatial heuristics behind the offline oracle.

Scoring is defined in brute-force-checkable terms:

* A side's score is the number of its candidate cells on which the
  object, centered on that cell with the side-derived yaw, would sit
  legally.  For the anchor-facing question the score is simply the
  free-cell count.
* A run of grid columns/rows is feasible when some completion on the
  other axis yields a legal pose whose covered cells are all candidates.
  Runs are ranked by the distance of their center to the anchor along
  their axis, ties toward the lower start index.

"Legal" is ``SpatialContext.legal`` (in bounds, relation satisfied,
overlap-free): the same check the search applies to every completed
pose, so the policy names only positions the engine accepts.

All three questions read one table per (context, side), built on first
use.  It holds the side's candidate cells, taken from the context's
``candidates`` (one grid scan per context, shared with the search), the
object's spans and half-extents per yaw; the side score; a summed-area
table over the candidate mask (Crow, SIGGRAPH 1984), so "every covered
cell is a candidate" costs four lookups for any rectangle; and a memo of
completion verdicts per (column start, row start), shared by the
primary-run and secondary-run questions.

Tables are cached by the context *value*: ``SpatialContext`` is a frozen,
hashable dataclass that carries everything the policy reads (see its
``canonical_text``), so equal contexts share a table and a context that
differs in any field gets its own.  The cache holds the four sides of
one local step.  A table changes after construction only by filling in
its summed-area table and its memo, and both come out the same
whichever thread fills them, so the oracle's thread-safe ``query``
holds.

``pose_from_starts`` is the single source of truth for turning a
(side, column start, row start) triple into a pose; the search uses it
for oracle-named runs too, so with the shared legality check, policy
legality equals engine acceptance.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from operator import add

from treelayout.grid import (
    DegenerateDirection,
    Side,
    grid_dims,
    orientation_from_rule,
    yaw_for_side,
)
from treelayout.model import OrientationRule, Yaw, effective_aabb, q4
from treelayout.oracle.queries import SpatialContext

#: Fixed side preference for tie-breaking, led by the anchor-facing side.
_BASE_ORDER = (Side.RIGHT, Side.LEFT, Side.BOTTOM, Side.TOP)


def side_preference(anchor_yaw: Yaw) -> list[Side]:
    """The side the anchor faces, then the rest of ``_BASE_ORDER``."""
    front = next(s for s in Side if s.facing_yaw is anchor_yaw)
    return [front] + [s for s in _BASE_ORDER if s is not front]


def object_spans(ctx: SpatialContext, side: Side) -> tuple[int, int]:
    """(column span, row span) of the object at its side-derived yaw."""
    yaw0 = yaw_for_side(ctx.orientation_rule, ctx.anchor.yaw, side)
    box = effective_aabb(ctx.object_dims, yaw0, (0.0, 0.0))
    return grid_dims(box.width, box.height, ctx.grid.cell_size)


def final_yaw(ctx: SpatialContext, side: Side, center: tuple[float, float]) -> Yaw:
    """Resolve the definitive yaw once the center is known."""
    rule = ctx.orientation_rule
    yaw0 = yaw_for_side(rule, ctx.anchor.yaw, side)
    if rule in (OrientationRule.FACE_ANCHOR, OrientationRule.BACK_TO_ANCHOR):
        try:
            return orientation_from_rule(rule, ctx.anchor.yaw, (ctx.anchor.x, ctx.anchor.y), center)
        except DegenerateDirection:
            return yaw0
    return yaw0


def run_center(start: int, span: int, cell_size: float) -> float:
    """Center coordinate of a run of ``span`` cells beginning at ``start``."""
    return q4((start + span / 2.0) * cell_size)


def pose_from_starts(
    ctx: SpatialContext, side: Side, col_start: int, row_start: int
) -> tuple[float, float, Yaw]:
    """Pose implied by a column run and a row run (starts of each)."""
    m_cols, m_rows = object_spans(ctx, side)
    cx = run_center(col_start, m_cols, ctx.grid.cell_size)
    cy = run_center(row_start, m_rows, ctx.grid.cell_size)
    return cx, cy, final_yaw(ctx, side, (cx, cy))


class _SideTable:
    """Everything the policy decides about one side of the anchor in one context."""

    def __init__(self, ctx: SpatialContext, side: Side):
        grid = ctx.grid
        d = ctx.object_dims
        self.ctx = ctx
        self.side = side
        self.m_cols, self.m_rows = object_spans(ctx, side)
        # Half-extents per "yaw swaps extents", as effective_aabb forms them.
        self.half = {False: (d.length / 2.0, d.depth / 2.0), True: (d.depth / 2.0, d.length / 2.0)}
        self.cand = ctx.candidates[side]
        if ctx.relation is None:
            self.score = len(self.cand)
        else:
            yaw0 = yaw_for_side(ctx.orientation_rule, ctx.anchor.yaw, side)
            hx, hy = self.half[yaw0.swaps_extents]
            s = grid.cell_size
            self.score = 0
            for idx in self.cand:
                r, c = divmod(idx, grid.cols)
                cx, cy = (c + 0.5) * s, (r + 0.5) * s
                self.score += ctx.legal(cx - hx, cy - hy, cx + hx, cy + hy)
        self.memo: dict[tuple[int, int], bool] = {}

    @cached_property
    def sat(self) -> list[list[int]]:
        """Summed-area table of the candidate mask: ``sat[r][c]`` counts
        candidates in rows ``< r`` and columns ``< c``."""
        grid = self.ctx.grid
        mask = [0] * (grid.rows * grid.cols)
        for idx in self.cand:
            mask[idx] = 1
        sat = [[0] * (grid.cols + 1)]
        for r in range(grid.rows):
            prefix = accumulate(mask[r * grid.cols:(r + 1) * grid.cols], initial=0)
            sat.append(list(map(add, sat[-1], prefix)))
        return sat

    def covered(self, col_start: int, row_start: int) -> bool:
        """The object's rectangle at these starts lies in the grid and
        every cell it covers is a candidate."""
        grid = self.ctx.grid
        c1, r1 = col_start + self.m_cols, row_start + self.m_rows
        if col_start < 0 or row_start < 0 or c1 > grid.cols or r1 > grid.rows:
            return False
        sat = self.sat
        inside = sat[r1][c1] - sat[row_start][c1] - sat[r1][col_start] + sat[row_start][col_start]
        return inside == self.m_cols * self.m_rows

    def completion_ok(self, col_start: int, row_start: int) -> bool:
        """Memoised: covered, and legal at the pose ``pose_from_starts`` gives."""
        key = (col_start, row_start)
        ok = self.memo.get(key)
        if ok is None:
            ok = False
            if self.covered(col_start, row_start):
                cell_size = self.ctx.grid.cell_size
                cx = run_center(col_start, self.m_cols, cell_size)
                cy = run_center(row_start, self.m_rows, cell_size)
                hx, hy = self.half[final_yaw(self.ctx, self.side, (cx, cy)).swaps_extents]
                ok = self.ctx.legal(cx - hx, cy - hy, cx + hx, cy + hy)
            self.memo[key] = ok
        return ok


@lru_cache(maxsize=4)
def _side_table(ctx: SpatialContext, side: Side) -> _SideTable:
    return _SideTable(ctx, side)


def side_scores(ctx: SpatialContext) -> dict[Side, int]:
    return {side: _side_table(ctx, side).score for side in Side}


def choose_side(ctx: SpatialContext, avoid: tuple[str, ...], adversarial: bool) -> Side | None:
    scores = side_scores(ctx)
    order = side_preference(ctx.anchor.yaw)
    legal = [s for s in order if s.value not in avoid and scores[s] > 0]
    if not legal:
        return None
    if adversarial:
        return min(reversed(legal), key=lambda s: scores[s])
    return max(legal, key=lambda s: scores[s])


def feasible_primary_starts(ctx: SpatialContext, side: Side) -> list[int]:
    """Starts of primary-axis runs that admit at least one legal completion.

    The primary axis is columns for left/right sides and rows for
    top/bottom sides.
    """
    t = _side_table(ctx, side)
    ok = t.completion_ok
    col_starts = range(ctx.grid.cols - t.m_cols + 1)
    row_starts = range(ctx.grid.rows - t.m_rows + 1)
    if side.horizontal:
        return [c0 for c0 in col_starts if any(ok(c0, r0) for r0 in row_starts)]
    return [r0 for r0 in row_starts if any(ok(c0, r0) for c0 in col_starts)]


def feasible_secondary_starts(ctx: SpatialContext, side: Side, primary_start: int) -> list[int]:
    t = _side_table(ctx, side)
    ok = t.completion_ok
    if side.horizontal:
        return [r0 for r0 in range(ctx.grid.rows - t.m_rows + 1) if ok(primary_start, r0)]
    return [c0 for c0 in range(ctx.grid.cols - t.m_cols + 1) if ok(c0, primary_start)]


def _run_distance(ctx: SpatialContext, side: Side, axis: str, start: int) -> float:
    m_cols, m_rows = object_spans(ctx, side)
    if axis == "cols":
        center = (start + m_cols / 2.0) * ctx.grid.cell_size
        return abs(center - ctx.anchor.x)
    center = (start + m_rows / 2.0) * ctx.grid.cell_size
    return abs(center - ctx.anchor.y)


def choose_run(
    ctx: SpatialContext,
    side: Side,
    axis: str,
    starts: list[int],
    avoid: tuple[int, ...],
    adversarial: bool,
) -> int | None:
    """Pick a run start: nearest to the anchor along the run axis, ties
    toward the lower index (adversarial: farthest, ties higher)."""
    legal = [s for s in starts if s not in avoid]
    if not legal:
        return None
    if adversarial:
        return max(legal, key=lambda s: (_run_distance(ctx, side, axis, s), s))
    return min(legal, key=lambda s: (_run_distance(ctx, side, axis, s), s))
