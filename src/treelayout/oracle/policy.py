"""Deterministic spatial heuristics behind the offline oracle.

Every answer is read off the context's feasibility sets
(:meth:`SpatialContext.feasible`): per side, the (column start, row
start) pairs that some parseable pair of run replies can name and the
search then accepts, as the one legality engine, ``_Lattice`` (in
:mod:`treelayout.oracle.queries`), decides them.  So the policy names
only positions the engine accepts, and its scoring is defined in
brute-force-checkable terms (``BruteRegion.accepted_pairs`` in
``tests/bruteforce.py``):

* A side's score is the number of pairs in its feasibility set.  For
  the anchor-facing question (``relation`` None) the score is simply
  the free-cell count.
* A side's completions are its feasible pairs whose covered cells are
  all candidates.  A run of grid columns/rows is feasible when some
  completion starts it.  Runs are ranked by the distance of their
  center to the anchor along their axis (doubled and in units, so
  exact), ties toward the lower start index.

The policy keeps no state of its own.  Its runs are read by
:meth:`SpatialContext.live_starts`, the reader the search's forward
check uses too, skipping the pairs whose rectangle covers a cell that
is not a candidate (shifted ANDs of the ``candidates`` masks).

``pose_from_starts`` (in :mod:`treelayout.oracle.queries`) is the single
source of truth for turning a (side, column start, row start) triple
into a pose; the search uses it for oracle-named runs too, so with the
shared legality check, policy legality equals engine acceptance.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import and_

from treelayout.grid import Side
from treelayout.model import Yaw, units
from treelayout.oracle.queries import SpatialContext, object_spans

__all__ = [
    "choose_run", "choose_side", "feasible_primary_starts", "feasible_secondary_starts",
    "object_spans", "side_preference", "side_scores",
]

#: Fixed side preference for tie-breaking, led by the anchor-facing side.
_BASE_ORDER = (Side.RIGHT, Side.LEFT, Side.BOTTOM, Side.TOP)


def side_preference(anchor_yaw: Yaw) -> list[Side]:
    """The side the anchor faces, then the rest of ``_BASE_ORDER``."""
    front = next(s for s in Side if s.facing_yaw is anchor_yaw)
    return [front] + [s for s in _BASE_ORDER if s is not front]


def _uncovered(ctx: SpatialContext, side: Side) -> dict[int, int]:
    """Row start ``r0`` -> the column starts ``c0`` at which the object's
    rectangle leaves the grid or covers a cell that is not a candidate."""
    grid = ctx.grid
    m_cols, m_rows = object_spans(ctx, side)
    cand, stride = ctx.candidates[side], grid.stride
    runs = reduce(and_, [cand >> k for k in range(m_cols)])
    block = reduce(and_, [runs >> j * stride for j in range(m_rows)])
    full = (1 << grid.cols) - 1
    return {r0: full & ~(block >> r0 * stride) for r0 in range(grid.rows - m_rows + 1)}


def side_scores(ctx: SpatialContext) -> dict[Side, int]:
    if ctx.relation is None:
        return {side: mask.bit_count() for side, mask in ctx.candidates.items()}
    return {side: sum(m.bit_count() for m in ctx.feasible(side)) for side in Side}


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
    return ctx.live_starts(side, _uncovered(ctx, side), limit=sys.maxsize)


def feasible_secondary_starts(ctx: SpatialContext, side: Side, primary_start: int) -> list[int]:
    return ctx.live_starts(side, _uncovered(ctx, side), primary_start, limit=sys.maxsize)


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
    m_cols, m_rows = object_spans(ctx, side)
    span, anchor = (m_cols, ctx.anchor.x) if axis == "cols" else (m_rows, ctx.anchor.y)
    cell, twice_anchor = units(ctx.grid.cell_size), 2 * units(anchor)

    def key(start: int) -> tuple[int, int]:
        # twice the distance, in units: a tie is exact
        return abs((2 * start + span) * cell - twice_anchor), start

    return max(legal, key=key) if adversarial else min(legal, key=key)
