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

The policy keeps no state of its own.  The context evaluates each
side's feasible rows once, on first use, and the search's forward check
reads the same rows.  A completion mask is those rows ANDed with the
starts whose covered cells are all candidates, from shifted ANDs of the
context's ``candidate_flat`` (laid out as the grid's ``free_flat``, bit
``r * stride + c``).

``pose_from_starts`` (in :mod:`treelayout.oracle.queries`) is the single
source of truth for turning a (side, column start, row start) triple
into a pose; the search uses it for oracle-named runs too, so with the
shared legality check, policy legality equals engine acceptance.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from treelayout.grid import Side
from treelayout.model import Yaw, units
from treelayout.oracle.queries import (
    SpatialContext,
    bit_indices,
    final_yaw,
    object_spans,
    pose_from_starts,
    run_center,
)

__all__ = [
    "choose_run", "choose_side", "feasible_primary_starts", "feasible_secondary_starts",
    "final_yaw", "object_spans", "pose_from_starts", "run_center", "side_preference",
    "side_scores",
]

#: Fixed side preference for tie-breaking, led by the anchor-facing side.
_BASE_ORDER = (Side.RIGHT, Side.LEFT, Side.BOTTOM, Side.TOP)


def side_preference(anchor_yaw: Yaw) -> list[Side]:
    """The side the anchor faces, then the rest of ``_BASE_ORDER``."""
    front = next(s for s in Side if s.facing_yaw is anchor_yaw)
    return [front] + [s for s in _BASE_ORDER if s is not front]


def _covered(ctx: SpatialContext, side: Side) -> list[int]:
    """Bit ``c0`` of entry ``r0``: the object's rectangle at these
    starts lies in the grid and every cell it covers is a candidate."""
    grid = ctx.grid
    m_cols, m_rows = object_spans(ctx, side)
    cand, stride = ctx.candidate_flat[side], grid.stride
    runs = reduce(and_, [cand >> k for k in range(m_cols)])
    block = reduce(and_, [runs >> j * stride for j in range(m_rows)])
    full = (1 << grid.cols) - 1
    return [block >> r0 * stride & full for r0 in range(grid.rows - m_rows + 1)]


def _completion(ctx: SpatialContext, side: Side) -> list[int]:
    """Bit ``c0`` of entry ``r0``: covered, and in the side's feasibility
    set (legal at the pose ``pose_from_starts`` gives)."""
    return [f & c for f, c in zip(ctx.feasible(side), _covered(ctx, side))]


def side_scores(ctx: SpatialContext) -> dict[Side, int]:
    if ctx.relation is None:
        return {side: len(cells) for side, cells in ctx.candidates.items()}
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
    done = _completion(ctx, side)
    if side.horizontal:
        return bit_indices(reduce(or_, done, 0))
    return [r0 for r0, m in enumerate(done) if m]


def feasible_secondary_starts(ctx: SpatialContext, side: Side, primary_start: int) -> list[int]:
    done = _completion(ctx, side)
    if side.horizontal:
        if primary_start < 0:
            return []
        return [r0 for r0, m in enumerate(done) if m >> primary_start & 1]
    return bit_indices(done[primary_start]) if 0 <= primary_start < len(done) else []


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
