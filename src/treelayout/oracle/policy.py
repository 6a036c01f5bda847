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

"Legal" means ``SpatialContext.rejection`` gives None (in bounds,
overlap-free, relation satisfied): the same check the search applies
to every completed pose, so the policy names only positions the engine
accepts.

All three questions read one table per context, held as per-row integer
bitmasks (bit ``c`` of row ``r`` stands for column ``c``):

* a candidate mask per side, the context's ``candidate_rows`` (one grid
  scan per context, shared with the search);
* a legal-centre mask per yaw extent-swap over the cell centres, shared
  by the four sides, so a side score is a popcount of candidates AND
  legal centres;
* per side, on first use, a completion mask over (column start, row
  start): the context's feasibility set (``SpatialContext.feasible``,
  legality at the ``pose_from_starts`` poses whose runs can be named,
  which the search's forward check reads too) AND the covered starts.
  Those come from shifted ANDs of the candidate mask (along a row for
  the column span, then across rows for the row span).  The
  primary-run and secondary-run questions read its bits.

The masks are exact, not an approximation of ``rejection``: every term
of the check (region bounds, centre offset and edge gap to the anchor,
whether the box meets each placed box on x and on y) depends on a box's
x span alone or its y span alone.  ``SpatialContext.legal_rows``
computes each term once per column and once per row and forms only the
per-cell combine (``along``/``perp``, squared gaps).  Every term is an
integer test in length units, so every bit says whether ``rejection``
gives None at that pose.  This is the configuration-space view of
legality (Lozano-Pérez, IEEE Trans. Computers C-32, 1983), evaluated on
the grid's own lattice of centres.

Tables are cached by the context *value*: ``SpatialContext`` is a frozen,
hashable dataclass that carries everything the policy reads (see its
``canonical_text``), so equal contexts share a table and a context that
differs in any field gets its own.  The cache holds a few contexts, so
subproblems searched side by side keep theirs.  A table changes after
construction only by adding a side's completion mask, which comes out
the same whichever thread builds it, so the oracle's thread-safe
``query`` holds.

``pose_from_starts`` (in :mod:`treelayout.oracle.queries`) is the single
source of truth for turning a (side, column start, row start) triple
into a pose; the search uses it for oracle-named runs too, so with the
shared legality check, policy legality equals engine acceptance.
"""

from __future__ import annotations

from functools import lru_cache, reduce
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


class _ContextTable:
    """Everything the policy decides in one context, as per-row bitmasks."""

    def __init__(self, ctx: SpatialContext):
        grid = ctx.grid
        self.ctx = ctx
        self.cand = ctx.candidate_rows
        if ctx.relation is None:
            self.scores = {side: len(cells) for side, cells in ctx.candidates.items()}
        else:
            s = grid.cell_size
            xs = [(c + 0.5) * s for c in range(grid.cols)]
            ys = [(r + 0.5) * s for r in range(grid.rows)]
            swap0 = {side: swap for side, (_, _, swap) in ctx.side_shapes.items()}
            legal = {}
            for swap in set(swap0.values()):
                sides = [self.cand[side] for side in Side if swap0[side] == swap]
                legal[swap] = self.legal_at(xs, ys, swap, [reduce(or_, m) for m in zip(*sides)])
            self.scores = {
                side: sum((m & ok).bit_count() for m, ok in zip(self.cand[side], legal[swap0[side]]))
                for side in Side
            }
        self._completions: dict[Side, list[int]] = {}

    def legal_at(self, xs: list[float], ys: list[float], swap: bool, want: list[int]) -> list[int]:
        """Bits of ``want`` whose centre ``(xs[c], ys[r])`` is legal with these extents."""
        hx, hy = self.ctx.half_extents(swap)
        xs, ys = [units(x) for x in xs], [units(y) for y in ys]
        return self.ctx.legal_rows(
            [(cx - hx, cx + hx) for cx in xs], [(cy - hy, cy + hy) for cy in ys], want
        )

    def covered(self, side: Side) -> list[int]:
        """Bit ``c0`` of entry ``r0``: the object's rectangle at these
        starts lies in the grid and every cell it covers is a candidate."""
        ctx = self.ctx
        grid = ctx.grid
        m_cols, m_rows = object_spans(ctx, side)
        cand, stride = ctx.candidate_flat[side], grid.stride
        runs = reduce(and_, [cand >> k for k in range(m_cols)])
        block = reduce(and_, [runs >> j * stride for j in range(m_rows)])
        full = (1 << grid.cols) - 1
        return [block >> r0 * stride & full for r0 in range(grid.rows - m_rows + 1)]

    def completion(self, side: Side) -> list[int]:
        """Bit ``c0`` of entry ``r0``: covered, and in the context's
        feasibility set (legal at the pose ``pose_from_starts`` gives)."""
        done = self._completions.get(side)
        if done is None:
            done = self._completions[side] = self.ctx.feasible(side, self.covered(side))
        return done


@lru_cache(maxsize=4)
def _context_table(ctx: SpatialContext) -> _ContextTable:
    return _ContextTable(ctx)


def side_scores(ctx: SpatialContext) -> dict[Side, int]:
    return dict(_context_table(ctx).scores)


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
    done = _context_table(ctx).completion(side)
    if side.horizontal:
        return bit_indices(reduce(or_, done, 0))
    return [r0 for r0, m in enumerate(done) if m]


def feasible_secondary_starts(ctx: SpatialContext, side: Side, primary_start: int) -> list[int]:
    done = _context_table(ctx).completion(side)
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
    cell_size = ctx.grid.cell_size

    def key(start: int) -> tuple[float, int]:
        return abs((start + span / 2.0) * cell_size - anchor), start

    return max(legal, key=key) if adversarial else min(legal, key=key)
