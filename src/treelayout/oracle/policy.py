"""Deterministic spatial heuristics behind the offline oracle.

Scoring is defined in brute-force-checkable terms:

* A side's score is the number of its candidate cells on which the
  object, centered on that cell with the side-derived yaw, would sit
  legally.  For the anchor-facing question the score is simply the
  free-cell count.
* A run of grid columns/rows is feasible when some completion on the
  other axis yields a legal pose whose covered cells are all candidates.
  Runs are ranked by the distance of their center to the anchor along
  their axis (doubled and in units, so exact), ties toward the lower
  start index.

"Legal" means in bounds, overlap-free and relation satisfied, as the
one legality engine decides it: ``_Lattice`` (in
:mod:`treelayout.oracle.queries`), whose verdict the search also applies
to every completed pose, so the policy names only positions the engine
accepts.

All three questions read one table per context, built on that engine,
which evaluates legality on a lattice of centres at once, each term an
integer index range on the sorted centres, so every bit it gives is
exact.
This is the configuration-space view of legality (Lozano-Pérez, IEEE
Trans. Computers C-32, 1983), on the grid's own lattices of centres.
Masks are laid out as the grid's ``free_flat``, bit ``r * stride + c``:

* a side score is the popcount of the side's candidates (the context's
  ``candidate_flat``, one grid scan shared with the search) that pass
  the lattice of the grid's cell centres, built per yaw extent-swap
  while the table is built and then let go;
* per side, on first use, a completion mask over (column start, row
  start): the context's feasibility set (``SpatialContext.feasible``,
  the same engine on run centres, which the search's forward check
  reads too) AND the starts whose covered cells are all candidates,
  from shifted ANDs of the candidate mask.  The primary-run and
  secondary-run questions read its bits.

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
    _Lattice,
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
    """Everything the policy decides in one context: the side scores,
    and each side's completion mask on first use."""

    def __init__(self, ctx: SpatialContext):
        self.ctx = ctx
        if ctx.relation is None:
            self.scores = {side: len(cells) for side, cells in ctx.candidates.items()}
        else:
            swaps = {side: swap for side, (_, _, swap) in ctx.side_shapes.items()}
            lattices = {swap: _cell_lattice(ctx, swap) for swap in set(swaps.values())}
            self.scores = {side: _legal_count(lattices[swaps[side]], ctx.candidate_flat[side])
                           for side in Side}
        self._completions: dict[Side, list[int]] = {}

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


@lru_cache(maxsize=64)
def _cell_centres(count: int, cell_size: float) -> tuple[int, ...]:
    """The centres of ``count`` cells along one axis in units, exact:
    ``run_center`` rounds to q4, which moves the centre of a cell whose
    edge is not a multiple of 0.2 mm."""
    return tuple(units((c + 0.5) * cell_size) for c in range(count))


def _cell_lattice(ctx: SpatialContext, swap: bool) -> _Lattice:
    """The legality lattice of the grid's cell centres, with the object's
    extents swapped if ``swap``."""
    grid = ctx.grid
    return _Lattice(ctx, _cell_centres(grid.cols, grid.cell_size),
                    _cell_centres(grid.rows, grid.cell_size), swap)


def _legal_count(lattice: _Lattice, cand: int) -> int:
    """How many cells of ``cand`` (a flat candidate mask) are centres at
    which the object is legal."""
    open_, stride, full = cand & lattice.clear, lattice.stride, (1 << len(lattice.xs)) - 1
    return sum(lattice.related(r, want).bit_count() for r in range(len(lattice.ys))
               if (want := open_ >> r * stride & full))


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
    cell, twice_anchor = units(ctx.grid.cell_size), 2 * units(anchor)

    def key(start: int) -> tuple[int, int]:
        # twice the distance, in units: a tie is exact
        return abs((2 * start + span) * cell - twice_anchor), start

    return max(legal, key=key) if adversarial else min(legal, key=key)
