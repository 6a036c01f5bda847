"""Typed oracle queries, replies, and canonical fingerprinting.

Every query carries ``attempt`` (ordinal within the current budget) and
``round_no`` (ordinal of the layer visit), so re-asking after a failure
or a backtrack produces a distinct canonical text.  Fingerprints hash
the canonical text together with the prompt-template version, which
makes transcripts replayable only against the templates they were
recorded with.  A query hashes its fingerprint once, and a spatial
context renders its canonical text once, however many oracles read them.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from collections.abc import Collection, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

from treelayout import kernels
from treelayout.grid import (
    D_AROUND,
    D_BESIDE,
    D_FRONT,
    DegenerateDirection,
    EmojiMap,
    OccupancyGrid,
    Side,
    candidate_cells,
    grid_dims,
    orientation_from_rule,
    yaw_for_side,
)
from treelayout.model import (
    UNITS_PER_M,
    Dim3,
    OrientationRule,
    PlacedObject,
    RoomPlan,
    SpatialRelation,
    Yaw,
    q4,
    units,
)

def _meters(v: int) -> str:
    """Units as meters, to 4 decimals or the 5 that tell odd multiples of 0.05 mm apart."""
    return f"{v / UNITS_PER_M:.{4 if v % 10 == 0 else 5}f}"


class _Query:
    @cached_property
    def fp(self) -> str:
        """The fingerprint under the shipped templates, hashed once per
        query object: a wrapping oracle and the oracle it wraps share it."""
        from treelayout.oracle.templates import template_version  # templates imports this module

        return fingerprint(self, template_version())


@dataclass(frozen=True)
class OracleReply:
    """Raw reply text, preserved verbatim for transcripting.

    All structure is recovered downstream by the engine's parsers; a
    malformed reply is a failed attempt, not an oracle error.
    """

    text: str


@dataclass(frozen=True)
class SpatialContext:
    """Geometry an oracle needs to reason about one spatial question.

    The grid prompt is the text a language oracle sees; the structured
    fields let the deterministic heuristic answer the same question
    without parsing its own prompt.

    The context also owns the engine's one legality check, :class:`_Lattice`,
    which decides a pose's bounds, overlap and relation terms in units,
    so exactly, on a whole lattice of centres.  On run centres it gives
    each side's feasibility set (:meth:`feasible`), the poses some
    parseable pair of run replies would make the search accept, so the
    search asks nothing about a side or an object with none, nor a
    question with one live answer (:meth:`live_starts`), and the
    verdict on the completed pose (:meth:`_Lattice.verdict`).  The det
    policy reads only the feasibility sets, so the oracle names only
    positions the engine accepts.  ``candidates``, the feasibility sets,
    the lattices, their invariants and the canonical text are derived
    from the fields on first use, so equality and hashing ignore them.
    """

    scope: str
    object_id: str
    region_length: float
    region_width: float
    grid: OccupancyGrid
    placed_boxes: tuple[tuple[int, int, int, int], ...]
    anchor: PlacedObject
    anchor_dims: Dim3
    object_dims: Dim3
    relation: SpatialRelation | None
    orientation_rule: OrientationRule | None

    @cached_property
    def candidates(self) -> dict[Side, int]:
        """The free cells on each side of the anchor, one mask per side,
        laid out as the grid's ``free_flat``: bit ``r * stride + c`` for
        the cell at (r, c)."""
        return candidate_cells(self.grid, self._limits[2][0])

    @cached_property
    def side_shapes(self) -> dict[Side, tuple[int, int, bool]]:
        """Per side, the object's (column span, row span) at its
        side-derived yaw, and whether that yaw swaps its extents."""
        d, rule, yaw = self.object_dims, self.orientation_rule, self.anchor.yaw
        plain = grid_dims(units(d.length), units(d.depth), units(self.grid.cell_size))
        shapes = {}
        for side, opposite in ((Side.LEFT, Side.RIGHT), (Side.BOTTOM, Side.TOP)):
            # opposite sides give equal yaws or yaws half a turn apart: they swap alike
            swap = yaw_for_side(rule, yaw, side).swaps_extents
            shapes[side] = shapes[opposite] = (plain[1], plain[0], True) if swap else (*plain, False)
        return shapes

    @cached_property
    def _side_sets(self) -> dict[Side, _SideSet]:
        return {}

    def _side_set(self, side: Side) -> _SideSet:
        found = self._side_sets.get(side)
        if found is None:  # threads racing here build equal sets
            found = self._side_sets[side] = _SideSet(self, side)
        return found

    def feasible(self, side: Side) -> list[int]:
        """The side's feasibility set: bit ``c0`` of entry ``r0`` when the
        column start ``c0`` and row start ``r0`` can be named by a
        parseable pair of run replies, and the object is legal at the pose
        :func:`pose_from_starts` gives there (:meth:`_Lattice.verdict` is
        None).

        A run reply parses when it names one candidate cell on each index
        of its run, so the primary run needs a candidate cell on every
        index, and the secondary run one on every index among the cells
        of the primary run.  These are exactly the poses the search could
        accept on this side, so the det policy's completions (whose every
        covered cell is a candidate) are a subset.  Each row is evaluated
        once per context, on first use.
        """
        return self._side_set(side).rows()

    def live_starts(self, side: Side, skip: Mapping[int, int], primary: int | None = None,
                    avoid: Collection[int] = (), limit: int = 2) -> list[int]:
        """The starts a reply to one of the side's run questions could
        name and the search then accept: the primary starts of the pairs
        of the feasibility set outside ``skip`` (row start -> mask of
        column starts), or with ``primary`` the secondary starts of those
        pairs with that primary start, less the starts in ``avoid``.  Rows
        are evaluated lowest first, only until ``limit`` distinct starts
        are found: ``limit=1`` asks whether any is left, and the default
        whether the step is forced.  It is the one reader of the side sets'
        run starts: the search's forward check skips the poses that failed
        downstream, and the det policy's run choices the pairs whose
        covered cells are not all candidates."""
        return self._side_set(side).starts(skip, primary, avoid, limit)

    @cached_property
    def _limits(self) -> tuple[int, int, tuple]:
        """Invariants of the legality terms in units: the region's far x
        and far y bounds, and the anchor's box, centre and facing with the
        front, beside and around thresholds."""
        anchor_args = (
            self.anchor.aabb(self.anchor_dims), units(self.anchor.x), units(self.anchor.y),
            self.anchor.yaw.facing, units(D_FRONT), units(D_BESIDE), units(D_AROUND),
        )
        return units(self.region_length), units(self.region_width), anchor_args

    @cached_property
    def _lattices(self) -> dict[tuple[int, int, bool], _Lattice]:
        return {}

    def lattice(self, m_cols: int, m_rows: int, swap: bool) -> _Lattice:
        """The lattice of run starts for runs of ``m_cols x m_rows`` cells,
        with the object's extents swapped if ``swap`` (:class:`_Lattice`)."""
        key = (m_cols, m_rows, swap)
        found = self._lattices.get(key)
        if found is None:  # threads racing here build equal lattices
            cols, rows, cell = self.grid.cols, self.grid.rows, self.grid.cell_size
            found = self._lattices[key] = _Lattice(
                self, _run_centres(cols, m_cols, cell), _run_centres(rows, m_rows, cell), swap)
        return found

    def half_extents(self, swap: bool) -> tuple[int, int]:
        """The object's half extents in units along x and y, swapped if
        ``swap``, as ``effective_aabb`` forms them."""
        hx, hy = self._halves
        return (hy, hx) if swap else (hx, hy)

    @cached_property
    def _halves(self) -> tuple[int, int]:
        d = self.object_dims
        return units(d.length) // 2, units(d.depth) // 2

    def canonical_text(self) -> str:
        """Everything the deterministic policy reads, so fingerprints
        separate any two states the policy could answer differently
        (the coarse grid raster alone does not)."""
        return self._canonical

    @cached_property
    def _canonical(self) -> str:
        d = self.object_dims
        boxes = ";".join(",".join(map(_meters, box)) for box in self.placed_boxes)
        rule = self.orientation_rule.value if self.orientation_rule else "-"
        rel = self.relation.value if self.relation else "facing"
        return (
            f"scope={self.scope}\nobject={self.object_id}\n"
            f"region={self.region_length:.4f}x{self.region_width:.4f}\n"
            f"cell={self.grid.cell_size:.4f}\n"
            f"anchor={self.anchor.x:.4f},{self.anchor.y:.4f},{self.anchor.yaw.value}\n"
            f"anchor_dims={self.anchor_dims.length:.4f}x{self.anchor_dims.depth:.4f}\n"
            f"dims={d.length:.4f}x{d.depth:.4f}\nrelation={rel}\norientation={rule}\n"
            f"thresholds={D_FRONT:.4f},{D_BESIDE:.4f},{D_AROUND:.4f}\n"
            f"boxes={boxes}"
        )


@lru_cache(maxsize=256)
def _run_centres(cells: int, span: int, cell_size: float) -> tuple[int, ...]:
    """``run_center`` in units for every start of a run of ``span`` of ``cells`` cells."""
    return tuple(units(run_center(start, span, cell_size)) for start in range(cells - span + 1))


class _Lattice:
    """The pairs (column index, row index) of a lattice of object centres
    in one context, given as ascending x and y centres in units, with the
    object's extents swapped or not, and the legality of the object's box
    there: it lies in the region, overlaps no placed box and satisfies
    the relation to the anchor (if any).  The centres are those
    ``pose_from_starts`` gives runs (:meth:`SpatialContext.lattice`,
    shared by the sides whose runs and extents agree), at most
    ``stride`` along x.

    The bounds and overlap terms are index ranges on the sorted centres:
    a box ``(xc - hx, xc + hx)`` on x lies in the region when ``hx <= xc
    <= x_max - hx``, and meets a placed span ``(b0, b1)`` when ``b0 - hx
    < xc < b1 + hx``; likewise on y.  So ``clear``, the pairs that pass
    both, is one rectangle of pairs for the region less one per placed
    box, laid out as the grid's ``free_flat``: bit ``r0 * stride + c0``.
    It is also cut to the relation's reach (:meth:`_reach`), a rectangle
    of centres outside which the relation never holds.  Inside it the
    relation term is an index range per row start too (two for beside),
    found on first need (:meth:`_related_cols`).  :meth:`verdict` reads
    the three terms at one pair, and names the first one it fails.
    """

    def __init__(self, ctx: SpatialContext, xs: tuple[int, ...], ys: tuple[int, ...], swap: bool):
        self.ctx, self.stride, self.xs, self.ys = ctx, ctx.grid.stride, xs, ys
        self.hx, self.hy = hx, hy = ctx.half_extents(swap)
        x_max, y_max, _ = ctx._limits
        x0, x1, y0, y1 = hx, x_max - hx, hy, y_max - hy  # centres inside the region
        if ctx.relation is not None:
            rx0, rx1, ry0, ry1 = self._reach()
            x0, x1, y0, y1 = max(x0, rx0), min(x1, rx1), max(y0, ry0), min(y1, ry1)
        clear = self._block(bisect_left(xs, x0), bisect_right(xs, x1),
                            bisect_left(ys, y0), bisect_right(ys, y1))
        for bx0, by0, bx1, by1 in ctx.placed_boxes:
            # the centres whose box meets this one, if any of them is left
            if clear and bx1 + hx > x0 and bx0 - hx < x1 and by1 + hy > y0 and by0 - hy < y1:
                clear &= ~self._block(bisect_right(xs, bx0 - hx), bisect_left(xs, bx1 + hx),
                                      bisect_right(ys, by0 - hy), bisect_left(ys, by1 + hy))
        self.clear = clear
        self._related: dict[int, int] = {}  # row start -> _related_cols

    def verdict(self, c0: int, r0: int) -> str | None:
        """None when the object is legal at the pair ``(c0, r0)``, else the
        first term it fails: ``"bounds"`` before ``"overlap"`` before
        ``"relation"``.  It reads the centres, not ``clear``."""
        xc, yc, hx, hy = self.xs[c0], self.ys[r0], self.hx, self.hy
        x_max, y_max, _ = self.ctx._limits
        if not (hx <= xc <= x_max - hx and hy <= yc <= y_max - hy):
            return "bounds"
        if kernels.first_overlap(xc - hx, yc - hy, xc + hx, yc + hy, self.ctx.placed_boxes) != -1:
            return "overlap"
        if not self.related(r0, 1 << c0):
            return "relation"
        return None

    def _block(self, c0: int, c1: int, r0: int, r1: int) -> int:
        """The pairs with column start in ``[c0, c1)`` and row start in ``[r0, r1)``."""
        if c0 >= c1 or r0 >= r1:
            return 0
        stride = self.stride
        return ((1 << c1) - (1 << c0)) * kernels.row_repeat(r1 - r0, stride) << r0 * stride

    def _reach(self) -> tuple[int, int, int, int]:
        """Inclusive bounds ``(x0, x1, y0, y1)`` on a centre ``(xc, yc)``
        that every box satisfying the relation meets, read off the terms
        of ``grid.relation_satisfied`` one axis at a time: the centre
        offset ``2 * |xc - ax|`` is at most ``2 * D_AROUND`` (around) or the
        anchor's facing edge across the facing axis (front, which also
        wants the centre ahead of the anchor's); the edge gap on each
        axis is at most the gap allowed (front, beside)."""
        ctx, hx, hy = self.ctx, self.hx, self.hy
        (ax0, ay0, ax1, ay1), ax, ay, (fx, fy), front, beside, around = ctx._limits[2]
        if ctx.relation is SpatialRelation.PLACE_AROUND:
            return ax - around, ax + around, ay - around, ay + around
        d = front if ctx.relation is SpatialRelation.PLACE_FRONT else beside
        x0, x1, y0, y1 = ax0 - hx - d, ax1 + hx + d, ay0 - hy - d, ay1 + hy + d
        if ctx.relation is SpatialRelation.PLACE_FRONT:
            if fy:  # across: |2 (xc - ax)| <= the x edge; ahead: (yc - ay) * fy > 0
                half = (ax1 - ax0) // 2
                x0, x1 = max(x0, ax - half), min(x1, ax + half)
                y0, y1 = (max(y0, ay + 1), y1) if fy > 0 else (y0, min(y1, ay - 1))
            else:
                half = (ay1 - ay0) // 2
                y0, y1 = max(y0, ay - half), min(y1, ay + half)
                x0, x1 = (max(x0, ax + 1), x1) if fx > 0 else (x0, min(x1, ax - 1))
        return x0, x1, y0, y1

    def related(self, r0: int, want: int) -> int:
        """The column starts of ``want`` at row start ``r0`` whose box
        satisfies the relation to the anchor (all of them without one)."""
        if self.ctx.relation is None:
            return want
        cols = self._related.get(r0)
        if cols is None:  # threads racing here store equal masks
            cols = self._related[r0] = self._related_cols(r0)
        return want & cols

    def _related_cols(self, r0: int) -> int:
        """The column starts at row start ``r0`` whose box satisfies the
        relation.  With the row fixed, each term of
        ``grid.relation_satisfied`` bounds the centre ``xc`` to an
        interval: writing ``dx = 2 (xc - ax)``, around wants ``dx * dx <=
        (2 d)^2 - dy * dy``; front wants the row ahead, ``|dx|`` at most
        the facing edge across a facing along y (or ``|dy|`` across one
        along x and ``xc`` ahead), and the edge gap ``gx <= isqrt(d^2 -
        gy^2)``; beside wants that gap and ``|dx| >= max(|dy|, 1)`` beside
        a facing along y (two intervals), or ``0 < |dx| <= |dy|`` with
        ``dy`` nonzero beside one along x."""
        ctx, hx, hy, yc = self.ctx, self.hx, self.hy, self.ys[r0]
        (ax0, ay0, ax1, ay1), ax, ay, (fx, fy), front, beside, around = ctx._limits[2]
        oy = abs(yc - ay)  # |dy| / 2
        if ctx.relation is SpatialRelation.PLACE_AROUND:
            room = around * around - oy * oy
            return self._cols(ax - isqrt(room), ax + isqrt(room)) if room >= 0 else 0
        y0, y1 = yc - hy, yc + hy
        gy = y0 - ay1 if y0 > ay1 else ay0 - y1 if y1 < ay0 else 0
        d = front if ctx.relation is SpatialRelation.PLACE_FRONT else beside
        room = d * d - gy * gy
        if room < 0:
            return 0
        lo, hi = ax0 - hx - isqrt(room), ax1 + hx + isqrt(room)  # the edge gap on x
        if ctx.relation is SpatialRelation.PLACE_FRONT:
            if fy:
                if (yc - ay) * fy <= 0:
                    return 0
                half = (ax1 - ax0) // 2
                return self._cols(max(lo, ax - half), min(hi, ax + half))
            if 2 * oy > ay1 - ay0:
                return 0
            return self._cols(max(lo, ax + 1), hi) if fx > 0 else self._cols(lo, min(hi, ax - 1))
        if fy:
            t = max(oy, 1)
            return self._cols(lo, min(hi, ax - t)) | self._cols(max(lo, ax + t), hi)
        return self._cols(max(lo, ax - oy), min(hi, ax + oy)) if oy else 0

    def _cols(self, lo: int, hi: int) -> int:
        """The column starts whose centre lies in ``[lo, hi]``."""
        c0, c1 = bisect_left(self.xs, lo), bisect_right(self.xs, hi)
        return (1 << c1) - (1 << c0) if c0 < c1 else 0


class _SideSet:
    """One side's feasibility set (:meth:`SpatialContext.feasible`), held
    as the open pairs of its lattice (see :class:`_Lattice`) and, per row
    start read so far, the feasible column starts.

    Whole-grid shifts of the candidate integer give the nameable pairs:
    on the primary axis every index of the run needs a candidate, on the
    secondary axis every index one among the primary run's cells.  Those
    that are also clear are open; the relation then decides, a row start
    at a time, so the search's questions "is some pair left" and "is one
    start left, or two" (:meth:`starts`) stop at the first row that
    answers them.  Under the face/back rules ``final_yaw`` picks
    the extents per pose, so both swaps are tested and ``final_yaw`` is
    asked only where they disagree.
    """

    def __init__(self, ctx: SpatialContext, side: Side):
        grid = ctx.grid
        cols, rows, stride = grid.cols, grid.rows, grid.stride
        self.ctx, self.side, self.stride, self.full = ctx, side, stride, (1 << cols) - 1
        self.m_cols, self.m_rows, self.swap0 = m_cols, m_rows, swap0 = ctx.side_shapes[side]
        self.legal: dict[int, int] = {}
        self.open: list[tuple[_Lattice, int]] = []
        self.any_open = 0
        self.count = max(rows - m_rows + 1, 0)  # row starts
        cand = ctx.candidates[side]
        if not self.count or m_cols > cols or not cand:
            return
        every_row = kernels.row_repeat(rows, stride)
        if side.horizontal:  # columns first, then rows among the run's cells
            named, left = cand, rows
            while left > 1:  # fold every row onto row 0
                left = (left + 1) // 2
                named |= named >> left * stride
            firsts, seen = named & self.full, cand
            for k in range(1, m_cols):
                firsts &= named >> k
                seen |= cand >> k
            pairs = seen = seen & firsts * every_row
            for j in range(1, m_rows):
                pairs &= seen >> j * stride
        else:  # rows first, then columns among the run's cells
            run, filled = cand, (cand + self.full * every_row) >> cols & every_row  # row has one
            for j in range(1, m_rows):
                run |= cand >> j * stride
                filled &= filled >> stride
            pairs = run
            for k in range(1, m_cols):
                pairs &= run >> k
            pairs &= filled * self.full
        swaps = [swap0]
        if ctx.orientation_rule in (OrientationRule.FACE_ANCHOR, OrientationRule.BACK_TO_ANCHOR):
            swaps.append(not swap0)
        for swap in swaps:
            lattice = ctx.lattice(m_cols, m_rows, swap)
            self.open.append((lattice, pairs & lattice.clear))
            self.any_open |= self.open[-1][1]

    def row(self, r0: int) -> int:
        """The feasible column starts at row start ``r0``."""
        got = self.legal.get(r0)
        if got is None:
            shift, full = r0 * self.stride, self.full
            legal = [lattice.related(r0, open_ >> shift & full) for lattice, open_ in self.open]
            got = legal[0]
            if len(legal) == 2:
                ctx, cell = self.ctx, self.ctx.grid.cell_size
                for c0 in bit_indices(got ^ legal[1]):
                    centre = (run_center(c0, self.m_cols, cell), run_center(r0, self.m_rows, cell))
                    if final_yaw(ctx, self.side, centre).swaps_extents != self.swap0:
                        got ^= 1 << c0
            self.legal[r0] = got
        return got

    def rows(self) -> list[int]:
        """The feasible column starts per row start."""
        stride, full = self.stride, self.full
        return [self.row(r0) if self.any_open >> r0 * stride & full else 0
                for r0 in range(self.count)]

    def starts(self, skip: Mapping[int, int], primary: int | None,
               avoid: Collection[int], limit: int) -> list[int]:
        """:meth:`SpatialContext.live_starts`: the open rows are read
        lowest first, each only while it could add a start."""
        stride, full, left = self.stride, self.full, self.any_open
        # the answer is a column start on the primary axis of a left/right
        # side, and on the secondary axis of a top/bottom side
        cols = self.side.horizontal == (primary is None)
        mask = full
        if cols:
            for c in avoid:
                mask &= ~(1 << c)
        if primary is not None:
            if not 0 <= primary < (self.count if cols else stride):
                return []
            if cols:  # the one row start ``primary``
                left &= full << primary * stride
            else:  # the one column start ``primary``
                mask = 1 << primary
        found_cols, found_rows = 0, []
        while left:  # the open rows, lowest first
            r0 = ((left & -left).bit_length() - 1) // stride
            want = left >> r0 * stride & full
            left ^= want << r0 * stride
            if not cols and r0 in avoid:
                continue
            want &= mask & ~(skip.get(r0, 0) | found_cols)
            if want and (got := self.row(r0) & want):
                if cols:
                    found_cols |= got
                    if found_cols.bit_count() >= limit:
                        break
                else:
                    found_rows.append(r0)
                    if len(found_rows) >= limit:
                        break
        return bit_indices(found_cols)[:limit] if cols else found_rows


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def object_spans(ctx: SpatialContext, side: Side) -> tuple[int, int]:
    """(column span, row span) of the object at its side-derived yaw."""
    return ctx.side_shapes[side][:2]


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
    """Pose implied by a column run and a row run (starts of each): the
    single source of truth for it, read by the search, the det policy
    and the feasibility sets alike."""
    m_cols, m_rows = object_spans(ctx, side)
    cx = run_center(col_start, m_cols, ctx.grid.cell_size)
    cy = run_center(row_start, m_rows, ctx.grid.cell_size)
    return cx, cy, final_yaw(ctx, side, (cx, cy))


@dataclass(frozen=True)
class RoomQuery(_Query):
    prompt: str
    attempt: int = 1

    def canonical_text(self) -> str:
        return f"kind=room\nattempt={self.attempt}\nprompt={self.prompt}"


@dataclass(frozen=True)
class RegionQuery(_Query):
    room_type: str
    length: float
    width: float
    prompt: str
    attempt: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=regions\nattempt={self.attempt}\nroom_type={self.room_type}\n"
            f"length={self.length:.4f}\nwidth={self.width:.4f}\nprompt={self.prompt}"
        )


@dataclass(frozen=True)
class ObjectsQuery(_Query):
    region_id: str
    function: str
    length: float
    width: float
    room_type: str
    prompt: str
    attempt: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=objects\nattempt={self.attempt}\nregion={self.region_id}\n"
            f"function={self.function}\nlength={self.length:.4f}\nwidth={self.width:.4f}\n"
            f"room_type={self.room_type}\nprompt={self.prompt}"
        )


@dataclass(frozen=True)
class SupportedQuery(_Query):
    floor_object_id: str
    category: str
    top_length: float
    top_depth: float
    attempt: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=supported\nattempt={self.attempt}\nfloor_object={self.floor_object_id}\n"
            f"category={self.category}\ntop={self.top_length:.4f}x{self.top_depth:.4f}"
        )


@dataclass(frozen=True)
class SideQuery(_Query):
    """Which side of the anchor should the object go on?

    With ``relation`` None this is the anchor-facing question instead:
    which direction should the (centered) anchor face.
    """

    grid_prompt: str
    context: SpatialContext
    avoid: tuple[str, ...] = ()
    attempt: int = 1
    round_no: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=side\nattempt={self.attempt}\nround={self.round_no}\n"
            f"{self.context.canonical_text()}\n"
            f"avoid={','.join(sorted(self.avoid))}\ngrid:\n{self.grid_prompt}"
        )


@dataclass(frozen=True)
class SideEvalQuery(_Query):
    """Evaluate whether the chosen side has an appropriate position."""

    grid_prompt: str
    context: SpatialContext
    side: Side = Side.RIGHT
    attempt: int = 1
    round_no: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=side_eval\nattempt={self.attempt}\nround={self.round_no}\n"
            f"{self.context.canonical_text()}\n"
            f"side={self.side.value}\ngrid:\n{self.grid_prompt}"
        )


@dataclass(frozen=True)
class CellsQuery(_Query):
    """Name the emoji cells of a contiguous run of columns or rows."""

    grid_prompt: str
    context: SpatialContext
    emap: EmojiMap
    expected_count: int = 1
    axis: str = "cols"  # cols | rows
    side: Side = Side.RIGHT
    primary_run: tuple[int, ...] = ()  # chosen first-axis indices, empty for the first step
    avoid: tuple[int, ...] = ()  # run start indices to not propose
    attempt: int = 1
    round_no: int = 1

    def canonical_text(self) -> str:
        names = ",".join(self.emap.entries.values())
        return (
            f"kind=cells\nattempt={self.attempt}\nround={self.round_no}\n"
            f"{self.context.canonical_text()}\n"
            f"side={self.side.value}\naxis={self.axis}\ncount={self.expected_count}\n"
            f"primary={','.join(str(i) for i in self.primary_run)}\n"
            f"avoid={','.join(str(i) for i in sorted(self.avoid))}\n"
            f"cells={names}\ngrid:\n{self.grid_prompt}"
        )


@dataclass(frozen=True)
class FullLayoutQuery(_Query):
    """Single-shot full-layout request (IO ablation mode only)."""

    plan: RoomPlan
    plan_text: str
    attempt: int = 1

    def canonical_text(self) -> str:
        return f"kind=full_layout\nattempt={self.attempt}\nplan:\n{self.plan_text}"


OracleQuery = (
    RoomQuery
    | RegionQuery
    | ObjectsQuery
    | SupportedQuery
    | SideQuery
    | SideEvalQuery
    | CellsQuery
    | FullLayoutQuery
)

def fingerprint(query: OracleQuery, template_version: str) -> str:
    payload = f"v={template_version}\n{query.canonical_text()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
