"""Global-local tree search over object placements.

The global search is one depth-first loop over the layers, one object
each (anchor first, then descending footprint area).  Each layer yields
its poses to that loop: the anchor layer from its proposals, every
other layer from local searches with a per-layer attempt budget, all
in one context built when the search enters the layer.  Backtracking
removes the previous object and revisits its layer with a fresh budget;
poses whose subtree failed are excluded from later visits, and
re-proposed anchor poses must differ in (wall, yaw) and in position from
every earlier visit.  Total anchor-layer visits are capped by the anchor
budget, which bounds the whole search.

The local search places one object in three oracle-guided steps: side of
the anchor, then the grid run on the side's primary axis (columns for
left/right, rows for top/bottom), then the other axis.  Side choices are
oracle-evaluated before descending; a completed pose is checked
geometrically by the verdict of the context's legality lattice at the
pair of run starts it comes from (``_Lattice.verdict``), which names why
it refuses a pose; the det policy and the feasibility sets read the
same lattices.  Each step is forward-checked against the context's
feasibility sets: a side, or a whole object, with no pose that any
parseable reply could make the search accept gets no question, a step
with one such answer takes it without one, and an asked side question
tells the oracle not to answer a dead side; only the side-eval, the
oracle's veto, is always asked.  A centred anchor's facing is checked
the same way, on whether its box fits the region.  A failed local
search consumes exactly one global attempt, and each global attempt is
its own visit of the layer, so a retry asks new queries.

CoT mode degenerates every budget to 1 and never backtracks: an object
that fails to place is skipped.  IO mode asks for the whole layout in
one query and validates without repairing.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache, partial
from itertools import islice

from treelayout.grid import (
    AABB,
    EmojiMap,
    OccupancyGrid,
    SelectionError,
    Side,
    assign_emojis,
    contiguous_axis_run,
    load_vocabulary,
    parse_emoji_selection,
    rasterize,
    serialize_grid_prompt,
)
from treelayout.model import (
    AnchorRule,
    Dim3,
    Edge,
    EventKind,
    ObjectSpec,
    Parent,
    PlacedObject,
    RegionPlan,
    RoomPlan,
    Scene,
    SearchConfig,
    SearchMode,
    SearchTrace,
    SupportedSet,
    Yaw,
    effective_aabb,
    extents,
    local_anchor,
    q4,
    units,
)
from treelayout.dataflow import Speculation
from treelayout.evaluate import validity_metrics
from treelayout.oracle.base import CALL_PATH, CallPath, OracleSession, PlacementOracle
from treelayout.oracle.queries import (
    CellsQuery,
    FullLayoutQuery,
    SideEvalQuery,
    SideQuery,
    SpatialContext,
    object_spans,
    pose_from_starts,
)

PoseKey = tuple[str, int, int]

ALL_WALLS = frozenset(Side)


@lru_cache(maxsize=1)
def _vocabulary() -> tuple[str, ...]:
    return load_vocabulary()


@dataclass(frozen=True)
class LocalThought:
    """The decision of the three local steps: a side and a validated pose,
    and the steps of it that were forced (``side``, ``cols``, ``rows``)."""

    side: Side
    pose: tuple[float, float, Yaw]
    side_attempt: int
    forced: tuple[str, ...]


@dataclass
class GlobalState:
    """Mutable search state for one region; ``cell_size`` is its grid's
    cell, and ``io_bound`` the oracle's flag (False for an oracle that
    does not set one)."""

    region: RegionPlan
    order: list[ObjectSpec]
    config: SearchConfig
    session: OracleSession
    scope: str
    wall_sides: frozenset[Side]
    cell_size: float
    io_bound: bool = False
    placed: list[PlacedObject] = field(default_factory=list)
    placed_boxes: list[AABB] = field(default_factory=list)
    unplaced: list[str] = field(default_factory=list)

    def push(self, obj: PlacedObject, dims: Dim3) -> None:
        self.placed.append(obj)
        self.placed_boxes.append(obj.aabb(dims))

    def pop(self) -> None:
        self.placed.pop()
        self.placed_boxes.pop()


@dataclass(frozen=True)
class RegionResult:
    placements: tuple[PlacedObject, ...]
    unsat: bool
    unplaced: tuple[str, ...]
    trace: SearchTrace


def layer_order(region: RegionPlan) -> list[ObjectSpec]:
    """Anchor first, then remaining objects by descending footprint area."""
    anchor = region.spec(region.anchor_id)
    rest = [s for s in region.objects if s.id != region.anchor_id]
    rest.sort(key=lambda s: (-s.dims.footprint_area, s.id))
    return [anchor] + rest


def _make_context(state: GlobalState, spec: ObjectSpec, edge: Edge | None,
                  anchor: PlacedObject) -> SpatialContext:
    """The context of a local step for ``spec`` among the objects placed now."""
    cfg = state.config
    return SpatialContext(
        scope=state.scope,
        object_id=spec.id,
        region_length=state.region.length,
        region_width=state.region.width,
        grid=rasterize(state.region, state.placed, state.cell_size),
        placed_boxes=tuple(state.placed_boxes),
        anchor=anchor,
        anchor_dims=state.order[0].dims,
        object_dims=spec.dims,
        relation=edge.relation if edge else None,
        orientation_rule=edge.orientation_rule if edge else None,
        d_front=cfg.d_front,
        d_beside=cfg.d_beside,
        d_around=cfg.d_around,
    )


def _named_grid(state: GlobalState, grid: OccupancyGrid, cells: list[int]) -> tuple[EmojiMap, str]:
    """Emoji names for ``cells`` and the grid prompt that shows them."""
    emap = assign_emojis(cells, _vocabulary())
    return emap, serialize_grid_prompt(grid, emap, state.wall_sides)


def _parse_side(text: str) -> Side | None:
    lowered = text.lower()
    found = [side for side in Side if side.value in lowered]
    return found[0] if len(found) == 1 else None


def _parse_yes(text: str) -> bool:
    head = text.strip().lower()
    return head.startswith("yes") or head.startswith("true")


def _ask_sides(state: GlobalState, ctx: SpatialContext, grid_text: str, budget: int,
               round_no: int, avoid: Iterable[Side] = (),
               live: Callable[[Side], bool] | None = None, order: Sequence[Side] = tuple(Side),
               ) -> Iterator[tuple[int, Side | None, str | None]]:
    """Side step: up to ``budget`` attempts, yielding ``(attempt, side,
    reply)`` per attempt, ``side`` None when the reply names no single
    side or a side already tried (``avoid`` holds those tried before).

    ``live(side)``, if given, says whether some reply naming ``side``
    could make the search accept a pose; the live sides outside those
    tried are looked for in ``order``, up to two.  With one, the attempt
    takes it without asking and yields the reply None; with none, the
    step ends.  Otherwise the question's "Do not answer" names the sides
    tried and the dead ones, so only an asked question tests every side;
    a reply that names a dead side anyway is yielded as it is, for the
    caller to spend the attempt on."""
    tried = list(avoid)
    for attempt in range(1, budget + 1):
        dead: list[Side] = []
        if live is not None:
            left = list(islice((sd for sd in order if sd not in tried and live(sd)), 2))
            if len(left) < 2:
                if not left:
                    return
                state.session.trace.forced_steps["side"] += 1
                tried.append(left[0])
                yield attempt, left[0], None
                continue
            dead = [sd for sd in order if sd not in tried and not live(sd)]
        raw = state.session.ask(SideQuery(
            grid_prompt=grid_text, context=ctx, avoid=tuple(s.value for s in tried + dead),
            attempt=attempt, round_no=round_no,
        ))
        side = _parse_side(raw)
        if side is None or side in tried:
            yield attempt, None, raw
        else:
            tried.append(side)
            yield attempt, side, raw


def _skip(excluded: set[PoseKey], side: Side) -> dict[int, int]:
    """The poses of ``excluded`` on ``side``, as row start -> mask of
    column starts."""
    skip: dict[int, int] = {}
    for sd, p, s in excluded:
        if sd == side.value:
            c0, r0 = (p, s) if side.horizontal else (s, p)
            skip[r0] = skip.get(r0, 0) | 1 << c0
    return skip


def _pose_keys(ctx: SpatialContext, pose: tuple[float, float, Yaw]) -> set[PoseKey]:
    """The keys of every pair of runs that gives ``pose``: a cell beside
    a corner of the anchor is a candidate on two sides (left of it and
    below it, say), so one pose can come from two sides."""
    cx, cy, _ = pose
    grid = ctx.grid
    keys: set[PoseKey] = set()
    for side in Side:
        m_cols, m_rows = object_spans(ctx, side)
        c0 = round(cx / grid.cell_size - m_cols / 2)
        r0 = round(cy / grid.cell_size - m_rows / 2)
        if (0 <= c0 <= grid.cols - m_cols and 0 <= r0 <= grid.rows - m_rows
                and pose_from_starts(ctx, side, c0, r0) == pose):
            keys.add((side.value, c0, r0) if side.horizontal else (side.value, r0, c0))
    return keys


def _live(ctx: SpatialContext, side: Side, excluded: set[PoseKey]) -> bool:
    """Forward check: whether the side's feasibility set holds a pose
    outside ``excluded``, that is, whether some parseable pair of run
    replies would make :func:`local_place` accept a pose there."""
    return bool(ctx.live_starts(side, _skip(excluded, side), limit=1))


def _ask_eval(state: GlobalState, q: SideEvalQuery, after: Callable[[], CellsQuery] | None,
              ) -> tuple[bool, Speculation[tuple[CellsQuery, str]] | None]:
    """Side-eval step: ask ``q``; whether the reply says yes, and the
    question asked ahead, if any.

    The eval is asked even about the only live side: it is the oracle's
    veto, not a choice.  ``after`` builds the next question the side
    still needs (the first run question, or the second when the first
    run is forced), None when every run is forced.  It does not depend
    on the eval's reply, so building and asking it is a speculation on
    the call key a serial run asks it on: with an I/O-bound oracle it
    runs at the same time as the eval, on a thread, else not before it
    is committed.  The speculation is returned for a "yes", for the run
    step to commit; otherwise, also when the eval raises, it is dropped.
    """
    if after is None:
        return _parse_yes(state.session.ask(q)), None
    path = CALL_PATH.get()
    eval_key, after_key = path.next_key(), path.next_key()
    oracle, trace = state.session.oracle, state.session.trace

    def ask_after(sub: SearchTrace) -> tuple[CellsQuery, str]:
        query = after()
        return query, OracleSession(oracle, sub).ask(query)

    ahead = Speculation(ask_after, after_key, oracle, state.io_bound)
    token = CALL_PATH.set(CallPath(eval_key))
    try:
        yes = _parse_yes(state.session.ask(q))
    except BaseException:
        ahead.drop(trace)
        raise
    finally:
        CALL_PATH.reset(token)
    if yes:
        return True, ahead
    ahead.drop(trace)
    return False, None


def _cells_query(state: GlobalState, ctx: SpatialContext, side: Side, axis: str,
                 cells: list[int], count: int, round_no: int, primary_run: tuple[int, ...] = (),
                 avoid: tuple[int, ...] = ()) -> CellsQuery:
    """The run step's first question: ``count`` contiguous ``axis``
    indices among ``cells``."""
    emap, grid_text = _named_grid(state, ctx.grid, cells)
    return CellsQuery(
        grid_prompt=grid_text, context=ctx, emap=emap, expected_count=count, axis=axis,
        side=side, primary_run=primary_run, avoid=avoid, attempt=1, round_no=round_no,
    )


def _ask_runs(state: GlobalState, tag: str, count: int, question: Callable[[], CellsQuery],
              live: Callable[[tuple[int, ...]], list[int]], notes: list[str],
              ahead: Speculation[tuple[CellsQuery, str]] | None = None,
              ) -> Iterator[tuple[list[int], bool]]:
    """Run step: up to the axis budget of attempts, yielding ``(run,
    forced)`` for each novel run of ``count`` indices.

    ``live(tried)`` names up to two run starts outside ``tried`` that some
    reply could make the search accept a pose with: with one, the
    attempt takes its run without asking (``forced``); with none, the
    step ends, with a note if it had no live start at all.  Otherwise
    the first asked attempt asks ``question()``, or commits ``ahead``,
    which asked it already, and later ones ask it again with the next
    attempt number and the runs tried avoided; unusable and repeated
    replies go to ``notes``."""
    first: CellsQuery | None = None
    tried: list[int] = []
    for attempt in range(1, state.config.k_local_axis + 1):
        left = live(tuple(tried))
        if len(left) < 2:
            if not left:
                if attempt == 1:
                    notes.append(f"{tag}: no feasible pose")
                return
            state.session.trace.forced_steps["cells"] += 1
            tried.append(left[0])
            yield list(range(left[0], left[0] + count)), True
            continue
        if first is None:
            if ahead is not None:
                first, raw = ahead.commit(state.session.trace)
            else:
                first = question()
                raw = state.session.ask(first)
        else:
            raw = state.session.ask(replace(first, avoid=tuple(tried) + first.avoid,
                                            attempt=attempt))
        try:
            run = contiguous_axis_run(first.context.grid,
                                      parse_emoji_selection(raw, first.emap, first.expected_count),
                                      first.axis)
        except SelectionError as exc:
            notes.append(f"{tag}: {type(exc).__name__}")
            continue
        if run[0] in tried:
            notes.append(f"{tag}: repeat run {run[0]}")
            continue
        tried.append(run[0])
        yield run, False


def local_place(
    spec: ObjectSpec,
    ctx: SpatialContext,
    state: GlobalState,
    excluded: set[PoseKey],
    round_no: int,
    global_attempt: int,
    layer: int,
) -> tuple[LocalThought | None, str]:
    """Three-step local search for ``spec`` in its layer's context
    ``ctx``; returns a complete validated thought or (None, failure
    summary).  Every completed pose candidate is logged as a Proposed
    event under the caller's global attempt.  With an I/O-bound oracle
    the next run question is built and asked while the side-eval is in
    flight (:func:`_ask_eval`); else it is built only after a "yes".

    Forward checking (:func:`_live`): an object with no feasible pose
    outside ``excluded`` on any side fails with "no feasible pose" and
    asks nothing; an asked side question tells the oracle not to answer
    a side without one, and a reply that names one anyway is noted as
    "<side>: no feasible pose" and asks neither the eval nor the runs.
    The sides with the most candidate cells are checked first.

    A step whose live answers (those of the feasibility sets outside
    ``excluded`` and the answers already tried) number one is forced:
    it takes that answer without asking, and the thought names it in
    ``forced``.  A step with none left ends.  The side-eval is always
    asked."""
    trace = state.session.trace
    grid = ctx.grid
    live = cache(partial(_live, ctx, excluded=excluded))
    order = sorted(Side, key=lambda sd: -len(ctx.candidates[sd]))
    if not any(live(side) for side in order):
        return None, "no feasible pose"
    _, grid_text = _named_grid(state, grid, [])
    notes: list[str] = []
    for side_attempt, side, raw in _ask_sides(state, ctx, grid_text, state.config.k_local_side,
                                              round_no, live=live, order=order):
        if side is None:
            notes.append(f"side reply unusable: {raw[:40]!r}")
            continue
        if not live(side):
            notes.append(f"{side.value}: no feasible pose")
            continue
        cand, skip = ctx.candidates[side], _skip(excluded, side)
        m_cols, m_rows = object_spans(ctx, side)
        if side.horizontal:
            axes, spans, axis_of = ("cols", "rows"), (m_cols, m_rows), grid.col_of
        else:
            axes, spans, axis_of = ("rows", "cols"), (m_rows, m_cols), grid.row_of

        def second(run_p: list[int]) -> CellsQuery:
            p_start, p_end = run_p[0], run_p[-1]
            pose_avoid = tuple(
                sorted(s for (sd, p, s) in excluded if sd == side.value and p == p_start)
            )
            cells = [c for c in cand if p_start <= axis_of(c) <= p_end]
            return _cells_query(state, ctx, side, axes[1], cells, spans[1], round_no,
                                primary_run=(p_start,), avoid=pose_avoid)

        first = partial(_cells_query, state, ctx, side, axes[0], cand, spans[0], round_no)
        starts = cache(partial(ctx.live_starts, side, skip))  # (primary, tried) -> starts
        after: Callable[[], CellsQuery] | None = first
        if len(primaries := starts(None, ())) == 1:  # the first run is forced
            run = list(range(primaries[0], primaries[0] + spans[0]))
            after = None if len(starts(primaries[0], ())) == 1 else partial(second, run)
        yes, ahead = _ask_eval(state, SideEvalQuery(
            grid_prompt=grid_text, context=ctx, side=side, attempt=side_attempt, round_no=round_no,
        ), after)
        if not yes:
            notes.append(f"{side.value}: eval no")
            continue
        p_ahead, s_ahead = (ahead, None) if after is first else (None, ahead)
        for run_p, p_forced in _ask_runs(state, f"{side.value}/{axes[0]}", spans[0], first,
                                         partial(starts, None), notes, p_ahead):
            p_start = run_p[0]
            for run_s, s_forced in _ask_runs(state, f"{side.value}/{axes[1]}", spans[1],
                                             partial(second, run_p), partial(starts, p_start),
                                             notes, s_ahead):
                s_start = run_s[0]
                col_start, row_start = (p_start, s_start) if side.horizontal else (s_start, p_start)
                pose = pose_from_starts(ctx, side, col_start, row_start)
                key: PoseKey = (side.value, p_start, s_start)
                trace.record(
                    layer, spec.id, global_attempt, EventKind.PROPOSED,
                    f"side={side.value} cols={col_start}+{m_cols} rows={row_start}+{m_rows}",
                    scope=state.scope, visit=round_no, pose=pose,
                )
                if key in excluded:
                    notes.append(f"{side.value}: pose {key} already failed downstream")
                    continue
                reason = ctx.lattice(m_cols, m_rows, pose[2].swaps_extents).verdict(
                    col_start, row_start)
                if reason is not None:
                    notes.append(f"{side.value}: {reason}")
                    continue
                forced = tuple(step for step, taken in (
                    ("side", raw is None), (axes[0], p_forced), (axes[1], s_forced)) if taken)
                return LocalThought(side, pose, side_attempt, forced), "ok"
    return None, "; ".join(notes) if notes else "no side worked"


# -- anchor placement ---------------------------------------------------------

AnchorKey = tuple[str, int]


def _wall_proposals(region: RegionPlan, dims: Dim3) -> list[tuple[AnchorKey, float, float, Yaw]]:
    """Flush-to-wall poses facing the interior, longest walls first; walls of
    equal length stay in the order bottom, left, top, right."""
    walls = [
        ("bottom", region.length, Yaw.DEG_0),
        ("left", region.width, Yaw.DEG_90),
        ("top", region.length, Yaw.DEG_180),
        ("right", region.width, Yaw.DEG_270),
    ]
    walls.sort(key=lambda w: -w[1])
    out = []
    for name, _, yaw in walls:
        ex, ey = extents(dims, yaw)
        if name == "bottom":
            center = (region.length / 2.0, ey / 2.0)
        elif name == "top":
            center = (region.length / 2.0, region.width - ey / 2.0)
        elif name == "left":
            center = (ex / 2.0, region.width / 2.0)
        else:
            center = (region.length - ex / 2.0, region.width / 2.0)
        out.append(((name, yaw.value), q4(center[0]), q4(center[1]), yaw))
    return out


def _corner_proposals(region: RegionPlan, dims: Dim3) -> list[tuple[AnchorKey, float, float, Yaw]]:
    """Flush-to-two-walls poses, corner by corner: first facing along the
    axis with more free depth (the y axis on a tie), then along the other."""
    out = []
    for name, (sx, sy) in (
        ("bl", (1, 1)), ("br", (-1, 1)), ("tl", (1, -1)), ("tr", (-1, -1)),
    ):
        yaw_y = Yaw.DEG_0 if sy > 0 else Yaw.DEG_180
        yaw_x = Yaw.DEG_90 if sx > 0 else Yaw.DEG_270
        free_y = units(region.width) - units(extents(dims, yaw_y)[1])
        free_x = units(region.length) - units(extents(dims, yaw_x)[0])
        for yaw in (yaw_y, yaw_x) if free_y >= free_x else (yaw_x, yaw_y):
            ex, ey = extents(dims, yaw)
            cx = ex / 2.0 if sx > 0 else region.length - ex / 2.0
            cy = ey / 2.0 if sy > 0 else region.width - ey / 2.0
            out.append(((name, yaw.value), q4(cx), q4(cy), yaw))
    return out


def place_anchor_visit(
    state: GlobalState,
    visit_no: int,
    used: dict[AnchorKey, tuple[float, float, Yaw]],
) -> tuple[PlacedObject, AnchorKey] | None:
    """One visit of the anchor layer: up to the anchor budget of novel
    proposals under the region's anchor rule, each validated against the
    region bounds.

    ``used`` maps the key of every earlier visit to its pose.  A proposal
    is novel when both differ: in a narrow region two corners can give
    the same pose, whose subtree has already failed."""
    region = state.region
    rule = region.anchor_rule
    cfg = state.config
    spec = state.order[0]
    trace = state.session.trace
    bounds = AABB(0, 0, units(region.length), units(region.width))

    def fits(cx: float, cy: float, yaw: Yaw) -> bool:
        return bounds.contains(effective_aabb(spec.dims, yaw, (cx, cy)))

    def attempt_pose(key: AnchorKey, cx: float, cy: float, yaw: Yaw, attempt: int,
                     forced: bool = False):
        trace.record(1, spec.id, attempt, EventKind.PROPOSED, f"anchor={key[0]}",
                     scope=state.scope, visit=visit_no, pose=(cx, cy, yaw))
        if fits(cx, cy, yaw):
            placed = PlacedObject(spec.id, cx, cy, 0.0, yaw, Parent.floor(region.id))
            trace.record(1, spec.id, attempt, EventKind.ACCEPTED,
                         f"anchor={key[0]}" + (" forced=facing" if forced else ""),
                         scope=state.scope, visit=visit_no, pose=(cx, cy, yaw))
            return placed
        note = (f"anchor does not fit on {key[0]}" if rule is AnchorRule.IN_CENTER
                else f"anchor proposal {key[0]} does not fit")
        trace.record(1, spec.id, attempt, EventKind.REJECTED, note,
                     scope=state.scope, visit=visit_no)
        return None

    if rule in (AnchorRule.ALONG_WALL, AnchorRule.AT_CORNER):
        proposals = (
            _wall_proposals(region, spec.dims)
            if rule is AnchorRule.ALONG_WALL
            else _corner_proposals(region, spec.dims)
        )
        attempt = 0
        for key, cx, cy, yaw in proposals:
            if key in used or (cx, cy, yaw) in used.values():
                continue
            attempt += 1
            if attempt > cfg.k_global_anchor:
                break
            placed = attempt_pose(key, cx, cy, yaw, attempt)
            if placed is not None:
                return placed, key
        return None

    # place_in_center: centered on the region centroid, facing chosen by
    # the oracle among the four directions (toward the most free space).
    # Forward checked as the side step is: a facing whose box does not
    # fit is never offered, and one that fits alone is taken unasked.
    cx, cy = q4(region.length / 2.0), q4(region.width / 2.0)
    probe = PlacedObject(spec.id, cx, cy, 0.0, Yaw.DEG_0, Parent.floor(region.id))
    ctx = _make_context(state, spec, None, probe)
    _, grid_text = _named_grid(state, ctx.grid, [])
    faced = [Side(name) for name, _ in used]
    for attempt, side, raw in _ask_sides(state, ctx, grid_text, cfg.k_global_anchor, visit_no,
                                         faced, live=lambda sd: fits(cx, cy, sd.facing_yaw)):
        if side is None:
            trace.record(1, spec.id, attempt, EventKind.REJECTED, "facing reply unusable",
                         scope=state.scope, visit=visit_no)
            continue
        yaw = side.facing_yaw
        key: AnchorKey = (side.value, yaw.value)
        placed = attempt_pose(key, cx, cy, yaw, attempt, forced=raw is None)
        if placed is not None:
            return placed, key
    return None


# -- region planning -----------------------------------------------------------


def plan_region(
    region: RegionPlan,
    config: SearchConfig,
    oracle: PlacementOracle,
    trace: SearchTrace | None = None,
    wall_sides: frozenset[Side] = ALL_WALLS,
    cell_size: float | None = None,
) -> RegionResult:
    """Place every floor object of one region, or report Unsat.

    In tree mode the result is all-or-nothing; in CoT mode unplaceable
    objects are skipped and reported in ``unplaced``.  The grid cell is
    ``cell_size`` if given (a supporter top's), else the config's.
    """
    if config.mode is SearchMode.IO:
        raise ValueError("plan_region requires tree or cot mode")
    trace = trace if trace is not None else SearchTrace()
    state = GlobalState(
        region=region,
        order=layer_order(region),
        config=config,
        session=OracleSession(oracle, trace),
        scope=region.id,
        wall_sides=wall_sides,
        cell_size=cell_size if cell_size is not None else config.cell_size,
        io_bound=getattr(oracle, "io_bound", False),
    )
    if _solve_from(state, 0):
        return RegionResult(tuple(state.placed), False, tuple(state.unplaced), trace)
    return RegionResult((), True, tuple(s.id for s in state.order), trace)


def _solve_from(state: GlobalState, i: int) -> bool:
    """Depth-first search from layer ``i + 1``: place each pose the layer
    yields and search on; a failed subtree takes it back as a backtrack.
    When the poses run out, CoT skips a non-anchor object, else it fails."""
    if i >= len(state.order):
        return True
    spec = state.order[i]
    layer = i + 1
    trace = state.session.trace
    for placed, visit in _anchor_poses(state) if i == 0 else _object_poses(state, i):
        state.push(placed, spec.dims)
        if _solve_from(state, i + 1):
            return True
        state.pop()
        trace.record(layer, spec.id, 0, EventKind.BACKTRACK, f"from_layer={layer + 1}",
                     scope=state.scope, visit=visit)
    if i and state.config.mode is SearchMode.COT:
        state.unplaced.append(spec.id)
        return _solve_from(state, i + 1)
    return False


def _anchor_poses(state: GlobalState) -> Iterator[tuple[PlacedObject, int]]:
    """The anchor layer's poses and visits: one :func:`place_anchor_visit`
    per visit, up to the anchor budget, never repeating a failed pose."""
    used: dict[AnchorKey, tuple[float, float, Yaw]] = {}
    for visit in range(1, state.config.k_global_anchor + 1):
        result = place_anchor_visit(state, visit, used)
        if result is None:
            state.session.trace.record(1, state.order[0].id, 0, EventKind.BACKTRACK,
                                       "root budget exhausted (no anchor pose)",
                                       scope=state.scope, visit=visit)
            return
        placed, key = result
        yield placed, visit
        used[key] = (placed.x, placed.y, placed.yaw)


def _object_poses(state: GlobalState, i: int) -> Iterator[tuple[PlacedObject, int]]:
    """Layer ``i + 1``'s poses and visits: up to the layer budget of local
    searches each time the search returns to the layer, excluding poses
    whose subtree failed, from whichever side they come.  The objects
    placed before the layer stay placed while it runs, so it builds its
    context once."""
    spec = state.order[i]
    layer = i + 1
    cfg = state.config
    trace = state.session.trace
    skip = cfg.mode is SearchMode.COT
    ctx = _make_context(state, spec, state.region.edge_for(spec.id), state.placed[0])
    excluded: set[PoseKey] = set()
    round_no = 0
    while True:
        for attempt in range(1, cfg.k_global_other + 1):
            round_no += 1  # each global attempt is its own visit, so it asks new queries
            thought, notes = local_place(spec, ctx, state, excluded, round_no, attempt, layer)
            if thought is not None:
                break
            trace.record(layer, spec.id, attempt, EventKind.REJECTED,
                         f"{'skipped: ' if skip else ''}{notes}",
                         scope=state.scope, visit=round_no)
        else:
            return
        cx, cy, yaw = thought.pose
        trace.record(
            layer, spec.id, attempt, EventKind.ACCEPTED,
            f"side={thought.side.value} side_attempt={thought.side_attempt}"
            + (f" forced={','.join(thought.forced)}" if thought.forced else ""),
            scope=state.scope, visit=round_no, pose=thought.pose,
        )
        yield PlacedObject(spec.id, cx, cy, 0.0, yaw, Parent.floor(state.region.id)), round_no
        excluded |= _pose_keys(ctx, thought.pose)


# -- supported objects ----------------------------------------------------------


def place_supported(
    supporter_spec: ObjectSpec,
    sub: SupportedSet,
    config: SearchConfig,
    oracle: PlacementOracle,
    trace: SearchTrace,
) -> list[PlacedObject]:
    """Solve the supporter's top face as a miniature region.

    Placements come back supporter-local (origin at the top face's
    bottom-left at yaw 0) with z already set to the supporter height.
    An Unsat sub-problem drops the supported objects with a trace note
    and never fails the parent search.

    Only the supporter's spec (its id and dims) is read, never its pose,
    so the top can be searched before or while its supporter is placed.
    """
    if not sub.objects:
        return []
    mini = RegionPlan(
        id=f"top:{supporter_spec.id}",
        function="top surface",
        length=supporter_spec.dims.length,
        width=supporter_spec.dims.depth,
        objects=sub.objects,
        anchor_id=local_anchor(sub.objects).id,
        anchor_rule=AnchorRule.IN_CENTER,
        edges=sub.edges,
    )
    result = plan_region(mini, config, oracle, trace=trace, cell_size=config.cell_size / 5.0)
    if result.unsat:
        trace.record(0, supporter_spec.id, 0, EventKind.REJECTED,
                     "supported set dropped (unsat)", scope=mini.id)
        return []
    for dropped in result.unplaced:
        trace.record(0, dropped, 0, EventKind.REJECTED, "supported object skipped", scope=mini.id)
    return [
        PlacedObject(
            p.spec_id, p.x, p.y, supporter_spec.dims.height, p.yaw,
            Parent.supporter(supporter_spec.id),
        )
        for p in result.placements
    ]


# -- IO mode ---------------------------------------------------------------------

_IO_LINE_RE = re.compile(
    r"^\s*([a-z0-9_]+)\s*:\s*x\s*=\s*(-?[0-9.]+)\s+y\s*=\s*(-?[0-9.]+)"
    r"\s+z\s*=\s*(-?[0-9.]+)\s+yaw\s*=\s*(\d+)\s*$",
    re.IGNORECASE,
)


def plan_io_text(plan: RoomPlan) -> str:
    lines = [f"room: {plan.room_type} {plan.length:g} x {plan.width:g}"]
    for region in plan.regions:
        lines.append(f"region {region.id}: {region.function} {region.length:g} x {region.width:g}")
        for spec in region.objects:
            role = "anchor" if spec.id == region.anchor_id else "object"
            d = spec.dims
            lines.append(f"  {spec.id}: {spec.category} {d.length:g} x {d.depth:g} x {d.height:g} ({role})")
    return "\n".join(lines)


def run_io_mode(
    plan: RoomPlan,
    oracle: PlacementOracle,
    config: SearchConfig,
    trace: SearchTrace | None = None,
) -> Scene:
    """Single-shot layout: one oracle call, validated but never repaired."""
    trace = trace if trace is not None else SearchTrace()
    session = OracleSession(oracle, trace)
    raw = session.ask(FullLayoutQuery(plan=plan, plan_text=plan_io_text(plan)))
    region_of = {s.id: r.id for r in plan.regions for s in r.objects}
    placements: list[PlacedObject] = []
    parsed_any = False
    for line in raw.splitlines():
        m = _IO_LINE_RE.match(line)
        if not m:
            continue
        parsed_any = True
        oid = m.group(1).lower()
        if oid not in region_of:
            trace.record(0, oid, 0, EventKind.REJECTED, "unknown object id", scope="io")
            continue
        try:
            yaw = Yaw.of(int(m.group(5)))
        except ValueError:
            trace.record(0, oid, 0, EventKind.REJECTED, "bad yaw", scope="io")
            continue
        placements.append(
            PlacedObject(
                oid, float(m.group(2)), float(m.group(3)), float(m.group(4)),
                yaw, Parent.floor(region_of[oid]),
            )
        )
    if not parsed_any:
        trace.record(0, "io", 0, EventKind.REJECTED, "parse failure: no placements", scope="io")
    scene = Scene(plan=plan, placements=tuple(placements), trace=trace)
    # validated, never repaired: violations go on the record
    m = validity_metrics(scene, config)
    if m.overlap_pairs or m.oob_objects or m.relation_violations:
        trace.record(0, "io", 0, EventKind.REJECTED, f"violations overlap={m.overlap_pairs} "
                     f"oob={m.oob_objects} relation={m.relation_violations}", scope="io")
    return scene
