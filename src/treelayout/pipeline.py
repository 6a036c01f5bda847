"""End-to-end generation: hierarchy build, per-region search, composition."""

from __future__ import annotations

import contextvars
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import TypeVar

from treelayout.catalog import AssetCatalog
from treelayout.compose import attach_supported, compose
from treelayout.grid import Side
from treelayout.hierarchy import (
    IdAllocator,
    ObjectProposal,
    RoomFrame,
    add_supported,
    ask_floor_objects,
    ask_supported,
    assemble_plan,
    build_room_frame,
    build_room_plan,
    number_floor_objects,
    supporters,
)
from treelayout.model import (
    EventKind,
    ObjectSpec,
    PlacedObject,
    RegionPlan,
    RoomPlan,
    Scene,
    SearchConfig,
    SearchMode,
    SearchTrace,
)
from treelayout.oracle.base import CALL_PATH, CallPath, OracleSession, PlacementOracle
from treelayout.search import RegionResult, place_supported, plan_region, run_io_mode

T = TypeVar("T")


def region_wall_sides(plan: RoomPlan | RoomFrame, index: int) -> frozenset[Side]:
    """Which sides of a region are room walls: top/bottom always, left only
    for the first region, right only for the last (regions tile along x)."""
    sides = {Side.TOP, Side.BOTTOM}
    if index == 0:
        sides.add(Side.LEFT)
    if index == len(plan.regions) - 1:
        sides.add(Side.RIGHT)
    return frozenset(sides)


class _Task:
    """``fn()`` run in a copy of the current context, on ``path`` if one is
    given: on a thread of its own when ``threaded``, else at once in the
    calling thread.  :meth:`result` joins the thread, then returns what
    ``fn`` returned or raises what it raised."""

    def __init__(self, fn: Callable[[], T], threaded: bool, path: CallPath | None = None):
        self._value: T | None = None
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        run = partial(contextvars.copy_context().run, self._run, fn, path)
        if threaded:
            self._thread = threading.Thread(target=run)
            self._thread.start()
        else:
            run()

    def _run(self, fn: Callable[[], T], path: CallPath | None) -> None:
        if path is not None:
            CALL_PATH.set(path)
        try:
            self._value = fn()
        except BaseException as exc:  # raised again by result()
            self._error = exc

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join()

    def result(self) -> T:
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


def _merge(trace: SearchTrace, subs: Sequence[SearchTrace]) -> None:
    for sub in subs:
        trace.events.extend(sub.events)
        trace.oracle_calls += sub.oracle_calls
        trace.discarded_calls += sub.discarded_calls


def run_subproblems(
    oracle: PlacementOracle,
    jobs: Sequence[Callable[[SearchTrace], T]],
    trace: SearchTrace,
) -> list[T]:
    """Run independent subproblems and return their results in list order.

    Each job takes the trace it must record into.  When there are at
    least two jobs and ``oracle.io_bound`` is set, the jobs overlap, each
    on a thread of its own while the calling thread waits.  A group is
    the supporters of one region, either their ``SupportedQuery`` chains
    or their tops, so it holds at most
    :data:`~treelayout.hierarchy.MAX_REGION_OBJECTS` jobs.  Each job then
    has its own :class:`SearchTrace`, appended to ``trace`` in list
    order, and its own :class:`CallPath`, so the trace and a recorded
    transcript are those of the serial run.  Otherwise the jobs run
    inline, one after another.

    Every thread is joined before this returns; the first failing job in
    list order raises its exception.
    """
    if len(jobs) < 2 or not oracle.io_bound:
        return [job(trace) for job in jobs]
    group = CALL_PATH.get().next_key()
    traces = [SearchTrace() for _ in jobs]
    tasks = [_Task(partial(job, sub), True, CallPath(group + (j,)))
             for j, (job, sub) in enumerate(zip(jobs, traces))]
    for task in tasks:
        task.join()
    results = [task.result() for task in tasks]
    _merge(trace, traces)
    return results


@dataclass
class _Top:
    """One supporter's top search: the trace it recorded into, the
    :class:`CallPath` prefix of its oracle calls, and its placements, or
    the error it raised if it ran speculatively."""

    trace: SearchTrace
    prefix: tuple[int, ...]
    placements: list[PlacedObject] = field(default_factory=list)
    error: Exception | None = None


def _search_tops(region: RegionPlan, sup_ids: Sequence[str], config: SearchConfig,
                 oracle: PlacementOracle, speculative: bool) -> dict[str, _Top]:
    """Search the tops of these supporters of the region as independent
    subproblems (:func:`run_subproblems`) on the current call path.  A
    speculative top keeps its error, to be raised only if the top is
    kept (:func:`_keep_tops`); otherwise the first error is raised at
    once, as in a serial run."""

    def search(sup_id: str, _: SearchTrace) -> _Top:
        # a trace of its own, so that each top can be kept or dropped alone
        top = _Top(SearchTrace(), CALL_PATH.get().prefix)
        try:
            top.placements = place_supported(region.spec(sup_id), region.supported[sup_id],
                                             config, oracle, top.trace)
        except Exception as exc:
            if not speculative:
                raise
            top.error = exc
        return top

    jobs = [partial(search, sup_id) for sup_id in sup_ids]
    return dict(zip(sup_ids, run_subproblems(oracle, jobs, SearchTrace())))


def _keep_tops(region: RegionPlan, result: RegionResult, tops: dict[str, _Top],
               oracle: PlacementOracle, trace: SearchTrace) -> dict[str, list[PlacedObject]]:
    """The supported objects placed on each placed supporter of a searched
    region, given its searched tops.

    A top whose supporter was not placed (every top of an unsat region,
    or of a supporter CoT skipped) is dropped: its calls are counted in
    ``trace.discarded_calls`` and discarded from the oracle, and its
    error is ignored.  Then ``trace`` gets what a serial run records
    after the floor search, in supporter order: each kept top's trace,
    or a note for a supporter left unplaced.  The first kept top that
    raised raises its error.
    """
    placed = set() if result.unsat else {p.spec_id for p in result.placements}
    for sup_id, top in tops.items():
        if sup_id not in placed:
            trace.discarded_calls += top.trace.oracle_calls
            oracle.discard(top.prefix)
    if result.unsat:
        return {}
    supported: dict[str, list[PlacedObject]] = {}
    for sup_id in sorted(region.supported):
        if sup_id not in placed:
            trace.record(0, sup_id, 0, EventKind.REJECTED,
                         "supporter unplaced, supported set dropped", scope=region.id)
            continue
        top = tops[sup_id]
        if top.error is not None:
            raise top.error
        _merge(trace, [top.trace])
        if top.placements:
            supported[sup_id] = top.placements
    return supported


def _ask_supported(oracle: PlacementOracle, catalog: AssetCatalog, spec: ObjectSpec,
                   trace: SearchTrace) -> list[ObjectProposal]:
    return ask_supported(spec, OracleSession(oracle, trace), catalog)


def solve_plan(frame: RoomFrame, config: SearchConfig, oracle: PlacementOracle,
               catalog: AssetCatalog, trace: SearchTrace) -> Scene:
    """Build and search the room's regions in tree or CoT mode, one
    dataflow subproblem per region, and compose the scene.

    Region *i* asks for its floor objects at once.  Ids are room-wide
    and given in plan order, so it numbers them only when region *i-1*
    has numbered its supported objects.  Then its floor search starts,
    together with the ``SupportedQuery`` chains of its supporters; once
    the replies are back it numbers the supported objects and passes the
    turn on.

    When ``oracle.io_bound`` is set, each region and each floor search
    runs on a thread of its own, and so does each supporter's
    ``SupportedQuery`` chain and top search (:func:`run_subproblems`).
    A top reads only its supporter's spec, so the region's thread then
    searches every supporter's top while the floor search runs, and
    keeps only the tops of the supporters the floor search placed.  A
    dropped top (every top of an unsat region, or of a supporter CoT
    skipped) has its calls discarded from the oracle
    (:meth:`PlacementOracle.discard`) and counted in
    ``trace.discarded_calls``, and its error ignored.  Otherwise the
    same steps run inline, region after region, and the tops of the
    placed supporters are searched once the floor search is done.

    Nothing written depends on when a call ran: region *i* asks on the
    :class:`CallPath` ``hier + (i,)``, searches its floor on ``search +
    (i, 0)`` and its tops on ``search + (i, 1)``, and records into one
    trace per phase and one per top, merged as every hierarchy trace in
    region order, then every search trace, each followed by its region's
    kept tops in supporter order.  Every thread is joined before this
    returns or raises.  The first hierarchy error in region order is
    raised, then :class:`~treelayout.hierarchy.InvalidPlan`, then the
    first search error (a region's floor-search error before its kept
    tops' errors): the error a serial run raises first.
    """
    n = len(frame.regions)
    threaded = oracle.io_bound
    root = CALL_PATH.get()
    hier, search = root.next_key(), root.next_key()
    ids = IdAllocator()
    hier_traces = [SearchTrace() for _ in range(n)]
    search_traces = [SearchTrace() for _ in range(n)]
    numbered = [threading.Event() for _ in range(n)]
    plans: list[RegionPlan | None] = [None] * n
    hier_errors: list[BaseException | None] = [None] * n

    def solve_region(i: int) -> tuple[RegionResult, dict[str, list[PlacedObject]]] | None:
        """Region *i*'s subproblem; a hierarchy error goes to ``hier_errors``,
        a search error is raised."""
        region_id, function, length = frame.regions[i]
        hier_trace, search_trace = hier_traces[i], search_traces[i]
        floor_search: _Task | None = None
        try:
            proposals = ask_floor_objects(region_id, function, length, frame.width,
                                          frame.room_type, frame.prompt,
                                          OracleSession(oracle, hier_trace), catalog)
            if i:
                numbered[i - 1].wait()
                if plans[i - 1] is None:  # an earlier region failed; its error is raised
                    return None
            floor = number_floor_objects(region_id, function, length, frame.width, proposals,
                                         ids, hier_trace)
            floor_search = _Task(
                partial(plan_region, floor, config, oracle, search_trace,
                        region_wall_sides(frame, i)),
                threaded, CallPath(search + (i, 0)),
            )
            jobs = [partial(_ask_supported, oracle, catalog, spec) for spec in supporters(floor)]
            plans[i] = add_supported(floor, run_subproblems(oracle, jobs, hier_trace), ids,
                                     hier_trace)
        except BaseException as exc:  # raised again below, in region order
            hier_errors[i] = exc
        finally:
            numbered[i].set()
        if floor_search is None:
            return None
        region = plans[i]
        CALL_PATH.set(CallPath(search + (i, 1)))
        tops: dict[str, _Top] = {}
        if region is not None and threaded:
            # a top reads only its supporter's spec: search every top
            # while the floor search runs, and drop the unused ones after
            tops = _search_tops(region, sorted(region.supported), config, oracle, True)
        result = floor_search.result()
        if region is None:
            return None
        if not threaded and not result.unsat:
            placed = {p.spec_id for p in result.placements}
            tops = _search_tops(region, [s for s in sorted(region.supported) if s in placed],
                                config, oracle, False)
        return result, _keep_tops(region, result, tops, oracle, search_trace)

    tasks = [_Task(partial(solve_region, i), threaded, CallPath(hier + (i,))) for i in range(n)]
    for task in tasks:
        task.join()
    for exc in hier_errors:
        if exc is not None:
            raise exc
    plan = assemble_plan(frame, plans)
    solutions = [task.result() for task in tasks]
    _merge(trace, hier_traces + search_traces)
    region_solutions: dict[str, list[PlacedObject]] = {}
    unsat: list[str] = []
    supported_map: dict[str, list[PlacedObject]] = {}
    for region, (result, supported) in zip(plan.regions, solutions):
        if result.unsat:
            unsat.append(region.id)
            continue
        region_solutions[region.id] = list(result.placements)
        supported_map.update(supported)
    scene = compose(plan, region_solutions, trace, tuple(unsat))
    return attach_supported(scene, supported_map)


def generate_scene(
    prompt: str,
    config: SearchConfig,
    oracle: PlacementOracle,
    catalog: AssetCatalog | None = None,
) -> Scene:
    """The scene for the prompt.  IO mode builds the whole plan, then lays
    it out in one shot; tree and CoT modes build and search each region
    as it becomes ready (:func:`solve_plan`)."""
    catalog = catalog if catalog is not None else AssetCatalog.default()
    trace = SearchTrace()
    session = OracleSession(oracle, trace)
    if config.mode is SearchMode.IO:
        return run_io_mode(build_room_plan(prompt, session, catalog), oracle, config, trace=trace)
    return solve_plan(build_room_frame(prompt, session), config, oracle, catalog, trace)


def scene_is_complete(scene: Scene) -> bool:
    """True when every planned object (floor and supported) got placed."""
    placed = {p.spec_id for p in scene.placements}
    return all(s.id in placed for s in scene.plan.all_specs())
