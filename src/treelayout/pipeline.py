"""End-to-end generation: hierarchy build, per-region search, composition."""

from __future__ import annotations

import threading
from functools import partial

from treelayout.catalog import AssetCatalog
from treelayout.compose import attach_supported, compose
from treelayout.dataflow import Speculation, Task, merge, run_subproblems
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


def region_wall_sides(plan: RoomPlan | RoomFrame, index: int) -> frozenset[Side]:
    """Which sides of a region are room walls: top/bottom always, left only
    for the first region, right only for the last (regions tile along x)."""
    sides = {Side.TOP, Side.BOTTOM}
    if index == 0:
        sides.add(Side.LEFT)
    if index == len(plan.regions) - 1:
        sides.add(Side.RIGHT)
    return frozenset(sides)


def _keep_tops(region: RegionPlan, result: RegionResult,
               tops: dict[str, Speculation[list[PlacedObject]]],
               trace: SearchTrace) -> dict[str, list[PlacedObject]]:
    """The supported objects placed on each placed supporter of a searched
    region, given every supporter's top in supporter order.

    ``trace`` gets what a serial run records after the floor search: the
    top of each placed supporter is committed, and the first that raised
    raises its error.  The top of a supporter that was not placed (every
    top of an unsat region, or of a supporter CoT skipped) is dropped, and
    outside an unsat region the trace notes it.
    """
    placed = {p.spec_id for p in result.placements}
    supported: dict[str, list[PlacedObject]] = {}
    for sup_id, top in tops.items():
        if sup_id in placed:
            placements = top.commit(trace)
            if placements:
                supported[sup_id] = placements
            continue
        top.drop(trace)
        if not result.unsat:
            trace.record(0, sup_id, 0, EventKind.REJECTED,
                         "supporter unplaced, supported set dropped", scope=region.id)
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

    The floor search, each supporter's ``SupportedQuery`` chain
    (:func:`~treelayout.dataflow.run_subproblems`) and each supporter's
    top search are :class:`~treelayout.dataflow.Speculation` objects.  A
    top reads only its supporter's spec, so it is made as soon as the
    region is built, and committed only for a supporter the floor search
    placed; the others (every top of an unsat region, or of a supporter
    CoT skipped) are dropped, as is the floor search of a region whose
    hierarchy failed.  When ``oracle.io_bound`` is set, each region runs
    on a thread of its own, and so does each speculation, so the tops are
    searched while the floor search runs; a dropped speculation has its
    calls discarded from the oracle (:meth:`PlacementOracle.discard`) and
    counted in ``trace.discarded_calls``, and its error ignored.
    Otherwise the same code runs inline, region after region: each
    speculation runs when it is committed, the floor search and then the
    placed supporters' tops, and a dropped one never runs.

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
        floor_search: Speculation[RegionResult] | None = None
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
            floor_search = Speculation(
                partial(plan_region, floor, config, oracle,
                        wall_sides=region_wall_sides(frame, i)),
                search + (i, 0), oracle, threaded,
            )
            jobs = [partial(_ask_supported, oracle, catalog, spec) for spec in supporters(floor)]
            plans[i] = add_supported(floor, run_subproblems(oracle, jobs, hier_trace), ids,
                                     hier_trace)
        except BaseException as exc:  # raised again below, in region order
            hier_errors[i] = exc
        finally:
            numbered[i].set()
        region = plans[i]
        if region is None:  # the hierarchy failed; its error is raised
            if floor_search is not None:
                floor_search.drop(search_trace)
            return None
        path = CallPath(search + (i, 1))
        tops = {sup_id: Speculation(partial(place_supported, region.spec(sup_id), sub, config,
                                            oracle), path.next_key(), oracle, threaded)
                for sup_id, sub in sorted(region.supported.items())}
        try:
            result = floor_search.commit(search_trace)
        finally:
            for top in tops.values():
                top.join()
        return result, _keep_tops(region, result, tops, search_trace)

    tasks = [Task(partial(solve_region, i), threaded, CallPath(hier + (i,))) for i in range(n)]
    for task in tasks:
        task.join()
    for exc in hier_errors:
        if exc is not None:
            raise exc
    plan = assemble_plan(frame, plans)
    solutions = [task.result() for task in tasks]
    merge(trace, hier_traces + search_traces)
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
