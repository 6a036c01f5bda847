"""End-to-end generation: hierarchy build, per-region search, composition."""

from __future__ import annotations

import contextvars
import threading
from collections.abc import Callable, Sequence
from functools import partial
from typing import TypeVar

from treelayout.catalog import AssetCatalog
from treelayout.compose import attach_supported, compose
from treelayout.grid import Side
from treelayout.hierarchy import build_room_plan
from treelayout.model import (
    EventKind,
    PlacedObject,
    RoomPlan,
    Scene,
    SearchConfig,
    SearchMode,
    SearchTrace,
)
from treelayout.oracle.base import CALL_PATH, CallPath, OracleSession, PlacementOracle
from treelayout.search import RegionResult, place_supported, plan_region, run_io_mode

T = TypeVar("T")


def region_wall_sides(plan: RoomPlan, index: int) -> frozenset[Side]:
    """Which sides of a region are room walls: top/bottom always, left only
    for the first region, right only for the last (regions tile along x)."""
    sides = {Side.TOP, Side.BOTTOM}
    if index == 0:
        sides.add(Side.LEFT)
    if index == len(plan.regions) - 1:
        sides.add(Side.RIGHT)
    return frozenset(sides)


def run_subproblems(
    oracle: PlacementOracle,
    jobs: Sequence[Callable[[SearchTrace], T]],
    trace: SearchTrace,
) -> list[T]:
    """Run independent subproblems and return their results in list order.

    Each job takes the trace it must record into.  When there are at
    least two jobs and ``oracle.io_bound`` is set, the jobs overlap: the
    first runs in the calling thread and every other one on a thread of
    its own, so there are as many threads as jobs, which the plan caps
    bound (at most 3 regions, or the supporters of one region).  Each
    job then has its own :class:`SearchTrace`, appended to ``trace`` in
    list order, and its own :class:`CallPath`, so the trace and a
    recorded transcript are those of the serial run.  Otherwise the jobs
    run inline, one after another.

    Every thread is joined before this returns; the first failing job in
    list order raises its exception.
    """
    if len(jobs) < 2 or not oracle.io_bound:
        return [job(trace) for job in jobs]
    group = CALL_PATH.get().next_key()
    traces = [SearchTrace() for _ in jobs]
    results: list = [None] * len(jobs)
    errors: list[BaseException | None] = [None] * len(jobs)

    def run(j: int) -> None:
        CALL_PATH.set(CallPath(group + (j,)))
        try:
            results[j] = jobs[j](traces[j])
        except BaseException as exc:  # raised again below, in list order
            errors[j] = exc

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, j))
        for j in range(1, len(jobs))
    ]
    for t in threads:
        t.start()
    contextvars.copy_context().run(run, 0)
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    for sub in traces:
        trace.events.extend(sub.events)
        trace.oracle_calls += sub.oracle_calls
    return results


def solve_plan(plan: RoomPlan, config: SearchConfig, oracle: PlacementOracle,
               trace: SearchTrace) -> Scene:
    """Run the configured mode over an already-built plan.

    Regions, and the supporters of one placed region, are independent
    subproblems (:func:`run_subproblems`).
    """
    if config.mode is SearchMode.IO:
        return run_io_mode(plan, oracle, config, trace=trace)

    def solve_region(
        i: int, sub_trace: SearchTrace
    ) -> tuple[RegionResult, dict[str, list[PlacedObject]]]:
        region = plan.regions[i]
        result = plan_region(
            region, config, oracle, trace=sub_trace, wall_sides=region_wall_sides(plan, i)
        )
        if result.unsat:
            return result, {}
        placed = {p.spec_id: p for p in result.placements}

        def solve_supporter(sup_id: str, sup_trace: SearchTrace) -> list[PlacedObject]:
            if sup_id not in placed:
                sup_trace.record(0, sup_id, 0, EventKind.REJECTED,
                                 "supporter unplaced, supported set dropped", scope=region.id)
                return []
            return place_supported(
                placed[sup_id], region.spec(sup_id), region.supported[sup_id],
                config, oracle, sup_trace,
            )

        sup_ids = sorted(region.supported)
        jobs = [partial(solve_supporter, sup_id) for sup_id in sup_ids]
        supported = run_subproblems(oracle, jobs, sub_trace)
        return result, {s: locals_ for s, locals_ in zip(sup_ids, supported) if locals_}

    jobs = [partial(solve_region, i) for i in range(len(plan.regions))]
    region_solutions: dict[str, list[PlacedObject]] = {}
    unsat: list[str] = []
    supported_map: dict[str, list[PlacedObject]] = {}
    for region, (result, supported) in zip(plan.regions, run_subproblems(oracle, jobs, trace)):
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
    """Build the hierarchical plan from the prompt, then solve it."""
    catalog = catalog if catalog is not None else AssetCatalog.default()
    trace = SearchTrace()
    session = OracleSession(oracle, trace)
    plan = build_room_plan(prompt, session, catalog)
    return solve_plan(plan, config, oracle, trace)


def scene_is_complete(scene: Scene) -> bool:
    """True when every planned object (floor and supported) got placed."""
    placed = {p.spec_id for p in scene.placements}
    return all(s.id in placed for s in scene.plan.all_specs())
