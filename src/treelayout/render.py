"""Deterministic top-down SVG rendering, with trace-step replay.

The full-scene render draws the room, region boundaries, and labeled
object rectangles (anchor filled red, a tick mark on the facing edge).
Given a step index and the trace log, the renderer instead replays the
first ``step`` events and draws the partial state at that point,
including objects that a later backtrack removed.
"""

from __future__ import annotations

from treelayout.compose import attach_supported, compose
from treelayout.model import (
    EventKind,
    Parent,
    PlacedObject,
    Scene,
    TraceEvent,
    extents,
)

SCALE = 100.0  # px per meter
MARGIN = 24.0


class TraceMismatch(ValueError):
    """The trace cannot be replayed onto the scene: an event names a
    search scope the scene does not have, or no event carries a pose
    while the scene has placements."""


def replay_placements(scene: Scene, events: list[TraceEvent], step: int) -> list[PlacedObject]:
    """State after applying the first ``step`` trace events.

    Accepted events add a region- or supporter-local placement at their
    layer; a Backtrack event at a layer removes that layer's placement
    within its scope.  Local poses are lifted to room coordinates the
    way a finished run's are, by :func:`compose` and :func:`attach_supported`.
    An event at layer 1 or deeper whose scope is neither a plan region
    nor ``top:<object id>`` raises :class:`TraceMismatch`, whatever the
    step: the trace belongs to another scene.  So does a trace with no
    pose for a scene with placements, such as an IO-mode run's, which
    places everything in one reply and records no steps.
    """
    if step < 0 or step > len(events):
        raise IndexError(f"step {step} outside 0..{len(events)}")
    specs = scene.spec_index()
    region_ids = {r.id for r in scene.plan.regions}
    scopes = region_ids | {f"top:{oid}" for oid in specs}
    for e in events:
        if e.layer >= 1 and e.scope not in scopes:
            raise TraceMismatch(f"scope {e.scope!r} of {e.object_id} is not in the scene")
    if scene.placements and all(e.pose is None for e in events):
        raise TraceMismatch("the trace records no placement steps for this scene's placements")
    live: dict[tuple[str, int], TraceEvent] = {}
    for e in events[:step]:
        if e.layer < 1:
            continue
        if e.kind is EventKind.ACCEPTED and e.pose is not None:
            live[(e.scope, e.layer)] = e
        elif e.kind is EventKind.BACKTRACK:
            live.pop((e.scope, e.layer), None)

    floor: dict[str, list[PlacedObject]] = {}
    supported: dict[str, list[PlacedObject]] = {}
    for e in live.values():
        x, y, yaw = e.pose
        if e.scope in region_ids:
            floor.setdefault(e.scope, []).append(
                PlacedObject(e.object_id, x, y, 0.0, yaw, Parent.floor(e.scope))
            )
        else:
            sup_id = e.scope[len("top:"):]
            supported.setdefault(sup_id, []).append(
                PlacedObject(e.object_id, x, y, specs[sup_id].dims.height, yaw,
                             Parent.supporter(sup_id))
            )
    return list(attach_supported(compose(scene.plan, floor, scene.trace), supported).placements)


def render_scene(
    scene: Scene,
    step: int | None = None,
    events: list[TraceEvent] | None = None,
) -> str:
    """SVG text for the scene, or for a replayed partial state."""
    plan = scene.plan
    if step is None:
        placements = list(scene.placements)
    else:
        if events is None:
            events = list(scene.trace.events)
        placements = replay_placements(scene, events, step)

    specs = scene.spec_index()
    anchor_ids = {r.anchor_id for r in plan.regions}
    w_px = plan.length * SCALE + 2 * MARGIN
    h_px = plan.width * SCALE + 2 * MARGIN

    def sx(x: float) -> float:
        return MARGIN + x * SCALE

    def sy(y: float) -> float:
        return MARGIN + (plan.width - y) * SCALE

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px:.1f}" height="{h_px:.1f}" '
        f'viewBox="0 0 {w_px:.1f} {h_px:.1f}">',
        f'<rect x="{sx(0):.1f}" y="{sy(plan.width):.1f}" width="{plan.length * SCALE:.1f}" '
        f'height="{plan.width * SCALE:.1f}" fill="#fbf7ef" stroke="#4a4a4a" stroke-width="3"/>',
    ]
    offset = 0.0
    for region in plan.regions[:-1]:
        offset += region.length
        parts.append(
            f'<line x1="{sx(offset):.1f}" y1="{sy(0):.1f}" x2="{sx(offset):.1f}" '
            f'y2="{sy(plan.width):.1f}" stroke="#9a9a9a" stroke-width="1.5" '
            f'stroke-dasharray="6 4"/>'
        )
    floor_ps = [p for p in placements if p.parent.kind == "floor"]
    supported_ps = [p for p in placements if p.parent.kind == "supporter"]
    for p in floor_ps + supported_ps:
        spec = specs.get(p.spec_id)
        if spec is None:
            continue
        half_x, half_y = (e / 2.0 for e in extents(spec.dims, p.yaw))
        x0, y0, x1, y1 = p.x - half_x, p.y - half_y, p.x + half_x, p.y + half_y
        width, height = x1 - x0, y1 - y0
        if p.spec_id in anchor_ids:
            fill = "#d9534f"
        elif p.parent.kind == "supporter":
            fill = "#a8c7e8"
        else:
            fill = "#d8d8d0"
        parts.append(
            f'<rect x="{sx(x0):.1f}" y="{sy(y1):.1f}" width="{width * SCALE:.1f}" '
            f'height="{height * SCALE:.1f}" fill="{fill}" stroke="#333333" stroke-width="1"/>'
        )
        fx, fy = p.yaw.facing
        tick_len = min(width, height) / 2.0
        ex = p.x + fx * (width / 2.0 if fx else 0.0)
        ey = p.y + fy * (height / 2.0 if fy else 0.0)
        tx = p.x + fx * max(width / 2.0 - tick_len, 0.0) if fx else p.x
        ty = p.y + fy * max(height / 2.0 - tick_len, 0.0) if fy else p.y
        parts.append(
            f'<line x1="{sx(tx):.1f}" y1="{sy(ty):.1f}" x2="{sx(ex):.1f}" y2="{sy(ey):.1f}" '
            f'stroke="#1a1a1a" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{sx(p.x):.1f}" y="{sy(p.y):.1f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{spec.category}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
