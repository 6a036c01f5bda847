"""Assembly of per-region solutions into a room-absolute scene."""

from __future__ import annotations

from treelayout.model import (
    AABB,
    Parent,
    PlacedObject,
    RoomPlan,
    Scene,
    SearchTrace,
    Yaw,
    q4,
)


class CompositionOverlap(RuntimeError):
    """Cross-region overlap after translation; regions are disjoint
    intervals, so this can only come from an engine bug."""


def compose(
    plan: RoomPlan,
    region_solutions: dict[str, list[PlacedObject]],
    trace: SearchTrace,
    unsat_regions: tuple[str, ...] = (),
) -> Scene:
    """Translate each region's placements by the region's x-offset.

    Regions stack along the room length in plan order; Unsat regions
    contribute no objects but stay recorded on the scene.
    """
    placements: list[PlacedObject] = []
    boxes: list[tuple[AABB, str]] = []
    specs = {s.id: s for r in plan.regions for s in r.objects}
    for region in plan.regions:
        offset = plan.region_x_offset(region.id)
        for p in region_solutions.get(region.id, []):
            moved = PlacedObject(p.spec_id, q4(p.x + offset), p.y, p.z, p.yaw, p.parent)
            box = moved.aabb(specs[moved.spec_id].dims)
            for other_box, other_region in boxes:
                if other_region != region.id and box.overlaps(other_box):
                    raise CompositionOverlap(
                        f"{moved.spec_id} in {region.id} overlaps an object of {other_region}"
                    )
            boxes.append((box, region.id))
            placements.append(moved)
    return Scene(
        plan=plan,
        placements=tuple(placements),
        trace=trace,
        unsat_regions=tuple(unsat_regions),
    )


def rotate_local(dx: float, dy: float, yaw: Yaw) -> tuple[float, float]:
    """Offset in a supporter's local frame, rotated into the room frame by its yaw."""
    if yaw is Yaw.DEG_0:
        return dx, dy
    if yaw is Yaw.DEG_90:
        return dy, -dx
    if yaw is Yaw.DEG_180:
        return -dx, -dy
    return -dy, dx


def attach_supported(
    scene: Scene, supported: dict[str, list[PlacedObject]]
) -> Scene:
    """Transform supporter-local supported placements into the room frame.

    Local frames have their origin at the supporter footprint's
    bottom-left corner at yaw 0; the supporter's yaw rotates the frame,
    and local yaw composes with it.  Supported footprints must stay
    inside the supporter top face.
    """
    specs = scene.spec_index()
    by_id = {p.spec_id: p for p in scene.placements}
    extra: list[PlacedObject] = []
    for supporter_id, locals_ in supported.items():
        sup_placed = by_id[supporter_id]
        sup_dims = specs[supporter_id].dims
        sup_box = sup_placed.aabb(sup_dims)
        for p in locals_:
            dx = p.x - sup_dims.length / 2.0
            dy = p.y - sup_dims.depth / 2.0
            rx, ry = rotate_local(dx, dy, sup_placed.yaw)
            moved = PlacedObject(
                p.spec_id,
                q4(sup_placed.x + rx),
                q4(sup_placed.y + ry),
                p.z,
                Yaw.of(p.yaw.value + sup_placed.yaw.value),
                Parent.supporter(supporter_id),
            )
            box = moved.aabb(specs[moved.spec_id].dims)
            if not sup_box.contains(box):
                raise CompositionOverlap(
                    f"supported {moved.spec_id} escapes the top face of {supporter_id}"
                )
            extra.append(moved)
    return Scene(
        plan=scene.plan,
        placements=tuple(scene.placements) + tuple(extra),
        trace=scene.trace,
        unsat_regions=scene.unsat_regions,
    )
