"""Canonical scene and trace files.

The scene document is JSON with sorted keys, two-space indentation, and
every float rendered as a fixed 4-decimal string, so identical scenes
are byte-identical regardless of platform or dict construction order.
Timestamps never appear in content files.  The trace log is JSONL with
the stable field set (layer, object_id, attempt_no, kind, detail), one
record per event in occurrence order; ``detail`` is the event's line
text, written by :attr:`TraceEvent.detail` and read back by
:meth:`TraceEvent.from_detail`.
"""

from __future__ import annotations

import json
from pathlib import Path

from treelayout.model import (
    AnchorRule,
    Dim3,
    Edge,
    EventKind,
    ObjectSpec,
    OrientationRule,
    Parent,
    PlacedObject,
    RegionPlan,
    RoomPlan,
    Scene,
    SearchTrace,
    SpatialRelation,
    SupportedSet,
    TraceEvent,
    Yaw,
)

SCENE_FORMAT = "treelayout-scene-v1"


#: ``json.dumps`` of a string, without its dispatch: the same bytes.
_string = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


def canonical_json(value) -> str:
    """Render a document with sorted keys and fixed float formatting."""
    out: list[str] = []
    put = out.append

    def emit(v, pad: str) -> None:
        if isinstance(v, dict):
            if not v:
                put("{}")
                return
            inner = pad + "  "
            sep = "{\n"
            for k, item in sorted(v.items()):
                put(f"{sep}{inner}{_string(str(k))}: ")
                emit(item, inner)
                sep = ",\n"
            put(f"\n{pad}}}")
        elif isinstance(v, (list, tuple)):
            if not v:
                put("[]")
                return
            inner = pad + "  "
            sep = "[\n"
            for item in v:
                put(sep + inner)
                emit(item, inner)
                sep = ",\n"
            put(f"\n{pad}]")
        elif isinstance(v, bool) or v is None:
            put(_LITERALS[v])
        elif isinstance(v, float):
            put(f"{v:.4f}")
        elif isinstance(v, int):
            put(str(v))
        else:
            put(_string(str(v)))

    emit(value, "")
    put("\n")
    return "".join(out)


def _spec_doc(s: ObjectSpec) -> dict:
    return {
        "id": s.id,
        "category": s.category,
        "length": s.dims.length,
        "depth": s.dims.depth,
        "height": s.dims.height,
        "supportable": s.supportable,
        "description": s.description,
    }


def _edge_doc(e: Edge) -> dict:
    return {
        "object_id": e.object_id,
        "relation": e.relation.value,
        "orientation": e.orientation_rule.value if e.orientation_rule else None,
    }


def scene_to_doc(scene: Scene) -> dict:
    plan = scene.plan
    regions = []
    for r in plan.regions:
        regions.append(
            {
                "id": r.id,
                "function": r.function,
                "length": r.length,
                "width": r.width,
                "x_offset": plan.region_x_offset(r.id),
                "anchor_id": r.anchor_id,
                "anchor_rule": r.anchor_rule.value,
                "objects": [_spec_doc(s) for s in r.objects],
                "edges": [_edge_doc(e) for e in r.edges],
                "supported": {
                    sup_id: {
                        "objects": [_spec_doc(s) for s in sub.objects],
                        "edges": [_edge_doc(e) for e in sub.edges],
                    }
                    for sup_id, sub in sorted(r.supported.items())
                },
            }
        )
    return {
        "format": SCENE_FORMAT,
        "room": {
            "type": plan.room_type,
            "length": plan.length,
            "width": plan.width,
            "prompt": plan.prompt,
        },
        "regions": regions,
        "placements": [
            {
                "id": p.spec_id,
                "x": p.x,
                "y": p.y,
                "z": p.z,
                "yaw": p.yaw.value,
                "parent_kind": p.parent.kind,
                "parent_ref": p.parent.ref,
            }
            for p in scene.placements
        ],
        "unsat_regions": list(scene.unsat_regions),
        "trace_summary": scene.trace.summary(),
    }


def scene_to_text(scene: Scene) -> str:
    return canonical_json(scene_to_doc(scene))


def write_scene(scene: Scene, path: str | Path) -> None:
    Path(path).write_text(scene_to_text(scene), "utf-8")


def _spec_from_doc(d: dict) -> ObjectSpec:
    return ObjectSpec(
        id=d["id"],
        category=d["category"],
        dims=Dim3(d["length"], d["depth"], d["height"]),
        supportable=bool(d["supportable"]),
        description=d.get("description", ""),
    )


def _edge_from_doc(d: dict) -> Edge:
    return Edge(
        object_id=d["object_id"],
        relation=SpatialRelation(d["relation"]),
        orientation_rule=OrientationRule(d["orientation"]) if d.get("orientation") else None,
    )


def read_scene(path: str | Path) -> Scene:
    doc = json.loads(Path(path).read_text("utf-8"))
    if doc.get("format") != SCENE_FORMAT:
        raise ValueError(f"not a {SCENE_FORMAT} file: {path}")
    regions = []
    for rd in doc["regions"]:
        regions.append(
            RegionPlan(
                id=rd["id"],
                function=rd["function"],
                length=rd["length"],
                width=rd["width"],
                objects=tuple(_spec_from_doc(s) for s in rd["objects"]),
                anchor_id=rd["anchor_id"],
                anchor_rule=AnchorRule(rd["anchor_rule"]),
                edges=tuple(_edge_from_doc(e) for e in rd["edges"]),
                supported={
                    sup_id: SupportedSet(
                        objects=tuple(_spec_from_doc(s) for s in sub["objects"]),
                        edges=tuple(_edge_from_doc(e) for e in sub["edges"]),
                    )
                    for sup_id, sub in rd.get("supported", {}).items()
                },
            )
        )
    plan = RoomPlan(
        room_type=doc["room"]["type"],
        length=doc["room"]["length"],
        width=doc["room"]["width"],
        regions=tuple(regions),
        prompt=doc["room"].get("prompt", ""),
    )
    placements = tuple(
        PlacedObject(
            spec_id=pd["id"],
            x=pd["x"],
            y=pd["y"],
            z=pd["z"],
            yaw=Yaw.of(pd["yaw"]),
            parent=Parent(pd["parent_kind"], pd["parent_ref"]),
        )
        for pd in doc["placements"]
    )
    return Scene(
        plan=plan,
        placements=placements,
        trace=SearchTrace(),
        unsat_regions=tuple(doc.get("unsat_regions", [])),
    )


def write_trace(trace: SearchTrace, path: str | Path) -> None:
    """One JSON object per event, keys in sorted order, byte-identical to
    ``json.dumps(event_dict, sort_keys=True)``; the strings are encoded as
    ``json.dumps`` encodes them, the integers written as they print."""
    lines = [
        f'{{"attempt_no": {e.attempt_no}, "detail": {_string(e.detail)}, '
        f'"kind": {_string(e.kind.value)}, "layer": {e.layer}, "object_id": {_string(e.object_id)}}}'
        for e in trace.events
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")


def read_trace(path: str | Path) -> list[TraceEvent]:
    events = []
    for line in Path(path).read_text("utf-8").splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError(f"trace line is not an object: {line[:40]!r}")
        events.append(
            TraceEvent.from_detail(
                d["layer"], d["object_id"], d["attempt_no"], EventKind(d["kind"]), d["detail"]
            )
        )
    return events
