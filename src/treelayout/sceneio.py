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
import os
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


def parse_json(text: str):
    """``json.loads(text)``, but a ValueError, not a RecursionError, for
    a document nested too deeply: every JSON file the CLI reads is read here."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


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


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8, creating the file or writing
    over it in place: the file is opened without truncation, written, then
    cut to the written length.  Bytes, inode and permissions are those
    ``Path.write_text`` leaves, but on ext4 a file truncated to zero on
    open is flushed to disk when it is closed (its ``auto_da_alloc``
    guard), which made overwriting a 4 KB file an order of magnitude
    slower."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_scene(scene: Scene, path: str | Path) -> None:
    write_text(path, scene_to_text(scene))


_NUMBER = (int, float)


def _get(d, key: str, *kinds: type, default=...):
    """``d[key]``, or ``default`` when it is given and the key is absent.
    ValueError unless ``d`` is an object and the value's JSON type is one
    of ``kinds`` (a bool is not a number)."""
    if type(d) is not dict:
        raise ValueError(f"expected an object with {key!r}, got {type(d).__name__}")
    if key not in d and default is not ...:
        return default
    if key not in d:
        raise ValueError(f"missing field {key!r}")
    value = d[key]
    if type(value) not in kinds:
        raise ValueError(f"field {key!r} must be {' or '.join(k.__name__ for k in kinds)}, "
                         f"got {type(value).__name__}")
    return value


def _spec_from_doc(d: dict) -> ObjectSpec:
    return ObjectSpec(
        id=_get(d, "id", str),
        category=_get(d, "category", str),
        dims=Dim3(_get(d, "length", *_NUMBER), _get(d, "depth", *_NUMBER),
                  _get(d, "height", *_NUMBER)),
        supportable=_get(d, "supportable", bool),
        description=_get(d, "description", str, default=""),
    )


def _edge_from_doc(d: dict) -> Edge:
    orientation = _get(d, "orientation", str, type(None), default=None)
    return Edge(
        object_id=_get(d, "object_id", str),
        relation=SpatialRelation(_get(d, "relation", str)),
        orientation_rule=OrientationRule(orientation) if orientation else None,
    )


def read_scene(path: str | Path) -> Scene:
    """The scene of a scene file.  ValueError for a file that is not a
    scene document, or that has a field missing or of the wrong type."""
    doc = parse_json(Path(path).read_text("utf-8"))
    if type(doc) is not dict or doc.get("format") != SCENE_FORMAT:
        raise ValueError(f"not a {SCENE_FORMAT} file: {path}")
    regions = []
    for rd in _get(doc, "regions", list):
        regions.append(
            RegionPlan(
                id=_get(rd, "id", str),
                function=_get(rd, "function", str),
                length=_get(rd, "length", *_NUMBER),
                width=_get(rd, "width", *_NUMBER),
                objects=tuple(_spec_from_doc(s) for s in _get(rd, "objects", list)),
                anchor_id=_get(rd, "anchor_id", str),
                anchor_rule=AnchorRule(_get(rd, "anchor_rule", str)),
                edges=tuple(_edge_from_doc(e) for e in _get(rd, "edges", list)),
                supported={
                    sup_id: SupportedSet(
                        objects=tuple(_spec_from_doc(s) for s in _get(sub, "objects", list)),
                        edges=tuple(_edge_from_doc(e) for e in _get(sub, "edges", list)),
                    )
                    for sup_id, sub in _get(rd, "supported", dict, default={}).items()
                },
            )
        )
    room = _get(doc, "room", dict)
    plan = RoomPlan(
        room_type=_get(room, "type", str),
        length=_get(room, "length", *_NUMBER),
        width=_get(room, "width", *_NUMBER),
        regions=tuple(regions),
        prompt=_get(room, "prompt", str, default=""),
    )
    placements = tuple(
        PlacedObject(
            spec_id=_get(pd, "id", str),
            x=_get(pd, "x", *_NUMBER),
            y=_get(pd, "y", *_NUMBER),
            z=_get(pd, "z", *_NUMBER),
            yaw=Yaw.of(_get(pd, "yaw", int)),
            parent=Parent(_get(pd, "parent_kind", str), _get(pd, "parent_ref", str)),
        )
        for pd in _get(doc, "placements", list)
    )
    unsat = _get(doc, "unsat_regions", list, default=[])
    if any(type(r) is not str for r in unsat):
        raise ValueError("field 'unsat_regions' must hold region ids")
    return Scene(
        plan=plan,
        placements=placements,
        trace=SearchTrace(),
        unsat_regions=tuple(unsat),
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
    write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_trace(path: str | Path) -> list[TraceEvent]:
    """The events of a trace file.  ValueError, naming the line, for a
    line that is not JSON or not an event record of the written types."""
    events = []
    for no, line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            d = parse_json(line)
            events.append(TraceEvent.from_detail(
                _get(d, "layer", int), _get(d, "object_id", str), _get(d, "attempt_no", int),
                EventKind(_get(d, "kind", str)), _get(d, "detail", str),
            ))
        except ValueError as exc:
            raise ValueError(f"trace line {no}: {exc}") from exc
    return events
