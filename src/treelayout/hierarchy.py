"""Level-by-level construction of the hierarchical room plan.

:func:`build_room_frame` asks for the room type and dims, then for the
functional regions.  Each region is then built in two halves per level:
its floor objects with anchor and edges are asked for and parsed
(:func:`ask_floor_objects`), then numbered and guarded
(:func:`number_floor_objects`); the supported objects of each kept
supportable floor object likewise (:func:`ask_supported`,
:func:`add_supported`).  Object ids are room-wide, category plus a
running ordinal (:class:`IdAllocator`), given in plan order: a region
numbers its floor objects after every earlier region has numbered its
supported ones.  An objects query names no object id, so the pipeline
asks every region's at once; a supported query names only its
supporter's id.  :func:`build_room_plan` runs the halves one region
after another.  Dropped proposals and the builders' other rejections
are recorded into the trace passed in.

Replies are plain text; the parsers here are deliberately tolerant (a
malformed reply, or one naming a category the catalog lacks, costs one
retry, up to :data:`BUILDER_RETRIES`, then :class:`OracleFailure`).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import partial

from treelayout.catalog import AssetCatalog, UnknownCategory
from treelayout.model import (
    AnchorRule,
    Dim3,
    Edge,
    EventKind,
    ObjectSpec,
    OrientationRule,
    RegionPlan,
    RoomPlan,
    SearchTrace,
    SpatialRelation,
    SupportedSet,
    local_anchor,
    q4,
    validate_room_plan,
)
from treelayout.oracle.base import OracleFailure, OracleSession
from treelayout.oracle.queries import ObjectsQuery, RegionQuery, RoomQuery, SupportedQuery

BUILDER_RETRIES = 3

#: A region never gets more objects than this; extra proposals are dropped.
MAX_REGION_OBJECTS = 8
MAX_SUPPORTED_OBJECTS = 3
MIN_REGION_LENGTH = 1.0

#: Proposals are dropped once footprints would exceed this share of the
#: region area, so the search is not unsatisfiable by construction.
AREA_GUARD_RATIO = 0.7


class ParseError(ValueError):
    pass


class NotSupportable(ValueError):
    def __init__(self, object_id: str):
        super().__init__(f"object {object_id} cannot support others")
        self.object_id = object_id


@dataclass
class ObjectProposal:
    category: str
    dims: Dim3 | None
    anchor_rule: AnchorRule | None
    relation: SpatialRelation | None
    orientation: OrientationRule | None
    #: Filled from the catalog once the reply parses (:func:`_parse_and_resolve`).
    supportable: bool = False

    def spec(self, ids: IdAllocator) -> ObjectSpec:
        """The plan spec of this resolved proposal, under the next id of its category."""
        return ObjectSpec(id=ids.make(self.category), category=self.category, dims=self.dims,
                          supportable=self.supportable)


class IdAllocator:
    """Room-unique object ids: category plus a running ordinal."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def make(self, category: str) -> str:
        n = self._counts.get(category, 0) + 1
        self._counts[category] = n
        return f"{category}_{n}"


# -- reply parsers ----------------------------------------------------------

_ROOM_TYPE_RE = re.compile(r"room[_ ]?type\s*[:=]\s*(.+)", re.IGNORECASE)
_LENGTH_RE = re.compile(r"length\s*[:=]\s*([0-9.]+)", re.IGNORECASE)
_WIDTH_RE = re.compile(r"width\s*[:=]\s*([0-9.]+)", re.IGNORECASE)


def parse_room_reply(text: str) -> tuple[str, float, float]:
    m_type = _ROOM_TYPE_RE.search(text)
    m_len = _LENGTH_RE.search(text)
    m_wid = _WIDTH_RE.search(text)
    if not (m_type and m_len and m_wid):
        raise ParseError(f"room reply missing fields: {text!r}")
    room_type = m_type.group(1).strip().lower()
    length, width = float(m_len.group(1)), float(m_wid.group(1))
    if not room_type or length <= 0 or width <= 0:
        raise ParseError(f"room reply has invalid values: {text!r}")
    return room_type, q4(length), q4(width)


_REGION_LINE_RE = re.compile(r"^\s*([a-z][a-z_ ]*?)\s*[:=]\s*([0-9.]+)\s*$", re.IGNORECASE)


def parse_region_reply(text: str) -> list[tuple[str, float]]:
    out: list[tuple[str, float]] = []
    for line in text.splitlines():
        m = _REGION_LINE_RE.match(line)
        if not m:
            continue
        fraction = float(m.group(2))
        if fraction <= 0:
            raise ParseError(f"non-positive region fraction in {line!r}")
        out.append((m.group(1).strip().lower(), fraction))
    if not out:
        raise ParseError(f"no regions parsed from {text!r}")
    return out


_OBJECT_LINE_RE = re.compile(
    r"^\s*([a-z][a-z_]*)\s+([0-9.]+)\s*x\s*([0-9.]+)\s*x\s*([0-9.]+)\s*\|(.+)$",
    re.IGNORECASE,
)


def _parse_object_line(line: str) -> ObjectProposal | None:
    m = _OBJECT_LINE_RE.match(line)
    if not m:
        return None
    category = m.group(1).lower()
    try:
        dims = Dim3(float(m.group(2)), float(m.group(3)), float(m.group(4)))
    except ValueError:
        dims = None
    fields = [f.strip().lower() for f in m.group(5).split("|") if f.strip()]
    if not fields:
        return None
    if fields[0] == "anchor":
        if len(fields) < 2:
            return None
        try:
            rule = AnchorRule(fields[1])
        except ValueError:
            return None
        return ObjectProposal(category, dims, rule, None, None)
    try:
        relation = SpatialRelation(fields[0])
    except ValueError:
        return None
    orientation: OrientationRule | None = None
    if len(fields) > 1:
        try:
            orientation = OrientationRule(fields[1])
        except ValueError:
            orientation = None
    return ObjectProposal(category, dims, None, relation, orientation)


def parse_objects_reply(text: str) -> list[ObjectProposal]:
    proposals = [p for p in (_parse_object_line(line) for line in text.splitlines()) if p]
    if not proposals:
        raise ParseError(f"no objects parsed from {text!r}")
    anchors = [p for p in proposals if p.anchor_rule is not None]
    if len(anchors) != 1:
        raise ParseError(f"expected exactly one anchor, got {len(anchors)}")
    return proposals


def parse_supported_reply(text: str) -> list[ObjectProposal]:
    if text.strip().lower() in ("none", ""):
        return []
    out = []
    for line in text.splitlines():
        p = _parse_object_line(line)
        if p is not None and p.anchor_rule is None:
            out.append(p)
    return out


# -- builders ----------------------------------------------------------------


def _retry(session: OracleSession, make_query, parse):
    last: Exception | None = None
    for attempt in range(1, BUILDER_RETRIES + 1):
        raw = session.ask(make_query(attempt))
        try:
            return parse(raw)
        except (ParseError, UnknownCategory) as exc:
            last = exc
    raise OracleFailure(f"oracle replies unusable after {BUILDER_RETRIES} attempts: {last}")


def _parse_and_resolve(
    parse: Callable[[str], list[ObjectProposal]], catalog: AssetCatalog, raw: str
) -> list[ObjectProposal]:
    """Parse an object reply and resolve each proposal's dims and
    supportable flag against the catalog."""
    proposals = parse(raw)
    for p in proposals:
        p.dims, p.supportable = catalog.resolve(p.category, p.dims)
    return proposals


def build_room_level(prompt: str, session: OracleSession) -> tuple[str, tuple[float, float]]:
    if not prompt or not prompt.strip():
        raise ValueError("prompt must be non-empty")
    room_type, length, width = _retry(
        session, lambda a: RoomQuery(prompt=prompt, attempt=a), parse_room_reply
    )
    return room_type, (length, width)


def build_region_level(
    room_type: str, length: float, width: float, prompt: str, session: OracleSession
) -> list[tuple[str, float]]:
    """Functional regions with lengths that tile the room length exactly.

    Oracle fractions are rescaled proportionally; regions that would end
    up shorter than :data:`MIN_REGION_LENGTH` are merged away, smallest
    first, down to a single region if needed.
    """
    proposals = _retry(
        session,
        lambda a: RegionQuery(room_type=room_type, length=length, width=width, prompt=prompt, attempt=a),
        parse_region_reply,
    )[:3]
    while len(proposals) > 1:
        total = sum(f for _, f in proposals)
        if min(f / total * length for _, f in proposals) >= MIN_REGION_LENGTH:
            break
        proposals.remove(min(proposals, key=lambda p: p[1]))
    total = sum(f for _, f in proposals)
    lengths = [q4(f / total * length) for _, f in proposals[:-1]]
    lengths.append(q4(length - sum(lengths)))
    return [(function, ln) for (function, _), ln in zip(proposals, lengths)]


def _guard_objects(
    specs: list[ObjectSpec],
    anchor_i: int,
    region_area: float,
    trace: SearchTrace,
    scope: str,
) -> list[int]:
    """Indices of the specs kept under the object cap and the footprint-area
    guard, in reply order; the anchor is always kept and counted first.
    Drops are recorded as layer-0 rejections."""
    kept = [anchor_i]
    total = specs[anchor_i].dims.footprint_area
    for i, spec in enumerate(specs):
        if i == anchor_i:
            continue
        if len(kept) >= MAX_REGION_OBJECTS:
            trace.record(0, spec.id, 0, EventKind.REJECTED, "object cap", scope=scope)
            continue
        area = spec.dims.footprint_area
        if total + area > AREA_GUARD_RATIO * region_area:
            trace.record(0, spec.id, 0, EventKind.REJECTED, f"area guard: {total + area:.2f} > "
                         f"{AREA_GUARD_RATIO:.1f} x {region_area:.2f}", scope=scope)
            continue
        kept.append(i)
        total += area
    return sorted(kept)


def ask_floor_objects(
    region_id: str,
    function: str,
    length: float,
    width: float,
    room_type: str,
    prompt: str,
    session: OracleSession,
    catalog: AssetCatalog,
) -> list[ObjectProposal]:
    """One region's floor-object proposals, parsed and resolved.  The query
    names no object id, so every region can ask at once."""
    return _retry(
        session,
        lambda a: ObjectsQuery(
            region_id=region_id,
            function=function,
            length=length,
            width=width,
            room_type=room_type,
            prompt=prompt,
            attempt=a,
        ),
        partial(_parse_and_resolve, parse_objects_reply, catalog),
    )


def number_floor_objects(
    region_id: str,
    function: str,
    length: float,
    width: float,
    proposals: list[ObjectProposal],
    ids: IdAllocator,
    trace: SearchTrace,
) -> RegionPlan:
    """The region's plan without its supported sets: every proposal takes
    an id in reply order, also one the guard then drops."""
    specs = [p.spec(ids) for p in proposals]
    anchor_i = next(i for i, p in enumerate(proposals) if p.anchor_rule is not None)
    kept = _guard_objects(specs, anchor_i, length * width, trace, region_id)
    return RegionPlan(
        id=region_id,
        function=function,
        length=length,
        width=width,
        objects=tuple(specs[i] for i in kept),
        anchor_id=specs[anchor_i].id,
        anchor_rule=proposals[anchor_i].anchor_rule,
        edges=tuple(
            Edge(specs[i].id, proposals[i].relation, proposals[i].orientation)
            for i in kept
            if i != anchor_i
        ),
    )


def supporters(region: RegionPlan) -> list[ObjectSpec]:
    """The region's supportable floor objects, in plan order."""
    return [s for s in region.objects if s.supportable]


def ask_supported(
    floor_object: ObjectSpec, session: OracleSession, catalog: AssetCatalog
) -> list[ObjectProposal]:
    """The proposals for one supporter's top, parsed and resolved."""
    if not floor_object.supportable:
        raise NotSupportable(floor_object.id)
    top = floor_object.dims
    return _retry(
        session,
        lambda a: SupportedQuery(
            floor_object_id=floor_object.id,
            category=floor_object.category,
            top_length=top.length,
            top_depth=top.depth,
            attempt=a,
        ),
        partial(_parse_and_resolve, parse_supported_reply, catalog),
    )


def number_supported(
    floor_object: ObjectSpec,
    proposals: list[ObjectProposal],
    ids: IdAllocator,
    trace: SearchTrace,
    scope: str,
) -> SupportedSet:
    """The supported set: proposals that fit the top, up to the cap, each
    under the next id of its category."""
    top = floor_object.dims
    kept: list[tuple[ObjectSpec, ObjectProposal]] = []
    for p in proposals:
        if len(kept) >= MAX_SUPPORTED_OBJECTS:
            break
        if not (p.dims.length < top.length and p.dims.depth < top.depth):
            trace.record(0, p.category, 0, EventKind.REJECTED,
                         f"larger than {floor_object.id} top face", scope=scope)
            continue
        kept.append((p.spec(ids), p))
    if not kept:
        return SupportedSet(objects=(), edges=())
    specs = tuple(s for s, _ in kept)
    anchor_id = local_anchor(specs).id
    edges = tuple(
        Edge(s.id, p.relation or SpatialRelation.PLACE_AROUND, p.orientation)
        for s, p in kept
        if s.id != anchor_id
    )
    return SupportedSet(objects=specs, edges=edges)


def add_supported(
    region: RegionPlan,
    replies: Sequence[list[ObjectProposal]],
    ids: IdAllocator,
    trace: SearchTrace,
) -> RegionPlan:
    """The region with the supported set of each of its :func:`supporters`,
    numbered in plan order from ``replies`` (one per supporter)."""
    supported: dict[str, SupportedSet] = {}
    for spec, proposals in zip(supporters(region), replies, strict=True):
        sub = number_supported(spec, proposals, ids, trace, region.id)
        if sub.objects:
            supported[spec.id] = sub
    return replace(region, supported=supported)


def build_region(
    region_id: str,
    function: str,
    length: float,
    width: float,
    room_type: str,
    prompt: str,
    session: OracleSession,
    catalog: AssetCatalog,
    ids: IdAllocator,
) -> RegionPlan:
    """One region's plan: its floor objects, anchor and edges, then the
    supported set of each kept supportable object, in plan order."""
    proposals = ask_floor_objects(region_id, function, length, width, room_type, prompt,
                                  session, catalog)
    region = number_floor_objects(region_id, function, length, width, proposals, ids,
                                  session.trace)
    replies = [ask_supported(spec, session, catalog) for spec in supporters(region)]
    return add_supported(region, replies, ids, session.trace)


class InvalidPlan(RuntimeError):
    """The assembled room plan fails ``validate_room_plan``; the builders
    guard every reply, so this can only come from an engine bug."""


@dataclass(frozen=True)
class RoomFrame:
    """The room and region levels of a plan, which every region's builder
    starts from."""

    prompt: str
    room_type: str
    length: float
    width: float
    #: (id, function, length) of each region, in plan order
    regions: tuple[tuple[str, str, float], ...]


def build_room_frame(prompt: str, session: OracleSession) -> RoomFrame:
    """The room level, then the region level."""
    room_type, (length, width) = build_room_level(prompt, session)
    region_specs = build_region_level(room_type, length, width, prompt, session)
    return RoomFrame(prompt, room_type, length, width, tuple(
        (f"r{i + 1}_{function.replace(' ', '_')}", function, region_length)
        for i, (function, region_length) in enumerate(region_specs)
    ))


def assemble_plan(frame: RoomFrame, regions: Sequence[RegionPlan]) -> RoomPlan:
    """The room plan of ``frame`` and its built regions, validated."""
    plan = RoomPlan(room_type=frame.room_type, length=frame.length, width=frame.width,
                    regions=tuple(regions), prompt=frame.prompt)
    violations = validate_room_plan(plan)
    if violations:
        raise InvalidPlan(f"builder produced an invalid plan: {violations}")
    return plan


def build_room_plan(prompt: str, session: OracleSession, catalog: AssetCatalog) -> RoomPlan:
    """Run all four levels, one region after another, and assemble a
    validated room plan."""
    frame = build_room_frame(prompt, session)
    ids = IdAllocator()
    return assemble_plan(frame, [
        build_region(region_id, function, length, frame.width, frame.room_type, prompt,
                     session, catalog, ids)
        for region_id, function, length in frame.regions
    ])
