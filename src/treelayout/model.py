"""Core domain types for room plans, placements, and search configuration.

Coordinate conventions used throughout the package:

* The room occupies ``[0, length] x [0, width]`` with x to the right and
  y up in the top-down view.  Regions tile the room along x and share its
  width.
* Object positions are footprint centers.  ``z`` is 0 for floor objects
  and equals the supporter height for supported objects.
* Orientation is one of four quarter-turns.  Yaw 0 faces +y, 90 faces +x,
  180 faces -y, 270 faces -x.  An object's footprint is ``length x depth``
  at yaw 0/180 and swaps extents at 90/270.

All values in meters are quantized to 4 decimals (:func:`q4`) at
construction boundaries so that canonical serialization round-trips
exactly.

Geometry is exact: every predicate compares whole numbers of 0.01 mm
(:func:`units`).  Half of a q4 value is whole, so box edges are, and so
are the cell edges of a q4 cell size or a fifth of one.  No predicate has
a tolerance, so no verdict depends on the frame.  Floats remain where
text and poses enter or leave the program.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

#: Length units per meter: geometry is measured in whole 0.01 mm.
UNITS_PER_M = 100_000


def q4(x: float) -> float:
    """Quantize a meter value to 4 decimals (0.1 mm)."""
    return round(float(x), 4)


def units(meters: float) -> int:
    """A length in meters as the nearest whole number of units; exact for
    any q4 value (10 units per 0.1 mm)."""
    return round(meters * UNITS_PER_M)


class Yaw(Enum):
    """Quarter-turn orientation. The value is the angle in degrees."""

    DEG_0 = 0
    DEG_90 = 90
    DEG_180 = 180
    DEG_270 = 270

    @classmethod
    def of(cls, degrees: int) -> "Yaw":
        return cls(degrees % 360)

    def plus(self, degrees: int) -> "Yaw":
        return Yaw.of(self.value + degrees)

    @property
    def opposite(self) -> "Yaw":
        return self.plus(180)

    @property
    def facing(self) -> tuple[int, int]:
        """Unit vector of the facing direction."""
        return {0: (0, 1), 90: (1, 0), 180: (0, -1), 270: (-1, 0)}[self.value]

    @property
    def swaps_extents(self) -> bool:
        return self.value in (90, 270)


class SpatialRelation(str, Enum):
    """Spatial relation binding a non-anchor object to its region anchor."""

    PLACE_FRONT = "place_front"
    PLACE_BESIDE = "place_beside"
    PLACE_AROUND = "place_around"


class AnchorRule(str, Enum):
    """Placement rule for a region's anchor object."""

    ALONG_WALL = "place_along_wall"
    IN_CENTER = "place_in_center"
    AT_CORNER = "place_at_corner"


class OrientationRule(str, Enum):
    """Rule deriving a non-anchor object's yaw from the anchor pose."""

    FACE_ANCHOR = "face_anchor"
    BACK_TO_ANCHOR = "back_to_anchor"
    SAME_AS_ANCHOR = "same_as_anchor"
    OPPOSITE_ANCHOR = "opposite_anchor"


@dataclass(frozen=True)
class Dim3:
    """Object extents in meters: length (x at yaw 0), depth (y at yaw 0), height."""

    length: float
    depth: float
    height: float

    def __post_init__(self) -> None:
        for name in ("length", "depth", "height"):
            v = getattr(self, name)
            if not math.isfinite(v) or q4(v) <= 0:
                raise ValueError(f"Dim3.{name} must be finite and at least 0.1 mm, got {v}")
            object.__setattr__(self, name, q4(v))

    @property
    def footprint_area(self) -> float:
        return self.length * self.depth


class AABB(NamedTuple):
    """Axis-aligned rectangle given by min/max corners, in whole units;
    it is the ``(x0, y0, x1, y1)`` tuple the grid kernels take."""

    x0: int
    y0: int
    x1: int
    y1: int

    def contains(self, other: "AABB") -> bool:
        return (
            other.x0 >= self.x0 and other.y0 >= self.y0
            and other.x1 <= self.x1 and other.y1 <= self.y1
        )

    def overlaps(self, other: "AABB") -> bool:
        """Positive-area intersection: the open spans meet on both axes,
        so rectangles sharing an edge do not overlap."""
        return (
            self.x0 < other.x1 and other.x0 < self.x1
            and self.y0 < other.y1 and other.y0 < self.y1
        )


def extents(dims: Dim3, yaw: Yaw) -> tuple[float, float]:
    """Footprint extents (along x, along y) in meters: (length, depth) at
    yaw 0/180, swapped at 90/270."""
    return (dims.depth, dims.length) if yaw.swaps_extents else (dims.length, dims.depth)


def effective_aabb(dims: Dim3, yaw: Yaw, center: tuple[float, float]) -> AABB:
    """Footprint rectangle of an object at the given yaw, centered on
    ``center`` (meters), in units."""
    ex, ey = extents(dims, yaw)
    hx, hy = units(ex) // 2, units(ey) // 2
    cx, cy = units(center[0]), units(center[1])
    return AABB(cx - hx, cy - hy, cx + hx, cy + hy)


@dataclass(frozen=True)
class ObjectSpec:
    """An object the plan wants in the scene: identity, category, and extents."""

    id: str
    category: str
    dims: Dim3
    supportable: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("ObjectSpec.id must be non-empty")
        if not self.category:
            raise ValueError("ObjectSpec.category must be non-empty")


@dataclass(frozen=True)
class Edge:
    """Spatial relationship between a non-anchor object and its (implicit) anchor.

    ``orientation_rule`` may be None for supported-level edges, in which
    case the placement defaults to facing the same way as the local anchor.
    """

    object_id: str
    relation: SpatialRelation
    orientation_rule: OrientationRule | None = None


@dataclass(frozen=True)
class Parent:
    """What a placed object stands on: a region floor or a supporter's top face."""

    kind: str  # "floor" | "supporter"
    ref: str  # region id or supporter object id

    def __post_init__(self) -> None:
        if self.kind not in ("floor", "supporter"):
            raise ValueError(f"Parent.kind must be floor|supporter, got {self.kind!r}")

    @classmethod
    def floor(cls, region_id: str) -> "Parent":
        return cls("floor", region_id)

    @classmethod
    def supporter(cls, object_id: str) -> "Parent":
        return cls("supporter", object_id)


@dataclass(frozen=True)
class PlacedObject:
    """A resolved pose for one object spec.

    Positions are footprint centers.  Whether they are region-local or
    room-absolute depends on context: the search works region-locally and
    composition translates into room coordinates.
    """

    spec_id: str
    x: float
    y: float
    z: float
    yaw: Yaw
    parent: Parent

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", q4(self.x))
        object.__setattr__(self, "y", q4(self.y))
        object.__setattr__(self, "z", q4(self.z))

    def aabb(self, dims: Dim3) -> AABB:
        return effective_aabb(dims, self.yaw, (self.x, self.y))


@dataclass(frozen=True)
class SupportedSet:
    """Objects to be placed on one supportable floor object, plus their edges."""

    objects: tuple[ObjectSpec, ...]
    edges: tuple[Edge, ...]


def local_anchor(objects: Sequence[ObjectSpec]) -> ObjectSpec:
    """The anchor of a supported set: the largest footprint, ties to the
    larger id."""
    return max(objects, key=lambda s: (s.dims.footprint_area, s.id))


@dataclass(frozen=True)
class RegionPlan:
    """One functional region: its object set, anchor, and edge set."""

    id: str
    function: str
    length: float
    width: float
    objects: tuple[ObjectSpec, ...]
    anchor_id: str
    anchor_rule: AnchorRule
    edges: tuple[Edge, ...]
    supported: dict[str, SupportedSet] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", q4(self.length))
        object.__setattr__(self, "width", q4(self.width))

    def spec(self, object_id: str) -> ObjectSpec:
        for s in self.objects:
            if s.id == object_id:
                return s
        raise KeyError(object_id)

    def edge_for(self, object_id: str) -> Edge | None:
        for e in self.edges:
            if e.object_id == object_id:
                return e
        return None


@dataclass(frozen=True)
class RoomPlan:
    """The full hierarchical plan for one room."""

    room_type: str
    length: float
    width: float
    regions: tuple[RegionPlan, ...]
    prompt: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", q4(self.length))
        object.__setattr__(self, "width", q4(self.width))

    def region_x_offset(self, region_id: str) -> float:
        off = 0.0
        for r in self.regions:
            if r.id == region_id:
                return q4(off)
            off += r.length
        raise KeyError(region_id)

    def all_specs(self) -> list[ObjectSpec]:
        out: list[ObjectSpec] = []
        for r in self.regions:
            out.extend(r.objects)
            for sub in r.supported.values():
                out.extend(sub.objects)
        return out


class SearchMode(str, Enum):
    """Reasoning mode: single-shot, no-backtracking chain, or full tree search."""

    IO = "io"
    COT = "cot"
    TREE = "tree"


@dataclass(frozen=True)
class SearchConfig:
    """Attempt budgets and knobs for one generation run.

    Default budgets: 3 attempts for anchor objects,
    1 for others, 2 for the side step, 1 for the axis steps.  CoT mode
    forces every budget to 1.  The cell size is a multiple of 0.1 mm (so
    a fifth of it is whole units).
    """

    k_global_anchor: int = 3
    k_global_other: int = 1
    k_local_side: int = 2
    k_local_axis: int = 1
    mode: SearchMode = SearchMode.TREE
    cell_size: float = 0.25
    seed: int = 0  # unread, like p_adv: the det oracle takes its own
    p_adv: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k_global_anchor", "k_global_other", "k_local_side", "k_local_axis"):
            if getattr(self, name) < 1:
                raise ValueError(f"SearchConfig.{name} must be >= 1")
        if not (0 < self.cell_size < math.inf and q4(self.cell_size) == self.cell_size):
            raise ValueError(f"SearchConfig.cell_size must be a positive multiple of 0.1 mm, "
                             f"got {self.cell_size}")
        if self.mode is SearchMode.COT:
            for name in ("k_global_anchor", "k_global_other", "k_local_side", "k_local_axis"):
                object.__setattr__(self, name, 1)


class EventKind(str, Enum):
    PROPOSED = "proposed"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    BACKTRACK = "backtrack"


#: Inverse of :attr:`TraceEvent.detail`.  The pose is tried before the
#: note, so a pose suffix is never read as note text.
_DETAIL_RE = re.compile(
    r"scope=(\S+)(?: visit=(\d+))?(?: (.+?))??"
    r"(?: x=(-?\d+\.\d{4}) y=(-?\d+\.\d{4}) yaw=(0|90|180|270))?",
    re.DOTALL,
)


@dataclass(frozen=True)
class TraceEvent:
    """One search event; the stable field set of the trace log.

    ``scope`` is a region id, a supporter top face (``top:<id>``) or
    ``io``; ``visit`` the layer's visit ordinal in the tree search.
    ``pose`` is the region- or supporter-local pose of a proposed or
    accepted placement, rounded to the 4 decimals of the trace line so
    that a parsed-back event equals the recorded one.
    """

    layer: int
    object_id: str
    attempt_no: int
    kind: EventKind
    scope: str
    visit: int | None = None
    note: str = ""
    pose: tuple[float, float, Yaw] | None = None

    def __post_init__(self) -> None:
        if self.pose is not None:
            x, y, yaw = self.pose
            object.__setattr__(self, "pose", (q4(x), q4(y), yaw))

    @property
    def detail(self) -> str:
        """The one-line text form: ``scope=S[ visit=N][ note][ x=X y=Y yaw=D]``."""
        parts = [f"scope={self.scope}"]
        if self.visit is not None:
            parts.append(f"visit={self.visit}")
        if self.note:
            parts.append(self.note)
        if self.pose is not None:
            x, y, yaw = self.pose
            parts.append(f"x={x:.4f} y={y:.4f} yaw={yaw.value}")
        return " ".join(parts)

    @classmethod
    def from_detail(
        cls, layer: int, object_id: str, attempt_no: int, kind: EventKind, detail: str
    ) -> "TraceEvent":
        """Rebuild an event from its :attr:`detail` line; ValueError outside the grammar."""
        m = _DETAIL_RE.fullmatch(detail) if isinstance(detail, str) else None
        if m is None:
            raise ValueError(f"trace detail outside the grammar: {detail!r}")
        scope, visit, note, x, y, yaw = m.groups()
        pose = None if x is None else (float(x), float(y), Yaw(int(yaw)))
        return cls(layer, object_id, attempt_no, kind, scope,
                   None if visit is None else int(visit), note or "", pose)


class SearchTrace:
    """Append-only event log of one generation run.

    Events are recorded in occurrence order.  A Backtrack event at layer
    L means the object accepted at layer L (within the event's scope)
    was removed and the layer is being revisited.

    ``oracle_calls`` counts the calls whose replies the run used.
    ``discarded_calls`` counts the calls of speculative searches whose
    result went unused: a supporter's top searched while the floor
    search ran, for a supporter that ended unplaced, and a next run
    question asked while its side-eval was in flight, for an eval that
    said no or failed.  It is left out of :meth:`summary`, so the
    written scene is that of the serial run.  ``forced_steps`` counts,
    per query kind (``side``, ``cells``), the local steps and centred
    anchor facings taken without asking because they had one live
    answer; it is left out too.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.oracle_calls: int = 0
        self.discarded_calls: int = 0
        self.forced_steps: Counter[str] = Counter()

    def record(self, layer: int, object_id: str, attempt_no: int, kind: EventKind,
               note: str = "", *, scope: str, visit: int | None = None,
               pose: tuple[float, float, Yaw] | None = None) -> None:
        self.events.append(TraceEvent(layer, object_id, attempt_no, kind, scope, visit, note, pose))

    def count(self, kind: EventKind) -> int:
        return sum(1 for e in self.events if e.kind is kind)

    @property
    def counters(self) -> dict[str, int]:
        return {k.value: self.count(k) for k in EventKind}

    def summary(self) -> dict[str, int]:
        out = dict(sorted(self.counters.items()))
        out["events"] = len(self.events)
        out["oracle_calls"] = self.oracle_calls
        return out


@dataclass(frozen=True)
class Scene:
    """A composed result: the plan, room-absolute placements, and the trace."""

    plan: RoomPlan
    placements: tuple[PlacedObject, ...]
    trace: SearchTrace
    unsat_regions: tuple[str, ...] = ()

    def spec_index(self) -> dict[str, ObjectSpec]:
        return {s.id: s for s in self.plan.all_specs()}


def validate_room_plan(plan: RoomPlan) -> list[str]:
    """Check every structural invariant of a room plan.

    Returns a list of human-readable violations; an empty list means the
    plan is well-formed.  Violations are data, not exceptions.
    """
    violations: list[str] = []
    if plan.length <= 0 or plan.width <= 0:
        violations.append(f"room dims must be positive, got {plan.length}x{plan.width}")
    total = sum(units(r.length) for r in plan.regions)
    if total != units(plan.length):
        violations.append(f"region lengths sum {total / UNITS_PER_M:g} != room length {plan.length:g}")
    seen_ids: set[str] = set()
    for r in plan.regions:
        if r.width != plan.width:
            violations.append(f"region {r.id}: width {r.width:g} != room width {plan.width:g}")
        if r.length <= 0:
            violations.append(f"region {r.id}: length must be positive")
        member_ids = [s.id for s in r.objects]
        for oid in member_ids:
            if oid in seen_ids:
                violations.append(f"region {r.id}: duplicate object id {oid}")
            seen_ids.add(oid)
        if r.anchor_id not in member_ids:
            violations.append(f"region {r.id}: anchor {r.anchor_id} not in object set")
        edge_counts: dict[str, int] = {}
        for e in r.edges:
            edge_counts[e.object_id] = edge_counts.get(e.object_id, 0) + 1
        for oid, n in edge_counts.items():
            if n > 1:
                violations.append(f"region {r.id}: duplicate edge for {oid}")
            if oid == r.anchor_id:
                violations.append(f"region {r.id}: anchor {oid} must not carry an edge")
            if oid not in member_ids:
                violations.append(f"region {r.id}: edge for unknown object {oid}")
        for oid in member_ids:
            if oid != r.anchor_id and edge_counts.get(oid, 0) == 0:
                violations.append(f"region {r.id}: object {oid} has no edge")
        for sup_id, sub in r.supported.items():
            if sup_id not in member_ids:
                violations.append(f"region {r.id}: supported set on unknown object {sup_id}")
                continue
            sup_spec = r.spec(sup_id)
            if not sup_spec.supportable:
                violations.append(f"region {r.id}: {sup_id} is not supportable")
            for s in sub.objects:
                if s.id in seen_ids:
                    violations.append(f"region {r.id}: duplicate object id {s.id}")
                seen_ids.add(s.id)
                if not (
                    s.dims.length < sup_spec.dims.length and s.dims.depth < sup_spec.dims.depth
                ):
                    violations.append(
                        f"region {r.id}: supported {s.id} does not fit strictly "
                        f"inside {sup_id} top face"
                    )
    return violations
