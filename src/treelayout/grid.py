"""Top-down occupancy grid, emoji cell naming, and spatial predicates.

A region of ``length x width`` meters is discretized into
``ceil(length/cell) x ceil(width/cell)`` cells, row-major with row 0 at
y = 0 (the serialized prompt prints the top row first); its geometry and
the relation predicates are exact, in whole length units.  Candidate cells
offered to the oracle are named with distinct emoji names so a language
model can answer positions by name; parsing maps names back to cells.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from importlib import resources
from itertools import repeat

from treelayout import kernels
from treelayout.model import (
    AABB,
    Dim3,
    OrientationRule,
    PlacedObject,
    RegionPlan,
    SpatialRelation,
    Yaw,
    units,
)

# Grid markers used in serialized prompts.  These are the only token
# names with fixed meaning; they are excluded from the emoji vocabulary.
WALL_MARKER = "brick"
BOUNDARY_MARKER = "white_circle"
OCCUPIED_MARKER = "black_square"
ANCHOR_MARKER = "red_square"
FREE_MARKER = "light_blank"

MARKERS = (WALL_MARKER, BOUNDARY_MARKER, OCCUPIED_MARKER, ANCHOR_MARKER, FREE_MARKER)

FREE, OCCUPIED, ANCHOR_OCCUPIED = 0, 1, 2


class GridError(Exception):
    """Base class for grid construction and parse failures."""


class OutOfRegion(GridError):
    def __init__(self, object_id: str):
        super().__init__(f"placement outside region: {object_id}")
        self.object_id = object_id


class VocabularyExhausted(GridError):
    pass


class SelectionError(GridError):
    """An oracle reply that fails to parse; consumes one search attempt."""


class UnknownEmoji(SelectionError):
    def __init__(self, name: str):
        super().__init__(f"emoji {name!r} is not a candidate cell")
        self.name = name


class WrongCount(SelectionError):
    def __init__(self, got: int, expected: int):
        super().__init__(f"expected {expected} emoji names, got {got}")
        self.got = got
        self.expected = expected


class EmptyResponse(SelectionError):
    def __init__(self) -> None:
        super().__init__("no emoji names found in response")


class NonContiguousRun(SelectionError):
    def __init__(self, axis: str, indices: list[int]):
        super().__init__(f"selected {axis} are not one contiguous run: {indices}")
        self.axis = axis
        self.indices = indices


class DegenerateDirection(GridError):
    pass


class Side(str, Enum):
    """A side of the anchor in the top-down view."""

    LEFT = "left"
    RIGHT = "right"
    BOTTOM = "bottom"
    TOP = "top"

    @property
    def horizontal(self) -> bool:
        """True when the side displaces along x (columns are the primary axis)."""
        return self in (Side.LEFT, Side.RIGHT)

    @property
    def facing_yaw(self) -> Yaw:
        """The yaw that faces toward this side (top is +y, yaw 0)."""
        return _FACING_YAW[self]


_FACING_YAW = {Side.TOP: Yaw.DEG_0, Side.RIGHT: Yaw.DEG_90, Side.BOTTOM: Yaw.DEG_180,
               Side.LEFT: Yaw.DEG_270}


#: ``bytes.translate`` table from an occupancy code to "1" (free) or "0".
_FREE_FLAG = bytes([ord("1")] + [ord("0")] * 255)


@dataclass(frozen=True)
class OccupancyGrid:
    cols: int
    rows: int
    cell_size: float
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError("grid must have at least one row and column")
        if len(self.codes) != self.rows * self.cols:
            raise ValueError("occupancy array size mismatch")

    def index(self, row: int, col: int) -> int:
        return row * self.cols + col

    def row_of(self, idx: int) -> int:
        return idx // self.cols

    def col_of(self, idx: int) -> int:
        return idx % self.cols

    @cached_property
    def stride(self) -> int:
        """Bits per row in :attr:`free_flat`: twice the columns, so a row
        shifted by up to its width does not reach into its neighbours."""
        return 2 * self.cols

    @cached_property
    def free_flat(self) -> int:
        """The free cells as one integer, bit ``r * stride + c`` for the
        cell at row ``r`` and column ``c``; the high half of each row's
        bits is zero."""
        cols, stride = self.cols, self.stride
        packed = int(bytes(self.codes).translate(_FREE_FLAG)[::-1], 2)  # bit r * cols + c
        full = (1 << cols) - 1
        return sum((packed >> r * cols & full) << r * stride for r in range(self.rows))

    @cached_property
    def markers(self) -> tuple[str, ...]:
        """Prompt token per cell, row-major: the anchor, occupied or free marker."""
        marker_of = {ANCHOR_OCCUPIED: ANCHOR_MARKER, OCCUPIED: OCCUPIED_MARKER}
        return tuple(map(marker_of.get, self.codes, repeat(FREE_MARKER)))


@dataclass(frozen=True)
class EmojiMap:
    """Deterministic assignment of emoji names to candidate cells.

    ``entries`` maps cell index -> name in (row, col) order; ``vocabulary``
    is the full ordered name list the assignment drew from (used to tell
    a stale emoji name apart from ordinary prose when parsing replies).
    """

    entries: dict[int, str]
    vocabulary: tuple[str, ...]
    _by_name: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        by_name = dict(zip(self.entries.values(), self.entries))
        if len(by_name) != len(self.entries):
            raise ValueError("emoji names within one map must be unique")
        object.__setattr__(self, "_by_name", by_name)

    def __len__(self) -> int:
        return len(self.entries)

    def cell_of(self, name: str) -> int | None:
        return self._by_name.get(name)


def load_vocabulary() -> tuple[str, ...]:
    """The shipped ordered emoji-name vocabulary (one name per line)."""
    text = resources.files("treelayout.data").joinpath("emoji_vocabulary.txt").read_text("utf-8")
    names = tuple(line.strip() for line in text.splitlines() if line.strip())
    return names


def grid_dims(length: int, width: int, cell: int) -> tuple[int, int]:
    """(cols, rows) of the cells of edge ``cell`` that cover ``length x
    width``, all in units: the ceilings of the quotients, at least 1."""
    return max(1, -(-length // cell)), max(1, -(-width // cell))


def rasterize(
    region: RegionPlan, placed: list[PlacedObject], cell_size: float
) -> OccupancyGrid:
    """Discretize the region's top-down view.

    A cell is occupied iff its rectangle intersects a placed footprint
    with positive area; the anchor's cells carry the anchor code.  A
    placement outside the region bounds raises :class:`OutOfRegion`.
    """
    bounds = AABB(0, 0, units(region.length), units(region.width))
    rects: list[tuple[int, int, int, int, int]] = []
    for p in placed:
        box = p.aabb(region.spec(p.spec_id).dims)
        if not bounds.contains(box):
            raise OutOfRegion(p.spec_id)
        rects.append((*box, ANCHOR_OCCUPIED if p.spec_id == region.anchor_id else OCCUPIED))
    cell = units(cell_size)
    cols, rows = grid_dims(bounds.x1, bounds.y1, cell)
    codes = kernels.rasterize_codes(cols, rows, cell, rects)
    return OccupancyGrid(cols, rows, cell_size, tuple(codes))


def candidate_cells(grid: OccupancyGrid, anchor_aabb: AABB) -> dict[Side, list[int]]:
    """The free cells strictly on each side of the anchor's AABB, in
    (row, col) order, from one pass over the grid.

    An anchor rectangle reaching past the grid extent is tolerated: the
    sides it spills over simply have no cells (this happens when probing
    facings for a centered anchor that only fits rotated).
    """
    buckets = kernels.free_cells_on_side(grid.cols, grid.rows, units(grid.cell_size), grid.codes,
                                         *anchor_aabb)
    return dict(zip(Side, buckets))


def assign_emojis(cells: list[int] | set[int], vocabulary: tuple[str, ...]) -> EmojiMap:
    """Name candidate cells in (row, col) order with successive vocabulary entries."""
    ordered = sorted(cells)
    if len(ordered) > len(vocabulary):
        raise VocabularyExhausted(
            f"{len(ordered)} candidate cells exceed vocabulary of {len(vocabulary)}"
        )
    return EmojiMap(dict(zip(ordered, vocabulary)), vocabulary)


def serialize_grid_prompt(
    grid: OccupancyGrid,
    emap: EmojiMap,
    wall_sides: frozenset[Side] = frozenset(Side),
) -> str:
    """Render the grid as one token row per line, top row first.

    A one-cell border ring is added around the grid: wall marker on room
    walls, boundary marker on interior region boundaries.  Candidate
    cells render as their assigned emoji name, occupied cells as the
    occupied/anchor markers, and remaining free cells as the blank marker.
    """
    tokens = list(grid.markers)
    entries = emap.entries
    if entries and (min(entries) < 0 or max(entries) >= len(tokens)):
        outside = next(idx for idx in entries if not 0 <= idx < len(tokens))
        raise ValueError(f"emoji map cell {outside} outside grid")
    for idx, name in entries.items():
        tokens[idx] = name

    def edge_marker(side: Side) -> str:
        return WALL_MARKER if side in wall_sides else BOUNDARY_MARKER

    cols = grid.cols
    left, right = edge_marker(Side.LEFT), edge_marker(Side.RIGHT)
    lines = [" ".join([WALL_MARKER] + [edge_marker(Side.TOP)] * cols + [WALL_MARKER])]
    for r in range(grid.rows - 1, -1, -1):
        lines.append(" ".join([left, *tokens[r * cols:(r + 1) * cols], right]))
    lines.append(" ".join([WALL_MARKER] + [edge_marker(Side.BOTTOM)] * cols + [WALL_MARKER]))
    return "\n".join(lines)


_TOKEN_RE = re.compile(r"[a-z0-9_]+")

#: The last vocabulary parsed against, and its names that are not markers.
_known_names: tuple[tuple[str, ...], frozenset[str]] = ((), frozenset())


def _names_of(vocabulary: tuple[str, ...]) -> frozenset[str]:
    """The vocabulary's names that are not markers, as a set built once
    per vocabulary: every map of a run draws from the same tuple."""
    global _known_names
    known, names = _known_names
    if known is not vocabulary:
        names = frozenset(vocabulary).difference(MARKERS)
        _known_names = (vocabulary, names)
    return names


def parse_emoji_selection(response: str, emap: EmojiMap, expected_count: int) -> list[int]:
    """Extract emoji names from an oracle reply and map them to cells.

    Names are matched case-insensitively against the map; tokens that
    belong to the vocabulary but name no current candidate raise
    :class:`UnknownEmoji`.  Other tokens are treated as prose and
    ignored.  Duplicated mentions count once; the result is ordered by
    the map's (row, col) order.
    """
    if len(emap) == 0:
        raise ValueError("emoji map must be non-empty")
    names = _names_of(emap.vocabulary)
    seen: set[str] = set()
    for token in _TOKEN_RE.findall(response.lower()):
        if emap.cell_of(token) is not None:
            seen.add(token)
        elif token in names:
            raise UnknownEmoji(token)
    if not seen:
        raise EmptyResponse()
    if len(seen) != expected_count:
        raise WrongCount(len(seen), expected_count)
    picked = [(idx, name) for idx, name in emap.entries.items() if name in seen]
    return [idx for idx, _ in picked]


def contiguous_axis_run(grid: OccupancyGrid, cells: list[int], axis: str) -> list[int]:
    """Validate that cells identify one contiguous run of columns or rows.

    Returns the sorted axis indices; duplicates or holes raise
    :class:`NonContiguousRun`.
    """
    if axis not in ("cols", "rows"):
        raise ValueError(f"axis must be cols|rows, got {axis!r}")
    picker = grid.col_of if axis == "cols" else grid.row_of
    indices = sorted(picker(c) for c in cells)
    if len(set(indices)) != len(indices):
        raise NonContiguousRun(axis, indices)
    for a, b in zip(indices, indices[1:]):
        if b != a + 1:
            raise NonContiguousRun(axis, indices)
    return indices


def relation_satisfied(
    rel: SpatialRelation,
    candidate_aabb: AABB,
    anchor: PlacedObject,
    anchor_dims: Dim3,
    d_front: float = 1.5,
    d_beside: float = 0.5,
    d_around: float = 2.0,
) -> bool:
    """Geometric reading of the three anchor relations (thresholds in meters).

    front: candidate center in the open half-plane the anchor faces, its
    offset across the facing axis within half the anchor's facing edge,
    and edge gap at most ``d_front``.  beside: candidate center more
    sideways than forward/backward of the anchor center (left or right
    half-plane) with edge gap at most ``d_beside``.  around: center
    distance at most ``d_around``.  The test is exact in units: centre
    offsets are doubled (``x0 + x1 - 2 * anchor_x``) and distances compared
    squared, so every term compares integers and the verdict is the same
    in the region frame and the room frame.
    """
    x0, y0, x1, y1 = candidate_aabb
    ax0, ay0, ax1, ay1 = anchor.aabb(anchor_dims)
    fx, fy = anchor.yaw.facing
    dx, dy = x0 + x1 - 2 * units(anchor.x), y0 + y1 - 2 * units(anchor.y)
    gap2 = max(x0 - ax1, ax0 - x1, 0) ** 2 + max(y0 - ay1, ay0 - y1, 0) ** 2
    along, across = dx * fx + dy * fy, abs(dx * fy - dy * fx)
    if rel is SpatialRelation.PLACE_AROUND:
        return dx * dx + dy * dy <= (2 * units(d_around)) ** 2
    if rel is SpatialRelation.PLACE_FRONT:
        facing_edge = ax1 - ax0 if fy != 0 else ay1 - ay0
        return along > 0 and across <= facing_edge and gap2 <= units(d_front) ** 2
    if rel is SpatialRelation.PLACE_BESIDE:
        return across >= abs(along) and across > 0 and gap2 <= units(d_beside) ** 2
    raise ValueError(f"unknown relation {rel}")


def orientation_from_rule(
    rule: OrientationRule,
    anchor_yaw: Yaw,
    anchor_center: tuple[float, float],
    object_center: tuple[float, float],
) -> Yaw:
    """Resolve an object's yaw from its orientation rule and the anchor pose.

    face/back use the cardinal direction nearest the object-to-anchor
    vector; exact diagonal ties resolve toward the x axis.  The vector is
    taken in units, so a tie is a tie and not a matter of float rounding.
    """
    if rule is OrientationRule.SAME_AS_ANCHOR:
        return anchor_yaw
    if rule is OrientationRule.OPPOSITE_ANCHOR:
        return anchor_yaw.opposite
    vx = units(anchor_center[0]) - units(object_center[0])
    vy = units(anchor_center[1]) - units(object_center[1])
    if vx == 0 and vy == 0:
        raise DegenerateDirection("object center coincides with anchor center")
    if abs(vx) >= abs(vy):
        face = Yaw.DEG_90 if vx > 0 else Yaw.DEG_270
    else:
        face = Yaw.DEG_0 if vy > 0 else Yaw.DEG_180
    if rule is OrientationRule.FACE_ANCHOR:
        return face
    if rule is OrientationRule.BACK_TO_ANCHOR:
        return face.opposite
    raise ValueError(f"unknown rule {rule}")


def yaw_for_side(rule: OrientationRule | None, anchor_yaw: Yaw, side: Side) -> Yaw:
    """Provisional yaw used while selecting cells, before the final center
    is known: face/back rules orient along the chosen side's axis."""
    if rule is None or rule is OrientationRule.SAME_AS_ANCHOR:
        return anchor_yaw
    if rule is OrientationRule.OPPOSITE_ANCHOR:
        return anchor_yaw.opposite
    away = side.facing_yaw  # an object on this side facing away from the anchor
    return away.opposite if rule is OrientationRule.FACE_ANCHOR else away
