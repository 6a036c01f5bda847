"""Typed oracle queries, replies, and canonical fingerprinting.

Every query carries ``attempt`` (ordinal within the current budget) and
``round_no`` (ordinal of the layer visit), so re-asking after a failure
or a backtrack produces a distinct canonical text.  Fingerprints hash
the canonical text together with the prompt-template version, which
makes transcripts replayable only against the templates they were
recorded with.  A query hashes its fingerprint once, and a spatial
context renders its canonical text once, however many oracles read them.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from treelayout import kernels
from treelayout.grid import EmojiMap, OccupancyGrid, Side, candidate_cells, relation_rows
from treelayout.model import (
    UNITS_PER_M,
    Dim3,
    OrientationRule,
    PlacedObject,
    RoomPlan,
    SpatialRelation,
    units,
)

#: Box extents along one axis in units, one ``(low, high)`` pair per column or row.
Spans = Sequence[tuple[int, int]]


def _meters(v: int) -> str:
    """Units as meters, to 4 decimals or the 5 that tell odd multiples of 0.05 mm apart."""
    return f"{v / UNITS_PER_M:.{4 if v % 10 == 0 else 5}f}"


class _Query:
    @cached_property
    def fp(self) -> str:
        """The fingerprint under the shipped templates, hashed once per
        query object: a wrapping oracle and the oracle it wraps share it."""
        from treelayout.oracle.templates import template_version  # templates imports this module

        return fingerprint(self, template_version())


@dataclass(frozen=True)
class OracleReply:
    """Raw reply text, preserved verbatim for transcripting.

    All structure is recovered downstream by the engine's parsers; a
    malformed reply is a failed attempt, not an oracle error.
    """

    text: str


@dataclass(frozen=True)
class SpatialContext:
    """Geometry an oracle needs to reason about one spatial question.

    The grid prompt is the text a language oracle sees; the structured
    fields let the deterministic heuristic answer the same question
    without parsing its own prompt.

    The context also owns the engine's final check of a candidate pose,
    :meth:`rejection`, whose block form :meth:`legal_rows` the det policy
    asks, so the oracle names only positions the engine accepts; boxes
    are in units, so every check is exact.  ``candidates``, the check's
    invariants and the canonical text are derived from the fields on
    first use, so equality and hashing ignore them.
    """

    scope: str
    object_id: str
    region_length: float
    region_width: float
    grid: OccupancyGrid
    placed_boxes: tuple[tuple[int, int, int, int], ...]
    anchor: PlacedObject
    anchor_dims: Dim3
    object_dims: Dim3
    relation: SpatialRelation | None
    orientation_rule: OrientationRule | None
    d_front: float
    d_beside: float
    d_around: float

    @cached_property
    def candidates(self) -> dict[Side, list[int]]:
        """Free cells on each side of the anchor, in (row, col) order;
        callers share the lists and must not mutate them."""
        return candidate_cells(self.grid, self.anchor.aabb(self.anchor_dims))

    @cached_property
    def _limits(self) -> tuple[int, int, tuple]:
        """Invariants of :meth:`rejection` in units: the region's far x and
        far y bounds, and the anchor arguments of ``relation_rows``."""
        anchor_args = (
            self.anchor.aabb(self.anchor_dims), units(self.anchor.x), units(self.anchor.y),
            self.anchor.yaw.facing, units(self.d_front), units(self.d_beside), units(self.d_around),
        )
        return units(self.region_length), units(self.region_width), anchor_args

    def _inside_rows(self, xspans: Spans, yspans: Spans, want: Sequence[int]) -> list[int]:
        x_max, y_max, _ = self._limits
        cols = sum(1 << c for c, (x0, x1) in enumerate(xspans) if x0 >= 0 and x1 <= x_max)
        return [m & cols if y0 >= 0 and y1 <= y_max else 0 for (y0, y1), m in zip(yspans, want)]

    def _related_rows(self, xspans: Spans, yspans: Spans, want: Sequence[int]) -> list[int]:
        if self.relation is None:
            return list(want)
        return relation_rows(self.relation, xspans, yspans, want, *self._limits[2])

    def legal_rows(self, xspans: Spans, yspans: Spans, want: Sequence[int]) -> list[int]:
        """Block form of :meth:`rejection`: per row ``r``, the bits ``c``
        of ``want[r]`` for which the box ``xspans[c] x yspans[r]`` is
        legal.

        Every term of the check depends on a box's x span alone or its y
        span alone, so the terms are computed per column and per row and
        combined per cell, with the exact tests of :meth:`rejection`.
        """
        rows = self._inside_rows(xspans, yspans, want)
        hit = kernels.overlap_rows(xspans, yspans, self.placed_boxes)
        return self._related_rows(xspans, yspans, [m & ~h for m, h in zip(rows, hit)])

    def rejection(self, x0: int, y0: int, x1: int, y1: int) -> str | None:
        """None when the object's box ``(x0, y0, x1, y1)`` is legal: it
        lies in the region, overlaps no placed box and satisfies the
        relation to the anchor (if any).  Else the first test it fails:
        ``"bounds"`` before ``"overlap"`` before ``"relation"``.  Each
        test is the one-box case of a term of :meth:`legal_rows`."""
        xs, ys = ((x0, x1),), ((y0, y1),)
        if not self._inside_rows(xs, ys, (1,))[0]:
            return "bounds"
        if kernels.first_overlap(x0, y0, x1, y1, self.placed_boxes) != -1:
            return "overlap"
        if not self._related_rows(xs, ys, (1,))[0]:
            return "relation"
        return None

    def canonical_text(self) -> str:
        """Everything the deterministic policy reads, so fingerprints
        separate any two states the policy could answer differently
        (the coarse grid raster alone does not)."""
        return self._canonical

    @cached_property
    def _canonical(self) -> str:
        d = self.object_dims
        boxes = ";".join(",".join(map(_meters, box)) for box in self.placed_boxes)
        rule = self.orientation_rule.value if self.orientation_rule else "-"
        rel = self.relation.value if self.relation else "facing"
        return (
            f"scope={self.scope}\nobject={self.object_id}\n"
            f"region={self.region_length:.4f}x{self.region_width:.4f}\n"
            f"cell={self.grid.cell_size:.4f}\n"
            f"anchor={self.anchor.x:.4f},{self.anchor.y:.4f},{self.anchor.yaw.value}\n"
            f"anchor_dims={self.anchor_dims.length:.4f}x{self.anchor_dims.depth:.4f}\n"
            f"dims={d.length:.4f}x{d.depth:.4f}\nrelation={rel}\norientation={rule}\n"
            f"thresholds={self.d_front:.4f},{self.d_beside:.4f},{self.d_around:.4f}\n"
            f"boxes={boxes}"
        )


@dataclass(frozen=True)
class RoomQuery(_Query):
    prompt: str
    attempt: int = 1

    def canonical_text(self) -> str:
        return f"kind=room\nattempt={self.attempt}\nprompt={self.prompt}"


@dataclass(frozen=True)
class RegionQuery(_Query):
    room_type: str
    length: float
    width: float
    prompt: str
    attempt: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=regions\nattempt={self.attempt}\nroom_type={self.room_type}\n"
            f"length={self.length:.4f}\nwidth={self.width:.4f}\nprompt={self.prompt}"
        )


@dataclass(frozen=True)
class ObjectsQuery(_Query):
    region_id: str
    function: str
    length: float
    width: float
    room_type: str
    prompt: str
    attempt: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=objects\nattempt={self.attempt}\nregion={self.region_id}\n"
            f"function={self.function}\nlength={self.length:.4f}\nwidth={self.width:.4f}\n"
            f"room_type={self.room_type}\nprompt={self.prompt}"
        )


@dataclass(frozen=True)
class SupportedQuery(_Query):
    floor_object_id: str
    category: str
    top_length: float
    top_depth: float
    attempt: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=supported\nattempt={self.attempt}\nfloor_object={self.floor_object_id}\n"
            f"category={self.category}\ntop={self.top_length:.4f}x{self.top_depth:.4f}"
        )


@dataclass(frozen=True)
class SideQuery(_Query):
    """Which side of the anchor should the object go on?

    With ``relation`` None this is the anchor-facing question instead:
    which direction should the (centered) anchor face.
    """

    grid_prompt: str
    context: SpatialContext
    avoid: tuple[str, ...] = ()
    attempt: int = 1
    round_no: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=side\nattempt={self.attempt}\nround={self.round_no}\n"
            f"{self.context.canonical_text()}\n"
            f"avoid={','.join(sorted(self.avoid))}\ngrid:\n{self.grid_prompt}"
        )


@dataclass(frozen=True)
class SideEvalQuery(_Query):
    """Evaluate whether the chosen side has an appropriate position."""

    grid_prompt: str
    context: SpatialContext
    side: Side = Side.RIGHT
    attempt: int = 1
    round_no: int = 1

    def canonical_text(self) -> str:
        return (
            f"kind=side_eval\nattempt={self.attempt}\nround={self.round_no}\n"
            f"{self.context.canonical_text()}\n"
            f"side={self.side.value}\ngrid:\n{self.grid_prompt}"
        )


@dataclass(frozen=True)
class CellsQuery(_Query):
    """Name the emoji cells of a contiguous run of columns or rows."""

    grid_prompt: str
    context: SpatialContext
    emap: EmojiMap
    expected_count: int = 1
    axis: str = "cols"  # cols | rows
    side: Side = Side.RIGHT
    primary_run: tuple[int, ...] = ()  # chosen first-axis indices, empty for the first step
    avoid: tuple[int, ...] = ()  # run start indices to not propose
    attempt: int = 1
    round_no: int = 1

    def canonical_text(self) -> str:
        names = ",".join(self.emap.entries.values())
        return (
            f"kind=cells\nattempt={self.attempt}\nround={self.round_no}\n"
            f"{self.context.canonical_text()}\n"
            f"side={self.side.value}\naxis={self.axis}\ncount={self.expected_count}\n"
            f"primary={','.join(str(i) for i in self.primary_run)}\n"
            f"avoid={','.join(str(i) for i in sorted(self.avoid))}\n"
            f"cells={names}\ngrid:\n{self.grid_prompt}"
        )


@dataclass(frozen=True)
class FullLayoutQuery(_Query):
    """Single-shot full-layout request (IO ablation mode only)."""

    plan: RoomPlan
    plan_text: str
    attempt: int = 1

    def canonical_text(self) -> str:
        return f"kind=full_layout\nattempt={self.attempt}\nplan:\n{self.plan_text}"


OracleQuery = (
    RoomQuery
    | RegionQuery
    | ObjectsQuery
    | SupportedQuery
    | SideQuery
    | SideEvalQuery
    | CellsQuery
    | FullLayoutQuery
)

def fingerprint(query: OracleQuery, template_version: str) -> str:
    payload = f"v={template_version}\n{query.canonical_text()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
