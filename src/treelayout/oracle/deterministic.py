"""Seeded heuristic oracle: an offline, reproducible stand-in for a hosted model.

Hierarchy replies come from a shipped template data file; spatial
replies come from the scoring policy in :mod:`treelayout.oracle.policy`.
Every reply is a pure function of (query, seed): per-query randomness is
drawn from a generator seeded with a hash of the seed and the query
fingerprint, so replies are stable across processes and threads.

The adversarial knob ``p_adv`` makes the oracle pick the worst-scoring
legal option with that probability, to exercise backtracking; it never
picks an illegal option.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from treelayout.catalog import AssetCatalog
from treelayout.model import q4
from treelayout.oracle.base import PlacementOracle
from treelayout.oracle.policy import (
    choose_run,
    choose_side,
    feasible_primary_starts,
    feasible_secondary_starts,
    side_scores,
)
from treelayout.oracle.queries import (
    CellsQuery,
    FullLayoutQuery,
    ObjectsQuery,
    OracleQuery,
    OracleReply,
    RegionQuery,
    RoomQuery,
    SideEvalQuery,
    SideQuery,
    SupportedQuery,
)

NO_LEGAL_OPTION = "none available"


@lru_cache(maxsize=1)
def load_room_templates() -> dict:
    """The shipped room templates, parsed once per process.

    Every caller gets the same dict; callers must not mutate it.
    """
    text = resources.files("treelayout.data").joinpath("room_templates.json").read_text("utf-8")
    return json.loads(text)


@dataclass
class DeterministicOracle(PlacementOracle):
    io_bound = False

    seed: int = 0
    p_adv: float = 0.0
    catalog: AssetCatalog | None = None
    templates: dict | None = None

    def __post_init__(self) -> None:
        if self.catalog is None:
            self.catalog = AssetCatalog.default()
        if self.templates is None:
            self.templates = load_room_templates()

    def _rng(self, q: OracleQuery) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{q.fp}".encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def query(self, q: OracleQuery) -> OracleReply:
        rng = self._rng(q)
        if isinstance(q, RoomQuery):
            return OracleReply(self._room(q, rng))
        if isinstance(q, RegionQuery):
            return OracleReply(self._regions(q, rng))
        if isinstance(q, ObjectsQuery):
            return OracleReply(self._objects(q, rng))
        if isinstance(q, SupportedQuery):
            return OracleReply(self._supported(q, rng))
        if isinstance(q, SideQuery):
            return OracleReply(self._side(q, rng))
        if isinstance(q, SideEvalQuery):
            return OracleReply(self._side_eval(q))
        if isinstance(q, CellsQuery):
            return OracleReply(self._cells(q, rng))
        if isinstance(q, FullLayoutQuery):
            return OracleReply(self._full_layout(q))
        raise TypeError(f"unsupported query {type(q).__name__}")

    # -- hierarchy replies ------------------------------------------------

    def _match_keyword(self, text: str, table: dict[str, list[str]]) -> str | None:
        best: tuple[int, str] | None = None
        for label, words in table.items():
            for w in words:
                if w in text and (best is None or len(w) > best[0]):
                    best = (len(w), label)
        return best[1] if best else None

    def _room(self, q: RoomQuery, rng: random.Random) -> str:
        text = q.prompt.lower()
        room_type = self._match_keyword(text, self.templates["room_type_keywords"]) or "living room"
        size = self._match_keyword(text, self.templates["size_keywords"]) or "medium"
        lo, hi = self.templates["size_bands"][size]
        margin = 0.05 * (hi - lo)
        area = rng.uniform(lo + margin, hi - margin)
        aspect = rng.uniform(1.05, 1.5)
        length = round(math.sqrt(area * aspect) / 0.05) * 0.05
        width = round(math.sqrt(area / aspect) / 0.05) * 0.05
        return f"room_type: {room_type}\nlength: {q4(length):.2f}\nwidth: {q4(width):.2f}"

    def _regions(self, q: RegionQuery, rng: random.Random) -> str:
        """Pick a region layout whose every strip stays comfortably wide
        (an anchor object needs room to breathe); fall back to one region."""
        options = self.templates["room_regions"].get(q.room_type)
        if not options:
            return "main region: 1.0"
        workable = [
            opt for opt in options
            if min(fraction for _, fraction in opt) * q.length >= 1.5
        ]
        if not workable:
            workable = [min(options, key=len)]
        option = workable[rng.randrange(len(workable))]
        return "\n".join(f"{function}: {fraction}" for function, fraction in option)

    def _jitter_dims(self, category: str, rng: random.Random) -> tuple[float, float, float]:
        # plan dims snap to 0.05 m so footprints stay grid-friendly
        entry = self.catalog.entry(category)
        f_plan = 1.0 + rng.uniform(-0.04, 0.04)
        f_h = 1.0 + rng.uniform(-0.05, 0.05)
        return (
            round(entry.dims.length * f_plan / 0.05) * 0.05,
            round(entry.dims.depth * f_plan / 0.05) * 0.05,
            round(entry.dims.height * f_h, 2),
        )

    def _objects(self, q: ObjectsQuery, rng: random.Random) -> str:
        options = self.templates["region_objects"].get(q.function)
        if not options:
            return NO_LEGAL_OPTION

        def footprint(option: list[dict]) -> float:
            total = 0.0
            for o in option:
                d = self.catalog.entry(o["category"]).dims
                total += d.length * d.depth
            return total

        def fits_somehow(option: list[dict]) -> bool:
            for o in option:
                d = self.catalog.entry(o["category"]).dims
                if not (
                    (d.length <= q.length and d.depth <= q.width)
                    or (d.depth <= q.length and d.length <= q.width)
                ):
                    return False
            return True

        def beside_headroom_ok(option: list[dict]) -> bool:
            # An object placed beside a wall-hugging anchor lives in the
            # strip(s) the anchor leaves on its wall; a centered anchor
            # splits the leftover in two, a corner anchor keeps one side.
            anchor = next(o for o in option if o.get("anchor"))
            rule = anchor["anchor_rule"]
            if rule == "place_along_wall":
                sides = 2
            elif rule == "place_at_corner":
                sides = 1
            else:
                return True
            wall = max(q.length, q.width)
            anchor_len = self.catalog.entry(anchor["category"]).dims.length
            for o in option:
                if o.get("relation") != "place_beside":
                    continue
                need = self.catalog.entry(o["category"]).dims.length + 0.1
                if wall < anchor_len + sides * need:
                    return False
            return True

        region_area = q.length * q.width
        fitting = [
            o for o in options
            if footprint(o) <= 0.55 * region_area and fits_somehow(o) and beside_headroom_ok(o)
        ]
        pool = fitting if fitting else [min(options, key=footprint)]
        option = pool[rng.randrange(len(pool))]
        lines = []
        for o in option:
            l, d, h = self._jitter_dims(o["category"], rng)
            if o.get("anchor"):
                lines.append(f"{o['category']} {l} x {d} x {h} | anchor | {o['anchor_rule']}")
            else:
                lines.append(f"{o['category']} {l} x {d} x {h} | {o['relation']} | {o['orientation']}")
        return "\n".join(lines)

    def _supported(self, q: SupportedQuery, rng: random.Random) -> str:
        options = self.templates["supported_sets"].get(q.category)
        if not options:
            return "none"
        option = options[rng.randrange(len(options))]
        if not option:
            return "none"
        lines = []
        for category in option:
            l, d, h = self._jitter_dims(category, rng)
            lines.append(f"{category} {l} x {d} x {h} | place_around")
        return "\n".join(lines)

    # -- spatial replies ---------------------------------------------------

    def _side(self, q: SideQuery, rng: random.Random) -> str:
        adversarial = rng.random() < self.p_adv
        side = choose_side(q.context, q.avoid, adversarial)
        if side is None:
            return NO_LEGAL_OPTION
        return side.value

    def _side_eval(self, q: SideEvalQuery) -> str:
        score = side_scores(q.context)[q.side]
        if score > 0:
            return f"yes - {score} workable positions on the {q.side.value} side"
        return f"no - no workable position on the {q.side.value} side"

    def _cells(self, q: CellsQuery, rng: random.Random) -> str:
        adversarial = rng.random() < self.p_adv
        ctx = q.context
        if not q.primary_run:
            starts = feasible_primary_starts(ctx, q.side)
        else:
            starts = feasible_secondary_starts(ctx, q.side, q.primary_run[0])
        start = choose_run(ctx, q.side, q.axis, starts, q.avoid, adversarial)
        if start is None:
            return NO_LEGAL_OPTION
        names = self._run_names(q, start)
        if names is None:
            return NO_LEGAL_OPTION
        return ", ".join(names)

    def _run_names(self, q: CellsQuery, start: int) -> list[str] | None:
        """One emoji per chosen column/row: the first named cell there."""
        grid = q.context.grid
        axis_of = grid.col_of if q.axis == "cols" else grid.row_of
        wanted = range(start, start + q.expected_count)
        first: dict[int, str] = {}
        for idx, name in q.emap.entries.items():
            axis_index = axis_of(idx)
            if axis_index in wanted and axis_index not in first:
                first[axis_index] = name
                if len(first) == len(wanted):
                    break
        if len(first) < len(wanted):
            return None
        return [first[i] for i in wanted]

    # -- IO mode -----------------------------------------------------------

    def _full_layout(self, q: FullLayoutQuery) -> str:
        """Naive single-shot layout: row-major packing from the bottom-left,
        ignoring relations and region boundaries (validated, never repaired)."""
        room = q.plan
        margin = 0.1
        x = margin
        y = margin
        row_depth = 0.0
        lines: list[str] = []
        for region in room.regions:
            ordered = [region.spec(region.anchor_id)] + [
                s for s in region.objects if s.id != region.anchor_id
            ]
            for spec in ordered:
                ex, ey = spec.dims.length, spec.dims.depth
                if x + ex > room.length - margin and x > margin:
                    x = margin
                    y += row_depth + 0.2
                    row_depth = 0.0
                cx, cy = q4(x + ex / 2.0), q4(y + ey / 2.0)
                lines.append(f"{spec.id}: x={cx:.2f} y={cy:.2f} z=0.00 yaw=0")
                x += ex + 0.2
                row_depth = max(row_depth, ey)
        return "\n".join(lines)
