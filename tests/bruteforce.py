"""Independent brute-force oracles used to cross-check the engine.

Everything here is written with plain tuples and loops, no kernels, no
grid objects, no oracle plumbing: rectangle intersection by min/max
arithmetic, rasterization by cell-by-cell scans, the grid prompt token
by token, side scoring by direct enumeration, and a full enumerator that re-derives the k-bounded
deterministic search outcome from first principles.

Rectangles, cell edges and distances are whole numbers of 0.01 mm units,
converted here (not with the engine's helper), and every test is an
exact integer or rational comparison with no tolerance.  Poses and the
inputs of the helpers stay in meters, rounded to 4 decimals where the
engine rounds them.
"""

from __future__ import annotations

from fractions import Fraction

UNITS_PER_M = 100_000

# rect = (x0, y0, x1, y1), in units


def to_units(meters: float) -> int:
    """Meters as the nearest whole number of units."""
    return round(meters * UNITS_PER_M)


def rect_area_overlap(a, b) -> int:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0 or h <= 0:
        return 0
    return w * h


def rect_at(length: float, depth: float, yaw_deg: int, cx: float, cy: float):
    """The footprint in units of a length x depth object (4-decimal meters,
    so each extent is an even number of units) centred on (cx, cy) meters."""
    if yaw_deg % 180 == 90:
        length, depth = depth, length
    hx, hy = to_units(length) // 2, to_units(depth) // 2
    x, y = to_units(cx), to_units(cy)
    return (x - hx, y - hy, x + hx, y + hy)


def cell_rect(row: int, col: int, cell: float):
    return (col * cell, row * cell, (col + 1) * cell, (row + 1) * cell)


def brute_rasterize(cols: int, rows: int, cell: int, rects) -> list[int]:
    """rects: (x0,y0,x1,y1,code); per-cell max code with positive-area overlap."""
    codes = [0] * (rows * cols)
    for r in range(rows):
        for c in range(cols):
            cr = cell_rect(r, c, cell)
            for x0, y0, x1, y1, code in rects:
                if rect_area_overlap(cr, (x0, y0, x1, y1)) > 0:
                    codes[r * cols + c] = max(codes[r * cols + c], code)
    return codes


def brute_side_cells(cols, rows, cell, codes, side: str, anchor_rect) -> list[int]:
    """Free cells strictly on one side of the anchor rect, row-major order."""
    ax0, ay0, ax1, ay1 = anchor_rect
    out = []
    for r in range(rows):
        for c in range(cols):
            if codes[r * cols + c] != 0:
                continue
            cr = cell_rect(r, c, cell)
            keep = {
                "left": cr[2] <= ax0,
                "right": cr[0] >= ax1,
                "bottom": cr[3] <= ay0,
                "top": cr[1] >= ay1,
            }[side]
            if keep:
                out.append(r * cols + c)
    return out


def brute_grid_prompt(cols, rows, codes, names: dict[int, str], wall_sides) -> str:
    """Grid prompt built token by token, top row first, inside a one-cell
    ring: "brick" at the corners and on the sides named in ``wall_sides``,
    "white_circle" on the others.  A cell in ``names`` shows its name;
    otherwise code 2 shows "red_square", code 1 "black_square" and any
    other code "light_blank"."""

    def edge(side: str) -> str:
        return "brick" if side in wall_sides else "white_circle"

    lines = [" ".join(["brick"] + [edge("top")] * cols + ["brick"])]
    for r in range(rows - 1, -1, -1):
        tokens = [edge("left")]
        for c in range(cols):
            idx = r * cols + c
            if idx in names:
                tokens.append(names[idx])
            elif codes[idx] == 2:
                tokens.append("red_square")
            elif codes[idx] == 1:
                tokens.append("black_square")
            else:
                tokens.append("light_blank")
        tokens.append(edge("right"))
        lines.append(" ".join(tokens))
    lines.append(" ".join(["brick"] + [edge("bottom")] * cols + ["brick"]))
    return "\n".join(lines)


# -- independent relation / orientation formulas ------------------------------

FACING = {0: (0, 1), 90: (1, 0), 180: (0, -1), 270: (-1, 0)}


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def rect_gap_squared(a, b) -> int:
    dx = max(b[0] - a[2], a[0] - b[2], 0)
    dy = max(b[1] - a[3], a[1] - b[3], 0)
    return dx * dx + dy * dy


def brute_relation(rel: str, cand_rect, anchor_rect, anchor_center, anchor_yaw: int,
                   d_front=1.5, d_beside=0.5, d_around=2.0) -> bool:
    """Rects in units; the anchor centre and the thresholds in meters."""
    ccx = Fraction(cand_rect[0] + cand_rect[2], 2)
    ccy = Fraction(cand_rect[1] + cand_rect[3], 2)
    dx, dy = ccx - to_units(anchor_center[0]), ccy - to_units(anchor_center[1])
    fx, fy = FACING[anchor_yaw]
    along = dx * fx + dy * fy
    perp = dx * fy - dy * fx
    if rel == "place_around":
        return dx * dx + dy * dy <= to_units(d_around) ** 2
    gap2 = rect_gap_squared(anchor_rect, cand_rect)
    if rel == "place_front":
        edge = (anchor_rect[2] - anchor_rect[0]) if fy != 0 else (anchor_rect[3] - anchor_rect[1])
        return along > 0 and abs(perp) <= Fraction(edge, 2) and gap2 <= to_units(d_front) ** 2
    if rel == "place_beside":
        return abs(perp) >= abs(along) and perp != 0 and gap2 <= to_units(d_beside) ** 2
    raise ValueError(rel)


def brute_orientation(rule: str, anchor_yaw: int, anchor_center, object_center) -> int:
    """Centres in meters."""
    if rule == "same_as_anchor":
        return anchor_yaw
    if rule == "opposite_anchor":
        return (anchor_yaw + 180) % 360
    vx = to_units(anchor_center[0]) - to_units(object_center[0])
    vy = to_units(anchor_center[1]) - to_units(object_center[1])
    if abs(vx) >= abs(vy):
        face = 90 if vx > 0 else 270
    else:
        face = 0 if vy > 0 else 180
    return face if rule == "face_anchor" else (face + 180) % 360


# -- brute-force mirror of the deterministic search ----------------------------

SIDE_YAW_TOWARD_ANCHOR = {"right": 270, "left": 90, "top": 180, "bottom": 0}
FACING_SIDE = {0: "top", 90: "right", 180: "bottom", 270: "left"}
BASE_ORDER = ("right", "left", "bottom", "top")


def yaw_for_side(rule: str | None, anchor_yaw: int, side: str) -> int:
    if rule is None or rule == "same_as_anchor":
        return anchor_yaw
    if rule == "opposite_anchor":
        return (anchor_yaw + 180) % 360
    toward = SIDE_YAW_TOWARD_ANCHOR[side]
    return toward if rule == "face_anchor" else (toward + 180) % 360


def side_preference(anchor_yaw: int) -> list[str]:
    order = [FACING_SIDE[anchor_yaw]]
    for s in BASE_ORDER:
        if s not in order:
            order.append(s)
    return order


class BruteRegion:
    """Plain-data mirror of one region instance for the enumerator.

    Lengths come in meters (the cell too); the grid and every rect are
    kept in units."""

    def __init__(self, length, width, cell, anchor_rule, objects, thresholds=(1.5, 0.5, 2.0)):
        # objects: list of dicts with id, length, depth, relation, orientation
        # (anchor first: relation/orientation None)
        self.length = length
        self.width = width
        self.cell_m = cell
        self.cell = to_units(cell)
        self.anchor_rule = anchor_rule
        self.objects = objects
        self.d_front, self.d_beside, self.d_around = thresholds
        self.cols = max(1, ceil_div(to_units(length), self.cell))
        self.rows = max(1, ceil_div(to_units(width), self.cell))

    # --- geometry helpers

    def spans(self, obj, yaw: int) -> tuple[int, int]:
        rect = rect_at(obj["length"], obj["depth"], yaw, 0.0, 0.0)
        ex, ey = rect[2] - rect[0], rect[3] - rect[1]
        return max(1, ceil_div(ex, self.cell)), max(1, ceil_div(ey, self.cell))

    def in_bounds(self, rect) -> bool:
        return (
            rect[0] >= 0
            and rect[1] >= 0
            and rect[2] <= to_units(self.length)
            and rect[3] <= to_units(self.width)
        )

    def overlaps_any(self, rect, placed_rects) -> bool:
        return any(rect_area_overlap(rect, r) > 0 for r in placed_rects)

    def free_side_cells(self, placed_rects, anchor_rect, side: str) -> set[int]:
        rects = [(r[0], r[1], r[2], r[3], 1) for r in placed_rects]
        codes = brute_rasterize(self.cols, self.rows, self.cell, rects)
        return set(brute_side_cells(self.cols, self.rows, self.cell, codes, side, anchor_rect))

    def pose_of(self, obj, side, col_start, row_start):
        m_cols, m_rows = self.spans(obj, yaw_for_side(obj["orientation"], self.anchor_yaw, side))
        cx = round((col_start + m_cols / 2) * self.cell_m, 4)
        cy = round((row_start + m_rows / 2) * self.cell_m, 4)
        rule = obj["orientation"]
        if rule in ("face_anchor", "back_to_anchor") and (cx, cy) != self.anchor_center:
            yaw = brute_orientation(rule, self.anchor_yaw, self.anchor_center, (cx, cy))
        else:
            yaw = yaw_for_side(rule, self.anchor_yaw, side)
        return cx, cy, yaw

    def pose_legal(self, obj, side, cx, cy, yaw, placed_rects) -> bool:
        rect = rect_at(obj["length"], obj["depth"], yaw, cx, cy)
        if not self.in_bounds(rect):
            return False
        if self.overlaps_any(rect, placed_rects):
            return False
        if obj["relation"] is not None:
            anchor_rect = placed_rects[0]
            return brute_relation(
                obj["relation"], rect, anchor_rect, self.anchor_center, self.anchor_yaw,
                self.d_front, self.d_beside, self.d_around,
            )
        return True

    # --- deterministic policy mirror

    def side_score(self, obj, side, placed_rects, anchor_rect) -> int:
        """The pairs the engine accepts on ``side`` (the free cells there
        for the anchor-facing question, which has no relation)."""
        if obj["relation"] is None:
            return len(self.free_side_cells(placed_rects, anchor_rect, side))
        return len(self.accepted_pairs(obj, side, placed_rects))

    def rect_cells_ok(self, cand: set[int], c0, mc, r0, mr) -> bool:
        if c0 < 0 or r0 < 0 or c0 + mc > self.cols or r0 + mr > self.rows:
            return False
        return all(
            r * self.cols + c in cand
            for r in range(r0, r0 + mr)
            for c in range(c0, c0 + mc)
        )

    def completion_ok(self, obj, side, cand, c0, r0, placed_rects) -> bool:
        m_cols, m_rows = self.spans(obj, yaw_for_side(obj["orientation"], self.anchor_yaw, side))
        if not self.rect_cells_ok(cand, c0, m_cols, r0, m_rows):
            return False
        cx, cy, yaw = self.pose_of(obj, side, c0, r0)
        return self.pose_legal(obj, side, cx, cy, yaw, placed_rects)

    def primary_starts(self, obj, side, cand, placed_rects) -> list[int]:
        m_cols, m_rows = self.spans(obj, yaw_for_side(obj["orientation"], self.anchor_yaw, side))
        out = []
        if side in ("left", "right"):
            for c0 in range(self.cols - m_cols + 1):
                if any(
                    self.completion_ok(obj, side, cand, c0, r0, placed_rects)
                    for r0 in range(self.rows - m_rows + 1)
                ):
                    out.append(c0)
        else:
            for r0 in range(self.rows - m_rows + 1):
                if any(
                    self.completion_ok(obj, side, cand, c0, r0, placed_rects)
                    for c0 in range(self.cols - m_cols + 1)
                ):
                    out.append(r0)
        return out

    def secondary_starts(self, obj, side, cand, p_start, placed_rects) -> list[int]:
        m_cols, m_rows = self.spans(obj, yaw_for_side(obj["orientation"], self.anchor_yaw, side))
        out = []
        if side in ("left", "right"):
            for r0 in range(self.rows - m_rows + 1):
                if self.completion_ok(obj, side, cand, p_start, r0, placed_rects):
                    out.append(r0)
        else:
            for c0 in range(self.cols - m_cols + 1):
                if self.completion_ok(obj, side, cand, c0, p_start, placed_rects):
                    out.append(c0)
        return out

    def accepted_pairs(self, obj, side, placed_rects) -> set[tuple[int, int]]:
        """Every (column start, row start) that some parseable pair of run
        replies names on ``side`` and the engine then accepts."""
        return {(c0, r0) for c0, r0 in self.named_pairs(obj, side, placed_rects)
                if self.pose_legal(obj, side, *self.pose_of(obj, side, c0, r0), placed_rects)}

    def named_pairs(self, obj, side, placed_rects) -> set[tuple[int, int]]:
        """Every (column start, row start) that some parseable pair of run
        replies names on ``side``.

        A run reply parses when it names exactly one candidate cell on
        each index of a run of the wanted length; the secondary reply
        chooses among the cells of the primary run.  So a pair is named
        by some reply pair exactly when every primary index of its
        primary run holds a candidate, and every secondary index of its
        secondary run holds one of those cells."""
        horizontal = side in ("left", "right")
        cells = [divmod(idx, self.cols)[::-1] for idx in
                 self.free_side_cells(placed_rects, placed_rects[0], side)]  # (col, row)
        if not horizontal:
            cells = [(r, c) for c, r in cells]  # (primary, secondary) indices
        m_cols, m_rows = self.spans(obj, yaw_for_side(obj["orientation"], self.anchor_yaw, side))
        m_p, m_s = (m_cols, m_rows) if horizontal else (m_rows, m_cols)
        n_p, n_s = (self.cols, self.rows) if horizontal else (self.rows, self.cols)
        out = set()
        for p0 in range(n_p):
            run_p = set(range(p0, p0 + m_p))
            if not run_p <= {p for p, _ in cells}:
                continue
            in_run = {s for p, s in cells if p in run_p}
            for s0 in range(n_s):
                if not set(range(s0, s0 + m_s)) <= in_run:
                    continue
                out.add((p0, s0) if horizontal else (s0, p0))
        return out

    def run_distance(self, obj, side, axis, start) -> int:
        """Twice the distance of the run's centre to the anchor's, in units."""
        m_cols, m_rows = self.spans(obj, yaw_for_side(obj["orientation"], self.anchor_yaw, side))
        if axis == "cols":
            return abs((2 * start + m_cols) * self.cell - 2 * to_units(self.anchor_center[0]))
        return abs((2 * start + m_rows) * self.cell - 2 * to_units(self.anchor_center[1]))

    def live_pairs(self, obj, side, placed_rects, excluded) -> set[tuple[int, int]]:
        """The pairs of ``accepted_pairs`` on ``side`` whose key
        ``(side, primary start, secondary start)`` is not in ``excluded``,
        as (primary start, secondary start): the poses a reply could
        still make the search accept."""
        horizontal = side in ("left", "right")
        pairs = ((c0, r0) if horizontal else (r0, c0)
                 for c0, r0 in self.accepted_pairs(obj, side, placed_rects))
        return {pair for pair in pairs if (side, *pair) not in excluded}

    def pose_keys(self, obj, pose) -> set[tuple[str, int, int]]:
        """The key of every pair of runs, on any side, whose pose is ``pose``."""
        keys = set()
        for side in BASE_ORDER:
            m_cols, m_rows = self.spans(obj, yaw_for_side(obj["orientation"], self.anchor_yaw, side))
            for c0 in range(self.cols - m_cols + 1):
                for r0 in range(self.rows - m_rows + 1):
                    if self.pose_of(obj, side, c0, r0) == pose:
                        keys.add((side, c0, r0) if side in ("left", "right") else (side, r0, c0))
        return keys

    def local_place(self, obj, placed_rects, excluded, k_side, k_axis):
        """Mirror of the engine's local search under the argmax policy.

        A step is forced (:class:`ForcedSteps`): with one live answer it
        takes that answer without asking the policy, with none it ends.
        A side is live when ``live_pairs`` holds a pair on it, and an
        asked side question avoids the sides tried and the dead ones; the
        eval says yes when the side scores above zero."""
        anchor_rect = placed_rects[0]
        steps = ForcedSteps(self, obj, placed_rects, excluded)
        scores = {s: self.side_score(obj, s, placed_rects, anchor_rect) for s in BASE_ORDER}
        tried_sides: list[str] = []
        for _ in range(k_side):
            side = steps.side(tried_sides)
            if side is None:
                return None
            if side is ASK:
                legal = [s for s in side_preference(self.anchor_yaw)
                         if s not in tried_sides and steps.live[s] and scores[s] > 0]
                if not legal:  # "none available", and so every later reply
                    return None
                side = max(legal, key=lambda s: scores[s])
            tried_sides.append(side)
            if not steps.live[side] or scores[side] <= 0:  # no feasible pose, or eval no
                continue
            cand = self.free_side_cells(placed_rects, anchor_rect, side)
            primary_axis = "cols" if side in ("left", "right") else "rows"
            secondary_axis = "rows" if side in ("left", "right") else "cols"
            tried_primary: list[int] = []
            for _ in range(k_axis):
                p0 = steps.primary(side, tried_primary)
                if p0 is None:
                    break
                if p0 is ASK:
                    starts = [
                        s for s in self.primary_starts(obj, side, cand, placed_rects)
                        if s not in tried_primary
                    ]
                    if not starts:
                        break
                    p0 = min(starts, key=lambda s: (self.run_distance(obj, side, primary_axis, s), s))
                tried_primary.append(p0)
                s0 = steps.secondary(side, p0, ())
                if s0 is None:  # no feasible pose in the named run
                    continue
                if s0 is ASK:
                    pose_avoid = {s for (sd, p, s) in excluded if sd == side and p == p0}
                    starts2 = [
                        s for s in self.secondary_starts(obj, side, cand, p0, placed_rects)
                        if s not in pose_avoid
                    ]
                    if not starts2:
                        continue
                    s0 = min(
                        starts2, key=lambda s: (self.run_distance(obj, side, secondary_axis, s), s)
                    )
                c0, r0 = (p0, s0) if side in ("left", "right") else (s0, p0)
                return (side, p0, s0), self.pose_of(obj, side, c0, r0)
        return None

    # --- anchor proposals (engine order)

    def anchor_proposals(self):
        obj = self.objects[0]
        if self.anchor_rule == "place_along_wall":
            walls = [
                ("bottom", self.length, 0), ("left", self.width, 90),
                ("top", self.length, 180), ("right", self.width, 270),
            ]
            order = {"bottom": 0, "left": 1, "top": 2, "right": 3}
            walls.sort(key=lambda w: (-w[1], order[w[0]]))
            out = []
            for name, _, yaw in walls:
                rect = rect_at(obj["length"], obj["depth"], yaw, 0, 0)
                ex, ey = (rect[2] - rect[0]) / UNITS_PER_M, (rect[3] - rect[1]) / UNITS_PER_M
                center = {
                    "bottom": (self.length / 2, ey / 2),
                    "top": (self.length / 2, self.width - ey / 2),
                    "left": (ex / 2, self.width / 2),
                    "right": (self.length - ex / 2, self.width / 2),
                }[name]
                out.append(((name, yaw), round(center[0], 4), round(center[1], 4), yaw))
            return out
        if self.anchor_rule == "place_at_corner":
            out = []
            for name, (sx, sy) in (("bl", (1, 1)), ("br", (-1, 1)), ("tl", (1, -1)), ("tr", (-1, -1))):
                yaw_y = 0 if sy > 0 else 180
                yaw_x = 90 if sx > 0 else 270
                r_y = rect_at(obj["length"], obj["depth"], yaw_y, 0, 0)
                r_x = rect_at(obj["length"], obj["depth"], yaw_x, 0, 0)
                free_y = to_units(self.width) - (r_y[3] - r_y[1])
                free_x = to_units(self.length) - (r_x[2] - r_x[0])
                # the yaw with more free depth first, then the other one
                for yaw in (yaw_y, yaw_x) if free_y >= free_x else (yaw_x, yaw_y):
                    rect = rect_at(obj["length"], obj["depth"], yaw, 0, 0)
                    ex, ey = (rect[2] - rect[0]) / UNITS_PER_M, (rect[3] - rect[1]) / UNITS_PER_M
                    cx = ex / 2 if sx > 0 else self.length - ex / 2
                    cy = ey / 2 if sy > 0 else self.width - ey / 2
                    out.append(((name, yaw), round(cx, 4), round(cy, 4), yaw))
            return out
        # place_in_center: the facings whose box fits the region at the
        # centroid (the others are never offered), ranked by
        # facing_scores, ties in the fixed order top, right, left, bottom.
        cx, cy = round(self.length / 2, 4), round(self.width / 2, 4)
        scores = self.facing_scores()
        out = []
        for s in sorted(("top", "right", "left", "bottom"), key=lambda s: -scores[s]):
            yaw = {"top": 0, "right": 90, "bottom": 180, "left": 270}[s]
            if self.in_bounds(rect_at(obj["length"], obj["depth"], yaw, cx, cy)):
                out.append(((s, yaw), cx, cy, yaw))
        return out

    def facing_scores(self) -> dict[str, int]:
        """The policy's score of each facing of a centred anchor: the
        free-cell count on that side of the yaw-0 probe rectangle."""
        cx, cy = round(self.length / 2, 4), round(self.width / 2, 4)
        probe = rect_at(self.objects[0]["length"], self.objects[0]["depth"], 0, cx, cy)
        codes = [0] * (self.rows * self.cols)
        return {s: len(brute_side_cells(self.cols, self.rows, self.cell, codes, s, probe))
                for s in ("top", "right", "left", "bottom")}

    # --- full search mirror

    def search_feasible(self, k_anchor, k_other, k_side, k_axis) -> bool:
        """Does the k-bounded deterministic search place every object?

        Mirrors the engine's anchor semantics: only accepted-then-
        backtracked poses are barred from re-proposal, by key and by
        position; each visit burns attempts on (possibly repeated)
        out-of-bounds wall and corner proposals, while a centred anchor
        is offered only the facings that fit.
        """
        obj0 = self.objects[0]
        proposals = self.anchor_proposals()
        used: dict[tuple, tuple] = {}
        for _visit in range(k_anchor):
            placed = None
            attempt = 0
            if self.anchor_rule == "place_in_center":
                # every facing offered fits: one left is taken unasked,
                # else the policy names the best, if it scores above zero
                fresh = [p for p in proposals if p[0] not in used]
                if len(fresh) > 1 and self.facing_scores()[fresh[0][0][0]] <= 0:
                    fresh = []
                offered = fresh[:1]
            else:
                offered = proposals
            for key, cx, cy, yaw in offered:
                if key in used or (cx, cy, yaw) in used.values():
                    continue
                attempt += 1
                if attempt > k_anchor:
                    break
                rect = rect_at(obj0["length"], obj0["depth"], yaw, cx, cy)
                if self.in_bounds(rect):
                    placed = (key, cx, cy, yaw, rect)
                    break
            if placed is None:
                return False
            key, cx, cy, yaw, rect = placed
            self.anchor_center = (cx, cy)
            self.anchor_yaw = yaw
            if self._solve(1, [rect], k_other, k_side, k_axis):
                return True
            used[key] = (cx, cy, yaw)
        return False

    def _solve(self, i, placed_rects, k_other, k_side, k_axis) -> bool:
        if i >= len(self.objects):
            return True
        obj = self.objects[i]
        excluded: set[tuple] = set()
        while True:
            found = self.local_place(obj, placed_rects, excluded, k_side, k_axis)
            if found is None:
                return False
            key, (cx, cy, yaw) = found
            rect = rect_at(obj["length"], obj["depth"], yaw, cx, cy)
            if self._solve(i + 1, placed_rects + [rect], k_other, k_side, k_axis):
                return True
            excluded |= self.pose_keys(obj, (cx, cy, yaw))


# -- forced steps ---------------------------------------------------------------

#: What a step with two live answers or more does: ask.
ASK = "ask"


def forced_answer(answers):
    """The step's move given its live answers: None with none (the step
    ends), the one answer with one (taken without asking), else ``ASK``."""
    if not answers:
        return None
    if len(answers) == 1:
        return next(iter(answers))
    return ASK


class ForcedSteps:
    """The live answers of the local search's steps in one context, from
    ``accepted_pairs`` less the ``excluded`` keys: the sides holding a live
    pair, the primary starts of a side's live pairs, and the secondary
    starts of the live pairs with a given primary start, each less the
    answers already tried."""

    def __init__(self, region: BruteRegion, obj, placed_rects, excluded):
        self.live = {side: region.live_pairs(obj, side, placed_rects, excluded)
                     for side in BASE_ORDER}

    def sides(self, tried) -> set[str]:
        return {side for side, pairs in self.live.items() if pairs and side not in tried}

    def dead_sides(self) -> set[str]:
        """The sides with no live pair, which an asked side question
        tells the oracle not to answer."""
        return {side for side, pairs in self.live.items() if not pairs}

    def primaries(self, side, tried) -> set[int]:
        return {p for p, _ in self.live[side]} - set(tried)

    def secondaries(self, side, primary, tried) -> set[int]:
        return {s for p, s in self.live[side] if p == primary} - set(tried)

    def side(self, tried):
        return forced_answer(self.sides(tried))

    def primary(self, side, tried):
        return forced_answer(self.primaries(side, tried))

    def secondary(self, side, primary, tried):
        return forced_answer(self.secondaries(side, primary, tried))
