"""Deterministic oracle policies, prompt templates, transcripts, live transport."""

import contextvars
import random
from dataclasses import replace
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from bruteforce import ASK, BruteRegion, ForcedSteps, brute_side_cells
from treelayout.grid import Side, rasterize, serialize_grid_prompt, assign_emojis, load_vocabulary
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
    SpatialRelation,
    Yaw,
    extents,
    units,
)
from treelayout.oracle import live
from treelayout.oracle.base import (
    CALL_PATH,
    CallPath,
    FingerprintMiss,
    OracleFailure,
    PlacementOracle,
)
from treelayout.oracle.deterministic import NO_LEGAL_OPTION, DeterministicOracle
from treelayout.oracle.live import LiveConfig, LiveOracle
from treelayout.oracle.policy import (
    _completion,
    _covered,
    choose_run,
    choose_side,
    feasible_primary_starts,
    feasible_secondary_starts,
    side_scores,
)
from treelayout.oracle.queries import (
    CellsQuery,
    OracleReply,
    RoomQuery,
    SideEvalQuery,
    SideQuery,
    SpatialContext,
    fingerprint,
)
from treelayout.oracle.templates import render_prompt_templates, template_version
from treelayout.oracle.transcript import RecordingOracle, ReplayOracle, Transcript

VOCAB = load_vocabulary()


def make_context(
    region_length=3.0,
    region_width=2.0,
    cell=0.5,
    anchor_dims=Dim3(1.0, 0.5, 0.5),
    anchor_pos=(1.5, 0.25),
    anchor_yaw=Yaw.DEG_0,
    object_dims=Dim3(0.5, 0.5, 0.5),
    relation=SpatialRelation.PLACE_BESIDE,
    orientation=OrientationRule.SAME_AS_ANCHOR,
    extra_placed=(),
):
    anchor_spec = ObjectSpec("anchor_1", "anchor_obj", anchor_dims)
    specs = [anchor_spec] + [
        ObjectSpec(f"blk_{i}", "blk", dims) for i, (dims, *_rest) in enumerate(extra_placed)
    ]
    region = RegionPlan(
        id="r1", function="test", length=region_length, width=region_width,
        objects=tuple(specs) + (ObjectSpec("obj_1", "obj", object_dims),),
        anchor_id="anchor_1", anchor_rule=AnchorRule.ALONG_WALL,
        edges=(Edge("obj_1", relation, orientation),)
        + tuple(Edge(f"blk_{i}", SpatialRelation.PLACE_AROUND, None)
                for i in range(len(extra_placed))),
    )
    anchor = PlacedObject("anchor_1", *anchor_pos, 0.0, anchor_yaw, Parent.floor("r1"))
    placed = [anchor]
    for i, (dims, pos, yaw) in enumerate(extra_placed):
        placed.append(PlacedObject(f"blk_{i}", *pos, 0.0, yaw, Parent.floor("r1")))
    grid = rasterize(region, placed, cell)
    boxes = []
    for p in placed:
        box = p.aabb(region.spec(p.spec_id).dims)
        boxes.append((box.x0, box.y0, box.x1, box.y1))
    return SpatialContext(
        scope="r1", object_id="obj_1",
        region_length=region_length, region_width=region_width,
        grid=grid, placed_boxes=tuple(boxes),
        anchor=anchor, anchor_dims=anchor_dims, object_dims=object_dims,
        relation=relation, orientation_rule=orientation,
        d_front=1.5, d_beside=0.5, d_around=2.0,
    )


def brute_of(ctx, anchor_rule="place_along_wall", objects=None):
    br = BruteRegion(
        ctx.region_length, ctx.region_width, ctx.grid.cell_size, anchor_rule,
        objects if objects is not None else [],
        thresholds=(ctx.d_front, ctx.d_beside, ctx.d_around),
    )
    br.anchor_center = (ctx.anchor.x, ctx.anchor.y)
    br.anchor_yaw = ctx.anchor.yaw.value
    return br


def brute_obj(ctx):
    return {
        "length": ctx.object_dims.length, "depth": ctx.object_dims.depth,
        "relation": ctx.relation.value if ctx.relation else None,
        "orientation": ctx.orientation_rule.value if ctx.orientation_rule else None,
    }


def _inside(rng, extent, size):
    """A center coordinate that keeps a box of ``size`` within [0, extent]."""
    return min(max(round(rng.uniform(size / 2, extent - size / 2), 2), size / 2), extent - size / 2)


def random_context(rng):
    """Random region, anchor, relation and orientation rule, with up to two
    blockers placed besides the anchor; about one context in five asks the
    anchor-facing question (no relation, no orientation rule)."""
    length = rng.choice([2.0, 3.0])
    width = rng.choice([1.5, 2.0])
    anchor_dims = Dim3(1.0, 0.5, 0.5)
    anchor_yaw = rng.choice(list(Yaw))
    ex, ey = extents(anchor_dims, anchor_yaw)
    extra = []
    for _ in range(rng.randint(0, 2)):
        dims = Dim3(rng.choice([0.3, 0.5, 0.8]), rng.choice([0.3, 0.5]), 0.5)
        yaw = rng.choice(list(Yaw))
        bx, by = extents(dims, yaw)
        extra.append((dims, (_inside(rng, length, bx), _inside(rng, width, by)), yaw))
    if rng.random() < 0.2:
        relation, orientation = None, None
    else:
        relation = rng.choice(list(SpatialRelation))
        orientation = rng.choice(list(OrientationRule))
    return make_context(
        region_length=length,
        region_width=width,
        cell=rng.choice([0.25, 0.5]),
        anchor_dims=anchor_dims,
        anchor_pos=(_inside(rng, length, ex), _inside(rng, width, ey)),
        anchor_yaw=anchor_yaw,
        object_dims=Dim3(rng.choice([0.4, 0.5, 1.0]), rng.choice([0.4, 0.5]), 0.5),
        relation=relation,
        orientation=orientation,
        extra_placed=tuple(extra),
    )


def policy_answers(ctx):
    """Every answer the policy gives for one context."""
    primary = {side: feasible_primary_starts(ctx, side) for side in Side}
    secondary = {
        (side, p0): feasible_secondary_starts(ctx, side, p0)
        for side in Side for p0 in primary[side]
    }
    return side_scores(ctx), primary, secondary


class TestSidePolicy:
    def test_choice_maximizes_brute_force_score(self):
        rng = random.Random(1)
        for _ in range(40):
            anchor_yaw = rng.choice(list(Yaw))
            relation = rng.choice(list(SpatialRelation))
            length = rng.choice([2.0, 3.0, 4.0])
            width = rng.choice([1.5, 2.0, 3.0])
            anchor_dims = Dim3(1.0, 0.5, 0.5)
            ex, ey = extents(anchor_dims, anchor_yaw)
            ax = rng.uniform(ex / 2, length - ex / 2)
            ay = rng.uniform(ey / 2, width - ey / 2)
            ctx = make_context(
                region_length=length,
                region_width=width,
                anchor_dims=anchor_dims,
                anchor_pos=(ax, ay),
                anchor_yaw=anchor_yaw,
                relation=relation,
                object_dims=Dim3(rng.choice([0.25, 0.5]), rng.choice([0.25, 0.5]), 0.5),
            )
            chosen = choose_side(ctx, avoid=(), adversarial=False)
            obj = {
                "length": ctx.object_dims.length, "depth": ctx.object_dims.depth,
                "relation": ctx.relation.value, "orientation": ctx.orientation_rule.value,
            }
            br = brute_of(ctx)
            anchor_rect = ctx.placed_boxes[0]
            brute_scores = {
                s: br.side_score(obj, s, list(ctx.placed_boxes), anchor_rect)
                for s in ("left", "right", "top", "bottom")
            }
            assert side_scores(ctx) == {Side(s): v for s, v in brute_scores.items()}
            if chosen is None:
                assert all(v == 0 for v in brute_scores.values())
            else:
                assert brute_scores[chosen.value] == max(brute_scores.values())
                assert brute_scores[chosen.value] > 0

    def test_tie_break_order(self):
        # Anchor spans the full region width so only left/right have cells;
        # symmetric free space means a tie, and right is preferred.
        ctx = make_context(
            region_length=3.0, region_width=1.0,
            anchor_dims=Dim3(1.0, 1.0, 0.5), anchor_pos=(1.5, 0.5),
            anchor_yaw=Yaw.DEG_0, relation=SpatialRelation.PLACE_BESIDE,
        )
        scores = side_scores(ctx)
        assert scores[Side.RIGHT] == scores[Side.LEFT] > 0
        assert scores[Side.TOP] == scores[Side.BOTTOM] == 0
        assert choose_side(ctx, (), adversarial=False) is Side.RIGHT

    def test_avoid_respected(self):
        ctx = make_context()
        first = choose_side(ctx, (), False)
        second = choose_side(ctx, (first.value,), False)
        assert second != first

    def test_adversarial_picks_worst_legal(self):
        ctx = make_context(relation=SpatialRelation.PLACE_AROUND)
        scores = side_scores(ctx)
        legal = {s: v for s, v in scores.items() if v > 0}
        worst = choose_side(ctx, (), adversarial=True)
        assert worst is not None
        assert scores[worst] == min(legal.values())

    def test_scores_match_brute_force_with_blockers(self):
        rng = random.Random(21)
        for _ in range(60):
            ctx = random_context(rng)
            br = brute_of(ctx)
            obj = brute_obj(ctx)
            boxes = list(ctx.placed_boxes)
            want = {side: br.side_score(obj, side.value, boxes, boxes[0]) for side in Side}
            assert side_scores(ctx) == want

    def test_score_positive_exactly_when_side_is_live(self):
        # The side-eval says yes to a side exactly when the search could
        # place the object there.
        rng = random.Random(7)
        seen = {True: 0, False: 0}
        for _ in range(400):
            ctx = random_context(rng)
            if ctx.relation is None:
                continue
            scores = side_scores(ctx)
            for side in Side:
                live = bool(ctx.live_starts(side, {}, limit=1))
                assert (scores[side] > 0) == live, (ctx.canonical_text(), side, scores[side])
                seen[live] += 1
        assert min(seen.values()) > 0, seen


class TestPolicyCache:
    @pytest.mark.parametrize("variant", ["placed_box", "object_dims"])
    def test_differing_contexts_get_their_own_answers(self, variant):
        from dataclasses import replace

        base = make_context(cell=0.25)
        if variant == "placed_box":
            # same grid raster, one placed box moved from the right of the
            # anchor to its left: only the exact boxes tell the states apart
            a = replace(base, placed_boxes=base.placed_boxes
                        + (tuple(map(units, (2.0, 0.0, 2.5, 0.5))),))
            b = replace(base, placed_boxes=base.placed_boxes
                        + (tuple(map(units, (0.5, 0.0, 1.0, 0.5))),))
        else:
            a = base
            b = replace(base, object_dims=Dim3(1.0, 0.5, 0.5))
        # each answer computed cold, on a fresh copy of its context
        cold = {id(ctx): policy_answers(replace(ctx)) for ctx in (a, b)}
        assert cold[id(a)] != cold[id(b)]
        for order in ((a, b), (b, a)):
            for ctx in order:
                assert policy_answers(ctx) == cold[id(ctx)]
            for ctx in order:
                assert policy_answers(ctx) == cold[id(ctx)]

    def test_context_candidates_are_derived_not_a_field(self):
        from dataclasses import fields, replace

        from treelayout.grid import candidate_cells

        ctx = make_context(cell=0.25)
        before = (hash(ctx), ctx.canonical_text())
        got = ctx.candidates
        assert got == candidate_cells(ctx.grid, ctx.anchor.aabb(ctx.anchor_dims))
        assert ctx.candidates is got
        assert "candidates" not in {f.name for f in fields(ctx)}
        assert (hash(ctx), ctx.canonical_text()) == before
        assert ctx == replace(ctx)

    def test_threads_sharing_tables_match_serial(self):
        # Threads race on the contexts' side sets and their rows; the
        # serial answers come from fresh copies of the contexts.
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(4)
        contexts = [random_context(rng) for _ in range(6)]
        serial = [policy_answers(replace(ctx)) for ctx in contexts]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(policy_answers, contexts[i % 6]) for i in range(48)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert got == [serial[i % 6] for i in range(48)]


class TestRunPolicy:
    def test_nearer_run_chosen(self):
        ctx = make_context(
            region_length=3.0, region_width=2.0, cell=0.25,
            anchor_pos=(0.5, 0.25), object_dims=Dim3(0.5, 0.5, 0.5),
        )
        starts = feasible_primary_starts(ctx, Side.RIGHT)
        assert starts
        chosen = choose_run(ctx, Side.RIGHT, "cols", starts, (), adversarial=False)
        dist = {
            s: abs((s + 1.0) * 0.25 - ctx.anchor.x)  # span 2 cells -> center (s+1)*cell
            for s in starts
        }
        assert dist[chosen] == min(dist.values())

    def test_exact_tie_goes_to_the_lower_start(self):
        # 0.15 m cells, one-column runs: the runs at columns 0 and 1 are
        # both 0.075 m from the anchor's x = 0.15, which the float
        # distances gave as 0.075 and 0.07499999999999998
        from treelayout.oracle.policy import object_spans

        ctx = make_context(
            region_length=3.0, region_width=2.0, cell=0.15, anchor_dims=Dim3(0.3, 0.3, 0.5),
            anchor_pos=(0.15, 0.15), object_dims=Dim3(0.15, 0.15, 0.5),
        )
        assert object_spans(ctx, Side.RIGHT)[0] == 1
        assert choose_run(ctx, Side.RIGHT, "cols", [1, 0], (), adversarial=False) == 0
        assert choose_run(ctx, Side.RIGHT, "cols", [0, 1], (), adversarial=True) == 1

    def test_adversarial_farthest(self):
        ctx = make_context(
            region_length=3.0, region_width=2.0, cell=0.25,
            anchor_pos=(0.5, 0.25), object_dims=Dim3(0.5, 0.5, 0.5),
        )
        starts = feasible_primary_starts(ctx, Side.RIGHT)
        best = choose_run(ctx, Side.RIGHT, "cols", starts, (), adversarial=False)
        worst = choose_run(ctx, Side.RIGHT, "cols", starts, (), adversarial=True)
        assert worst != best

    def test_feasible_runs_match_brute_force(self):
        rng = random.Random(9)
        for _ in range(30):
            length = rng.choice([2.0, 3.0])
            width = rng.choice([1.5, 2.0])
            anchor_yaw = rng.choice(list(Yaw))
            anchor_dims = Dim3(1.0, 0.5, 0.5)
            ex, ey = extents(anchor_dims, anchor_yaw)
            ctx = make_context(
                region_length=length,
                region_width=width,
                cell=0.5,
                anchor_dims=anchor_dims,
                anchor_pos=(
                    rng.uniform(ex / 2, length - ex / 2),
                    rng.uniform(ey / 2, width - ey / 2),
                ),
                anchor_yaw=anchor_yaw,
                relation=rng.choice(list(SpatialRelation)),
                object_dims=Dim3(rng.choice([0.4, 0.5, 1.0]), rng.choice([0.4, 0.5]), 0.5),
            )
            obj = {
                "length": ctx.object_dims.length, "depth": ctx.object_dims.depth,
                "relation": ctx.relation.value, "orientation": ctx.orientation_rule.value,
            }
            br = brute_of(ctx)
            for side in Side:
                cand = br.free_side_cells(
                    list(ctx.placed_boxes), ctx.placed_boxes[0], side.value
                )
                want = br.primary_starts(obj, side.value, cand, list(ctx.placed_boxes))
                got = feasible_primary_starts(ctx, side)
                assert got == want, side
                for p0 in got:
                    want2 = br.secondary_starts(obj, side.value, cand, p0, list(ctx.placed_boxes))
                    got2 = feasible_secondary_starts(ctx, side, p0)
                    assert got2 == want2

    def test_feasible_runs_match_brute_force_with_blockers(self):
        rng = random.Random(33)
        for _ in range(40):
            ctx = random_context(rng)
            br = brute_of(ctx)
            obj = brute_obj(ctx)
            boxes = list(ctx.placed_boxes)
            for side in Side:
                cand = br.free_side_cells(boxes, boxes[0], side.value)
                got = feasible_primary_starts(ctx, side)
                assert got == br.primary_starts(obj, side.value, cand, boxes), side
                for p0 in range(max(ctx.grid.cols, ctx.grid.rows)):
                    want2 = br.secondary_starts(obj, side.value, cand, p0, boxes)
                    assert feasible_secondary_starts(ctx, side, p0) == want2

    def test_policy_legality_equals_engine_acceptance(self):
        from treelayout.grid import candidate_cells
        from treelayout.model import effective_aabb
        from treelayout.oracle.policy import object_spans, pose_from_starts

        rng = random.Random(57)
        checked = rejected = 0
        for _ in range(40):
            ctx = random_context(rng)
            grid = ctx.grid
            a = ctx.anchor.aabb(ctx.anchor_dims)
            by_side = candidate_cells(grid, a)
            for side in Side:
                assert by_side[side] == brute_side_cells(
                    grid.cols, grid.rows, units(grid.cell_size), list(grid.codes), side.value,
                    (a.x0, a.y0, a.x1, a.y1),
                )
                cand = set(by_side[side])
                m_cols, m_rows = object_spans(ctx, side)
                reported = set()
                for p0 in range(grid.cols if side.horizontal else grid.rows):
                    for s0 in feasible_secondary_starts(ctx, side, p0):
                        reported.add((p0, s0) if side.horizontal else (s0, p0))
                for c0 in range(grid.cols - m_cols + 1):
                    for r0 in range(grid.rows - m_rows + 1):
                        covered = all(
                            grid.index(r, c) in cand
                            for r in range(r0, r0 + m_rows) for c in range(c0, c0 + m_cols)
                        )
                        if not covered:
                            assert (c0, r0) not in reported
                            continue
                        cx, cy, yaw = pose_from_starts(ctx, side, c0, r0)
                        box = effective_aabb(ctx.object_dims, yaw, (cx, cy))
                        # the final check of the search, at the pair the pose comes from
                        ok = ctx.lattice(m_cols, m_rows, yaw.swaps_extents).verdict(c0, r0) is None
                        assert ok == reference_legal(ctx, *box), (side, c0, r0)
                        assert ok == ((c0, r0) in reported), (side, c0, r0)
                        checked += 1
                        rejected += not ok
        assert checked > 0 and rejected > 0


class TestContextLegality:
    """``_Lattice.verdict``, the final check of every completed pose, on a
    lattice of probe centres, against the brute-force ``pose_legal``."""

    @staticmethod
    def probe_centres(extent, half, edges, rng):
        """Centre coordinates in meters that put the box flush with a wall
        or touching an edge of a placed box, each also 1e-12 either way
        (far below the 0.01 mm unit, so the box is the same), plus random
        ones."""
        out = set()
        for v in (half, extent - half, *(e + d for e in edges for d in (-half, half))):
            v = round(v, 4)
            out.update((v, v - 1e-12, v + 1e-12))
        out.update(round(rng.uniform(0, extent), 4) for _ in range(3))
        return sorted(out)

    def test_legal_matches_brute_force(self):
        from itertools import product

        from treelayout.model import effective_aabb
        from treelayout.oracle.queries import _Lattice

        rng = random.Random(71)
        seen = {"bounds": 0, "overlap": 0, "relation": 0, None: 0}
        flush_legal = 0
        for _ in range(40):
            ctx = random_context(rng)
            before = (hash(ctx), ctx.canonical_text())
            br = brute_of(ctx)
            obj = brute_obj(ctx)
            boxes = list(ctx.placed_boxes)
            for yaw in Yaw:
                ex, ey = extents(ctx.object_dims, yaw)
                xs = self.probe_centres(ctx.region_length, ex / 2,
                                        [e / 1e5 for b in boxes for e in (b[0], b[2])], rng)
                ys = self.probe_centres(ctx.region_width, ey / 2,
                                        [e / 1e5 for b in boxes for e in (b[1], b[3])], rng)
                centres = list(product(xs, ys))
                # the probes in units; the 1e-12 variants share a centre.  The
                # verdict reads the centres alone, so the lattice may hold more
                # of them along x than a row of its ``clear`` mask has bits.
                ux, uy = sorted({units(x) for x in xs}), sorted({units(y) for y in ys})
                lattice = _Lattice(ctx, tuple(ux), tuple(uy), yaw.swaps_extents)
                for cx, cy in rng.sample(centres, min(len(centres), 150)):
                    box = effective_aabb(ctx.object_dims, yaw, (cx, cy))
                    rect = (box.x0, box.y0, box.x1, box.y1)
                    c0, r0 = ux.index(units(cx)), uy.index(units(cy))
                    assert rect == (ux[c0] - lattice.hx, uy[r0] - lattice.hy,
                                    ux[c0] + lattice.hx, uy[r0] + lattice.hy)
                    want = br.pose_legal(obj, "right", cx, cy, yaw.value, boxes)
                    reason = lattice.verdict(c0, r0)
                    assert (reason is None) == want, (rect, yaw)
                    if reason == "bounds":
                        assert not br.in_bounds(rect)
                    elif reason == "overlap":
                        assert br.in_bounds(rect) and br.overlaps_any(rect, boxes)
                    elif reason == "relation":
                        assert br.in_bounds(rect) and not br.overlaps_any(rect, boxes)
                    seen[reason] += 1
                    flush_legal += want and (
                        box.x0 == 0 or box.x1 == units(ctx.region_length)
                        or box.y0 == 0 or box.y1 == units(ctx.region_width)
                        or any(box.x0 == b[2] or box.x1 == b[0] or box.y0 == b[3]
                               or box.y1 == b[1] for b in boxes)
                    )
            assert (hash(ctx), ctx.canonical_text()) == before
        assert min(seen.values()) > 0 and flush_legal > 0, (seen, flush_legal)


def reference_legal(ctx, x0, y0, x1, y1):
    """The per-pose check written out once more, one box at a time and in
    exact arithmetic on units: the bounds test, the relation test with
    rational centres and squared distances, and the overlap scan by
    intersection area."""
    from fractions import Fraction

    if not (x0 >= 0 and y0 >= 0
            and x1 <= units(ctx.region_length) and y1 <= units(ctx.region_width)):
        return False
    rel = ctx.relation
    if rel is not None:
        a = ctx.anchor.aabb(ctx.anchor_dims)
        dx = Fraction(x0 + x1, 2) - units(ctx.anchor.x)
        dy = Fraction(y0 + y1, 2) - units(ctx.anchor.y)
        fx, fy = ctx.anchor.yaw.facing
        along = dx * fx + dy * fy
        perp = dx * fy - dy * fx
        gap2 = max(x0 - a.x1, a.x0 - x1, 0) ** 2 + max(y0 - a.y1, a.y0 - y1, 0) ** 2
        if rel is SpatialRelation.PLACE_AROUND:
            ok = dx * dx + dy * dy <= units(ctx.d_around) ** 2
        elif rel is SpatialRelation.PLACE_FRONT:
            facing_edge = a.x1 - a.x0 if fy != 0 else a.y1 - a.y0
            ok = (along > 0 and abs(perp) <= Fraction(facing_edge, 2)
                  and gap2 <= units(ctx.d_front) ** 2)
        else:
            ok = abs(perp) >= abs(along) and perp != 0 and gap2 <= units(ctx.d_beside) ** 2
        if not ok:
            return False
    for bx0, by0, bx1, by1 in ctx.placed_boxes:
        w = min(x1, bx1) - max(x0, bx0)
        h = min(y1, by1) - max(y0, by0)
        if w > 0 and h > 0:
            return False
    return True


def mask_context(rng):
    """A random context for the row-mask checks: a floor region at cell
    0.25 or a supporter top at 0.05, with extents on and off cell
    boundaries, any relation (or the facing question) and any orientation
    rule, and up to three blockers, each placed flush against the box of
    some cell centre or run centre so that edges touch exactly."""
    from treelayout.oracle.policy import run_center

    cell = rng.choice([0.25, 0.05])
    if cell == 0.25:
        length, width = rng.choice([2.0, 3.0, 2.9]), rng.choice([1.5, 2.0, 1.85])
        anchor_dims = Dim3(1.0, 0.5, 0.5)
        object_dims = Dim3(rng.choice([0.4, 0.5, 1.0]), rng.choice([0.4, 0.5]), 0.5)
        blocker_sizes = (0.25, 0.3, 0.5)
    else:
        length, width = rng.choice([0.8, 1.2, 0.85]), rng.choice([0.4, 0.5, 0.45])
        anchor_dims = Dim3(0.3, 0.2, 0.3)
        object_dims = Dim3(rng.choice([0.1, 0.15, 0.2]), rng.choice([0.1, 0.15]), 0.1)
        blocker_sizes = (0.05, 0.1, 0.15)
    anchor_yaw = rng.choice(list(Yaw))
    a0x, a0y = extents(anchor_dims, anchor_yaw)
    if rng.random() < 0.2:
        relation, orientation = None, None
    else:
        relation = rng.choice(list(SpatialRelation))
        orientation = rng.choice(list(OrientationRule))
    extra = []
    for _ in range(rng.randint(0, 3)):
        bw, bh = rng.choice(blocker_sizes), rng.choice(blocker_sizes)
        half = rng.choice([object_dims.length, object_dims.depth]) / 2.0
        span = rng.randint(1, 4)
        # A cell centre or a run centre, and the far or near edge of the
        # object's box there; the blocker starts or ends on that edge.
        centre = rng.choice([(rng.randrange(12) + 0.5) * cell, run_center(rng.randrange(12), span, cell)])
        edge = centre + half if rng.random() < 0.5 else centre - half
        lo = edge if rng.random() < 0.5 else edge - (bw if rng.random() < 0.5 else bh)
        if rng.random() < 0.5:
            pos = (round(lo + bw / 2.0, 4), _inside(rng, width, bh))
        else:
            pos = (_inside(rng, length, bw), round(lo + bh / 2.0, 4))
        if bw / 2 <= pos[0] <= length - bw / 2 and bh / 2 <= pos[1] <= width - bh / 2:
            extra.append((Dim3(bw, bh, 0.5), pos, Yaw.DEG_0))
    return make_context(
        region_length=length, region_width=width, cell=cell,
        anchor_dims=anchor_dims,
        anchor_pos=(_inside(rng, length, a0x), _inside(rng, width, a0y)),
        anchor_yaw=anchor_yaw, object_dims=object_dims,
        relation=relation, orientation=orientation, extra_placed=tuple(extra),
    )


class TestRowMasks:
    """The det policy's bitmasks against per-pose legality and the
    brute-force covered test."""

    def test_lattices_equal_rejection_at_run_centres(self):
        # The one legality engine on every lattice of run centres
        # (feasibility sets), for both extent swaps: its masks bit for bit
        # against its verdict at each pair (the search's final check) and
        # the reference.
        from treelayout.oracle.policy import object_spans, run_center

        rng = random.Random(2024)
        kinds, counts = set(), {True: 0, False: 0, "touching": 0}
        for _ in range(80):
            ctx = mask_context(rng)
            grid = ctx.grid
            s, stride = grid.cell_size, grid.stride
            kinds.update({("relation", ctx.relation), ("rule", ctx.orientation_rule),
                          ("cell", s), ("blockers", len(ctx.placed_boxes) > 1),
                          ("on boundary", (ctx.region_length / s).is_integer())})
            # (lattice, its x centres, its y centres, swap), centres in units
            # as pose_from_starts gives them
            lattices = []
            for m_cols, m_rows in {object_spans(ctx, side) for side in Side}:
                runs = (tuple(units(run_center(c0, m_cols, s)) for c0 in range(grid.cols - m_cols + 1)),
                        tuple(units(run_center(r0, m_rows, s)) for r0 in range(grid.rows - m_rows + 1)))
                lattices += [(ctx.lattice(m_cols, m_rows, swap), *runs, swap) for swap in (False, True)]
            d = ctx.object_dims
            half_l, half_d = units(d.length) // 2, units(d.depth) // 2
            for lattice, xs, ys, swap in lattices:
                hx, hy = (half_d, half_l) if swap else (half_l, half_d)
                assert (lattice.xs, lattice.ys, lattice.hx, lattice.hy) == (xs, ys, hx, hy)
                assert lattice.clear >> len(ys) * stride == 0
                rows = [lattice.clear >> r * stride & (1 << stride) - 1 for r in range(len(ys))]
                got = [lattice.related(r, row) for r, row in enumerate(rows)]
                for r, cy in enumerate(ys):
                    assert rows[r] >> len(xs) == 0
                    for c, cx in enumerate(xs):
                        x0, y0, x1, y1 = cx - hx, cy - hy, cx + hx, cy + hy
                        reason = lattice.verdict(c, r)
                        want = reason is None
                        assert want == reference_legal(ctx, x0, y0, x1, y1)
                        assert bool(got[r] >> c & 1) == want, (ctx.canonical_text(), c, r)
                        # clear pairs pass bounds and overlap; it is cut to the
                        # relation's reach, so it is exact only without one
                        if rows[r] >> c & 1:
                            assert reason in (None, "relation")
                        if ctx.relation is None:
                            assert bool(rows[r] >> c & 1) == want
                        counts[want] += 1
                        counts["touching"] += want and any(
                            x1 == b[0] or x0 == b[2] or y1 == b[1] or y0 == b[3]
                            for b in ctx.placed_boxes[1:]
                        )
                # A narrower want only masks the answer.
                some = [rng.getrandbits(len(xs)) for _ in ys]
                assert [lattice.related(r, row & m) for r, (row, m) in enumerate(zip(rows, some))] \
                    == [g & m for g, m in zip(got, some)]
        assert kinds >= {("relation", r) for r in (None, *SpatialRelation)}
        assert kinds >= {("rule", r) for r in OrientationRule}
        assert kinds >= {("cell", 0.25), ("cell", 0.05), ("blockers", True),
                         ("on boundary", True), ("on boundary", False)}
        assert min(counts.values()) > 0, counts

    def test_covered_masks_match_brute_force(self):
        from treelayout.oracle.policy import object_spans

        rng = random.Random(2025)
        for _ in range(60):
            ctx = mask_context(rng)
            grid = ctx.grid
            br = brute_of(ctx)
            for side in Side:
                cand = set(ctx.candidates[side])
                m_cols, m_rows = object_spans(ctx, side)
                covered = _covered(ctx, side)
                assert len(covered) == max(0, grid.rows - m_rows + 1)
                for r0 in range(grid.rows):
                    for c0 in range(grid.cols):
                        bit = r0 < len(covered) and bool(covered[r0] >> c0 & 1)
                        assert bit == br.rect_cells_ok(cand, c0, m_cols, r0, m_rows), (side, c0, r0)


def aligned_contexts():
    """Contexts whose anchor is centred on run centres, so that centre
    offsets are exactly 0 and exactly the around distance on some rows
    and columns, with a blocker whose edges meet lattice boxes exactly."""
    blocker = ((Dim3(0.5, 0.25, 0.5), (3.25, 3.125), Yaw.DEG_0),)
    return [make_context(region_length=5.0, region_width=4.5, cell=0.25,
                         anchor_dims=Dim3(0.5, 0.5, 0.5), anchor_pos=pos, anchor_yaw=yaw,
                         object_dims=Dim3(size, size, 0.5), relation=relation,
                         orientation=OrientationRule.FACE_ANCHOR, extra_placed=extra)
            for relation in SpatialRelation for yaw in Yaw
            for pos, size in (((2.5, 2.0), 0.5), ((2.375, 1.875), 0.25))
            for extra in ((), blocker)]


class TestFeasibilitySets:
    """``SpatialContext.feasible`` and the search's forward check against
    the brute-force enumeration of every parseable pair of run replies:
    a side is called dead only when no such pair would be accepted."""

    @staticmethod
    def pairs(ctx, side):
        stride = ctx.grid.stride
        return {(c0, r0) for r0, m in enumerate(ctx.feasible(side)) for c0 in range(stride)
                if m >> c0 & 1}

    def assert_verdicts_match(self, ctx, side, br, obj):
        """At every nameable pair, the search's final check (the verdict
        at the pair the pose comes from) passes exactly on the
        feasibility set.  Returns the verdicts seen."""
        from treelayout.oracle.policy import object_spans, pose_from_starts

        m_cols, m_rows = object_spans(ctx, side)
        feasible = self.pairs(ctx, side)
        named = br.named_pairs(obj, side.value, list(ctx.placed_boxes))
        assert feasible <= named
        seen = set()
        for c0, r0 in named:
            yaw = pose_from_starts(ctx, side, c0, r0)[2]
            verdict = ctx.lattice(m_cols, m_rows, yaw.swaps_extents).verdict(c0, r0)
            assert (verdict is None) == ((c0, r0) in feasible), (side, c0, r0, verdict)
            seen.add(verdict)
        return seen

    @given(seed=st.integers(0, 2**32 - 1), excluded_share=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    @example(seed=0, excluded_share=1.0)
    def test_dead_only_when_no_reply_pair_is_accepted(self, seed, excluded_share):
        from treelayout.search import _live

        rng = random.Random(seed)
        ctx = mask_context(rng)
        br = brute_of(ctx)
        obj = brute_obj(ctx)
        for side in Side:
            want = br.accepted_pairs(obj, side.value, list(ctx.placed_boxes))
            assert self.pairs(ctx, side) == want, side
            self.assert_verdicts_match(ctx, side, br, obj)
            # excluded poses are keyed (side, primary start, secondary start)
            gone = {pair for pair in sorted(want) if rng.random() < excluded_share}
            excluded = {(side.value, *(pair if side.horizontal else pair[::-1])) for pair in gone}
            excluded.add((next(s for s in Side if s is not side).value, 0, 0))
            fresh = replace(ctx)  # the check first, with no set built yet
            assert _live(fresh, side, excluded) == bool(want - gone), side
            assert _live(ctx, side, excluded) == bool(want - gone), side

    def test_feasible_at_exact_boundaries(self):
        seen = set()
        for ctx in aligned_contexts():
            br = brute_of(ctx)
            obj = brute_obj(ctx)
            for side in Side:
                want = br.accepted_pairs(obj, side.value, list(ctx.placed_boxes))
                assert self.pairs(ctx, side) == want, (ctx.relation, ctx.anchor, side)
                seen |= self.assert_verdicts_match(ctx, side, br, obj)
        assert seen == {None, "overlap", "relation"}  # square objects: no pose leaves the region

    def test_relation_ranges_equal_relation_rows(self):
        # the relation term as index ranges per row start, against the
        # scalar predicate the output check reads, built from the
        # context's anchor, dims and thresholds, on every lattice and swap
        from treelayout.grid import relation_satisfied
        from treelayout.model import AABB

        rng = random.Random(11)
        held = missed = 0
        for ctx in aligned_contexts() + [mask_context(rng) for _ in range(120)]:
            if ctx.relation is None:
                continue
            for m_cols, m_rows, _swap in set(ctx.side_shapes.values()):
                for swap in (False, True):
                    lattice = ctx.lattice(m_cols, m_rows, swap)
                    hx, hy = ctx.half_extents(swap)
                    full = (1 << len(lattice.xs)) - 1
                    want = [sum(relation_satisfied(ctx.relation, AABB(x - hx, y - hy, x + hx, y + hy),
                                                   ctx.anchor, ctx.anchor_dims, ctx.d_front,
                                                   ctx.d_beside, ctx.d_around) << c0
                                for c0, x in enumerate(lattice.xs))
                            for y in lattice.ys]
                    got = [lattice.related(r0, full) for r0 in range(len(lattice.ys))]
                    assert got == want, (ctx.relation, ctx.anchor, swap)
                    held += sum(m.bit_count() for m in want)
                    missed += sum((full & ~m).bit_count() for m in want)
        assert held > 0 and missed > 0

    def test_completions_are_feasible_pairs_that_cover_candidates(self):
        rng = random.Random(77)
        for _ in range(40):
            ctx = mask_context(rng)
            br, obj, boxes = brute_of(ctx), brute_obj(ctx), list(ctx.placed_boxes)
            for side in Side:
                cand = set(ctx.candidates[side])
                m_cols, m_rows = ctx.side_shapes[side][:2]
                want = {(c0, r0) for c0, r0 in br.accepted_pairs(obj, side.value, boxes)
                        if br.rect_cells_ok(cand, c0, m_cols, r0, m_rows)}
                got = {(c0, r0) for r0, m in enumerate(_completion(ctx, side))
                       for c0 in range(m.bit_length()) if m >> c0 & 1}
                assert got == want, (ctx.canonical_text(), side)

    def test_candidate_masks_hold_the_candidate_cells(self):
        rng = random.Random(5)
        for _ in range(60):
            ctx = random_context(rng)
            grid = ctx.grid
            cols, stride = grid.cols, grid.stride
            for side in Side:
                flat = ctx.candidate_flat[side]
                assert flat >> grid.rows * stride == 0
                assert all(flat >> r * stride >> cols & (1 << stride - cols) - 1 == 0
                           for r in range(grid.rows))
                got = [r * cols + c for r in range(grid.rows) for c in range(cols)
                       if flat >> r * stride + c & 1]
                assert got == ctx.candidates[side]


class StepOracle(PlacementOracle):
    """Answers the local steps of one context at random from the
    forced-step mirror and logs them: a side question gets a live side it
    does not avoid, an eval "yes" or "no", and a run question a live start
    it does not avoid or, now and then, text that names no cell.  A
    question with fewer than two live answers fails the test."""

    io_bound = False

    def __init__(self, steps: ForcedSteps, rng: random.Random):
        self.steps, self.rng, self.log = steps, rng, []

    def query(self, q):
        if isinstance(q, SideQuery):
            answers = self.steps.sides(q.avoid)
            assert len(answers) >= 2, ("side", q.avoid, answers)
            side = self.rng.choice(sorted(answers))
            self.log.append(("side", set(q.avoid), side))
            return OracleReply(side)
        if isinstance(q, SideEvalQuery):
            yes = self.rng.random() < 0.7
            self.log.append(("eval", q.side.value, yes))
            return OracleReply("yes" if yes else "no")
        assert isinstance(q, CellsQuery)
        side = q.side.value
        if q.primary_run:
            answers = self.steps.secondaries(side, q.primary_run[0], q.avoid)
        else:
            answers = self.steps.primaries(side, q.avoid)
        assert len(answers) >= 2, (side, q.primary_run, q.avoid, answers)
        start = None if self.rng.random() < 0.2 else self.rng.choice(sorted(answers))
        self.log.append(("cells", q.primary_run, set(q.avoid), start))
        if start is None:
            return OracleReply("nothing")
        grid = q.context.grid
        axis_of = grid.col_of if q.axis == "cols" else grid.row_of
        return OracleReply(" ".join(
            next(name for idx, name in q.emap.entries.items() if axis_of(idx) == i)
            for i in range(start, start + q.expected_count)))


def mirror_local_search(steps: ForcedSteps, log, k_side: int, k_axis: int, axes):
    """Replay a :class:`StepOracle` log through the forced-step mirror.

    A step with one live answer must have no question in the log, and
    the search must go on with that answer; a step with more must have
    one, avoiding the answers tried (and a side question the sides with
    no live answer too); a step with none ends.  Returns the
    thought the search must return, as (side, primary start, secondary
    start, forced steps) or None, and the count of forced steps."""
    log = list(log)

    def take(kind):
        assert log and log[0][0] == kind, (kind, log[:1])
        return log.pop(0)[1:]

    def step(answer, forced, name, kind, primary_run, tried):
        """The step's answer (None: none usable), from the mirror or the log."""
        if answer is ASK:
            run, avoid, answer = take(kind)
            assert run == primary_run and avoid >= set(tried)
        else:
            forced.append(name)
        return answer

    count = 0
    tried_sides: list[str] = []
    for _ in range(k_side):
        side = steps.side(tried_sides)
        if side is None:
            break
        forced: list[str] = []
        if side is ASK:
            avoid, side = take("side")
            assert avoid == set(tried_sides) | steps.dead_sides()
        else:
            forced.append("side")
        eval_side, yes = take("eval")
        assert eval_side == side
        tried_sides.append(side)
        count += len(forced)
        if not yes:
            continue
        tried_p: list[int] = []
        for _ in range(k_axis):
            p = steps.primary(side, tried_p)
            if p is None:
                break
            p_forced: list[str] = []
            p = step(p, p_forced, axes[side][0], "cells", (), tried_p)
            count += len(p_forced)
            if p is None:
                continue
            tried_p.append(p)
            tried_s: list[int] = []
            for _ in range(k_axis):
                s = steps.secondary(side, p, tried_s)
                if s is None:
                    break
                s_forced: list[str] = []
                s = step(s, s_forced, axes[side][1], "cells", (p,), tried_s)
                count += len(s_forced)
                if s is None:
                    continue
                assert not log, log
                return (side, p, s, tuple(forced + p_forced + s_forced)), count
    assert not log, log
    return None, count


class TestForcedSteps:
    """The referee of the forced steps: over random contexts and excluded
    poses, ``local_place`` asks a question exactly when the brute-force
    mirror (:class:`ForcedSteps`, built from ``accepted_pairs``) leaves two
    live answers or more, goes on with the only one when it leaves one,
    and ends the step when it leaves none."""

    @given(seed=st.integers(0, 2**32 - 1), excluded_share=st.sampled_from([0.0, 0.3, 0.9]))
    @settings(max_examples=80, deadline=None)
    def test_asks_exactly_the_steps_with_two_live_answers(self, seed, excluded_share):
        from treelayout.model import SearchConfig, SearchTrace
        from treelayout.oracle.base import OracleSession
        from treelayout.search import GlobalState, local_place

        rng = random.Random(seed)
        ctx = mask_context(rng)
        br, obj = brute_of(ctx), brute_obj(ctx)
        placed = list(ctx.placed_boxes)
        everything = ForcedSteps(br, obj, placed, set())
        excluded = {(side, *pair) for side, pairs in everything.live.items()
                    for pair in sorted(pairs) if rng.random() < excluded_share}
        steps = ForcedSteps(br, obj, placed, excluded)
        config = SearchConfig(k_local_side=4, k_local_axis=2)
        oracle = StepOracle(steps, rng)
        state = GlobalState(region=None, order=[], config=config,
                            session=OracleSession(oracle, SearchTrace()), scope=ctx.scope,
                            wall_sides=frozenset(), cell_size=ctx.grid.cell_size)
        spec = ObjectSpec(ctx.object_id, "obj", ctx.object_dims)
        thought, _ = local_place(spec, ctx, state, excluded, 1, 1, 2)
        axes = {side.value: ("cols", "rows") if side.horizontal else ("rows", "cols")
                for side in Side}
        want, forced = mirror_local_search(steps, oracle.log, config.k_local_side,
                                           config.k_local_axis, axes)
        assert sum(state.session.trace.forced_steps.values()) == forced
        if want is None:
            assert thought is None
            return
        side, p, s, steps_forced = want
        c0, r0 = (p, s) if side in ("left", "right") else (s, p)
        cx, cy, yaw = thought.pose
        assert (thought.side.value, (cx, cy, yaw.value)) == (side, br.pose_of(obj, side, c0, r0))
        assert thought.forced == steps_forced


class AvoidLogOracle(PlacementOracle):
    """Answers side questions with a random side, now and then one the
    question says not to answer or text that names none, and evals and
    run questions at random too.  It keeps the sides the search has
    tried, as the search keeps them (starting from ``tried``): a reply
    that names a side not tried yet, and the side of an eval asked
    without a side question before it (a forced side).  For each side
    question it logs the avoided sides and the sides tried when asked."""

    io_bound = False

    def __init__(self, rng: random.Random, tried=()):
        self.rng, self.tried, self.log = rng, list(tried), []

    def query(self, q):
        if isinstance(q, SideQuery):
            self.log.append((set(q.avoid), set(self.tried)))
            pick = self.rng.random()
            if pick < 0.1:
                return OracleReply("somewhere")
            sides = [s.value for s in Side]
            if pick > 0.3:
                sides = [s for s in sides if s not in q.avoid] or sides
            side = self.rng.choice(sides)
            if side not in self.tried:
                self.tried.append(side)
            return OracleReply(side)
        if isinstance(q, SideEvalQuery):
            if q.side.value not in self.tried:
                self.tried.append(q.side.value)
            return OracleReply("yes" if self.rng.random() < 0.7 else "no")
        return OracleReply("nothing")


class TestDeadOptionsAvoided:
    """The referee of what an asked side question tells the oracle not to
    answer: the answers already tried, and every answer the brute-force
    mirror finds dead.  A side is dead when ``accepted_pairs`` leaves it
    no pair outside the excluded poses; a facing of a centred anchor is
    dead when its box at the centroid leaves the region."""

    @given(seed=st.integers(0, 2**32 - 1), excluded_share=st.sampled_from([0.0, 0.3, 0.9]))
    @settings(max_examples=80, deadline=None)
    def test_side_question_avoids_tried_and_dead_sides(self, seed, excluded_share):
        from treelayout.model import SearchConfig, SearchTrace
        from treelayout.oracle.base import OracleSession
        from treelayout.search import GlobalState, local_place

        rng = random.Random(seed)
        ctx = mask_context(rng)
        br, obj = brute_of(ctx), brute_obj(ctx)
        placed = list(ctx.placed_boxes)
        everything = ForcedSteps(br, obj, placed, set())
        excluded = {(side, *pair) for side, pairs in everything.live.items()
                    for pair in sorted(pairs) if rng.random() < excluded_share}
        dead = ForcedSteps(br, obj, placed, excluded).dead_sides()
        oracle = AvoidLogOracle(rng)
        state = GlobalState(region=None, order=[], config=SearchConfig(k_local_side=4),
                            session=OracleSession(oracle, SearchTrace()), scope=ctx.scope,
                            wall_sides=frozenset(), cell_size=ctx.grid.cell_size)
        spec = ObjectSpec(ctx.object_id, "obj", ctx.object_dims)
        thought, notes = local_place(spec, ctx, state, excluded, 1, 1, 2)
        for avoid, tried in oracle.log:
            assert avoid == tried | dead, (avoid, tried, dead)
        # a reply that names a dead side anyway spends its attempt (the
        # notes of a search that places the object are not returned)
        for side in dead & set(oracle.tried) if thought is None else ():
            assert f"{side}: no feasible pose" in notes.split("; ")

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_facing_question_avoids_tried_and_unfitting_facings(self, seed):
        from bruteforce import rect_at
        from treelayout.grid import AABB
        from treelayout.model import SearchConfig, SearchTrace, effective_aabb, q4
        from treelayout.oracle.base import OracleSession
        from treelayout.search import GlobalState, layer_order, place_anchor_visit

        rng = random.Random(seed)
        cell, scale = rng.choice([(0.25, 1.0), (0.05, 0.2)])  # a floor region or a top
        length = round(rng.choice([2.0, 3.0, 3.5]) * scale, 4)
        width = round(rng.choice([1.0, 1.5, 2.0]) * scale, 4)
        dims = Dim3(round(rng.choice([0.8, 1.2, 1.8, 2.5, 3.2]) * scale, 4),
                    round(rng.choice([0.5, 0.9, 1.4, 2.2]) * scale, 4), 0.5)
        region = RegionPlan(id="r1", function="test", length=length, width=width,
                            objects=(ObjectSpec("anchor_1", "obj", dims),), anchor_id="anchor_1",
                            anchor_rule=AnchorRule.IN_CENTER, edges=())
        cx, cy = q4(length / 2), q4(width / 2)
        used = {(side.value, side.facing_yaw.value): (cx, cy, side.facing_yaw)
                for side in Side if rng.random() < 0.3}
        faced = {name for name, _ in used}
        oracle = AvoidLogOracle(rng, tried=faced)
        trace = SearchTrace()
        state = GlobalState(region=region, order=layer_order(region),
                            config=SearchConfig(cell_size=cell),
                            session=OracleSession(oracle, trace), scope="r1",
                            wall_sides=frozenset(Side), cell_size=cell)
        result = place_anchor_visit(state, 1, used)

        br = BruteRegion(length, width, cell, "place_in_center",
                         [{"length": dims.length, "depth": dims.depth,
                           "relation": None, "orientation": None}])
        bounds = AABB(0, 0, units(length), units(width))
        fits = {}
        for side in Side:
            yaw = side.facing_yaw
            fits[side.value] = br.in_bounds(rect_at(dims.length, dims.depth, yaw.value, cx, cy))
            assert fits[side.value] == bounds.contains(effective_aabb(dims, yaw, (cx, cy)))
        unfit = {name for name, ok in fits.items() if not ok}
        for avoid, tried in oracle.log:
            assert avoid == tried | unfit, (avoid, tried, unfit)
        live = set(fits) - unfit - faced
        if len(live) < 2:  # taken unasked, or no facing left
            assert oracle.log == []
            assert (result[1][0] if result else None) == (live.pop() if live else None)
        else:
            assert oracle.log
        # a reply that names an unfitting facing anyway spends its attempt
        rejected = {e.note for e in trace.events if e.kind is EventKind.REJECTED}
        for name in unfit & (set(oracle.tried) - faced):
            assert f"anchor does not fit on {name}" in rejected


class TestDeterministicOracleReplies:
    def test_side_reply_and_eval(self):
        ctx = make_context()
        oracle = DeterministicOracle(seed=0)
        grid_text = serialize_grid_prompt(ctx.grid, assign_emojis([], VOCAB))
        side_reply = oracle.query(SideQuery(grid_prompt=grid_text, context=ctx)).text
        assert side_reply in ("left", "right", "top", "bottom")
        ev = oracle.query(
            SideEvalQuery(grid_prompt=grid_text, context=ctx, side=Side(side_reply))
        ).text
        assert ev.startswith("yes")

    def test_side_eval_no_for_empty_side(self):
        # anchor spans the full width: no cells above it
        ctx = make_context(
            region_length=2.0, region_width=1.0,
            anchor_dims=Dim3(2.0, 1.0, 0.5), anchor_pos=(1.0, 0.5),
        )
        oracle = DeterministicOracle(seed=0)
        ev = oracle.query(SideEvalQuery(grid_prompt="g", context=ctx, side=Side.TOP)).text
        assert ev.startswith("no")

    def test_cells_reply_names_parseable(self):
        from treelayout.grid import candidate_cells, contiguous_axis_run, parse_emoji_selection
        from treelayout.oracle.policy import object_spans

        ctx = make_context(cell=0.25, object_dims=Dim3(0.5, 0.5, 0.5))
        oracle = DeterministicOracle(seed=0)
        side = Side.RIGHT
        anchor_box = ctx.anchor.aabb(ctx.anchor_dims)
        cand = candidate_cells(ctx.grid, anchor_box)[side]
        emap = assign_emojis(cand, VOCAB)
        m_cols, _ = object_spans(ctx, side)
        reply = oracle.query(
            CellsQuery(
                grid_prompt="g", context=ctx, emap=emap, expected_count=m_cols,
                axis="cols", side=side,
            )
        ).text
        cells = parse_emoji_selection(reply, emap, m_cols)
        run = contiguous_axis_run(ctx.grid, cells, "cols")
        assert len(run) == m_cols

    def test_run_names_take_first_named_cell_per_index(self):
        rng = random.Random(21)
        oracle = DeterministicOracle(seed=0)
        ctx = make_context(cell=0.25)
        grid = ctx.grid
        n = grid.cols * grid.rows
        for _ in range(200):
            emap = assign_emojis(rng.sample(range(n), rng.randint(1, n)), VOCAB)
            axis = rng.choice(["cols", "rows"])
            axis_of = grid.col_of if axis == "cols" else grid.row_of
            count = rng.randint(1, 3)
            start = rng.randint(0, (grid.cols if axis == "cols" else grid.rows) - 1)
            want = []
            for i in range(start, start + count):
                named = [name for idx, name in sorted(emap.entries.items()) if axis_of(idx) == i]
                if not named:
                    want = None
                    break
                want.append(named[0])
            q = CellsQuery(grid_prompt="g", context=ctx, emap=emap, expected_count=count, axis=axis)
            assert oracle._run_names(q, start) == want

    def test_no_legal_option_reply(self):
        ctx = make_context(
            region_length=1.0, region_width=0.5,
            anchor_dims=Dim3(1.0, 0.5, 0.5), anchor_pos=(0.5, 0.25),
            object_dims=Dim3(0.5, 0.5, 0.5),
        )
        oracle = DeterministicOracle(seed=0)
        assert oracle.query(SideQuery(grid_prompt="g", context=ctx)).text == NO_LEGAL_OPTION

    def test_identical_query_identical_reply_across_processes(self):
        code = (
            "from treelayout.oracle.deterministic import DeterministicOracle\n"
            "from treelayout.oracle.queries import RoomQuery\n"
            "print(DeterministicOracle(seed=5).query(RoomQuery('a large bedroom')).text)\n"
        )
        outs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            ).stdout
            for _ in range(2)
        }
        assert len(outs) == 1
        local = DeterministicOracle(seed=5).query(RoomQuery("a large bedroom")).text
        assert outs == {local + "\n"}

    def test_adversarial_knob_all_adversarial(self):
        ctx = make_context(relation=SpatialRelation.PLACE_AROUND)
        always = DeterministicOracle(seed=0, p_adv=1.0)
        grid_text = "g"
        reply = always.query(SideQuery(grid_prompt=grid_text, context=ctx)).text
        scores = side_scores(ctx)
        legal = {s: v for s, v in scores.items() if v > 0}
        assert scores[Side(reply)] == min(legal.values())


class TestTemplates:
    def test_side_prompt_contains_four_options(self):
        ctx = make_context()
        messages = render_prompt_templates(SideQuery(grid_prompt="G", context=ctx))
        user = messages[1]["content"]
        for side in ("left", "right", "top", "bottom"):
            assert side in user

    def test_cells_prompt_states_column_count(self):
        ctx = make_context()
        emap = assign_emojis([0, 1], VOCAB)
        messages = render_prompt_templates(
            CellsQuery(grid_prompt="G", context=ctx, emap=emap, expected_count=2, axis="cols")
        )
        assert "occupies 2 columns" in messages[1]["content"]

    def test_room_prompt_requests_length_and_width(self):
        messages = render_prompt_templates(RoomQuery("a bedroom"))
        user = messages[1]["content"]
        assert "length" in user and "width" in user


class TestTranscripts:
    def ctx_query(self):
        return RoomQuery("a quiet bedroom", attempt=1)

    def test_record_then_replay(self):
        inner = DeterministicOracle(seed=3)
        rec = RecordingOracle(inner, model_id="det", seed=3)
        q = self.ctx_query()
        reply = rec.query(q)
        replayer = ReplayOracle(rec.transcript)
        assert replayer.query(q).text == reply.text

    def test_one_fingerprint_per_query(self, monkeypatch):
        """Recording and replaying a det run hash each query once: the
        recording wrapper and the det oracle share the fingerprint, and
        every context renders its canonical text once."""
        from treelayout.model import SearchConfig
        from treelayout.oracle import queries
        from treelayout.pipeline import generate_scene

        hashed = []
        real_fingerprint = queries.fingerprint
        monkeypatch.setattr(queries, "fingerprint",
                            lambda q, v: hashed.append(q) or real_fingerprint(q, v))
        prompt = "A modern bedroom with a comfortable queen-sized bed"
        config = SearchConfig(seed=0, p_adv=0.35)
        rec = RecordingOracle(DeterministicOracle(seed=0, p_adv=0.35))
        scene = generate_scene(prompt, config, rec)
        calls = scene.trace.oracle_calls
        assert len(hashed) == calls == len(rec.transcript.records) > 0
        assert len({id(q) for q in hashed}) == calls
        contexts = {id(q.context): q.context for q in hashed if hasattr(q, "context")}
        assert contexts and all(c.canonical_text() is c.canonical_text() for c in contexts.values())

        hashed.clear()
        replayed = generate_scene(prompt, config, ReplayOracle(rec.transcript))
        assert len(hashed) == replayed.trace.oracle_calls == calls

    def test_duplicate_fingerprint_rejected_while_recording(self):
        rec = RecordingOracle(DeterministicOracle(seed=3))
        q = self.ctx_query()
        rec.query(q)
        with pytest.raises(ValueError):
            rec.query(q)

    def test_replay_miss(self):
        rec = RecordingOracle(DeterministicOracle(seed=3))
        rec.query(self.ctx_query())
        replayer = ReplayOracle(rec.transcript)
        with pytest.raises(FingerprintMiss):
            replayer.query(RoomQuery("a different prompt"))

    def test_file_roundtrip(self, tmp_path):
        rec = RecordingOracle(DeterministicOracle(seed=3), model_id="det", seed=3)
        q = self.ctx_query()
        reply = rec.query(q)
        path = tmp_path / "t.jsonl"
        rec.transcript.dump(path)
        loaded = Transcript.load(path)
        assert loaded.metadata["model"] == "det"
        assert ReplayOracle(loaded).query(q).text == reply.text

    @pytest.mark.parametrize("line", [
        "not json",
        "[1, 2]",
        '{"fp": "abc"}',
        '{"fp": "abc", "reply": 3}',
    ], ids=["not-json", "json-list", "no-reply", "reply-not-text"])
    def test_malformed_line_names_its_number(self, tmp_path, line):
        rec = RecordingOracle(DeterministicOracle(seed=3))
        rec.query(self.ctx_query())
        path = tmp_path / "t.jsonl"
        rec.transcript.dump(path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match="line 3"):
            Transcript.load(path)

    def test_template_version_mismatch(self, tmp_path):
        rec = RecordingOracle(DeterministicOracle(seed=3))
        rec.query(self.ctx_query())
        rec.transcript.metadata["template_version"] = "not-this-one"
        with pytest.raises(FingerprintMiss):
            ReplayOracle(rec.transcript)

    def test_fingerprint_depends_on_attempt_and_round(self):
        ctx = make_context()
        v = template_version()
        a = fingerprint(SideQuery(grid_prompt="G", context=ctx, attempt=1, round_no=1), v)
        b = fingerprint(SideQuery(grid_prompt="G", context=ctx, attempt=2, round_no=1), v)
        c = fingerprint(SideQuery(grid_prompt="G", context=ctx, attempt=1, round_no=2), v)
        assert len({a, b, c}) == 3


class TestLiveOracle:
    def setup_oracle(self, monkeypatch, responses, waits=None):
        """A live oracle whose transport pops ``(status, payload[, headers])``
        replies; its retry waits are appended to ``waits`` instead of slept,
        and the jitter draw is 0.25."""
        monkeypatch.setenv("TREELAYOUT_API_KEY", "k-test")
        calls = []

        class FakeResponse:
            def __init__(self, status, payload, headers=None):
                self.status_code = status
                self._payload = payload
                self.text = str(payload)
                self.headers = headers or {}

            def json(self):
                if isinstance(self._payload, Exception):
                    raise self._payload
                return self._payload

        def fake_post(url, headers=None, json=None, timeout=None):
            calls.append(json)
            return FakeResponse(*responses.pop(0))

        monkeypatch.setattr("requests.post", fake_post)
        monkeypatch.setattr(live, "sleep", (waits if waits is not None else []).append)
        monkeypatch.setattr(live, "random", lambda: 0.25)
        cfg = LiveConfig(endpoint="https://example.invalid/v1/chat", model="m-1")
        return LiveOracle(cfg), calls

    def ok_payload(self, text):
        return {"choices": [{"message": {"content": text}}]}

    def test_success(self, monkeypatch):
        oracle, calls = self.setup_oracle(monkeypatch, [(200, self.ok_payload("room_type: bedroom"))])
        reply = oracle.query(RoomQuery("a bedroom"))
        assert reply.text == "room_type: bedroom"
        assert calls[0]["model"] == "m-1"
        assert calls[0]["messages"][0]["role"] == "system"

    def test_one_retry_then_success(self, monkeypatch):
        oracle, calls = self.setup_oracle(
            monkeypatch, [(500, {}), (200, self.ok_payload("ok"))]
        )
        assert oracle.query(RoomQuery("a bedroom")).text == "ok"
        assert len(calls) == 2

    def test_failure_after_retry(self, monkeypatch):
        oracle, _ = self.setup_oracle(monkeypatch, [(500, {}), (502, {})])
        with pytest.raises(OracleFailure):
            oracle.query(RoomQuery("a bedroom"))

    def test_non_json_reply_retried_then_failure(self, monkeypatch):
        not_json = ValueError("Expecting value: line 1 column 1 (char 0)")
        oracle, calls = self.setup_oracle(monkeypatch, [(200, not_json), (200, not_json)])
        with pytest.raises(OracleFailure, match="not JSON"):
            oracle.query(RoomQuery("a bedroom"))
        assert len(calls) == 2

    def test_non_json_reply_then_success(self, monkeypatch):
        oracle, calls = self.setup_oracle(
            monkeypatch, [(200, ValueError("not json")), (200, self.ok_payload("ok"))]
        )
        assert oracle.query(RoomQuery("a bedroom")).text == "ok"
        assert len(calls) == 2

    def test_missing_key_is_failure(self, monkeypatch):
        monkeypatch.delenv("TREELAYOUT_API_KEY", raising=False)
        with pytest.raises(OracleFailure):
            LiveOracle(LiveConfig(endpoint="https://example.invalid", model="m"))

    def test_missing_requests_is_failure(self, monkeypatch):
        monkeypatch.setenv("TREELAYOUT_API_KEY", "k-test")
        monkeypatch.setitem(sys.modules, "requests", None)
        with pytest.raises(OracleFailure, match=r"pip install 'treelayout\[live\]'"):
            LiveOracle(LiveConfig(endpoint="https://example.invalid", model="m"))

    @pytest.mark.parametrize("status, headers, wait", [
        (500, {}, 0.25 * live.RETRY_JITTER_S),
        (500, {"Retry-After": "3"}, 0.25 * live.RETRY_JITTER_S),
        (429, {}, 0.25 * live.RETRY_JITTER_S),
        (429, {"Retry-After": "3"}, 3.0),
        (503, {"Retry-After": "0.5"}, 0.5),
        (503, {"Retry-After": "0"}, 0.0),
        (429, {"Retry-After": "3600"}, live.RETRY_MAX_WAIT_S),
        (429, {"Retry-After": "inf"}, live.RETRY_MAX_WAIT_S),
        (429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, 0.25 * live.RETRY_JITTER_S),
        (429, {"Retry-After": "-1"}, 0.25 * live.RETRY_JITTER_S),
        (503, {"Retry-After": "nan"}, 0.25 * live.RETRY_JITTER_S),
    ], ids=["500-jitter", "500-ignores-retry-after", "429-no-header", "429-retry-after",
            "503-fractional", "503-zero", "retry-after-capped", "retry-after-infinite",
            "http-date-jitter", "negative-jitter", "nan-jitter"])
    def test_waits_once_before_the_retry(self, monkeypatch, status, headers, wait):
        waits = []
        oracle, calls = self.setup_oracle(
            monkeypatch, [(status, {}, headers), (200, self.ok_payload("ok"))], waits
        )
        assert oracle.query(RoomQuery("a bedroom")).text == "ok"
        assert len(calls) == 2
        assert waits == [wait]

    def test_no_wait_without_a_retry(self, monkeypatch):
        waits = []
        oracle, _ = self.setup_oracle(monkeypatch, [(200, self.ok_payload("ok"))], waits)
        oracle.query(RoomQuery("a bedroom"))
        assert waits == []


class SlowOracle(PlacementOracle):
    """An I/O-bound stand-in: the det oracle behind a short sleep."""

    def __init__(self, delay_s=0.01):
        self.inner = DeterministicOracle(seed=3)
        self.delay_s = delay_s

    def query(self, q):
        time.sleep(self.delay_s)
        return self.inner.query(q)


class TestConcurrency:
    def test_concurrent_queries_match_serial(self):
        # replies are pure functions of (query, seed): hammering the det
        # oracle, and a replay of it, from many threads must reproduce the
        # serial answers, over every query kind of a full generation
        from concurrent.futures import ThreadPoolExecutor

        from treelayout.model import SearchConfig
        from treelayout.pipeline import generate_scene

        oracle = DeterministicOracle(seed=2, p_adv=0.35)
        ctx = make_context()
        queries = []
        for attempt in (1, 2):
            for round_no in (1, 2, 3):
                queries.append(
                    SideQuery(grid_prompt="G", context=ctx, attempt=attempt, round_no=round_no)
                )
        queries.append(RoomQuery("a large living room"))

        class Tap(PlacementOracle):
            io_bound = False

            def query(self, q):
                queries.append(q)
                return oracle.query(q)

        generate_scene("A cozy bedroom with a desk and a reading nook",
                       SearchConfig(seed=2, p_adv=0.35), Tap())
        assert {type(q).__name__ for q in queries} >= {
            "RoomQuery", "RegionQuery", "ObjectsQuery", "SupportedQuery",
            "SideQuery", "SideEvalQuery", "CellsQuery",
        }
        rec = RecordingOracle(oracle)
        serial = [rec.query(q).text for q in queries]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for answering in (oracle, ReplayOracle(rec.transcript)):
                    for _ in range(3):
                        futures = [pool.submit(answering.query, q) for q in queries]
                        assert [f.result(timeout=60).text for f in futures] == serial
        finally:
            sys.setswitchinterval(old)

    def test_io_bound_declared_per_oracle(self):
        det = DeterministicOracle(seed=0)
        assert not det.io_bound
        assert not ReplayOracle(Transcript()).io_bound
        assert not RecordingOracle(det).io_bound
        assert RecordingOracle(SlowOracle()).io_bound

    def test_recording_orders_records_by_call_path(self):
        # Subproblems finish in reverse order; the records must still come
        # out as a serial run makes the calls: the call before the group,
        # each subproblem's calls in list order, then the call after it.
        rec = RecordingOracle(SlowOracle(delay_s=0.0))
        before, after = RoomQuery("before"), RoomQuery("after")
        jobs = [[RoomQuery(f"job {j} call {k}") for k in range(3)] for j in range(4)]

        def run(j):
            time.sleep(0.005 * (len(jobs) - j))
            for q in jobs[j]:
                rec.query(q)

        rec.query(before)
        group = CALL_PATH.get().next_key()
        threads = []
        for j in range(len(jobs)):
            ctx = contextvars.copy_context()
            ctx.run(CALL_PATH.set, CallPath(group + (j,)))
            threads.append(threading.Thread(target=ctx.run, args=(run, j)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        rec.query(after)
        order = [before] + [q for calls in jobs for q in calls] + [after]
        v = template_version()
        assert [fp for fp, _ in rec.transcript.records] == [fingerprint(q, v) for q in order]

    def test_duplicate_fingerprint_from_two_threads_raises_once(self):
        rec = RecordingOracle(SlowOracle(delay_s=0.02))
        q = RoomQuery("a quiet bedroom")
        start = threading.Barrier(2)
        raised = []

        def call():
            start.wait(timeout=10)
            try:
                rec.query(q)
            except ValueError as exc:
                raised.append(exc)

        threads = [threading.Thread(target=call) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert len(raised) == 1 and "duplicate query fingerprint" in str(raised[0])
        assert len(rec.transcript.records) == 1

    def test_failed_call_releases_its_fingerprint(self):
        class Flaky(PlacementOracle):
            calls = 0

            def query(self, q):
                Flaky.calls += 1
                if Flaky.calls == 1:
                    raise OracleFailure("transport down")
                return OracleReply("room_type: bedroom")

        rec = RecordingOracle(Flaky())
        q = RoomQuery("a quiet bedroom")
        with pytest.raises(OracleFailure):
            rec.query(q)
        assert rec.query(q).text == "room_type: bedroom"
        assert len(rec.transcript.records) == 1

    def test_discard_removes_only_its_prefix_while_others_record(self):
        # The dropped group (1, 5) sits between kept keys that share its
        # first element, one of them nested deeper; four threads keep
        # recording under (2, j) while the group is discarded.
        rec = RecordingOracle(SlowOracle(delay_s=0.0))

        def ask(prefix, texts):
            ctx = contextvars.copy_context()
            ctx.run(CALL_PATH.set, CallPath(prefix))
            return [ctx.run(rec.query, RoomQuery(t)).text for t in texts]

        def calls(name, n):
            return [f"{name} call {k}" for k in range(n)]

        ask((1, 4), calls("before", 3))
        ask((1, 5), calls("dropped", 5))
        ask((1, 5, 0, 2), calls("dropped nested", 2))
        ask((1, 6), calls("after", 3))
        writers = {j: calls(f"writer {j}", 40) for j in range(4)}
        threads = [threading.Thread(target=ask, args=((2, j), writers[j])) for j in writers]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            rec.discard((1, 5))
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        kept = calls("before", 3) + calls("after", 3) + [c for j in range(4) for c in writers[j]]
        assert [fp for fp, _ in rec.transcript.records] == [RoomQuery(t).fp for t in kept]
        # a dropped fingerprint may be recorded again, in its key's place
        ask((1, 5), calls("dropped", 1))
        fps = [fp for fp, _ in rec.transcript.records]
        assert fps[3] == RoomQuery("dropped call 0").fp and len(fps) == len(kept) + 1
        with pytest.raises(ValueError, match="duplicate query fingerprint"):
            ask((3,), calls("after", 1))


class TestAdversarialReplay:
    def test_record_replay_full_adversarial_run(self):
        from treelayout.model import SearchConfig
        from treelayout.pipeline import generate_scene
        from treelayout.sceneio import scene_to_text

        prompt = "A snug living room with a rustic coffee table"
        config = SearchConfig(seed=13, p_adv=0.5)
        rec = RecordingOracle(DeterministicOracle(seed=13, p_adv=0.5))
        recorded = generate_scene(prompt, config, rec)
        replayed = generate_scene(prompt, config, ReplayOracle(rec.transcript))
        assert scene_to_text(replayed) == scene_to_text(recorded)


class TestLiveEndToEnd:
    def test_live_transport_reproduces_recorded_scene(self, monkeypatch):
        """A live oracle whose transport answers each request with the
        fixture's reply for the query it renders must land on the
        byte-identical scene: transport plumbing adds nothing.  Replies are
        matched by request, not by arrival order, because the live oracle
        overlaps independent subproblems."""
        import json as jsonlib
        from collections import Counter
        from pathlib import Path

        from treelayout.model import SearchConfig
        from treelayout.oracle.transcript import Transcript
        from treelayout.pipeline import generate_scene
        from treelayout.sceneio import scene_to_text

        fixtures = Path(__file__).parent / "fixtures"
        transcript = Transcript.load(fixtures / "live_transcript.jsonl")
        prompt = transcript.metadata["prompt"]
        config = SearchConfig(seed=transcript.metadata["config_seed"])

        def request_key(messages):
            return jsonlib.dumps(messages, sort_keys=True)

        replay = ReplayOracle(transcript)
        replies: dict[str, str] = {}

        class Tap(PlacementOracle):
            io_bound = False

            def query(self, q):
                reply = replay.query(q)
                key = request_key(render_prompt_templates(q))
                assert key not in replies
                replies[key] = reply.text
                return reply

        generate_scene(prompt, config, Tap())
        assert len(replies) == len(transcript.records)

        monkeypatch.setenv("TREELAYOUT_API_KEY", "k-test")

        class FakeResponse:
            status_code = 200

            def __init__(self, text):
                self._text = text

            def json(self):
                return {"choices": [{"message": {"content": self._text}}]}

        served: Counter[str] = Counter()

        def fake_post(url, headers=None, json=None, timeout=None):
            assert json["messages"][0]["role"] == "system"
            key = request_key(json["messages"])
            served[key] += 1
            return FakeResponse(replies[key])

        monkeypatch.setattr("requests.post", fake_post)
        oracle = LiveOracle(LiveConfig(endpoint="https://example.invalid", model="m"))
        assert oracle.io_bound
        scene = generate_scene(prompt, config, oracle)
        golden = (fixtures / "live_scene.json").read_text("utf-8")
        assert scene_to_text(scene) == golden
        assert served == Counter(replies.keys())
