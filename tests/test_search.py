"""Tree search: soundness, budgets, backtracking, and oracle equivalence."""

import random
import threading
import time
from dataclasses import replace

import pytest

from bruteforce import BruteRegion
from treelayout.evaluate import anchor_visits, search_stats
from treelayout.grid import relation_satisfied
from treelayout.model import (
    AABB,
    AnchorRule,
    Dim3,
    Edge,
    EventKind,
    ObjectSpec,
    OrientationRule,
    Parent,
    PlacedObject,
    RegionPlan,
    SearchConfig,
    SearchMode,
    SearchTrace,
    SpatialRelation,
    SupportedSet,
    Yaw,
    units,
)
from treelayout.oracle.base import OracleFailure
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.transcript import RecordingOracle
from treelayout.search import (
    _corner_proposals,
    layer_order,
    place_supported,
    plan_region,
    run_io_mode,
)

REFERENCE_CONFIG = dict(k_global_anchor=3, k_global_other=1, k_local_side=2, k_local_axis=1)


def make_region(
    region_id,
    length,
    width,
    anchor,  # (category, l, d, rule)
    others=(),  # (category, l, d, relation, orientation)
):
    cat, al, ad, rule = anchor
    specs = [ObjectSpec(f"{cat}_0", cat, Dim3(al, ad, 0.5))]
    edges = []
    for i, (c, l, d, rel, ori) in enumerate(others, 1):
        specs.append(ObjectSpec(f"{c}_{i}", c, Dim3(l, d, 0.5)))
        edges.append(Edge(f"{c}_{i}", SpatialRelation(rel), OrientationRule(ori) if ori else None))
    return RegionPlan(
        id=region_id, function="test", length=length, width=width,
        objects=tuple(specs), anchor_id=specs[0].id,
        anchor_rule=AnchorRule(rule), edges=tuple(edges),
    )


def to_brute(region: RegionPlan, config: SearchConfig) -> BruteRegion:
    objs = []
    for spec in layer_order(region):
        edge = region.edge_for(spec.id)
        objs.append(
            {
                "id": spec.id,
                "length": spec.dims.length,
                "depth": spec.dims.depth,
                "relation": edge.relation.value if edge else None,
                "orientation": (
                    edge.orientation_rule.value if edge and edge.orientation_rule else None
                ),
            }
        )
    return BruteRegion(
        region.length, region.width, config.cell_size, region.anchor_rule.value, objs,
        thresholds=(config.d_front, config.d_beside, config.d_around),
    )


def assert_sound(region: RegionPlan, placements, config: SearchConfig):
    bounds = AABB(0, 0, units(region.length), units(region.width))
    boxes = {}
    for p in placements:
        box = p.aabb(region.spec(p.spec_id).dims)
        assert bounds.contains(box), f"{p.spec_id} out of bounds"
        boxes[p.spec_id] = box
    ids = list(boxes)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            assert not boxes[a].overlaps(boxes[b]), f"{a} overlaps {b}"
    anchor = next(p for p in placements if p.spec_id == region.anchor_id)
    for edge in region.edges:
        if edge.object_id not in boxes:
            continue
        assert relation_satisfied(
            edge.relation, boxes[edge.object_id], anchor,
            region.spec(region.anchor_id).dims,
            config.d_front, config.d_beside, config.d_around,
        ), f"relation violated for {edge.object_id}"


class TestAnchorOnly:
    def test_anchor_placed_no_backtracks(self):
        region = make_region("r1", 3.0, 4.0, ("bed", 2.0, 1.6, "place_along_wall"))
        config = SearchConfig(seed=0, **REFERENCE_CONFIG)
        result = plan_region(region, config, DeterministicOracle(seed=0))
        assert not result.unsat
        assert len(result.placements) == 1
        assert result.trace.count(EventKind.BACKTRACK) == 0
        # flush against a wall, facing the interior
        p = result.placements[0]
        box = p.aabb(region.spec(p.spec_id).dims)
        gaps = [box.x0, box.y0, units(region.length) - box.x1, units(region.width) - box.y1]
        assert min(gaps) == 0
        fx, fy = p.yaw.facing
        step = fx * units(0.1)
        assert box.x0 + step >= 0 and box.x1 + step <= units(region.length) or fy != 0

    def test_anchor_too_large_is_unsat(self):
        region = make_region("r1", 1.0, 1.0, ("bed", 2.0, 1.6, "place_along_wall"))
        config = SearchConfig(seed=0, **REFERENCE_CONFIG)
        result = plan_region(region, config, DeterministicOracle(seed=0))
        assert result.unsat
        assert result.placements == ()
        assert any("root budget exhausted" in e.detail for e in result.trace.events)

    def test_corner_anchor_flush_two_walls(self):
        region = make_region("r1", 4.0, 4.0, ("desk", 1.2, 0.6, "place_at_corner"))
        result = plan_region(
            region, SearchConfig(seed=0, **REFERENCE_CONFIG), DeterministicOracle(seed=0)
        )
        p = result.placements[0]
        box = p.aabb(region.spec(p.spec_id).dims)
        gaps = sorted([box.x0, box.y0, units(region.length) - box.x1, units(region.width) - box.y1])
        assert gaps[0] == 0
        assert gaps[1] == 0

    def test_center_anchor_at_centroid(self):
        region = make_region("r1", 4.0, 3.0, ("dining_table", 1.4, 0.9, "place_in_center"))
        result = plan_region(
            region, SearchConfig(seed=0, **REFERENCE_CONFIG), DeterministicOracle(seed=0)
        )
        p = result.placements[0]
        assert (p.x, p.y) == (2.0, 1.5)


class TestSoundness:
    def test_random_regions_sound(self):
        rng = random.Random(100)
        solved = 0
        for trial in range(60):
            length = rng.choice([2.5, 3.0, 3.5, 4.0])
            width = rng.choice([2.0, 2.5, 3.0])
            anchor = ("sofa", rng.choice([1.5, 2.0]), rng.choice([0.8, 0.9]),
                      rng.choice(["place_along_wall", "place_at_corner", "place_in_center"]))
            others = []
            for i in range(rng.randint(1, 3)):
                others.append(
                    ("obj", rng.choice([0.4, 0.5, 0.8]), rng.choice([0.4, 0.5]),
                     rng.choice(["place_front", "place_beside", "place_around"]),
                     rng.choice(["face_anchor", "same_as_anchor", "back_to_anchor",
                                 "opposite_anchor"]))
                )
            region = make_region(f"r{trial}", length, width, anchor, others)
            config = SearchConfig(seed=trial, **REFERENCE_CONFIG)
            result = plan_region(region, config, DeterministicOracle(seed=trial))
            if result.unsat:
                continue
            solved += 1
            assert_sound(region, result.placements, config)
        assert solved >= 30  # most random instances are satisfiable

    def test_determinism_same_seed_same_trace(self):
        region = make_region(
            "r1", 3.0, 2.5, ("sofa", 2.0, 0.9, "place_along_wall"),
            [("coffee_table", 1.0, 0.6, "place_front", "face_anchor"),
             ("floor_lamp", 0.3, 0.3, "place_around", "same_as_anchor")],
        )
        def run():
            config = SearchConfig(seed=5, **REFERENCE_CONFIG)
            res = plan_region(region, config, DeterministicOracle(seed=5))
            return [(e.layer, e.object_id, e.attempt_no, e.kind, e.detail)
                    for e in res.trace.events], res.placements
        assert run() == run()


class TestBudgets:
    def test_attempts_within_budgets(self):
        region = make_region(
            "r1", 3.0, 2.0, ("sofa", 2.0, 0.9, "place_along_wall"),
            [("coffee_table", 1.0, 0.6, "place_front", "face_anchor"),
             ("armchair", 0.8, 0.8, "place_around", "face_anchor")],
        )
        config = SearchConfig(seed=1, **REFERENCE_CONFIG)
        result = plan_region(region, config, DeterministicOracle(seed=1))
        stats = search_stats(result.trace)
        for (scope, layer), attempts in stats.attempts_per_layer.items():
            k = config.k_global_anchor if layer == 1 else config.k_global_other
            assert attempts <= k, (scope, layer)
        assert anchor_visits(result.trace, "r1") <= config.k_global_anchor


def crafted_backtracking_instance():
    """Search a small family for a region where the first anchor pose blocks
    the second object and a later pose admits it (verified brute-force)."""
    for width in (1.0, 1.1, 1.2):
        for anchor_l, anchor_d in ((0.9, 0.6), (1.0, 0.6), (0.8, 0.6)):
            for obj in ((0.5, 0.5),):
                region = make_region(
                    "crafted", 2.0, width,
                    ("cabinet", anchor_l, anchor_d, "place_along_wall"),
                    [("chair", obj[0], obj[1], "place_front", "face_anchor")],
                )
                config = SearchConfig(seed=0, **REFERENCE_CONFIG)
                brute = to_brute(region, config)
                proposals = brute.anchor_proposals()
                admits = []
                for key, cx, cy, yaw, in proposals[:3]:
                    from bruteforce import rect_at

                    rect = rect_at(anchor_l, anchor_d, yaw, cx, cy)
                    if not brute.in_bounds(rect):
                        admits.append(False)
                        continue
                    brute.anchor_center = (cx, cy)
                    brute.anchor_yaw = yaw
                    found = brute.local_place(
                        brute.objects[1], [rect], set(),
                        config.k_local_side, config.k_local_axis,
                    )
                    admits.append(found is not None)
                if len(admits) == 3 and not admits[0] and sum(admits) == 1:
                    return region, config
    raise AssertionError("no crafted instance found")


class TestBacktracking:
    def test_crafted_instance_tree_vs_cot(self):
        region, config = crafted_backtracking_instance()
        tree_result = plan_region(region, config, DeterministicOracle(seed=0))
        assert not tree_result.unsat
        assert len(tree_result.placements) == 2
        assert tree_result.trace.count(EventKind.BACKTRACK) >= 1
        assert_sound(region, tree_result.placements, config)

        # CoT gets one more, smaller object after the chair: the chair's
        # failure is skipped and the search goes on to the lamp.
        lamp = ObjectSpec("lamp_2", "lamp", Dim3(0.2, 0.2, 0.5))
        cot_region = replace(
            region, objects=region.objects + (lamp,),
            edges=region.edges + (Edge(lamp.id, SpatialRelation.PLACE_AROUND, None),),
        )
        failed, later = [s.id for s in layer_order(cot_region)][1:]
        assert later == lamp.id
        cot_config = SearchConfig(seed=0, mode=SearchMode.COT)
        cot_result = plan_region(cot_region, cot_config, DeterministicOracle(seed=0))
        assert not cot_result.unsat
        assert failed not in {p.spec_id for p in cot_result.placements}
        assert cot_result.unplaced.count(failed) == 1
        rejected = [
            e for e in cot_result.trace.events
            if e.object_id == failed and e.kind is EventKind.REJECTED
        ]
        assert len(rejected) == 1 and "skipped: " in rejected[0].detail
        assert any(e.object_id == later for e in cot_result.trace.events)
        assert cot_result.trace.count(EventKind.BACKTRACK) == 0

    def test_repeated_corner_pose_not_revisited(self):
        # The bed is exactly as long as the region is wide, so the bl/tl and
        # br/tr corners give the same poses at their preferred yaws; the
        # block fits nowhere, so every anchor visit fails downstream.  With
        # a budget that reaches the top corners, a repeated pose would
        # re-ask the same queries, which a recording oracle refuses.
        region = make_region(
            "narrow", 3.0, 2.05, ("bed", 2.05, 1.65, "place_at_corner"),
            [("block", 1.4, 1.4, "place_beside", None)],
        )
        config = SearchConfig(seed=0, **{**REFERENCE_CONFIG, "k_global_anchor": 8})
        proposals = _corner_proposals(region, region.objects[0].dims)
        poses = [(cx, cy, yaw) for _key, cx, cy, yaw in proposals]
        # each corner's preferred yaw, then its other one
        assert [key for key, *_ in proposals] == [
            ("bl", 90), ("bl", 0), ("br", 270), ("br", 0),
            ("tl", 90), ("tl", 180), ("tr", 270), ("tr", 180)]
        assert poses[0] == poses[4] and poses[2] == poses[6]
        assert len(set(poses)) == 6

        result = plan_region(region, config, RecordingOracle(DeterministicOracle(seed=0)))
        assert result.unsat
        anchors = [
            e.pose for e in result.trace.events
            if e.layer == 1 and e.kind is EventKind.ACCEPTED
        ]
        assert anchors == list(dict.fromkeys(poses))
        assert to_brute(region, config).search_feasible(
            config.k_global_anchor, config.k_global_other,
            config.k_local_side, config.k_local_axis,
        ) is False

    def test_trace_conservation(self):
        region, config = crafted_backtracking_instance()
        result = plan_region(region, config, DeterministicOracle(seed=0))
        accepted = result.trace.count(EventKind.ACCEPTED)
        backtracks = result.trace.count(EventKind.BACKTRACK)
        assert accepted - backtracks == len(result.placements)


class TestMonotoneBudgets:
    def test_cot_success_implies_tree_same_placements(self):
        rng = random.Random(77)
        checked = 0
        for trial in range(40):
            region = make_region(
                f"r{trial}", rng.choice([3.0, 3.5]), rng.choice([2.5, 3.0]),
                ("sofa", 2.0, 0.9, "place_along_wall"),
                [("coffee_table", 1.0, 0.6, "place_front", "face_anchor"),
                 ("side_table", 0.45, 0.45, "place_beside", "same_as_anchor")],
            )
            cot = plan_region(
                region, SearchConfig(seed=trial, mode=SearchMode.COT),
                DeterministicOracle(seed=trial),
            )
            if cot.unsat or cot.unplaced:
                continue
            checked += 1
            tree = plan_region(
                region, SearchConfig(seed=trial, **REFERENCE_CONFIG),
                DeterministicOracle(seed=trial),
            )
            assert not tree.unsat
            assert tree.placements == cot.placements
        assert checked >= 10


class TestBoundedCompleteness:
    def random_instance(self, rng, trial):
        cell = 0.5
        length = rng.choice([2.0, 2.5, 3.0, 3.5, 4.0])
        width = rng.choice([2.0, 2.5, 3.0, 3.5, 4.0])
        rule = rng.choice(["place_along_wall", "place_at_corner", "place_in_center"])
        anchor = ("anchor", rng.choice([1.0, 1.5, 2.0]), rng.choice([0.5, 1.0]), rule)
        others = []
        for i in range(rng.randint(1, 2)):
            others.append(
                ("obj", rng.choice([0.5, 1.0, 1.5]), rng.choice([0.5, 1.0]),
                 rng.choice(["place_front", "place_beside", "place_around"]),
                 rng.choice(["face_anchor", "same_as_anchor", "back_to_anchor",
                             "opposite_anchor"]))
            )
        region = make_region(f"inst{trial}", length, width, anchor, others)
        config = SearchConfig(seed=trial, cell_size=cell, **REFERENCE_CONFIG)
        return region, config

    def test_verdicts_match_enumerator_50_instances(self):
        rng = random.Random(4242)
        feasible_count = 0
        for trial in range(50):
            region, config = self.random_instance(rng, trial)
            brute = to_brute(region, config)
            expected = brute.search_feasible(
                config.k_global_anchor, config.k_global_other,
                config.k_local_side, config.k_local_axis,
            )
            result = plan_region(region, config, DeterministicOracle(seed=trial))
            assert (not result.unsat) == expected, f"trial {trial}"
            if expected:
                feasible_count += 1
                assert_sound(region, result.placements, config)
        assert 5 <= feasible_count < 50  # both verdicts exercised


class TestPlaceSupported:
    def supporter(self):
        return ObjectSpec("desk_1", "desk", Dim3(1.2, 0.6, 0.75), supportable=True)

    def test_lamp_on_supporter(self):
        spec = self.supporter()
        sub = SupportedSet(
            objects=(ObjectSpec("lamp_1", "desk_lamp", Dim3(0.15, 0.15, 0.4)),),
            edges=(),
        )
        config = SearchConfig(seed=0, **REFERENCE_CONFIG)
        trace = SearchTrace()
        out = place_supported(spec, sub, config, DeterministicOracle(seed=0), trace)
        assert len(out) == 1
        lamp = out[0]
        assert lamp.z == spec.dims.height
        assert lamp.parent == Parent.supporter("desk_1")
        # local coords inside the top face
        assert 0 <= lamp.x <= spec.dims.length
        assert 0 <= lamp.y <= spec.dims.depth

    def test_two_objects_contained_and_disjoint(self):
        spec = self.supporter()
        sub = SupportedSet(
            objects=(
                ObjectSpec("monitor_1", "monitor", Dim3(0.5, 0.2, 0.4)),
                ObjectSpec("lamp_1", "desk_lamp", Dim3(0.15, 0.15, 0.4)),
            ),
            edges=(Edge("lamp_1", SpatialRelation.PLACE_AROUND, None),),
        )
        config = SearchConfig(seed=0, **REFERENCE_CONFIG)
        out = place_supported(spec, sub, config, DeterministicOracle(seed=0),
                              SearchTrace())
        assert len(out) == 2
        boxes = {}
        face = AABB(0, 0, units(spec.dims.length), units(spec.dims.depth))
        for p in out:
            dims = next(s.dims for s in sub.objects if s.id == p.spec_id)
            box = p.aabb(dims)
            assert face.contains(box)
            boxes[p.spec_id] = box
        a, b = boxes.values()
        assert not a.overlaps(b)

    def test_unsat_drops_all_with_note(self):
        spec = self.supporter()
        # object as large as the face cannot be centered without overflow
        sub = SupportedSet(
            objects=(
                ObjectSpec("big_1", "tray", Dim3(1.19, 0.59, 0.05)),
                ObjectSpec("big_2", "tray", Dim3(1.0, 0.5, 0.05)),
            ),
            edges=(Edge("big_2", SpatialRelation.PLACE_AROUND, None),),
        )
        config = SearchConfig(seed=0, **REFERENCE_CONFIG)
        trace = SearchTrace()
        out = place_supported(spec, sub, config, DeterministicOracle(seed=0), trace)
        assert out == []
        assert any("supported set dropped" in e.detail for e in trace.events)

    def test_mini_grid_dims(self):
        from treelayout.grid import grid_dims

        spec = self.supporter()
        cols, rows = grid_dims(units(spec.dims.length), units(spec.dims.depth), units(0.25) // 5)
        assert (cols, rows) == (24, 12)


class TestIoMode:
    def make_plan(self):
        from treelayout.model import RoomPlan

        region = make_region(
            "r1", 4.0, 3.0, ("sofa", 2.0, 0.9, "place_along_wall"),
            [("coffee_table", 1.0, 0.6, "place_front", "face_anchor"),
             ("armchair", 0.8, 0.8, "place_around", "face_anchor")],
        )
        return RoomPlan("living room", 4.0, 3.0, (region,), "a living room")

    def test_deterministic_layout_parsed(self):
        plan = self.make_plan()
        config = SearchConfig(seed=0, mode=SearchMode.IO)
        scene = run_io_mode(plan, DeterministicOracle(seed=0), config)
        assert len(scene.placements) == 3
        assert scene.trace.oracle_calls == 1
        kinds = {e.kind for e in scene.trace.events}
        assert EventKind.ACCEPTED not in kinds and EventKind.PROPOSED not in kinds

    def test_malformed_reply_empty_scene(self):
        from treelayout.oracle.base import PlacementOracle
        from treelayout.oracle.queries import OracleReply

        class Garbage(PlacementOracle):
            def query(self, q):
                return OracleReply("utter nonsense")

        plan = self.make_plan()
        scene = run_io_mode(plan, Garbage(), SearchConfig(seed=0, mode=SearchMode.IO))
        assert scene.placements == ()
        assert any("parse failure" in e.detail for e in scene.trace.events)


class ForcedFirstSideOracle:
    """Deterministic oracle with the first side reply forced elsewhere,
    whatever the question's "Do not answer" names; it keeps the ``avoid``
    of the side questions it forced."""

    def __init__(self, inner, forced="top"):
        self.inner = inner
        self.forced = forced
        self.forced_avoid = []

    def query(self, q):
        from treelayout.oracle.queries import OracleReply, SideQuery

        if isinstance(q, SideQuery) and q.context.relation is not None and q.attempt == 1:
            self.forced_avoid.append(q.avoid)
            return OracleReply(self.forced)
        return self.inner.query(q)


class TestSideEvalBudget:
    def test_failed_side_eval_consumes_attempt(self):
        # anchor spans the full region width, so "top" has no candidate
        # cells; the question tells the oracle not to answer it, but the
        # oracle-forced first side is "top" anyway: it has no feasible
        # pose, and the second side attempt succeeds.
        region = make_region(
            "r1", 3.0, 1.0, ("cabinet", 1.0, 1.0, "place_along_wall"),
            [("box", 0.5, 0.5, "place_beside", "same_as_anchor")],
        )
        config = SearchConfig(seed=0, **REFERENCE_CONFIG)
        oracle = ForcedFirstSideOracle(DeterministicOracle(seed=0))
        result = plan_region(region, config, oracle)
        assert not result.unsat and len(result.placements) == 2
        assert [sorted(avoid) for avoid in oracle.forced_avoid] == [["bottom", "top"]]
        accepted = next(
            e for e in result.trace.events
            if e.kind is EventKind.ACCEPTED and e.object_id == "box_1"
        )
        assert "side_attempt=2" in accepted.detail


class TestFinalCheck:
    """The verdict ``local_place`` reads on a completed pose: that of the
    context's lattice at the pair of run starts the pose comes from.  It
    names the first term the box fails, and agrees with the output
    check's terms (``AABB`` containment and overlap, ``relation_satisfied``)."""

    def verdict(self, side, col_start, row_start):
        from treelayout.grid import Side
        from treelayout.model import AABB, effective_aabb, units
        from treelayout.oracle.queries import object_spans, pose_from_starts
        from treelayout.search import GlobalState, _make_context

        region = make_region(
            "r1", 4.0, 3.0, ("sofa", 2.0, 0.9, "place_along_wall"),
            [("coffee_table", 1.0, 0.6, "place_front", "face_anchor")],
        )
        config = SearchConfig(seed=0, **REFERENCE_CONFIG)
        state = GlobalState(
            region=region, order=layer_order(region), config=config, session=None,
            scope="r1", wall_sides=frozenset(), cell_size=config.cell_size,
        )
        anchor = PlacedObject("sofa_0", 2.0, 0.45, 0.0, Yaw.DEG_0, Parent.floor("r1"))
        state.push(anchor, region.spec("sofa_0").dims)
        spec = region.spec("coffee_table_1")
        ctx = _make_context(state, spec, region.edge_for(spec.id), anchor)
        side = Side(side)
        m_cols, m_rows = object_spans(ctx, side)
        pose = cx, cy, yaw = pose_from_starts(ctx, side, col_start, row_start)
        lattice = ctx.lattice(m_cols, m_rows, yaw.swaps_extents)
        box = effective_aabb(spec.dims, yaw, (cx, cy))
        xc, yc = lattice.xs[col_start], lattice.ys[row_start]
        assert box == (xc - lattice.hx, yc - lattice.hy, xc + lattice.hx, yc + lattice.hy)
        reason = lattice.verdict(col_start, row_start)
        legal = (AABB(0, 0, units(4.0), units(3.0)).contains(box)
                 and not any(box.overlaps(AABB(*b)) for b in ctx.placed_boxes)
                 and relation_satisfied(ctx.relation, box, ctx.anchor, ctx.anchor_dims,
                                        ctx.d_front, ctx.d_beside, ctx.d_around))
        assert (reason is None) == legal
        return pose, reason

    def test_overlap_rejected(self):
        assert self.verdict("top", 6, 1) == ((2.0, 0.625, Yaw.DEG_180), "overlap")

    def test_bounds_rejected(self):
        # a left-side run three columns wide, but the final yaw turns the
        # table's 1.0 m length along x, past the left wall
        assert self.verdict("left", 0, 7) == ((0.375, 2.25, Yaw.DEG_180), "bounds")

    def test_relation_rejected_and_ok(self):
        # legal spot but far outside the facing band
        assert self.verdict("top", 0, 9) == ((0.5, 2.625, Yaw.DEG_180), "relation")
        assert self.verdict("top", 6, 4) == ((2.0, 1.375, Yaw.DEG_180), None)


class TestBoundedCompletenessVariedBudgets:
    def test_verdicts_match_under_other_budgets(self):
        from dataclasses import replace

        maker = TestBoundedCompleteness()
        for ka, ko, ks, kx in [(3, 2, 2, 2), (2, 1, 1, 1), (4, 2, 1, 2)]:
            rng = random.Random(1000 + ka * 7 + ko * 3 + ks + kx)
            for trial in range(15):
                region, base = maker.random_instance(rng, trial)
                config = replace(base, k_global_anchor=ka, k_global_other=ko,
                                 k_local_side=ks, k_local_axis=kx)
                brute = to_brute(region, config)
                expected = brute.search_feasible(ka, ko, ks, kx)
                result = plan_region(region, config, DeterministicOracle(seed=trial))
                assert (not result.unsat) == expected, (ka, ko, ks, kx, trial)


class TestIoViolationsRecorded:
    def test_io_violations_land_in_trace(self):
        from treelayout.model import RoomPlan
        from treelayout.oracle.base import PlacementOracle
        from treelayout.oracle.queries import OracleReply

        region = make_region(
            "r1", 3.0, 2.0, ("sofa", 2.0, 0.9, "place_along_wall"),
            [("armchair", 0.8, 0.8, "place_around", "face_anchor")],
        )
        plan = RoomPlan("living room", 3.0, 2.0, (region,), "p")

        class Overlapper(PlacementOracle):
            def query(self, q):
                return OracleReply(
                    "sofa_0: x=1.00 y=1.00 z=0.00 yaw=0\n"
                    "armchair_1: x=1.10 y=1.05 z=0.00 yaw=0"
                )

        scene = run_io_mode(plan, Overlapper(), SearchConfig(seed=0, mode=SearchMode.IO))
        assert len(scene.placements) == 2
        assert any("violations" in e.detail and "overlap=1" in e.detail
                   for e in scene.trace.events)


class TestModeGuard:
    def test_plan_region_rejects_io_mode(self):
        region = make_region("r1", 3.0, 2.0, ("sofa", 2.0, 0.9, "place_along_wall"))
        with pytest.raises(ValueError):
            plan_region(region, SearchConfig(seed=0, mode=SearchMode.IO),
                        DeterministicOracle(seed=0))


class ScriptedOracle:
    """Answers side, side-eval and cells questions from fixed scripts.

    A cells script entry is raw reply text, a function of the query that
    returns the text, or the start index of a run: the reply then names
    one cell for each index of the run."""

    def __init__(self, sides=(), evals=(), runs=()):
        self.sides, self.evals, self.runs = list(sides), list(evals), list(runs)

    def query(self, q):
        from treelayout.oracle.queries import CellsQuery, OracleReply, SideEvalQuery, SideQuery

        if isinstance(q, SideQuery):
            return OracleReply(self.sides.pop(0))
        if isinstance(q, SideEvalQuery):
            return OracleReply(self.evals.pop(0))
        assert isinstance(q, CellsQuery)
        run = self.runs.pop(0)
        if isinstance(run, str):
            return OracleReply(run)
        if callable(run):
            return OracleReply(run(q))
        axis_of = q.context.grid.col_of if q.axis == "cols" else q.context.grid.row_of
        names = [
            next(name for idx, name in q.emap.entries.items() if axis_of(idx) == i)
            for i in range(run, run + q.expected_count)
        ]
        return OracleReply(" ".join(names))

    def exhausted(self):
        return not (self.sides or self.evals or self.runs)


class TestRejectionNotes:
    """The text of every local-search rejection note (it lands in trace.jsonl).

    A 4.0 x 2.3 region on a 0.25 grid (16 cols, 10 rows) with the sofa
    anchor flush to the bottom wall.  On its top side the coffee table
    spans 3 rows and 4 cols, so the first step names rows and the second
    columns; rows 4-9 are above the anchor, and only rows 4-6 have a
    feasible pose.  The top side is the table's only live side, so its
    side step is forced and the scripts below hold no side reply; the
    lamp, placed around the sofa, has three live sides."""

    def local_notes(self, oracle, excluded=(), obstacle=False, obj="coffee_table_1",
                    **budgets):
        from treelayout.oracle.base import OracleSession
        from treelayout.search import GlobalState, _make_context, local_place

        region = make_region(
            "r1", 4.0, 2.3, ("sofa", 2.0, 0.9, "place_along_wall"),
            [("coffee_table", 1.0, 0.6, "place_front", "face_anchor"),
             ("lamp", 0.5, 0.5, "place_around", None)],
        )
        config = SearchConfig(seed=0, **{**REFERENCE_CONFIG, **budgets})
        state = GlobalState(
            region=region, order=layer_order(region), config=config,
            session=OracleSession(oracle, SearchTrace()), scope="r1", wall_sides=frozenset(),
            cell_size=config.cell_size,
        )
        anchor = PlacedObject("sofa_0", 2.0, 0.45, 0.0, Yaw.DEG_0, Parent.floor("r1"))
        state.push(anchor, region.spec("sofa_0").dims)
        if obstacle:  # True: the lamp covers cols 2-3, rows 5-6; else its (x, y)
            x, y = (0.75, 1.5) if obstacle is True else obstacle
            state.push(PlacedObject("lamp_2", x, y, 0.0, Yaw.DEG_0, Parent.floor("r1")),
                       region.spec("lamp_2").dims)
        spec = region.spec(obj)
        ctx = _make_context(state, spec, region.edge_for(spec.id), anchor)
        thought, notes = local_place(spec, ctx, state, set(excluded), 1, 1, 2)
        assert oracle.exhausted()
        assert thought is None
        return notes

    def test_side_reply_unusable(self):
        oracle = ScriptedOracle(sides=["nowhere", "left or right"])
        assert self.local_notes(oracle, obj="lamp_2") == (
            "side reply unusable: 'nowhere'; side reply unusable: 'left or right'"
        )

    def test_eval_no_then_repeated_side(self):
        oracle = ScriptedOracle(sides=["top", "top"], evals=["no"])
        assert self.local_notes(oracle, obj="lamp_2") == (
            "top: eval no; side reply unusable: 'top'")

    def test_no_candidate_cells(self):
        # the anchor is flush to the bottom wall, so the bottom side has no
        # candidate cells and no feasible pose: no eval is asked about it
        oracle = ScriptedOracle(sides=["bottom"])
        assert self.local_notes(oracle, obj="lamp_2", k_local_side=1) == (
            "bottom: no feasible pose")

    def test_selection_error_kinds(self):
        def one_name(q):
            return next(iter(q.emap.entries.values()))

        def unlisted_name(q):
            return q.emap.vocabulary[-1]

        # the second reply names rows 4-6 and leads to the columns question
        oracle = ScriptedOracle(evals=["yes"], runs=["I cannot say", 4, one_name, unlisted_name])
        assert self.local_notes(oracle, k_local_side=1, k_local_axis=2) == (
            "top/rows: EmptyResponse; top/cols: WrongCount; top/cols: UnknownEmoji"
        )

    def test_repeat_runs(self):
        oracle = ScriptedOracle(evals=["yes"], runs=[4, 12, 12, 4])
        assert self.local_notes(oracle, k_local_side=1, k_local_axis=2) == (
            "top: relation; top/cols: repeat run 12; top/rows: repeat run 4"
        )

    def test_pose_already_failed_downstream(self):
        oracle = ScriptedOracle(evals=["yes"], runs=[4, 6])
        notes = self.local_notes(oracle, excluded={("top", 4, 6)}, k_local_side=1)
        assert notes == "top: pose ('top', 4, 6) already failed downstream"

    def test_named_run_without_feasible_pose(self):
        # rows 7-9 reach past the wall at every column: no second question
        oracle = ScriptedOracle(evals=["yes"], runs=[7])
        assert self.local_notes(oracle) == "top/cols: no feasible pose"

    @pytest.mark.parametrize("runs, obstacle, reason", [
        # at cols 0-3 the table faces the sofa along x, so its 1.0 m
        # length stands along y, from 1.375 to 2.375 > 2.3
        ([6, 0], False, "bounds"),
        ([5, 1], True, "overlap"),  # cols 1-4 x rows 5-7 cover the obstacle
        ([4, 12], False, "relation"),  # cols 12-15 are off the sofa's front
        # the pose of the first case also covers the lamp on cols 1-2,
        # rows 7-8: bounds is reported before overlap
        ([6, 0], (0.5, 2.0), "bounds"),
    ])
    def test_pose_checks(self, runs, obstacle, reason):
        oracle = ScriptedOracle(evals=["yes"], runs=runs)
        assert self.local_notes(oracle, obstacle=obstacle, k_local_side=1) == f"top: {reason}"

    @pytest.mark.parametrize("mode, sides, evals, note", [
        (SearchMode.TREE, ["nowhere", "top"], ["no"],
         "side reply unusable: 'nowhere'; top: eval no"),
        (SearchMode.COT, ["nowhere"], [], "skipped: side reply unusable: 'nowhere'"),
    ])
    def test_rejected_event_joins_notes(self, mode, sides, evals, note):
        # the lamp has three live sides, so its side step asks
        region = make_region(
            "r1", 4.0, 3.0, ("sofa", 2.0, 0.9, "place_along_wall"),
            [("lamp", 0.5, 0.5, "place_around", None)],
        )
        config = SearchConfig(seed=0, mode=mode, **{**REFERENCE_CONFIG, "k_global_anchor": 1})
        oracle = ScriptedOracle(sides=sides, evals=evals)
        trace = plan_region(region, config, oracle).trace
        assert oracle.exhausted()
        assert [e.note for e in trace.events if e.kind is EventKind.REJECTED] == [note]

    def test_facing_reply_unusable(self):
        region = make_region("r1", 4.0, 3.0, ("dining_table", 1.4, 0.9, "place_in_center"))
        oracle = ScriptedOracle(sides=["nowhere", "top"])
        trace = plan_region(region, SearchConfig(seed=0, **REFERENCE_CONFIG), oracle).trace
        assert oracle.exhausted()
        assert [(e.kind, e.attempt_no, e.note) for e in trace.events] == [
            (EventKind.REJECTED, 1, "facing reply unusable"),
            (EventKind.PROPOSED, 2, "anchor=top"),
            (EventKind.ACCEPTED, 2, "anchor=top"),
        ]


class TestForcedSteps:
    """A step with one live answer is taken without a question, and a step
    with none left ends.  A 1.25 x 1.0 region on a 0.25 grid with a
    1.0 x 1.0 cabinet flush to its left wall: a 0.25 x 1.0 panel beside
    it fits only in column 4, rows 0-3, so every step but the eval is
    forced."""

    def local_place(self, oracle, **budgets):
        from treelayout.oracle.base import OracleSession
        from treelayout.search import GlobalState, _make_context, local_place

        region = make_region("r1", 1.25, 1.0, ("cabinet", 1.0, 1.0, "place_along_wall"),
                             [("panel", 0.25, 1.0, "place_beside", "same_as_anchor")])
        config = SearchConfig(seed=0, **{**REFERENCE_CONFIG, **budgets})
        state = GlobalState(
            region=region, order=layer_order(region), config=config,
            session=OracleSession(oracle, SearchTrace()), scope="r1", wall_sides=frozenset(),
            cell_size=config.cell_size,
        )
        anchor = PlacedObject("cabinet_0", 0.5, 0.5, 0.0, Yaw.DEG_0, Parent.floor("r1"))
        state.push(anchor, region.spec("cabinet_0").dims)
        spec = region.spec("panel_1")
        ctx = _make_context(state, spec, region.edge_for(spec.id), anchor)
        result = local_place(spec, ctx, state, set(), 1, 1, 2)
        assert oracle.exhausted()
        return result, state.session.trace

    def test_only_the_eval_is_asked(self):
        (thought, notes), trace = self.local_place(ScriptedOracle(evals=["yes"]))
        assert notes == "ok"
        assert (thought.side.value, thought.pose, thought.forced) == (
            "right", (1.125, 0.5, Yaw.DEG_0), ("side", "cols", "rows"))
        assert trace.oracle_calls == 1
        assert trace.forced_steps == {"side": 1, "cells": 2}

    def test_eval_no_ends_the_search_with_no_side_left(self):
        # the side budget is 2, but no other side holds a feasible pose
        (thought, notes), trace = self.local_place(ScriptedOracle(evals=["no"]))
        assert (thought, notes) == (None, "right: eval no")
        assert trace.oracle_calls == 1

    def test_a_pose_is_keyed_on_every_side_it_comes_from(self):
        # a cell left of the sofa and above its back is a candidate on the
        # left and on the top side: the lamp at cols 0-1, rows 4-5 is one
        # pose with a key on each, and a failed pose is excluded by both
        # (and by keys on the other sides, which name no candidate there)
        from treelayout.grid import Side
        from treelayout.oracle.queries import pose_from_starts
        from treelayout.search import GlobalState, _make_context, _pose_keys

        region = make_region("r1", 4.0, 3.0, ("sofa", 2.0, 0.9, "place_along_wall"),
                             [("lamp", 0.5, 0.5, "place_around", None)])
        config = SearchConfig(seed=0, **REFERENCE_CONFIG)
        state = GlobalState(region=region, order=layer_order(region), config=config,
                            session=None, scope="r1", wall_sides=frozenset(),
                            cell_size=config.cell_size)
        anchor = PlacedObject("sofa_0", 2.0, 0.45, 0.0, Yaw.DEG_0, Parent.floor("r1"))
        state.push(anchor, region.spec("sofa_0").dims)
        spec = region.spec("lamp_1")
        ctx = _make_context(state, spec, region.edge_for(spec.id), anchor)
        pose = pose_from_starts(ctx, Side.LEFT, 0, 4)
        assert pose == pose_from_starts(ctx, Side.TOP, 0, 4) == (0.25, 1.25, Yaw.DEG_0)
        assert _pose_keys(ctx, pose) == {("left", 0, 4), ("right", 0, 4),
                                         ("top", 4, 0), ("bottom", 4, 0)}


class TestForcedFacing:
    """The centred anchor's facing question is forward-checked: a facing
    whose box does not fit the region is never offered, one that fits
    alone is taken unasked, and with none the visit asks nothing."""

    def test_no_fitting_facing_asks_nothing(self):
        # 1.2 x 1.2 m either way round in a 1.0 m wide region
        region = make_region("r1", 2.0, 1.0, ("table", 1.2, 1.2, "place_in_center"))
        oracle = ScriptedOracle()
        result = plan_region(region, SearchConfig(seed=0, **REFERENCE_CONFIG), oracle)
        assert result.unsat and result.trace.oracle_calls == 0
        assert [e.note for e in result.trace.events] == ["root budget exhausted (no anchor pose)"]

    def test_the_last_fitting_facing_is_taken_unasked(self):
        # the 1.4 x 0.9 table fits the 1.0 m wide region facing top or
        # bottom only; the block fits nowhere, so every anchor visit fails
        region = make_region("r1", 4.0, 1.0, ("table", 1.4, 0.9, "place_in_center"),
                             [("block", 3.0, 3.0, "place_beside", None)])
        avoided = []

        class Logged(ScriptedOracle):
            def query(self, q):
                avoided.append(sorted(q.avoid))
                return super().query(q)

        oracle = Logged(sides=["top"])
        result = plan_region(region, SearchConfig(seed=0, **REFERENCE_CONFIG), oracle)
        assert oracle.exhausted() and result.unsat
        assert avoided == [["left", "right"]]
        assert [e.note for e in result.trace.events
                if e.layer == 1 and e.kind is EventKind.ACCEPTED] == [
            "anchor=top", "anchor=bottom forced=facing"]
        assert result.trace.forced_steps == {"side": 1}


class TestAnchorNotes:
    """An engine proposal that does not fit and an oracle's dead facing
    write different rejection notes."""

    def test_wall_proposal_that_does_not_fit(self):
        # 1.2 m deep against the 1.0 m bottom and top walls; it fits the left
        region = make_region("r1", 3.0, 1.0, ("cabinet", 0.9, 1.2, "place_along_wall"))
        result = plan_region(region, SearchConfig(seed=0, **REFERENCE_CONFIG), ScriptedOracle())
        assert not result.unsat and result.trace.oracle_calls == 0
        assert [e.note for e in result.trace.events if e.kind is not EventKind.PROPOSED] == [
            "anchor proposal bottom does not fit", "anchor proposal top does not fit",
            "anchor=left"]

    def test_dead_facing_reply(self):
        # the 1.4 x 0.9 table fits the 1.0 m wide region facing top or
        # bottom only; the oracle names left anyway, then top
        region = make_region("r1", 4.0, 1.0, ("table", 1.4, 0.9, "place_in_center"))
        oracle = ScriptedOracle(sides=["left", "top"])
        result = plan_region(region, SearchConfig(seed=0, **REFERENCE_CONFIG), oracle)
        assert oracle.exhausted() and not result.unsat
        assert [e.note for e in result.trace.events if e.kind is not EventKind.PROPOSED] == [
            "anchor does not fit on left", "anchor=top"]


class TestForwardCheck:
    """An object with no feasible pose on any side is rejected before any
    oracle call: the scripted oracle below has no replies, so any
    question it gets fails the test."""

    @pytest.mark.parametrize("region", [
        # 2.1 m deep either way round in a 2.0 m wide region
        make_region("r1", 3.0, 2.0, ("sofa", 2.0, 0.9, "place_along_wall"),
                    [("wardrobe", 2.1, 2.1, "place_front", "face_anchor")]),
        # free cells on three sides, but in front of the sofa (within its
        # length) there is 0.6 m, and the table is 0.8 m deep either way
        make_region("r1", 4.0, 1.5, ("sofa", 2.0, 0.9, "place_along_wall"),
                    [("table", 1.0, 0.8, "place_front", "face_anchor")]),
    ], ids=["too-deep", "no-room-in-front"])
    def test_object_without_feasible_pose_asks_nothing(self, region):
        oracle = ScriptedOracle()
        result = plan_region(region, SearchConfig(seed=0, **REFERENCE_CONFIG), oracle)
        assert result.unsat
        assert result.trace.oracle_calls == 0
        events = result.trace.events
        notes = [e.note for e in events
                 if e.kind is EventKind.REJECTED and e.object_id != region.anchor_id]
        anchors = [e for e in events if e.kind is EventKind.ACCEPTED]
        assert notes == ["no feasible pose"] * len(anchors) and anchors  # one per anchor pose


class TestOneScanPerGrid:
    def test_free_cell_scans_at_most_rasterizations(self, monkeypatch):
        """Each local step, and each centred-anchor facing visit, rasterizes
        one grid and reads its free cells by side from one scan, shared by
        the search and the det policy."""
        from importlib import resources

        from treelayout import kernels
        from treelayout.pipeline import generate_scene

        calls = {"free_cells_on_side": 0, "rasterize_codes": 0}

        def count(name):
            original = getattr(kernels, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(kernels, name, counted)

        for name in calls:
            count(name)
        text = resources.files("treelayout.data").joinpath("prompt_set.txt").read_text("utf-8")
        prompts = [line.strip() for line in text.splitlines() if line.strip()][:10]
        for prompt in prompts:
            for seed in (0, 1):
                for mode in (SearchMode.TREE, SearchMode.COT):
                    config = SearchConfig(seed=seed, mode=mode, p_adv=0.35)
                    generate_scene(prompt, config, DeterministicOracle(seed=seed, p_adv=0.35))
        assert 0 < calls["free_cells_on_side"] <= calls["rasterize_codes"]


class ByQueryOracle:
    """The det oracle, I/O-bound or not, with the replies of chosen queries
    replaced: ``script(q)`` returns the reply text (or raises) for a
    query it picks by content, and None for the det reply.  Answering by
    content, not by order, gives a run that also asks a speculative
    question the replies of the serial run.  Keeps ``(event, query)``
    pairs, ``event`` being "ask" or "done", in the order they happened;
    ``delay(q)`` is the seconds each call waits."""

    def __init__(self, script, io_bound, delay=lambda q: 0.0):
        self.inner = DeterministicOracle(seed=0)
        self.script = script
        self.io_bound = io_bound
        self.delay = delay
        self.log = []
        self._lock = threading.Lock()

    def query(self, q):
        from treelayout.oracle.queries import OracleReply

        with self._lock:
            self.log.append(("ask", q))
        try:
            time.sleep(self.delay(q))
            text = self.script(q)
            return OracleReply(text) if text is not None else self.inner.query(q)
        finally:
            with self._lock:
                self.log.append(("done", q))

    def asked(self, kind):
        return [q for event, q in self.log if event == "ask" and isinstance(q, kind)]


class TestSideEvalOverlap:
    """With an I/O-bound oracle the first primary run question is asked
    while the side-eval is in flight, and dropped unless the eval says
    yes: the recorded run is then the inline one."""

    REGION = make_region(
        "r1", 4.0, 3.0, ("sofa", 2.0, 0.9, "place_along_wall"),
        [("coffee_table", 1.0, 0.6, "place_front", "face_anchor")],
    )

    @staticmethod
    def first_eval(q):
        """The coffee table's first side-eval with the sofa on the bottom
        wall (the first anchor pose; the search backtracks to the top
        wall when it fails)."""
        from treelayout.oracle.queries import SideEvalQuery

        return (isinstance(q, SideEvalQuery) and q.context.object_id == "coffee_table_1"
                and q.context.anchor.yaw is Yaw.DEG_0 and (q.round_no, q.attempt) == (1, 1))

    @staticmethod
    def first_run(q):
        """The primary run question that follows :meth:`first_eval`."""
        from treelayout.oracle.queries import CellsQuery

        return (isinstance(q, CellsQuery) and q.context.object_id == "coffee_table_1"
                and q.context.anchor.yaw is Yaw.DEG_0
                and (q.round_no, q.attempt, q.primary_run) == (1, 1, ()))

    def run(self, script, io_bound, delay=lambda q: 0.0):
        """(result, error, transcript records, oracle) of one search."""
        oracle = ByQueryOracle(script, io_bound, delay)
        recording = RecordingOracle(oracle)
        result = error = None
        try:
            result = plan_region(self.REGION, SearchConfig(seed=0, **REFERENCE_CONFIG), recording)
        except Exception as exc:
            error = exc
        return result, error, recording.transcript.records, oracle

    def script(self, fails=lambda q: False, eval_no=False):
        """Det replies, except that the queries ``fails`` picks raise, and
        the coffee table's first side-eval says no if ``eval_no``."""
        def script(q):
            if fails(q):
                raise OracleFailure(f"lost {type(q).__name__}")
            return "no" if eval_no and self.first_eval(q) else None

        return script

    @staticmethod
    def done_index(oracle, pick):
        return next(i for i, q in enumerate(q for event, q in oracle.log if event == "done")
                    if pick(q))

    def test_eval_yes_uses_the_reply_asked_ahead(self):
        inline, _, records, inline_oracle = self.run(self.script(), False)
        # the eval answers last, so the run question was in flight with it
        over, error, o_records, oracle = self.run(
            self.script(), True, delay=lambda q: 0.02 if self.first_eval(q) else 0.0)
        assert error is None and not inline.unsat
        assert self.done_index(oracle, self.first_run) < self.done_index(oracle, self.first_eval)
        assert o_records == records
        assert over.trace.events == inline.trace.events
        assert over.trace.oracle_calls == inline.trace.oracle_calls == len(records)
        assert over.trace.discarded_calls == 0
        assert len(oracle.log) == len(inline_oracle.log)  # nothing was asked twice

    @pytest.mark.parametrize("run_fails", [False, True], ids=["run-ok", "run-raises"])
    def test_eval_no_drops_the_run_question_asked_ahead(self, run_fails):
        from treelayout.oracle.queries import CellsQuery

        script = self.script(self.first_run if run_fails else lambda q: False, eval_no=True)
        inline, _, records, inline_oracle = self.run(script, False)
        over, error, o_records, oracle = self.run(script, True)
        assert error is None and not inline.unsat
        assert any(": eval no" in e.note for e in inline.trace.events)
        assert not any(self.first_run(q) for q in inline_oracle.asked(CellsQuery))
        dropped = [q for q in oracle.asked(CellsQuery) if self.first_run(q)]
        assert len(dropped) == 1
        assert dropped[0].fp not in {fp for fp, _ in o_records}
        assert o_records == records
        assert over.trace.events == inline.trace.events
        assert over.trace.oracle_calls == inline.trace.oracle_calls == len(records)
        assert (inline.trace.discarded_calls, over.trace.discarded_calls) == (0, 1)

    def test_forced_first_run_asks_the_second_ahead(self):
        """On the left of a sofa flush to a 3.0 m wall there is one column
        run for the lamp, so the run question asked while the eval is in
        flight is the second one."""
        from treelayout.oracle.queries import CellsQuery, SideEvalQuery, SideQuery

        region = make_region("r1", 3.0, 2.0, ("sofa", 2.0, 0.9, "place_along_wall"),
                             [("lamp", 0.5, 0.5, "place_beside", "same_as_anchor")])

        def script(q):
            return "left" if isinstance(q, SideQuery) else None

        def run(io_bound):
            oracle = ByQueryOracle(script, io_bound,
                                   delay=lambda q: 0.02 if isinstance(q, SideEvalQuery) else 0.0)
            recording = RecordingOracle(oracle)
            result = plan_region(region, SearchConfig(seed=0, **REFERENCE_CONFIG), recording)
            return result, recording.transcript.records, oracle

        inline, records, _ = run(False)
        over, o_records, oracle = run(True)
        [asked] = oracle.asked(CellsQuery)
        assert asked.primary_run == (0,)
        assert self.done_index(oracle, lambda q: q is asked) < self.done_index(
            oracle, lambda q: isinstance(q, SideEvalQuery))
        assert o_records == records and over.trace.events == inline.trace.events
        assert [e.note for e in inline.trace.events if e.kind is EventKind.ACCEPTED][-1] == (
            "side=left side_attempt=1 forced=cols")

    @pytest.mark.parametrize("fails", ["eval", "run"])
    def test_error_is_the_serial_runs_error(self, fails):
        script = self.script(self.first_eval if fails == "eval" else self.first_run)
        _, inline_error, records, _ = self.run(script, False)
        # the eval answers last, so the run question asked ahead has
        # finished (and been recorded, unless it failed) when the eval fails
        _, error, o_records, oracle = self.run(
            script, True, delay=lambda q: 0.02 if self.first_eval(q) else 0.0)
        assert isinstance(inline_error, OracleFailure)
        assert type(error) is type(inline_error) and str(error) == str(inline_error)
        assert self.done_index(oracle, self.first_run) < self.done_index(oracle, self.first_eval)
        assert o_records == records
