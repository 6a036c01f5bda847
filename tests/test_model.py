import math

import pytest
from hypothesis import given, strategies as st

from treelayout.model import (
    AABB,
    AnchorRule,
    Dim3,
    Edge,
    EventKind,
    ObjectSpec,
    OrientationRule,
    RegionPlan,
    RoomPlan,
    SearchConfig,
    SearchMode,
    SpatialRelation,
    TraceEvent,
    Yaw,
    effective_aabb,
    units,
    validate_room_plan,
)


def make_region(region_id="r1", length=3.0, width=4.0, categories=("bed", "nightstand")):
    objects = tuple(
        ObjectSpec(id=f"{c}_{i}", category=c, dims=Dim3(1.0, 0.5, 0.5))
        for i, c in enumerate(categories, 1)
    )
    edges = tuple(
        Edge(o.id, SpatialRelation.PLACE_BESIDE, OrientationRule.SAME_AS_ANCHOR)
        for o in objects[1:]
    )
    return RegionPlan(
        id=region_id,
        function="rest region",
        length=length,
        width=width,
        objects=objects,
        anchor_id=objects[0].id,
        anchor_rule=AnchorRule.ALONG_WALL,
        edges=edges,
    )


class TestDim3:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Dim3(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Dim3(1.0, -2.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dim3(math.inf, 1.0, 1.0)
        with pytest.raises(ValueError):
            Dim3(1.0, math.nan, 1.0)


class TestEffectiveAabb:
    def test_yaw_0(self):
        box = effective_aabb(Dim3(2, 1, 1), Yaw.DEG_0, (0.0, 0.0))
        assert (box.x0, box.y0, box.x1, box.y1) == (-100_000, -50_000, 100_000, 50_000)

    def test_yaw_90_swaps_extents(self):
        box = effective_aabb(Dim3(2, 1, 1), Yaw.DEG_90, (0.0, 0.0))
        assert (box.x0, box.y0, box.x1, box.y1) == (-50_000, -100_000, 50_000, 100_000)

    def test_yaw_180_preserves_aabb(self):
        box = effective_aabb(Dim3(2, 1, 1), Yaw.DEG_180, (3.0, 2.0))
        assert (box.x0, box.y0, box.x1, box.y1) == (200_000, 150_000, 400_000, 250_000)

    @given(
        st.floats(0.1, 5.0), st.floats(0.1, 5.0),
        st.floats(-10, 10), st.floats(-10, 10),
        st.sampled_from(list(Yaw)),
    )
    def test_opposite_yaw_same_rect(self, length, depth, cx, cy, yaw):
        dims = Dim3(length, depth, 1.0)
        a = effective_aabb(dims, yaw, (cx, cy))
        b = effective_aabb(dims, yaw.opposite, (cx, cy))
        assert a == b

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.sampled_from(list(Yaw)))
    def test_area_invariant(self, length, depth, yaw):
        dims = Dim3(length, depth, 1.0)
        box = effective_aabb(dims, yaw, (0.0, 0.0))
        assert (box.x1 - box.x0) * (box.y1 - box.y0) == units(dims.length) * units(dims.depth)


class TestAabb:
    """Corners are whole units."""

    def test_shared_edge_does_not_overlap(self):
        a = AABB(0, 0, 1, 1)
        b = AABB(1, 0, 2, 1)
        assert not a.overlaps(b)


class TestValidateRoomPlan:
    def test_valid_plan_empty_report(self):
        plan = RoomPlan(
            room_type="bedroom", length=5.0, width=4.0,
            regions=(make_region("r1", 3.0, 4.0, ("bed", "nightstand")),
                     make_region("r2", 2.0, 4.0, ("desk", "office_chair"))),
            prompt="p",
        )
        assert validate_room_plan(plan) == []

    def test_length_mismatch_reported(self):
        plan = RoomPlan(
            room_type="bedroom", length=5.0, width=4.0,
            regions=(make_region("r1", 3.0, 4.0, ("bed",)),
                     make_region("r2", 3.0, 4.0, ("desk",))),
            prompt="p",
        )
        report = validate_room_plan(plan)
        assert any("sum" in v for v in report)

    def test_duplicate_edge_reported(self):
        region = make_region()
        doubled = RegionPlan(
            id=region.id, function=region.function, length=region.length,
            width=region.width, objects=region.objects, anchor_id=region.anchor_id,
            anchor_rule=region.anchor_rule, edges=region.edges + region.edges,
        )
        plan = RoomPlan("bedroom", doubled.length, doubled.width, (doubled,), "p")
        assert any("duplicate edge" in v for v in validate_room_plan(plan))

    def test_width_mismatch_reported(self):
        plan = RoomPlan(
            room_type="bedroom", length=3.0, width=4.5,
            regions=(make_region("r1", 3.0, 4.0),), prompt="p",
        )
        assert any("width" in v for v in validate_room_plan(plan))

    def test_pure(self):
        plan = RoomPlan("bedroom", 3.0, 4.0, (make_region(),), "p")
        assert validate_room_plan(plan) == validate_room_plan(plan)


class TestSearchConfig:
    def test_cot_forces_k_to_one(self):
        cfg = SearchConfig(k_global_anchor=3, k_local_side=2, mode=SearchMode.COT)
        assert cfg.k_global_anchor == 1
        assert cfg.k_global_other == 1
        assert cfg.k_local_side == 1
        assert cfg.k_local_axis == 1

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            SearchConfig(k_global_anchor=0)
        with pytest.raises(ValueError):
            SearchConfig(cell_size=0.0)
        with pytest.raises(ValueError):
            SearchConfig(cell_size=0.12345)  # not a multiple of 0.1 mm
        with pytest.raises(ValueError):
            SearchConfig(cell_size=math.inf)


class TestValidatePlanMore:
    def test_anchor_with_edge_reported(self):
        region = make_region()
        bad = RegionPlan(
            id=region.id, function=region.function, length=region.length,
            width=region.width, objects=region.objects, anchor_id=region.anchor_id,
            anchor_rule=region.anchor_rule,
            edges=region.edges + (Edge(region.anchor_id, SpatialRelation.PLACE_BESIDE,
                                       OrientationRule.SAME_AS_ANCHOR),),
        )
        plan = RoomPlan("bedroom", bad.length, bad.width, (bad,), "p")
        assert any("must not carry an edge" in v for v in validate_room_plan(plan))

    def test_missing_edge_reported(self):
        region = make_region()
        bad = RegionPlan(
            id=region.id, function=region.function, length=region.length,
            width=region.width, objects=region.objects, anchor_id=region.anchor_id,
            anchor_rule=region.anchor_rule, edges=(),
        )
        plan = RoomPlan("bedroom", bad.length, bad.width, (bad,), "p")
        assert any("has no edge" in v for v in validate_room_plan(plan))


class TestTraceEvent:
    def event(self, **fields):
        return TraceEvent(1, "bed_1", 2, EventKind.ACCEPTED, **fields)

    def test_detail_renders_fields_in_grammar_order(self):
        e = self.event(scope="r1", visit=3, note="anchor=bottom",
                       pose=(1.23456, -0.5, Yaw.DEG_90))
        assert e.pose == (1.2346, -0.5, Yaw.DEG_90)
        assert e.detail == "scope=r1 visit=3 anchor=bottom x=1.2346 y=-0.5000 yaw=90"
        assert self.event(scope="io").detail == "scope=io"

    @pytest.mark.parametrize("fields", [
        {"scope": "r1"},
        {"scope": "io", "note": "violations overlap=1 oob=0 relation=0"},
        {"scope": "r2", "note": "area guard: 3.20 > 0.6 x 4.00"},
        {"scope": "top:desk_1", "visit": 1, "note": "from_layer=2"},
        {"scope": "r2", "visit": 2, "pose": (0.825, 1.025, Yaw.DEG_270)},
        {"scope": "r1", "visit": 1, "note": "side=left cols=3+2 rows=1+4",
         "pose": (2.0, 0.0, Yaw.DEG_0)},
        {"scope": "r1", "note": "x=1 in the note", "pose": (0.0, 0.0, Yaw.DEG_180)},
    ])
    def test_from_detail_inverts_detail(self, fields):
        e = self.event(**fields)
        assert TraceEvent.from_detail(e.layer, e.object_id, e.attempt_no, e.kind, e.detail) == e

    @pytest.mark.parametrize("detail", [
        "", "visit=1 scope=r1", "scope=", "scope=r1\tvisit=1", None,
    ])
    def test_from_detail_rejects_lines_outside_grammar(self, detail):
        with pytest.raises(ValueError):
            TraceEvent.from_detail(1, "a", 1, EventKind.PROPOSED, detail)
