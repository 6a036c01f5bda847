"""Region composition and supported-object frame attachment."""

import random

import pytest

from treelayout.compose import CompositionOverlap, attach_supported, compose
from treelayout.model import (
    AABB,
    AnchorRule,
    Dim3,
    ObjectSpec,
    Parent,
    PlacedObject,
    RegionPlan,
    RoomPlan,
    SearchConfig,
    SearchTrace,
    SupportedSet,
    Yaw,
    units,
)
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.search import plan_region


def region_with(region_id, length, width, specs, supported=None):
    return RegionPlan(
        id=region_id, function="f", length=length, width=width,
        objects=tuple(specs), anchor_id=specs[0].id, anchor_rule=AnchorRule.ALONG_WALL,
        edges=(), supported=supported or {},
    )


class TestCompose:
    def test_offset_translation(self):
        a = ObjectSpec("a_1", "a", Dim3(0.5, 0.5, 0.5))
        b = ObjectSpec("b_1", "b", Dim3(0.5, 0.5, 0.5))
        plan = RoomPlan(
            "room", 5.0, 4.0,
            (region_with("r1", 3.0, 4.0, [a]), region_with("r2", 2.0, 4.0, [b])),
            "p",
        )
        scene = compose(
            plan,
            {
                "r1": [PlacedObject("a_1", 1.0, 2.0, 0.0, Yaw.DEG_0, Parent.floor("r1"))],
                "r2": [PlacedObject("b_1", 1.0, 2.0, 0.0, Yaw.DEG_0, Parent.floor("r2"))],
            },
            SearchTrace(),
        )
        xs = {p.spec_id: p.x for p in scene.placements}
        assert xs == {"a_1": 1.0, "b_1": 4.0}

    def test_single_region_identity(self):
        a = ObjectSpec("a_1", "a", Dim3(0.5, 0.5, 0.5))
        plan = RoomPlan("room", 3.0, 4.0, (region_with("r1", 3.0, 4.0, [a]),), "p")
        scene = compose(
            plan, {"r1": [PlacedObject("a_1", 1.2, 0.7, 0.0, Yaw.DEG_90, Parent.floor("r1"))]},
            SearchTrace(),
        )
        assert (scene.placements[0].x, scene.placements[0].y) == (1.2, 0.7)

    def test_unsat_region_recorded(self):
        a = ObjectSpec("a_1", "a", Dim3(0.5, 0.5, 0.5))
        b = ObjectSpec("b_1", "b", Dim3(0.5, 0.5, 0.5))
        plan = RoomPlan(
            "room", 5.0, 4.0,
            (region_with("r1", 3.0, 4.0, [a]), region_with("r2", 2.0, 4.0, [b])),
            "p",
        )
        scene = compose(plan, {"r1": []}, SearchTrace(), unsat_regions=("r2",))
        assert scene.unsat_regions == ("r2",)
        assert scene.placements == ()

    def test_no_cross_region_overlap_over_seeded_scenes(self):
        rng = random.Random(11)
        for trial in range(100):
            specs1 = [ObjectSpec("s_1", "sofa", Dim3(1.6, 0.8, 0.5))]
            specs2 = [ObjectSpec("t_1", "dining_table", Dim3(1.2, 0.9, 0.75))]
            r1 = region_with("r1", rng.choice([2.5, 3.0]), 3.0, specs1)
            r2 = region_with("r2", rng.choice([2.0, 2.5]), 3.0, specs2)
            plan = RoomPlan("room", r1.length + r2.length, 3.0, (r1, r2), "p")
            config = SearchConfig(seed=trial)
            sols = {}
            for region in (r1, r2):
                res = plan_region(region, config, DeterministicOracle(seed=trial))
                assert not res.unsat
                sols[region.id] = list(res.placements)
            scene = compose(plan, sols, SearchTrace())  # raises on cross overlap
            room = AABB(0, 0, units(plan.length), units(plan.width))
            for p in scene.placements:
                spec = scene.spec_index()[p.spec_id]
                assert room.contains(p.aabb(spec.dims))

    def test_composition_overlap_is_internal_error(self):
        a = ObjectSpec("a_1", "a", Dim3(1.0, 1.0, 0.5))
        b = ObjectSpec("b_1", "b", Dim3(1.0, 1.0, 0.5))
        plan = RoomPlan(
            "room", 4.0, 4.0,
            (region_with("r1", 2.0, 4.0, [a]), region_with("r2", 2.0, 4.0, [b])),
            "p",
        )
        # b placed outside its own region interval so it lands on top of a
        with pytest.raises(CompositionOverlap):
            compose(
                plan,
                {
                    "r1": [PlacedObject("a_1", 1.5, 2.0, 0.0, Yaw.DEG_0, Parent.floor("r1"))],
                    "r2": [PlacedObject("b_1", -0.5, 2.0, 0.0, Yaw.DEG_0, Parent.floor("r2"))],
                },
                SearchTrace(),
            )


class TestAttachSupported:
    def scene_with_supporter(self, yaw=Yaw.DEG_0):
        desk = ObjectSpec("desk_1", "desk", Dim3(1.2, 0.6, 0.75), supportable=True)
        lamp = ObjectSpec("lamp_1", "desk_lamp", Dim3(0.15, 0.15, 0.4))
        region = region_with(
            "r1", 4.0, 3.0, [desk],
            supported={"desk_1": SupportedSet(objects=(lamp,), edges=())},
        )
        plan = RoomPlan("room", 4.0, 3.0, (region,), "p")
        scene = compose(
            plan, {"r1": [PlacedObject("desk_1", 2.0, 1.0, 0.0, yaw, Parent.floor("r1"))]},
            SearchTrace(),
        )
        return scene, desk, lamp

    def test_translation_yaw0(self):
        scene, desk, lamp = self.scene_with_supporter()
        out = attach_supported(
            scene,
            {"desk_1": [PlacedObject("lamp_1", 0.1, 0.1, 0.75, Yaw.DEG_0,
                                     Parent.supporter("desk_1"))]},
        )
        placed = next(p for p in out.placements if p.spec_id == "lamp_1")
        # desk center (2.0, 1.0); local (0.1, 0.1) from a 1.2 x 0.6 face
        assert (placed.x, placed.y, placed.z) == (1.5, 0.8, 0.75)

    def test_rotated_supporter_frame_brute_force(self):
        rng = random.Random(3)
        for yaw in list(Yaw):
            scene, desk, lamp = self.scene_with_supporter(yaw=yaw)
            local = PlacedObject(
                "lamp_1", rng.uniform(0.1, 1.1), rng.uniform(0.1, 0.5), 0.75,
                Yaw.DEG_90, Parent.supporter("desk_1"),
            )
            out = attach_supported(scene, {"desk_1": [local]})
            placed = next(p for p in out.placements if p.spec_id == "lamp_1")
            # brute-force transform composition (room coords are 4-decimal
            # quantized, so compare at that tolerance)
            import math

            theta = {0: 0.0, 90: -math.pi / 2, 180: math.pi, 270: math.pi / 2}[yaw.value]
            dx, dy = local.x - 0.6, local.y - 0.3
            ex = 2.0 + dx * math.cos(theta) - dy * math.sin(theta)
            ey = 1.0 + dx * math.sin(theta) + dy * math.cos(theta)
            assert placed.x == pytest.approx(ex, abs=1e-4)
            assert placed.y == pytest.approx(ey, abs=1e-4)
            assert placed.yaw is Yaw.of(90 + yaw.value)
            # containment in the rotated supporter box
            desk_placed = next(p for p in out.placements if p.spec_id == "desk_1")
            sup_box = desk_placed.aabb(desk.dims)
            assert sup_box.contains(placed.aabb(lamp.dims))

    def test_no_supported_unchanged(self):
        scene, *_ = self.scene_with_supporter()
        out = attach_supported(scene, {})
        assert out.placements == scene.placements

    def test_escape_is_internal_error(self):
        scene, desk, lamp = self.scene_with_supporter()
        with pytest.raises(CompositionOverlap):
            attach_supported(
                scene,
                {"desk_1": [PlacedObject("lamp_1", 1.19, 0.59, 0.75, Yaw.DEG_0,
                                         Parent.supporter("desk_1"))]},
            )
