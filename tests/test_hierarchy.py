"""Hierarchy builder: parsers, normalization rules, guards, and whole plans."""

import pytest

from treelayout.catalog import AssetCatalog
from treelayout.hierarchy import (
    IdAllocator,
    NotSupportable,
    ParseError,
    build_region,
    build_region_level,
    build_room_level,
    ask_supported,
    build_room_plan,
    number_supported,
    parse_objects_reply,
    parse_region_reply,
    parse_room_reply,
)
from treelayout.model import Dim3, ObjectSpec, SearchTrace, validate_room_plan
from treelayout.oracle.base import OracleFailure, OracleSession, PlacementOracle
from treelayout.oracle.deterministic import DeterministicOracle, load_room_templates
from treelayout.oracle.queries import ObjectsQuery, OracleReply, SupportedQuery

CATALOG = AssetCatalog.default()
TEMPLATES = load_room_templates()


def make_session(oracle=None, trace=None):
    oracle = oracle if oracle is not None else DeterministicOracle(seed=0)
    return OracleSession(oracle, trace if trace is not None else SearchTrace())


class ScriptedOracle(PlacementOracle):
    """Replies from a list, in order; repeats the last one when exhausted.
    Keeps the queries it was asked."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0
        self.asked = []

    def query(self, q):
        reply = self.replies[min(self.calls, len(self.replies) - 1)]
        self.calls += 1
        self.asked.append(q)
        return OracleReply(reply)


class TestParsers:
    def test_room_reply(self):
        got = parse_room_reply("room_type: living room\nlength: 4.2\nwidth: 3.1")
        assert got == ("living room", 4.2, 3.1)

    def test_room_reply_tolerates_prose(self):
        got = parse_room_reply("Sure!\nroom type: bedroom\nLength: 4\nwidth: 3\nDone.")
        assert got == ("bedroom", 4.0, 3.0)

    def test_room_reply_missing_field(self):
        with pytest.raises(ParseError):
            parse_room_reply("room_type: bedroom\nlength: 4.0")

    def test_region_reply(self):
        got = parse_region_reply("rest region: 0.6\nwork region: 0.4")
        assert got == [("rest region", 0.6), ("work region", 0.4)]

    @pytest.mark.parametrize("parse,text", [
        (parse_room_reply, "room_type: bedroom\nlength: 4.5.\nwidth: 3"),
        (parse_room_reply, "room_type: bedroom\nlength: 4\nwidth: ."),
        (parse_region_reply, "sleeping: 0.6.\nwork: 0.4"),
    ])
    def test_malformed_number_is_a_parse_error(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("text", [
        "room_type: bedroom\nlength: 0.00001\nwidth: 3",
        "room_type: bedroom\nlength: 4\nwidth: 0.00004",
    ])
    def test_room_size_rounding_to_zero_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_room_reply(text)

    def test_objects_reply(self):
        text = (
            "bed 2.0 x 1.6 x 0.5 | anchor | place_along_wall\n"
            "nightstand 0.5 x 0.4 x 0.55 | place_beside | same_as_anchor"
        )
        got = parse_objects_reply(text)
        assert got[0].anchor_rule is not None
        assert got[1].relation is not None and got[1].orientation is not None

    def test_objects_reply_needs_one_anchor(self):
        with pytest.raises(ParseError):
            parse_objects_reply("bed 2 x 1.6 x 0.5 | place_beside | same_as_anchor")


class TestRoomLevel:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            build_room_level("", make_session())

    @pytest.mark.parametrize(
        "prompt,band",
        [
            ("A snug living room with a rustic coffee table", "small"),
            ("medium bedroom", "medium"),
            ("A living room featuring oversized sofas and a projector setup", "large"),
        ],
    )
    def test_size_bands(self, prompt, band):
        lo, hi = TEMPLATES["size_bands"][band]
        for seed in range(8):
            _, (length, width) = build_room_level(prompt, make_session(DeterministicOracle(seed=seed)))
            assert lo <= length * width <= hi

    def test_room_type_detection(self):
        room_type, _ = build_room_level("A modern kitchen with an island", make_session())
        assert room_type == "kitchen"

    def test_oracle_failure_after_retries(self):
        session = make_session(ScriptedOracle(["not parseable"]))
        with pytest.raises(OracleFailure):
            build_room_level("a bedroom", session)

    def test_malformed_number_ends_in_oracle_failure(self):
        session = make_session(ScriptedOracle(["room_type: bedroom\nlength: 4.5.\nwidth: 3"]))
        with pytest.raises(OracleFailure):
            build_room_level("a bedroom", session)


class TestRegionLevel:
    def test_lengths_tile_exactly(self):
        for seed in range(10):
            session = make_session(DeterministicOracle(seed=seed))
            regions = build_region_level("bedroom", 5.0, 4.0, "a bedroom", session)
            assert sum(length for _, length in regions) == pytest.approx(5.0, abs=1e-9)
            assert 1 <= len(regions) <= 3

    def test_short_room_collapses_to_one_region(self):
        session = make_session(ScriptedOracle(["rest region: 0.5\nwork region: 0.5"]))
        regions = build_region_level("bedroom", 1.8, 1.5, "tiny bedroom", session)
        assert len(regions) == 1
        assert regions[0][1] == pytest.approx(1.8)

    def test_min_region_length_respected(self):
        session = make_session(ScriptedOracle(["rest region: 0.9\nwork region: 0.1"]))
        regions = build_region_level("bedroom", 5.0, 4.0, "a bedroom", session)
        assert all(length >= 1.0 for _, length in regions)

    def test_bathroom_never_has_rest_region(self):
        for seed in range(30):
            session = make_session(DeterministicOracle(seed=seed))
            regions = build_region_level(
                "bathroom", 3.5, 2.5, "a modern bathroom with a spacious shower", session
            )
            assert all("rest" not in function for function, _ in regions)

    def test_kitchen_never_has_dining_region(self):
        for seed in range(30):
            session = make_session(DeterministicOracle(seed=seed))
            regions = build_region_level("kitchen", 4.5, 3.5, "a modern kitchen", session)
            assert all("dining" not in function for function, _ in regions)


def scripted_region(replies, length=2.0, width=2.0, ids=None):
    """``build_region`` over a scripted oracle; the plan, the oracle and the trace."""
    oracle = ScriptedOracle(replies)
    session = make_session(oracle)
    plan = build_region(
        "r1", "test region", length, width, "bedroom", "a bedroom",
        session, CATALOG, ids if ids is not None else IdAllocator(),
    )
    return plan, oracle, session.trace


class TestFloorObjectLevel:
    def build(self, seed=0, length=3.2, width=4.0):
        session = make_session(DeterministicOracle(seed=seed))
        plan = build_region(
            "r1", "rest region", length, width, "bedroom", "a bedroom",
            session, CATALOG, IdAllocator(),
        )
        return list(plan.objects), plan.anchor_id, plan.anchor_rule, list(plan.edges), session.trace

    def test_exactly_one_anchor_and_edges(self):
        objects, anchor_id, _rule, edges, _ = self.build()
        assert anchor_id in {o.id for o in objects}
        non_anchor = [o for o in objects if o.id != anchor_id]
        assert len(edges) == len(non_anchor)
        assert {e.object_id for e in edges} == {o.id for o in non_anchor}

    def test_dims_within_catalog_range(self):
        objects, *_ = self.build()
        for o in objects:
            entry = CATALOG.entry(o.category)
            for axis in ("length", "depth", "height"):
                v = getattr(o.dims, axis)
                assert getattr(entry.min_dims, axis) <= v <= getattr(entry.max_dims, axis)

    def test_area_guard_drops_and_records(self):
        # A region tiny enough that the template set cannot all fit: the
        # anchor is always kept, every further object respects the ratio.
        objects, anchor_id, _rule, _edges, trace = self.build(length=1.6, width=2.2)
        assert anchor_id in {o.id for o in objects}
        total = sum(o.dims.footprint_area for o in objects)
        if len(objects) > 1:
            assert total <= 0.7 * 1.6 * 2.2 + 1e-9
        dropped = [e for e in trace.events if "area guard" in e.detail]
        assert dropped

    def test_rest_region_template_seed0(self):
        # frozen deterministic-oracle output for (seed 0, rest region 3.2x4.0)
        objects, anchor_id, rule, edges, _ = self.build(seed=0)
        assert [(o.id, o.category) for o in objects] == [
            ("bed_1", "bed"), ("nightstand_1", "nightstand"),
        ]
        assert anchor_id == "bed_1"
        assert rule.value == "place_along_wall"
        assert [(e.object_id, e.relation.value, e.orientation_rule.value) for e in edges] == [
            ("nightstand_1", "place_beside", "same_as_anchor"),
        ]

    def test_single_object_region_no_edges(self):
        plan, _, _ = scripted_region(["wardrobe 1.2 x 0.6 x 2.0 | anchor | place_along_wall"])
        assert len(plan.objects) == 1
        assert plan.anchor_id == plan.objects[0].id
        assert plan.edges == ()

    def test_guard_dropped_proposal_keeps_its_id(self):
        # region 2 x 2: the guard allows 2.8 m^2 of footprint; the first
        # sofa (2.8 m^2) would push the total past it, the second fits
        plan, _, trace = scripted_region([
            "desk 1.2 x 0.6 x 0.75 | anchor | place_along_wall\n"
            "sofa 2.5 x 1.12 x 0.8 | place_front | face_anchor\n"
            "sofa 1.5 x 0.68 x 0.8 | place_front | face_anchor",
            "none",
        ])
        assert [o.id for o in plan.objects] == ["desk_1", "sofa_2"]
        assert [e.object_id for e in plan.edges] == ["sofa_2"]
        assert [e.object_id for e in trace.events if "area guard" in e.detail] == ["sofa_1"]

    def test_unknown_category_costs_one_retry_and_no_id(self):
        ids = IdAllocator()
        plan, oracle, _ = scripted_region([
            "bed 2.0 x 1.6 x 0.5 | anchor | place_along_wall\n"
            "zeppelin 1.0 x 1.0 x 1.0 | place_beside | same_as_anchor",
            "bed 2.0 x 1.6 x 0.5 | anchor | place_along_wall",
        ], length=3.0, width=3.0, ids=ids)
        assert oracle.calls == 2
        assert [(type(q), q.attempt) for q in oracle.asked] == [
            (ObjectsQuery, 1), (ObjectsQuery, 2),
        ]
        assert [o.id for o in plan.objects] == ["bed_1"]
        assert ids.make("bed") == "bed_2"

    def test_no_supported_query_for_dropped_supporter(self):
        # region 3 x 2.5: the guard allows 5.25 m^2; the bed takes 5.0, so
        # the dresser (supportable, 0.5 m^2) is dropped and the nightstand kept
        plan, oracle, trace = scripted_region([
            "bed 2.5 x 2.0 x 0.5 | anchor | place_along_wall\n"
            "dresser 1.0 x 0.5 x 0.8 | place_beside | same_as_anchor\n"
            "nightstand 0.5 x 0.4 x 0.55 | place_beside | same_as_anchor",
            "none",
        ], length=3.0, width=2.5)
        assert [o.id for o in plan.objects] == ["bed_1", "nightstand_1"]
        assert [e.object_id for e in trace.events if "area guard" in e.detail] == ["dresser_1"]
        asked = [q.floor_object_id for q in oracle.asked if isinstance(q, SupportedQuery)]
        assert asked == ["nightstand_1"]


def build_supported(spec, session):
    """The supported set of ``spec``: both halves of the supported level."""
    return number_supported(spec, ask_supported(spec, session, CATALOG), IdAllocator(),
                            session.trace, "r1")


class TestSupportedLevel:
    def test_not_supportable(self):
        spec = ObjectSpec("wardrobe_1", "wardrobe", Dim3(1.2, 0.6, 2.0), supportable=False)
        with pytest.raises(NotSupportable):
            build_supported(spec, make_session())

    def test_desk_gets_supported_objects(self):
        spec = ObjectSpec("desk_1", "desk", Dim3(1.2, 0.6, 0.75), supportable=True)
        found = False
        lamp_and_monitor = False
        for seed in range(12):
            sub = build_supported(spec, make_session(DeterministicOracle(seed=seed)))
            if sub.objects:
                found = True
                if {o.category for o in sub.objects} == {"desk_lamp", "monitor"}:
                    lamp_and_monitor = True
                for o in sub.objects:
                    assert o.dims.length < spec.dims.length
                    assert o.dims.depth < spec.dims.depth
                local_anchor = max(sub.objects, key=lambda s: (s.dims.footprint_area, s.id))
                assert all(e.object_id != local_anchor.id for e in sub.edges)
                assert len(sub.edges) == len(sub.objects) - 1
        assert found
        assert lamp_and_monitor

    def test_oversized_proposals_rejected(self):
        spec = ObjectSpec("nightstand_1", "nightstand", Dim3(0.4, 0.35, 0.55), supportable=True)
        oracle = ScriptedOracle(["monitor 0.5 x 0.2 x 0.4 | place_around"])
        trace = SearchTrace()
        sub = build_supported(spec, make_session(oracle, trace))
        assert sub.objects == ()
        assert any("larger than" in e.detail for e in trace.events)


class TestWholePlan:
    @pytest.mark.parametrize("prompt", [
        "A modern bedroom with a comfortable queen-sized bed",
        "A cozy bathroom with a compact shower and sleek vanity",
        "A modern kitchen with a kitchen island and stainless-steel finishes",
        "A mid-century living room with retro furniture",
    ])
    def test_plan_validates_clean(self, prompt):
        for seed in (0, 1, 2):
            session = make_session(DeterministicOracle(seed=seed))
            plan = build_room_plan(prompt, session, CATALOG)
            assert validate_room_plan(plan) == []

    def test_byte_identical_across_runs(self):
        from treelayout.sceneio import canonical_json, scene_to_doc
        from treelayout.model import Scene

        def build():
            session = make_session(DeterministicOracle(seed=7))
            plan = build_room_plan(
                "A mid-century living room with retro furniture", session, CATALOG
            )
            return canonical_json(
                scene_to_doc(Scene(plan=plan, placements=(), trace=SearchTrace()))
            )

        assert build() == build()


class TestRoomTypeFallback:
    def test_unrecognized_room_defaults_to_living_room(self):
        room_type, dims = build_room_level("A cozy study for reading", make_session())
        assert room_type == "living room"
        lo, hi = TEMPLATES["size_bands"]["small"]
        assert lo <= dims[0] * dims[1] <= hi
