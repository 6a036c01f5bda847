"""Validity metrics, search statistics, and ablation reporting."""

import pytest

from treelayout.evaluate import (
    MismatchedSeeds,
    ablation_report,
    anchor_visits,
    format_ablation_table,
    search_stats,
    validity_metrics,
)
from treelayout.model import (
    AnchorRule,
    Dim3,
    EventKind,
    ObjectSpec,
    Parent,
    PlacedObject,
    RegionPlan,
    RoomPlan,
    Scene,
    SearchConfig,
    SearchMode,
    SearchTrace,
    Yaw,
)
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.pipeline import generate_scene


def tiny_scene(placements, specs=None, length=4.0, width=3.0):
    specs = specs or [ObjectSpec("a_1", "a", Dim3(1.0, 1.0, 0.5)),
                      ObjectSpec("b_1", "b", Dim3(1.0, 1.0, 0.5))]
    region = RegionPlan(
        id="r1", function="f", length=length, width=width,
        objects=tuple(specs), anchor_id=specs[0].id,
        anchor_rule=AnchorRule.ALONG_WALL, edges=(),
    )
    plan = RoomPlan("room", length, width, (region,), "p")
    return Scene(plan=plan, placements=tuple(placements), trace=SearchTrace())


class TestValidityMetrics:
    def test_stacked_unit_squares_one_overlap(self):
        scene = tiny_scene([
            PlacedObject("a_1", 1.0, 1.0, 0.0, Yaw.DEG_0, Parent.floor("r1")),
            PlacedObject("b_1", 1.2, 1.2, 0.0, Yaw.DEG_0, Parent.floor("r1")),
        ])
        m = validity_metrics(scene)
        assert m.overlap_pairs == 1

    def test_oob_counted(self):
        scene = tiny_scene([
            PlacedObject("a_1", 3.9, 1.0, 0.0, Yaw.DEG_0, Parent.floor("r1")),
        ])
        assert validity_metrics(scene).oob_objects == 1

    def test_placed_ratio(self):
        scene = tiny_scene([
            PlacedObject("a_1", 1.0, 1.0, 0.0, Yaw.DEG_0, Parent.floor("r1")),
        ])
        m = validity_metrics(scene)
        assert m.placed_ratio == 0.5
        assert m.free_area_ratio == pytest.approx(1 - 1.0 / 12.0)

    def test_tree_scene_clean(self):
        scene = generate_scene(
            "A modern bedroom with a comfortable queen-sized bed",
            SearchConfig(seed=0), DeterministicOracle(seed=0),
        )
        m = validity_metrics(scene)
        assert m.clean()

    def test_io_scene_reported_not_asserted(self):
        scene = generate_scene(
            "A modern bedroom with a comfortable queen-sized bed",
            SearchConfig(seed=0, mode=SearchMode.IO), DeterministicOracle(seed=0),
        )
        m = validity_metrics(scene)
        assert m.placed_ratio <= 1.0  # metrics exist; violations allowed


class TestSearchStats:
    def test_no_backtracks_on_easy_run(self):
        scene = generate_scene(
            "A snug living room with a rustic coffee table",
            SearchConfig(seed=3), DeterministicOracle(seed=3),
        )
        stats = search_stats(scene.trace)
        assert stats.oracle_calls == scene.trace.oracle_calls
        assert stats.backtracks >= 0
        assert stats.wall_events == len(scene.trace.events)

    def test_cot_zero_backtracks(self):
        scene = generate_scene(
            "A modern kitchen with a kitchen island",
            SearchConfig(seed=1, mode=SearchMode.COT), DeterministicOracle(seed=1),
        )
        assert search_stats(scene.trace).backtracks == 0

    def test_attempt_budget_parsed_per_visit(self):
        trace = SearchTrace()
        trace.record(1, "a", 1, EventKind.PROPOSED, scope="r1", visit=1,
                     pose=(0.0, 0.0, Yaw.DEG_0))
        trace.record(1, "a", 2, EventKind.REJECTED, "nope", scope="r1", visit=1)
        stats = search_stats(trace)
        assert stats.attempts_per_layer[("r1", 1)] == 2

    def test_anchor_visits_counts_backtracks(self):
        trace = SearchTrace()
        trace.record(1, "a", 1, EventKind.ACCEPTED, scope="r1", visit=1,
                     pose=(0.0, 0.0, Yaw.DEG_0))
        trace.record(1, "a", 0, EventKind.BACKTRACK, "from_layer=2", scope="r1", visit=1)
        trace.record(1, "a", 1, EventKind.ACCEPTED, scope="r1", visit=2,
                     pose=(0.0, 0.0, Yaw.DEG_0))
        assert anchor_visits(trace, "r1") == 2


class TestAblationReport:
    def scenes(self, mode, seeds):
        out = []
        for s in seeds:
            scene = generate_scene(
                "A mid-century living room with retro furniture",
                SearchConfig(seed=s, mode=SearchMode(mode)),
                DeterministicOracle(seed=s),
            )
            out.append((s, scene))
        return out

    def test_three_rows_sorted(self):
        seeds = [0]
        report = ablation_report(
            {m: self.scenes(m, seeds) for m in ("io", "cot", "tree")}
        )
        assert [r.mode for r in report] == ["io", "cot", "tree"]

    def test_missing_mode_raises(self):
        with pytest.raises(MismatchedSeeds):
            ablation_report({"io": self.scenes("io", [0]), "cot": self.scenes("cot", [0])})

    def test_mismatched_seed_sets_raise(self):
        with pytest.raises(MismatchedSeeds):
            ablation_report(
                {
                    "io": self.scenes("io", [0]),
                    "cot": self.scenes("cot", [1]),
                    "tree": self.scenes("tree", [0]),
                }
            )

    def test_table_formats(self):
        report = ablation_report({m: self.scenes(m, [0]) for m in ("io", "cot", "tree")})
        csv_text, human = format_ablation_table(report)
        assert csv_text.splitlines()[0].startswith("mode,runs,")
        assert len(csv_text.splitlines()) == 4
        assert "tree" in human
