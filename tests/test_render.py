"""Scene files, trace files, and SVG rendering (full and step replay)."""

import json

import pytest

from treelayout.evaluate import validity_metrics
from treelayout.model import EventKind, SearchConfig, SearchMode, SearchTrace, Yaw
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.pipeline import generate_scene
from treelayout.render import TraceMismatch, render_scene, replay_placements
from treelayout.sceneio import (
    canonical_json,
    read_scene,
    read_trace,
    scene_to_text,
    write_scene,
    write_text,
    write_trace,
)

PROMPT = "A mid-century living room with retro furniture"


def make_scene(seed=0, prompt=PROMPT, mode=SearchMode.TREE):
    config = SearchConfig(seed=seed, mode=mode)
    return generate_scene(prompt, config, DeterministicOracle(seed=seed))


class TestCanonicalJson:
    def test_sorted_keys_fixed_floats(self):
        text = canonical_json({"b": 1.5, "a": [1.25, {"z": True, "y": None}]})
        assert text.index('"a"') < text.index('"b"')
        assert "1.5000" in text and "1.2500" in text
        assert text.endswith("\n")

    def test_ints_stay_ints(self):
        assert "3\n" == canonical_json(3)


class TestWriteText:
    def test_shorter_write_over_longer_file_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("a much longer first version\n" * 40, "utf-8")
        path.chmod(0o640)
        before = path.stat()
        write_text(path, "short \u00e9\n")
        after = path.stat()
        assert path.read_bytes() == "short \u00e9\n".encode("utf-8")
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_new_file_matches_path_write_text(self, tmp_path):
        write_text(tmp_path / "a.txt", "x\ny\n")
        (tmp_path / "b.txt").write_text("x\ny\n", "utf-8")
        a, b = (tmp_path / "a.txt").stat(), (tmp_path / "b.txt").stat()
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert a.st_mode == b.st_mode


class TestSceneFile:
    def test_roundtrip(self, tmp_path):
        scene = make_scene()
        path = tmp_path / "scene.json"
        write_scene(scene, path)
        loaded = read_scene(path)
        assert loaded.plan.room_type == scene.plan.room_type
        assert len(loaded.placements) == len(scene.placements)
        got = {(p.spec_id, p.x, p.y, p.z, p.yaw) for p in loaded.placements}
        want = {(p.spec_id, p.x, p.y, p.z, p.yaw) for p in scene.placements}
        assert got == want
        # metrics identical after a file round trip
        assert validity_metrics(loaded) == validity_metrics(scene)

    def test_byte_identical_serialization(self):
        a = scene_to_text(make_scene(seed=3))
        b = scene_to_text(make_scene(seed=3))
        assert a == b

    def test_no_timestamps_in_content(self, tmp_path):
        path = tmp_path / "scene.json"
        write_scene(make_scene(), path)
        text = path.read_text()
        assert "20" + "26" not in text  # no dates; prompt text is the only prose

    def test_trace_file_roundtrip(self, tmp_path):
        scene = make_scene()
        path = tmp_path / "trace.jsonl"
        write_trace(scene.trace, path)
        assert read_trace(path) == scene.trace.events

    def test_trace_lines_equal_sorted_json_dumps(self, tmp_path):
        trace = SearchTrace()
        texts = ['say "hi"', "back\\slash \\n", "caf\u00e9 \u5ea7 \U0001f600", "", "tab\tnl\n"]
        for i, text in enumerate(texts):
            trace.record(i, text, i + 1, EventKind.REJECTED, text, scope=text or "r1")
            trace.record(10 + i, "obj", 0, EventKind.PROPOSED, text, scope="top:x", visit=i,
                         pose=(1.0 / 3.0, -2.5, Yaw.DEG_270))
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        want = "".join(
            json.dumps({"layer": e.layer, "object_id": e.object_id, "attempt_no": e.attempt_no,
                        "kind": e.kind.value, "detail": e.detail}, sort_keys=True) + "\n"
            for e in trace.events
        )
        assert path.read_text("utf-8") == want
        write_trace(SearchTrace(), path)
        assert path.read_text("utf-8") == ""


# Multi-region prompts whose runs include supported-object searches,
# layer-0 rejections (a dropped supported set, IO violations) and, at
# p_adv 1.0, backtracking.
SWEEP_PROMPTS = (
    "A cozy compact bathroom with a laundry basket tucked by the vanity",
    "A compact bedroom with a king bed and a work desk",
    "A bright bedroom with a sleeping area and a study corner",
    "A snug living room with a rustic coffee table and warm throw blankets",
)


@pytest.mark.parametrize("mode", [SearchMode.TREE, SearchMode.COT, SearchMode.IO])
@pytest.mark.parametrize("p_adv", [0.0, 1.0])
def test_trace_roundtrip_and_step_replay_sweep(tmp_path, mode, p_adv):
    for prompt in SWEEP_PROMPTS:
        scene = generate_scene(
            prompt, SearchConfig(seed=0, mode=mode, p_adv=p_adv),
            DeterministicOracle(seed=0, p_adv=p_adv),
        )
        path = tmp_path / "trace.jsonl"
        write_trace(scene.trace, path)
        events = read_trace(path)
        assert events == scene.trace.events
        if mode is SearchMode.IO:
            # one reply places everything, so the trace has no steps to replay
            assert scene.placements
            for k in (0, len(events)):
                with pytest.raises(TraceMismatch):
                    render_scene(scene, step=k, events=events)
            continue
        for k in range(len(events) + 1):
            assert render_scene(scene, step=k, events=events) == render_scene(scene, step=k)
        assert render_scene(scene, step=len(events)) == render_scene(scene)


class TestRenderScene:
    def test_svg_has_room_and_labels(self):
        scene = make_scene()
        svg = render_scene(scene)
        assert svg.startswith("<svg")
        for p in scene.placements:
            category = scene.spec_index()[p.spec_id].category
            assert category in svg
        assert "#d9534f" in svg  # anchor highlighted red

    def test_render_deterministic(self):
        scene = make_scene(seed=4)
        assert render_scene(scene) == render_scene(scene)

    def test_step_zero_empty(self):
        scene = make_scene()
        svg = render_scene(scene, step=0)
        assert "<rect" in svg  # the room rectangle
        assert svg.count("<text") == 0

    def test_step_out_of_range(self):
        scene = make_scene()
        with pytest.raises(IndexError):
            render_scene(scene, step=10_000)

    def test_full_replay_matches_scene(self):
        scene = make_scene()
        events = list(scene.trace.events)
        final = replay_placements(scene, events, len(events))
        got = {(p.spec_id, p.x, p.y, p.yaw.value) for p in final}
        want = {(p.spec_id, p.x, p.y, p.yaw.value) for p in scene.placements}
        assert got == want


def find_backtracked_scene(max_seed=200):
    """A generation whose trace backtracks, for replay-fidelity checks."""
    for seed in range(max_seed):
        for prompt in (
            "A snug living room with a rustic coffee table and warm throw blankets",
            "A small bedroom with a comfortable bed",
            "A cozy bathroom with a compact shower and sleek vanity",
        ):
            scene = generate_scene(
                prompt, SearchConfig(seed=seed, p_adv=0.5),
                DeterministicOracle(seed=seed, p_adv=0.5),
            )
            backs = [
                i for i, e in enumerate(scene.trace.events)
                if e.kind is EventKind.BACKTRACK and e.layer >= 1
            ]
            if backs:
                return scene, backs[0]
    raise AssertionError("no backtracking run found")


class TestReplayFidelity:
    def test_backtracked_object_visible_before_removal(self):
        scene, back_idx = find_backtracked_scene()
        event = scene.trace.events[back_idx]
        events = list(scene.trace.events)
        before = replay_placements(scene, events, back_idx)
        after = replay_placements(scene, events, back_idx + 1)
        ids_before = {p.spec_id for p in before}
        ids_after = {p.spec_id for p in after}
        assert event.object_id in ids_before
        assert event.object_id not in ids_after
        svg = render_scene(scene, step=back_idx)
        category = scene.spec_index()[event.object_id].category
        assert category in svg
