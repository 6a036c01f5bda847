"""CLI surface: commands, exit codes, determinism, record/replay."""

import json
import math
import subprocess
import sys

import pytest
from click.testing import CliRunner

from treelayout.cli import main

PROMPT = "A modern bedroom with a comfortable queen-sized bed"


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


class TestGenerate:
    def test_writes_three_outputs(self, tmp_path):
        out = tmp_path / "o"
        result = run_cli([
            "generate", "--oracle", "det", "--seed", "0",
            "--prompt", PROMPT, "--out-dir", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "scene.json").exists()
        assert (out / "scene.svg").exists()
        assert (out / "trace.jsonl").exists()

    def test_unknown_oracle_exit_4(self, tmp_path):
        result = run_cli([
            "generate", "--oracle", "psychic", "--prompt", PROMPT,
            "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 4

    def test_bad_mode_exit_4(self, tmp_path):
        result = run_cli([
            "generate", "--mode", "zen", "--prompt", PROMPT, "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 4

    def test_missing_prompt_exit_4(self, tmp_path):
        result = run_cli(["generate", "--out-dir", str(tmp_path)])
        assert result.exit_code == 4

    def test_cot_mode_no_backtracks(self, tmp_path):
        out = tmp_path / "o"
        result = run_cli([
            "generate", "--mode", "cot", "--seed", "2", "--prompt", PROMPT,
            "--out-dir", str(out),
        ])
        assert result.exit_code in (0, 2)
        events = [
            json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()
        ]
        assert all(e["kind"] != "backtrack" for e in events)

    def test_prompt_file(self, tmp_path):
        pf = tmp_path / "prompt.txt"
        pf.write_text(PROMPT)
        result = run_cli([
            "generate", "--prompt-file", str(pf), "--out-dir", str(tmp_path / "o"),
        ])
        assert result.exit_code == 0

    def test_byte_identical_across_processes(self, tmp_path):
        def run(name):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "treelayout.cli", "generate",
                    "--oracle", "det", "--seed", "9", "--prompt", PROMPT,
                    "--out-dir", str(out),
                ],
                capture_output=True,
            )
            assert proc.returncode in (0, 2), proc.stderr
            return (out / "scene.json").read_bytes()

        assert run("a") == run("b")


class TestRecordReplay:
    def test_record_then_replay_identical(self, tmp_path):
        out1 = tmp_path / "rec"
        transcript = tmp_path / "transcript.jsonl"
        r1 = run_cli([
            "generate", "--oracle", "det", "--seed", "4", "--prompt", PROMPT,
            "--out-dir", str(out1), "--transcript", str(transcript),
        ])
        assert r1.exit_code == 0, r1.output
        assert transcript.exists()

        out2 = tmp_path / "rep"
        r2 = run_cli([
            "replay", str(transcript), "--prompt", PROMPT, "--out-dir", str(out2),
        ])
        assert r2.exit_code == 0, r2.output
        assert (out1 / "scene.json").read_bytes() == (out2 / "scene.json").read_bytes()

    def test_record_then_replay_with_two_global_attempts(self, tmp_path):
        # Each global attempt is its own visit, so a retry asks new queries
        # instead of repeating the failed attempt's fingerprints.
        args = ["--k-other", "2", "--prompt", "A compact bedroom with a king bed and a work desk"]
        transcript = tmp_path / "transcript.jsonl"
        out1, out2 = tmp_path / "rec", tmp_path / "rep"
        r1 = run_cli(["generate", "--seed", "0", "--p-adv", "0.35", *args,
                      "--out-dir", str(out1), "--transcript", str(transcript)])
        assert r1.exit_code in (0, 2), r1.output
        retries = [
            e for e in map(json.loads, (out1 / "trace.jsonl").read_text().splitlines())
            if e["layer"] > 1 and e["attempt_no"] == 2
        ]
        assert retries
        r2 = run_cli(["replay", str(transcript), *args, "--out-dir", str(out2)])
        assert r2.exit_code == r1.exit_code, r2.output
        for name in ("scene.json", "trace.jsonl", "scene.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_edited_transcript_no_crash(self, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        out1 = tmp_path / "rec"
        run_cli([
            "generate", "--oracle", "det", "--seed", "4", "--prompt", PROMPT,
            "--out-dir", str(out1), "--transcript", str(transcript),
        ])
        lines = transcript.read_text().splitlines()
        # overwrite one spatial reply with nonsense
        for i, line in enumerate(lines[1:], 1):
            row = json.loads(line)
            if row["reply"] in ("left", "right", "top", "bottom"):
                row["reply"] = "hmm, unclear"
                lines[i] = json.dumps(row, sort_keys=True)
                break
        transcript.write_text("\n".join(lines) + "\n")
        out2 = tmp_path / "rep"
        r = run_cli([
            "replay", str(transcript), "--prompt", PROMPT, "--out-dir", str(out2),
        ])
        # divergence or incompleteness is fine; a crash or transport error is not
        assert r.exit_code in (0, 2, 3)

    @pytest.mark.parametrize("option, value", [("--seed", "4"), ("--p-adv", "0.35")])
    def test_det_oracle_options_are_usage_errors(self, tmp_path, option, value):
        """replay takes every reply from the transcript; it refuses the
        det oracle's options instead of ignoring them."""
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_text('{"kind": "meta"}\n', "utf-8")
        r = run_cli(["replay", str(transcript), option, value, "--prompt", PROMPT,
                     "--out-dir", str(tmp_path / "o")])
        assert r.exit_code == 4, r.output
        assert f"No such option '{option}'" in r.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("oracle, option, value", [
        ("replay", "--seed", "4"), ("replay", "--p-adv", "0.35"), ("live", "--p-adv", "0.35"),
    ])
    def test_generate_refuses_det_options_of_other_oracles(self, tmp_path, oracle, option, value):
        """``generate`` with a replayed or live oracle refuses the det
        oracle's options it would ignore, before it reads any file."""
        r = run_cli(["generate", "--oracle", oracle, option, value, "--prompt", PROMPT,
                     "--transcript", str(tmp_path / "t.jsonl"),
                     "--live-config", str(tmp_path / "live.json"),
                     "--out-dir", str(tmp_path / "o")])
        assert r.exit_code == 4, r.output
        assert f"{option} is not an option of --oracle {oracle}" in r.output
        assert not (tmp_path / "o").exists()

    def test_replay_missing_transcript_exit_4(self, tmp_path):
        r = run_cli([
            "replay", str(tmp_path / "nope.jsonl"), "--prompt", PROMPT,
            "--out-dir", str(tmp_path / "o"),
        ])
        assert r.exit_code == 4


    @pytest.mark.parametrize("command", ["replay", "generate"])
    @pytest.mark.parametrize("line", [
        "not json",
        "[1, 2]",
        '{"fp": "abc"}',
    ], ids=["not-json", "json-list", "no-reply"])
    def test_malformed_transcript_exit_4(self, tmp_path, command, line):
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_text('{"kind": "meta"}\n' + line + "\n", "utf-8")
        if command == "replay":
            args = ["replay", str(transcript)]
        else:
            args = ["generate", "--oracle", "replay", "--transcript", str(transcript)]
        r = run_cli(args + ["--prompt", PROMPT, "--out-dir", str(tmp_path / "o")])
        assert r.exit_code == 4
        assert "cannot read transcript" in r.output and "line 2" in r.output


    def test_transcript_of_other_template_version_exit_4(self, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_text('{"kind": "meta", "template_version": "old"}\n', "utf-8")
        r = run_cli(["replay", str(transcript), "--prompt", PROMPT,
                     "--out-dir", str(tmp_path / "o")])
        assert r.exit_code == 4
        assert "template version 'old'" in r.output


class TestRender:
    def test_render_and_step(self, tmp_path):
        out = tmp_path / "o"
        run_cli([
            "generate", "--seed", "1", "--prompt", PROMPT, "--out-dir", str(out),
        ])
        target = tmp_path / "step.svg"
        r = run_cli([
            "render", str(out / "scene.json"), "--step", "0", "-o", str(target),
        ])
        assert r.exit_code == 0, r.output
        assert target.exists()

    def test_step_of_io_run_exit_4(self, tmp_path):
        out = tmp_path / "o"
        r = run_cli(["generate", "--mode", "io", "--prompt", PROMPT, "--out-dir", str(out)])
        assert r.exit_code == 0, r.output
        r = run_cli(["render", str(out / "scene.json"), "--step", "0",
                     "-o", str(tmp_path / "x.svg")])
        assert r.exit_code == 4
        assert "no placement steps" in r.output
        assert not (tmp_path / "x.svg").exists()

    def test_bad_step_exit_4(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["generate", "--seed", "1", "--prompt", PROMPT, "--out-dir", str(out)])
        r = run_cli(["render", str(out / "scene.json"), "--step", "99999"])
        assert r.exit_code == 4

    @pytest.mark.parametrize("line", [
        '{"layer": 1}',
        "not json",
        "[1, 2]",
        '{"attempt_no": 1, "detail": "no scope here", "kind": "accepted", '
        '"layer": 1, "object_id": "bed_1"}',
    ], ids=["missing-field", "not-json", "not-an-object", "detail-outside-grammar"])
    def test_bad_trace_exit_4(self, tmp_path, line):
        out = tmp_path / "o"
        run_cli(["generate", "--seed", "1", "--prompt", PROMPT, "--out-dir", str(out)])
        (out / "trace.jsonl").write_text(line + "\n", "utf-8")
        r = run_cli(["render", str(out / "scene.json"), "--step", "0"])
        assert r.exit_code == 4
        assert "cannot read trace" in r.output

    @pytest.mark.parametrize("case", [
        "scene-array", "regions-int", "supported-list", "x-null", "layer-string",
    ])
    def test_wrongly_typed_file_exit_4(self, tmp_path, case):
        """A scene or trace file of valid JSON but the wrong types is a
        read error (exit 4), not a traceback."""
        out = tmp_path / "o"
        run_cli(["generate", "--seed", "1", "--prompt", PROMPT, "--out-dir", str(out)])
        scene, trace = out / "scene.json", out / "trace.jsonl"
        doc = json.loads(scene.read_text("utf-8"))
        records = [json.loads(line) for line in trace.read_text("utf-8").splitlines()]
        if case == "scene-array":
            doc = [doc]
        elif case == "regions-int":
            doc["regions"] = 5
        elif case == "supported-list":
            doc["regions"][0]["supported"] = []
        elif case == "x-null":
            doc["placements"][0]["x"] = None
        else:
            records[0]["layer"] = "1"
        scene.write_text(json.dumps(doc), "utf-8")
        trace.write_text("".join(json.dumps(d) + "\n" for d in records), "utf-8")
        r = run_cli(["render", str(scene), "--step", "1", "-o", str(tmp_path / "x.svg")])
        assert r.exit_code == 4, r.output
        expected = "cannot read trace: trace line 1" if case == "layer-string" else "cannot read scene"
        assert expected in r.output
        assert not (tmp_path / "x.svg").exists()

    def test_trace_naming_unknown_object_exit_4(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["generate", "--seed", "1", "--prompt", PROMPT, "--out-dir", str(out)])
        trace = out / "trace.jsonl"
        records = [json.loads(line) for line in trace.read_text("utf-8").splitlines()]
        first = next(i for i, d in enumerate(records) if d["kind"] == "accepted")
        records[first]["object_id"] = "ghost_1"
        trace.write_text("".join(json.dumps(d) + "\n" for d in records), "utf-8")
        r = run_cli(["render", str(out / "scene.json"), "--step", str(len(records))])
        assert r.exit_code == 4
        assert "trace does not match scene" in r.output

    @pytest.mark.parametrize("step", ["0", "all"])
    def test_trace_of_another_scene_exit_4(self, tmp_path, step):
        # the bedroom run has one region and no supported objects, so none
        # of its scopes is a region or supporter top of the bathroom scene
        bath, bed = tmp_path / "bath", tmp_path / "bed"
        run_cli(["generate", "--seed", "1", "--prompt",
                 "A small bathroom with a bathtub and a sink", "--out-dir", str(bath)])
        run_cli(["generate", "--seed", "1", "--prompt",
                 "A snug bedroom with a comfortable queen-sized bed", "--out-dir", str(bed)])
        foreign = bed / "trace.jsonl"
        n = len(foreign.read_text("utf-8").splitlines())
        r = run_cli([
            "render", str(bath / "scene.json"), "--trace", str(foreign),
            "--step", str(n) if step == "all" else step, "-o", str(tmp_path / "x.svg"),
        ])
        assert r.exit_code == 4
        assert "trace does not match scene" in r.output
        assert not (tmp_path / "x.svg").exists()


class TestAblate:
    def test_small_grid(self, tmp_path):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text(
            "A modern bedroom with a comfortable queen-sized bed\n"
            "A snug living room with a rustic coffee table\n"
        )
        out = tmp_path / "o"
        r = run_cli([
            "ablate", "--prompts", str(prompts), "--seeds", "0,1",
            "--modes", "io,cot,tree", "--out-dir", str(out),
        ])
        assert r.exit_code == 0, r.output
        csv_lines = (out / "ablation.csv").read_text().splitlines()
        assert len(csv_lines) == 4  # header + one row per mode
        assert [line.split(",")[0] for line in csv_lines[1:]] == ["io", "cot", "tree"]
        assert (out / "ablation.txt").exists()

    def test_empty_prompts_exit_4(self, tmp_path):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("\n")
        r = run_cli(["ablate", "--prompts", str(prompts), "--out-dir", str(tmp_path)])
        assert r.exit_code == 4

    @pytest.mark.parametrize("option, value", [("--seed", "3"), ("--mode", "cot")])
    def test_single_run_options_are_usage_errors(self, tmp_path, option, value):
        """ablate sweeps ``--seeds`` and ``--modes``; it refuses the
        single-run forms instead of ignoring them."""
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("A snug living room with a rustic coffee table\n")
        r = run_cli(["ablate", "--prompts", str(prompts), option, value, "--seeds", "0",
                     "--modes", "tree", "--out-dir", str(tmp_path / "o")])
        assert r.exit_code == 4, r.output
        assert f"No such option '{option}'" in r.output
        assert not (tmp_path / "o").exists()


def force_engine_error(monkeypatch, kind, prompt_part="bedroom"):
    """Make generations whose prompt contains ``prompt_part`` end in an
    engine error: a room plan that fails validation, or a cross-region
    overlap at compose."""
    from treelayout import hierarchy, pipeline
    from treelayout.compose import CompositionOverlap

    if kind == "invalid_plan":
        validate = hierarchy.validate_room_plan

        def forced(plan):
            return ["forced violation"] if prompt_part in plan.prompt else validate(plan)

        monkeypatch.setattr(hierarchy, "validate_room_plan", forced)
    else:
        compose = pipeline.compose

        def forced(plan, *args, **kwargs):
            if prompt_part in plan.prompt:
                raise CompositionOverlap("forced overlap")
            return compose(plan, *args, **kwargs)

        monkeypatch.setattr(pipeline, "compose", forced)


class TestEngineErrors:
    """An invalid plan or a compose overlap ends in exit 5, not a traceback."""

    @pytest.mark.parametrize("kind", ["invalid_plan", "composition_overlap"])
    def test_generate_exit_5(self, tmp_path, monkeypatch, kind):
        force_engine_error(monkeypatch, kind)
        out = tmp_path / "o"
        r = run_cli(["generate", "--prompt", PROMPT, "--out-dir", str(out)])
        assert r.exit_code == 5
        assert "engine error" in r.output
        assert not (out / "scene.json").exists()

    @pytest.mark.parametrize("kind", ["invalid_plan", "composition_overlap"])
    def test_replay_exit_5(self, tmp_path, monkeypatch, kind):
        transcript = tmp_path / "transcript.jsonl"
        r1 = run_cli(["generate", "--seed", "4", "--prompt", PROMPT,
                      "--out-dir", str(tmp_path / "rec"), "--transcript", str(transcript)])
        assert r1.exit_code == 0, r1.output
        force_engine_error(monkeypatch, kind)
        r2 = run_cli(["replay", str(transcript), "--prompt", PROMPT,
                      "--out-dir", str(tmp_path / "rep")])
        assert r2.exit_code == 5
        assert "engine error" in r2.output

    @pytest.mark.parametrize("kind", ["invalid_plan", "composition_overlap"])
    def test_ablate_lists_failed_cells(self, tmp_path, monkeypatch, kind):
        force_engine_error(monkeypatch, kind)
        prompts = tmp_path / "prompts.txt"
        prompts.write_text(f"{PROMPT}\nA snug living room with a rustic coffee table\n")
        out = tmp_path / "o"
        r = run_cli(["ablate", "--prompts", str(prompts), "--seeds", "0",
                     "--modes", "cot,tree", "--out-dir", str(out)])
        assert r.exit_code == 0, r.output
        failed = (out / "ablation.txt").read_text().split("failed cells:\n")[1].splitlines()
        assert [line.split(":")[0].strip() for line in failed] == ["prompt 0 seed 0 mode cot"]


class TestPipelineWallSides:
    def test_region_boundaries_marked_in_prompts(self):
        from treelayout.grid import Side
        from treelayout.model import RoomPlan, RegionPlan, ObjectSpec, Dim3, AnchorRule
        from treelayout.pipeline import region_wall_sides

        def region(rid, length):
            spec = ObjectSpec(f"{rid}_o", "sofa", Dim3(1.0, 0.5, 0.5))
            return RegionPlan(id=rid, function="f", length=length, width=3.0,
                              objects=(spec,), anchor_id=spec.id,
                              anchor_rule=AnchorRule.ALONG_WALL, edges=())

        plan = RoomPlan("room", 6.0, 3.0, (region("a", 2.0), region("b", 2.0),
                                           region("c", 2.0)), "p")
        assert region_wall_sides(plan, 0) == frozenset({Side.TOP, Side.BOTTOM, Side.LEFT})
        assert region_wall_sides(plan, 1) == frozenset({Side.TOP, Side.BOTTOM})
        assert region_wall_sides(plan, 2) == frozenset({Side.TOP, Side.BOTTOM, Side.RIGHT})


class TestTooFineCellSize:
    def test_exhausted_vocabulary_is_config_error(self, tmp_path):
        r = run_cli([
            "generate", "--prompt", "A large living room featuring oversized sofas",
            "--cell-size", "0.02", "--out-dir", str(tmp_path / "o"),
        ])
        assert r.exit_code == 4
        assert "too fine" in r.output

    def test_cell_size_off_the_lattice_is_config_error(self, tmp_path):
        r = run_cli([
            "generate", "--prompt", PROMPT, "--cell-size", "0.12345",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert r.exit_code == 4
        assert "multiple of 0.1 mm" in r.output


class TestUsageErrors:
    """Usage errors are configuration errors (exit 4), never click's 2,
    which here means an incomplete layout."""

    @pytest.mark.parametrize("args", [
        ["generate", "--bogus"],
        ["generate", "--prompt", PROMPT, "--seed", "x"],
        ["ablate", "--prompts", "p.txt", "--k-anchor", "many"],
        ["bogus-command"],
        ["--bogus"],
    ], ids=["unknown-option", "bad-seed", "bad-int-option", "unknown-command", "group-option"])
    def test_usage_error_exit_4(self, tmp_path, args):
        result = run_cli(args + (["--out-dir", str(tmp_path)] if args[0] == "generate" else []))
        assert result.exit_code == 4, result.output


class TestLiveConfig:
    @pytest.mark.parametrize("doc, field", [
        ({"endpoint": "https://example.invalid/v1", "model": "m", "temperature": None},
         "temperature"),
        (["endpoint", "model"], "JSON object"),
        ({"endpoint": 5, "model": None}, "field 'endpoint'"),
        ({"model": "m"}, "field 'endpoint'"),
        ({"endpoint": "ftp://example.invalid/v1", "model": "m"}, "field 'endpoint'"),
        ({"endpoint": "example.invalid/v1", "model": "m"}, "field 'endpoint'"),
        ({"endpoint": "https://", "model": "m"}, "field 'endpoint'"),
        ({"endpoint": "https://example.invalid/v1"}, "field 'model'"),
        ({"endpoint": "https://example.invalid/v1", "model": ""}, "field 'model'"),
        ({"endpoint": "https://example.invalid/v1", "model": 7}, "field 'model'"),
        ({"endpoint": "https://example.invalid/v1", "model": "m", "temperature": math.nan},
         "field 'temperature'"),
        ({"endpoint": "https://example.invalid/v1", "model": "m", "timeout_s": 0},
         "field 'timeout_s'"),
        ({"endpoint": "https://example.invalid/v1", "model": "m", "timeout_s": -5},
         "field 'timeout_s'"),
        ({"endpoint": "https://example.invalid/v1", "model": "m", "timeout_s": math.inf},
         "field 'timeout_s'"),
    ], ids=["null-temperature", "top-level-list", "number-endpoint", "missing-endpoint",
            "ftp-endpoint", "schemeless-endpoint", "hostless-endpoint", "missing-model",
            "empty-model", "number-model", "nan-temperature", "zero-timeout",
            "negative-timeout", "infinite-timeout"])
    def test_malformed_live_config_exit_4(self, tmp_path, monkeypatch, doc, field):
        monkeypatch.setenv("TREELAYOUT_API_KEY", "k-test")
        config = tmp_path / "live.json"
        config.write_text(json.dumps(doc), "utf-8")
        result = run_cli([
            "generate", "--oracle", "live", "--live-config", str(config),
            "--prompt", PROMPT, "--out-dir", str(tmp_path / "o"),
        ])
        assert result.exit_code == 4, result.output
        assert field in result.output

    def test_missing_requests_exit_4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TREELAYOUT_API_KEY", "k-test")
        monkeypatch.setitem(sys.modules, "requests", None)
        config = tmp_path / "live.json"
        config.write_text(json.dumps({"endpoint": "https://example.invalid/v1", "model": "m"}))
        result = run_cli([
            "generate", "--oracle", "live", "--live-config", str(config),
            "--prompt", PROMPT, "--out-dir", str(tmp_path / "o"),
        ])
        assert result.exit_code == 4, result.output
        assert "pip install 'treelayout[live]'" in result.output
