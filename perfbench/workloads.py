"""The benchmark's workloads: inputs, the timed generation, and output checks.

One timed generation builds the oracle, runs ``generate_scene`` and writes
``scene.json``, ``trace.jsonl`` and ``scene.svg`` the way ``treelayout
generate`` does (plus the transcript where the workload records one).
Functions of the program are looked up on their modules at call time, so
the traced run sees the wrapped versions.

Why these workloads:

* ``det-sweep`` is the CPU-bound path: the det oracle's policy takes most
  of the time, so policy and grid-kernel work shows here and oracle
  round-trip overlap cannot.
* ``replay-adversarial`` replays transcripts recorded at ``p_adv=1.0``
  (heavy backtracking).  The oracle is a table lookup, so search, grid,
  fingerprint and serialization work dominates; a policy gain should
  read "no change" here.
* ``live-latency`` puts a fixed delay on every oracle call and records a
  transcript, as a live model run does; oracle waiting dominates, so
  overlapping round trips shows here and engine work barely does.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from treelayout import pipeline, render, sceneio
from treelayout.catalog import AssetCatalog
from treelayout.model import Scene, SearchConfig, SearchMode
from treelayout.oracle.deterministic import DeterministicOracle, load_room_templates
from treelayout.oracle.transcript import RecordingOracle, ReplayOracle

from latency import LatencyOracle

CELL_SIZE = 0.25
OUTPUT_FILES = ("scene.json", "trace.jsonl", "scene.svg")
TRANSCRIPT_FILE = "transcript.jsonl"
# The transcript header carries the wall-clock recording time; it is the
# only byte of the outputs that may differ between identical generations.
_RECORDED_AT_RE = re.compile(rb'"recorded_at": "[^"]*"')


@dataclass(frozen=True)
class Input:
    index: int
    prompt_index: int
    prompt: str
    oracle_seed: int
    mode: SearchMode


@dataclass
class Context:
    """State shared by every generation of one run."""

    catalog: AssetCatalog
    templates: dict
    out_dir: Path
    transcript_dir: Path


def load_prompts() -> list[str]:
    text = resources.files("treelayout.data").joinpath("prompt_set.txt").read_text("utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


def write_outputs(scene: Scene, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    sceneio.write_scene(scene, out / "scene.json")
    sceneio.write_trace(scene.trace, out / "trace.jsonl")
    (out / "scene.svg").write_text(render.render_scene(scene), "utf-8")


def files_digest(out: Path, names: tuple[str, ...]) -> tuple[str, int]:
    """SHA-256 over the named files' bytes, and the byte count."""
    h = hashlib.sha256()
    size = 0
    for name in names:
        data = (out / name).read_bytes()
        size += len(data)
        if name == TRANSCRIPT_FILE:
            data = _RECORDED_AT_RE.sub(b'"recorded_at": ""', data)
        h.update(name.encode("utf-8") + b"\0" + len(data).to_bytes(8, "big") + data)
    return h.hexdigest(), size


def oracle_seed(seed: int, prompt_index: int, k: int, mode: SearchMode) -> int:
    """The k-th oracle seed of one prompt and mode under run seed ``seed``.

    Seeds are hashed per input: an oracle seed shared by every prompt (or
    by both modes of one prompt) moves those generations together, and
    run-to-run figures then vary several times more.
    """
    digest = hashlib.sha256(f"{seed}:{prompt_index}:{k}:{mode.value}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


class Workload:
    """A closed loop of generations over the prompt set.

    Each prompt runs with ``seeds_per_prompt`` oracle seeds in every mode.
    """

    name: str
    modes: tuple[SearchMode, ...]
    p_adv: float
    seeds_per_prompt: int
    output_files: tuple[str, ...] = OUTPUT_FILES

    def inputs(self, seed: int, prompts: list[str]) -> list[Input]:
        out: list[Input] = []
        for p_idx, prompt in enumerate(prompts):
            for k in range(self.seeds_per_prompt):
                for mode in self.modes:
                    seed_k = oracle_seed(seed, p_idx, k, mode)
                    out.append(Input(len(out), p_idx, prompt, seed_k, mode))
        return out

    def config(self, inp: Input) -> SearchConfig:
        return SearchConfig(mode=inp.mode, cell_size=CELL_SIZE, seed=inp.oracle_seed,
                            p_adv=self.p_adv)

    def det_oracle(self, inp: Input, ctx: Context) -> DeterministicOracle:
        return DeterministicOracle(seed=inp.oracle_seed, p_adv=self.p_adv,
                                   catalog=ctx.catalog, templates=ctx.templates)

    def prepare(self, inputs: list[Input], ctx: Context) -> dict[int, str]:
        """Untimed set-up; returns inputs that could not be set up, with why."""
        return {}

    def generate(self, inp: Input, ctx: Context) -> Scene:
        """The timed operation."""
        raise NotImplementedError

    def check(self, inp: Input, scene: Scene, digest: str, ctx: Context) -> str | None:
        """Why the written outputs are wrong beyond scene validity, or None."""
        return None


class DetSweep(Workload):
    name = "det-sweep"
    modes = (SearchMode.TREE, SearchMode.COT)
    p_adv = 0.35
    seeds_per_prompt = 3

    def generate(self, inp: Input, ctx: Context) -> Scene:
        scene = pipeline.generate_scene(inp.prompt, self.config(inp), self.det_oracle(inp, ctx),
                                        ctx.catalog)
        write_outputs(scene, ctx.out_dir)
        return scene


class ReplayAdversarial(Workload):
    name = "replay-adversarial"
    modes = (SearchMode.TREE,)
    p_adv = 1.0
    seeds_per_prompt = 6

    def __init__(self) -> None:
        self.recorded: dict[int, str] = {}

    def transcript(self, inp: Input, ctx: Context) -> Path:
        return ctx.transcript_dir / f"{inp.index}.jsonl"

    def prepare(self, inputs: list[Input], ctx: Context) -> dict[int, str]:
        ctx.transcript_dir.mkdir(parents=True, exist_ok=True)
        broken: dict[int, str] = {}
        for inp in inputs:
            recording = RecordingOracle(self.det_oracle(inp, ctx), model_id="det",
                                        seed=inp.oracle_seed)
            try:
                scene = pipeline.generate_scene(inp.prompt, self.config(inp), recording,
                                                ctx.catalog)
            except Exception as exc:  # reported as an invalid input, never hidden
                broken[inp.index] = f"recording raised {type(exc).__name__}: {exc}"
                continue
            write_outputs(scene, ctx.out_dir)
            self.recorded[inp.index] = files_digest(ctx.out_dir, self.output_files)[0]
            recording.transcript.dump(self.transcript(inp, ctx))
        return broken

    def generate(self, inp: Input, ctx: Context) -> Scene:
        oracle = ReplayOracle.from_file(self.transcript(inp, ctx))
        scene = pipeline.generate_scene(inp.prompt, self.config(inp), oracle, ctx.catalog)
        write_outputs(scene, ctx.out_dir)
        return scene

    def check(self, inp: Input, scene: Scene, digest: str, ctx: Context) -> str | None:
        if digest != self.recorded[inp.index]:
            return "replayed outputs differ from the recorded run"
        return None


class LiveLatency(Workload):
    name = "live-latency"
    modes = (SearchMode.TREE,)
    p_adv = 0.0
    seeds_per_prompt = 3
    output_files = OUTPUT_FILES + (TRANSCRIPT_FILE,)

    def generate(self, inp: Input, ctx: Context) -> Scene:
        recording = RecordingOracle(LatencyOracle(self.det_oracle(inp, ctx)), model_id="det",
                                    seed=inp.oracle_seed)
        scene = pipeline.generate_scene(inp.prompt, self.config(inp), recording, ctx.catalog)
        write_outputs(scene, ctx.out_dir)
        recording.transcript.dump(ctx.out_dir / TRANSCRIPT_FILE)
        return scene

    def check(self, inp: Input, scene: Scene, digest: str, ctx: Context) -> str | None:
        lines = (ctx.out_dir / TRANSCRIPT_FILE).read_text("utf-8").splitlines()
        records = sum(1 for line in lines[1:] if line.strip())
        if records != scene.trace.oracle_calls:
            return f"transcript holds {records} records for {scene.trace.oracle_calls} oracle calls"
        return None


WORKLOADS = {w.name: w for w in (DetSweep, ReplayAdversarial, LiveLatency)}


def make_context(work_dir: Path) -> Context:
    return Context(
        catalog=AssetCatalog.default(),
        templates=load_room_templates(),
        out_dir=work_dir / "out",
        transcript_dir=work_dir / "transcripts",
    )


def run_order(inputs: list[Input], seed: int) -> list[Input]:
    order = list(inputs)
    random.Random(seed).shuffle(order)
    return order
