"""Command-line surface: generate, ablate, render, replay.

Exit codes: 0 success, 2 incomplete layout (Unsat region or skipped
objects in tree/cot mode), 3 oracle failure, 4 configuration error
(a usage error too, such as an unknown option or a bad option value),
5 engine error (an invalid room plan or a cross-region overlap, both
engine bugs).
IO-mode runs exit 0 with their violations reported as metrics; being
measurably worse is that mode's job, not an error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
from click.core import ParameterSource

from treelayout.catalog import AssetCatalog
from treelayout.compose import CompositionOverlap
from treelayout.evaluate import ablation_report, format_ablation_table, validity_metrics
from treelayout.grid import VocabularyExhausted
from treelayout.hierarchy import InvalidPlan
from treelayout.model import Scene, SearchConfig, SearchMode
from treelayout.oracle.base import FingerprintMiss, OracleFailure, PlacementOracle
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.live import LiveConfig, LiveOracle
from treelayout.oracle.transcript import RecordingOracle, ReplayOracle
from treelayout.pipeline import generate_scene, scene_is_complete
from treelayout.render import TraceMismatch, render_scene
from treelayout.sceneio import read_scene, read_trace, write_scene, write_text, write_trace

EXIT_OK = 0
EXIT_UNSAT = 2
EXIT_ORACLE = 3
EXIT_CONFIG = 4
EXIT_ENGINE = 5


def _fail_config(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_CONFIG)


def _build_config(mode: str, seed: int, cell_size: float, k_anchor: int, k_other: int,
                  k_side: int, k_axis: int, p_adv: float) -> SearchConfig:
    try:
        return SearchConfig(
            k_global_anchor=k_anchor,
            k_global_other=k_other,
            k_local_side=k_side,
            k_local_axis=k_axis,
            mode=SearchMode(mode),
            cell_size=cell_size,
            seed=seed,
            p_adv=p_adv,
        )
    except ValueError as exc:
        _fail_config(str(exc))


def _build_oracle(kind: str, seed: int, p_adv: float, catalog: AssetCatalog,
                  transcript: str | None, live_config: str | None) -> PlacementOracle:
    if kind == "det":
        return DeterministicOracle(seed=seed, p_adv=p_adv, catalog=catalog)
    if kind == "live":
        if not live_config:
            _fail_config("--live-config is required with --oracle live")
        try:
            return LiveOracle(LiveConfig.from_file(live_config))
        except (OSError, ValueError, OracleFailure) as exc:
            _fail_config(f"cannot set up live oracle: {exc}")
    if kind == "replay":
        if not transcript:
            _fail_config("--transcript is required with --oracle replay")
        try:
            return ReplayOracle.from_file(transcript)
        except (OSError, ValueError, FingerprintMiss) as exc:
            _fail_config(f"cannot read transcript: {exc}")
    _fail_config(f"unknown oracle kind {kind!r} (choose det, live, or replay)")


def _read_prompt(prompt: str | None, prompt_file: str | None) -> str:
    if bool(prompt) == bool(prompt_file):
        _fail_config("give exactly one of --prompt or --prompt-file")
    if prompt_file:
        try:
            return Path(prompt_file).read_text("utf-8").strip()
        except OSError as exc:
            _fail_config(f"cannot read prompt file: {exc}")
    return prompt


def _load_catalog(path: str | None) -> AssetCatalog:
    if path is None:
        return AssetCatalog.default()
    try:
        return AssetCatalog.from_file(path)
    except (OSError, KeyError, ValueError) as exc:
        _fail_config(f"cannot load catalog: {exc}")


def _solve_and_write(text: str, config: SearchConfig, oracle: PlacementOracle,
                     catalog: AssetCatalog, out_dir: str) -> tuple[Scene, Path]:
    """Generate the scene and write scene.json, trace.jsonl and scene.svg
    into ``out_dir``; oracle failures exit 3, too fine a grid exits 4,
    engine errors exit 5."""
    try:
        scene = generate_scene(text, config, oracle, catalog)
    except OracleFailure as exc:
        click.echo(f"oracle failure: {exc}", err=True)
        sys.exit(EXIT_ORACLE)
    except VocabularyExhausted as exc:
        _fail_config(f"cell size {config.cell_size} is too fine: {exc}")
    except (InvalidPlan, CompositionOverlap) as exc:
        click.echo(f"engine error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_ENGINE)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_scene(scene, out / "scene.json")
    write_trace(scene.trace, out / "trace.jsonl")
    write_text(out / "scene.svg", render_scene(scene))
    return scene, out


def _exit_if_incomplete(scene: Scene, config: SearchConfig, message: str | None = None) -> None:
    """Exit 2 when a tree or CoT run left an object unplaced."""
    if config.mode is not SearchMode.IO and not scene_is_complete(scene):
        if message:
            click.echo(message, err=True)
        sys.exit(EXIT_UNSAT)


seed_option = click.option("--seed", type=int, default=0, show_default=True)
mode_option = click.option("--mode", default="tree", show_default=True,
                           help="Reasoning mode: io, cot, or tree.")
p_adv_option = click.option("--p-adv", type=float, default=0.0, show_default=True,
                            help="Adversarial-choice probability of the det oracle.")

search_options = [
    click.option("--cell-size", type=float, default=0.25, show_default=True),
    click.option("--k-anchor", type=int, default=3, show_default=True),
    click.option("--k-other", type=int, default=1, show_default=True),
    click.option("--k-side", type=int, default=2, show_default=True),
    click.option("--k-axis", type=int, default=1, show_default=True),
    click.option("--catalog", "catalog_path", type=str, default=None,
                 help="Asset catalog JSON (defaults to the shipped one)."),
]


def _with_options(options):
    def wrap(f):
        for option in reversed(options):
            f = option(f)
        return f
    return wrap


def _usage_errors_exit_config(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_CONFIG
        raise


class _Cli(click.Group):
    """Usage errors exit 4 (configuration error), not click's 2 (here: incomplete layout)."""

    def make_context(self, *args, **kwargs):
        return _usage_errors_exit_config(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_errors_exit_config(super().invoke, ctx)


@click.group(cls=_Cli)
def main() -> None:
    """Text-to-layout synthesis with oracle-guided tree search."""


@main.command()
@click.option("--prompt", default=None, help="Room description text.")
@click.option("--prompt-file", default=None, help="File holding the room description.")
@click.option("--oracle", "oracle_kind", default="det", show_default=True,
              help="Oracle backend: det, live, or replay.")
@click.option("--transcript", default=None,
              help="Replay source (with --oracle replay) or recording target otherwise.")
@click.option("--live-config", default=None, help="JSON config for the live oracle.")
@click.option("--out-dir", default="out", show_default=True)
@_with_options([seed_option, mode_option, p_adv_option] + search_options)
def generate(prompt, prompt_file, oracle_kind, transcript, live_config, out_dir,
             seed, mode, cell_size, k_anchor, k_other, k_side, k_axis, p_adv,
             catalog_path) -> None:
    """Generate one scene: writes scene.json, scene.svg, and trace.jsonl.

    --p-adv is the det oracle's, and so is --seed with --oracle replay,
    whose replies come from the transcript: given with another oracle,
    they are usage errors rather than ignored."""
    det_only = {"live": ("p_adv",), "replay": ("seed", "p_adv")}.get(oracle_kind, ())
    context = click.get_current_context()
    for name in det_only:
        if context.get_parameter_source(name) is not ParameterSource.DEFAULT:
            option = "--" + name.replace("_", "-")
            raise click.UsageError(f"{option} is not an option of --oracle {oracle_kind}")
    text = _read_prompt(prompt, prompt_file)
    config = _build_config(mode, seed, cell_size, k_anchor, k_other, k_side, k_axis, p_adv)
    catalog = _load_catalog(catalog_path)
    oracle = _build_oracle(oracle_kind, seed, p_adv, catalog, transcript, live_config)
    recording = None
    if transcript and oracle_kind != "replay":
        recording = RecordingOracle(oracle, model_id=oracle_kind, seed=seed)
        oracle = recording
    scene, out = _solve_and_write(text, config, oracle, catalog, out_dir)
    if recording is not None:
        recording.transcript.dump(transcript)
    metrics = validity_metrics(scene, config)
    discarded = scene.trace.discarded_calls
    click.echo(
        f"wrote {out / 'scene.json'} ({len(scene.placements)} placements, "
        f"placed_ratio={metrics.placed_ratio:.2f})"
        + (f" discarded_calls={discarded}" if discarded else "")
    )
    _exit_if_incomplete(scene, config, "layout incomplete (Unsat region or skipped objects)")


@main.command()
@click.option("--prompts", "prompts_file", required=True,
              help="Prompt set file, one prompt per line.")
@click.option("--seeds", default="0,1,2", show_default=True,
              help="Comma-separated seed list.")
@click.option("--modes", default="io,cot,tree", show_default=True)
@click.option("--out-dir", default="out", show_default=True)
@_with_options([p_adv_option] + search_options)
def ablate(prompts_file, seeds, modes, out_dir,
           cell_size, k_anchor, k_other, k_side, k_axis, p_adv, catalog_path) -> None:
    """Run every (prompt, seed, mode) cell and emit the comparison table."""
    try:
        prompts = [
            line.strip()
            for line in Path(prompts_file).read_text("utf-8").splitlines()
            if line.strip()
        ]
    except OSError as exc:
        _fail_config(f"cannot read prompts: {exc}")
    if not prompts:
        _fail_config("prompt set is empty")
    try:
        seed_list = [int(s) for s in seeds.split(",") if s.strip()]
    except ValueError:
        _fail_config(f"bad seed list {seeds!r}")
    mode_list = [m.strip() for m in modes.split(",") if m.strip()]
    for m in mode_list:
        if m not in ("io", "cot", "tree"):
            _fail_config(f"unknown mode {m!r}")
    catalog = _load_catalog(catalog_path)

    failures: list[str] = []
    scenes: dict[str, list[tuple[int, object]]] = {m: [] for m in mode_list}
    for p_idx, prompt in enumerate(prompts):
        for s in seed_list:
            run_id = p_idx * 1_000_000 + s
            cell_scenes = {}
            for m in mode_list:
                config = _build_config(m, s, cell_size, k_anchor, k_other, k_side, k_axis, p_adv)
                oracle = DeterministicOracle(seed=s, p_adv=p_adv, catalog=catalog)
                try:
                    cell_scenes[m] = generate_scene(prompt, config, oracle, catalog)
                except (OracleFailure, VocabularyExhausted, InvalidPlan,
                        CompositionOverlap) as exc:
                    failures.append(f"prompt {p_idx} seed {s} mode {m}: {exc}")
                    cell_scenes = None
                    break
            if cell_scenes is None:
                continue
            for m, scene in cell_scenes.items():
                scenes[m].append((run_id, scene))

    if any(not rows for rows in scenes.values()):
        _fail_config("no successful runs to report")
    rows = ablation_report(scenes, required_modes=tuple(mode_list))
    csv_text, human = format_ablation_table(rows)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation.csv").write_text(csv_text, "utf-8")
    report = human
    if failures:
        report += "\nfailed cells:\n" + "\n".join(f"  {f}" for f in failures) + "\n"
    (out / "ablation.txt").write_text(report, "utf-8")
    click.echo(report.rstrip())


@main.command()
@click.argument("scene_file")
@click.option("--step", type=int, default=None,
              help="Replay the trace and render the state after this many events.")
@click.option("--trace", "trace_file", default=None,
              help="Trace log for --step (defaults to trace.jsonl next to the scene).")
@click.option("-o", "--out", "out_file", default=None,
              help="Output SVG path (defaults next to the scene file).")
def render(scene_file, step, trace_file, out_file) -> None:
    """Render a scene file (optionally a partial trace-replay state) to SVG."""
    try:
        scene = read_scene(scene_file)
    except (OSError, ValueError, KeyError) as exc:
        _fail_config(f"cannot read scene: {exc}")
    events = None
    if step is not None:
        path = Path(trace_file) if trace_file else Path(scene_file).parent / "trace.jsonl"
        try:
            events = read_trace(path)
        except (OSError, ValueError, KeyError) as exc:
            _fail_config(f"cannot read trace: {exc}")
        if step < 0 or step > len(events):
            _fail_config(f"step {step} outside 0..{len(events)}")
    try:
        svg = render_scene(scene, step=step, events=events)
    except (CompositionOverlap, KeyError, TraceMismatch) as exc:
        _fail_config(f"trace does not match scene: {exc}")
    target = Path(out_file) if out_file else Path(scene_file).with_suffix(".svg")
    write_text(target, svg)
    click.echo(f"wrote {target}")


@main.command()
@click.argument("transcript_file")
@click.option("--prompt", default=None)
@click.option("--prompt-file", default=None)
@click.option("--out-dir", default="out", show_default=True)
@_with_options([mode_option] + search_options)
def replay(transcript_file, prompt, prompt_file, out_dir,
           mode, cell_size, k_anchor, k_other, k_side, k_axis, catalog_path) -> None:
    """Reproduce a recorded run byte-identically from its transcript.

    The replies come from the transcript, so the det oracle's --seed and
    --p-adv are not options here."""
    text = _read_prompt(prompt, prompt_file)
    config = _build_config(mode, 0, cell_size, k_anchor, k_other, k_side, k_axis, 0.0)
    catalog = _load_catalog(catalog_path)
    oracle = _build_oracle("replay", 0, 0.0, catalog, transcript_file, None)
    scene, out = _solve_and_write(text, config, oracle, catalog, out_dir)
    click.echo(f"wrote {out / 'scene.json'}")
    _exit_if_incomplete(scene, config)


if __name__ == "__main__":
    main()
