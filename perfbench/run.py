"""End-to-end and per-layer benchmark of treelayout generation.

    python3 perfbench/run.py --workload det-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0        # every workload, one process
    python3 perfbench/run.py --smoke                        # quick self-check

Run from the repository root; the program is imported from ``src/``.
One timed operation is one generation (see ``workloads.py``).  Each
workload first covers its whole input set once, then keeps cycling
through it until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass over the inputs and prints the per-layer
metrics: per generation, the mean calls and self time of each wrapped
function (``spans.py``), the search counts from the program's own trace,
and the tracing overhead.  Spans are written to
``.perfbench/spans/<workload>-seed<n>.tsv.gz``.

Every generation's outputs are checked.  A timed generation fails if it
raises or if its written bytes are wrong for the workload (a replay that
differs from its recording, a transcript that misses calls); ``failed``
counts these.  Two defects of the program are counted apart from them,
per input, and never skipped: a tree or cot scene with an overlap, an
out-of-bounds object or a relation violation (the relation-tolerance
defect of ROADMAP item 5 produces a few), and an input whose untimed
set-up raised (at ``p_adv=1.0`` recording a transcript can raise on a
repeated query fingerprint), which then is not timed.  Both are listed
with their inputs and lower ``valid_share``, the share of inputs that
give a valid scene; the printed ``failed_share`` is one minus it.
``correct`` is false when the output gate fails: the same input
written twice with different bytes, oracle calls or placed ratio (between
passes, and between the untraced and traced pass), or a metric set that
differs from BENCHMARK.json.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_RUNS = 7
WARMUP_GENERATIONS = 3
SMOKE_PROMPTS = (0, 50)

SETUP_CODE = """\
import treelayout
from treelayout.catalog import AssetCatalog
from treelayout.grid import load_vocabulary
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.templates import template_version
catalog = AssetCatalog.default()
DeterministicOracle(seed=0, catalog=catalog)
load_vocabulary()
template_version()
"""


def _import_program() -> None:
    if not (SRC / "treelayout" / "__init__.py").is_file():
        sys.exit(f"error: no treelayout sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import treelayout

    if Path(treelayout.__file__).resolve().parent != SRC / "treelayout":
        sys.exit(f"error: imported treelayout from {treelayout.__file__}, not {SRC}")


_import_program()

from treelayout.evaluate import validity_metrics  # noqa: E402

import spans  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Context, Input, Workload, files_digest, load_prompts, make_context, run_order,
)


@dataclass
class Outcome:
    """What one generation wrote and how it went; None fields if it raised.

    ``reason`` says why it failed, ``violation`` why its scene is invalid.
    """

    digest: str | None
    size: int
    calls: int | None
    placed: float | None
    counters: dict[str, int]
    reason: str | None
    violation: str | None = None

    def key(self):
        return (self.digest, self.calls, self.placed)


@dataclass
class Phase:
    times_ns: list[int] = field(default_factory=list)
    failed: int = 0
    first: dict[int, Outcome] = field(default_factory=dict)
    failures: list[tuple[Input, str]] = field(default_factory=list)
    unstable: list[Input] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times_ns)


def run_phase(wl: Workload, order: list[Input], ctx: Context,
              seconds: float, recorder: spans.SpanRecorder | None = None,
              reference: dict[int, Outcome] | None = None) -> Phase:
    """Closed loop, one client: the whole order once, then more until
    ``seconds`` have passed.  Only ``wl.generate`` is timed."""
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while i < len(order) or time.perf_counter() - start < seconds:
        inp = order[i % len(order)]
        i += 1
        scene = reason = None
        t0 = time.perf_counter_ns()
        try:
            if recorder is None:
                scene = wl.generate(inp, ctx)
            else:
                with recorder.generation(phase.attempted):
                    scene = wl.generate(inp, ctx)
        except Exception as exc:  # a failed generation is counted, the loop goes on
            reason = f"raised {type(exc).__name__}: {exc}"
        phase.times_ns.append(time.perf_counter_ns() - t0)
        if scene is None:
            outcome = Outcome(None, 0, None, None, {}, reason)
        else:
            digest, size = files_digest(ctx.out_dir, wl.output_files)
            m = validity_metrics(scene, wl.config(inp))
            violation = None
            if not m.clean():
                violation = (f"overlap_pairs={m.overlap_pairs} oob_objects={m.oob_objects} "
                             f"relation_violations={m.relation_violations}")
            outcome = Outcome(digest, size, scene.trace.oracle_calls, m.placed_ratio,
                              scene.trace.counters, wl.check(inp, scene, digest, ctx),
                              violation)
        if outcome.reason is not None:
            phase.failed += 1
        first_seen = inp.index not in phase.first
        if first_seen:
            phase.first[inp.index] = outcome
            if outcome.reason is not None:
                phase.failures.append((inp, outcome.reason))
            elif outcome.violation is not None:
                phase.failures.append((inp, f"validity violation: {outcome.violation}"))
        expected = phase.first[inp.index] if reference is None else reference.get(inp.index)
        if not (first_seen and reference is None) and expected.key() != outcome.key():
            phase.unstable.append(inp)
    return phase


def output_digest(first: dict[int, Outcome]) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for index in sorted(first):
        h.update(f"{index}:{first[index].digest}\n".encode("ascii"))
        size += first[index].size
    return h.hexdigest(), size


def measure_setup(runs: int) -> float:
    """Median wall time of a fresh interpreter doing the program's set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, capture_output=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def end_to_end_metrics(phase: Phase, setup_s: float, valid_share: float) -> dict[str, float]:
    ms = [t / 1e6 for t in phase.times_ns]
    done = [o for o in phase.first.values() if o.calls is not None]
    return {
        "gen_ms_p50": statistics.median(ms),
        "gen_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "gens_per_s": (phase.attempted - phase.failed) / (sum(ms) / 1e3),
        "oracle_calls_per_gen": statistics.fmean(o.calls for o in done) if done else 0.0,
        "placed_ratio": statistics.fmean(o.placed for o in done) if done else 0.0,
        "valid_share": valid_share,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(recorder: spans.SpanRecorder, traced: Phase,
                      untraced: Phase) -> tuple[dict[str, float], list[str]]:
    """Per-generation means over the traced pass; second item lists
    accounting errors (empty when the spans add up)."""
    total, self_ns = recorder.durations_ns()
    names = recorder.names
    gens = traced.attempted
    calls = {n: 0 for n in spans.SPAN_NAMES}
    self_sum = {n: 0 for n in spans.SPAN_NAMES}
    gen_total = gen_self = oracle_total = 0
    errors = []
    for nid, gen, t, s in zip(recorder.name_id, recorder.gen, total, self_ns):
        name = names[nid]
        if gen < 0:
            errors.append(f"span {name} outside any generation")
        if name == spans.GEN_SPAN:
            gen_total += t
            gen_self += s
            continue
        calls[name] += 1
        self_sum[name] += s
        if name in spans.QUERY_KINDS.values():
            oracle_total += t
    if sum(self_sum.values()) + gen_self != gen_total:
        errors.append("span self times do not add up to the generation wall time")
    out: dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / gens
        out[f"{name}.ms"] = self_sum[name] / gens / 1e6
    counts = {k: sum(o.counters.get(k, 0) for o in traced.first.values())
              for k in ("proposed", "accepted", "rejected", "backtrack")}
    out["oracle.wait_share"] = oracle_total / gen_total
    out["search.backtracks"] = counts["backtrack"] / gens
    out["search.proposed"] = counts["proposed"] / gens
    out["search.rejected"] = counts["rejected"] / gens
    out["search.accept_ratio"] = counts["accepted"] / max(counts["proposed"], 1)
    out["gen.ms"] = gen_total / gens / 1e6
    out["gen.remainder_ms"] = gen_self / gens / 1e6
    out["trace.overhead_ms"] = (statistics.median(traced.times_ns)
                                - statistics.median(untraced.times_ns)) / 1e6
    return out, errors


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Result:
    spec = load_spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    wl: Workload = WORKLOADS[name]()
    prompts = load_prompts()
    if smoke:
        prompts = [prompts[i] for i in SMOKE_PROMPTS]
        wl.seeds_per_prompt = 1
    inputs = wl.inputs(seed, prompts)
    order = run_order(inputs, seed)
    work_dir = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  inputs {len(inputs)}"]
    errors: list[str] = []
    try:
        setup_s = 0.0 if trace else measure_setup(1 if smoke else SETUP_RUNS)
        ctx = make_context(work_dir)
        broken = wl.prepare(inputs, ctx)
        order = [inp for inp in order if inp.index not in broken]
        for inp in order[:WARMUP_GENERATIONS]:
            wl.generate(inp, ctx)
        if not trace:
            phase = run_phase(wl, order, ctx, seconds)
            invalid = len(broken) + sum(1 for o in phase.first.values()
                                        if o.reason is not None or o.violation is not None)
            values = end_to_end_metrics(phase, setup_s, 1 - invalid / len(inputs))
            passes = phase.attempted / len(order)
            lines.append(f"  timed generations {phase.attempted} ({passes:.2f} passes)")
        else:
            untraced = run_phase(wl, order, ctx, 0.0)
            recorder = spans.SpanRecorder()
            with spans.Patched(recorder):
                phase = run_phase(wl, order, ctx, 0.0, recorder, reference=untraced.first)
            values, errors = per_layer_metrics(recorder, phase, untraced)
            phase.unstable += untraced.unstable
            phase.failed += untraced.failed
            phase.times_ns = untraced.times_ns + phase.times_ns
            span_file = WORK / "spans" / f"{name}-seed{seed}.tsv.gz"
            recorder.write(span_file)
            lines.append(f"  traced generations {len(order)}, spans {len(recorder)} -> {span_file}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    digest, size = output_digest(phase.first)
    lines.append(f"  output digest sha256 {digest} ({len(phase.first)} generations, {size} bytes)")
    lines.append(f"  timed generations failed {phase.failed} of {phase.attempted}")
    failures = [(inp, f"set-up: {broken[inp.index]}") for inp in inputs
                if inp.index in broken] + phase.failures
    lines.append(f"  inputs failed or invalid {len(failures)} of {len(inputs)} "
                 f"(failed_share {len(failures) / len(inputs):.6f} ratio)")
    for inp, reason in failures:
        lines.append(f"    input {inp.index} prompt {inp.prompt_index} seed {inp.oracle_seed} "
                     f"{inp.mode.value}: {reason}")
    for inp in phase.unstable:
        errors.append(f"input {inp.index} wrote different outputs on a repeat")
    if set(values) != set(declared):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    for metric, unit in declared.items():
        if metric in values:
            lines.append(f"  {metric:<44} {values[metric]:>14.6f} {unit}")
    lines += [f"  ERROR {e}" for e in errors]
    metrics = {m: (values[m], u) for m, u in declared.items() if m in values}
    return Result(not errors, phase.attempted, phase.failed, metrics, lines)


def result_json(results: dict[str, Result]) -> str:
    prefix = len(results) > 1
    metrics = {}
    for wname, r in results.items():
        for m, (value, unit) in r.metrics.items():
            metrics[f"{wname}.{m}" if prefix else m] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": metrics,
    })


def smoke() -> int:
    """A few generations per workload, both modes; every declared metric
    must be printed by name with its unit."""
    spec = load_spec()
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            r = run_workload(name, 0, 0.0, trace, smoke=True)
            print("\n".join(r.lines))
            print(result_json({name: r}))
            text = "\n".join(r.lines)
            for m in spec["per_layer" if trace else "end_to_end"]:
                pattern = rf"^\s+{re.escape(m['name'])}\s+-?[0-9.]+ {re.escape(m['unit'])}$"
                if not re.search(pattern, text, re.MULTILINE):
                    problems.append(f"{name} trace={int(trace)}: {m['name']} "
                                    f"[{m['unit']}] not printed")
            if not r.correct:
                problems.append(f"{name} trace={int(trace)}: output gate failed")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed ({len(problems)} problems)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, seconds, bool(args.trace))
        print("\n".join(results[name].lines), flush=True)
    print(result_json(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
