"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each criterion registers a PASS/FAIL line that the terminal summary
prints after the run (see conftest).  Criteria 1 and 2 share the
100-generation suite; everything runs offline on the deterministic
oracle except criterion 6b, which replays the shipped transcript
fixture.
"""

from __future__ import annotations

import random
import statistics
import time
from importlib import resources
from pathlib import Path

import pytest

from conftest import record_acceptance
from test_search import crafted_backtracking_instance, to_brute
from treelayout.evaluate import anchor_visits, search_stats, validity_metrics
from treelayout.grid import (
    FREE,
    MARKERS,
    OCCUPIED,
    ANCHOR_OCCUPIED,
    EmptyResponse,
    NonContiguousRun,
    OccupancyGrid,
    UnknownEmoji,
    WrongCount,
    assign_emojis,
    contiguous_axis_run,
    load_vocabulary,
    parse_emoji_selection,
    serialize_grid_prompt,
)
from treelayout.model import EventKind, SearchConfig, SearchMode
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.transcript import ReplayOracle, Transcript
from treelayout.pipeline import generate_scene
from treelayout.search import plan_region
from treelayout.sceneio import scene_to_text

FIXTURES = Path(__file__).parent / "fixtures"

#: Default budgets: 3 anchor attempts, 1 for other objects, 2 for the
#: side step, 1 for the axis steps.
REFERENCE_CONFIG = dict(k_global_anchor=3, k_global_other=1, k_local_side=2, k_local_axis=1)


def load_prompt_set() -> list[str]:
    text = resources.files("treelayout.data").joinpath("prompt_set.txt").read_text("utf-8")
    prompts = [line.strip() for line in text.splitlines() if line.strip()]
    assert len(prompts) == 100
    return prompts


@pytest.fixture(scope="module")
def soundness_suite():
    """100 seeded generations (25 per room type), plus their wall time."""
    prompts = load_prompt_set()
    t0 = time.monotonic()
    scenes = []
    for i, prompt in enumerate(prompts):
        config = SearchConfig(seed=i, p_adv=0.0, **REFERENCE_CONFIG)
        oracle = DeterministicOracle(seed=i, p_adv=0.0)
        scenes.append((prompt, config, generate_scene(prompt, config, oracle)))
    return scenes, time.monotonic() - t0


def test_criterion_1_soundness(soundness_suite):
    scenes, elapsed = soundness_suite
    ok = True
    details = []
    for prompt, config, scene in scenes:
        m = validity_metrics(scene, config)
        if not (m.overlap_pairs == 0 and m.oob_objects == 0 and m.relation_violations == 0):
            ok = False
            details.append(f"{prompt!r}: {m}")
        specs = scene.spec_index()
        by_id = {p.spec_id: p for p in scene.placements}
        for p in scene.placements:
            if p.parent.kind != "supporter":
                continue
            sup = by_id[p.parent.ref]
            sup_box = sup.aabb(specs[p.parent.ref].dims)
            if not sup_box.contains(p.aabb(specs[p.spec_id].dims)):
                ok = False
                details.append(f"{p.spec_id} escapes {p.parent.ref}")
            if abs(p.z - specs[p.parent.ref].dims.height) > 1e-9:
                ok = False
                details.append(f"{p.spec_id} wrong z")
    if elapsed >= 30.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s >= 30s")
    record_acceptance(
        "1 soundness: 100 seeded generations with zero violations",
        ok, f"{elapsed:.1f}s",
    )
    assert ok, details[:5]



def test_criterion_1b_soundness_under_adversarial_oracle():
    """Tree and CoT stay violation-free when every oracle reply is
    adversarial: the prompt set x seeds 0-2 at p_adv 1.0.  The relation
    predicate must give the same verdict in the region frame, where the
    search checks a pose, and in the room frame, where it is scored."""
    prompts = load_prompt_set()
    t0 = time.monotonic()
    ok = True
    details = []
    runs = 0
    for mode in (SearchMode.TREE, SearchMode.COT):
        for seed in (0, 1, 2):
            for i, prompt in enumerate(prompts):
                config = SearchConfig(seed=seed, mode=mode, p_adv=1.0, **REFERENCE_CONFIG)
                scene = generate_scene(prompt, config, DeterministicOracle(seed=seed, p_adv=1.0))
                m = validity_metrics(scene, config)
                runs += 1
                if not m.clean():
                    ok = False
                    details.append(f"{mode.value} seed {seed} prompt {i}: {m}")
    elapsed = time.monotonic() - t0
    record_acceptance(
        f"1b adversarial soundness: {runs} p_adv=1.0 tree/cot generations with zero violations",
        ok, f"{elapsed:.1f}s",
    )
    assert ok, details[:5]

def test_criterion_2_parameter_fidelity(soundness_suite):
    scenes, _ = soundness_suite
    ok = True
    details = []
    for _prompt, config, scene in scenes:
        stats = search_stats(scene.trace)
        # attempts per (scope, layer) maximum over visits must respect k
        for (scope, layer), attempts in stats.attempts_per_layer.items():
            k = config.k_global_anchor if layer == 1 else config.k_global_other
            if attempts > k:
                ok = False
                details.append(f"{scope} layer {layer}: {attempts} > {k}")
        # anchor-layer visits per scope capped at k_global_anchor
        scopes = {e.scope for e in scene.trace.events if e.layer == 1}
        for scope in scopes:
            n = anchor_visits(scene.trace, scope)
            if n > config.k_global_anchor:
                ok = False
                details.append(f"{scope}: {n} anchor visits")
        # at most one live acceptance per layer: acceptances and
        # backtracks alternate within each (scope, layer)
        live: dict[tuple[str, int], bool] = {}
        for e in scene.trace.events:
            key = (e.scope, e.layer)
            if e.kind is EventKind.ACCEPTED:
                if live.get(key):
                    ok = False
                    details.append(f"double acceptance at {key}")
                live[key] = True
            elif e.kind is EventKind.BACKTRACK:
                live[key] = False
    record_acceptance(
        "2 parameter fidelity: budgets k=(3,1,2,1) never exceeded, anchor visits <= 3", ok
    )
    assert ok, details[:5]


def test_criterion_3_backtracking_reproduction():
    t0 = time.monotonic()
    region, config = crafted_backtracking_instance()
    tree = plan_region(region, config, DeterministicOracle(seed=0))
    cot = plan_region(
        region, SearchConfig(seed=0, mode=SearchMode.COT), DeterministicOracle(seed=0)
    )
    elapsed = time.monotonic() - t0
    solved_tree = not tree.unsat and len(tree.placements) == len(region.objects)
    backtracked = tree.trace.count(EventKind.BACKTRACK) >= 1
    solved_cot = not cot.unsat and len(cot.placements) == len(region.objects)
    ok = solved_tree and backtracked and not solved_cot and elapsed < 1.0
    record_acceptance(
        "3 backtracking: crafted instance solved by tree (with backtrack), not by cot",
        ok, f"{elapsed * 1000:.0f}ms, {tree.trace.count(EventKind.BACKTRACK)} backtracks",
    )
    assert ok, (solved_tree, backtracked, solved_cot, elapsed)


def test_criterion_4_bounded_completeness():
    from test_search import TestBoundedCompleteness

    maker = TestBoundedCompleteness()
    rng = random.Random(4242)
    t0 = time.monotonic()
    ok = True
    feasible = 0
    details = []
    for trial in range(50):
        region, config = maker.random_instance(rng, trial)
        brute = to_brute(region, config)
        expected = brute.search_feasible(
            config.k_global_anchor, config.k_global_other,
            config.k_local_side, config.k_local_axis,
        )
        result = plan_region(region, config, DeterministicOracle(seed=trial))
        if (not result.unsat) != expected:
            ok = False
            details.append(f"trial {trial}: engine={'sat' if not result.unsat else 'unsat'}, "
                           f"enumerator={'sat' if expected else 'unsat'}")
        feasible += int(expected)
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s >= 10s")
    record_acceptance(
        "4 bounded completeness: verdict matches brute-force enumerator on 50 instances",
        ok, f"{feasible} feasible, {elapsed:.1f}s",
    )
    assert ok, details[:5]


def test_criterion_5_ablation_ordering():
    prompts = load_prompt_set()[::3][:30]
    assert len(prompts) == 30
    t0 = time.monotonic()
    ratios = {m: [] for m in ("io", "cot", "tree")}
    tree_violations = 0
    for prompt in prompts:
        for seed in (0, 1, 2):
            for mode in ("io", "cot", "tree"):
                config = SearchConfig(
                    seed=seed, mode=SearchMode(mode), p_adv=0.35, **REFERENCE_CONFIG
                )
                oracle = DeterministicOracle(seed=seed, p_adv=0.35)
                scene = generate_scene(prompt, config, oracle)
                m = validity_metrics(scene, config)
                ratios[mode].append(m.placed_ratio)
                if mode == "tree":
                    tree_violations += m.overlap_pairs + m.oob_objects + m.relation_violations
    elapsed = time.monotonic() - t0
    tree_mean = statistics.fmean(ratios["tree"])
    cot_mean = statistics.fmean(ratios["cot"])
    io_mean = statistics.fmean(ratios["io"])
    ok = tree_mean >= cot_mean and tree_violations == 0 and elapsed < 120.0
    record_acceptance(
        "5 ablation ordering: tree >= cot placed ratio at p_adv=0.35, tree violation-free",
        ok,
        f"tree={tree_mean:.3f} cot={cot_mean:.3f} io={io_mean:.3f} (io reported only), "
        f"{elapsed:.0f}s",
    )
    assert ok, (tree_mean, cot_mean, tree_violations, elapsed)


def test_criterion_6_determinism_and_replay():
    prompt = "A modern bedroom with a comfortable queen-sized bed"
    config = SearchConfig(seed=11, **REFERENCE_CONFIG)
    a = scene_to_text(generate_scene(prompt, config, DeterministicOracle(seed=11)))
    b = scene_to_text(generate_scene(prompt, config, DeterministicOracle(seed=11)))
    identical = a == b

    transcript = Transcript.load(FIXTURES / "live_transcript.jsonl")
    replayed = generate_scene(
        transcript.metadata["prompt"],
        SearchConfig(seed=transcript.metadata["config_seed"], **REFERENCE_CONFIG),
        ReplayOracle(transcript),
    )
    golden = (FIXTURES / "live_scene.json").read_text("utf-8")
    replay_identical = scene_to_text(replayed) == golden
    ok = identical and replay_identical
    record_acceptance(
        "6 determinism: same-seed runs and fixture replay are byte-identical", ok,
        f"repeat={identical} replay={replay_identical}",
    )
    assert ok


def test_criterion_7_grid_round_trip():
    vocab = load_vocabulary()
    rng = random.Random(77)
    t0 = time.monotonic()
    ok = True
    for _ in range(1000):
        cols, rows = rng.randint(1, 12), rng.randint(1, 12)
        codes = [rng.choice([FREE, FREE, OCCUPIED, ANCHOR_OCCUPIED]) for _ in range(cols * rows)]
        grid = OccupancyGrid(cols, rows, 0.25, tuple(codes))
        free = [i for i, c in enumerate(codes) if c == FREE]
        chosen = sorted(rng.sample(free, rng.randint(0, len(free))))
        emap = assign_emojis(chosen, vocab)
        text = serialize_grid_prompt(grid, emap)
        emitted = [t for t in text.split() if t not in MARKERS]
        if not chosen:
            ok = ok and emitted == []
            continue
        cells = parse_emoji_selection(" ".join(emitted), emap, len(chosen))
        ok = ok and cells == chosen
    elapsed = time.monotonic() - t0

    # designated error paths
    emap = assign_emojis([0, 1, 5], ("apple", "banana", "cherries", "pear"))
    grid = OccupancyGrid(4, 4, 0.25, (FREE,) * 16)
    with pytest.raises(UnknownEmoji):
        parse_emoji_selection("pear", emap, 1)
    with pytest.raises(WrongCount):
        parse_emoji_selection("apple", emap, 2)
    with pytest.raises(EmptyResponse):
        parse_emoji_selection("hmm", emap, 1)
    with pytest.raises(NonContiguousRun):
        contiguous_axis_run(grid, [0, 2], "cols")
    if elapsed >= 5.0:
        ok = False
    record_acceptance(
        "7 grid round trip: 1000 random grids recover candidate sets; error paths raise",
        ok, f"{elapsed:.1f}s",
    )
    assert ok
