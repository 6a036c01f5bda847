"""Overlapped subproblems: same bytes as the inline run, errors in plan order."""

import random
import threading
import time
from functools import lru_cache
from importlib import resources

import pytest

from treelayout.catalog import AssetCatalog
from treelayout.hierarchy import build_room_plan
from treelayout.model import SearchConfig, SearchMode, SearchTrace
from treelayout.oracle.base import OracleSession, PlacementOracle
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.transcript import RecordingOracle, ReplayOracle
from treelayout.pipeline import generate_scene
from treelayout.sceneio import scene_to_text, write_trace

P_ADV = 0.35


class JitterOracle(PlacementOracle):
    """The det oracle behind a random sleep of up to 2 ms, declared I/O-bound
    so the pipeline overlaps subproblems; calls finish in a different order
    from one run to the next."""

    io_bound = True

    def __init__(self, inner: PlacementOracle, seed: int):
        self.inner = inner
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.threads: set[int] = set()

    def query(self, q):
        with self._lock:
            delay = self._rng.random() * 0.002
            self.threads.add(threading.get_ident())
        time.sleep(delay)
        return self.inner.query(q)


@lru_cache(maxsize=1)
def multi_region_cases() -> tuple[tuple[str, int], ...]:
    """Four (prompt, seed) pairs of the shipped prompt set whose plans have
    at least two regions, those with a region of two or more supporters
    first, so that supporter groups overlap too."""
    text = resources.files("treelayout.data").joinpath("prompt_set.txt").read_text("utf-8")
    prompts = [line.strip() for line in text.splitlines() if line.strip()]
    catalog = AssetCatalog.default()
    nested, flat = [], []
    for seed in (0, 1):
        for prompt in prompts[:40]:
            det = DeterministicOracle(seed=seed, p_adv=P_ADV)
            plan = build_room_plan(prompt, OracleSession(det, SearchTrace()), catalog)
            if len(plan.regions) < 2:
                continue
            if any(len(r.supported) >= 2 for r in plan.regions):
                nested.append((prompt, seed))
            else:
                flat.append((prompt, seed))
    assert nested
    return tuple((nested + flat)[:4])


def recorded_run(prompt, seed, mode, oracle, tmp_path):
    rec = RecordingOracle(oracle)
    config = SearchConfig(seed=seed, mode=mode, p_adv=P_ADV)
    scene = generate_scene(prompt, config, rec)
    path = tmp_path / "trace.jsonl"
    write_trace(scene.trace, path)
    return scene, path.read_bytes(), rec.transcript


@pytest.mark.parametrize("mode", [SearchMode.TREE, SearchMode.COT], ids=lambda m: m.value)
@pytest.mark.parametrize("case", range(4))
def test_overlapped_run_writes_inline_bytes(case, mode, tmp_path):
    prompt, seed = multi_region_cases()[case]
    det = DeterministicOracle(seed=seed, p_adv=P_ADV)
    scene, trace_bytes, transcript = recorded_run(prompt, seed, mode, det, tmp_path)
    for jitter_seed in (1, 2):
        jitter = JitterOracle(det, jitter_seed)
        o_scene, o_trace, o_transcript = recorded_run(prompt, seed, mode, jitter, tmp_path)
        assert len(jitter.threads) > 1  # the subproblems did overlap
        assert scene_to_text(o_scene) == scene_to_text(scene)
        assert o_trace == trace_bytes
        assert o_transcript.records == transcript.records
        assert o_scene.trace.oracle_calls == scene.trace.oracle_calls
        replayed = generate_scene(
            prompt, SearchConfig(seed=seed, mode=mode, p_adv=P_ADV), ReplayOracle(o_transcript)
        )
        assert scene_to_text(replayed) == scene_to_text(scene)


class RegionFailure(Exception):
    pass


class FailingRegionsOracle(JitterOracle):
    """Raises on the first spatial query of each named region, after a
    per-region delay."""

    def __init__(self, inner, delays: dict[str, float]):
        super().__init__(inner, seed=0)
        self.delays = delays

    def query(self, q):
        scope = getattr(getattr(q, "context", None), "scope", None)
        if scope in self.delays:
            time.sleep(self.delays[scope])
            raise RegionFailure(scope)
        return super().query(q)


def test_failing_region_raises_in_plan_order_and_joins_threads():
    prompt, seed = multi_region_cases()[0]
    det = DeterministicOracle(seed=seed, p_adv=P_ADV)
    plan = build_room_plan(prompt, OracleSession(det, SearchTrace()), AssetCatalog.default())
    first, second = plan.regions[0].id, plan.regions[1].id
    # the first region in plan order fails last in time
    oracle = FailingRegionsOracle(det, {first: 0.05, second: 0.0})
    threads_before = threading.active_count()
    with pytest.raises(RegionFailure) as exc:
        generate_scene(prompt, SearchConfig(seed=seed, p_adv=P_ADV), oracle)
    assert exc.value.args == (first,)
    assert threading.active_count() == threads_before
