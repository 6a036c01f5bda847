"""Overlapped subproblems: same bytes as the inline run, errors in plan order."""

import random
import threading
import time
from functools import lru_cache
from importlib import resources

import pytest
from click.testing import CliRunner

from treelayout import cli
from treelayout.catalog import AssetCatalog
from treelayout.hierarchy import build_room_plan, supporters
from treelayout.model import EventKind, RoomPlan, SearchConfig, SearchMode, SearchTrace
from treelayout.oracle.base import OracleFailure, OracleSession, PlacementOracle
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.queries import CellsQuery, ObjectsQuery, OracleReply, SupportedQuery
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
def shipped_plans() -> tuple[tuple[str, int, RoomPlan], ...]:
    """(prompt, seed, det plan) for the first 40 shipped prompts, seeds 0-1."""
    text = resources.files("treelayout.data").joinpath("prompt_set.txt").read_text("utf-8")
    prompts = [line.strip() for line in text.splitlines() if line.strip()]
    catalog = AssetCatalog.default()
    return tuple(
        (prompt, seed, build_room_plan(
            prompt, OracleSession(DeterministicOracle(seed=seed, p_adv=P_ADV), SearchTrace()),
            catalog,
        ))
        for seed in (0, 1)
        for prompt in prompts[:40]
    )


@lru_cache(maxsize=1)
def multi_region_cases() -> tuple[tuple[str, int], ...]:
    """Four (prompt, seed) pairs of the shipped prompt set whose plans have
    at least two regions, those with a region of two or more supporters
    first, so that supporter groups overlap too."""
    nested, flat = [], []
    for prompt, seed, plan in shipped_plans():
        if len(plan.regions) < 2:
            continue
        if any(len(r.supported) >= 2 for r in plan.regions):
            nested.append((prompt, seed))
        else:
            flat.append((prompt, seed))
    assert nested
    return tuple((nested + flat)[:4])


def top_case() -> tuple[str, int, RoomPlan, str]:
    """The first shipped (prompt, seed, plan, supporter id) whose first
    region has at least two supporters with supported objects; the
    supporter is one of them that is not the region's anchor."""
    for prompt, seed, plan in shipped_plans():
        region = plan.regions[0]
        tops = [s for s in sorted(region.supported) if region.supported[s].objects]
        if len(tops) >= 2:
            return prompt, seed, plan, next(s for s in tops if s != region.anchor_id)
    raise AssertionError("no shipped case has two tops in its first region")


def first_case(regions: int) -> tuple[str, int, RoomPlan]:
    """The first shipped (prompt, seed, plan) with this many regions whose
    first region has a supporter and at least two floor objects, so its
    floor search asks the oracle."""
    return next(
        case for case in shipped_plans()
        if len(case[2].regions) == regions
        and supporters(case[2].regions[0]) and len(case[2].regions[0].objects) >= 2
    )


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


@pytest.mark.parametrize("mode", [SearchMode.TREE, SearchMode.COT], ids=lambda m: m.value)
def test_inline_run_starts_no_thread(mode, monkeypatch):
    """An oracle with ``io_bound`` False takes the same code path, every
    floor search, supported-object chain, top and run question asked
    ahead a speculation, but each runs in the calling thread when it is
    committed: a det generation starts no thread and discards nothing."""
    def refuse(thread):
        raise AssertionError("an inline run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    prompt, seed = multi_region_cases()[0]
    scene = generate_scene(prompt, SearchConfig(seed=seed, mode=mode, p_adv=P_ADV),
                           DeterministicOracle(seed=seed, p_adv=P_ADV))
    assert any(e.scope.startswith("top:") for e in scene.trace.events)
    assert scene.trace.discarded_calls == 0


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


def scope_of(q) -> str | None:
    """A spatial query's region or top scope; None for other queries."""
    return getattr(getattr(q, "context", None), "scope", None)


def label(q) -> str:
    """A call's kind: the query class, or for spatial queries the search
    it belongs to."""
    scope = scope_of(q)
    if scope is None:
        return type(q).__name__
    return "top search" if scope.startswith("top:") else "floor search"


class TrackingOracle(PlacementOracle):
    """The det oracle behind a sleep of ``delay(q)`` seconds per call,
    declared I/O-bound.  ``reply(q)``, when it returns text, replaces the
    det reply (and may raise instead).  Keeps the pairs of call kinds
    that were in flight at once, the calls in the order they finished,
    and the labels of every call asked."""

    io_bound = True

    def __init__(self, inner, delay=lambda q: 0.001, reply=lambda q: None):
        self.inner = inner
        self.delay = delay
        self.reply = reply
        self._lock = threading.Lock()
        self._in_flight: list[str] = []
        self.overlaps: set[frozenset[str]] = set()
        self.finished: list = []
        self.asked: list[str] = []

    def query(self, q):
        kind = label(q)
        with self._lock:
            self.overlaps.update(frozenset((other, kind)) for other in self._in_flight)
            self._in_flight.append(kind)
            self.asked.append(kind)
        try:
            time.sleep(self.delay(q))
            text = self.reply(q)
            return OracleReply(text) if text is not None else self.inner.query(q)
        finally:
            with self._lock:
                self._in_flight.remove(kind)
                self.finished.append(q)


def run_joined(fn, timeout=60.0):
    """``fn()`` on a thread joined with a timeout; fails on a hang or when
    the run leaves a thread behind.  Returns (result, exception)."""
    box: dict = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:
            box["error"] = exc

    before = threading.active_count()
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the generation hung"
    assert threading.active_count() == before
    return box.get("result"), box.get("error")


def assert_inline_bytes(prompt, seed, oracle, tmp_path, mode=SearchMode.TREE):
    """A run over the tracking ``oracle`` writes the bytes and makes the
    oracle calls of the inline run over the same replies; returns the
    overlapped run's scene."""
    inline = TrackingOracle(oracle.inner, delay=lambda q: 0, reply=oracle.reply)
    inline.io_bound = False
    scene, trace_bytes, transcript = recorded_run(prompt, seed, mode, inline, tmp_path)
    result, error = run_joined(lambda: recorded_run(prompt, seed, mode, oracle, tmp_path))
    assert error is None
    o_scene, o_trace, o_transcript = result
    assert scene_to_text(o_scene) == scene_to_text(scene)
    assert o_trace == trace_bytes
    assert o_transcript.records == transcript.records
    assert o_scene.trace.oracle_calls == scene.trace.oracle_calls == len(transcript.records)
    assert scene.trace.discarded_calls == 0
    return o_scene


@pytest.mark.parametrize("case", range(4))
def test_hierarchy_calls_overlap_other_calls(case, tmp_path):
    prompt, seed = multi_region_cases()[case]
    oracle = TrackingOracle(
        DeterministicOracle(seed=seed, p_adv=P_ADV),
        delay=lambda q: 0.005 if isinstance(q, (ObjectsQuery, SupportedQuery)) else 0.001,
    )
    assert_inline_bytes(prompt, seed, oracle, tmp_path)
    assert any(pair & {"ObjectsQuery", "SupportedQuery"} for pair in oracle.overlaps)


def test_supported_query_overlaps_the_floor_search(tmp_path):
    prompt, seed, _ = first_case(regions=1)
    oracle = TrackingOracle(
        DeterministicOracle(seed=seed, p_adv=P_ADV),
        delay=lambda q: 0.05 if isinstance(q, SupportedQuery) else 0.001,
    )
    assert_inline_bytes(prompt, seed, oracle, tmp_path)
    assert frozenset({"SupportedQuery", "floor search"}) in oracle.overlaps


def test_later_region_objects_reply_first_keeps_ids(tmp_path):
    prompt, seed, plan = first_case(regions=2)
    first, second = plan.regions[0].id, plan.regions[1].id

    def delay(q):
        return 0.05 if isinstance(q, ObjectsQuery) and q.region_id == first else 0.001

    oracle = TrackingOracle(DeterministicOracle(seed=seed, p_adv=P_ADV), delay=delay)
    assert_inline_bytes(prompt, seed, oracle, tmp_path)
    answered = [q.region_id for q in oracle.finished if isinstance(q, ObjectsQuery)]
    assert answered == [second, first]


# -- supporter tops searched while the floor search runs --


def test_top_search_overlaps_the_floor_search(tmp_path):
    prompt, seed, _, _ = top_case()
    oracle = TrackingOracle(
        DeterministicOracle(seed=seed, p_adv=P_ADV),
        delay=lambda q: 0.01 if label(q) == "floor search" else 0.001,
    )
    scene = assert_inline_bytes(prompt, seed, oracle, tmp_path)
    assert frozenset({"top search", "floor search"}) in oracle.overlaps
    assert scene.trace.discarded_calls == 0  # every supporter was placed


def test_unsat_tree_region_drops_its_searched_tops(tmp_path):
    prompt, seed, plan, _ = top_case()
    region = plan.regions[0]

    def unusable(q):  # no floor object of the first region gets a usable reply
        return "nothing" if scope_of(q) == region.id else None

    oracle = TrackingOracle(DeterministicOracle(seed=seed, p_adv=P_ADV), reply=unusable)
    scene = assert_inline_bytes(prompt, seed, oracle, tmp_path)
    assert region.id in scene.unsat_regions
    assert "top search" in oracle.asked
    # every eval says no, so each run question of the region was asked
    # ahead of one and dropped with it
    dropped_runs = sum(isinstance(q, CellsQuery) and scope_of(q) == region.id
                       for q in oracle.finished)
    assert scene.trace.discarded_calls == oracle.asked.count("top search") + dropped_runs
    assert oracle.asked.count("top search") > 0
    assert not any(e.scope.startswith("top:") for e in scene.trace.events)


def skipped_supporter_oracle(seed, supporter, top_reply=lambda q: None):
    """Unusable replies for one floor object, so CoT skips it; ``top_reply``
    answers (or raises on) the queries of the other searches' tops."""
    def reply(q):
        context = getattr(q, "context", None)
        if scope_of(q) == f"top:{supporter}":
            return top_reply(q)
        if context is not None and context.object_id == supporter:
            return "nothing"
        return None

    return TrackingOracle(DeterministicOracle(seed=seed, p_adv=P_ADV), reply=reply)


def test_supporter_skipped_by_cot_drops_its_searched_top(tmp_path):
    prompt, seed, _, supporter = top_case()
    oracle = skipped_supporter_oracle(seed, supporter)
    scene = assert_inline_bytes(prompt, seed, oracle, tmp_path, SearchMode.COT)
    assert supporter not in {p.spec_id for p in scene.placements}
    assert any(e.object_id == supporter and e.kind is EventKind.REJECTED
               and e.note == "supporter unplaced, supported set dropped"
               for e in scene.trace.events)
    asked = [scope_of(q) for q in oracle.finished]
    dropped = asked.count(f"top:{supporter}")
    assert scene.trace.discarded_calls == dropped > 0
    # the other supporters' tops are kept
    assert any(s.startswith("top:") and s != f"top:{supporter}"
               for s in filter(None, asked))
    assert any(e.scope.startswith("top:") for e in scene.trace.events)


def test_generate_reports_discarded_calls(tmp_path, monkeypatch):
    prompt, seed, _, supporter = top_case()
    oracle = skipped_supporter_oracle(seed, supporter)
    monkeypatch.setattr(cli, "_build_oracle", lambda *args: oracle)
    result, error = run_joined(lambda: CliRunner().invoke(cli.main, [
        "generate", "--seed", str(seed), "--p-adv", str(P_ADV), "--mode", "cot",
        "--prompt", prompt, "--out-dir", str(tmp_path / "o")]))
    assert error is None
    dropped = sum(scope_of(q) == f"top:{supporter}" for q in oracle.finished)
    assert f" discarded_calls={dropped}\n" in result.output
    assert result.output.startswith("wrote ")


def test_oracle_failure_of_a_dropped_top_does_not_fail_the_run(tmp_path):
    prompt, seed, _, supporter = top_case()

    def failing(q):
        raise OracleFailure("transport down")

    oracle = skipped_supporter_oracle(seed, supporter, failing)
    scene = assert_inline_bytes(prompt, seed, oracle, tmp_path, SearchMode.COT)
    assert scene.trace.discarded_calls == 1  # the top's first call raised


# -- failure paths: no hang, every thread joined, the serial run's error --


def test_unusable_objects_replies_of_region_2_exit_3(tmp_path, monkeypatch):
    prompt, seed, plan = first_case(regions=2)
    second = plan.regions[1].id

    def unusable(q):
        return "no objects" if isinstance(q, ObjectsQuery) and q.region_id == second else None

    def delay(q):
        return 0.02 if isinstance(q, ObjectsQuery) and q.region_id == second else 0.001

    oracle = TrackingOracle(DeterministicOracle(seed=seed, p_adv=P_ADV), delay, unusable)
    monkeypatch.setattr(cli, "_build_oracle", lambda *args: oracle)
    out = tmp_path / "o"
    result, error = run_joined(lambda: CliRunner().invoke(
        cli.main, ["generate", "--seed", str(seed), "--prompt", prompt, "--out-dir", str(out)]))
    assert error is None
    assert result.exit_code == 3
    assert "oracle failure" in result.output
    assert not (out / "scene.json").exists()
    # region 1 was searching while region 2 asked
    assert frozenset({"ObjectsQuery", "floor search"}) in oracle.overlaps


def test_supported_failure_in_region_1_stops_waiting_region_2():
    prompt, seed, plan = first_case(regions=2)
    first_supporters = {s.id for s in supporters(plan.regions[0])}

    def region_1_supported(q):
        return isinstance(q, SupportedQuery) and q.floor_object_id in first_supporters

    oracle = TrackingOracle(
        DeterministicOracle(seed=seed, p_adv=P_ADV),
        delay=lambda q: 0.02 if region_1_supported(q) else 0.001,
        reply=lambda q: "zeppelin 0.1 x 0.1 x 0.1 | place_around" if region_1_supported(q) else None,
    )
    _, error = run_joined(lambda: generate_scene(prompt, SearchConfig(seed=seed, p_adv=P_ADV),
                                                 oracle))
    assert isinstance(error, OracleFailure) and "zeppelin" in str(error)
    # region 2's objects reply was back before region 1's supported chains
    # failed; region 2 then never took its turn, so it asked nothing more
    second = plan.regions[1].id
    finished = oracle.finished
    waited = next(i for i, q in enumerate(finished)
                  if isinstance(q, ObjectsQuery) and q.region_id == second)
    assert waited < max(i for i, q in enumerate(finished) if region_1_supported(q))
    assert not any(getattr(getattr(q, "context", None), "scope", None) == second
                   for q in finished)
    assert oracle.asked.count("SupportedQuery") == 3 * len(first_supporters)


def test_hierarchy_error_of_region_2_wins_over_search_error_of_region_1():
    prompt, seed, plan = first_case(regions=2)
    first, second = plan.regions[0].id, plan.regions[1].id

    def reply(q):
        if label(q) == "floor search" and q.context.scope == first:
            raise RegionFailure(first)
        if isinstance(q, ObjectsQuery) and q.region_id == second:
            return "no objects"
        return None

    def delay(q):
        return 0.02 if isinstance(q, ObjectsQuery) and q.region_id == second else 0.001

    oracle = TrackingOracle(DeterministicOracle(seed=seed, p_adv=P_ADV), delay, reply)
    _, error = run_joined(lambda: generate_scene(prompt, SearchConfig(seed=seed, p_adv=P_ADV),
                                                 oracle))
    assert isinstance(error, OracleFailure)
    assert "floor search" in oracle.asked  # region 1's search failed first in time


def test_floor_search_error_wins_over_top_error_of_the_same_region():
    prompt, seed, plan, _ = top_case()
    region = plan.regions[0]

    def reply(q):
        if scope_of(q) == region.id:
            raise RegionFailure(region.id)
        if label(q) == "top search":
            raise RegionFailure("top")
        return None

    oracle = TrackingOracle(
        DeterministicOracle(seed=seed, p_adv=P_ADV),
        delay=lambda q: 0.05 if scope_of(q) == region.id else 0.001, reply=reply,
    )
    _, error = run_joined(lambda: generate_scene(prompt, SearchConfig(seed=seed, p_adv=P_ADV),
                                                 oracle))
    assert isinstance(error, RegionFailure) and error.args == (region.id,)
    # the tops failed first in time
    first_failed = next(q for q in oracle.finished if label(q) != type(q).__name__)
    assert label(first_failed) == "top search"
