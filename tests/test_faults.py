"""A fault-injected slice: the rejection paths the det oracle never takes.

The det oracle, even at ``p_adv`` 1.0, gives only legal answers: its
side-evals never say no and its run replies always parse.  Behind
``digest_sweep.FaultyOracle`` a quarter of the replies are faults, so
the slice reaches the parse-error, eval-"no" and final-check rejection
paths, the speculative run questions that an eval "no" drops among them.
It must still write the inline bytes when its calls overlap, place
nothing illegally, fail only with the engine's typed errors, and replay
from its transcript.

The final check rejects few poses: over 1,200 faulted generations
(tree and cot, every ``p_adv``, seeds 0-1) none for bounds, 4 for the
relation and none for overlap, so the bounds case below comes from seed
13 and the ``overlap`` term is covered by unit tests only.  A run reply
reaches it only when its step has at least two live answers, and a
faulted reply must name exactly the cells of a run to parse.
"""

import tempfile
from pathlib import Path

import pytest

from digest_sweep import FaultyOracle, generation_bytes, load_prompts
from treelayout.catalog import AssetCatalog
from treelayout.compose import CompositionOverlap
from treelayout.evaluate import validity_metrics
from treelayout.grid import VocabularyExhausted
from treelayout.hierarchy import InvalidPlan
from treelayout.model import EventKind, Scene, SearchConfig, SearchMode
from treelayout.oracle.base import OracleFailure
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.transcript import RecordingOracle, ReplayOracle
from treelayout.pipeline import generate_scene
from treelayout.sceneio import scene_to_text

FAULTS = 0.25
TYPED_ERRORS = (OracleFailure, VocabularyExhausted, InvalidPlan, CompositionOverlap)


def test_faulted_slice_overlapped_writes_inline_bytes_and_stays_sound():
    catalog = AssetCatalog.default()
    eval_no = discarded = scenes = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for prompt in load_prompts()[:10]:
            for seed in (0, 1):
                for mode in (SearchMode.TREE, SearchMode.COT):
                    for p_adv in (0.0, 0.35):
                        case = (prompt, seed, mode.value, p_adv)
                        data, outcome = generation_bytes(prompt, seed, mode, p_adv, catalog, out,
                                                         faults=FAULTS)
                        o_data, o_outcome = generation_bytes(prompt, seed, mode, p_adv, catalog,
                                                             out, overlap=True, faults=FAULTS)
                        assert o_data == data, case
                        if not isinstance(outcome, Scene):
                            assert isinstance(outcome, TYPED_ERRORS), (case, outcome)
                            continue
                        scenes += 1
                        m = validity_metrics(outcome, SearchConfig(seed=seed, mode=mode,
                                                                   p_adv=p_adv))
                        assert (m.overlap_pairs, m.oob_objects, m.relation_violations) == (
                            0, 0, 0), case
                        assert outcome.trace.discarded_calls == 0
                        eval_no += sum(e.note.count(": eval no") for e in outcome.trace.events)
                        discarded += o_outcome.trace.discarded_calls
    assert scenes >= 70
    # the faults reached the eval-"no" branch, and the overlapped runs
    # dropped what they had asked ahead
    assert eval_no > 0
    assert discarded > 0


def test_final_check_rejects_faulted_poses_end_to_end():
    # (prompt index, seed, mode, p_adv, the final-check note its trace must hold)
    catalog = AssetCatalog.default()
    with tempfile.TemporaryDirectory() as tmp:
        for index, seed, mode, p_adv, note in (
                (9, 13, SearchMode.COT, 0.35, "left: bounds"),
                (20, 0, SearchMode.TREE, 1.0, "left: relation")):
            _, scene = generation_bytes(load_prompts()[index], seed, mode, p_adv, catalog,
                                        Path(tmp), faults=FAULTS)
            assert isinstance(scene, Scene), (index, scene)
            m = validity_metrics(scene, SearchConfig(seed=seed, mode=mode, p_adv=p_adv))
            assert (m.overlap_pairs, m.oob_objects, m.relation_violations) == (0, 0, 0), index
            reasons = {reason for e in scene.trace.events if e.kind is EventKind.REJECTED
                       for reason in e.note.removeprefix("skipped: ").split("; ")}
            assert note in reasons, (index, reasons)


def test_faulted_runs_replay_from_their_transcripts():
    for prompt in load_prompts()[:5]:
        for mode in (SearchMode.TREE, SearchMode.COT):
            config = SearchConfig(seed=0, mode=mode, p_adv=0.35)
            recording = RecordingOracle(FaultyOracle(DeterministicOracle(seed=0, p_adv=0.35),
                                                     FAULTS))
            try:
                scene = generate_scene(prompt, config, recording)
            except TYPED_ERRORS:
                continue
            replayed = generate_scene(prompt, config, ReplayOracle(recording.transcript))
            assert scene_to_text(replayed) == scene_to_text(scene)
            assert replayed.trace.events == scene.trace.events


@pytest.mark.parametrize("faults", [0.0, FAULTS])
def test_every_backtrack_pairs_with_the_pose_it_removes(faults):
    """``render.replay_placements`` pops a layer's pose on a backtrack, so
    every ``from_layer=`` backtrack at (scope, L) reads ``from_layer=L+1``
    and has the visit of the last pose accepted at (scope, L).  CoT
    never backtracks."""
    catalog = AssetCatalog.default()
    backtracks = 0
    for prompt in load_prompts()[:40]:
        for mode in (SearchMode.TREE, SearchMode.COT):
            oracle = DeterministicOracle(seed=0, p_adv=1.0, catalog=catalog)
            if faults:
                oracle = FaultyOracle(oracle, faults)
            try:
                scene = generate_scene(prompt, SearchConfig(seed=0, mode=mode, p_adv=1.0),
                                       oracle, catalog)
            except TYPED_ERRORS:
                continue
            accepted: dict[tuple[str, int], int] = {}
            for e in scene.trace.events:
                if e.kind is EventKind.ACCEPTED:
                    accepted[(e.scope, e.layer)] = e.visit
                elif e.kind is EventKind.BACKTRACK and e.note.startswith("from_layer="):
                    case = (prompt, mode.value, e.scope, e.layer)
                    assert mode is SearchMode.TREE, case
                    assert e.note == f"from_layer={e.layer + 1}", case
                    assert e.visit == accepted[(e.scope, e.layer)], case
                    backtracks += 1
    assert backtracks > 0


def poses_placed_again(events):
    """(scope, layer, object, pose) of each pose accepted at a layer whose
    subtree had already failed there while the layers below held the poses
    they hold now."""
    again, failed, current = [], {}, {}
    for e in events:
        key = (e.scope, e.layer)
        if e.kind is EventKind.ACCEPTED:
            if e.pose in failed.get(key, ()):
                again.append((e.scope, e.layer, e.object_id, e.pose))
            current[key] = e.pose
            failed[(e.scope, e.layer + 1)] = set()
        elif e.kind is EventKind.BACKTRACK and e.note.startswith("from_layer="):
            failed.setdefault(key, set()).add(current.pop(key))
    return again


def test_a_failed_pose_is_not_placed_again_from_another_side():
    """A cell beside a corner of the anchor is a candidate on two sides,
    so one pose has a key on each.  Here the armchair's pose at
    (0.5, 2.25) fails from the bottom side; excluded by that key alone, it
    was placed again from the left side, and the coffee table's questions
    were asked twice (the recording oracle refuses a repeated fingerprint)."""
    catalog = AssetCatalog.default()
    with tempfile.TemporaryDirectory() as tmp:
        _, scene = generation_bytes(load_prompts()[91], 0, SearchMode.TREE, 0.35, catalog,
                                    Path(tmp), faults=FAULTS)
    assert isinstance(scene, Scene), scene
    assert poses_placed_again(scene.trace.events) == []
