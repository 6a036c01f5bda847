"""One SHA-256 digest over everything a sweep of det generations writes.

Refactors that must not change behaviour are checked by running this
script before and after the change and comparing the printed digest.
For every prompt x seed x mode x ``p_adv`` it runs the det oracle behind
a recording wrapper, writes ``scene.json``, ``trace.jsonl`` and
``scene.svg`` the way ``treelayout generate`` does, and hashes their
bytes together with the transcript records (fingerprint and reply; the
header holds the recording time, so it is left out) and the oracle-call
count.  A generation that raises contributes its exception instead.

Run from the repository root (pytest does not collect this file)::

    PYTHONPATH=src python tests/digest_sweep.py
    PYTHONPATH=src python tests/digest_sweep.py --prompts 10 --seeds 0 --each
    PYTHONPATH=src python tests/digest_sweep.py --cell-size 0.15
    PYTHONPATH=src python tests/digest_sweep.py --overlap
    PYTHONPATH=src python tests/digest_sweep.py --faults 0.25 --modes tree cot --overlap
    PYTHONPATH=src python tests/digest_sweep.py --placements
    PYTHONPATH=src python tests/digest_sweep.py --backtracks
    PYTHONPATH=src python tests/digest_sweep.py --calls
    PYTHONPATH=src python tests/digest_sweep.py --modes tree --seeds 0 1 2 --p-adv 0 --unsat

The defaults are the full check: 100 prompts x seeds 0-1 x tree/cot/io x
``p_adv`` 0/0.35/1.0, 1,800 generations, at ``SearchConfig``'s default
cell size.  ``--cell-size`` sweeps another grid: 0.15 gives wider rows
and, a fifth of that, 0.03 m cells on supporter tops.  ``--overlap``
puts the det oracle behind :class:`OverlappedOracle`, so the pipeline
overlaps its subproblems on threads; the digest must equal the inline
one, and the sweep's total of discarded speculative calls (tops searched
for supporters that ended unplaced, and run questions asked with a
side-eval that said no) is printed next to it.  Every run prints the
sweep's total of kept oracle calls, ``calls=N``.  ``--placements``
hashes only what each generation placed: ``scene.json`` without its
``trace_summary`` (or the exception raised), so a change that saves
oracle calls on purpose can show that it moved no object.
``--faults Q`` puts :class:`FaultyOracle` between the det oracle and
the rest, so a share ``Q`` of the local-step replies are faults: it
reaches the rejection paths the det oracle never takes.  ``--each``
also prints one digest per generation, to find the inputs whose bytes
differ.  ``--backtracks`` also prints, on a second line, the sweep's
backtracks per layer: the ``from_layer=`` BACKTRACK events of the
traces, by the layer they return to.  ``--calls`` also prints, per
query kind, the kept oracle calls and the local steps taken without a
call because they had one live answer (``SearchTrace.forced_steps``),
and the dead answers the traces note: a side reply that names a side
with no feasible pose (``<side>: no feasible pose``) and a facing reply
whose anchor box leaves the region (``anchor does not fit on
<facing>``).  An asked question tells the oracle not to give either, so
the det oracle gives none; a local search that goes on to place its
object returns no notes, so its dead answers are not counted.
``--unsat`` also prints the sweep's unsat regions, one line each, and
how many supported sets were dropped because their top was unsat
(``supported set dropped (unsat)``).
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import random
import re
import tempfile
import time
from importlib import resources
from pathlib import Path

from treelayout import render, sceneio
from treelayout.catalog import AssetCatalog
from treelayout.grid import Side
from treelayout.model import EventKind, Scene, SearchConfig, SearchMode
from treelayout.oracle.base import PlacementOracle
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.queries import (
    CellsQuery,
    FullLayoutQuery,
    OracleQuery,
    OracleReply,
    SideEvalQuery,
    SideQuery,
)
from treelayout.oracle.transcript import RecordingOracle
from treelayout.pipeline import generate_scene

OUTPUT_FILES = ("scene.json", "trace.jsonl", "scene.svg")
QUERY_KINDS = ("room", "regions", "objects", "supported", "side", "side_eval", "cells",
               "full_layout")
DEAD_SIDE = re.compile(r"(left|right|top|bottom): no feasible pose")


def load_prompts() -> list[str]:
    text = resources.files("treelayout.data").joinpath("prompt_set.txt").read_text("utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


class OverlappedOracle(PlacementOracle):
    """Passes queries to the det oracle after a sleep of up to 0.5 ms
    taken from the query fingerprint, and declares itself I/O-bound: the
    pipeline then runs its overlapped path, and calls finish out of
    serial order."""

    io_bound = True

    def __init__(self, inner: PlacementOracle):
        self.inner = inner

    def query(self, q: OracleQuery) -> OracleReply:
        time.sleep(int(q.fp[:2], 16) / 255 * 0.0005)
        return self.inner.query(q)


class FaultyOracle(PlacementOracle):
    """Passes queries to the wrapped oracle, except that a share ``rate``
    of the hierarchy and local-step queries get a fault instead: a
    hierarchy query gets its reply cut short, maybe to nothing; a
    side-eval says "no"; a side query gets a random side or text that
    names none or two; and a cells query gets 1-4 names drawn from the
    query's own emoji map.  Which queries fail, and how, is drawn from
    the query fingerprint, so a run replays."""

    io_bound = False
    SIDE_FAULTS = tuple(side.value for side in Side) + ("somewhere else", "left or right", "")

    def __init__(self, inner: PlacementOracle, rate: float):
        self.inner = inner
        self.rate = rate

    def query(self, q: OracleQuery) -> OracleReply:
        rng = random.Random(q.fp)
        if isinstance(q, FullLayoutQuery) or rng.random() >= self.rate:
            return self.inner.query(q)
        if not isinstance(q, (SideQuery, SideEvalQuery, CellsQuery)):
            text = self.inner.query(q).text
            return OracleReply(text[:rng.randrange(len(text) + 1)])
        if isinstance(q, SideEvalQuery):
            return OracleReply("no")
        if isinstance(q, SideQuery):
            return OracleReply(rng.choice(self.SIDE_FAULTS))
        names = list(q.emap.entries.values())
        return OracleReply(" ".join(rng.sample(names, min(len(names), rng.randint(1, 4)))))


class KindOracle(PlacementOracle):
    """Passes queries on and keeps the kind of each (the ``kind=`` line of
    its canonical text) by fingerprint."""

    def __init__(self, inner: PlacementOracle):
        self.inner = inner
        self.io_bound = inner.io_bound
        self.kinds: dict[str, str] = {}

    def query(self, q: OracleQuery) -> OracleReply:
        self.kinds[q.fp] = q.canonical_text().split("\n", 1)[0].removeprefix("kind=")
        return self.inner.query(q)


def generation_bytes(prompt: str, seed: int, mode: SearchMode, p_adv: float,
                     catalog: AssetCatalog, out: Path,
                     cell_size: float = SearchConfig.cell_size,
                     overlap: bool = False, faults: float = 0.0,
                     kinds: collections.Counter | None = None,
                     ) -> tuple[bytes, Scene | Exception]:
    """Everything one generation writes, as one byte string, and the
    run's scene, or the exception it raised.  ``faults`` is the
    :class:`FaultyOracle` rate, 0 for none.  ``kinds``, when given, counts
    the kept calls of a generation that returns by query kind."""
    config = SearchConfig(seed=seed, mode=mode, p_adv=p_adv, cell_size=cell_size)
    oracle: PlacementOracle = DeterministicOracle(seed=seed, p_adv=p_adv, catalog=catalog)
    if faults:
        oracle = FaultyOracle(oracle, faults)
    if overlap:
        oracle = OverlappedOracle(oracle)
    if kinds is not None:
        oracle = KindOracle(oracle)
    recording = RecordingOracle(oracle)
    try:
        scene = generate_scene(prompt, config, recording, catalog)
    except Exception as exc:  # part of the behaviour under test
        return f"raised {type(exc).__name__}: {exc}".encode("utf-8"), exc
    if kinds is not None:
        kinds.update(oracle.kinds[fp] for fp, _ in recording.transcript.records)
    sceneio.write_scene(scene, out / "scene.json")
    sceneio.write_trace(scene.trace, out / "trace.jsonl")
    (out / "scene.svg").write_text(render.render_scene(scene), "utf-8")
    parts = [(out / name).read_bytes() for name in OUTPUT_FILES]
    parts.append(json.dumps(recording.transcript.records).encode("utf-8"))
    parts.append(str(scene.trace.oracle_calls).encode("ascii"))
    return b"".join(len(p).to_bytes(8, "big") + p for p in parts), scene


def placement_bytes(outcome: Scene | Exception) -> bytes:
    """What a generation placed, apart from the calls it took: its
    ``scene.json`` without ``trace_summary``, or the exception it raised."""
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}: {outcome}".encode("utf-8")
    doc = sceneio.scene_to_doc(outcome)
    del doc["trace_summary"]
    return sceneio.canonical_json(doc).encode("utf-8")


def dead_answers(scene: Scene) -> collections.Counter:
    """The dead-answer notes of the scene's REJECTED events, as ``side``
    and ``facing`` counts.  (A wall or corner proposal that does not fit
    is the engine's, and notes ``anchor proposal <key> does not fit``.)"""
    found: collections.Counter = collections.Counter()
    for e in scene.trace.events:
        if e.kind is EventKind.REJECTED:
            for reason in e.note.removeprefix("skipped: ").split("; "):
                if DEAD_SIDE.fullmatch(reason):
                    found["side"] += 1
                elif reason.startswith("anchor does not fit on "):
                    found["facing"] += 1
    return found


def sweep_digest(prompts: list[str], seeds, modes, p_advs,
                 cell_size: float = SearchConfig.cell_size, each=None,
                 overlap: bool = False, calls: collections.Counter | None = None,
                 faults: float = 0.0, placements: bool = False,
                 backtracks: collections.Counter | None = None,
                 kinds: collections.Counter | None = None,
                 forced: collections.Counter | None = None,
                 dead: collections.Counter | None = None,
                 unsat: list[tuple] | None = None) -> tuple[str, int]:
    """(hex digest, generation count) over every prompt x seed x mode x
    ``p_adv``; ``each(index, seed, mode, p_adv, digest)`` sees every
    generation's own digest.  ``overlap`` runs the det oracle behind
    :class:`OverlappedOracle`, ``faults`` behind a :class:`FaultyOracle`
    of that rate.  ``placements`` hashes each generation's
    :func:`placement_bytes` instead of everything it writes.  ``calls``,
    when given, sums the oracle calls of the generations under ``kept``
    and ``discarded``; ``backtracks``, when given, counts the traces'
    ``from_layer=`` backtracks by layer; ``kinds`` and ``forced``, when
    given, count the kept calls and the forced steps by query kind;
    ``dead``, when given, counts the traces' dead-answer notes under
    ``side`` and ``facing``; ``unsat``, when given, gets ``(index, seed,
    mode, p_adv, unsat region ids, dropped supported sets)`` per
    generation with either."""
    catalog = AssetCatalog.default()
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for p_idx, prompt in enumerate(prompts):
            for seed in seeds:
                for mode in modes:
                    for p_adv in p_advs:
                        data, outcome = generation_bytes(prompt, seed, SearchMode(mode), p_adv,
                                                         catalog, out, cell_size, overlap, faults,
                                                         kinds)
                        if calls is not None and isinstance(outcome, Scene):
                            calls["kept"] += outcome.trace.oracle_calls
                            calls["discarded"] += outcome.trace.discarded_calls
                        if forced is not None and isinstance(outcome, Scene):
                            forced.update(outcome.trace.forced_steps)
                        if dead is not None and isinstance(outcome, Scene):
                            dead.update(dead_answers(outcome))
                        if unsat is not None and isinstance(outcome, Scene):
                            dropped = sum(e.note == "supported set dropped (unsat)"
                                          for e in outcome.trace.events)
                            if outcome.unsat_regions or dropped:
                                unsat.append((p_idx, seed, mode, p_adv,
                                              outcome.unsat_regions, dropped))
                        if backtracks is not None and isinstance(outcome, Scene):
                            backtracks.update(
                                e.layer for e in outcome.trace.events
                                if e.kind is EventKind.BACKTRACK
                                and e.note.startswith("from_layer="))
                        if placements:
                            data = placement_bytes(outcome)
                        digest = hashlib.sha256(data).digest()
                        total.update(digest)
                        count += 1
                        if each is not None:
                            each(p_idx, seed, mode, p_adv, digest.hex()[:16])
    return total.hexdigest(), count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--prompts", type=int, default=100, help="first N shipped prompts")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--modes", nargs="+", default=["tree", "cot", "io"])
    parser.add_argument("--p-adv", type=float, nargs="+", default=[0.0, 0.35, 1.0])
    parser.add_argument("--cell-size", type=float, default=SearchConfig.cell_size,
                        help="grid cell size in metres (default %(default)s)")
    parser.add_argument("--overlap", action="store_true",
                        help="overlap subproblems on threads behind a fingerprint-derived sleep")
    parser.add_argument("--faults", type=float, default=0.0, metavar="Q",
                        help="share of local-step replies replaced by faults (default 0)")
    parser.add_argument("--placements", action="store_true",
                        help="hash only scene.json without its trace summary")
    parser.add_argument("--each", action="store_true", help="print one digest per generation")
    parser.add_argument("--backtracks", action="store_true",
                        help="also print the from_layer backtracks per layer")
    parser.add_argument("--calls", action="store_true",
                        help="also print the kept calls and forced steps per query kind, "
                             "and the dead answers")
    parser.add_argument("--unsat", action="store_true",
                        help="also print the unsat regions and the dropped supported sets")
    args = parser.parse_args()

    each = print if args.each else None
    calls: collections.Counter = collections.Counter()
    backtracks: collections.Counter = collections.Counter()
    kinds = collections.Counter() if args.calls else None
    forced: collections.Counter = collections.Counter()
    dead: collections.Counter = collections.Counter()
    unsat: list[tuple] = []
    digest, count = sweep_digest(load_prompts()[:args.prompts], args.seeds, args.modes,
                                 args.p_adv, args.cell_size, each, args.overlap, calls,
                                 args.faults, args.placements, backtracks, kinds, forced, dead,
                                 unsat)
    line = f"{digest}  {count} generations  calls={calls['kept']}"
    if args.overlap:
        line += f"  discarded_calls={calls['discarded']}"
    print(line)
    if args.backtracks:
        per_layer = "  ".join(f"layer {layer}={n}" for layer, n in sorted(backtracks.items()))
        print(f"backtracks={sum(backtracks.values())}  {per_layer}".rstrip())
    if kinds is not None:
        for kind in QUERY_KINDS:
            print(f"{kind:<12} calls={kinds[kind]:<7} forced={forced[kind]}")
        print(f"dead answers: side={dead['side']}  facing={dead['facing']}")
    if args.unsat:
        regions = dropped = 0
        for p_idx, seed, mode, p_adv, region_ids, n_dropped in unsat:
            for region in region_ids:
                print(f"unsat: prompt {p_idx} seed {seed} {mode} p_adv {p_adv} {region}")
            regions += len(region_ids)
            dropped += n_dropped
        print(f"unsat regions={regions}  supported set dropped (unsat)={dropped}")


if __name__ == "__main__":
    main()
