"""Span recording for the traced benchmark run, applied from outside the program.

The recorder wraps public functions of ``treelayout`` at every module
attribute bound to them (a function imported into another module is a
separate binding) and restores the originals when the traced run ends.
Each span keeps its name, start, end, parent span and generation id in
flat arrays; nothing is written until the run is over.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (span name, defining module, attribute) for every wrapped function.
FUNCTION_SPANS = (
    ("oracle.policy.side_scores", "treelayout.oracle.policy", "side_scores"),
    ("oracle.policy.feasible_primary_starts", "treelayout.oracle.policy", "feasible_primary_starts"),
    ("oracle.policy.feasible_secondary_starts", "treelayout.oracle.policy", "feasible_secondary_starts"),
    ("grid.serialize_grid_prompt", "treelayout.grid", "serialize_grid_prompt"),
    ("grid.rasterize", "treelayout.grid", "rasterize"),
    ("grid.assign_emojis", "treelayout.grid", "assign_emojis"),
    ("grid.candidate_cells", "treelayout.grid", "candidate_cells"),
    ("grid.parse_emoji_selection", "treelayout.grid", "parse_emoji_selection"),
    ("kernels.first_overlap", "treelayout.kernels", "first_overlap"),
    ("kernels.rasterize_codes", "treelayout.kernels", "rasterize_codes"),
    ("kernels.free_cells_on_side", "treelayout.kernels", "free_cells_on_side"),
    ("oracle.fingerprint", "treelayout.oracle.queries", "fingerprint"),
    ("hierarchy.build_room_plan", "treelayout.hierarchy", "build_room_plan"),
    ("search.plan_region", "treelayout.search", "plan_region"),
    ("search.local_place", "treelayout.search", "local_place"),
    ("search.place_anchor_visit", "treelayout.search", "place_anchor_visit"),
    ("search.place_supported", "treelayout.search", "place_supported"),
    ("pipeline.generate_scene", "treelayout.pipeline", "generate_scene"),
    ("pipeline.solve_plan", "treelayout.pipeline", "solve_plan"),
    ("compose.compose", "treelayout.compose", "compose"),
    ("compose.attach_supported", "treelayout.compose", "attach_supported"),
    ("sceneio.write_scene", "treelayout.sceneio", "write_scene"),
    ("sceneio.write_trace", "treelayout.sceneio", "write_trace"),
    ("render.render_scene", "treelayout.render", "render_scene"),
)

# Methods wrapped on their class: (span name, module, class, method).
METHOD_SPANS = (
    ("oracle.transcript.load", "treelayout.oracle.transcript", "Transcript", "load"),
    ("oracle.transcript.dump", "treelayout.oracle.transcript", "Transcript", "dump"),
)

# OracleSession.ask is wrapped once; its span is named after the query kind.
QUERY_KINDS = {
    "RoomQuery": "oracle.room",
    "RegionQuery": "oracle.regions",
    "ObjectsQuery": "oracle.objects",
    "SupportedQuery": "oracle.supported",
    "SideQuery": "oracle.side",
    "SideEvalQuery": "oracle.side_eval",
    "CellsQuery": "oracle.cells",
}

GEN_SPAN = "gen"

SPAN_NAMES = (
    tuple(name for name, *_ in FUNCTION_SPANS)
    + tuple(name for name, *_ in METHOD_SPANS)
    + tuple(QUERY_KINDS.values())
)


class SpanRecorder:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.gen = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.gen_id = -1

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.gen.append(self.gen_id)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def wrap_ask(self, ask):
        ids = {cls: self._id(name) for cls, name in QUERY_KINDS.items()}
        begin, finish = self._begin, self._finish

        @functools.wraps(ask)
        def traced(session, q):
            idx = begin(ids[type(q).__name__])
            try:
                return ask(session, q)
            finally:
                finish(idx)

        return traced

    @contextmanager
    def generation(self, gen_id: int):
        """Root span of one timed generation."""
        self.gen_id = gen_id
        idx = self._begin(self._id(GEN_SPAN))
        try:
            yield
        finally:
            self._finish(idx)
            self.gen_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def durations_ns(self) -> tuple[list[int], list[int]]:
        """(inclusive, self) duration of every span; self is the span minus
        the part its direct child spans cover."""
        total = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(total)
        for idx, p in enumerate(self.parent):
            if p >= 0:
                child[p] += total[idx]
        return total, [t - c for t, c in zip(total, child)]

    def write(self, path: Path) -> None:
        """Write every span as tab-separated text: name, start_ns, end_ns,
        parent index, generation id (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tgen\n")
            names = self.names
            for nid, s, e, p, g in zip(self.name_id, self.start, self.end, self.parent, self.gen):
                fh.write(f"{names[nid]}\t{s}\t{e}\t{p}\t{g}\n")


class Patched:
    """Context manager that wraps every binding of the traced functions and
    restores the originals on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _rebind_everywhere(self, original, wrapper) -> int:
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "treelayout" or mod_name.startswith("treelayout.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    count += 1
        return count

    def __enter__(self) -> SpanRecorder:
        rec = self.recorder
        for name, mod_name, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[mod_name], attr)
            if self._rebind_everywhere(original, rec.wrap(name, original)) == 0:
                raise RuntimeError(f"no binding found for {mod_name}.{attr}")
        for name, mod_name, cls_name, meth in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(rec.wrap(name, raw.__func__))
            else:
                wrapped = rec.wrap(name, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
        session_cls = sys.modules["treelayout.oracle.base"].OracleSession
        raw_ask = session_cls.__dict__["ask"]
        self._undo.append((session_cls, "ask", raw_ask))
        session_cls.ask = rec.wrap_ask(raw_ask)
        return rec

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False
