"""Transcript record/replay: byte-exact reproduction of oracle-driven runs.

A transcript is a JSONL file: a metadata header line followed by one
record per oracle call, in serial call order, each holding the query
fingerprint and the raw reply text.  Replay looks queries up by
fingerprint; any miss (including a template-version mismatch) raises
:class:`FingerprintMiss`.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from treelayout.oracle.base import CALL_PATH, FingerprintMiss, PlacementOracle
from treelayout.oracle.queries import OracleQuery, OracleReply
from treelayout.oracle.templates import template_version
from treelayout.sceneio import write_text


@dataclass
class Transcript:
    records: list[tuple[str, str]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def lookup(self) -> dict[str, str]:
        return dict(self.records)

    def dump(self, path: str | Path) -> None:
        lines = [json.dumps({"kind": "meta", **self.metadata}, sort_keys=True)]
        for fp, reply in self.records:
            lines.append(json.dumps({"fp": fp, "reply": reply}, sort_keys=True))
        write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        """Read a transcript file; a line that is not a JSON object, or a
        record without string ``fp`` and ``reply``, raises ``ValueError``
        naming the line."""
        records: list[tuple[str, str]] = []
        metadata: dict = {}
        for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"transcript line {lineno}: not JSON ({exc.msg})") from None
            if not isinstance(row, dict):
                raise ValueError(f"transcript line {lineno}: not a JSON object")
            if row.get("kind") == "meta":
                metadata = {k: v for k, v in row.items() if k != "kind"}
                continue
            fp, reply = row.get("fp"), row.get("reply")
            if not (isinstance(fp, str) and isinstance(reply, str)):
                raise ValueError(f"transcript line {lineno}: record needs string fp and reply")
            records.append((fp, reply))
        return cls(records=records, metadata=metadata)


class RecordingOracle(PlacementOracle):
    """Wraps any oracle and captures (fingerprint, reply) pairs.

    Safe for concurrent calls.  Records are kept sorted by the caller's
    :data:`~treelayout.oracle.base.CALL_PATH` key, so a run whose
    subproblems overlap records them in the order a serial run calls.
    :meth:`discard` removes the records of a speculative search whose
    result went unused, so the transcript holds the serial run's calls.
    """

    def __init__(self, inner: PlacementOracle, model_id: str = "", seed: int | None = None):
        self.inner = inner
        self.io_bound = inner.io_bound
        self.transcript = Transcript(
            metadata={
                "model": model_id,
                "seed": seed,
                "template_version": template_version(),
                "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            }
        )
        self._seen: set[str] = set()
        self._keys: list[tuple[int, ...]] = []
        self._lock = threading.Lock()

    def query(self, q: OracleQuery) -> OracleReply:
        fp = q.fp
        key = CALL_PATH.get().next_key()
        with self._lock:
            if fp in self._seen:
                raise ValueError(f"duplicate query fingerprint while recording: {fp}")
            self._seen.add(fp)
        try:
            reply = self.inner.query(q)
        except BaseException:
            with self._lock:
                self._seen.discard(fp)
            raise
        with self._lock:
            i = bisect.bisect(self._keys, key)
            self._keys.insert(i, key)
            self.transcript.records.insert(i, (fp, reply.text))
        return reply

    def discard(self, prefix: tuple[int, ...]) -> None:
        """Remove the records whose call key starts with ``prefix`` and free
        their fingerprints; the other records keep their order."""
        n = len(prefix)
        with self._lock:
            lo = bisect.bisect_left(self._keys, prefix)
            hi = lo
            while hi < len(self._keys) and self._keys[hi][:n] == prefix:
                hi += 1
            for fp, _ in self.transcript.records[lo:hi]:
                self._seen.discard(fp)
            del self._keys[lo:hi], self.transcript.records[lo:hi]


class ReplayOracle(PlacementOracle):
    """Serves replies from a transcript; read-only after load."""

    io_bound = False

    def __init__(self, transcript: Transcript):
        recorded = transcript.metadata.get("template_version")
        if recorded is not None and recorded != template_version():
            raise FingerprintMiss(
                fp="-",
                query_text=(
                    f"transcript recorded with template version {recorded!r}, "
                    f"current is {template_version()!r}"
                ),
            )
        self._replies = transcript.lookup()

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayOracle":
        return cls(Transcript.load(path))

    def query(self, q: OracleQuery) -> OracleReply:
        fp = q.fp
        try:
            return OracleReply(self._replies[fp])
        except KeyError:
            raise FingerprintMiss(fp, q.canonical_text()) from None
