"""Oracle interface and shared error types."""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from contextvars import ContextVar

from treelayout.model import SearchTrace
from treelayout.oracle.queries import OracleQuery, OracleReply


class OracleFailure(Exception):
    """The oracle could not produce any reply (transport exhausted,
    replay miss, or repeated malformed hierarchy replies)."""


class Transport(OracleFailure):
    """A failed round trip.  ``retry_after`` is the wait in seconds the
    server asked for, if it named one."""

    def __init__(self, status: int, detail: str = "", retry_after: float | None = None):
        super().__init__(f"transport error {status}: {detail}")
        self.status = status
        self.retry_after = retry_after


class FingerprintMiss(OracleFailure):
    def __init__(self, fp: str, query_text: str):
        super().__init__(f"no transcript entry for fingerprint {fp}; query was:\n{query_text}")
        self.fp = fp
        self.query_text = query_text


class PlacementOracle(ABC):
    """The thought generator: answers typed queries with raw text.

    Implementations must be safe for concurrent ``query`` calls; replies
    are pure functions of the query for the deterministic and replay
    oracles.

    ``io_bound`` says whether ``query`` mostly waits on I/O (a hosted
    model's round trip).  Only then does the pipeline overlap independent
    subproblems on threads; an oracle that computes its replies in Python
    sets it to False, because under the interpreter lock threads would
    only add their start-up and switching cost.
    """

    io_bound: bool = True

    @abstractmethod
    def query(self, q: OracleQuery) -> OracleReply: ...

    def discard(self, prefix: tuple[int, ...]) -> None:
        """Forget the calls made on :class:`CallPath` keys that start with
        ``prefix``: their replies went unused (a speculative search whose
        result was dropped).  A no-op unless the oracle keeps its calls."""


class OracleSession:
    """Couples an oracle to a trace so every call is counted."""

    def __init__(self, oracle: PlacementOracle, trace: SearchTrace):
        self.oracle = oracle
        self.trace = trace

    def ask(self, q: OracleQuery) -> str:
        self.trace.oracle_calls += 1
        return self.oracle.query(q).text


class CallPath:
    """Where the running code sits in the serial order of oracle calls.

    Each call, and each group of overlapped subproblems, takes the next
    key on its path; subproblem ``j`` of a group keyed ``g`` runs on the
    path ``g + (j,)``.  Sorting keys as tuples gives the order in which a
    serial run makes the calls.  Code outside any group shares the root
    path, whose counter runs for the life of the process; ``next`` on an
    ``itertools.count`` is atomic, so threads sharing it get distinct keys.
    """

    def __init__(self, prefix: tuple[int, ...] = ()):
        self.prefix = prefix
        self._counter = itertools.count()

    def next_key(self) -> tuple[int, ...]:
        return self.prefix + (next(self._counter),)


CALL_PATH: ContextVar[CallPath] = ContextVar("treelayout_call_path", default=CallPath())
