"""Independent and speculative subproblems, overlapped when the oracle waits on I/O.

Nothing written depends on when a call ran: each subproblem records into
a :class:`SearchTrace` of its own, merged in the serial order, and asks
on a :class:`CallPath` prefix of its own, so a recorded transcript files
its calls in the serial order too.  A speculation (B. W. Lampson, *Lazy
and speculative execution in computer systems*, OPODIS 2006) is a
subproblem started before the run knows whether it needs the result:
it is then either committed, as if it had run at that point of the
serial run, or dropped, its calls discarded from the oracle.
"""

from __future__ import annotations

import contextvars
import threading
from collections.abc import Callable, Sequence
from functools import partial
from typing import Generic, TypeVar

from treelayout.model import SearchTrace
from treelayout.oracle.base import CALL_PATH, CallPath, PlacementOracle

T = TypeVar("T")


class Task(Generic[T]):
    """``fn()`` run in a copy of the current context, on ``path`` if one is
    given: on a thread of its own when ``threaded``, else at once in the
    calling thread.  :meth:`result` joins the thread, then returns what
    ``fn`` returned or raises what it raised."""

    def __init__(self, fn: Callable[[], T], threaded: bool, path: CallPath | None = None):
        self._value: T | None = None
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        run = partial(contextvars.copy_context().run, self._run, fn, path)
        if threaded:
            self._thread = threading.Thread(target=run)
            self._thread.start()
        else:
            run()

    def _run(self, fn: Callable[[], T], path: CallPath | None) -> None:
        if path is not None:
            CALL_PATH.set(path)
        try:
            self._value = fn()
        except BaseException as exc:  # raised again by result()
            self._error = exc

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join()

    def result(self) -> T:
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


def merge(trace: SearchTrace, subs: Sequence[SearchTrace]) -> None:
    """Append the events and call counts of ``subs`` to ``trace``, in order."""
    for sub in subs:
        trace.events.extend(sub.events)
        trace.oracle_calls += sub.oracle_calls
        trace.discarded_calls += sub.discarded_calls


def run_subproblems(
    oracle: PlacementOracle,
    jobs: Sequence[Callable[[SearchTrace], T]],
    trace: SearchTrace,
) -> list[T]:
    """Run independent subproblems and return their results in list order.

    Each job takes the trace it must record into.  When there are at
    least two jobs and ``oracle.io_bound`` is set, the jobs overlap, each
    on a thread of its own while the calling thread waits.  A group is
    the ``SupportedQuery`` chains of one region's supporters, so it holds
    at most :data:`~treelayout.hierarchy.MAX_REGION_OBJECTS` jobs.  Each
    job then has its own :class:`SearchTrace`, appended to ``trace`` in
    list order, and its own :class:`CallPath`, so the trace and a
    recorded transcript are those of the serial run.  Otherwise the jobs
    run inline, one after another.

    Every thread is joined before this returns; the first failing job in
    list order raises its exception.
    """
    if len(jobs) < 2 or not oracle.io_bound:
        return [job(trace) for job in jobs]
    group = CALL_PATH.get().next_key()
    traces = [SearchTrace() for _ in jobs]
    tasks = [Task(partial(job, sub), True, CallPath(group + (j,)))
             for j, (job, sub) in enumerate(zip(jobs, traces))]
    for task in tasks:
        task.join()
    results = [task.result() for task in tasks]
    merge(trace, traces)
    return results


class Speculation(Generic[T]):
    """``fn(trace)`` running ahead on a thread of its own, into a
    :class:`SearchTrace` of its own and on the :class:`CallPath` prefix
    ``prefix``, which the caller reserves at the place the serial run
    would call ``fn``.  The caller ends it exactly once, with
    :meth:`commit` or :meth:`drop`; both join the thread first."""

    def __init__(self, fn: Callable[[SearchTrace], T], prefix: tuple[int, ...],
                 oracle: PlacementOracle):
        self.trace = SearchTrace()
        self._prefix = prefix
        self._oracle = oracle
        self._task = Task(partial(fn, self.trace), True, CallPath(prefix))

    def join(self) -> None:
        self._task.join()

    def commit(self, trace: SearchTrace) -> T:
        """Keep the result: append this trace to ``trace``, then return
        what ``fn`` returned or raise what it raised."""
        self._task.join()
        merge(trace, [self.trace])
        return self._task.result()

    def drop(self, trace: SearchTrace) -> None:
        """Throw the result away: count every call ``fn`` made in
        ``trace.discarded_calls``, discard them from the oracle
        (:meth:`PlacementOracle.discard`), and ignore any error."""
        self._task.join()
        trace.discarded_calls += self.trace.oracle_calls + self.trace.discarded_calls
        self._oracle.discard(self._prefix)


def speculate(fn: Callable[[SearchTrace], T], prefix: tuple[int, ...],
              oracle: PlacementOracle) -> Speculation[T]:
    """Start ``fn`` ahead of knowing whether its result is wanted; see
    :class:`Speculation`.  Worth it only when ``oracle.io_bound`` is set,
    so callers speculate only then."""
    return Speculation(fn, prefix, oracle)
