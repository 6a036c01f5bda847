"""Independent and speculative subproblems, overlapped when the oracle waits on I/O.

Every subproblem is a :class:`Speculation` (B. W. Lampson, *Lazy and
speculative execution in computer systems*, OPODIS 2006): it records
into a :class:`SearchTrace` of its own, merged in the serial order, and
asks on a :class:`CallPath` prefix of its own, so a recorded transcript
files its calls in the serial order too.  It is either committed, as if
it had run at that point of the serial run, or dropped.  Callers take
one code path whatever the oracle: with an I/O-bound oracle a
speculation starts on a thread before the run knows whether it needs
the result, and a dropped one has its calls discarded from the oracle;
otherwise it runs inline when committed, exactly where the serial run
asks it, and a dropped one never runs.
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
    """``fn()`` run in a copy of the current context, on ``path``: on a
    thread of its own when ``threaded``, else at once in the calling
    thread.  :meth:`result` joins the thread, then returns what
    ``fn`` returned or raises what it raised."""

    def __init__(self, fn: Callable[[], T], threaded: bool, path: CallPath):
        self._value: T | None = None
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        run = partial(contextvars.copy_context().run, self._run, fn, path)
        if threaded:
            self._thread = threading.Thread(target=run)
            self._thread.start()
        else:
            run()

    def _run(self, fn: Callable[[], T], path: CallPath) -> None:
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
    """Append the events, call counts and forced steps of ``subs`` to ``trace``, in order."""
    for sub in subs:
        trace.events.extend(sub.events)
        trace.oracle_calls += sub.oracle_calls
        trace.discarded_calls += sub.discarded_calls
        trace.forced_steps.update(sub.forced_steps)


def run_subproblems(
    oracle: PlacementOracle,
    jobs: Sequence[Callable[[SearchTrace], T]],
    trace: SearchTrace,
) -> list[T]:
    """Run independent subproblems and return their results in list order.

    Each job is a :class:`Speculation` on the next key of the caller's
    :class:`CallPath`, job *j* on that key plus ``(j,)``.  When there are
    at least two jobs and ``oracle.io_bound`` is set, they overlap, each
    on a thread of its own; a group is the ``SupportedQuery`` chains of
    one region's supporters, so it holds at most
    :data:`~treelayout.hierarchy.MAX_REGION_OBJECTS` jobs.  Every thread
    is joined, then the jobs are committed in list order, so ``trace``
    and a recorded transcript are those of the serial run and the first
    failing job in list order raises its exception.  Otherwise each job
    runs when it is committed, and a job after a failing one never runs.
    """
    group = CALL_PATH.get().next_key()
    threaded = len(jobs) > 1 and oracle.io_bound
    subs = [Speculation(job, group + (j,), oracle, threaded) for j, job in enumerate(jobs)]
    for sub in subs:
        sub.join()
    return [sub.commit(trace) for sub in subs]


class Speculation(Generic[T]):
    """``fn(trace)`` as a subproblem that records into a
    :class:`SearchTrace` of its own and asks on the :class:`CallPath`
    prefix ``prefix``, which the caller reserves at the place the serial
    run would call ``fn``.

    When ``threaded``, ``fn`` starts at once on a thread of its own and
    runs ahead of knowing whether its result is wanted; else it runs in
    the calling thread when committed, so an inline run asks its calls
    exactly where the serial run does.  The caller ends it exactly once,
    with :meth:`commit` or :meth:`drop`.
    """

    def __init__(self, fn: Callable[[SearchTrace], T], prefix: tuple[int, ...],
                 oracle: PlacementOracle, threaded: bool):
        self.trace = SearchTrace()
        self._prefix = prefix
        self._oracle = oracle
        self._fn = partial(fn, self.trace)
        self._task = Task(self._fn, True, CallPath(prefix)) if threaded else None

    def join(self) -> None:
        if self._task is not None:
            self._task.join()

    def commit(self, trace: SearchTrace) -> T:
        """Keep the result: run ``fn`` now if it has not started, else
        join its thread; append this trace to ``trace``, then return
        what ``fn`` returned or raise what it raised."""
        task = self._task or Task(self._fn, False, CallPath(self._prefix))
        task.join()
        merge(trace, [self.trace])
        return task.result()

    def drop(self, trace: SearchTrace) -> None:
        """Throw the result away.  A speculation that never started made
        no call, so there is nothing to undo.  Else join its thread,
        count every call ``fn`` made in ``trace.discarded_calls``,
        discard them from the oracle (:meth:`PlacementOracle.discard`),
        and ignore any error."""
        if self._task is None:
            return
        self._task.join()
        trace.discarded_calls += self.trace.oracle_calls + self.trace.discarded_calls
        self._oracle.discard(self._prefix)
