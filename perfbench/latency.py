"""A latency-injecting oracle: the det oracle behind a fixed per-call delay.

It stands in for a hosted model, whose round trip sets the wall clock of
a live generation.  The delay is a constant so that runs are comparable;
the replies are exactly those of the wrapped oracle.
"""

from __future__ import annotations

import time

from treelayout.oracle.base import PlacementOracle
from treelayout.oracle.queries import OracleQuery, OracleReply

# Fixed delay per oracle call, in seconds.  BENCHMARK.json quotes it in the
# live-latency workload's description; change both together.
DELAY_S = 0.004


class LatencyOracle(PlacementOracle):
    """Sleeps ``DELAY_S`` before answering each query with ``inner``."""

    def __init__(self, inner: PlacementOracle):
        self.inner = inner

    def query(self, q: OracleQuery) -> OracleReply:
        time.sleep(DELAY_S)
        return self.inner.query(q)
