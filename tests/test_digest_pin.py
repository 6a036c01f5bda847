"""Behaviour pinned by bytes: the digest of a small det sweep.

``tests/digest_sweep.py`` hashes everything a det generation writes
(scene, trace, SVG, transcript records, oracle-call count), inline and
with its subproblems overlapped on threads.  A change
meant to keep behaviour keeps these digests; a change that alters bytes
on purpose updates them and says so in CHANGES.md.  The values were
taken before the geometry moved to exact integer units.
"""

import pytest

from digest_sweep import load_prompts, sweep_digest

PINNED = {
    0.25: "d7fcedbb5303144ab6f7fb70a5f45cd90fc5bd35442de98018c839b755004745",
    0.15: "b0acd8f841d4b0ed5050083692089a4e2ac3caa9d722f3c1879f6bd4a248e9fe",
}


@pytest.mark.parametrize("cell_size", sorted(PINNED))
def test_small_sweep_digest_is_pinned(cell_size):
    digest, count = sweep_digest(load_prompts()[:10], [0], ["tree", "cot", "io"],
                                 [0.0, 0.35, 1.0], cell_size)
    assert count == 90
    assert digest == PINNED[cell_size]


@pytest.mark.parametrize("cell_size", sorted(PINNED))
def test_overlapped_sweep_digest_is_pinned(cell_size):
    # the same generations with their subproblems overlapped on threads
    digest, count = sweep_digest(load_prompts()[:10], [0], ["tree", "cot", "io"],
                                 [0.0, 0.35, 1.0], cell_size, overlap=True)
    assert count == 90
    assert digest == PINNED[cell_size]
