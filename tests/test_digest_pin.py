"""Behaviour pinned by bytes: the digest of a small det sweep.

``tests/digest_sweep.py`` hashes everything a det generation writes
(scene, trace, SVG, transcript records, oracle-call count), inline and
with its subproblems overlapped on threads.  A change
meant to keep behaviour keeps these digests; a change that alters bytes
on purpose updates them and says so in CHANGES.md.  The full-byte
values were last re-pinned when the search began forward-checking its
local steps, which changed trace notes, transcripts and call counts on
purpose.

``PLACEMENTS`` pins only what the same generations placed (``scene.json``
without its ``trace_summary``): a change that saves oracle calls keeps
these while the full-byte values move.  They were taken before the
forward check and hold unchanged after it.

``EXACT_CENTRES`` pins a slice at cell 0.2501 m, whose cell centres
(and those of the 0.05002 m cells of its supporter tops) are not q4
values: the det side scores test the exact centres, and rounding them
as run centres are rounded changes these bytes, which the slices above
do not show.
"""

import pytest

from digest_sweep import load_prompts, sweep_digest

PINNED = {
    0.25: "6d8af68632aa7a3d679ddc2187773f44ea53670b1c8537b732b90030004c2227",
    0.15: "d003539c4e20f5b3054b0ab741465a3a5b6d36b3bf4fee0c291e8ab0011abf79",
}

PLACEMENTS = {
    0.25: "0ced2c2bb8a17051b2a32147437b1777ab41c9666353a58d462ad3736d987bcd",
    0.15: "a7823bf1c3112074ec672d7a503883bd88c2d71f8ef298273351275a8c0ac71c",
}


EXACT_CENTRES = "c09b967fb2f034e56acf2219d960045dc2b4b2455dd4d0c75f77acc88889b5b7"


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


@pytest.mark.parametrize("cell_size", sorted(PLACEMENTS))
def test_small_sweep_placements_are_pinned(cell_size):
    digest, count = sweep_digest(load_prompts()[:10], [0], ["tree", "cot", "io"],
                                 [0.0, 0.35, 1.0], cell_size, placements=True)
    assert count == 90
    assert digest == PLACEMENTS[cell_size]


@pytest.mark.parametrize("overlap", [False, True])
def test_exact_cell_centre_sweep_digest_is_pinned(overlap):
    digest, count = sweep_digest(load_prompts()[25:35], [0], ["tree", "cot", "io"],
                                 [0.0, 0.35, 1.0], 0.2501, overlap=overlap)
    assert count == 90
    assert digest == EXACT_CENTRES
