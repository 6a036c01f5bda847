"""Behaviour pinned by bytes: the digest of a small det sweep.

``tests/digest_sweep.py`` hashes everything a det generation writes
(scene, trace, SVG, transcript records, oracle-call count), inline and
with its subproblems overlapped on threads.  A change
meant to keep behaviour keeps these digests; a change that alters bytes
on purpose updates them and says so in CHANGES.md.  The full-byte
values were last re-pinned when the search began to take a local step
with one live answer without asking, which changed trace notes,
transcripts and call counts on purpose.

``PLACEMENTS`` pins only what the same generations placed (``scene.json``
without its ``trace_summary``): a change that saves oracle calls keeps
these while the full-byte values move.  They were re-pinned with the
forced steps too: where the det oracle named a side with no feasible
pose and ran out of side attempts, the forced side now places the
object.

``PLACEMENTS_P0`` pins the placements of the 0.25 slice at ``p_adv`` 0
alone, where the det oracle names only the best legal option: a change
that stops asking questions whose answer is forced moves no object there.

``EXACT_CENTRES`` pins a slice at cell 0.2501 m, whose cell centres
(and those of the 0.05002 m cells of its supporter tops) are not q4
values: the det side scores test the exact centres, and rounding them
as run centres are rounded changes these bytes, which the slices above
do not show.
"""

import pytest

from digest_sweep import load_prompts, sweep_digest

PINNED = {
    0.25: "c331828146e3214bb9b18b778415f50bda10791a13efe7aa34c4e2e53c82759a",
    0.15: "c4044b32508785098ab50d99ad8943f5844cdcdc75671445dc0d57279267a5f9",
}

PLACEMENTS = {
    0.25: "42258a3d3beaaf6a740089ffb282f85a0a81f4403dc0fd941c8d11997c63b65c",
    0.15: "0a6e6cf8a57319b8cfb47a104476c96ff6b1a154355157c2abc67bead1cbba56",
}

PLACEMENTS_P0 = "184c7f09cea54505ab7cb953d316256bbe5f0afae95aa6f0ba3130b176b2a801"

EXACT_CENTRES = "46b5d1b2edd0628fa4b711d317edbc0de5ea2c879df4c9aa56050a2e6408b35f"


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


def test_small_sweep_placements_at_p_adv_0_are_pinned():
    digest, count = sweep_digest(load_prompts()[:10], [0], ["tree", "cot", "io"], [0.0], 0.25,
                                 placements=True)
    assert count == 30
    assert digest == PLACEMENTS_P0


@pytest.mark.parametrize("overlap", [False, True])
def test_exact_cell_centre_sweep_digest_is_pinned(overlap):
    digest, count = sweep_digest(load_prompts()[25:35], [0], ["tree", "cot", "io"],
                                 [0.0, 0.35, 1.0], 0.2501, overlap=overlap)
    assert count == 90
    assert digest == EXACT_CENTRES
