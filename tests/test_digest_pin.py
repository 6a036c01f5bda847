"""Behaviour pinned by bytes: the digest of a small det sweep.

``tests/digest_sweep.py`` hashes everything a det generation writes
(scene, trace, SVG, transcript records, oracle-call count), inline and
with its subproblems overlapped on threads.  A change
meant to keep behaviour keeps these digests; a change that alters bytes
on purpose updates them and says so in CHANGES.md.  The full-byte
values were last re-pinned when an asked side or facing question began
to tell the oracle not to answer the sides with no feasible pose and the
facings that do not fit, which changed fingerprints, transcripts, trace
notes and call counts on purpose.

``PLACEMENTS`` pins only what the same generations placed (``scene.json``
without its ``trace_summary``): a change that saves oracle calls keeps
these while the full-byte values move.  They were re-pinned with the
dead options too: the det oracle draws its adversarial choices from the
query fingerprint, which holds the avoided sides, so at ``p_adv`` > 0
other choices are drawn, and it no longer names a side with no feasible
pose.  The 0.15 values moved once more when the det policy's run
ranking and the face/back orientation rule began to compare in units,
so that exact ties break by the documented rule.

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
    0.25: "864f8d4f6527fb1f2e3c79254f24b10f5503d4844d74e1cb42f519e553acc835",
    0.15: "9df2117acd5a2a455df712d2b9d290cc09a4cbd1afe7c7aeb9b85682c7a55563",
}

PLACEMENTS = {
    0.25: "ce751e434c652be0f22728b694a4142ee4469aadbafba66041adf027d37a667b",
    0.15: "6a1f6df1b1d31e01b9a4a1ecca8ca898f57345b328262d0c444adfff25b991bd",
}

PLACEMENTS_P0 = "184c7f09cea54505ab7cb953d316256bbe5f0afae95aa6f0ba3130b176b2a801"

EXACT_CENTRES = "3e4656e7d9777f21ba33865575cc7e68a42ceb8ddb7b03e37ed2ef83dca5ce44"


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
