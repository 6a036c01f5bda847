"""Behaviour pinned by bytes: the digest of a small det sweep.

``tests/digest_sweep.py`` hashes everything a det generation writes
(scene, trace, SVG, transcript records, oracle-call count), inline and
with its subproblems overlapped on threads.  A change
meant to keep behaviour keeps these digests; a change that alters bytes
on purpose updates them and says so in CHANGES.md.  The full-byte
values were last re-pinned when the det side score became the size of
the side's feasibility set (its side-eval reply now counts positions),
a corner anchor began to offer its other yaw after its preferred one,
and a wall or corner proposal that does not fit got a trace note of its
own, which changed transcripts, trace notes, call counts and placements
on purpose.

``PLACEMENTS`` pins only what the same generations placed (``scene.json``
without its ``trace_summary``): a change that saves oracle calls keeps
these while the full-byte values move.  They were re-pinned with the
dead options too: the det oracle draws its adversarial choices from the
query fingerprint, which holds the avoided sides, so at ``p_adv`` > 0
other choices are drawn, and it no longer names a side with no feasible
pose.  The 0.15 values moved once more when the det policy's run
ranking and the face/back orientation rule began to compare in units,
so that exact ties break by the documented rule.  Both moved again with
the feasibility-set side scores and the corner anchors' other yaw.

``PLACEMENTS_P0`` pins the placements of the 0.25 slice at ``p_adv`` 0
alone, where the det oracle names only the best legal option: a change
that stops asking questions whose answer is forced moves no object there.

``EXACT_CENTRES`` pins the bytes of a slice at cell 0.2501 m, whose
cell centres (and those of the 0.05002 m cells of its supporter tops)
are not q4 values.  No answer reads those exact centres (the det side
scores count feasible pairs on run centres, as every other answer
does), so it pins bytes only, on a grid that the slices above do not
cover.
"""

import pytest

from digest_sweep import load_prompts, sweep_digest

PINNED = {
    0.25: "b83bf7c87417ebda1bc507668601eb9a157a4c7b0244af47e868a94c06003930",
    0.15: "97d420318296310b5671aee051132e963806fc0239336c74b22cc3ca117ad1ee",
}

PLACEMENTS = {
    0.25: "238b89ac2317aebb7e87b804aefddf6e910100db7f8593d5cd52664b9caf38f3",
    0.15: "0bcc5673dbc644b218f7b8151b1c6fd151f5cd5996083ecf30843e104d3b063a",
}

PLACEMENTS_P0 = "184c7f09cea54505ab7cb953d316256bbe5f0afae95aa6f0ba3130b176b2a801"

EXACT_CENTRES = "28c100e8a16108cf9c81233bbe30f725b892646a5500aada7c420372e0079da5"


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
