"""Grid kernels against the brute-force oracle.

The kernels take whole length units (0.01 mm), so the random rectangles
are drawn on that lattice: corners on a 5 cm lattice, where edges often
coincide with cell edges and with each other, or anywhere on the unit
lattice.
"""

import random

from treelayout import kernels
from bruteforce import brute_rasterize, brute_side_cells, rect_area_overlap


M = 100_000  # units per meter


def random_length(rng, lo, hi):
    """A length in units drawn from [lo, hi] meters, on the 5 cm lattice
    half of the time."""
    if rng.random() < 0.5:
        return rng.randint(round(lo * 20), round(hi * 20)) * (M // 20)
    return rng.randint(round(lo * M), round(hi * M))


def random_rects(rng, n, span=4.0):
    out = []
    for _ in range(n):
        x0 = random_length(rng, -0.5, span)
        y0 = random_length(rng, -0.5, span)
        out.append((x0, y0, x0 + random_length(rng, 0.1, 2.0), y0 + random_length(rng, 0.1, 2.0)))
    return out


class TestAgainstBruteForce:
    def test_rasterize(self):
        rng = random.Random(11)
        for _ in range(100):
            cols, rows = rng.randint(1, 8), rng.randint(1, 8)
            cell = rng.choice([25_000, 50_000, 100_000])
            rects = [r + (rng.choice([1, 2]),) for r in random_rects(rng, rng.randint(0, 3))]
            got = kernels.rasterize_codes(cols, rows, cell, rects)
            assert got == brute_rasterize(cols, rows, cell, rects)

    def test_side_filter(self):
        rng = random.Random(13)
        for _ in range(100):
            cols, rows = rng.randint(2, 8), rng.randint(2, 8)
            cell = 50_000
            rects = [r + (1,) for r in random_rects(rng, rng.randint(0, 2), span=2.0)]
            codes = kernels.rasterize_codes(cols, rows, cell, rects)
            anchor = random_rects(rng, 1, span=2.0)[0]
            got = kernels.free_cells_on_side(cols, rows, cell, codes, *anchor)
            want = tuple(
                brute_side_cells(cols, rows, cell, codes, name, anchor)
                for name in ("left", "right", "bottom", "top")
            )
            assert got == want

    def test_first_overlap(self):
        rng = random.Random(17)
        for _ in range(300):
            probe = random_rects(rng, 1)[0]
            rects = random_rects(rng, rng.randint(0, 5))
            got = kernels.first_overlap(*probe, rects)
            want = next(
                (i for i, r in enumerate(rects) if rect_area_overlap(probe, r) > 0), -1
            )
            assert got == want
