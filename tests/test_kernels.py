"""Grid kernels against the brute-force oracle."""

import random

from treelayout import kernels
from bruteforce import brute_rasterize, brute_side_cells, rect_area_overlap


def random_rects(rng, n, span=4.0):
    out = []
    for _ in range(n):
        x0 = rng.uniform(-0.5, span)
        y0 = rng.uniform(-0.5, span)
        out.append((x0, y0, x0 + rng.uniform(0.1, 2.0), y0 + rng.uniform(0.1, 2.0)))
    return out


class TestAgainstBruteForce:
    def test_rasterize(self):
        rng = random.Random(11)
        for _ in range(100):
            cols, rows = rng.randint(1, 8), rng.randint(1, 8)
            cell = rng.choice([0.25, 0.5, 1.0])
            rects = [r + (rng.choice([1, 2]),) for r in random_rects(rng, rng.randint(0, 3))]
            got = kernels.rasterize_codes(cols, rows, cell, rects)
            assert got == brute_rasterize(cols, rows, cell, rects)

    def test_side_filter(self):
        rng = random.Random(13)
        for _ in range(100):
            cols, rows = rng.randint(2, 8), rng.randint(2, 8)
            cell = 0.5
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
            got = kernels.first_overlap(*probe, rects, 1e-9)
            want = next(
                (i for i, r in enumerate(rects) if rect_area_overlap(probe, r) > 1e-9), -1
            )
            assert got == want
