"""Benchmark the compiled grid kernels against the pure-Python twins.

Micro-benchmarks run both backends in-process; --end-to-end times a full
deterministic generation per backend in a subprocess (backend selection
happens at import via TREELAYOUT_KERNELS).

    python benchmarks/bench_kernels.py [--end-to-end]
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import time

from treelayout.kernels import _ref

try:
    from treelayout.kernels import _fast
except ImportError:
    _fast = None


def bench(fn, *args, repeat: int = 5, number: int = 200) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def workload(rng: random.Random):
    # a 6 m x 4 m region at the default 0.25 m cell size, mid-search
    cols, rows, cell = 24, 16, 0.25
    rects = []
    for _ in range(6):
        x0 = rng.uniform(0, 5)
        y0 = rng.uniform(0, 3)
        rects.append((x0, y0, x0 + rng.uniform(0.3, 2.0), y0 + rng.uniform(0.3, 1.5), 1))
    codes = _ref.rasterize_codes(cols, rows, cell, rects)
    anchor = (1.0, 0.0, 3.0, 1.6)
    probe = (2.1, 1.1, 2.6, 1.6)
    plain = [r[:4] for r in rects]
    return cols, rows, cell, rects, codes, anchor, probe, plain


def run_micro() -> None:
    rng = random.Random(0)
    cols, rows, cell, rects, codes, anchor, probe, plain = workload(rng)
    cases = [
        ("rasterize_codes 24x16x6", lambda m: m.rasterize_codes(cols, rows, cell, rects)),
        ("free_cells_on_side", lambda m: m.free_cells_on_side(
            cols, rows, cell, codes, 1, *anchor)),
        ("first_overlap x6", lambda m: m.first_overlap(*probe, plain, 1e-9)),
        ("rect_intersection_area", lambda m: m.rect_intersection_area(*probe, *anchor)),
    ]
    print(f"{'kernel':<26} {'python':>12} {'cython':>12} {'speedup':>8}")
    for name, call in cases:
        t_py = bench(call, _ref)
        if _fast is None:
            print(f"{name:<26} {t_py * 1e6:>10.1f}us {'n/a':>12} {'n/a':>8}")
            continue
        t_cy = bench(call, _fast)
        print(f"{name:<26} {t_py * 1e6:>10.1f}us {t_cy * 1e6:>10.1f}us {t_py / t_cy:>7.1f}x")


def run_end_to_end() -> None:
    code = (
        "import time\n"
        "from treelayout.catalog import AssetCatalog\n"
        "from treelayout.kernels import BACKEND\n"
        "from treelayout.model import SearchConfig\n"
        "from treelayout.oracle.deterministic import DeterministicOracle\n"
        "from treelayout.pipeline import generate_scene\n"
        "catalog = AssetCatalog.default()\n"
        "t0 = time.perf_counter()\n"
        "for seed in range(30):\n"
        "    generate_scene('A mid-century living room with retro furniture',\n"
        "                   SearchConfig(seed=seed, p_adv=0.35),\n"
        "                   DeterministicOracle(seed=seed, p_adv=0.35, catalog=catalog),\n"
        "                   catalog)\n"
        "print(f'{BACKEND}: {(time.perf_counter() - t0) / 30 * 1000:.1f} ms/generation')\n"
    )
    for backend in ("python", "cython"):
        if backend == "cython" and _fast is None:
            print("cython: n/a (extension not built)")
            continue
        env = dict(os.environ, TREELAYOUT_KERNELS=backend)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        print(proc.stdout.strip() or proc.stderr.strip())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--end-to-end", action="store_true",
                        help="also time full generations per backend")
    args = parser.parse_args()
    run_micro()
    if args.end_to_end:
        print()
        run_end_to_end()
