"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke ok")


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "det-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_generation_accounts_for_its_wall_time_and_restores_bindings():
    import treelayout
    from treelayout import kernels, search
    from treelayout.model import SearchConfig
    from treelayout.oracle import deterministic
    from treelayout.oracle.base import OracleSession

    originals = (search.rasterize, deterministic.side_scores, kernels.first_overlap,
                 OracleSession.__dict__["ask"])
    recorder = spans.SpanRecorder()
    with spans.Patched(recorder):
        assert search.rasterize is not originals[0]
        assert deterministic.side_scores is not originals[1]
        assert kernels.first_overlap is not originals[2]
        with recorder.generation(0):
            treelayout.generate_scene(
                "A modern bedroom with a comfortable queen-sized bed",
                SearchConfig(seed=0, p_adv=0.35),
                treelayout.DeterministicOracle(seed=0, p_adv=0.35),
            )
    assert (search.rasterize, deterministic.side_scores, kernels.first_overlap,
            OracleSession.__dict__["ask"]) == originals

    total, self_ns = recorder.durations_ns()
    names = {recorder.names[n] for n in recorder.name_id}
    assert {"gen", "pipeline.generate_scene", "oracle.policy.side_scores",
            "kernels.first_overlap", "oracle.side"} <= names
    assert names <= set(spans.SPAN_NAMES) | {spans.GEN_SPAN}
    assert recorder.parent[0] == -1 and all(g == 0 for g in recorder.gen)
    assert sum(self_ns) == total[0]
