"""The benchmark's workloads still run against the package.

``perfbench/workloads.py`` calls the program's functions directly
(``pipeline.generate_scene``, the oracles, ``sceneio``, ``render``).  A
signature change there would otherwise only show when the benchmark
runs, so this loads the workload module read-only and runs every
workload's set-up and one timed generation per input for one prompt.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from treelayout.evaluate import validity_metrics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    # workloads.py imports its sibling ``latency`` module by plain name, and
    # its dataclasses look their module up in sys.modules; no bytecode
    # cache is written next to the benchmark
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_writes_a_valid_scene(name, tmp_path):
    wl = WORKLOADS.WORKLOADS[name]()
    wl.seeds_per_prompt = 1
    inputs = wl.inputs(0, WORKLOADS.load_prompts()[:1])
    ctx = WORKLOADS.make_context(tmp_path)
    assert inputs
    assert wl.prepare(inputs, ctx) == {}
    for inp in inputs:
        scene = wl.generate(inp, ctx)
        digest, size = WORKLOADS.files_digest(ctx.out_dir, wl.output_files)
        assert size > 0
        assert wl.check(inp, scene, digest, ctx) is None
        metrics = validity_metrics(scene, wl.config(inp))
        assert metrics.clean()
        assert metrics.placed_ratio > 0
