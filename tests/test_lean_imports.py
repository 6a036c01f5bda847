"""Runs that never use the live oracle never load the HTTP client.

The det and replay paths pay interpreter start-up on every CLI call and
benchmark set-up, so a fresh interpreter that imports the package and
the CLI, generates one det scene and replays one transcript must leave
the HTTP stack out of ``sys.modules``.
"""

import subprocess
import sys

HTTP_MODULES = ("requests", "urllib3", "http.client", "ssl")

CODE = """\
import sys

import treelayout
import treelayout.cli
from treelayout import DeterministicOracle, ReplayOracle, SearchConfig, generate_scene
from treelayout.oracle.transcript import RecordingOracle
from treelayout.render import render_scene
from treelayout.sceneio import scene_to_text, write_scene

prompt, config = "A modern bedroom with a comfortable queen-sized bed", SearchConfig(seed=0)
recording = RecordingOracle(DeterministicOracle(seed=0), seed=0)
scene = generate_scene(prompt, config, recording)
recording.transcript.dump(sys.argv[1] + "/transcript.jsonl")
again = generate_scene(prompt, config, ReplayOracle.from_file(sys.argv[1] + "/transcript.jsonl"))
assert scene_to_text(again) == scene_to_text(scene)
write_scene(again, sys.argv[1] + "/scene.json")
render_scene(again)
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""


def test_det_and_replay_runs_do_not_import_http_stack(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CODE, str(tmp_path), *HTTP_MODULES],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
