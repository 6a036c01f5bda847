"""Regenerates the shipped live-oracle transcript fixture.

The "live" replies are deterministic-oracle answers wrapped in the kind
of prose a hosted model produces, so the fixture exercises the tolerant
reply parsers without needing network access.  Run from the repo root:

    PYTHONPATH=src python tests/fixtures/make_fixture.py

``tests/test_oracle.py`` checks that :func:`record` still gives the
committed files, so a change that moves them must rerun this script.
"""

from pathlib import Path

from treelayout.model import SearchConfig
from treelayout.oracle.base import PlacementOracle
from treelayout.oracle.deterministic import DeterministicOracle
from treelayout.oracle.queries import (
    CellsQuery,
    FullLayoutQuery,
    OracleQuery,
    OracleReply,
    RoomQuery,
    SideEvalQuery,
    SideQuery,
)
from treelayout.oracle.transcript import RecordingOracle, Transcript
from treelayout.pipeline import generate_scene
from treelayout.sceneio import scene_to_text, write_text

PROMPT = "A modern bedroom with a comfortable queen-sized bed"
SEED = 11


class ChattyOracle(PlacementOracle):
    """Wraps an oracle and pads its replies with model-style prose."""

    def __init__(self, inner: PlacementOracle):
        self.inner = inner

    def query(self, q: OracleQuery) -> OracleReply:
        text = self.inner.query(q).text
        if isinstance(q, SideQuery):
            return OracleReply(f"Considering the free space, I would go with: {text}.")
        if isinstance(q, SideEvalQuery):
            return OracleReply(text + " (judging by the grid above)")
        if isinstance(q, CellsQuery):
            return OracleReply(f"The best spot would be {text}. That keeps it close by.")
        if isinstance(q, (RoomQuery, FullLayoutQuery)):
            return OracleReply("Sure, here is my suggestion:\n" + text)
        return OracleReply("Here is what I would put there:\n" + text + "\nThat should work nicely.")


def record() -> tuple[Transcript, str]:
    """The fixture's transcript and the text of its scene."""
    recorder = RecordingOracle(
        ChattyOracle(DeterministicOracle(seed=SEED)), model_id="chatty-fixture", seed=SEED
    )
    scene = generate_scene(PROMPT, SearchConfig(seed=SEED), recorder)
    recorder.transcript.metadata["prompt"] = PROMPT
    recorder.transcript.metadata["config_seed"] = SEED
    return recorder.transcript, scene_to_text(scene)


def main() -> None:
    fixtures = Path(__file__).parent
    transcript, scene_text = record()
    transcript.dump(fixtures / "live_transcript.jsonl")
    write_text(fixtures / "live_scene.json", scene_text)
    print(f"recorded {len(transcript.records)} oracle calls")


if __name__ == "__main__":
    main()
