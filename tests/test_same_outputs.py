"""The tiny pipeline of test 8 gives the outputs pinned in
`tests/data/tiny_pipeline.json`: the generated latent, the aligned rhythm and
the final training loss, each within 1e-12 relative. A change that means to
move outputs restates the file with `python tests/test_same_outputs.py` and
says so."""
import json
import sys
import tempfile
from pathlib import Path

from dancebeat import flowgen, pose, rhythm

from conftest import relerr
from test_acceptance import _TINY_CFG, _run_pipeline

PINNED = Path(__file__).parent / "data" / "tiny_pipeline.json"


def tiny_pipeline_outputs(root: Path, patch) -> dict:
    """Test 8's pipeline run once under `root`; `patch(owner, name, value)`
    swaps an attribute for the run, so the trained model's loss is seen."""
    cfg_file = root / "tiny.cfg"
    cfg_file.write_text(_TINY_CFG)
    trained = []
    train = flowgen.train
    patch(flowgen, "train", lambda *a, **k: trained.append(train(*a, **k)) or trained[-1])
    _run_pipeline(root, str(cfg_file))
    aligned = rhythm.load_rhythm(root / "clip.arhythm")
    return {"final_loss": trained[0].loss_history[-1],
            "latent": pose.load_latent(root / "gen.latent").data.tolist(),
            "aligned_rhythm": aligned.data.tolist(), "aligned_rhythm_fps": aligned.fps}


def test_tiny_pipeline_outputs_are_pinned(tmp_path, monkeypatch):
    got = tiny_pipeline_outputs(tmp_path, monkeypatch.setattr)
    want = json.loads(PINNED.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    assert got["aligned_rhythm_fps"] == want["aligned_rhythm_fps"]
    for key in ("final_loss", "latent", "aligned_rhythm"):
        assert relerr(got[key], want[key]) <= 1e-12, key


if __name__ == "__main__":  # restate the pinned file from this tree's outputs
    with tempfile.TemporaryDirectory() as tmp:
        outputs = tiny_pipeline_outputs(Path(tmp), setattr)
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINNED}", file=sys.stderr)
