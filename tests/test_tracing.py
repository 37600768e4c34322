"""perfbench's tracer swaps program attributes by name for traced wrappers:
each must be its owner's own, or a rename under src/ breaks `--trace 1`."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_every_traced_attribute_is_its_owners_own():
    targets = [(owner, attr) for owner, attr, _ in tracing.TARGETS] + [(tracing.flowgen, "Tape")]
    assert [f"{owner.__name__}.{attr}" for owner, attr in targets
            if attr not in owner.__dict__] == []
