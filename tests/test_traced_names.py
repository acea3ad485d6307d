"""Every span the benchmark traces names a live ``ncg`` attribute.

``ncgbench/tracing.py`` wraps each span of ``ncgbench/design.json`` by
looking ``layer.path`` up as an attribute of the module ``ncg.layer`` and
raises on a missing one, so moving or renaming a traced function breaks
the benchmark.  The design record is read, never written.
"""

import importlib
import json
from pathlib import Path

DESIGN = Path(__file__).resolve().parents[1] / "ncgbench" / "design.json"


def test_every_traced_span_resolves():
    spans = [span["name"] for span in
             json.loads(DESIGN.read_text(encoding="utf-8"))["spans"]]
    assert spans
    missing = []
    for name in spans:
        layer, _, path = name.partition(".")
        owner = importlib.import_module(f"ncg.{layer}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
