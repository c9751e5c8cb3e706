"""The traced benchmark run patches opfold functions by name; a refactor
that renames or moves one of them must fail here, not silently drop spans."""

import importlib
import importlib.util
from pathlib import Path

from opfold.measures import BilinearForm

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    spans = _spans_module()
    missing = [
        f"opfold.{mod}.{attr}"
        for mod, attr in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"opfold.{mod}"), attr, None))
    ]
    assert not missing, missing
    assert callable(BilinearForm.__call__)
    assert set(spans.MODULES) >= {mod for mod, _ in spans.TARGETS}
