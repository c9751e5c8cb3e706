"""The traced benchmark run patches opfold functions by name and records
sizes by reading their arguments and results; a refactor that renames or
moves one of them, or changes what a size recorder reads, must fail here,
not silently drop spans or sizes."""

import importlib
import importlib.util
from pathlib import Path

import opfold as op
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


def test_every_size_recorder_reads_a_real_result():
    # each recorder runs on the result of a real call, as a traced pass runs
    # it; the monic sequence is fresh, so its recorder reads polys first
    spans = _spans_module()
    mu = op.laguerre_moments(0, 40)
    form = op.sobolev_form(op.SobolevSpec(mu, 0, 1, op.Matrix.rational([[0, 0], [0, 1]])))
    seq = op.monic_sequence(form, 8)
    shifted = op.monic_sequence(op.measure_form(op.christoffel_shift(mu, 0, 2)), 8)
    raw = op.banded_recurrence(seq, 0, 1).raw
    calls = {
        ("measures", "gram_matrix"): ((form, 5), {"degree": 5}),
        ("linalg", "ldlt"): ((op.gram_matrix(form, 5),), {"degree": 5}),
        ("linalg", "nullspace"): (
            (op.Matrix.rational([[1, 2], [2, 4]]),),
            {"rows": 2, "cols": 2, "max_bits": 3},
        ),
        # s_8 has the coefficient -9909760/47, 24 bits
        ("orthopoly", "monic_sequence"): ((form, 8), {"degree": 8, "max_bits": 24}),
        ("orthopoly", "banded_recurrence"): ((seq, 0, 1), {"degree": 8, "band": 2}),
        ("orthopoly", "connection_matrix"): ((seq, shifted, 1), {"degree": 8, "band": 2}),
        ("darboux", "band_symmetric_factorize"): ((raw, 2, False), {"degree": 8, "band": 2}),
        ("bispec", "exact_nullspace"): (([[1, 2, 3], [2, 4, 6]], 3), {"rows": 2, "cols": 3, "max_bits": 3}),
    }
    recorders = {target: sizes for target, (_, sizes) in spans.TARGETS.items() if sizes is not None}
    assert set(calls) == set(recorders)
    for (mod, attr), (args, want) in calls.items():
        result = getattr(importlib.import_module(f"opfold.{mod}"), attr)(*args)
        assert recorders[mod, attr](args, result) == want, (mod, attr)
