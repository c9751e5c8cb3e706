"""In-memory layer spans for the traced benchmark run.

The benchmark does not change opfold. For a traced pass it replaces each
public layer function, in every ``opfold.*`` namespace that holds it, by a
wrapper that records a span, and puts the originals back afterwards. Calls
between layers therefore nest as child spans, and a layer's self time is its
span minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import opfold
from opfold.measures import BilinearForm

MODULES = ("measures", "linalg", "orthopoly", "darboux", "matfold", "bispec", "cli")


def _fraction_bits(values) -> int:
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _seq_sizes(args, result):
    coeffs = [c for p in result.polys for c in p.coeffs]
    return {"degree": len(result.polys) - 1, "max_bits": _fraction_bits(coeffs)}


def _band_sizes(args, result):
    return {"degree": len(args[0]) - 1, "band": args[-1] + 1}


def _int_null_sizes(args, result):
    rows, ncols = args
    bits = max((abs(v).bit_length() for r in rows for v in r), default=0)
    return {"rows": len(rows), "cols": ncols, "max_bits": bits}


def _null_sizes(args, result):
    a = args[0]
    return {"rows": a.nrows, "cols": a.ncols, "max_bits": _fraction_bits(v for r in a.rows for v in r)}


# (module, function) -> (span name, sizes recorder or None). The span name is
# the per-layer metric the function's self time is charged to.
TARGETS = {
    ("measures", "laguerre_moments"): ("measures.moments_s", None),
    ("measures", "hermite_moments"): ("measures.moments_s", None),
    ("measures", "christoffel_shift"): ("measures.moments_s", None),
    ("measures", "gram_matrix"): ("measures.gram_s", lambda a, r: {"degree": a[1]}),
    ("linalg", "ldlt"): ("linalg.ldlt_s", lambda a, r: {"degree": a[0].nrows - 1}),
    ("linalg", "solve_linear"): ("linalg.solve_s", None),
    ("linalg", "inverse"): ("linalg.solve_s", None),
    ("linalg", "nullspace"): ("linalg.nullspace_s", _null_sizes),
    ("orthopoly", "monic_sequence"): ("orthopoly.monic_sequence_s", _seq_sizes),
    ("orthopoly", "banded_recurrence"): ("orthopoly.banded_recurrence_s", _band_sizes),
    ("orthopoly", "connection_matrix"): ("orthopoly.connection_matrix_s", _band_sizes),
    ("orthopoly", "jacobi_matrix"): ("orthopoly.jacobi_matrix_s", None),
    ("darboux", "band_symmetric_factorize"): (
        "darboux.band_factorize_s",
        lambda a, r: {"degree": a[0].size - 1, "band": a[1]},
    ),
    ("darboux", "verify_h_factorization"): ("darboux.verify_h_s", None),
    ("darboux", "verify_ul_identity"): ("darboux.verify_ul_s", None),
    ("darboux", "block_lu"): ("darboux.block_lu_s", None),
    ("darboux", "darboux_swap"): ("darboux.swap_s", None),
    ("darboux", "w_interlace_check"): ("darboux.interlace_s", None),
    ("matfold", "build_matrix_sequence"): ("matfold.fold_s", None),
    ("matfold", "fold_decompose"): ("matfold.fold_s", None),
    ("matfold", "monic_normalize"): ("matfold.monic_normalize_s", None),
    ("matfold", "matrix_ttrr"): ("matfold.ttrr_s", None),
    ("bispec", "verify_eigen"): ("bispec.verify_eigen_s", None),
    ("bispec", "discover_operator"): ("bispec.discover_operator_s", None),
    ("bispec", "discover_scalar"): ("bispec.discover_scalar_s", None),
    ("bispec", "min_order_check"): ("bispec.min_order_s", None),
    ("bispec", "exact_nullspace"): ("bispec.exact_nullspace_s", _int_null_sizes),
    ("bispec", "conjugation_eval"): ("bispec.conjugation_s", None),
    ("cli", "main"): ("cli.glue_s", None),
    ("cli", "run"): ("cli.glue_s", None),
}
FORM_SPAN = "measures.form_s"
NULLSPACE_SPANS = ("bispec.exact_nullspace_s", "linalg.nullspace_s")
LAYER_TIMES = sorted({name for name, _ in TARGETS.values()} | {FORM_SPAN})


class Recorder:
    """Spans as lists: [id, parent id, pass id, name, start, end, sizes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = None

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None, self.pass_id, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = time.perf_counter()
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, pass_id):
        """The span of one whole pass; its self time is unattributed."""
        self.pass_id = pass_id
        span = self._open("bench.pass")
        try:
            yield span
        finally:
            self._close(span)
            self.pass_id = None

    def wrap(self, fn, name, sizes):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sizes is not None:
                span[6] = sizes(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers in every opfold namespace; restore on exit."""
        modules = [opfold] + [importlib.import_module(f"opfold.{m}") for m in MODULES]
        wrappers = {}
        for (mod, attr), (name, sizes) in TARGETS.items():
            fn = getattr(importlib.import_module(f"opfold.{mod}"), attr)
            wrappers[id(fn)] = self.wrap(fn, name, sizes)
        saved = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        call = BilinearForm.__call__
        BilinearForm.__call__ = self.wrap(call, FORM_SPAN, None)
        try:
            yield
        finally:
            BilinearForm.__call__ = call
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def layers(self, pass_id) -> dict:
        """Per-layer self times and counts of one pass."""
        spans = [s for s in self.spans if s[2] == pass_id]
        child = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        out = dict.fromkeys(LAYER_TIMES, 0.0)
        counts = {
            "measures.form_calls": 0,
            "bispec.nullspace_calls": 0,
            "bispec.nullspace_cells": 0,
            "bispec.nullspace_max_bits": 0,
            "orthopoly.max_coeff_bits": 0,
        }
        wall = 0.0
        for s in spans:
            own = s[5] - s[4] - child[s[0]]
            name, sizes = s[3], s[6] or {}
            if name == "bench.pass":
                wall = s[5] - s[4]
                continue
            out[name] += own
            if name == FORM_SPAN:
                counts["measures.form_calls"] += 1
            elif name in NULLSPACE_SPANS:
                counts["bispec.nullspace_calls"] += 1
                counts["bispec.nullspace_cells"] += sizes["rows"] * sizes["cols"]
                counts["bispec.nullspace_max_bits"] = max(counts["bispec.nullspace_max_bits"], sizes["max_bits"])
            elif name == "orthopoly.monic_sequence_s":
                counts["orthopoly.max_coeff_bits"] = max(counts["orthopoly.max_coeff_bits"], sizes["max_bits"])
        out.update(counts)
        out["trace.coverage_frac"] = sum(out[n] for n in LAYER_TIMES) / wall if wall else 0.0
        return out

    def inclusive(self, pass_id, name) -> float:
        """Total wall time of the outermost spans called name in one pass."""
        ids = {s[0]: s for s in self.spans if s[2] == pass_id}
        total = 0.0
        for s in ids.values():
            if s[3] == name and (s[1] is None or ids[s[1]][3] != name):
                total += s[5] - s[4]
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, pass_id, name, start, end, sizes in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "pass": pass_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "sizes": sizes,
                        }
                    )
                    + "\n"
                )
