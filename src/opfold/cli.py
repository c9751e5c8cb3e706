"""Configuration-driven command line front end.

One JSON config in, one deterministic JSON report out (plus optional CSV
tables). Every rational is serialized as a canonical "p/q" string; floats
appear only in fields explicitly named *_float or *_rel. Timings go to
stderr so reports are byte-stable for a fixed config. The paper's worked
case, its tabulated closed forms and its verdicts live in opfold.paper;
run applies them when a config is that case.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import paper
from .bispec import (
    conjugation_eval,
    discover_operator,
    discover_scalar,
    min_order_check,
    min_order_size,
    operator_to_json,
    verify_eigen,
)
from .darboux import (
    band_symmetric_factorize,
    block_lu,
    darboux_swap,
    verify_h_factorization,
    verify_ul_identity,
    w_interlace_check,
)
from .errors import ConfigError, DimensionMismatch, Infeasible, OpfoldError
from .linalg import Matrix
from .matfold import build_matrix_sequence, matrix_ttrr, monic_normalize
from .measures import (
    MomentFunctional,
    SobolevSpec,
    christoffel_shift,
    gram_matrix,
    hermite_moments,
    laguerre_moments,
    mass_matrix,
    measure_form,
    sobolev_form,
)
from .orthopoly import (
    banded_recurrence,
    connection_matrix,
    jacobi_matrix,
    monic_sequence,
)
from .rationals import as_fraction, rat_str

__all__ = [
    "RunConfig",
    "run",
    "emit_tables",
    "main",
    "TASK_NAMES",
    "N_MAX_LIMIT",
    "N_LIMIT",
    "SCALAR_COUNT_LIMIT",
    "ALPHA_LIMIT",
]

# Largest accepted n_max. The scalar sequence has up to (N+1)(n_max+1)
# members and exact cost grows about as the cube of that count at growing
# coefficient bit length, so a larger run would not finish in useful time.
N_MAX_LIMIT = 100
# Largest accepted RunConfig.scalar_count(): n_max = N_MAX_LIMIT at N = 1
# with every task. A larger N leaves a smaller n_max for the folded tasks.
SCALAR_COUNT_LIMIT = 2 * (N_MAX_LIMIT + 1)
# Largest accepted N: a folded task at the least n_max, 2, stays within
# SCALAR_COUNT_LIMIT up to N = 66. Scalar tasks get the same bound; without
# it the O(N^3) check that M is positive semidefinite ran on any N.
N_LIMIT = SCALAR_COUNT_LIMIT // 3 - 1
# Largest accepted Laguerre alpha. The moments are (k+alpha)!, so alpha
# adds to the bit length of every exact number the run computes.
ALPHA_LIMIT = 100


def _is_int(value) -> bool:
    # bool is an int subclass, but true is not a count
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters.

    n_max is the highest block index for folded tasks; the scalar
    sequence is sized to (N+1)(n_max+1) members when any matrix task
    needs it, and to n_max+1 otherwise.
    """

    measure_type: str
    alpha: int
    moments: Optional[tuple[Fraction, ...]]
    c: Fraction
    N: int
    M: Matrix
    n_max: int
    tasks: tuple[str, ...]
    output: Optional[str]
    float_tolerance: float
    float_tolerance_str: str

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        measure = data.get("measure")
        if not isinstance(measure, dict) or "type" not in measure:
            raise ConfigError("config needs a measure block with a type")
        mtype = measure["type"]
        if mtype not in ("laguerre", "hermite", "moments"):
            raise ConfigError(f"unknown measure type {mtype!r}")
        alpha = measure.get("alpha", 0)
        if mtype == "laguerre" and (not _is_int(alpha) or not 0 <= alpha <= ALPHA_LIMIT):
            raise ConfigError(f"laguerre alpha must be an integer from 0 to {ALPHA_LIMIT}")
        raw_moments = None
        if mtype == "moments":
            try:
                if not isinstance(measure["moments"], list):
                    raise TypeError("moments must be a list")
                raw_moments = tuple(as_fraction(v) for v in measure["moments"])
            except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad explicit moments: {exc}") from exc
        try:
            c = as_fraction(data.get("c", "0"))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad shift c: {exc}") from exc
        N = data.get("N", 1)
        if not _is_int(N) or not 0 <= N <= N_LIMIT:
            raise ConfigError(f"N must be an integer from 0 to {N_LIMIT}")
        mrows = data.get("M")
        if mrows is None:
            raise ConfigError("config needs the mass matrix M")
        if not isinstance(mrows, list) or not all(isinstance(r, list) for r in mrows):
            raise ConfigError("bad mass matrix M: must be a list of rows, each a list")
        try:
            M = mass_matrix(mrows, N)
        except (ValueError, TypeError, ZeroDivisionError, DimensionMismatch) as exc:
            raise ConfigError(f"bad mass matrix M: {exc}") from exc
        n_max = data.get("n_max", 10)
        if not _is_int(n_max) or not 2 <= n_max <= N_MAX_LIMIT:
            raise ConfigError(f"n_max must be an integer from 2 to {N_MAX_LIMIT}")
        tasks = data.get("tasks", ["all"])
        if not isinstance(tasks, list) or not tasks:
            raise ConfigError("tasks must be a nonempty list")
        expanded: list[str] = []
        for t in tasks:
            if t == "all":
                expanded.extend(TASK_NAMES)
            elif t in TASK_NAMES:
                expanded.append(t)
            else:
                raise ConfigError(f"unknown task {t!r}")
        tol_str = data.get("float_tolerance", "1e-10")
        if isinstance(tol_str, bool):
            raise ConfigError("float_tolerance must be a number or a string")
        try:
            tol = float(tol_str)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad float_tolerance: {exc}") from exc
        if not (math.isfinite(tol) and tol > 0):
            raise ConfigError("float_tolerance must be positive and finite")
        output = data.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("output must be a directory path")
        cfg = cls(
            mtype,
            alpha if _is_int(alpha) else 0,
            raw_moments,
            c,
            N,
            M,
            n_max,
            tuple(dict.fromkeys(expanded)),
            output,
            tol,
            str(tol_str),
        )
        if cfg.scalar_count() > SCALAR_COUNT_LIMIT:
            raise ConfigError(
                f"the tasks need {cfg.scalar_count()} scalar polynomials "
                f"((N+1)(n_max+1) for folded tasks); at most {SCALAR_COUNT_LIMIT}"
            )
        low = [t for t in cfg.resolved_tasks() if n_max < paper.MIN_N_MAX.get(t, 0)]
        if low and cfg.is_canonical():
            raise ConfigError(
                f"on the worked case {low[0]} needs n_max >= {paper.MIN_N_MAX[low[0]]}"
            )
        if raw_moments is not None and len(raw_moments) < cfg.moment_count():
            raise ConfigError(
                f"explicit moments: need at least {cfg.moment_count()}, "
                f"have {len(raw_moments)}"
            )
        return cfg

    def resolved_tasks(self) -> tuple[str, ...]:
        """The named tasks and every task they need, in TASK_NAMES order."""
        wanted: set[str] = set()

        def pull(t: str):
            if t in wanted:
                return
            wanted.add(t)
            for d in _TASKS[t].needs:
                pull(d)

        for t in self.tasks:
            pull(t)
        return tuple(t for t in _TASKS if t in wanted)

    def scalar_count(self) -> int:
        """Members of the scalar sequence the resolved tasks build: a task
        that reads the fold needs n_max+1 blocks of N+1 members."""
        if any(_TASKS[t].folded for t in self.resolved_tasks()):
            return (self.N + 1) * (self.n_max + 1)
        return self.n_max + 1

    def moment_count(self) -> int:
        """Moments the run reads: the band recurrence pairs (x-c)^(N+1) s_n
        with s_n, so twice the top degree plus the band width, with margin."""
        return 2 * (self.scalar_count() + self.N + 2) + 2

    def is_canonical(self) -> bool:
        """Whether the measure, c, N and M are the paper's worked case."""
        echo = self.echo()
        return all(echo[key] == paper.CONFIG[key] for key in ("measure", "c", "N", "M"))

    def echo(self) -> dict:
        out = {
            "measure": {"type": self.measure_type},
            "c": rat_str(self.c),
            "N": self.N,
            "M": [[rat_str(v) for v in row] for row in self.M.rows],
            "n_max": self.n_max,
            "tasks": list(self.tasks),
            "float_tolerance": self.float_tolerance_str,
        }
        if self.measure_type == "laguerre":
            out["measure"]["alpha"] = self.alpha
        if self.moments is not None:
            out["measure"]["moments"] = [rat_str(v) for v in self.moments]
        return out


def _mats_json(m: Matrix) -> list:
    return [[rat_str(v) for v in row] for row in m.rows]


def _poly_json(p) -> list:
    return [rat_str(p.coeff(k)) for k in range(p.degree + 1)] or ["0"]


class _DependencyFailed(Exception):
    """A task needs a shared artifact whose build already failed in this run."""

    def __init__(self, builder: str):
        self.builder = builder
        super().__init__(builder)


class _Context:
    """Shared artifacts across tasks, built lazily but deterministically.

    Each artifact is built once, from its _ARTIFACTS entry. A build that
    raises is not run again: the task that first hit it reports the error,
    and a later task that needs it (directly or through another artifact)
    raises _DependencyFailed naming the artifact whose own code raised.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.cache: dict[str, object] = {}
        # artifact -> (the exception its build raised, the artifact that raised it)
        self.failed: dict[str, tuple[Exception, str]] = {}

    def get(self, key: str):
        if key in self.failed:
            raise _DependencyFailed(self.failed[key][1])
        if key not in self.cache:
            try:
                self.cache[key] = _ARTIFACTS[key](self, self.cfg)
            except _DependencyFailed as exc:
                self.failed[key] = (exc, exc.builder)
                raise
            except OpfoldError as exc:
                root = next((r for e, r in self.failed.values() if e is exc), key)
                self.failed[key] = (exc, root)
                raise
        return self.cache[key]


# ----- task implementations ---------------------------------------------


def _task_moments(ctx: _Context) -> tuple[str, dict]:
    mom = ctx.get("moments")
    count = 2 * ctx.cfg.n_max + 2
    return "PASS", {
        "count": count,
        "values": [rat_str(mom.moment(k)) for k in range(count)],
    }


def _task_gram(ctx: _Context) -> tuple[str, dict]:
    degree = min(ctx.cfg.n_max, 12)
    g = gram_matrix(ctx.get("form"), degree)
    sym = g == g.transpose()
    status = "PASS" if sym else "FAIL"
    return status, {
        "degree": degree,
        "symmetric": sym,
        "entries": _mats_json(g),
    }


def _task_orthopoly(ctx: _Context) -> tuple[str, dict]:
    seq = ctx.get("seq")
    count = min(len(seq), ctx.cfg.n_max + 1)
    return "PASS", {
        "count": count,
        "norms_sq": [rat_str(seq.norm_sq(n)) for n in range(count)],
        "polys": [[rat_str(Fraction(a, r[-1])) for a in r] for r in seq.int_rows[:count]],
        "positive": seq.is_positive,
    }


def _task_recurrence(ctx: _Context) -> tuple[str, dict]:
    cfg = ctx.cfg
    rec = ctx.get("rec")
    count = max(0, rec.size - (cfg.N + 2))
    rows = []
    for n in range(count):
        entry = {
            "n": n,
            "diag": rat_str(rec.raw.entry(n, n) / rec.norms_sq[n]),
        }
        for off in range(1, cfg.N + 2):
            if n + off < rec.size:
                entry[f"off{off}_sq"] = rat_str(rec.orthonormal_sq(n, n + off))
                entry[f"off{off}_sign"] = rec.orthonormal_sign(n, n + off)
        rows.append(entry)
    return "PASS", {"bandwidth": cfg.N + 1, "rows": rows}


def _task_connection(ctx: _Context) -> tuple[str, dict]:
    cfg = ctx.cfg
    rec = ctx.get("rec")
    fact = band_symmetric_factorize(rec.raw, cfg.N + 1, require_positive=False)
    hrep = verify_h_factorization(rec, fact)
    shifted = ctx.get("shifted")
    conn = connection_matrix(ctx.get("seq"), shifted, cfg.N)
    jac = jacobi_matrix(shifted)
    ulrep = verify_ul_identity(jac, cfg.c, cfg.N, conn)
    conn0 = connection_matrix(ctx.get("base"), shifted, cfg.N)
    ulrep0 = verify_ul_identity(jac, cfg.c, cfg.N, conn0)
    same_t = fact.T_monic == conn.T_monic
    ok = hrep.exact_ok and same_t
    return ("PASS" if ok else "FAIL"), {
        "h_exact": hrep.exact_ok,
        "h_float_rel": hrep.float_max_rel,
        "h_trusted_rows": hrep.trusted_rows,
        "shift_power_trusted_rows": ulrep.trusted_rows,
        "shift_power_float_rel": ulrep.float_max_rel,
        "base_connection_trusted_rows": ulrep0.trusted_rows,
        "base_connection_float_rel": ulrep0.float_max_rel,
        "factorization_matches_connection": same_t,
    }


def _task_fold(ctx: _Context) -> tuple[str, dict]:
    R = ctx.get("fold")
    return "PASS", {"blocks": len(R), "block_size": R.block_size}


def _task_darboux(ctx: _Context) -> tuple[str, dict]:
    P = ctx.get("P")
    blockJ = ctx.get("blockJ")
    lu = ctx.get("LU")
    swap = darboux_swap(lu)
    Q = ctx.get("Q")
    qJ = ctx.get("qJ")
    m = swap.nblocks
    rows = []
    z = lu.zetas.zeta
    for n in range(m):
        lu_match = (
            z(2 * n) + z(2 * n + 1) == blockJ.diag[n]
            and (n == 0 or z(2 * n) @ z(2 * n - 1) == blockJ.sub[n - 1])
        )
        ul_match = swap.diag[n] == qJ.diag[n] and (
            n == 0 or swap.sub[n - 1] == qJ.sub[n - 1]
        )
        rows.append({"n": n, "lu_match": lu_match, "ul_match": ul_match})
    ok = all(r["lu_match"] and r["ul_match"] for r in rows)
    # interlaced recurrence in the unfolded variable
    checked = w_interlace_check(P.mats, Q.mats, lu.zetas, 2 * len(P) - 2)
    return ("PASS" if ok else "FAIL"), {
        "blocks": m,
        "rows": rows,
        "interlace_checked_through": checked[-1] if checked else -1,
        "zetas": {
            str(k): _mats_json(z(k)) for k in range(min(len(lu.zetas), 12))
        },
    }


def _task_ttrr(ctx: _Context) -> tuple[str, dict]:
    blockJ = ctx.get("blockJ")
    nblocks = blockJ.nblocks
    return "PASS", {
        "blocks": nblocks,
        "monic_diag": [_mats_json(blockJ.diag[n]) for n in range(min(nblocks, 6))],
    }


def _task_bispec_verify(ctx: _Context) -> tuple[str, dict]:
    op, ladder = paper.reference_operator()
    limit = min(len(ctx.get("fold")) - 1, 8)
    rep = verify_eigen(ctx.get("fold"), op, ladder, range(limit + 1))
    return ("PASS" if rep.ok else "FAIL"), {
        "checked": [list(r) for r in rep.results],
        "exact": rep.ok,
    }


def _task_bispec_discover(ctx: _Context) -> tuple[str, dict]:
    ref, ladder = paper.reference_operator()
    n_fit = min(len(ctx.get("fold")) - 1, 12)
    res = discover_operator(ctx.get("fold"), ladder, 8, 6, n_fit)
    matches = res.operator == ref
    return ("PASS" if matches and res.hom_dim == 0 else "FAIL"), {
        "n_fit": n_fit,
        "hom_dim": res.hom_dim,
        "matches_reference": matches,
        "operator": operator_to_json(res.operator),
    }


def _task_min_order(ctx: _Context) -> tuple[str, dict]:
    n_fit = min(len(ctx.get("fold")) - 1, 10)
    max_order, deg = 8, 6
    rows, unknowns = min_order_size(ctx.get("fold"), max_order, deg, n_fit)
    if rows < unknowns:
        return "REPORT", {
            "note": "fitted window is underdetermined at this n_max; a "
            "minimal-order certificate needs more blocks",
            "rows": rows,
            "unknowns": unknowns,
        }
    try:
        res = min_order_check(ctx.get("fold"), max_order, deg, n_fit)
    except Infeasible as exc:
        return "REPORT", {"min_order": None, "n_fit": n_fit, "message": str(exc)}
    return "REPORT", {
        "min_order": res.min_order,
        "n_fit": n_fit,
        "feasible": list(res.feasible),
        "section_dims": list(res.section_dims),
    }


def _task_conjugation(ctx: _Context) -> tuple[str, dict]:
    cfg = ctx.cfg
    seq = ctx.get("seq")
    n_fit = min(len(seq) - 1, 16)
    D = discover_scalar(seq, paper.reference_scalar_ladder, 8, n_fit)
    grid = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(10)]
    R = ctx.get("fold")
    n_limit = min(len(R) - 1, 6)
    worst = 0.0
    for n in range(n_limit + 1):
        for r in conjugation_eval(D, R, n, grid):
            worst = max(worst, r.max_deviation)
    ok = worst < cfg.float_tolerance
    return ("PASS" if ok else "FAIL"), {
        "scalar_order": D.order,
        "scalar_coeffs": [_poly_json(c) for c in D.coeffs],
        "grid": [rat_str(v) for v in grid],
        "n_through": n_limit,
        "worst_deviation_float": worst,
    }


def _build_moments(ctx: _Context, cfg: RunConfig) -> MomentFunctional:
    count = cfg.moment_count()
    if cfg.measure_type == "laguerre":
        return laguerre_moments(cfg.alpha, count)
    if cfg.measure_type == "hermite":
        return hermite_moments(count)
    # RunConfig.from_dict has checked that there are enough
    return MomentFunctional(cfg.moments[:count])


# Every shared artifact, under the name a SKIPPED report gives it, and the
# code that builds it from the context and the config.
_ARTIFACTS: dict[str, Callable[[_Context, RunConfig], object]] = {
    "moments": _build_moments,
    "form": lambda ctx, cfg: sobolev_form(SobolevSpec(ctx.get("moments"), cfg.c, cfg.N, cfg.M)),
    "seq": lambda ctx, cfg: monic_sequence(ctx.get("form"), cfg.scalar_count() - 1),
    "rec": lambda ctx, cfg: banded_recurrence(ctx.get("seq"), cfg.c, cfg.N),
    # the sequence of the Christoffel-shifted measure
    "shifted": lambda ctx, cfg: monic_sequence(
        measure_form(christoffel_shift(ctx.get("moments"), cfg.c, cfg.N + 1)),
        cfg.scalar_count() - 1,
        require_positive=False,
    ),
    # the plain measure's own sequence
    "base": lambda ctx, cfg: monic_sequence(
        measure_form(ctx.get("moments")), cfg.scalar_count() - 1
    ),
    "fold": lambda ctx, cfg: build_matrix_sequence(ctx.get("seq"), cfg.N, cfg.c),
    # the monic folds of the sequence and of the shifted one, and their
    # monic block Jacobi matrices
    "P": lambda ctx, cfg: monic_normalize(ctx.get("fold")).sequence,
    "blockJ": lambda ctx, cfg: matrix_ttrr(ctx.get("P")).monic,
    "Q": lambda ctx, cfg: monic_normalize(
        build_matrix_sequence(ctx.get("shifted"), cfg.N, cfg.c)
    ).sequence,
    "qJ": lambda ctx, cfg: matrix_ttrr(ctx.get("Q")).monic,
    "LU": lambda ctx, cfg: block_lu(ctx.get("blockJ")),
}


class _Task(NamedTuple):
    run: Callable[[_Context], tuple[str, dict]]
    needs: tuple[str, ...]
    folded: bool  # reads the fold: (N+1)(n_max+1) scalar members
    # the paper's verdict on the worked case: it adds the paper-only fields
    # to the payload and says whether the tabulated values hold, or None
    verdict: Optional[Callable[[_Context, dict], Optional[bool]]] = None


# Every task in report order: its runner, the tasks it needs, whether it
# reads the fold, and its paper verdict.
_TASKS = {
    "moments": _Task(_task_moments, (), False),
    "gram": _Task(_task_gram, ("moments",), False),
    "orthopoly": _Task(_task_orthopoly, ("gram",), False),
    "recurrence": _Task(
        _task_recurrence,
        ("orthopoly",),
        False,
        lambda ctx, p: paper.check_recurrence(p, ctx.get("rec")),
    ),
    "connection": _Task(_task_connection, ("orthopoly",), False),
    "darboux": _Task(
        _task_darboux,
        ("recurrence", "fold"),
        True,
        lambda ctx, p: paper.check_darboux(p, ctx.get("LU").zetas),
    ),
    "fold": _Task(
        _task_fold, ("orthopoly",), True, lambda ctx, p: paper.check_fold(p, ctx.get("fold"))
    ),
    "ttrr": _Task(
        _task_ttrr, ("fold", "recurrence"), True, lambda ctx, p: paper.check_ttrr(p, ctx.get("rec"))
    ),
    "bispec-verify": _Task(_task_bispec_verify, ("fold",), True),
    "bispec-discover": _Task(_task_bispec_discover, ("fold",), True),
    "min-order": _Task(_task_min_order, ("fold",), True, lambda ctx, p: paper.check_min_order(p)),
    "conjugation": _Task(_task_conjugation, ("orthopoly",), True),
}
TASK_NAMES = tuple(_TASKS)


def run(cfg: RunConfig) -> dict:
    """Execute the resolved task list and assemble the report.

    On the paper's worked case every task runs and then takes its paper
    verdict; elsewhere the tasks that need the worked case's tables
    report REPORT with a note instead of running.
    """
    ctx = _Context(cfg)
    canonical = cfg.is_canonical()
    tasks = {}
    any_fail = False
    for name in cfg.resolved_tasks():
        t0 = time.monotonic()
        try:
            if not canonical and name in paper.CANONICAL_ONLY:
                status, payload = "REPORT", {"note": paper.CANONICAL_ONLY[name]}
            else:
                task = _TASKS[name]
                status, payload = task.run(ctx)
                # the tables judge a task unless it failed or has nothing to compare
                holds = task.verdict(ctx, payload) if canonical and task.verdict else None
                if status != "FAIL" and holds is not None:
                    status = "PASS" if holds else "FAIL"
        except _DependencyFailed as exc:
            status = "SKIPPED"
            payload = {"failed_dependency": exc.builder}
        except OpfoldError as exc:
            status = "FAIL"
            payload = {"error": type(exc).__name__, "message": str(exc)}
        print(f"task {name}: {time.monotonic() - t0:.2f}s", file=sys.stderr)
        tasks[name] = {"status": status, **payload}
        any_fail = any_fail or status == "FAIL"
    report = {
        "config": cfg.echo(),
        "tasks": tasks,
        "overall": "FAIL" if any_fail else "PASS",
    }
    if canonical and "darboux" in tasks:
        report["notes"] = copy.deepcopy(paper.NOTES)
    return report


def _fmt_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write_csv(path: Path, header: list[str], rows) -> Path:
    path.write_text("".join(",".join(map(str, r)) + "\n" for r in [header, *rows]))
    return path


def emit_tables(report: dict, out_dir: Path) -> list[Path]:
    """Write CSV side tables for whichever tasks ran."""
    written = []
    tasks = report.get("tasks", {})
    if "values" in tasks.get("moments", {}):
        values = tasks["moments"]["values"]
        written.append(_write_csv(out_dir / "moments.csv", ["k", "value"], enumerate(values)))
    if "rows" in tasks.get("recurrence", {}):
        rows = tasks["recurrence"]["rows"]
        keys = sorted({k for r in rows for k in r})
        table = ([r.get(k, "") for k in keys] for r in rows)
        written.append(_write_csv(out_dir / "recurrence.csv", keys, table))
    if "zetas" in tasks.get("darboux", {}):
        zet = tasks["darboux"]["zetas"]
        table = (
            (k, i, j, v)
            for k in sorted(zet, key=int)
            for i, row in enumerate(zet[k])
            for j, v in enumerate(row)
        )
        written.append(_write_csv(out_dir / "zeta.csv", ["k", "i", "j", "value"], table))
    if "operator" in tasks.get("bispec-discover", {}):
        coeffs = tasks["bispec-discover"]["operator"]["coeffs"]
        table = (
            (k, i, j, t, v)
            for k, mat in enumerate(coeffs)
            for i, row in enumerate(mat)
            for j, entry in enumerate(row)
            for t, v in enumerate(entry)
        )
        written.append(_write_csv(out_dir / "operator.csv", ["k", "i", "j", "t", "value"], table))
    return written


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="opfold",
        description="Sobolev-type orthogonal polynomial factorization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute tasks from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the config JSON")
    p_run.add_argument("--out", help="directory for the report and tables")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_vp = sub.add_parser(
        "verify-paper", help="run the built-in full verification suite"
    )
    p_vp.add_argument("--out", help="directory for the report and tables")
    p_vp.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            try:
                raw = json.loads(Path(args.config).read_text())
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            cfg = RunConfig.from_dict(raw)
        else:
            cfg = RunConfig.from_dict(paper.CONFIG)
        out_dir = args.out or cfg.output
        if args.format == "csv" and not out_dir:
            raise ConfigError("--format csv writes tables: give --out or the config's output")
        out_path = Path(out_dir) if out_dir else None
        if out_path is not None:
            try:
                out_path.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create the output directory: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = run(cfg)
    text = _fmt_json(report)
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            (out_path / "report.json").write_text(text)
            if args.format == "csv":
                emit_tables(report, out_path)
        except OSError as exc:
            print(f"config error: cannot write into the output directory: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {out_path / 'report.json'}", file=sys.stderr)
    return 1 if report["overall"] == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
