"""Inputs, passes and correctness gate of the opfold benchmark workloads.

Every pass goes through opfold's public API and is checked as it runs: each
identity check is one operation, and it fails on an exception, on a false
``exact_ok``, or when a SHA-256 digest of the exact tables it produced differs
from the golden one recorded from the seed code (``goldens/``).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import opfold as op
from opfold import cli

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"

WORKLOADS = ("paper", "grid", "deep")

# The built-in worked configuration of `opfold verify-paper`.
PAPER_CONFIG = {
    "measure": {"type": "laguerre", "alpha": 0},
    "c": "0",
    "N": 1,
    "M": [["0", "0"], ["0", "1"]],
    "n_max": 12,
    "tasks": ["all"],
    "float_tolerance": "1e-10",
}
# The theorem grid: alpha x c x N, sized so trusted rows cover indices 0..12.
GRID = [(alpha, c, N, 12 + N + 2) for alpha in (0, 1, 2) for c in (0, 1) for N in (1, 2)]
DEEP = (0, 0, 1, 40)
SERIES_DEGREES = (24, 32, 40)


@dataclass(frozen=True)
class Config:
    alpha: int
    c: int
    N: int
    degree: int
    mu: op.MomentFunctional
    spec: op.SobolevSpec

    @property
    def key(self) -> str:
        return f"a{self.alpha}-c{self.c}-N{self.N}-d{self.degree}"


def build_config(alpha: int, c: int, N: int, degree: int) -> Config:
    """Moments through the band recurrence's need, mass e_N e_N^T at c."""
    mu = op.laguerre_moments(alpha, 2 * (degree + N + 2) + 2)
    mass = op.Matrix.rational([[int(i == j == N) for j in range(N + 1)] for i in range(N + 1)])
    return Config(alpha, c, N, degree, mu, op.SobolevSpec(mu, Fraction(c), N, mass))


def build_inputs(workload: str):
    """The inputs a pass starts from; building them is what setup_s times."""
    if workload == "paper":
        cfg = cli.RunConfig.from_dict(PAPER_CONFIG)
        count = 2 * ((cfg.N + 1) * (cfg.n_max + 1) + cfg.N + 2) + 2
        mu = op.laguerre_moments(cfg.alpha, count)
        return cfg, op.SobolevSpec(mu, cfg.c, cfg.N, cfg.M)
    if workload == "grid":
        return [build_config(*g) for g in GRID]
    if workload == "deep":
        return [build_config(*DEEP)]
    raise ValueError(f"unknown workload {workload!r}")


def load_goldens(workload: str, root: Path = GOLDENS):
    if workload == "paper":
        return (root / "paper_report.json").read_bytes()
    return json.loads((root / f"{workload}.json").read_text())


class Tally:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        self.failed += 0 if ok else count


def _digest(rows) -> str:
    text = "\n".join(",".join(str(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _band_rows(b):
    return [[b.entry(i, j) for j in range(max(0, i - b.lower), min(b.size, i + b.upper + 1))] for i in range(b.size)]


def _block_rows(mats):
    return [row for m in mats for row in m.rows]


def _reference_ok(rec) -> bool:
    """Every trusted row of the worked family against its closed forms."""
    for n in range(rec.size - (rec.N + 1)):
        a2, b2, cdiag = op.reference_abc(n)
        if (
            rec.orthonormal_sq(n, n + 2) != a2
            or rec.orthonormal_sq(n, n + 1) != b2
            or rec.raw.entry(n, n) / rec.norms_sq[n] != cdiag
        ):
            return False
    return True


def _steps(cfg: Config, reference: bool):
    """Run one configuration, yielding (ok, tables) per identity check."""
    c, N, deg = Fraction(cfg.c), cfg.N, cfg.degree
    seq = op.monic_sequence(op.sobolev_form(cfg.spec), deg)
    rec = op.banded_recurrence(seq, c, N)
    yield True, {"rec": _band_rows(rec.raw)}
    fact = op.band_symmetric_factorize(rec.raw, N + 1, require_positive=False)
    yield op.verify_h_factorization(rec, fact).exact_ok, {"pivots": [fact.pivots]}
    shifted = op.monic_sequence(
        op.measure_form(op.christoffel_shift(cfg.mu, c, N + 1)), deg, require_positive=False
    )
    conn = op.connection_matrix(seq, shifted, N)
    jac = op.jacobi_matrix(shifted)
    yield op.verify_ul_identity(jac, c, N, conn).exact_ok, {"conn": _band_rows(conn.T_monic)}
    base = op.monic_sequence(op.measure_form(cfg.mu), deg)
    conn0 = op.connection_matrix(base, shifted, N)
    yield op.verify_ul_identity(jac, c, N, conn0).exact_ok, {"conn0": _band_rows(conn0.T_monic)}
    if cfg.c == 0:
        P = op.monic_normalize(op.build_matrix_sequence(seq, N)).sequence
        blockJ = op.matrix_ttrr(P).monic
        lu = op.block_lu(blockJ)
        yield True, {"block_diag": _block_rows(blockJ.diag), "block_sub": _block_rows(blockJ.sub)}
        swap = op.darboux_swap(lu)
        Q = op.monic_normalize(op.build_matrix_sequence(shifted, N)).sequence
        qJ = op.matrix_ttrr(Q).monic
        yield swap.agree_through(qJ, swap.nblocks), {"zetas": _block_rows(lu.zetas.zetas)}
        count = 2 * len(P) - 2
        checked = op.w_interlace_check(
            [P.mat(n) for n in range(len(P))], [Q.mat(n) for n in range(len(Q))], lu.zetas, count
        )
        yield len(checked) == count, {}
    if reference:
        yield _reference_ok(rec), {}


def check_config(cfg: Config, golden, tally: Tally, reference: bool = False) -> dict:
    """Run and gate one configuration; returns the digests of its tables.

    With golden None (goldens being made, or a degree without goldens) only
    the identities are checked. Folding splits powers of x, so the fold path
    runs only for c = 0.
    """
    expected = 4 + (3 if cfg.c == 0 else 0) + int(reference)
    digests: dict[str, str] = {}
    done = 0
    try:
        for ok, tables in _steps(cfg, reference):
            got = {name: _digest(rows) for name, rows in tables.items()}
            digests.update(got)
            if golden is not None:
                ok = ok and all(golden.get(name) == d for name, d in got.items())
            tally.add(ok)
            done += 1
    except Exception:  # a crashed identity check is a failed operation
        traceback.print_exc()
    tally.add(False, expected - done)
    return digests


def paper_pass(golden: bytes, tally: Tally, scratch: Path) -> None:
    """`opfold verify-paper` in process: one operation per task, plus one
    for the whole report being byte-identical to the golden."""
    reference = json.loads(golden)["tasks"]
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["verify-paper", "--out", tmp])
            data = (Path(tmp) / "report.json").read_bytes()
        except Exception:  # a crashed run fails every operation
            traceback.print_exc()
            tally.add(False, len(reference) + 1)
            return
    tasks = json.loads(data)["tasks"]
    for name, entry in reference.items():
        got = tasks.get(name)
        tally.add(got == entry and got["status"] != "FAIL")
    tally.add(rc == 0 and data == golden)


def run_pass(workload, inputs, goldens, rng, tally: Tally, scratch: Path) -> None:
    """One full pass of a workload; the seed's rng orders the grid."""
    if workload == "paper":
        paper_pass(goldens, tally, scratch)
        return
    configs = list(inputs)
    rng.shuffle(configs)
    for cfg in configs:
        check_config(cfg, goldens.get(cfg.key, {}), tally, reference=workload == "deep")
