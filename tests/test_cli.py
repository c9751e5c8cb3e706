"""Command line behavior: the built-in verification run, config-driven
runs, deterministic reports, CSV side tables, and config validation."""

import ast
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opfold as op
import opfold.bispec
import opfold.cli
from opfold.cli import (
    ALPHA_LIMIT,
    N_LIMIT,
    N_MAX_LIMIT,
    SCALAR_COUNT_LIMIT,
    TASK_NAMES,
    RunConfig,
    main,
)
from opfold.paper import CANONICAL_ONLY, MIN_N_MAX
from opfold.paper import CONFIG as _BUILTIN_CONFIG

GOLDEN_REPORT = Path(__file__).resolve().parents[1] / "perfbench" / "goldens" / "paper_report.json"


def _write_config(path, **overrides):
    data = {
        "measure": {"type": "laguerre", "alpha": 0},
        "c": "0",
        "N": 1,
        "M": [["0", "0"], ["0", "1"]],
        "n_max": 4,
        "tasks": ["moments"],
        "float_tolerance": "1e-10",
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return str(path)


# -- built-in verification run ---------------------------------------------


def test_builtin_verification_passes(verify_paper):
    assert verify_paper["exit"] == 0
    rep = verify_paper["report"]
    assert rep["overall"] == "PASS"
    statuses = {name: t["status"] for name, t in rep["tasks"].items()}
    assert set(statuses) == set(
        (
            "moments",
            "gram",
            "orthopoly",
            "recurrence",
            "connection",
            "darboux",
            "fold",
            "ttrr",
            "bispec-verify",
            "bispec-discover",
            "min-order",
            "conjugation",
        )
    )
    assert all(s == "PASS" for s in statuses.values())


def test_builtin_run_carries_display_discrepancy_notes(verify_paper):
    notes = verify_paper["report"]["notes"]
    assert notes["zeta-display"]["status"] == "REPORT"
    assert notes["darboux-product-display"]["status"] == "REPORT"
    rows = verify_paper["report"]["tasks"]["darboux"]["rows"]
    for row in rows:
        if "zeta_match" in row:
            assert row["zeta_match"] is True
            assert row["zeta_printed_labels_match"] is False
        if "sum_match" in row:
            assert row["sum_match"] is True
            assert row["product_match"] is True


def test_builtin_run_task_payloads(verify_paper):
    tasks = verify_paper["report"]["tasks"]
    assert tasks["recurrence"]["reference_match"] is True
    conn = tasks["connection"]
    assert conn["h_exact"] is True
    assert conn["h_trusted_rows"] >= 21
    assert conn["h_float_rel"] < 1e-10
    assert conn["factorization_matches_connection"] is True
    assert tasks["fold"]["leading_display_match_excl_11"] is True
    assert tasks["ttrr"]["orthonormal_reference_match"] is True
    assert tasks["bispec-verify"]["exact"] is True
    assert tasks["bispec-discover"]["hom_dim"] == 0
    assert tasks["bispec-discover"]["matches_reference"] is True
    mo = tasks["min-order"]
    assert mo["min_order"] == 8 and mo["expected"] == 8
    assert mo["feasible"][:8] == [False] * 8 and mo["feasible"][8] is True
    assert tasks["conjugation"]["worst_deviation_float"] < 1e-10


def test_builtin_report_matches_the_benchmark_golden(verify_paper):
    # the benchmark gates verify-paper on these bytes
    assert (verify_paper["dir"] / "report.json").read_bytes() == GOLDEN_REPORT.read_bytes()


def test_builtin_run_is_deterministic(verify_paper, tmp_path):
    rc = main(["verify-paper", "--out", str(tmp_path)])
    assert rc == 0
    first = (verify_paper["dir"] / "report.json").read_bytes()
    assert (tmp_path / "report.json").read_bytes() == first


# -- CSV side tables -------------------------------------------------------


def test_moments_table(verify_paper):
    lines = (verify_paper["dir"] / "moments.csv").read_text().splitlines()
    assert lines[0] == "k,value"
    # factorial moments of the base weight
    fact = 1
    for k in range(1, 7):
        assert lines[1 + k].split(",") == [str(k), str(fact)]
        fact *= k + 1


def test_recurrence_table_spot_rows(verify_paper):
    lines = (verify_paper["dir"] / "recurrence.csv").read_text().splitlines()
    assert lines[0] == "diag,n,off1_sign,off1_sq,off2_sign,off2_sq"
    assert lines[1] == "2,0,1,8,1,12"
    assert lines[2] == "7,1,1,150,1,45"


def test_zeta_table_spot_blocks(verify_paper):
    text = (verify_paper["dir"] / "zeta.csv").read_text().splitlines()
    assert text[0] == "k,i,j,value"
    rows = set(text[1:])
    # first extracted factor pair, entries flattened as k,i,j,value
    assert {"1,0,0,0", "1,0,1,2", "1,1,0,-3", "1,1,1,9"} <= rows
    assert {"2,0,0,-12", "2,0,1,6", "2,1,0,-117", "2,1,1,51"} <= rows


def test_operator_table_constant_block(verify_paper):
    lines = (verify_paper["dir"] / "operator.csv").read_text().splitlines()
    assert lines[0] == "k,i,j,t,value"
    assert lines[1:5] == ["0,0,0,0,0", "0,0,1,0,0", "0,1,0,0,-3", "0,1,1,0,3"]


def test_alpha_two_moments_table(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        measure={"type": "laguerre", "alpha": 2},
        n_max=2,
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[1:6] == ["0,2", "1,6", "2,24", "3,120", "4,720"]


# -- config-driven runs ----------------------------------------------------


def test_the_worked_case_certifies_from_n_max_8(tmp_path, capsys):
    # the smallest window where every task passes: below it bispec-discover
    # (and at 2-3 conjugation) has too few rows to fit, and at 6-7
    # min-order finds a spurious lower order
    cfg = _write_config(tmp_path / "cfg.json", n_max=8, tasks=["all"])
    assert main(["run", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {name: t["status"] for name, t in report["tasks"].items()} == dict.fromkeys(
        TASK_NAMES, "PASS"
    )


@pytest.mark.parametrize(
    "n_max, task, code", [(7, "min-order", 2), (3, "conjugation", 2), (4, "conjugation", 0)]
)
def test_the_worked_case_refuses_an_n_max_below_a_task_floor(tmp_path, capsys, n_max, task, code):
    # below its floor a task would fail although no identity does
    cfg = _write_config(tmp_path / "cfg.json", n_max=n_max, tasks=[task])
    assert main(["run", "--config", cfg]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err.count("config error") == 1
        assert f"{task} needs n_max >= {MIN_N_MAX[task]}" in captured.err
    else:
        assert json.loads(captured.out)["tasks"][task]["status"] == "PASS"


def test_run_report_goes_to_stdout(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["overall"] == "PASS"
    assert rep["config"]["measure"] == {"type": "laguerre", "alpha": 0}
    assert rep["tasks"]["moments"]["values"][2] == "2"


def test_run_reports_are_byte_stable(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", tasks=["darboux"], n_max=4)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


_PAPER_ONLY_FIELDS = {
    "reference_match",
    "leading_display_match_excl_11",
    "leading_display_note",
    "zeta_match",
    "zeta_printed_labels_match",
    "sum_match",
    "product_match",
    "orthonormal_reference_match",
    "similarity",
    "expected",
}


def _keys(value) -> set:
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def test_noncanonical_run_reports_instead_of_failing(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json",
        measure={"type": "laguerre", "alpha": 1},
        N=2,
        M=[["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
        n_max=3,
        tasks=["all"],
    )
    assert main(["run", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["overall"] == "PASS"
    for name in ("bispec-verify", "bispec-discover", "conjugation"):
        assert rep["tasks"][name] == {"status": "REPORT", "note": CANONICAL_ONLY[name]}
    assert set(rep["tasks"]) == set(TASK_NAMES)
    assert not _keys(rep["tasks"]) & _PAPER_ONLY_FIELDS
    # the same tasks on the worked case carry every one of those fields
    canon = json.loads(GOLDEN_REPORT.read_text())
    assert _keys(canon["tasks"]) >= _PAPER_ONLY_FIELDS and "notes" in canon
    mo = rep["tasks"]["min-order"]
    assert mo["status"] == "REPORT"
    # too few blocks to overdetermine the coefficient unknowns
    assert mo["rows"] < mo["unknowns"]
    assert rep["tasks"]["darboux"]["status"] == "PASS"
    assert "notes" not in rep


def test_an_infeasible_min_order_off_the_worked_case_is_a_report(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json", measure={"type": "laguerre", "alpha": 1}, n_max=12, tasks=["min-order"]
    )
    assert main(["run", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["overall"] == "PASS"
    assert rep["tasks"]["min-order"] == {
        "status": "REPORT",
        "min_order": None,
        "n_fit": 10,
        "message": "no order up to 8 admits an n-dependent eigenvalue ladder",
    }


def test_shifted_point_inside_support_still_passes(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json",
        c="1",
        N=2,
        M=[["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
        n_max=8,
        tasks=["connection"],
    )
    assert main(["run", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["tasks"]["connection"]["status"] == "PASS"
    assert rep["tasks"]["connection"]["h_exact"] is True


@pytest.mark.parametrize(
    "overrides",
    [
        {"c": "1", "n_max": 6},
        {
            "measure": {"type": "hermite"},
            "c": "-1/2",
            "N": 2,
            "M": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
            "n_max": 8,
        },
    ],
)
def test_folded_tasks_pass_about_a_nonzero_centre(tmp_path, capsys, overrides):
    # the fold splits powers of x - c, whose (N+1)-th power is the
    # multiplication that is symmetric for the form
    cfg = _write_config(tmp_path / "cfg.json", tasks=["darboux", "ttrr"], **overrides)
    assert main(["run", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["overall"] == "PASS"
    assert rep["tasks"]["darboux"]["status"] == rep["tasks"]["ttrr"]["status"] == "PASS"
    assert all(r["lu_match"] and r["ul_match"] for r in rep["tasks"]["darboux"]["rows"])


def test_explicit_moments_measure(tmp_path, capsys):
    fact, values = 1, []
    for k in range(24):
        values.append(str(fact))
        fact *= k + 1
    cfg = _write_config(
        tmp_path / "cfg.json",
        measure={"type": "moments", "moments": values},
        n_max=3,
        tasks=["orthopoly"],
    )
    assert main(["run", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["overall"] == "PASS"
    assert rep["tasks"]["orthopoly"]["positive"] is True


def test_the_orthopoly_task_leaves_the_member_view_unbuilt(tmp_path):
    # members 0..n_max are printed from the integer rows: the Poly view
    # would build every member of the sequence, past n_max too
    cfg = _write_config(tmp_path / "cfg.json", c="1", tasks=["darboux"])
    ctx = opfold.cli._Context(RunConfig.from_dict(json.loads(Path(cfg).read_text())))
    status, payload = opfold.cli._task_orthopoly(ctx)
    seq = ctx.get("seq")
    assert status == "PASS" and "polys" not in vars(seq) and payload["count"] < len(seq)
    assert payload["polys"] == [opfold.cli._poly_json(seq.poly(n)) for n in range(payload["count"])]


def test_rationals_past_the_int_string_limit_are_reported(tmp_path, capsys):
    # c = 1/77...7 (50 sevens) gives recurrence entries with more digits
    # than str(int) converts by default (4,300)
    cfg = _write_config(
        tmp_path / "cfg.json",
        c="1/" + "7" * 50,
        M=[["1", "0"], ["0", "0"]],
        n_max=20,
        tasks=["recurrence"],
    )
    assert main(["run", "--config", cfg]) == 0
    rows = json.loads(capsys.readouterr().out)["tasks"]["recurrence"]["rows"]
    num, _, den = rows[-1]["diag"].partition("/")
    assert len(num) + len(den) > 4300
    rec = opfold.cli._Context(RunConfig.from_dict(json.loads(Path(cfg).read_text()))).get("rec")
    n = rows[-1]["n"]
    want = rec.raw.entry(n, n) / rec.norms_sq[n]
    assert Fraction(int(Decimal(num)), int(Decimal(den or "1"))) == want


def test_too_few_explicit_moments_fails_the_run(tmp_path, capsys):
    # the count depends on the resolved tasks: 16 moments cover a scalar
    # run at n_max=3, but "all" folds 8 members and needs 24
    values = [str(v) for v in range(1, 17)]
    cfg = _write_config(
        tmp_path / "cfg.json",
        measure={"type": "moments", "moments": values},
        n_max=3,
        tasks=["all"],
    )
    assert main(["run", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "explicit moments: need at least 24, have 16" in captured.err
    assert "Traceback" not in captured.err
    data = json.loads((tmp_path / "cfg.json").read_text())
    data["tasks"] = ["orthopoly"]
    scalar = RunConfig.from_dict(data)
    assert (scalar.scalar_count(), scalar.moment_count()) == (4, 16)


def test_a_failed_shared_builder_is_built_and_reported_once(tmp_path, capsys, monkeypatch):
    # m_2 = -3 puts B(x, x) = m_2 + 1 below zero: the Sobolev Gram is not
    # positive definite, so the shared scalar sequence fails at degree 1
    values = ["1", "0", "-3"] + ["0"] * 13
    cfg = _write_config(
        tmp_path / "cfg.json",
        measure={"type": "moments", "moments": values},
        n_max=3,
        tasks=["orthopoly", "recurrence", "connection"],
    )
    calls = []
    build = opfold.cli.monic_sequence

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(opfold.cli, "monic_sequence", counted)
    assert main(["run", "--config", cfg]) == 1
    rep = json.loads(capsys.readouterr().out)
    tasks = rep["tasks"]
    assert rep["overall"] == "FAIL"
    assert [tasks[t]["status"] for t in ("moments", "gram")] == ["PASS", "PASS"]
    assert tasks["orthopoly"] == {
        "status": "FAIL",
        "error": "NotPositiveDefinite",
        "message": "nonpositive pivot at degree 1 (pivot = -2)",
    }
    for name in ("recurrence", "connection"):
        assert tasks[name] == {"status": "SKIPPED", "failed_dependency": "seq"}
    assert calls == [3]


def _json_values():
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.integers(min_value=10**300, max_value=10**400)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text(max_size=8)
        | st.sampled_from(["0", "1/2", "1/0", "-1", "nan", "1e999", "all", "laguerre"])
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )


_CONFIG_KEYS = sorted(_BUILTIN_CONFIG) + ["output"]
_MEASURE_KEYS = ["type", "alpha", "moments"]


@st.composite
def _mutated_configs(draw):
    data = json.loads(json.dumps(_BUILTIN_CONFIG))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(_CONFIG_KEYS))
        action = draw(st.sampled_from(["set", "delete", "measure"]))
        if action == "delete":
            data.pop(key, None)
        elif action == "set":
            data[key] = draw(_json_values())
        elif isinstance(data.get("measure"), dict):
            data["measure"][draw(st.sampled_from(_MEASURE_KEYS))] = draw(
                st.sampled_from(["laguerre", "hermite", "moments", "lebesgue"])
                | _json_values()
            )
    return data


@given(_mutated_configs() | st.dictionaries(st.text(max_size=8), _json_values(), max_size=6))
@example(dict(_BUILTIN_CONFIG, float_tolerance=10**400))
@example(dict(_BUILTIN_CONFIG, output={"dir": "out"}))
@settings(max_examples=300, deadline=None)
def test_from_dict_yields_a_valid_config_or_a_config_error(data):
    try:
        cfg = RunConfig.from_dict(data)
    except op.ConfigError:
        return
    assert 2 <= cfg.n_max <= N_MAX_LIMIT
    assert cfg.scalar_count() <= SCALAR_COUNT_LIMIT
    assert 0 <= cfg.alpha <= ALPHA_LIMIT
    assert isinstance(cfg.N, int) and 0 <= cfg.N <= N_LIMIT
    assert cfg.M.shape == (cfg.N + 1, cfg.N + 1)
    assert set(cfg.tasks) <= set(TASK_NAMES)
    assert 0 < cfg.float_tolerance < float("inf")
    assert cfg.output is None or isinstance(cfg.output, str)
    if cfg.moments is not None:
        assert len(cfg.moments) >= cfg.moment_count()
    json.dumps(cfg.echo())


def test_verify_paper_applies_each_conjugation_operator_once_per_member(tmp_path, monkeypatch):
    # blocks 0..6 of the N=1 fold: 14 members, each image shared by the
    # five grid points
    calls = []
    apply = opfold.bispec.apply_scalar

    def counted(D, p):
        calls.append(p.degree)
        return apply(D, p)

    monkeypatch.setattr(opfold.bispec, "apply_scalar", counted)
    assert main(["verify-paper", "--out", str(tmp_path)]) == 0
    assert sorted(calls) == list(range(14))


def test_verify_paper_builds_each_fold_product_once(tmp_path, monkeypatch):
    # the darboux and ttrr tasks share the monic folds P and Q and their
    # block Jacobis: one normalization and one recurrence extraction each
    counts = {"matrix_ttrr": 0, "monic_normalize": 0}
    for name in counts:
        fn = getattr(opfold.cli, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(opfold.cli, name, counted)
    assert main(["verify-paper", "--out", str(tmp_path)]) == 0
    assert counts == {"matrix_ttrr": 2, "monic_normalize": 2}


def test_float_cross_checks_hold_where_the_norms_overflow_a_float(tmp_path, capsys):
    # 102 scalars: the pivots and norms of the top degrees pass the largest
    # float, where taking their square roots used to raise OverflowError
    cfg = _write_config(tmp_path / "cfg.json", n_max=50, tasks=["connection", "ttrr"])
    assert main(["run", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    tasks = json.loads(captured.out)["tasks"]
    assert tasks["connection"]["status"] == "PASS"
    assert tasks["connection"]["h_trusted_rows"] == 102
    assert tasks["ttrr"]["status"] == "PASS"


# -- config validation -----------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"M": [["0", "1"], ["0", "1"]]},
        {"M": [["0", "0"]]},
        {"M": None},
        {"tasks": ["frobnicate"]},
        {"tasks": []},
        {"measure": {"type": "lebesgue"}},
        {"measure": {"type": "laguerre", "alpha": -1}},
        {"n_max": 1},
        {"N": -1},
        {"c": "one"},
        {"float_tolerance": "0"},
        {"c": "1/0"},
        {"c": 0.5},
        {"M": [["0", "0"], ["0", "1/0"]]},
        {"M": [["0"], ["0", "1"]]},
        {"measure": {"type": "moments", "moments": ["1", "1/0"]}},
        {"N": True},
        {"measure": {"type": "laguerre", "alpha": True}},
        {"n_max": True},
        {"float_tolerance": "nan"},
        {"float_tolerance": "inf"},
        {"M": [["0", "0"], ["0", "-1"]]},
        {"n_max": 10**9},
        {"n_max": N_MAX_LIMIT + 1},
        {"measure": {"type": "laguerre", "alpha": ALPHA_LIMIT + 1}},
        {"measure": {"type": "laguerre", "alpha": 10**6}},
        {"N": 2, "M": [["0"] * 3] * 3, "n_max": N_MAX_LIMIT, "tasks": ["fold"]},
        {"N": 30, "M": [["0"] * 31] * 31, "n_max": 10, "tasks": ["all"]},
        {"float_tolerance": 10**400},
        {"output": ["out"]},
        {"N": N_LIMIT + 1, "M": [["0"] * (N_LIMIT + 2)] * (N_LIMIT + 2), "tasks": ["moments"]},
        {"N": 10**6},
        # a JSON true is not the number 1
        {"c": True},
        {"M": [[True, False], [False, True]]},
        {"measure": {"type": "moments", "moments": [True] * 64}},
        {"float_tolerance": True},
        # rows and moments are JSON arrays, not strings or objects
        {"M": ["00", "01"]},
        {"measure": {"type": "moments", "moments": "1" * 60}},
        {"measure": {"type": "moments", "moments": {str(k): "1" for k in range(60)}}},
    ],
)
def test_bad_configs_exit_with_usage_error(tmp_path, overrides, capsys):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    if overrides.get("M", "keep") is None:
        data = json.loads((tmp_path / "cfg.json").read_text())
        del data["M"]
        (tmp_path / "cfg.json").write_text(json.dumps(data))
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert err.count("config error") == 1


def test_unreadable_and_malformed_configs_exit_with_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.count("config error") == 2


@pytest.mark.parametrize("sub", ["", "sub"])
def test_an_unusable_output_directory_is_a_usage_error(tmp_path, capsys, sub):
    # a file where the directory should be, or above it: no task runs
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["verify-paper", "--out", str(blocker / sub)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("config error") == 1 and "Traceback" not in captured.err
    assert "task " not in captured.err and captured.out == ""


def test_an_unwritable_report_is_a_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 1 and "Traceback" not in err


def test_csv_without_an_output_directory_is_a_usage_error(capsys):
    assert main(["verify-paper", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "task " not in captured.err
    assert captured.out == ""


def test_config_resolves_task_dependencies():
    cfg = RunConfig.from_dict(
        {
            "measure": {"type": "laguerre", "alpha": 0},
            "M": [["0", "0"], ["0", "1"]],
            "tasks": ["darboux"],
        }
    )
    resolved = cfg.resolved_tasks()
    for needed in ("moments", "gram", "orthopoly", "recurrence", "fold"):
        assert needed in resolved
    assert cfg.is_canonical()
    assert cfg.c == Fraction(0)
    other = RunConfig.from_dict(
        {
            "measure": {"type": "laguerre", "alpha": 0},
            "c": "1/2",
            "M": [["0", "0"], ["0", "1"]],
            "tasks": ["moments"],
        }
    )
    assert not other.is_canonical()
    widest = RunConfig.from_dict(
        {"measure": {"type": "hermite"}, "M": [["1", "0"], ["0", "0"]], "n_max": N_MAX_LIMIT}
    )
    assert widest.n_max == N_MAX_LIMIT
    assert widest.scalar_count() == SCALAR_COUNT_LIMIT
    hottest = RunConfig.from_dict(
        {"measure": {"type": "laguerre", "alpha": ALPHA_LIMIT}, "M": [["0", "0"], ["0", "1"]]}
    )
    assert hottest.alpha == ALPHA_LIMIT
    # the largest N a folded task admits is accepted
    widest_fold = RunConfig.from_dict(
        {
            "measure": {"type": "hermite"},
            "N": N_LIMIT,
            "M": [["0"] * (N_LIMIT + 1)] * (N_LIMIT + 1),
            "n_max": 2,
            "tasks": ["fold"],
        }
    )
    assert widest_fold.N == N_LIMIT
    assert widest_fold.scalar_count() <= SCALAR_COUNT_LIMIT


# resolved_tasks() and scalar_count() of the worked case with one task:
# every task's needs, and whether it reads the fold, in one place
_TASK_GRAPH = {
    "moments": (("moments",), 13),
    "gram": (("moments", "gram"), 13),
    "orthopoly": (("moments", "gram", "orthopoly"), 13),
    "recurrence": (("moments", "gram", "orthopoly", "recurrence"), 13),
    "connection": (("moments", "gram", "orthopoly", "connection"), 13),
    "darboux": (("moments", "gram", "orthopoly", "recurrence", "darboux", "fold"), 26),
    "fold": (("moments", "gram", "orthopoly", "fold"), 26),
    "ttrr": (("moments", "gram", "orthopoly", "recurrence", "fold", "ttrr"), 26),
    "bispec-verify": (("moments", "gram", "orthopoly", "fold", "bispec-verify"), 26),
    "bispec-discover": (("moments", "gram", "orthopoly", "fold", "bispec-discover"), 26),
    "min-order": (("moments", "gram", "orthopoly", "fold", "min-order"), 26),
    "conjugation": (("moments", "gram", "orthopoly", "conjugation"), 26),
}


def test_the_task_graph_is_pinned():
    assert TASK_NAMES == tuple(_TASK_GRAPH)
    for name, expected in _TASK_GRAPH.items():
        cfg = RunConfig.from_dict({**_BUILTIN_CONFIG, "tasks": [name]})
        assert (cfg.resolved_tasks(), cfg.scalar_count()) == expected, name


def test_verify_paper_imports_no_numeric_stack(tmp_path):
    # the exact kernels are pure Python: pulling in numpy, scipy or sympy
    # would add to start-up time and resident memory for nothing
    src = str(Path(op.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from opfold.cli import main\n"
        f"code = main(['verify-paper', '--out', {str(tmp_path)!r}])\n"
        "print(sorted({'numpy', 'scipy', 'sympy'} & set(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_package_needs_only_the_standard_library():
    # every absolute import in the package names a standard library module,
    # and the project declares no runtime dependency
    root = Path(op.__file__).resolve().parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    tomllib = pytest.importorskip("tomllib")  # standard from Python 3.11
    project = tomllib.loads((root.parents[1] / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = str(Path(op.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(cfg):
        return subprocess.run(
            [sys.executable, "-m", "opfold", "run", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=120,
        )

    good = run(_write_config(tmp_path / "good.json"))
    assert good.returncode == 0, good.stderr
    assert json.loads(good.stdout)["overall"] == "PASS"
    bad = run(_write_config(tmp_path / "bad.json", N=True))
    assert bad.returncode == 2
    assert "config error" in bad.stderr
