"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest_gate.py

Runs the benchmark twice against corrupted copies of the goldens: once with
one digest of the `deep` table goldens changed, once with one rational of the
golden `paper` report changed. Each run must report failed operations, print
`"correct": false` and exit non-zero; otherwise the gate is vacuous and this
script exits 1. It takes about half a minute.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def corrupt_deep(goldens: Path) -> None:
    path = goldens / "deep.json"
    data = json.loads(path.read_text())
    tables = next(iter(data.values()))
    digest = tables["rec"]
    tables["rec"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path.write_text(json.dumps(data))


def corrupt_paper(goldens: Path) -> None:
    path = goldens / "paper_report.json"
    text = path.read_text()
    target = json.loads(text)["tasks"]["recurrence"]["rows"][3]["diag"]
    before = f'"diag": "{target}"'
    if text.count(before) != 1:
        raise SystemExit(f"cannot find a unique {before} in the golden report")
    path.write_text(text.replace(before, f'"diag": "{target}1"'))


def run_gate(workload: str, corrupt) -> list[str]:
    """Problems found with the gate on one corrupted golden (empty if none)."""
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        goldens = Path(tmp) / "goldens"
        shutil.copytree(HERE / "goldens", goldens)
        corrupt(goldens)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0", "--goldens", str(goldens)],
            capture_output=True,
            text=True,
            timeout=170,
        )
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("failed", 0) > 0:
        problems.append(f"no failed operations reported: {result}")
    if result.get("correct") is not False:
        problems.append("result not marked incorrect")
    return problems


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    bad = 0
    for workload, corrupt in (("deep", corrupt_deep), ("paper", corrupt_paper)):
        problems = run_gate(workload, corrupt)
        print(f"{workload}: {'FAIL ' + '; '.join(problems) if problems else 'ok, corrupted golden detected'}")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
