"""Record the benchmark's goldens from the current opfold sources.

    PYTHONPATH=src python3 perfbench/make_goldens.py

Writes goldens/paper_report.json (the `opfold verify-paper` report bytes) and
goldens/grid.json, goldens/deep.json (SHA-256 digests of each configuration's
exact tables). Run it only on code whose outputs are known to be right; the
goldens in the repository come from the seed code.
"""
import json
import tempfile
from pathlib import Path

import workloads
from opfold import cli


def main() -> None:
    workloads.GOLDENS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        if cli.main(["verify-paper", "--out", tmp]) != 0:
            raise SystemExit("verify-paper failed")
        report = (Path(tmp) / "report.json").read_bytes()
    (workloads.GOLDENS / "paper_report.json").write_bytes(report)
    for workload in ("grid", "deep"):
        tally = workloads.Tally()
        goldens = {
            cfg.key: workloads.check_config(cfg, None, tally, reference=workload == "deep")
            for cfg in workloads.build_inputs(workload)
        }
        if tally.failed:
            raise SystemExit(f"{workload}: {tally.failed} of {tally.attempted} checks failed")
        text = json.dumps(goldens, indent=1, sort_keys=True) + "\n"
        (workloads.GOLDENS / f"{workload}.json").write_text(text)


if __name__ == "__main__":
    main()
