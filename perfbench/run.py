"""opfold benchmark: exact workloads through the public API, every output gated.

    python3 perfbench/run.py --workload {paper,grid,deep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; opfold is imported from its src/. The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones (solve_s,
setup_s, peak_rss_mb); with --trace 1 they are the per-layer ones from a
separate traced run. A summary with sample counts goes to stderr, and the
traced run writes its spans to perfbench/out/. The exit code is 0 only when
every operation passed its check. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("paper", "grid", "deep")
SETUP_PROBES = 21
CHILD_TIMEOUT = 170


class Worker:
    """The long-lived child process that runs the passes, one per request."""

    def __init__(self, argv, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "serve", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )
        self.reply("start")  # inputs built; nothing else runs while it starts

    def request(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.reply(cmd)

    def reply(self, cmd: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()} on {cmd!r}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def setup_probe(workload: str, env) -> float:
    """Seconds a fresh child spends from before `import opfold` until the
    workload's inputs are built."""
    out = subprocess.run(
        [sys.executable, str(WORKER), "setup", "--workload", workload],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["seconds"]


def measure(args, worker, env, rng):
    """Untraced passes for --seconds, with setup probes placed among them by
    the seed; returns (attempted, failed, metrics, summary)."""
    passes, setups = [], []
    attempted = failed = 0
    # probes fall at seeded points of the pass time line, so they sample the
    # whole run rather than one stretch of it
    due = sorted(rng.uniform(0, args.seconds) for _ in range(SETUP_PROBES))
    while not passes or sum(passes) + passes[-1] <= args.seconds:
        while due and due[0] <= sum(passes):
            setups.append(setup_probe(args.workload, env))
            due.pop(0)
        reply = worker.request("pass")
        passes.append(reply["seconds"])
        attempted += reply["attempted"]
        failed += reply["failed"]
    setups += [setup_probe(args.workload, env) for _ in due]
    peak = worker.request("quit")["peak_rss_mb"]
    metrics = {
        "solve_s": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    summary = {
        "solve_s": {"samples": len(passes), "values": passes},
        "setup_s": {"samples": len(setups), "values": setups},
        "peak_rss_mb": {"samples": 1},
    }
    return attempted, failed, metrics, summary


def measure_traced(args, worker, rng):
    """Untraced and traced passes in a seeded order, at least one of each,
    then the degree-scaling series; returns (attempted, failed, metrics, summary)."""
    untraced, traced, layers = [], [], []
    attempted = failed = 0
    while not (untraced and traced) or sum(untraced + traced) + traced[-1] <= args.seconds:
        for cmd in rng.sample(["pass", "traced"], 2):
            reply = worker.request(cmd)
            (traced if cmd == "traced" else untraced).append(reply["seconds"])
            if cmd == "traced":
                layers.append(reply["layers"])
            attempted += reply["attempted"]
            failed += reply["failed"]
    series = worker.request("series")
    attempted += series["attempted"]
    failed += series["failed"]
    worker.request("quit")
    values = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    base = statistics.median(untraced)
    values["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    values["orthopoly.recurrence_degree_exp"] = series["recurrence_degree_exp"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    summary = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "series": [
            {
                "degree": row["degree"],
                "banded_recurrence_total_s": row["recurrence_s"],
                "max_coeff_bits": row["layers"]["orthopoly.max_coeff_bits"],
                "self_s": {k: v for k, v in row["layers"].items() if k.endswith("_s") and v},
            }
            for row in series["series"]
        ],
    }
    return attempted, failed, metrics, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", default=str(HERE / "goldens"), help="golden directory (gate self-test)")
    args = parser.parse_args()
    if not (ROOT / "src" / "opfold" / "__init__.py").is_file():
        print(f"no opfold sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    rng = random.Random(args.seed)
    setup_probe(args.workload, env)  # untimed: warms the file cache (and bytecode, if written)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--goldens", args.goldens]
    if args.trace:
        argv += ["--trace-out", str(out / f"trace-{args.workload}-seed{args.seed}.jsonl")]
    worker = Worker(argv, env)
    try:
        if args.trace:
            attempted, failed, metrics, summary = measure_traced(args, worker, rng)
        else:
            attempted, failed, metrics, summary = measure(args, worker, env, rng)
    finally:
        worker.close()
    summary["fail_frac"] = failed / attempted
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary}), file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
