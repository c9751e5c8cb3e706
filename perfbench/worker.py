"""Child process of the opfold benchmark; run.py starts it with PYTHONPATH set
to the checkout's src/.

    worker.py setup --workload W
        prints the seconds from before `import opfold` until W's inputs are
        built, then exits.
    worker.py serve --workload W --seed S [--goldens DIR] [--trace-out FILE]
        builds the inputs once and says it is ready, then answers each stdin
        line with one JSON line: `pass` (untraced pass), `traced` (traced
        pass), `series` (traced degree-scaling series of the deep
        configuration), `quit` (peak RSS; spans are written to FILE).
"""
import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
import opfold  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def series(recorder, tally, golden_dir) -> dict:
    """Traced deep configuration at each SERIES_DEGREES entry, with the
    fitted exponent of banded_recurrence time against degree."""
    goldens = workloads.load_goldens("deep", golden_dir)
    rows = []
    for degree in workloads.SERIES_DEGREES:
        pass_id = f"series-d{degree}"
        cfg = workloads.build_config(*workloads.DEEP[:3], degree)
        with recorder.patched(), recorder.root(pass_id):
            workloads.check_config(cfg, goldens.get(cfg.key), tally, reference=True)
        rows.append(
            {
                "degree": degree,
                "recurrence_s": recorder.inclusive(pass_id, "orthopoly.banded_recurrence_s"),
                "layers": recorder.layers(pass_id),
            }
        )
    fit = statistics.linear_regression(
        [math.log(r["degree"]) for r in rows], [math.log(r["recurrence_s"]) for r in rows]
    )
    return {"series": rows, "recurrence_degree_exp": fit.slope}


def serve(args) -> None:
    from spans import Recorder  # here, so the timed setup mode never loads it

    inputs = workloads.build_inputs(args.workload)
    goldens = workloads.load_goldens(args.workload, Path(args.goldens))
    scratch = Path(__file__).resolve().parent / "out"
    rng = random.Random(args.seed)
    recorder = Recorder()
    passes = 0
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        cmd = line.strip()
        tally = workloads.Tally()
        if cmd == "pass":
            t = time.perf_counter()
            workloads.run_pass(args.workload, inputs, goldens, rng, tally, scratch)
            reply = {"seconds": time.perf_counter() - t}
        elif cmd == "traced":
            passes += 1
            pass_id = f"pass-{passes}"
            t = time.perf_counter()
            with recorder.patched(), recorder.root(pass_id):
                workloads.run_pass(args.workload, inputs, goldens, rng, tally, scratch)
            reply = {"seconds": time.perf_counter() - t, "layers": recorder.layers(pass_id)}
        elif cmd == "series":
            reply = series(recorder, tally, Path(args.goldens))
        elif cmd == "quit":
            if args.trace_out and recorder.spans:
                recorder.write(args.trace_out)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(json.dumps({"peak_rss_mb": peak_kb / 1024}), flush=True)
            return
        else:
            raise SystemExit(f"unknown command {cmd!r}")
        reply.update(attempted=tally.attempted, failed=tally.failed)
        print(json.dumps(reply), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "serve"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--goldens", default=str(workloads.GOLDENS))
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    if SRC not in Path(opfold.__file__).resolve().parents:
        print(f"opfold was imported from {opfold.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        workloads.build_inputs(args.workload)
        print(json.dumps({"seconds": time.perf_counter() - T0}), flush=True)
        return 0
    serve(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
