"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads bias-437,...]
        [--first-seed 100] [--trace 0] [--out perfbench/baseline.json]

Runs are sequential, one process each, with the ``run_seconds`` that
BENCHMARK.json fixes.  For every metric it prints the median over runs and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  ``--out`` writes the figures, the quartiles and the
environment as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    out = {"run_seconds": bench["run_seconds"], "trace": args.trace,
           "workloads": {}}
    for workload in args.workloads.split(","):
        values = {m: [] for m in bounds}
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            report, result = run_once(workload, seed, bench["run_seconds"],
                                      args.trace)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs incorrect: "
                         f"{report['failures']}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            runs.append({"seed": seed, "quality": report["quality"],
                         "samples": report["samples"],
                         "setup_samples": report["setup_samples"],
                         "digest_unlearned": report["digest_unlearned"],
                         "metrics": {m: values[m][-1] for m in bounds}})
            out["environment"] = report["environment"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m}={values[m][-1]:.4g}" for m in bounds), flush=True)
        summary = {}
        for m, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[m] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[m]}
            note = ""
            if bounds[m] is not None:
                note = "ok" if spread < bounds[m] / 3 else "WIDE"
            print(f"  {m:28s} median {med:<12.6g} spread {spread:7.2%} "
                  f"bound {bounds[m]} {note}")
        out["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True)
                                  + "\n")


if __name__ == "__main__":
    main()
