"""Benchmark of one ppunlearn unlearning request, end to end and per module.

    python3 perfbench/run.py --workload privacy-7k --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs a closed loop: each operation of a cycle starts
after the previous one returned, and cycles repeat until the next one would
end after ``--seconds``.  BLAS is pinned to one thread before NumPy loads.

``--trace 0`` times the operations untraced and reports the end-to-end
metrics; set-up time is the median over separate processes, each timed
from its spawn until its dataset, split and original model are ready.
Request and Retrain times are bounded as ratios to a reference run of the
benchmark's own NumPy training timed in the same cycle, which cancels the
host's speed drift; the seconds are printed too.
``--trace 1`` alternates untraced and traced cycles, wraps the program's
module functions from outside (see spans.py), and reports per-module
metrics from the traced cycles plus the tracing overhead.

Every output is checked against the benchmark's own recomputation
(check.py).  Stdout ends with a table of every metric, a JSON report line
(environment, samples, quality metrics, weight digests, failures), and the
result line the contract asks for.  See README.md for the metric list.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
NUMPY_PRELOADED = "numpy" in sys.modules
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROCESSES = 5
MIN_CYCLES = 3           # untraced: enough for a median per run
MIN_TRACE_CYCLES = 2     # traced: one untraced and one traced cycle
COVERAGE_FLOOR = 0.90



def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    if not (SRC / "ppunlearn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ppunlearn sources under {SRC}; run from the "
                 "root of a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_set_before_numpy": not NUMPY_PRELOADED,
    }


def time_setups(args):
    """Median spawn-to-ready time of fresh processes doing the set-up."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROCESSES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit "
                               f"{proc.returncode}): {line!r}")
        times.append(ready - start)
    return times


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def measure(workload, seconds, tracer):
    """Closed loop of cycles; returns samples, check infos and layer rows."""
    from check import CheckFailed
    from spans import SpanTable
    samples = defaultdict(list)          # op -> seconds (untraced)
    ratios = defaultdict(list)           # per untraced cycle
    traced_unlearn = []
    infos = defaultdict(list)            # op -> info dicts
    layer_rows = []
    last_table = None
    failures = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    min_cycles = MIN_CYCLES if tracer is None else MIN_TRACE_CYCLES
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        cycle_infos = defaultdict(list)
        cycle_samples = defaultdict(list)
        begin = time.perf_counter()
        if traced:
            tracer.install()
        try:
            for op in workload.ops():
                attempted += 1
                try:
                    if traced:
                        with tracer.scope(f"bench.{op.name}"):
                            start = time.perf_counter()
                            out = op.run()
                            elapsed = (time.perf_counter() - start) / op.calls
                    else:
                        start = time.perf_counter()
                        out = op.run()
                        elapsed = (time.perf_counter() - start) / op.calls
                    # a wrong output was still computed: its time counts
                    if traced:
                        if op.name == "unlearn":
                            traced_unlearn.append(elapsed)
                    else:
                        cycle_samples[op.name].append(elapsed)
                    info = op.check(out)
                    del out
                except CheckFailed as exc:
                    failures.append(f"cycle {cycle} {op.name}: {exc}")
                    break
                except Exception:   # the program raised: count, keep going
                    failures.append(f"cycle {cycle} {op.name}: "
                                    + traceback.format_exc(limit=3))
                    break
                cycle_infos[op.name].append(info)
                infos[op.name].append(info)
        finally:
            if traced:
                tracer.uninstall()
            workload.end_cycle()
        for op_name, xs in cycle_samples.items():
            samples[op_name].extend(xs)
        if all(cycle_samples[op] for op in ("unlearn", "retrain",
                                            "reference")):
            # the machine's speed drifts by tens of percent over seconds to
            # minutes; ratios of times from the same cycle cancel the drift
            unlearn = cycle_samples["unlearn"][0]
            retrain = median(cycle_samples["retrain"])
            ref = statistics.mean(cycle_samples["reference"])
            ratios["unlearn_rel"].append(unlearn / ref)
            ratios["retrain_rel"].append(retrain / ref)
            ratios["speedup_vs_retrain"].append(retrain / unlearn)
        if traced:
            table = SpanTable(tracer.spans)
            bad = table.nesting_errors()
            if bad:
                failures.append(f"cycle {cycle}: spans outlast their "
                                f"parents: {sorted(set(bad))}")
            layer_rows.append(layer_metrics(table, cycle_infos))
            last_table = table
            tracer.clear()
        cycle += 1
        last = time.perf_counter() - begin
        if cycle >= min_cycles and time.perf_counter() + last > deadline:
            break
    return {"samples": samples, "ratios": ratios,
            "traced_unlearn": traced_unlearn,
            "infos": infos, "layer_rows": layer_rows, "last_table": last_table,
            "failures": failures,
            "attempted": attempted, "cycles": cycle}


WRITES = ("data.save_dataset", "model.save_model", "refine.save_refine_result",
          "harness.write_json")
READS = ("data.load_dataset", "model.load_model", "harness.read_json")
PPU_ROOTS = ("pipeline.ppu_privacy", "pipeline.ppu_bias",
             "pipeline.adaptive_post")
REFINE_OR_FIT = ("refine.problem_from_outputs", "refine.refine",
                 "model.finetune_kl")


def layer_metrics(t, infos):
    """Per-module figures of one traced cycle (all of its operations)."""
    m = {}
    first = infos["unlearn"][0] if infos["unlearn"] else {}

    m["data.save_dataset_s"] = t.total("data.save_dataset")
    m["data.load_dataset_s"] = t.total("data.load_dataset")

    fits = t.ids("model.finetune_kl")
    fit_time = sum(t.duration(i) for i in fits)
    step_time = snapshot_time = 0.0
    for i in fits:
        steps = [c for c in t.children[i]
                 if t.name(c) == "model.loss_and_grads"]
        step_time += sum(t.duration(c) for c in steps)
        snapshot_time += t.child_time[i] - sum(t.duration(c) for c in steps)
    m["model.finetune_kl_s"] = fit_time
    m["model.finetune_kl_self_s"] = sum(t.self_time(i) for i in fits)
    grads = t.ids("model.loss_and_grads")
    m["model.sgd_steps"] = sum(1 for i in grads
                               if t.name(t.spans[i][0]) != "model.kl_loss")
    m["model.loss_and_grads_s"] = t.total("model.loss_and_grads")
    m["model.loss_and_grads_calls"] = len(grads)
    m["model.kl_loss_s"] = t.total("model.kl_loss")
    m["model.kl_loss_calls"] = t.count("model.kl_loss")
    m["model.predict_labels_s"] = t.total("model.predict_labels")
    m["model.forward_probs_s"] = t.total("model.forward_probs")
    m["model.snapshots"] = first.get("snapshots", 0)
    m["model.snapshot_share"] = snapshot_time / fit_time if fit_time else 0.0
    m["model.sgd_step_share"] = step_time / fit_time if fit_time else 0.0
    m["model.checkpoints_held"] = first.get(
        "checkpoints_held", first.get("checkpoint_files", 0))
    m["model.save_model_s"] = t.total("model.save_model")
    m["model.load_model_s"] = t.total("model.load_model")

    m["probmatrix.pseudo_generate_s"] = t.total("probmatrix.pseudo_generate")
    m["probmatrix.replace_rows_s"] = t.total("probmatrix.replace_rows")
    m["probmatrix.kl_rows_s"] = t.total("probmatrix.kl_rows")
    m["probmatrix.dump_s"] = t.total("probmatrix.dump_probmatrix")

    refine_s = t.total("refine.refine")
    iterations = first.get("iterations", 0)
    m["refine.refine_s"] = refine_s
    m["refine.iterations"] = iterations
    m["refine.step_halvings"] = first.get("step_halvings", 0)
    m["refine.converged"] = int(first.get("converged", False))
    m["refine.primal_update_s"] = t.total("refine.primal_update")
    m["refine.dual_step_s"] = t.total("refine.dual_step")
    m["refine.iter_us"] = 1e6 * refine_s / iterations if iterations else 0.0

    extract = select = self_s = 0.0
    for r in t.ids(*PPU_ROOTS):
        kids = t.children[r]
        fit_start = min((t.spans[c][2] for c in kids
                         if t.name(c) in REFINE_OR_FIT), default=None)
        fit_end = max((t.spans[c][3] for c in kids
                       if t.name(c) == "model.finetune_kl"), default=None)
        for c in kids:
            _, _, start, end = t.spans[c]
            if fit_start is not None and end <= fit_start:
                extract += end - start
            elif fit_end is not None and start >= fit_end:
                select += end - start
        self_s += t.self_time(r)
    m["pipeline.extract_s"] = extract
    m["pipeline.select_s"] = select
    m["pipeline.self_s"] = self_s

    m["baselines.retrain_s"] = t.total("baselines.retrain")
    m["evaluate.mia_attack_s"] = t.total("evaluate.mia_attack")
    m["evaluate.evaluate_model_s"] = t.total("evaluate.evaluate_model")

    io = t.outermost(WRITES + READS)
    m["harness.files_written"] = first.get("files", 0)
    m["harness.bytes_written"] = first.get("bytes", 0)
    m["harness.write_s"] = sum(t.duration(i) for i in io
                               if t.name(i) in WRITES)
    m["harness.read_s"] = sum(t.duration(i) for i in io if t.name(i) in READS)
    m["harness.self_s"] = sum(t.self_time(i)
                              for i in t.ids("harness.run_experiment"))

    # coverage of the request that unlearn_s times, by its child spans
    request = [c for r in t.ids("bench.unlearn") for c in t.children[r]]
    m["trace.request_coverage_pct"] = 100.0 * min(
        (t.coverage(c) for c in request), default=0.0)
    m["trace.unlearn_coverage_pct"] = 100.0 * min(
        (t.coverage(r) for r in t.ids(*PPU_ROOTS)), default=0.0)
    return m


def setup_metrics(t):
    return {"data.gen_blobs_s": t.total("data.gen_blobs"),
            "data.make_forget_split_s": t.total("data.make_forget_split"),
            "model.train_ce_s": t.total("model.train_ce")}


def quality(infos):
    """Seed-dependent outcome figures of the first checked request."""
    q = {}
    if not infos.get("unlearn"):
        return q
    unlearn = infos["unlearn"][0]
    q["retain_error_pct"] = unlearn["errors"]["retain"]
    q["test_error_pct"] = unlearn["errors"]["test"]
    if "forget_gain" in unlearn:
        q["forget_gain_pct"] = unlearn["forget_gain"]
    if "selection_gap" in unlearn:
        q["selection_gap_pct"] = unlearn["selection_gap"]
    if "mass_residual" in unlearn:
        q["mass_residual"] = unlearn["mass_residual"]
        q["refine_converged"] = unlearn["converged"]
        q["refine_iterations"] = unlearn["iterations"]
    mia = unlearn.get("mia_accuracy")
    if mia is None and infos.get("mia"):
        mia = infos["mia"][0]["mia_accuracy"]
    if mia is not None:
        q["mia_accuracy_pct"] = mia
        q["mia_gap_pct"] = abs(mia - 50.0)
    return q


def repeatable(infos):
    """Whether every request produced the same outputs as the first."""
    out = {}
    for op, rows in infos.items():
        stripped = [json.dumps(r, sort_keys=True) for r in rows]
        out[op] = len(set(stripped)) <= 1
    return out


def result_metrics(declared, values):
    """The declared metrics, by name and unit; every one must be measured."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing or len(values) != len(declared):
        raise RuntimeError(f"measured {sorted(values)}, but BENCHMARK.json "
                           f"declares {[m['name'] for m in declared]}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def print_table(workload, rows):
    print(f"perfbench {workload}")
    for name, value, unit, note in rows:
        print(f"  {name:32s} {value!s:>22} {unit:6s} {note}")


def run(args, wl_cls, spec):
    from spans import SpanTable, Tracer
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=WORK))
    try:
        setup_times = [] if args.trace else time_setups(args)
        workload = wl_cls(args.seed, work_dir)
        tracer = Tracer() if args.trace else None
        setup_layers = {}
        if tracer is not None:
            tracer.install()
            try:
                with tracer.scope("bench.setup"):
                    workload.setup()
            finally:
                tracer.uninstall()
            setup_layers = setup_metrics(SpanTable(tracer.spans))
            tracer.clear()
        else:
            workload.setup()
        res = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    samples, infos = res["samples"], res["infos"]
    failed = len(res["failures"])
    attempted = res["attempted"]
    ops_failed_pct = 100.0 * failed / attempted if attempted else 100.0
    if not all(samples.get(op) for op in ("unlearn", "retrain",
                                          "reference")):
        print("\n".join(res["failures"]), file=sys.stderr)
        sys.exit("perfbench: no request completed; nothing to report")

    unlearn_s = median(samples["unlearn"])
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cycles": res["cycles"], "environment": environment(),
        "samples": dict(samples),
        "setup_samples": setup_times,
        "quality": quality(infos),
        "ops_failed_pct": ops_failed_pct,
        "digest_unlearned": (infos["unlearn"][0]["digest"]
                             if infos.get("unlearn") else None),
        "repeatable": repeatable(infos),
        "failures": res["failures"],
    }
    rows = []
    if args.trace:
        metrics = {}
        layer = res["layer_rows"]
        for name in layer[0] if layer else []:
            metrics[name] = median([r[name] for r in layer])
        metrics.update(setup_layers)
        # the first cycle pays one-off allocation costs, so compare the
        # traced requests with the later untraced ones when there are any
        warm = samples["unlearn"][1:] or samples["unlearn"]
        traced, untraced = median(res["traced_unlearn"]), median(warm)
        metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        if metrics.get("trace.request_coverage_pct", 0.0) < 100 * COVERAGE_FLOOR:
            print(f"perfbench: child spans cover only "
                  f"{metrics.get('trace.request_coverage_pct')}% of the "
                  "request", file=sys.stderr)
        tree = res["last_table"].aggregate_tree() if layer else {}
        out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"report": report, "metrics": metrics,
                                   "call_tree": tree}, indent=1))
        report["trace_file"] = str(out.relative_to(ROOT))
        result = result_metrics(spec["per_layer"], metrics)
        rows = [(k, f"{v['value']:.6g}", v["unit"],
                 "traced set-up" if k in setup_layers
                 else f"median of {len(layer)} traced cycles")
                for k, v in result.items()]
    else:
        e2e = {name: median(xs) for name, xs in res["ratios"].items()}
        e2e["setup_s"] = median(setup_times)
        e2e["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = result_metrics(spec["end_to_end"], e2e)
        counts = {k: len(xs) for k, xs in res["ratios"].items()}
        counts["setup_s"] = len(setup_times)
        rows = [(k, f"{v['value']:.6g}", v["unit"],
                 f"median of {counts[k]}" if k in counts else "")
                for k, v in result.items()]
        # seconds as measured; on a shared host they drift with its load
        seconds = {"unlearn_s": "unlearn", "retrain_s": "retrain",
                   "reference_s": "reference", "mia_s": "mia",
                   "resume_s": "resume"}
        if args.workload.startswith("rundir"):
            seconds["experiment_s"] = "unlearn"
        for name, op in seconds.items():
            if samples.get(op):
                rows.append((name, f"{median(samples[op]):.6g}", "s",
                             f"median of {len(samples[op])}, not bounded"))
    rows.append(("ops_failed_pct", f"{ops_failed_pct:.6g}", "%",
                 f"{failed} of {attempted} operations"))
    units = {"mass_residual": "1", "refine_converged": "bool",
             "refine_iterations": "count"}
    for k, v in report["quality"].items():
        rows.append((k, f"{v:.6g}" if isinstance(v, float) else v,
                     units.get(k, "%"), "quality, repeats at a fixed seed"))
    print_table(args.workload, rows)
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = import_program()
    wl_cls = workloads.WORKLOADS.get(args.workload)
    if wl_cls is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    if args.setup_child:
        wl_cls(args.seed, WORK).setup()
        print("ready", flush=True)
        return
    run(args, wl_cls, spec)


if __name__ == "__main__":
    main()
