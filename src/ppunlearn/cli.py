"""Command-line entry point.

Subcommands: generate-data, train, unlearn, eval, mia, bench, sweep, report.
`PPUNLEARN_OUT_ROOT` prefixes relative output directories;
`PPUNLEARN_THREADS` caps BLAS threads (read by the package, before NumPy
loads).

Exit codes: 0 success, 2 validation error, 3 runtime error,
4 refinement used up its iteration budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import UnlearnError, UsageError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_NONCONVERGENCE = 4


def _out_path(path: str) -> str:
    root = os.environ.get("PPUNLEARN_OUT_ROOT")
    if root and isinstance(path, str) and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _load_config(path: str):
    from .fileio import read_json
    from .harness import ExperimentConfig
    cfg = ExperimentConfig.from_dict(read_json(path))
    cfg.out_dir = _out_path(cfg.out_dir)
    return cfg


def _cmd_generate_data(args) -> int:
    from .data import gen_blobs, save_dataset
    ds = gen_blobs(args.classes, args.dim, args.per_class, args.spread,
                   args.seed)
    save_dataset(ds, _out_path(args.out))
    print(f"dataset: N={ds.n} D={ds.dim} K={ds.n_classes} -> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .data import load_dataset
    from .model import ModelLayout, TrainConfig, init_model, save_model, train_ce
    ds = load_dataset(_out_path(args.dataset))
    layout = ModelLayout(ds.dim, args.hidden, ds.n_classes)
    cfg = TrainConfig(lr=args.lr, epochs=args.epochs,
                      batch_size=args.batch_size, momentum=args.momentum,
                      seed=args.seed)
    params = train_ce(init_model(layout, seed=args.seed),
                      *ds.split_arrays("train"), cfg)
    save_model(params, _out_path(args.out), epoch=args.epochs)
    print(f"model -> {args.out}")
    return EXIT_OK


def _cmd_unlearn(args) -> int:
    from .harness import _master_seeds, run_experiment
    cfg = _load_config(args.config)
    if args.method:
        cfg.method = args.method
    if args.lam is not None:
        cfg.lam = args.lam
    if args.scheme:
        cfg.scheme = {"kind": args.scheme}
    if args.epochs is not None:
        cfg.finetune = dict(cfg.finetune, epochs=args.epochs)
    if args.selection:
        cfg.selection = args.selection
    if args.seed is not None:
        cfg.seeds = _master_seeds(args.seed)
    if args.out_dir:
        cfg.out_dir = _out_path(args.out_dir)
    summary = run_experiment(cfg)
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    diag = summary.refine_diagnostics
    if diag is not None and not diag.get("converged", True):
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .harness import load_summary
    summary = load_summary(_out_path(args.run_dir))
    print(json.dumps(summary.eval_report, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_mia(args) -> int:
    from dataclasses import asdict
    from .harness import attack_run
    report = attack_run(_out_path(args.run_dir), args.repetitions)
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .harness import bench_methods
    plan = _load_config(args.config).check()
    ds, split = plan.data()
    records = bench_methods(plan, ds, split, plan.train_original(ds))
    for rec in records:
        print(f"{rec.label}: {rec.mean:.4f}s +- {rec.std_error:.4f}s "
              f"over {len(rec.samples)} runs")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .harness import sweep_axis
    cfg = _load_config(args.config)
    if args.lam:
        axis, values = "lam", args.lam
    elif args.seeds:
        axis, values = "seed", args.seeds
    else:
        raise UsageError("sweep needs --lam or --seeds")
    rows = sweep_axis(cfg, axis, values.split(","))
    print(f"{axis},retain_error,forget_error")
    for value, r, f in rows:
        print(f"{value:g},{r:.2f},{f:.2f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    from .harness import emit_plot_data, load_summary
    run_dir = _out_path(args.run_dir)
    summary = load_summary(run_dir)
    paths = emit_plot_data(run_dir)
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .harness import METHODS, defaults
    from .pipeline import CRITERIA
    from .probmatrix import PseudoScheme
    blobs, model = defaults("dataset"), defaults("model")
    p = argparse.ArgumentParser(prog="ppunlearn",
                                description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="synthesize a blob dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, default=blobs["n_classes"])
    g.add_argument("--dim", type=int, default=blobs["dim"])
    g.add_argument("--per-class", type=int, default=blobs["n_per_class"])
    g.add_argument("--spread", type=float, default=blobs["spread"])
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=_cmd_generate_data)

    t = sub.add_parser("train", help="train the original classifier")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--hidden", type=int, default=model["hidden"])
    t.add_argument("--epochs", type=int, default=40)
    t.add_argument("--lr", type=float, default=model["lr"])
    t.add_argument("--batch-size", type=int, default=model["batch_size"])
    t.add_argument("--momentum", type=float, default=model["momentum"])
    t.add_argument("--seed", type=int, default=1)
    t.set_defaults(fn=_cmd_train)

    u = sub.add_parser("unlearn", help="run an experiment from a JSON config")
    u.add_argument("--config", required=True)
    u.add_argument("--method", choices=METHODS)
    u.add_argument("--lam", type=float)
    u.add_argument("--scheme", choices=PseudoScheme.KINDS)
    u.add_argument("--epochs", type=int, help="fine-tune epoch override")
    u.add_argument("--selection", choices=CRITERIA)
    u.add_argument("--seed", type=int, help="master seed override")
    u.add_argument("--out-dir")
    u.set_defaults(fn=_cmd_unlearn)

    e = sub.add_parser("eval", help="print the eval report of a run")
    e.add_argument("--run-dir", required=True)
    e.set_defaults(fn=_cmd_eval)

    m = sub.add_parser("mia", help="membership inference against a run")
    m.add_argument("--run-dir", required=True)
    m.add_argument("--repetitions", type=int, default=5)
    m.set_defaults(fn=_cmd_mia)

    b = sub.add_parser("bench", help="time the method against retraining")
    b.add_argument("--config", required=True)
    b.set_defaults(fn=_cmd_bench)

    s = sub.add_parser("sweep", help="lambda or seed sweep")
    s.add_argument("--config", required=True)
    s.add_argument("--lam", help="comma-separated lambda values")
    s.add_argument("--seeds", help="comma-separated master seeds")
    s.set_defaults(fn=_cmd_sweep)

    r = sub.add_parser("report", help="emit plot CSVs and print the summary")
    r.add_argument("--run-dir", required=True)
    r.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (UnlearnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
