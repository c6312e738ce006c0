"""Experiment orchestration: config validation and hashing, staged runs with
resumable run directories, lambda sweeps, timing benches, and plot-data
emission.

A run directory contains: config.json, the dataset (npz + manifest), the
original model checkpoint, method artifacts (unlearned checkpoint,
trajectory, refined-matrix dump), summary.json, and stages.json marking
which stages completed.  Re-running with the same config resumes from the
last completed stage and reproduces the same summary.
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import KINDS, BaselineSpec, run_baseline
from .data import (Dataset, ForgetSpec, gen_blobs, load_csv, load_dataset,
                   make_forget_split, save_dataset)
from .errors import DataError, UsageError
from .evaluate import MiaConfig, evaluate_model, mia_attack, time_stage
from .model import (ModelLayout, ModelParams, TrainConfig, init_model,
                    load_model, save_model, train_ce)
from .pipeline import (CRITERIA, ERROR_METRICS, METHOD_NAMES, UnlearnTask,
                       adaptive_post, ppu_bias, ppu_privacy)
from .probmatrix import PseudoScheme
from .refine import RefineConfig, save_refine_result

SCHEMA_VERSION = 1
METHODS = tuple(METHOD_NAMES.values()) + tuple(f"baseline:{kind}"
                                                for kind in KINDS)
STAGES = ("data", "original", "method", "eval")


@dataclass
class ExperimentConfig:
    """Everything one run needs; JSON-serializable and hashable."""

    dataset: dict                   # {"kind": "blobs", ...} | {"kind": "csv", "path": ...}
    forget: dict                    # ForgetSpec fields
    method: str
    out_dir: str
    scheme: dict = field(default_factory=lambda: {"kind": "uniform"})
    lam: float = 1.0
    model: dict = field(default_factory=lambda: {
        "hidden": 32, "epochs": 40, "lr": 0.05, "batch_size": 32,
        "momentum": 0.9})
    finetune: dict = field(default_factory=lambda: {
        "epochs": 20, "lr": 0.05, "batch_size": 32, "momentum": 0.9})
    refine: dict = field(default_factory=dict)   # RefineConfig overrides
    selection: str = "forget-error-proxy"
    adaptive_style: str = "bias"
    evals: dict = field(default_factory=lambda: {
        "errors": True, "mia": False, "timing": False})
    mia: dict = field(default_factory=lambda: {"repetitions": 5})
    timing_repetitions: int = 5
    sweep: dict | None = None       # {"lam": [...]} | {"seed": [...]}
    seeds: dict = field(default_factory=lambda: {
        "data": 0, "model": 1, "protocol": 2})
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> list:
        """All offending fields, not just the first."""
        # the checks below read inside these sections, so report them alone
        problems = [f"{f.name}: must be a JSON object" for f in fields(self)
                    if f.type == "dict"
                    and not isinstance(getattr(self, f.name), dict)]
        if problems:
            return problems
        if self.schema_version != SCHEMA_VERSION:
            problems.append(f"schema_version: expected {SCHEMA_VERSION}")
        if self.method not in METHODS:
            problems.append(f"method: {self.method!r} not one of {METHODS}")
        if self.dataset.get("kind") not in ("blobs", "csv"):
            problems.append("dataset.kind: must be 'blobs' or 'csv'")
        if self.dataset.get("kind") == "csv" and not self.dataset.get("path"):
            problems.append("dataset.path: required for csv datasets")
        if self.forget.get("mode") not in ForgetSpec.MODES:
            problems.append(f"forget.mode: must be {_one_of(ForgetSpec.MODES)}")
        if self.scheme.get("kind") not in PseudoScheme.KINDS:
            problems.append(f"scheme.kind: must be {_one_of(PseudoScheme.KINDS)}")
        if not (isinstance(self.lam, (int, float)) and self.lam > 0):
            problems.append("lam: must be a positive number")
        if self.selection not in CRITERIA:
            problems.append(f"selection: unknown criterion {self.selection!r}")
        if self.adaptive_style not in UnlearnTask.ADAPTIVE_STYLES:
            problems.append("adaptive_style: must be "
                            f"{_one_of(UnlearnTask.ADAPTIVE_STYLES)}")
        try:
            _refine_config(self, 1)
        except UsageError as exc:
            problems.append(str(exc))
        if self.sweep is not None:
            problems.append("sweep: a run does not read it; run the sweep "
                            "with `ppunlearn sweep --lam` or `--seeds`")
        for name in ("data", "model", "protocol"):
            if name not in self.seeds:
                problems.append(f"seeds.{name}: required")
        if not self.out_dir:
            problems.append("out_dir: required")
        return problems

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise UsageError(
                f"a config is a JSON object, not {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.name not in d
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise UsageError(f"missing config fields: {missing}")
        return cls(**d)

    def check(self) -> None:
        """Raise UsageError listing every problem ``validate`` finds."""
        problems = self.validate()
        if problems:
            raise UsageError("invalid config: " + "; ".join(problems))

    def config_hash(self) -> str:
        """Stable under field reordering: canonical JSON, sorted keys.
        The output directory does not change what is computed."""
        payload = self.to_dict()
        payload.pop("out_dir")
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunSummary:
    config_hash: str
    method: str
    eval_report: dict | None
    mia_report: dict | None
    timings: list
    refine_diagnostics: dict | None
    selected_epoch: int | None
    flags: dict
    provenance: str

    def to_dict(self) -> dict:
        return asdict(self)


def _one_of(names) -> str:
    return " or ".join(repr(name) for name in names)


def _provenance() -> str:
    return f"ppunlearn/{__version__} python/{platform.python_version()} " \
           f"numpy/{np.__version__}"


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    """Parse a run-directory JSON file; content that does not decode (a
    file truncated by a crash, say) raises DataError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"{path}: not valid JSON: {exc}") from exc


def _stages_path(run_dir: Path) -> Path:
    return run_dir / "stages.json"


def _completed_stages(run_dir: Path) -> list:
    path = _stages_path(run_dir)
    if not path.exists():
        return []
    return _read_json(path).get("completed", [])


def _mark_stage(run_dir: Path, stage: str) -> None:
    done = _completed_stages(run_dir)
    if stage not in done:
        done.append(stage)
    _write_json(_stages_path(run_dir), {"completed": done})


def _build_dataset(cfg: ExperimentConfig) -> Dataset:
    spec = cfg.dataset
    if spec["kind"] == "blobs":
        return gen_blobs(
            n_classes=spec.get("n_classes", 5),
            dim=spec.get("dim", 8),
            n_per_class=spec.get("n_per_class", 125),
            spread=spec.get("spread", 0.6),
            seed=cfg.seeds["data"],
        )
    return load_csv(spec["path"])


def _forget_spec(cfg: ExperimentConfig) -> ForgetSpec:
    f = cfg.forget
    return ForgetSpec(
        mode=f["mode"],
        target_class=f.get("target_class", 0),
        count=f.get("count"),
        seed=f.get("seed", cfg.seeds["protocol"]),
    )


def _master_seeds(seed: int) -> dict:
    """The data, model and protocol seeds one master seed stands for."""
    return {"data": seed, "model": seed + 1, "protocol": seed + 2}


def _train_config(section: dict, seed: int, loss: str) -> TrainConfig:
    return TrainConfig(
        lr=section.get("lr", 0.05),
        epochs=section.get("epochs", 20),
        batch_size=section.get("batch_size", 32),
        momentum=section.get("momentum", 0.9),
        seed=seed,
        loss=loss,
    )


def _train_original(cfg: ExperimentConfig, ds: Dataset) -> ModelParams:
    """The original model that ``cfg.model`` describes, trained on the
    train split; its ``layout`` is the one every method of the run uses."""
    layout = ModelLayout(ds.dim, cfg.model.get("hidden", 32), ds.n_classes)
    return train_ce(
        init_model(layout, seed=cfg.seeds["model"]),
        *ds.split_arrays("train"),
        _train_config(cfg.model, cfg.seeds["model"], "cross-entropy"),
    )


def _baseline_spec(cfg: ExperimentConfig, kind: str) -> BaselineSpec:
    """Retrain gets the original's training budget (``cfg.model``); the
    other baselines get the fine-tune budget."""
    section = cfg.model if kind == "retrain" else cfg.finetune
    return BaselineSpec(kind=kind, train=_train_config(
        section, cfg.seeds["model"], "cross-entropy"))


def _scheme(cfg: ExperimentConfig) -> PseudoScheme:
    kind = cfg.scheme.get("kind", "uniform")
    if kind == "uniform":
        return PseudoScheme("uniform")
    return PseudoScheme(kind, seed=cfg.scheme.get("seed",
                                                  cfg.seeds["protocol"]))


def _refine_config(cfg: ExperimentConfig, n_train: int) -> RefineConfig:
    """``cfg.refine`` as a RefineConfig.  ``eta`` is a positive number, or
    "<positive number>/n" for that number over the train-row count."""
    r = cfg.refine
    eta = r.get("eta")
    if isinstance(eta, str) and eta.endswith("/n"):
        try:
            eta = float(eta[:-2]) / n_train
        except ValueError:
            pass
    if eta is not None and not (isinstance(eta, (int, float)) and eta > 0):
        raise UsageError("refine.eta: must be a positive number or "
                         f"'<positive number>/n', not {r['eta']!r}")
    tol, max_iters = r.get("tol", 1e-6), r.get("max_iters", 10_000)
    if isinstance(tol, bool) or not (isinstance(tol, (int, float))
                                     and tol > 0):
        raise UsageError(f"refine.tol: must be a positive number, not {tol!r}")
    # RefineConfig rejects an integer below 1
    if isinstance(max_iters, bool) or not isinstance(max_iters, int):
        raise UsageError(
            f"refine.max_iters: must be an integer, not {max_iters!r}")
    return RefineConfig(tol=tol, max_iters=max_iters, eta=eta)


def run_experiment(cfg: ExperimentConfig, resume: bool = True) -> RunSummary:
    """Execute (or resume) one experiment and persist it under cfg.out_dir."""
    cfg.check()
    run_dir = Path(cfg.out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash()

    cfg_path = run_dir / "config.json"
    if cfg_path.exists():
        existing = ExperimentConfig.from_dict(_read_json(cfg_path))
        if existing.config_hash() != chash:
            raise UsageError(
                f"run directory {run_dir} belongs to config "
                f"{existing.config_hash()}, not {chash}"
            )
    else:
        _write_json(cfg_path, cfg.to_dict())
    done = _completed_stages(run_dir) if resume else []

    # data
    ds_path = run_dir / "dataset"
    if "data" in done:
        ds = load_dataset(ds_path)
    else:
        ds = _build_dataset(cfg)
        save_dataset(ds, ds_path)
        _mark_stage(run_dir, "data")
    split = make_forget_split(ds, _forget_spec(cfg))

    # original model
    orig_path = run_dir / "original.ckpt"
    if "original" in done and orig_path.exists():
        original, _ = load_model(orig_path)
    else:
        original = _train_original(cfg, ds)
        save_model(original, orig_path, epoch=cfg.model.get("epochs"))
        _mark_stage(run_dir, "original")

    # method
    unlearned_path = run_dir / "unlearned.ckpt"
    method_path = run_dir / "method.json"
    if "method" in done and unlearned_path.exists():
        params, _ = load_model(unlearned_path)
        method_record = _read_json(method_path)
    else:
        report = _run_method(cfg, ds, split, original)
        params = report.params
        method_record = {
            "method": report.method,
            "selected_epoch": report.selected_epoch,
            "trajectory": report.trajectory,
            "refine_summary": report.refine_summary,
            "flags": report.flags,
            "timings": report.timings,
        }
        save_model(params, unlearned_path, epoch=report.selected_epoch)
        if report.refine_result is not None:
            save_refine_result(report.refine_result, run_dir / "refined")
        if report.checkpoints is not None:
            ckpt_dir = run_dir / "checkpoints"
            ckpt_dir.mkdir(exist_ok=True)
            for entry in report.checkpoints.entries:
                save_model(entry.params,
                           ckpt_dir / f"epoch_{entry.epoch:03d}.ckpt",
                           epoch=entry.epoch,
                           error_rates={k: entry.metrics[k]
                                        for k in ERROR_METRICS})
        _write_json(method_path, method_record)
        _mark_stage(run_dir, "method")

    # evaluation
    summary = _evaluate_run(cfg, ds, split, original, params, method_record,
                            chash)
    _write_json(run_dir / "summary.json", summary.to_dict())
    _mark_stage(run_dir, "eval")
    return summary


def _run_method(cfg, ds, split, original):
    if cfg.method.startswith("baseline:"):
        spec = _baseline_spec(cfg, cfg.method.split(":", 1)[1])
        return run_baseline(spec, ds, split, original=original)

    n_train = len(ds.splits["train"])
    task = UnlearnTask(
        dataset=ds,
        split=split,
        mode={name: mode for mode, name in METHOD_NAMES.items()}[cfg.method],
        scheme=_scheme(cfg),
        finetune=_train_config(cfg.finetune, cfg.seeds["protocol"], "kl"),
        lam=cfg.lam,
        refine_cfg=_refine_config(cfg, n_train),
        selection=cfg.selection,
        adaptive_style=cfg.adaptive_style,
    )
    # called by module-level name, so that wrappers installed on these
    # names (tracing) see every call
    if task.mode == "bias":
        return ppu_bias(original, task)
    if task.mode == "privacy":
        return ppu_privacy(original, task)
    # Adaptive runs after the finetune baseline by default.
    predecessor = run_baseline(_baseline_spec(cfg, "finetune"), ds, split,
                               original=original)
    return adaptive_post(predecessor.params, task)


def _mia_report(cfg: ExperimentConfig, ds, split, params):
    """The membership-inference attack on ``params`` that ``cfg.mia``
    configures: forget rows against the test split."""
    return mia_attack(
        params,
        ds.arrays_at(split.forget_idx),
        ds.split_arrays("test"),
        MiaConfig(repetitions=cfg.mia.get("repetitions", 5),
                  seed=cfg.seeds["protocol"]),
    )


def _evaluate_run(cfg, ds, split, original, params, method_record,
                  chash) -> RunSummary:
    eval_report = None
    mia_report = None
    timings = []
    if cfg.evals.get("errors", True):
        eval_report = asdict(evaluate_model(params, ds, split))
    if cfg.evals.get("mia", False):
        mia_report = asdict(_mia_report(cfg, ds, split, params))
    if cfg.evals.get("timing", False):
        timings = [asdict(t) for t in bench_methods(cfg, ds, split,
                                                    original)]
    return RunSummary(
        config_hash=chash,
        method=cfg.method,
        eval_report=eval_report,
        mia_report=mia_report,
        timings=timings,
        refine_diagnostics=method_record.get("refine_summary"),
        selected_epoch=method_record.get("selected_epoch"),
        flags=method_record.get("flags", {}),
        provenance=_provenance(),
    )


def bench_methods(cfg: ExperimentConfig, ds, split, original):
    """Warm-up once, then time the configured method against the Retrain
    and Finetune baselines, each run as ``run_experiment`` runs it.

    Retrain gets the original training budget (cfg.model); the unlearning
    method and the finetune baseline run with the fine-tune budget.
    """
    records = []
    for method in (cfg.method, "baseline:retrain", "baseline:finetune"):
        thunk = functools.partial(_run_method, replace(cfg, method=method),
                                  ds, split, original)
        thunk()  # warm-up excluded from the timings
        records.append(time_stage(method, thunk,
                                  repetitions=cfg.timing_repetitions))
    return records


# sweep axis -> (value type, CSV file, value format in the CSV and in the
# child directory names)
SWEEP_AXES = {"lam": (float, "sweep_lambda.csv", ".10g", "g"),
              "seed": (int, "sweep_seeds.csv", "d", "d")}


def sweep_axis(cfg: ExperimentConfig, axis: str, values) -> list:
    """Run the method once per value of ``axis`` with everything else
    shared: per lambda ("lam"), or per master seed ("seed", from which the
    data, model and protocol seeds derive).  Each child run gets its own
    directory under cfg.out_dir.  Returns [(value, retain_error,
    forget_error), ...] and persists it as CSV."""
    kind, csv_name, csv_format, dir_format = SWEEP_AXES[axis]
    if axis == "lam" and cfg.method not in ("ppu-bias", "ppu-privacy"):
        raise UsageError("lambda sweeps need a ppu-bias or ppu-privacy method")
    if not values:
        raise UsageError(f"a {axis} sweep needs at least one value")
    try:
        values = [kind(value) for value in values]
    except ValueError as exc:
        raise UsageError(f"{axis} sweep: {exc}") from exc
    rows = []
    parent = Path(cfg.out_dir)
    parent.mkdir(parents=True, exist_ok=True)
    for value in values:
        child = replace(cfg, sweep=None,
                        out_dir=str(parent / f"{axis}_{value:{dir_format}}"))
        if axis == "lam":
            child.lam = value
        else:
            child.seeds = _master_seeds(value)
        summary = run_experiment(child)
        rows.append((value,
                     summary.eval_report["retain_error"],
                     summary.eval_report["forget_error"]))
    with open(parent / csv_name, "w", encoding="utf-8") as fh:
        fh.write(f"{axis},retain_error,forget_error\n")
        for value, r, f in rows:
            fh.write(f"{value:{csv_format}},{r:.10g},{f:.10g}\n")
    return rows


def sweep_lambda(cfg: ExperimentConfig, lambdas) -> list:
    """``sweep_axis`` over lambda; writes sweep_lambda.csv."""
    return sweep_axis(cfg, "lam", lambdas)


def sweep_seeds(cfg: ExperimentConfig, seeds) -> list:
    """``sweep_axis`` over master seeds; writes sweep_seeds.csv."""
    return sweep_axis(cfg, "seed", seeds)


def emit_plot_data(run_dir) -> list:
    """Write CSV series for the per-epoch error curves and timing records.

    Byte-identical on re-emission for an unchanged run directory.  Raises
    UsageError naming the missing stage when the run is incomplete.
    """
    run_dir = Path(run_dir)
    done = _completed_stages(run_dir)
    for stage in ("method", "eval"):
        if stage not in done:
            raise UsageError(
                f"run at {run_dir} is incomplete: stage {stage!r} missing"
            )
    method_record = _read_json(run_dir / "method.json")
    summary = _read_json(run_dir / "summary.json")
    written = []

    trajectory = method_record.get("trajectory", [])
    for metric in ("forget", "retain"):
        path = run_dir / f"plot_{metric}_error.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"epoch,{metric}_error\n")
            for entry in trajectory:
                fh.write(f"{entry['epoch']},{entry[metric]:.10g}\n")
        written.append(path)

    timings = summary.get("timings") or []
    if timings:
        path = run_dir / "plot_timing.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("method,mean_seconds,std_error\n")
            for rec in timings:
                fh.write(f"{rec['label']},{rec['mean']:.10g},"
                         f"{rec['std_error']:.10g}\n")
        written.append(path)
    return written


def load_summary(run_dir) -> RunSummary:
    """Rebuild a RunSummary from a persisted run directory."""
    run_dir = Path(run_dir)
    if "eval" not in _completed_stages(run_dir):
        raise UsageError(f"run at {run_dir} has no completed eval stage")
    d = _read_json(run_dir / "summary.json")
    return RunSummary(**d)
