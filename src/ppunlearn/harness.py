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
from .data import (Dataset, ForgetSpec, SplitResult, gen_blobs, load_csv,
                   load_dataset, make_forget_split, save_dataset)
from .errors import SpecError, UsageError
from .evaluate import MiaConfig, evaluate_model, mia_attack, time_stage
# bound under these names, which tracing wraps to time artifact I/O
from .fileio import read_json as _read_json, write_json as _write_json
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


# (section, key, least value) of the integers a run reads outside the
# training and refine sections; an absent or null key takes its default.
# The blob sizes' least values are the ones gen_blobs accepts.
_INT_FIELDS = (
    ("dataset", "n_classes", 2), ("dataset", "dim", 1),
    ("dataset", "n_per_class", 10),
    ("forget", "target_class", 0), ("forget", "count", 1),
    ("forget", "seed", 0), ("scheme", "seed", 0),
    ("seeds", "data", 0), ("seeds", "model", 0), ("seeds", "protocol", 0),
    ("mia", "repetitions", 1),
)


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
        if not (_is_number(self.lam) and self.lam > 0):
            problems.append("lam: must be a positive number")
        if self.selection not in CRITERIA:
            problems.append(f"selection: unknown criterion {self.selection!r}")
        if self.adaptive_style not in UnlearnTask.ADAPTIVE_STYLES:
            problems.append("adaptive_style: must be "
                            f"{_one_of(UnlearnTask.ADAPTIVE_STYLES)}")
        for check in (lambda: _train_config(self, "model", 0, "kl"),
                      lambda: _train_config(self, "finetune", 0, "kl"),
                      lambda: _refine_config(self, 1)):
            try:
                check()
            except UsageError as exc:
                problems.append(str(exc))
        if self.sweep is not None:
            problems.append("sweep: a run does not read it; run the sweep "
                            "with `ppunlearn sweep --lam` or `--seeds`")
        for name in ("data", "model", "protocol"):
            if name not in self.seeds:
                problems.append(f"seeds.{name}: required")
        if self.forget.get("mode") == "selective" and (
                self.forget.get("count") is None):
            problems.append("forget.count: must be given in selective mode")
        for section, key, least in _INT_FIELDS:
            value = getattr(self, section).get(key)
            if value is not None and not (_is_int(value) and value >= least):
                problems.append(f"{section}.{key}: must be an integer >= "
                                f"{least}, not {value!r}")
        spread = self.dataset.get("spread")
        if spread is not None and not (_is_number(spread) and spread > 0):
            problems.append("dataset.spread: must be a positive number, "
                            f"not {spread!r}")
        if not (_is_int(self.timing_repetitions)
                and self.timing_repetitions >= 1):
            problems.append("timing_repetitions: must be an integer >= 1, "
                            f"not {self.timing_repetitions!r}")
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


def _completed_stages(run_dir: Path, *required) -> list:
    """The stages ``stages.json`` lists as completed; a stage of
    ``required`` that it does not list raises UsageError naming it."""
    path = run_dir / "stages.json"
    done = _read_json(path).get("completed", []) if path.exists() else []
    for stage in required:
        if stage not in done:
            raise UsageError(
                f"run at {run_dir} is incomplete: stage {stage!r} missing")
    return done


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


def _forget_split(cfg: ExperimentConfig, ds: Dataset) -> SplitResult:
    """The forget split ``cfg.forget`` names in ``ds``; a spec the dataset
    cannot meet (a class it lacks, more rows than the class has) is a
    config error."""
    try:
        return make_forget_split(ds, _forget_spec(cfg))
    except SpecError as exc:
        raise UsageError(f"invalid config: forget: {exc}") from None


def _master_seeds(seed: int) -> dict:
    """The data, model and protocol seeds one master seed stands for."""
    return {"data": seed, "model": seed + 1, "protocol": seed + 2}


def _is_int(x) -> bool:
    """A JSON integer: ``bool`` is an ``int`` in Python, but not here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _train_config(cfg: ExperimentConfig, name: str, seed: int,
                  loss: str) -> TrainConfig:
    """``cfg.<name>``, the "model" or "finetune" section, as a TrainConfig.
    Its counts (and the model's ``hidden`` width, at least 1) must be
    integers, and its rates numbers; TrainConfig's range errors are
    reported under the section name."""
    section = getattr(cfg, name)
    wrong = [f"{name}.{key}: must be an integer, not {section[key]!r}"
             for key in ("hidden", "epochs", "batch_size")
             if key in section and not _is_int(section[key])]
    wrong += [f"{name}.{key}: must be a number, not {section[key]!r}"
              for key in ("lr", "momentum")
              if key in section and not _is_number(section[key])]
    hidden = section.get("hidden", 1)
    if _is_int(hidden) and hidden < 1:
        wrong.append(f"{name}.hidden: must be >= 1, got {hidden}")
    if wrong:
        raise UsageError("; ".join(wrong))
    try:
        return TrainConfig(
            lr=section.get("lr", 0.05),
            epochs=section.get("epochs", 20),
            batch_size=section.get("batch_size", 32),
            momentum=section.get("momentum", 0.9),
            seed=seed,
            loss=loss,
        )
    except UsageError as exc:
        raise UsageError(f"{name}.{exc}") from None


def _train_original(cfg: ExperimentConfig, ds: Dataset) -> ModelParams:
    """The original model that ``cfg.model`` describes, trained on the
    train split; its ``layout`` is the one every method of the run uses."""
    layout = ModelLayout(ds.dim, cfg.model.get("hidden", 32), ds.n_classes)
    return train_ce(
        init_model(layout, seed=cfg.seeds["model"]),
        *ds.split_arrays("train"),
        _train_config(cfg, "model", cfg.seeds["model"], "cross-entropy"),
    )


def _baseline_spec(cfg: ExperimentConfig, kind: str) -> BaselineSpec:
    """Retrain gets the original's training budget (``cfg.model``); the
    other baselines get the fine-tune budget."""
    section = "model" if kind == "retrain" else "finetune"
    return BaselineSpec(kind=kind, train=_train_config(
        cfg, section, cfg.seeds["model"], "cross-entropy"))


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
    if eta is not None and not (_is_number(eta) and eta > 0):
        raise UsageError("refine.eta: must be a positive number or "
                         f"'<positive number>/n', not {r['eta']!r}")
    tol, max_iters = r.get("tol", 1e-6), r.get("max_iters", 10_000)
    if not (_is_number(tol) and tol > 0):
        raise UsageError(f"refine.tol: must be a positive number, not {tol!r}")
    # RefineConfig rejects an integer below 1
    if not _is_int(max_iters):
        raise UsageError(
            f"refine.max_iters: must be an integer, not {max_iters!r}")
    return RefineConfig(tol=tol, max_iters=max_iters, eta=eta)


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Execute (or resume) one experiment and persist it under cfg.out_dir.
    Nothing is written until the config and its forget split are valid."""
    cfg.check()
    run_dir = Path(cfg.out_dir)
    chash = cfg.config_hash()

    cfg_path = run_dir / "config.json"
    if cfg_path.exists():
        existing = ExperimentConfig.from_dict(_read_json(cfg_path))
        if existing.config_hash() != chash:
            raise UsageError(
                f"run directory {run_dir} belongs to config "
                f"{existing.config_hash()}, not {chash}"
            )
    done = _completed_stages(run_dir)

    def mark(stage):
        if stage not in done:
            done.append(stage)
        _write_json(run_dir / "stages.json", {"completed": done})

    # data
    ds_path = run_dir / "dataset"
    ds = load_dataset(ds_path) if "data" in done else _build_dataset(cfg)
    split = _forget_split(cfg, ds)
    run_dir.mkdir(parents=True, exist_ok=True)
    if not cfg_path.exists():
        _write_json(cfg_path, cfg.to_dict())
    if "data" not in done:
        save_dataset(ds, ds_path)
        mark("data")

    # original model
    orig_path = run_dir / "original.ckpt"
    if "original" in done and orig_path.exists():
        original, _ = load_model(orig_path)
    else:
        original = _train_original(cfg, ds)
        save_model(original, orig_path, epoch=_train_config(
            cfg, "model", cfg.seeds["model"], "cross-entropy").epochs)
        mark("original")

    # method
    unlearned_path = run_dir / "unlearned.ckpt"
    method_path = run_dir / "method.json"
    if "method" in done and unlearned_path.exists():
        params, _ = load_model(unlearned_path)
        method_record = _read_json(method_path)
    else:
        ckpt_dir = run_dir / "checkpoints"

        def write_checkpoint(entry):
            # called on this thread as each epoch's snapshot completes
            ckpt_dir.mkdir(exist_ok=True)
            save_model(entry.params,
                       ckpt_dir / f"epoch_{entry.epoch:03d}.ckpt",
                       epoch=entry.epoch,
                       error_rates={k: entry.metrics[k]
                                    for k in ERROR_METRICS})

        report = _run_method(cfg, ds, split, original, write_checkpoint)
        params = report.params
        method_record = dict(report.deterministic_fields(),
                             timings=report.timings)
        save_model(params, unlearned_path, epoch=report.selected_epoch)
        if report.refine_result is not None:
            save_refine_result(report.refine_result, run_dir / "refined")
        _write_json(method_path, method_record)
        mark("method")

    # evaluation
    summary = _evaluate_run(cfg, ds, split, original, params, method_record,
                            chash)
    _write_json(run_dir / "summary.json", summary.to_dict())
    mark("eval")
    return summary


def _run_method(cfg, ds, split, original, on_checkpoint=None):
    """Run ``cfg.method``; a PPU method hands each fine-tuning checkpoint
    to ``on_checkpoint`` as it completes."""
    if cfg.method.startswith("baseline:"):
        spec = _baseline_spec(cfg, cfg.method.split(":", 1)[1])
        return run_baseline(spec, ds, split, original=original)

    n_train = len(ds.splits["train"])
    task = UnlearnTask(
        dataset=ds,
        split=split,
        mode={name: mode for mode, name in METHOD_NAMES.items()}[cfg.method],
        scheme=_scheme(cfg),
        finetune=_train_config(cfg, "finetune", cfg.seeds["protocol"],
                               "kl"),
        lam=cfg.lam,
        refine_cfg=_refine_config(cfg, n_train),
        selection=cfg.selection,
        adaptive_style=cfg.adaptive_style,
    )
    # called by module-level name, so that wrappers installed on these
    # names (tracing) see every call
    if task.mode == "bias":
        return ppu_bias(original, task, on_checkpoint)
    if task.mode == "privacy":
        return ppu_privacy(original, task, on_checkpoint)
    # Adaptive runs after the finetune baseline by default.
    predecessor = run_baseline(_baseline_spec(cfg, "finetune"), ds, split,
                               original=original)
    return adaptive_post(predecessor.params, task, on_checkpoint)


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


def attack_run(run_dir, repetitions: int):
    """The membership-inference attack on a run's unlearned model, as
    ``_mia_report`` makes it with ``repetitions`` repetitions, from the
    config, dataset and checkpoint the run directory holds."""
    run_dir = Path(run_dir)
    cfg = ExperimentConfig.from_dict(_read_json(run_dir / "config.json"))
    cfg.check()
    _completed_stages(run_dir, "method")
    cfg.mia = dict(cfg.mia, repetitions=repetitions)
    ds = load_dataset(run_dir / "dataset")
    params, _ = load_model(run_dir / "unlearned.ckpt")
    return _mia_report(cfg, ds, _forget_split(cfg, ds), params)


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
    if not cfg.evals.get("errors", True):
        raise UsageError("a sweep tabulates error rates, so it needs "
                         "evals.errors true")
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
    _completed_stages(run_dir, "method", "eval")
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
    _completed_stages(run_dir, "eval")
    d = _read_json(run_dir / "summary.json")
    return RunSummary(**d)
