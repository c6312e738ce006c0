"""Experiment orchestration: configs parsed into run plans and hashed,
staged runs with resumable run directories, lambda sweeps, timing benches,
and plot-data emission.

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
import math
import platform
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import KINDS, BaselineSpec, run_baseline
from .data import (Dataset, ForgetSpec, check_blobs, gen_blobs, load_csv,
                   load_dataset, make_forget_split, save_dataset)
from .errors import DataError, SpecError, UsageError
from .evaluate import (MiaConfig, error_rate, evaluate_model, mia_attack,
                       time_stage)
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


def _is_int(x) -> bool:
    """A JSON integer: ``bool`` is an ``int`` in Python, but not here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite JSON number: the JSON reader accepts NaN and Infinity."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _is_eta(x) -> bool:
    """A positive number, or "<positive number>/n" (that number over the
    train-row count); only checked, as the refine solve reads no step size."""
    if isinstance(x, str) and x.endswith("/n"):
        try:
            x = float(x[:-2])
        except ValueError:
            return False
    return _is_number(x) and x > 0


# JSON kind -> (test, what a value of that kind must be)
_KINDS = {
    "boolean": (lambda x: isinstance(x, bool), "true or false"),
    "integer": (_is_int, "an integer"),
    "seed": (lambda x: _is_int(x) and x >= 0, "an integer >= 0"),
    "count": (lambda x: _is_int(x) and x >= 1, "an integer >= 1"),
    "number": (_is_number, "a number"),
    "positive": (lambda x: _is_number(x) and x > 0, "a positive number"),
    "path": (lambda x: isinstance(x, str) and x != "", "a non-empty string"),
    "eta": (_is_eta, "a positive number or '<positive number>/n'"),
}


def _wrong_kind(name: str, kind, value):
    """What is wrong with ``value`` as field ``name`` of ``kind``, a name in
    _KINDS or a tuple of the values allowed; None if nothing is."""
    test, rule = (_KINDS[kind] if isinstance(kind, str)
                  else (kind.__contains__, f"one of {kind}"))
    return None if test(value) else f"{name}: must be {rule}, not {value!r}"


# The top-level fields besides the sections and "sweep": field -> kind.
_TOP_LEVEL = {"method": METHODS, "out_dir": "path", "lam": "positive",
              "selection": CRITERIA,
              "adaptive_style": UnlearnTask.ADAPTIVE_STYLES,
              "timing_repetitions": "count",
              "schema_version": (SCHEMA_VERSION,)}

# Every key of every config section: section -> {key: (JSON kind, default)}.
# A key left out, or given as null, takes its default: MISSING marks a key
# that must be given, and a (section, key) pair the value of that field, in
# a section listed earlier.  The ranges are checked by the objects that
# _BUILDERS makes of the sections, and by make_forget_split.
_TRAINING = {"epochs": ("integer", 20), "lr": ("number", 0.05),
             "batch_size": ("integer", TrainConfig.batch_size),
             "momentum": ("number", TrainConfig.momentum)}
FIELDS = {
    "seeds": {"data": ("seed", MISSING), "model": ("seed", MISSING),
              "protocol": ("seed", MISSING)},
    "dataset": {"kind": (("blobs", "csv"), MISSING), "path": ("path", None),
                "n_classes": ("integer", 5), "dim": ("integer", 8),
                "n_per_class": ("integer", 125), "spread": ("number", 0.6)},
    "forget": {"mode": (ForgetSpec.MODES, MISSING),
               "target_class": ("integer", 0),
               "count": ("integer", None),
               "seed": ("seed", ("seeds", "protocol"))},
    "scheme": {"kind": (PseudoScheme.KINDS, MISSING),
               "seed": ("seed", ("seeds", "protocol"))},
    "model": {"hidden": ("count", 32), **_TRAINING},
    "finetune": _TRAINING,
    "refine": {"tol": ("number", RefineConfig.tol),
               "max_iters": ("integer", RefineConfig.max_iters),
               "eta": ("eta", RefineConfig.eta)},
    "evals": {"errors": ("boolean", True), "mia": ("boolean", False),
              "timing": ("boolean", False)},
    "mia": {"repetitions": ("integer", MiaConfig.repetitions)},
}


def defaults(section: str) -> dict:
    """The default of every key of ``section`` (MISSING where there is
    none)."""
    return {key: default for key, (_, default) in FIELDS[section].items()}


@dataclass
class ExperimentConfig:
    """Everything one run needs; JSON-serializable and hashable."""

    dataset: dict                   # {"kind": "blobs", ...} | {"kind": "csv", "path": ...}
    forget: dict                    # ForgetSpec fields
    method: str
    out_dir: str
    scheme: dict = field(default_factory=lambda: {"kind": "uniform"})
    lam: float = 1.0
    # a config without a model section trains for 40 epochs, one whose
    # model section lacks "epochs" for 20
    model: dict = field(
        default_factory=lambda: dict(defaults("model"), epochs=40))
    finetune: dict = field(default_factory=lambda: defaults("finetune"))
    refine: dict = field(default_factory=dict)   # RefineConfig overrides
    selection: str = "forget-error-proxy"
    adaptive_style: str = "bias"
    evals: dict = field(default_factory=lambda: defaults("evals"))
    mia: dict = field(default_factory=lambda: defaults("mia"))
    timing_repetitions: int = 5
    sweep: dict | None = None       # {"lam": [...]} | {"seed": [...]}
    seeds: dict = field(default_factory=lambda: {
        "data": 0, "model": 1, "protocol": 2})
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> list:
        """Every problem of the config, not just the first."""
        return _parse(self)[1]

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

    def check(self) -> "RunPlan":
        """The run this config describes; UsageError listing every problem
        ``validate`` finds if it is not valid."""
        plan, problems = _parse(self)
        if problems:
            raise UsageError("invalid config: " + "; ".join(problems))
        return plan

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


@dataclass(frozen=True)
class RunPlan:
    """A valid config parsed into the objects its stages use."""

    config: ExperimentConfig
    dataset: tuple          # ("blobs" or "csv", the loader's arguments)
    forget: ForgetSpec
    scheme: PseudoScheme
    hidden: int
    model: TrainConfig      # the original's budget: CE loss, model seed
    finetune: TrainConfig   # the fine-tune budget: KL loss, protocol seed
    refine: RefineConfig    # eta None: refine.eta is only checked
    mia: MiaConfig
    evals: dict             # {"errors": bool, "mia": bool, "timing": bool}

    def data(self, ds: Dataset | None = None) -> tuple:
        """(``ds``, its forget split); ``ds`` defaults to the dataset the
        config names.  A forget spec the dataset cannot meet (a class it
        lacks, more rows than the class has) is a config error."""
        if ds is None:
            kind, args = self.dataset
            ds = gen_blobs(**args) if kind == "blobs" else load_csv(**args)
        try:
            return ds, make_forget_split(ds, self.forget)
        except SpecError as exc:
            raise UsageError(f"invalid config: forget: {exc}") from None

    def train_original(self, ds: Dataset) -> ModelParams:
        """The original model, trained on the train split; its ``layout``
        is the one every method of the run uses."""
        layout = ModelLayout(ds.dim, self.hidden, ds.n_classes)
        return train_ce(init_model(layout, seed=self.model.seed),
                        *ds.split_arrays("train"), self.model)

    def baseline(self, kind: str) -> BaselineSpec:
        """Retrain gets the original's training budget; the other
        baselines get the fine-tune budget, with the model seed and the
        cross-entropy loss."""
        return BaselineSpec(kind, self.model if kind == "retrain" else replace(
            self.finetune, seed=self.model.seed, loss=self.model.loss))


def _dataset_recipe(spec: dict, seeds: dict) -> tuple:
    if spec["kind"] == "csv":
        if spec["path"] is None:
            raise UsageError("path: must be given for a csv dataset")
        return "csv", {"path": spec["path"]}
    sizes = {key: spec[key]
             for key in ("n_classes", "dim", "n_per_class", "spread")}
    check_blobs(**sizes)
    return "blobs", dict(sizes, seed=seeds["data"])


# section -> what it builds from its values and the seeds: a RunPlan field
_BUILDERS = {
    "dataset": _dataset_recipe,
    "forget": lambda f, seeds: ForgetSpec(**f),
    "scheme": lambda s, seeds: PseudoScheme(
        s["kind"], None if s["kind"] == "uniform" else s["seed"]),
    "model": lambda m, seeds: TrainConfig(
        **{key: m[key] for key in _TRAINING}, seed=seeds["model"],
        loss="cross-entropy"),
    "finetune": lambda f, seeds: TrainConfig(**f, seed=seeds["protocol"],
                                             loss="kl"),
    "refine": lambda r, seeds: RefineConfig(r["tol"], r["max_iters"]),
    "mia": lambda m, seeds: MiaConfig(**m, seed=seeds["protocol"]),
    "evals": lambda e, seeds: e,
}


def _parse(cfg: ExperimentConfig) -> tuple:
    """(the RunPlan, []) for a valid ``cfg``, else (None, every problem)."""
    problems = [_wrong_kind(name, kind, getattr(cfg, name))
                for name, kind in _TOP_LEVEL.items()]
    if cfg.sweep is not None:
        problems.append("sweep: must be null, as a run does not read it; "
                        "run the sweep with `ppunlearn sweep --lam` or "
                        "`--seeds`")
    values, found = {}, []
    for section, keys in FIELDS.items():
        given = getattr(cfg, section)
        if not isinstance(given, dict):
            found.append(f"{section}: must be a JSON object")
            continue
        found += [f"{section}.{key}: must be one of the keys {list(keys)}"
                  for key in given if key not in keys]
        values[section] = {}
        for key, (kind, default) in keys.items():
            value = given.get(key)
            if value is None and default is MISSING:
                found.append(f"{section}.{key}: must be given")
            elif value is None:
                value = (values.get(default[0], {}).get(default[1])
                         if isinstance(default, tuple) else default)
            else:
                found.append(_wrong_kind(f"{section}.{key}", kind, value))
            values[section][key] = value
    found = [problem for problem in found if problem]
    problems = [problem for problem in problems if problem] + found
    built = {}
    if not found:   # the objects check the ranges of values of their kind
        for section, build in _BUILDERS.items():
            try:
                built[section] = build(values[section], values["seeds"])
            except (UsageError, SpecError) as exc:
                problems.append(f"{section}.{exc}")
    if problems:
        return None, problems
    return RunPlan(cfg, hidden=values["model"]["hidden"], **built), []


def _provenance() -> str:
    return f"ppunlearn/{__version__} python/{platform.python_version()} " \
           f"numpy/{np.__version__}"


def _read_record(path):
    """A run-directory JSON record; one that is not a JSON object raises
    DataError naming the file."""
    record = _read_json(path)
    if not isinstance(record, dict):
        raise DataError(f"{path}: must hold a JSON object, not "
                        f"{type(record).__name__}")
    return record


def _completed_stages(run_dir: Path, *required) -> list:
    """The stages ``stages.json`` lists as completed; a stage of
    ``required`` that it does not list raises UsageError naming it."""
    path = run_dir / "stages.json"
    done = _read_record(path).get("completed", []) if path.exists() else []
    if not isinstance(done, list):
        raise DataError(f"{path}: 'completed' must be a list")
    for stage in required:
        if stage not in done:
            raise UsageError(
                f"run at {run_dir} is incomplete: stage {stage!r} missing")
    return done


def _master_seeds(seed: int) -> dict:
    """The data, model and protocol seeds one master seed stands for."""
    return {"data": seed, "model": seed + 1, "protocol": seed + 2}


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Execute (or resume) one experiment and persist it under cfg.out_dir.
    Nothing is written until the config and its forget split are valid."""
    plan = cfg.check()
    run_dir = Path(cfg.out_dir)
    chash = cfg.config_hash()

    cfg_path = run_dir / "config.json"
    if cfg_path.exists():
        existing = ExperimentConfig.from_dict(
            _read_json(cfg_path)).config_hash()
        if existing != chash:
            raise UsageError(f"run directory {run_dir} belongs to config "
                             f"{existing}, not {chash}")
    done = _completed_stages(run_dir)

    def mark(stage):
        if stage not in done:
            done.append(stage)
        _write_json(run_dir / "stages.json", {"completed": done})

    # data
    ds_path = run_dir / "dataset"
    ds, split = plan.data(load_dataset(ds_path) if "data" in done else None)
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
        original = plan.train_original(ds)
        save_model(original, orig_path, epoch=plan.model.epochs)
        mark("original")

    # method
    unlearned_path = run_dir / "unlearned.ckpt"
    method_path = run_dir / "method.json"
    if "method" in done and unlearned_path.exists():
        params, _ = load_model(unlearned_path)
        method_record = _read_record(method_path)
    else:
        ckpt_dir = run_dir / "checkpoints"

        def write_checkpoint(entry):
            # called on this thread as each epoch's snapshot completes
            ckpt_dir.mkdir(exist_ok=True)
            save_model(entry.params,
                       ckpt_dir / f"epoch_{entry.epoch:03d}.ckpt",
                       epoch=entry.epoch,
                       error_rates={k: v for k, v in entry.metrics.items()
                                    if k in ERROR_METRICS})

        report = _run_method(plan, cfg.method, ds, split, original,
                             write_checkpoint)
        params = report.params
        method_record = dict(report.deterministic_fields(),
                             timings=report.timings)
        save_model(params, unlearned_path, epoch=report.selected_epoch)
        if report.refine_result is not None:
            save_refine_result(report.refine_result, run_dir / "refined")
        _write_json(method_path, method_record)
        mark("method")

    # evaluation
    summary = _evaluate_run(plan, ds, split, original, params, method_record,
                            chash)
    _write_json(run_dir / "summary.json", summary.to_dict())
    mark("eval")
    return summary


def _run_method(plan, method, ds, split, original, on_checkpoint=None):
    """Run ``method`` as ``plan`` configures it; a PPU method hands each
    fine-tuning checkpoint to ``on_checkpoint`` as it completes."""
    if method.startswith("baseline:"):
        return run_baseline(plan.baseline(method.split(":", 1)[1]), ds, split,
                            original=original)

    cfg = plan.config
    task = UnlearnTask(
        dataset=ds,
        split=split,
        mode={name: mode for mode, name in METHOD_NAMES.items()}[method],
        scheme=plan.scheme,
        finetune=plan.finetune,
        lam=cfg.lam,
        refine_cfg=plan.refine,
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
    predecessor = run_baseline(plan.baseline("finetune"), ds, split,
                               original=original)
    return adaptive_post(predecessor.params, task, on_checkpoint)


def _mia_report(mia: MiaConfig, ds, split, params):
    """The membership-inference attack on ``params``: forget rows against
    the test split."""
    return mia_attack(params, ds.arrays_at(split.forget_idx),
                      ds.split_arrays("test"), mia)


def _run_data(run_dir: Path, *stages):
    """A run directory's plan, and the dataset and split it holds; once the
    config is checked, a stage of ``stages`` it lacks raises UsageError."""
    plan = ExperimentConfig.from_dict(
        _read_json(run_dir / "config.json")).check()
    _completed_stages(run_dir, *stages)
    ds, split = plan.data(load_dataset(run_dir / "dataset"))
    return plan, ds, split


def attack_run(run_dir, repetitions: int):
    """The membership-inference attack on a run's unlearned model, as
    ``_mia_report`` makes it with ``repetitions`` repetitions, from the
    config, dataset and checkpoint the run directory holds."""
    run_dir = Path(run_dir)
    plan, ds, split = _run_data(run_dir, "method")
    params, _ = load_model(run_dir / "unlearned.ckpt")
    return _mia_report(replace(plan.mia, repetitions=repetitions), ds, split,
                       params)


def _evaluate_run(plan, ds, split, original, params, method_record,
                  chash) -> RunSummary:
    evals = plan.evals
    return RunSummary(
        config_hash=chash,
        method=plan.config.method,
        eval_report=(asdict(evaluate_model(params, ds, split))
                     if evals["errors"] else None),
        mia_report=(asdict(_mia_report(plan.mia, ds, split, params))
                    if evals["mia"] else None),
        timings=([asdict(t) for t in bench_methods(plan, ds, split, original)]
                 if evals["timing"] else []),
        refine_diagnostics=method_record.get("refine_summary"),
        selected_epoch=method_record.get("selected_epoch"),
        flags=method_record.get("flags", {}),
        provenance=_provenance(),
    )


def bench_methods(plan: RunPlan, ds, split, original):
    """Warm-up once, then time the configured method against the Retrain
    and Finetune baselines, each run as ``run_experiment`` runs it.

    Retrain gets the original training budget (the model section); the
    unlearning method and the finetune baseline run with the fine-tune
    budget.
    """
    records = []
    for method in (plan.config.method, "baseline:retrain",
                   "baseline:finetune"):
        thunk = functools.partial(_run_method, plan, method, ds, split,
                                  original)
        thunk()  # warm-up excluded from the timings
        records.append(time_stage(
            method, thunk, repetitions=plan.config.timing_repetitions))
    return records


# sweep axis -> (value type, CSV file, value format in the CSV and in the
# child directory names, the config fields a value sets)
SWEEP_AXES = {
    "lam": (float, "sweep_lambda.csv", ".10g", "g", lambda v: {"lam": v}),
    "seed": (int, "sweep_seeds.csv", "d", "d",
             lambda v: {"seeds": _master_seeds(v)})}


def sweep_axis(cfg: ExperimentConfig, axis: str, values) -> list:
    """Run the method once per value of ``axis`` with everything else
    shared: per lambda ("lam"), or per master seed ("seed", from which the
    data, model and protocol seeds derive).  Each child run gets its own
    directory under cfg.out_dir.  Returns [(value, retain_error,
    forget_error), ...] and persists it as CSV."""
    kind, csv_name, csv_format, dir_format, sets = SWEEP_AXES[axis]
    if axis == "lam" and cfg.method not in ("ppu-bias", "ppu-privacy"):
        raise UsageError("lambda sweeps need a ppu-bias or ppu-privacy method")
    if not values:
        raise UsageError(f"a {axis} sweep needs at least one value")
    try:
        values = [kind(value) for value in values]
    except ValueError as exc:
        raise UsageError(f"{axis} sweep: {exc}") from exc
    dirs = [f"{axis}_{value:{dir_format}}" for value in values]
    shared = [v for v, name in zip(values, dirs) if dirs.count(name) > 1]
    if shared:
        raise UsageError(f"{axis} sweep: values {shared} share a run directory")
    children = [replace(cfg, sweep=None, **sets(value)) for value in values]
    # nothing, out_dir included, is used until every child is valid; they
    # share the forget spec and the class sizes, so one split shows it fits
    plan = [child.check() for child in children][0]
    if not plan.evals["errors"]:
        raise UsageError("a sweep tabulates error rates, so it needs "
                         "evals.errors true")
    plan.data()
    parent = Path(cfg.out_dir)
    parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, name, child in zip(values, dirs, children):
        child.out_dir = str(parent / name)
        summary = run_experiment(child)
        rows.append((value,
                     summary.eval_report["retain_error"],
                     summary.eval_report["forget_error"]))
    _write_csv(parent / csv_name, f"{axis},retain_error,forget_error",
               [f"{v:{csv_format}},{r:.10g},{f:.10g}" for v, r, f in rows])
    return rows


def sweep_lambda(cfg: ExperimentConfig, lambdas) -> list:
    """``sweep_axis`` over lambda; writes sweep_lambda.csv."""
    return sweep_axis(cfg, "lam", lambdas)


def sweep_seeds(cfg: ExperimentConfig, seeds) -> list:
    """``sweep_axis`` over master seeds; writes sweep_seeds.csv."""
    return sweep_axis(cfg, "seed", seeds)


def _write_csv(path, header: str, lines) -> Path:
    """Write ``header`` and then each of ``lines`` as a CSV row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{line}\n" for line in (header, *lines))
    return path


def emit_plot_data(run_dir) -> list:
    """Write CSV series for the per-epoch error curves and timing records.

    The forget and retain errors of each epoch are measured on the saved
    split's rows with that epoch's checkpoint, ``checkpoints/epoch_NNN.ckpt``.
    Byte-identical on re-emission for an unchanged run directory.  Raises
    UsageError naming the missing stage when the run is incomplete.
    """
    run_dir = Path(run_dir)
    _completed_stages(run_dir, "method", "eval")
    _, ds, split = _run_data(run_dir)
    epochs = [e["epoch"] for e in
              _read_record(run_dir / "method.json").get("trajectory", [])]
    models = [load_model(run_dir / "checkpoints" / f"epoch_{k:03d}.ckpt")[0]
              for k in epochs]
    written = []
    for metric, rows in (("forget", split.forget_idx),
                         ("retain", split.retain_idx)):
        x, y = ds.arrays_at(rows)
        written.append(_write_csv(
            run_dir / f"plot_{metric}_error.csv", f"epoch,{metric}_error",
            [f"{k},{error_rate(p, x, y):.10g}" for k, p in zip(epochs, models)]))
    timings = load_summary(run_dir).timings
    if timings:
        written.append(_write_csv(
            run_dir / "plot_timing.csv", "method,mean_seconds,std_error",
            [f"{r['label']},{r['mean']:.10g},{r['std_error']:.10g}"
             for r in timings]))
    return written


def load_summary(run_dir) -> RunSummary:
    """Rebuild a RunSummary from a persisted run directory."""
    run_dir = Path(run_dir)
    _completed_stages(run_dir, "eval")
    path = run_dir / "summary.json"
    record = _read_record(path)
    if set(record) != {f.name for f in fields(RunSummary)}:
        raise DataError(f"{path}: keys {sorted(record)} are not a run "
                        "summary's")
    return RunSummary(**record)
