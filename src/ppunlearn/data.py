"""Dataset synthesis, CSV ingestion, and forget/retain split construction.

Datasets are immutable once built: inputs, integer labels, named
train/validation/test splits, and a provenance record (generator config or
file path plus content hash).  The forget/retain split always partitions the
train split exactly.

Ingestion formats: synthetic blobs and CSV.  Additional loaders (e.g. the
IDX image container) can slot in as peers of ``load_csv`` returning a
``Dataset``; nothing downstream depends on the source format.
"""

from __future__ import annotations

import hashlib
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, LabelMappingError, ParseError, ShapeError,
                     SpecError)
from .fileio import atomic_open, read_json, write_json

SPLIT_RATIOS = (0.7, 0.1, 0.2)  # train / validation / test


@dataclass
class Dataset:
    inputs: np.ndarray          # (N, D) float64
    labels: np.ndarray          # (N,) int64 in [0, K)
    splits: dict                # name -> index array; train/validation/test
    n_classes: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.inputs.shape[0]
        if self.labels.shape != (n,):
            raise ShapeError(f"{self.labels.shape[0]} labels for {n} rows")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise DataError(
                f"labels must lie in [0, {self.n_classes})"
            )
        seen = np.zeros(n, dtype=bool)
        for name, idx in self.splits.items():
            idx = np.asarray(idx, dtype=np.int64)
            self.splits[name] = idx
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise DataError(f"split {name!r} has out-of-range indices")
            if seen[idx].any():
                raise DataError(f"split {name!r} overlaps another split")
            seen[idx] = True
        train_classes = set(self.labels[self.splits["train"]].tolist())
        if train_classes != set(range(self.n_classes)):
            raise DataError(
                f"train split must contain every class, has {sorted(train_classes)}"
            )

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def split_arrays(self, name: str):
        idx = self.splits[name]
        return self.inputs[idx], self.labels[idx]

    def arrays_at(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return self.inputs[idx], self.labels[idx]


@dataclass(frozen=True)
class ForgetSpec:
    """What to forget: an entire class, or m seeded samples from one class."""

    mode: str                  # one of MODES
    target_class: int
    count: int | None = None   # selective only
    seed: int = 0

    MODES = ("class", "selective")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise SpecError(f"unknown forget mode {self.mode!r}")
        if self.mode == "selective" and (self.count or 0) < 1:
            raise SpecError("count: must be >= 1 in selective mode, got "
                            f"{self.count}")


@dataclass
class SplitResult:
    """Partition of the train split into forget and retain index sets."""

    forget_idx: np.ndarray
    retain_idx: np.ndarray

    def __post_init__(self):
        self.forget_idx = np.asarray(self.forget_idx, dtype=np.int64)
        self.retain_idx = np.asarray(self.retain_idx, dtype=np.int64)

    @property
    def n_forget(self) -> int:
        return self.forget_idx.size

    @property
    def n_retain(self) -> int:
        return self.retain_idx.size


def _content_hash(inputs: np.ndarray, labels: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(inputs, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(labels, dtype="<i8").tobytes())
    return h.hexdigest()


def _per_class_splits(labels, n_classes, ratios):
    """Positional per-class split with floor rounding, remainder to train."""
    train, val, test = [], [], []
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        n_c = idx.size
        n_val = int(ratios[1] * n_c)
        n_test = int(ratios[2] * n_c)
        n_train = n_c - n_val - n_test
        train.append(idx[:n_train])
        val.append(idx[n_train:n_train + n_val])
        test.append(idx[n_train + n_val:])
    return {
        "train": np.sort(np.concatenate(train)),
        "validation": np.sort(np.concatenate(val)),
        "test": np.sort(np.concatenate(test)),
    }


def check_blobs(n_classes: int, dim: int, n_per_class: int,
                spread: float, seed: int = 0) -> None:
    """Raise SpecError naming the first value ``gen_blobs`` cannot use."""
    if n_classes < 2:
        raise SpecError(f"n_classes: must be >= 2, got {n_classes}")
    if dim < 1:
        raise SpecError(f"dim: must be >= 1, got {dim}")
    if n_per_class < 10:
        raise SpecError(f"n_per_class: must be >= 10, got {n_per_class}")
    if not 0 < spread < math.inf:
        raise SpecError(f"spread: must be finite and > 0, got {spread}")
    if seed < 0:
        raise SpecError(f"seed: must be >= 0, got {seed}")


def gen_blobs(n_classes: int, dim: int, n_per_class: int, spread: float,
              seed: int) -> Dataset:
    """Gaussian clusters around seeded random per-class means.

    Means are drawn uniformly from [-3, 3]^dim, points add isotropic normal
    noise scaled by ``spread``.  Split is 70/10/20 per class.
    """
    check_blobs(n_classes, dim, n_per_class, spread, seed)
    rng = np.random.default_rng(seed)
    means = rng.uniform(-3.0, 3.0, size=(n_classes, dim))
    inputs = np.concatenate([
        means[c] + spread * rng.standard_normal((n_per_class, dim))
        for c in range(n_classes)
    ])
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    splits = _per_class_splits(labels, n_classes, SPLIT_RATIOS)
    provenance = {
        "generator": "blobs",
        "n_classes": n_classes,
        "dim": dim,
        "n_per_class": n_per_class,
        "spread": spread,
        "seed": seed,
        "content_hash": _content_hash(inputs, labels),
    }
    return Dataset(inputs, labels, splits, n_classes, provenance)


def load_csv(path) -> Dataset:
    """Load a numeric CSV whose last column is an integer label.

    A header row is auto-detected (first row with any non-numeric field).
    Labels must form the contiguous set 0..K-1; otherwise the error message
    lists the remap that would be needed.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {lineno}: not UTF-8 text") from None
    rows, labels = [], []
    start = 0
    if lines:
        first = [f.strip() for f in lines[0].split(",")]
        if not all(_is_number(f) for f in first if f):
            start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 2:
            raise ParseError(f"line {lineno}: expected features and a label")
        try:
            feats = [float(f) for f in fields[:-1]]
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric feature value")
        if not all(map(math.isfinite, feats)):
            raise ParseError(f"line {lineno}: non-finite feature value")
        lab = _parse_label(fields[-1], lineno)
        rows.append(feats)
        labels.append(lab)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"{path}: inconsistent column counts {sorted(widths)}")
    inputs = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    uniq = np.unique(labels)
    if not np.array_equal(uniq, np.arange(uniq.size)):
        remap = {int(old): new for new, old in enumerate(uniq.tolist())}
        raise LabelMappingError(
            f"labels are not contiguous from 0; remap needed: {remap}"
        )
    n_classes = int(uniq.size)
    splits = _per_class_splits(labels, n_classes, SPLIT_RATIOS)
    provenance = {
        "path": str(path),
        "content_hash": hashlib.sha256(raw).hexdigest(),
        "ratios": list(SPLIT_RATIOS),
    }
    return Dataset(inputs, labels, splits, n_classes, provenance)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _parse_label(field_str: str, lineno: int) -> int:
    try:
        v = float(field_str)
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric label {field_str!r}")
    if not math.isfinite(v) or v != int(v):
        raise ParseError(f"line {lineno}: label {field_str!r} is not an integer")
    return int(v)


def make_forget_split(ds: Dataset, spec: ForgetSpec) -> SplitResult:
    """Build the forget/retain partition of the train split.

    Class mode takes every train point of the target class; selective mode
    takes the first ``count`` points of a seeded shuffle of that class.
    """
    if not 0 <= spec.target_class < ds.n_classes:
        raise SpecError(
            f"target class {spec.target_class} not in [0, {ds.n_classes})"
        )
    train = ds.splits["train"]
    class_idx = train[ds.labels[train] == spec.target_class]
    if spec.mode == "class":
        forget = class_idx
    else:
        if spec.count > class_idx.size:
            raise SpecError(
                f"cannot forget {spec.count} samples: class "
                f"{spec.target_class} has only {class_idx.size} train points"
            )
        rng = np.random.default_rng(spec.seed)
        forget = np.sort(class_idx[rng.permutation(class_idx.size)][:spec.count])
    mask = np.isin(train, forget)
    return SplitResult(forget_idx=forget, retain_idx=train[~mask])


def save_dataset(ds: Dataset, path) -> None:
    """Persist arrays (<path>.npz) plus a JSON manifest (<path>.manifest.json)."""
    base = str(path).removesuffix(".npz")
    # through a file object: given a name, np.savez would append ".npz"
    with atomic_open(base + ".npz", "wb") as fh:
        np.savez(
            fh,
            inputs=ds.inputs,
            labels=ds.labels,
            **{f"split_{k}": v for k, v in ds.splits.items()},
        )
    write_json(base + ".manifest.json",
               {"n_classes": ds.n_classes, "provenance": ds.provenance})


def load_dataset(path) -> Dataset:
    """Read a dataset written by ``save_dataset``.

    Anything that does not decode, a missing array or manifest field,
    inputs that are not a finite 2-D matrix, labels or splits that are not
    1-D integer arrays, and arrays whose content hash differs from the one
    a ``gen_blobs`` provenance records raise DataError naming the file.
    """
    base = str(path).removesuffix(".npz")
    npz, manifest_path = base + ".npz", base + ".manifest.json"
    try:
        with np.load(npz) as z:
            inputs = z["inputs"]
            labels = z["labels"]
            splits = {k[len("split_"):]: z[k] for k in z.files
                      if k.startswith("split_")}
    except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{npz}: not a readable dataset: {exc}") from exc
    manifest = read_json(manifest_path)
    try:
        n_classes, provenance = manifest["n_classes"], manifest["provenance"]
        if not (isinstance(n_classes, int) and isinstance(provenance, dict)):
            raise TypeError("n_classes must be an integer and provenance "
                            "an object")
    except (KeyError, TypeError) as exc:
        raise DataError(
            f"{manifest_path}: not a dataset manifest: {exc!r}") from exc
    if (inputs.ndim != 2 or inputs.dtype.kind not in "iuf"
            or not np.isfinite(inputs).all()):
        raise DataError(f"{npz}: inputs must be a finite 2-D matrix")
    named = {"labels": labels} | {f"split_{k}": v for k, v in splits.items()}
    for name, arr in named.items():
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise DataError(f"{npz}: {name} must be a 1-D integer array")
    if (provenance.get("generator") == "blobs"
            and provenance.get("content_hash") != _content_hash(inputs,
                                                                labels)):
        raise DataError(f"{npz}: arrays do not match the manifest's "
                        "content hash")
    try:
        return Dataset(inputs, labels, splits, n_classes, provenance)
    except (DataError, ShapeError, KeyError) as exc:
        raise DataError(f"{npz}: {exc}") from exc
