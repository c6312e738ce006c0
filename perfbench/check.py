"""Independent checks of ppunlearn's outputs.

Every result is recomputed here from raw arrays with this module's own code:
a tanh-MLP forward pass, argmax error rates, a floored softmax, column
masses, and readers for the checkpoint and probability-matrix dump formats.
Nothing here calls ppunlearn, so a defect in the program cannot vouch for
itself.  A failed check raises ``CheckFailed``.

Weights are ``(w1, b1, w2, b2)`` tuples: ``(D, H)``, ``(H,)``, ``(H, K)``,
``(K,)`` float64 arrays.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The program floors probabilities at this value (documented in its
# probability-matrix format); the recomputed outputs must use the same floor.
FLOOR = 1e-12
ROW_SUM_TOL = 1e-9
# Column sums over a few thousand rows agree to ~1e-12 between two
# summation orders; a real disagreement is orders of magnitude larger.
RESIDUAL_TOL = 1e-9
CKPT_MAGIC = b"UNLMDL01"
MIA_TRAIN_FRAC = 0.8


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Subsets:
    """Raw arrays of one forget split: train rows in train-split order."""

    x_train: np.ndarray
    forget: tuple          # (X, y)
    retain: tuple
    test: tuple
    forget_class_test: tuple   # test rows of the forgotten class(es)

    @classmethod
    def from_arrays(cls, inputs, labels, train_idx, test_idx, forget_idx,
                    retain_idx):
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels)
        classes = np.unique(labels[forget_idx])
        fc_test = test_idx[np.isin(labels[test_idx], classes)]
        return cls(
            x_train=inputs[train_idx],
            forget=(inputs[forget_idx], labels[forget_idx]),
            retain=(inputs[retain_idx], labels[retain_idx]),
            test=(inputs[test_idx], labels[test_idx]),
            forget_class_test=(inputs[fc_test], labels[fc_test]),
        )


def logits(w, X):
    w1, b1, w2, b2 = w
    return np.tanh(X @ w1 + b1) @ w2 + b2


def error_pct(w, subset):
    X, y = subset
    require(len(y) > 0, "error rate of an empty subset")
    return 100.0 * float(np.mean(logits(w, X).argmax(axis=1) != y))


def errors(w, sub: Subsets) -> dict:
    return {"forget": error_pct(w, sub.forget),
            "retain": error_pct(w, sub.retain),
            "test": error_pct(w, sub.test)}


def probs(w, X):
    """Softmax outputs floored at FLOOR and renormalized."""
    z = logits(w, X)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = np.maximum(e / e.sum(axis=1, keepdims=True), FLOOR)
    return p / p.sum(axis=1, keepdims=True)


def digest(w) -> str:
    h = hashlib.sha256()
    for t in w:
        h.update(np.ascontiguousarray(t, dtype="<f8").tobytes())
    return h.hexdigest()


def check_weights(w, d_in, n_classes):
    require(len(w) == 4, "weights must be four tensors")
    w1, b1, w2, b2 = w
    h = w1.shape[1] if w1.ndim == 2 else -1
    require(w1.shape == (d_in, h) and b1.shape == (h,)
            and w2.shape == (h, n_classes) and b2.shape == (n_classes,),
            f"weight shapes {[t.shape for t in w]} do not fit "
            f"{d_in} inputs and {n_classes} classes")
    require(all(np.isfinite(t).all() for t in w), "weights are not finite")


def check_trajectory_entry(w, trajectory, epoch, sub: Subsets) -> dict:
    """The entry for ``epoch`` must report the errors of weights ``w``."""
    require(isinstance(epoch, int) and 1 <= epoch <= len(trajectory),
            f"epoch {epoch!r} outside a trajectory of {len(trajectory)}")
    entry = trajectory[epoch - 1]
    require(entry.get("epoch") == epoch,
            f"trajectory entry {epoch - 1} is labelled epoch "
            f"{entry.get('epoch')!r}")
    got = errors(w, sub)
    for key, value in got.items():
        require(entry.get(key) == value,
                f"epoch {epoch}: trajectory says {key} error "
                f"{entry.get(key)!r}, recomputed {value!r}")
    return got


def check_selection(trajectory, selected_epoch, reference):
    """Selected epoch = first minimum of |forget error - reference|."""
    gaps = [abs(e["forget"] - reference) for e in trajectory]
    best = 1 + int(np.argmin(gaps))
    require(selected_epoch == best,
            f"selected epoch {selected_epoch}, but epoch {best} is closest "
            f"to the reference {reference!r}")


def check_reference(source_w, sub: Subsets, reported) -> float:
    """Reference = source model's test error on the forgotten class."""
    ref = error_pct(source_w, sub.forget_class_test)
    require(reported == ref,
            f"selection reference {reported!r}, recomputed {ref!r}")
    return ref


def mass_residual(refined, source_w, sub: Subsets) -> float:
    """Largest column-mass gap between refined targets and source outputs."""
    q = np.asarray(refined, dtype=np.float64)
    n = sub.x_train.shape[0]
    require(q.ndim == 2 and q.shape[0] == n,
            f"refined matrix of shape {q.shape} for {n} train rows")
    require(np.isfinite(q).all(), "refined targets are not finite")
    require(q.min() >= 0.0, f"refined targets have a negative entry "
            f"{q.min()!r}")
    sums = q.sum(axis=1)
    worst = float(np.abs(sums - 1.0).max())
    require(worst <= ROW_SUM_TOL,
            f"refined row {int(np.abs(sums - 1.0).argmax())} sums to "
            f"1{'+' if sums.max() > 1 else '-'}{worst:.3g}")
    p = probs(source_w, sub.x_train)
    return float(np.abs(q.sum(axis=0) - p.sum(axis=0)).max())


def check_residual(recomputed, reported):
    require(isinstance(reported, (int, float)) and np.isfinite(reported),
            f"reported residual {reported!r} is not a number")
    require(abs(recomputed - reported) <= RESIDUAL_TOL,
            f"reported final residual {reported!r}, recomputed column-mass "
            f"residual of the refined targets {recomputed!r}")


def check_mia(report: dict, n_forget, n_test, repetitions) -> float:
    """Holdout accuracies must be attainable: multiples of 100/(2*holdout)."""
    n = min(n_forget, n_test)
    holdout = n - int(MIA_TRAIN_FRAC * n)
    accs = report.get("accuracies")
    require(isinstance(accs, list) and len(accs) == repetitions,
            f"expected {repetitions} MIA accuracies, got {accs!r}")
    for a in accs:
        k = a * 2 * holdout / 100.0
        require(0.0 <= a <= 100.0 and abs(k - round(k)) < 1e-6,
                f"MIA accuracy {a!r} is not a share of {2 * holdout} "
                f"holdout examples")
    mean = float(np.mean(accs))
    require(abs(report.get("mean_accuracy", np.nan) - mean) <= 1e-9,
            f"MIA mean {report.get('mean_accuracy')!r}, recomputed {mean!r}")
    return mean


def read_checkpoint(path):
    """Read the documented checkpoint layout; no bytes may be left over."""
    raw = Path(path).read_bytes()
    require(raw[:8] == CKPT_MAGIC, f"{path}: bad magic {raw[:8]!r}")
    require(len(raw) >= 24, f"{path}: truncated header")
    version, d, h, k = struct.unpack("<IIII", raw[8:24])
    require(version == 1, f"{path}: unknown version {version}")
    shapes = [(d, h), (h,), (h, k), (k,)]
    expected = 24 + 8 * sum(int(np.prod(s)) for s in shapes)
    require(len(raw) == expected,
            f"{path}: {len(raw)} bytes, layout needs {expected}")
    out, pos = [], 24
    for shape in shapes:
        count = int(np.prod(shape))
        out.append(np.frombuffer(raw, "<f8", count, pos).astype(np.float64)
                   .reshape(shape))
        pos += 8 * count
    return tuple(out)


def read_pmx(path):
    """Read the probability-matrix dump: JSON header line, then f64 rows."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    require(nl > 0, f"{path}: no header line")
    header = json.loads(raw[:nl])
    n, k = header["n"], header["k"]
    body = raw[nl + 1:]
    require(len(body) == 8 * n * k,
            f"{path}: {len(body)} data bytes for a {n}x{k} matrix")
    return np.frombuffer(body, "<f8").astype(np.float64).reshape(n, k)


def normalize(obj):
    """JSON round trip, so in-memory and on-disk records compare equal."""
    return json.loads(json.dumps(obj, sort_keys=True))


def check_resume(fresh: dict, resumed: dict, on_disk: dict):
    fresh, resumed = normalize(fresh), normalize(resumed)
    for key in sorted(set(fresh) | set(resumed)):
        require(fresh.get(key) == resumed.get(key),
                f"resumed summary differs in {key!r}: "
                f"{fresh.get(key)!r} != {resumed.get(key)!r}")
    require(normalize(on_disk) == resumed,
            "summary.json differs from the summary the resumed run returned")


def check_run_dir(run_dir, sub: Subsets, n_classes, mia_reps) -> dict:
    """Check a completed ppu-privacy run directory against its own files.

    The unlearned weights, the original weights and the refined targets are
    read back with this module's readers; the error rates, the selection
    and the residual the run reports must match recomputation.
    """
    run_dir = Path(run_dir)
    summary = json.loads((run_dir / "summary.json").read_text())
    method = json.loads((run_dir / "method.json").read_text())
    source = read_checkpoint(run_dir / "original.ckpt")
    unlearned = read_checkpoint(run_dir / "unlearned.ckpt")
    d_in = sub.x_train.shape[1]
    check_weights(source, d_in, n_classes)
    check_weights(unlearned, d_in, n_classes)

    got = errors(unlearned, sub)
    report = summary["eval_report"]
    for key, value in got.items():
        require(report.get(f"{key}_error") == value,
                f"summary {key} error {report.get(f'{key}_error')!r}, "
                f"recomputed {value!r}")

    trajectory = method["trajectory"]
    epoch = method["selected_epoch"]
    check_trajectory_entry(unlearned, trajectory, epoch, sub)
    reference = check_reference(source, sub,
                                method["flags"].get("selection_reference"))
    check_selection(trajectory, epoch, reference)
    ckpts = sorted((run_dir / "checkpoints").glob("epoch_*.ckpt"))
    require(len(ckpts) == len(trajectory),
            f"{len(ckpts)} checkpoint files for {len(trajectory)} epochs")
    selected = read_checkpoint(run_dir / "checkpoints" / f"epoch_{epoch:03d}.ckpt")
    require(all(np.array_equal(a, b) for a, b in zip(selected, unlearned)),
            "unlearned.ckpt differs from the selected epoch's checkpoint")

    refined = read_pmx(run_dir / "refined.pmx")
    residual = mass_residual(refined, source, sub)
    diag = summary["refine_diagnostics"]
    check_residual(residual, diag.get("final_residual"))
    mia = check_mia(summary["mia_report"], len(sub.forget[1]),
                    len(sub.test[1]), mia_reps)
    refine_record = json.loads((run_dir / "refined.json").read_text())

    files = [p for p in run_dir.rglob("*") if p.is_file()]
    return {
        "errors": got,
        "selection_gap": abs(got["forget"] - reference),
        "mass_residual": residual,
        "mia_accuracy": mia,
        "converged": bool(diag.get("converged")),
        "iterations": int(diag.get("iterations")),
        "step_halvings": len(refine_record.get("eta_schedule", [])) - 1,
        "snapshots": len(trajectory),
        "checkpoint_files": len(ckpts),
        "files": len(files),
        "bytes": sum(p.stat().st_size for p in files),
        "digest": digest(unlearned),
    }
