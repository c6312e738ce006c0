"""Row-stochastic probability matrices and the operations built on them.

The matrix is the data backbone of the whole pipeline: model outputs,
pseudo-probability targets and refined targets are all ``ProbMatrix``
instances.  Every row is a distribution over the K classes, floored at
``FLOOR`` so that KL divergences stay finite, and each row remembers which
dataset index it belongs to (the registry survives row substitution).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TargetError
from .fileio import atomic_open

FLOOR = 1e-12

_DUMP_FORMAT = "probmatrix"
_DUMP_VERSION = 1


class ProbMatrix:
    """N x K matrix of 64-bit class probabilities with a row-index registry.

    Construction validates that rows are (approximately) stochastic, then
    floors entries at ``FLOOR`` and renormalizes.  Instances are immutable:
    the underlying arrays are marked read-only and all operations return new
    matrices.
    """

    __slots__ = ("values", "row_ids")

    def __init__(self, values, row_ids=None):
        values = np.array(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ShapeError(f"expected a 2-D matrix, got shape {values.shape}")
        _check_stochastic(values, -1e-9)
        values = np.maximum(values, FLOOR)
        values /= values.sum(axis=1, keepdims=True)
        self.values = values
        self.row_ids = _check_row_ids(row_ids, values.shape[0])
        _freeze(self)

    @classmethod
    def _wrap(cls, values, row_ids=None):
        # Trusted path for rows already stochastic and floored; skips the
        # renormalization so that untouched rows stay bitwise identical.
        m = object.__new__(cls)
        m.values = values
        m.row_ids = _check_row_ids(row_ids, values.shape[0])
        _freeze(m)
        return m

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.values[i]

    def take(self, rows) -> "ProbMatrix":
        """Sub-matrix at the given row positions, registry carried along."""
        rows = np.asarray(rows, dtype=np.int64)
        return ProbMatrix._wrap(self.values[rows].copy(), self.row_ids[rows].copy())

    def __repr__(self):
        return f"ProbMatrix(n={self.n_rows}, k={self.n_classes})"


@dataclass(frozen=True)
class PseudoScheme:
    """How pseudo-probability rows are produced.

    ``uniform`` rows are exactly 1/K everywhere; ``random-softmax`` rows are
    the softmax of seeded standard-normal logits.  A seed is required exactly
    when the kind is random-softmax.
    """

    kind: str = "uniform"
    seed: int | None = None

    KINDS = ("uniform", "random-softmax")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown pseudo scheme kind {self.kind!r}")
        if self.kind == "random-softmax" and self.seed is None:
            raise ValueError("random-softmax scheme requires a seed")
        if self.kind == "uniform" and self.seed is not None:
            raise ValueError("uniform scheme takes no seed")


def _check_stochastic(values, min_entry, where=""):
    """Raise TargetError unless every entry is finite and at least
    ``min_entry`` and every row sums to 1 within 1e-6."""
    if not np.isfinite(values).all():
        raise TargetError(f"{where}probability entries must be finite")
    if values.size and values.min() < min_entry:
        raise TargetError(f"{where}probability entries must be non-negative")
    sums = values.sum(axis=1)
    if values.size and np.abs(sums - 1.0).max() > 1e-6:
        worst = int(np.abs(sums - 1.0).argmax())
        raise TargetError(
            f"{where}row {worst} sums to {sums[worst]:.9g}, expected 1"
        )


def _check_row_ids(row_ids, n):
    if row_ids is None:
        ids = np.arange(n, dtype=np.int64)
    else:
        ids = np.array(row_ids, dtype=np.int64)
        if ids.shape != (n,):
            raise ShapeError(f"registry length {ids.shape} != row count {n}")
    return ids


def _freeze(m):
    m.values.flags.writeable = False
    m.row_ids.flags.writeable = False


def kl_div(p, q) -> float:
    """KL divergence sum_k p_k ln(p_k / q_k) between two floored rows.

    Exactly zero when ``p`` and ``q`` are bitwise equal.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or p.shape != q.shape:
        raise ShapeError(f"row shapes differ: {p.shape} vs {q.shape}")
    return float(np.sum(p * np.log(p / q)))


def kl_rows(P: ProbMatrix, Q: ProbMatrix) -> np.ndarray:
    """Per-row KL divergences D(P_i || Q_i) as a length-N vector."""
    if P.values.shape != Q.values.shape:
        raise ShapeError(
            f"matrix shapes differ: {P.values.shape} vs {Q.values.shape}"
        )
    return np.sum(P.values * np.log(P.values / Q.values), axis=1)


def pseudo_generate(n: int, k: int, scheme: PseudoScheme) -> ProbMatrix:
    """Generate ``n`` pseudo-probability rows over ``k`` classes."""
    if n < 1 or k < 1:
        raise ShapeError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if scheme.kind == "uniform":
        vals = np.full((n, k), 1.0 / k)
        return ProbMatrix._wrap(vals)
    rng = np.random.default_rng(scheme.seed)
    logits = rng.standard_normal((n, k))
    logits -= logits.max(axis=1, keepdims=True)
    vals = np.exp(logits)
    vals /= vals.sum(axis=1, keepdims=True)
    return ProbMatrix(vals)


def class_mass(Q: ProbMatrix) -> np.ndarray:
    """Total probability per class: M_k = sum_i Q_ik (length-K vector)."""
    return Q.values.sum(axis=0)


def replace_rows(Q: ProbMatrix, idx, P: ProbMatrix) -> ProbMatrix:
    """Return Q with the rows at ``idx`` replaced by the rows of ``P``.

    Untouched rows are preserved bitwise; the registry keeps Q's dataset
    indices (substitution changes the distribution at a row, not which
    dataset point the row stands for).
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise IndexError(f"index list must be 1-D, got shape {idx.shape}")
    if idx.shape[0] != P.n_rows:
        raise ShapeError(
            f"{idx.shape[0]} indices but replacement has {P.n_rows} rows"
        )
    if P.n_classes != Q.n_classes:
        raise ShapeError(
            f"class counts differ: {Q.n_classes} vs {P.n_classes}"
        )
    if idx.size:
        if idx.min() < 0 or idx.max() >= Q.n_rows:
            raise IndexError("row index out of range")
        if np.unique(idx).size != idx.size:
            raise IndexError("duplicate row indices")
    vals = Q.values.copy()
    vals[idx] = P.values
    return ProbMatrix._wrap(vals, Q.row_ids.copy())


def dump_probmatrix(m: ProbMatrix, path) -> None:
    """Write the dump format: one JSON header line, then little-endian f64."""
    header = {
        "format": _DUMP_FORMAT,
        "version": _DUMP_VERSION,
        "n": m.n_rows,
        "k": m.n_classes,
        "row_ids": m.row_ids.tolist(),
    }
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(m.values, dtype="<f8").tobytes())


def load_probmatrix(path) -> ProbMatrix:
    """Read a dump written by ``dump_probmatrix``.

    The payload must be exactly n * k values, all finite and non-negative,
    with every row summing to 1 within 1e-6; the values are then kept
    bitwise as stored.  A malformed header (a version other than 1, a count
    or row id other than an int64 JSON integer) or payload size raises
    ShapeError, bad values raise TargetError.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ShapeError(f"not a probmatrix dump: {path}") from exc
        if not isinstance(header, dict) or header.get("format") != _DUMP_FORMAT:
            raise ShapeError(f"not a probmatrix dump: {path}")
        version, n, k, row_ids = (header.get(key) for key in
                                  ("version", "n", "k", "row_ids"))
        if not (version == _DUMP_VERSION and isinstance(row_ids, list)
                and all(type(v) is int and v >= 0 for v in (version, n, k))
                and all(type(i) is int and -2**63 <= i < 2**63
                        for i in row_ids)):
            raise ShapeError(f"{path}: malformed probmatrix header")
        raw = fh.read()
    if len(raw) != n * k * 8:
        raise ShapeError(
            f"{path}: {len(raw)} payload bytes, expected {n * k * 8} "
            f"for a {n} x {k} matrix"
        )
    vals = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(n, k)
    _check_stochastic(vals, 0.0, f"{path}: ")
    return ProbMatrix._wrap(vals, row_ids)
