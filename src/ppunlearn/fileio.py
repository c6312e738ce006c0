"""Artifact files: atomic writes and the one JSON record format.

A file is written under a temporary name in its own directory and renamed
over the target only once it is complete, so a process that dies mid-write
leaves the old file (or none), never a truncated one.  The rename does not
flush to disk: it guards against a crashed process, not against a power
loss.  Every JSON record (run-directory files, checkpoint sidecars, dataset
manifests, refine records) is indented by 2, has sorted keys and ends in a
newline.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

from .errors import DataError


@contextmanager
def atomic_open(path, mode="w"):
    """Open a temporary file beside ``path`` for writing in ``mode`` ("w" or
    "wb"); a clean exit renames it to ``path``, an error removes it."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_json(path, payload) -> None:
    """Write ``payload`` as a JSON record, atomically."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """Parse a JSON file; content that does not decode (a file truncated by
    a crash, say) raises DataError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
