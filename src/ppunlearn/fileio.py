"""Atomic artifact writes: a file is written under a temporary name in its
own directory and renamed over the target only once it is complete, so a
process that dies mid-write leaves the old file (or none), never a
truncated one.  The rename does not flush to disk: it guards against a
crashed process, not against a power loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


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
