"""Atomic file replacement: a reader of the target sees the old file or the
new one, never a part of either."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", **open_args):
    """Open a new file beside ``path`` for writing (``mode`` "w" or "wb",
    ``open_args`` as for ``open``).  A clean exit renames it over ``path``
    with ``os.replace``; an exception removes it and leaves ``path`` as it
    was.

    The file is made in the target's directory so the rename stays within
    one file system.  There is no fsync: the old file survives an error or
    a killed process, not a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
