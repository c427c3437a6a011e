"""Shared fixtures of the package tests."""

from __future__ import annotations

import builtins
import json
import math
import struct
import zlib

import numpy as np
import pytest

from urbanet import files


class HalfWriter:
    """A file whose first write stores half its data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class FailingWrites:
    """Once armed, every atomic write fails midway; ``opened`` lists the
    temporary files it started."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.opened = []

    def arm(self):
        def half_open(path, mode, **kwargs):
            self.opened.append(path)
            return HalfWriter(builtins.open(path, mode, **kwargs))

        self.monkeypatch.setattr(files, "open", half_open, raising=False)


@pytest.fixture
def failing_writes(monkeypatch):
    return FailingWrites(monkeypatch)


@pytest.fixture
def reseal():
    return reseal_container


def reseal_container(path, edit):
    """Tamper with the container file at ``path`` behind valid checksums.

    ``edit(header, arrays)`` gets the decoded JSON header ({"meta": ...,
    "arrays": [[name, dtype, shape, crc32], ...]}) and a list of writable
    copies of the arrays in directory order, and changes either in place.
    The file is then rewritten in the container layout: each directory
    entry's CRC recomputed from the array at its position, the header
    re-padded and its CRC renewed.  So a reader gets past every checksum to
    the check a test aims at.  A header that ``edit`` returns is written
    instead, as it is: one that need not be a directory at all.
    """
    raw = path.read_bytes()
    version, length = struct.unpack_from("<HI", raw, 4)
    header = json.loads(raw[14:14 + length])
    arrays, offset = [], 14 + length + -(14 + length) % 64
    for _, dtype, shape, _ in header["arrays"]:
        count = math.prod(shape)
        arrays.append(np.frombuffer(raw, dtype, count, offset).reshape(tuple(shape)).copy())
        offset += count * np.dtype(dtype).itemsize
        offset += -offset % 64
    replaced = edit(header, arrays)
    blobs = [a.tobytes() + bytes(-a.nbytes % 64) for a in arrays]
    for entry, blob in zip(header["arrays"], blobs):
        entry[3] = zlib.crc32(blob)
    text = json.dumps(header if replaced is None else replaced, separators=(",", ":"))
    text = text.encode("ascii")
    body = text + bytes(-(14 + len(text)) % 64)
    lead = raw[:4] + struct.pack("<HI", version, len(text))
    crc = struct.pack("<I", zlib.crc32(body, zlib.crc32(lead)))
    path.write_bytes(lead + crc + body + b"".join(blobs))
