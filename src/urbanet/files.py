"""Atomic file replacement, UTF-8 text files whose decoding errors name
the line, and the checksummed container of both binary formats
(``.wgrd`` worlds, ``.unpk`` checkpoints).  Container layout::

    magic (4 bytes) | version u16 | header length u32 | header CRC32 u32
    header: ASCII JSON {"meta": ..., "arrays": [[name, dtype, shape, crc32], ...]}
    arrays: each array's little-endian C-order bytes, in directory order

The header, and then each array, is zero-padded to the next multiple of 64
bytes; each array starts where the one before it ends, so no offsets are
stored.  Each CRC32 covers its section's padding, and the header's also the
fields before it, so no byte of a file goes unchecked.  dtypes are ``<u1``,
``<u2``, ``<f4`` or ``<f8``.  A reader reads one section at a time, each
array when it is asked for, so it holds no array that its caller does not
keep.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError, IntegrityError

_PREFIX = 14  # magic, version, header length, header CRC32
_DTYPES = {np.dtype(code): code for code in ("<u1", "<u2", "<f4", "<f8")}


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
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path, error: type[Exception], noun: str) -> str:
    """The UTF-8 text of ``path``.  Bytes that are not UTF-8 raise
    ``error`` with "<path>, line N: not a text <noun> (<reason>)"."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise error(f"{path}, line {line}: not a text {noun} ({err.reason})") from None


def _padded(n: int) -> int:
    """``n`` rounded up to a multiple of 64."""
    return n + -n % 64


def write_container(path, magic: bytes, version: int, meta, arrays) -> None:
    """Atomically write ``meta`` (JSON-serializable) and the ``arrays``
    (name -> ndarray of a supported dtype, in file order) to ``path``."""
    directory, blobs = [], []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        raw = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
        pad = bytes(-raw.size % 64)
        directory.append([name, _DTYPES[arr.dtype], list(arr.shape),
                          zlib.crc32(pad, zlib.crc32(raw))])
        blobs += [raw, pad]
    text = json.dumps({"meta": meta, "arrays": directory}, separators=(",", ":"))
    header = text.encode("ascii") + bytes(-(_PREFIX + len(text)) % 64)
    lead = magic + struct.pack("<HI", version, len(text))
    with atomic_write(path, "wb") as fh:
        fh.write(lead + struct.pack("<I", zlib.crc32(header, zlib.crc32(lead))) + header)
        for blob in blobs:
            fh.write(blob)


class Container:
    """An open :func:`write_container` file whose prefix, header and size
    have been checked; see :func:`open_container`.  ``meta`` is the
    header's meta and ``arrays`` maps each array's name, in file order, to
    its (dtype, shape)."""

    def __init__(self, path, fh, meta, sections):
        self.path = path
        self.meta = meta
        self.arrays = {name: (dtype, shape) for name, (dtype, shape, *_) in sections.items()}
        self._fh = fh
        self._sections = sections

    def read(self, name: str) -> np.ndarray:
        """Array ``name``, read from the file and checked against its CRC at
        every call (IntegrityError): a read-only view of its own bytes."""
        dtype, shape, crc, lo, hi = self._sections[name]
        self._fh.seek(lo)
        raw = self._fh.read(hi - lo)
        if zlib.crc32(raw) != crc:
            raise IntegrityError(f"{self.path}: array {name!r} fails its checksum")
        return np.frombuffer(raw, dtype, math.prod(shape)).reshape(shape)


@contextmanager
def open_container(path, magic: bytes, version: int, schema):
    """Open a :func:`write_container` file for :meth:`Container.read`, with
    ``meta`` of the shape of ``schema`` (see :func:`_mismatch`).  Checks
    magic and version (FormatError), header CRC (IntegrityError), header
    shape (FormatError), then the size against the directory
    (IntegrityError); each array's CRC is checked as it is read.  The file
    stays open until the block ends, so one that :func:`atomic_write`
    replaces meanwhile is still read as it was."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(_PREFIX)
        if lead[:4] != magic or len(lead) < _PREFIX:
            raise FormatError(f"{path}: bad magic or prefix {lead!r}, expected {magic!r}")
        got, length, crc = struct.unpack_from("<HII", lead, 4)
        if got != version:
            raise FormatError(f"{path}: unsupported version {got}, expected {version}")
        start = _padded(_PREFIX + length)
        # a read allocates all it asks for, so a bad length asks no more than the file
        text = fh.read(min(start, size) - _PREFIX)
        if zlib.crc32(text, zlib.crc32(lead[:-4])) != crc:
            raise IntegrityError(f"{path}: header checksum mismatch")
        try:
            header = json.loads(text[:length])
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: header is not JSON: {exc}") from None
        problem = _mismatch(header, {"meta": schema, "arrays": [[str, str, [int], int]]})
        if problem is not None:
            raise FormatError(f"{path}: {problem}")
        sections, end = {}, start
        for name, dtype, shape, crc in header["arrays"]:
            if dtype not in _DTYPES.values():
                raise FormatError(f"{path}: array {name!r} has unknown dtype {dtype!r}")
            if min(shape, default=0) < 0:
                raise FormatError(f"{path}: array {name!r} has a negative dimension in {shape}")
            if name in sections:
                raise FormatError(f"{path}: duplicate array name {name!r}")
            lo, end = end, end + _padded(math.prod(shape) * np.dtype(dtype).itemsize)
            sections[name] = (dtype, tuple(shape), crc, lo, end)
        if size != end:
            raise IntegrityError(f"{path}: size mismatch (the directory needs {end} "
                                 f"bytes, the file has {size})")
        yield Container(path, fh, header["meta"], sections)


def _mismatch(value, schema, where: str = "header"):
    """Why the decoded JSON ``value`` does not have the shape of ``schema``,
    or None.  A type matches its instances (a bool is no int, a str must be
    ASCII), a dict the same keys with matching values, a one-item list any
    list of matches of its item, a longer list that many matches in turn."""
    if isinstance(schema, type):
        if not isinstance(value, schema) or isinstance(value, bool) and schema is not bool:
            return f"{where} must be {schema.__name__}, not {type(value).__name__}"
        if isinstance(value, str) and not value.isascii():
            return f"{where} {value!r} is not ASCII"
        return None
    if isinstance(schema, dict):
        if not isinstance(value, dict) or value.keys() != schema.keys():
            return f"{where} must be an object with keys {list(schema)}"
        items = [(value[key], sub, f"{where}.{key}") for key, sub in schema.items()]
    else:
        if not isinstance(value, list) or len(schema) > 1 and len(value) != len(schema):
            return f"{where} must be a list" + (f" of {len(schema)}" if len(schema) > 1 else "")
        items = [(item, schema[i if len(schema) > 1 else 0], f"{where}[{i}]")
                 for i, item in enumerate(value)]
    return next(filter(None, (_mismatch(*item) for item in items)), None)
