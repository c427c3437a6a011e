"""Shared fixtures of the package tests."""

from __future__ import annotations

import builtins

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
