"""Atomic writes: a writer that fails midway leaves the old file as it was
and no temporary file behind.  The checksummed container: every changed,
cut or appended byte of a world or a checkpoint is refused as a format or
integrity error, and a header of the wrong shape as a format error.  The
commands that read a world one plane at a time refuse it too, with exit 2,
bytes of a plane they never keep included."""

from __future__ import annotations

import copy
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from urbanet.cli import main
from urbanet.errors import FormatError, IntegrityError
from urbanet.evaluate import EvalReport, MetricsRow, export_scatter, save_report
from urbanet.files import atomic_write, open_container, write_container
from urbanet.grid import WorldGrid, load_grid, save_grid
from urbanet.synth import INPUT_CHANNELS, TARGET_CHANNELS, SynthConfig, gen_world
from urbanet.trainer import EpochStats, TrainConfig, TrainHistory, save_config, save_history
from urbanet.unet import UNetSpec, init_params, load_params, save_params


def report_of(n):
    report = EvalReport()
    for k in range(n):
        report.add(MetricsRow(scope=f"R{k:02d}", stratum="all", n_cells=10 + k,
                              mean_abs=0.1 * k, max_abs=1.0, std=0.5, r2=0.25,
                              model="U-Net (sz16)", window=16))
    return report


def history_of(n):
    rows = tuple(EpochStats(k + 1, "train", 1.0 / (k + 1), 2.0 / (k + 1), 0.5)
                 for k in range(n))
    return TrainHistory(rows=rows, best_epoch=n, best_val_loss=rows[-1].val_loss)


def scatter(path, n):
    values = np.linspace(0.0, 1.0, 4 * n).reshape(2 * n, 2)
    export_scatter(values, values[::-1], np.ones_like(values, bool), path,
                   target_name="delta_urban")


# name -> (file name, write an old version, write a new one)
WRITERS = {
    "grid": ("w.wgrd",
             lambda p: save_grid(gen_world(SynthConfig(seed=1, height=12, width=12)), p),
             lambda p: save_grid(gen_world(SynthConfig(seed=2, height=16, width=16)), p)),
    "params": ("m.unpk",
               lambda p: save_params(init_params(UNetSpec(3, 2, 1), 0), p),
               lambda p: save_params(init_params(UNetSpec(3, 2, 1), 1), p)),
    "report": ("r.csv", lambda p: save_report(report_of(1), p),
               lambda p: save_report(report_of(3), p)),
    "config": ("t.cfg", lambda p: save_config(TrainConfig(), p),
               lambda p: save_config(TrainConfig(batch_size=8), p)),
    "history": ("h.csv", lambda p: save_history(history_of(1), p),
                lambda p: save_history(history_of(4), p)),
    "scatter": ("s.svg", lambda p: scatter(p, 2), lambda p: scatter(p, 5)),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, failing_writes, kind):
    name, write_old, write_new = WRITERS[kind]
    target = tmp_path / name
    write_old(target)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    failing_writes.arm()
    with pytest.raises(OSError):
        write_new(target)
    assert failing_writes.opened
    assert all(p.parent == tmp_path for p in failing_writes.opened)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    write_new(target)  # and the real write replaces it
    assert target.read_bytes() != before[name]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)


def test_clean_exit_replaces_and_exception_keeps(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(target, "wb") as fh:
            fh.write(b"partial new")
            raise RuntimeError("interrupted")
    assert target.read_bytes() == b"old"
    with atomic_write(target, "wb") as fh:
        fh.write(b"new")
    assert target.read_bytes() == b"new"
    with atomic_write(tmp_path / "fresh.txt", newline="") as fh:
        fh.write("a\r\nb\n")
    assert (tmp_path / "fresh.txt").read_bytes() == b"a\r\nb\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.txt", "out.bin"]


def test_missing_directory_leaves_nothing(tmp_path):
    with pytest.raises(OSError):
        with atomic_write(tmp_path / "no" / "such" / "file"):
            pass
    assert list(tmp_path.iterdir()) == []


def test_container_round_trip(tmp_path):
    arrays = {"bytes": np.arange(5, dtype=np.uint8),
              "codes": np.arange(6, dtype=np.uint16).reshape(2, 3),
              "empty": np.zeros((0, 4), np.float32),
              "scalar": np.array(2.5),
              "planes": np.linspace(0.0, 1.0, 24).reshape(2, 3, 4)}
    meta = {"name": "x", "sizes": [1, 2], "nested": {"flag": True, "none": None}}
    path = tmp_path / "c.bin"
    write_container(path, b"TEST", 7, meta, arrays)
    assert path.stat().st_size % 64 == 0
    with open_container(path, b"TEST", 7, dict) as src:
        assert src.meta == meta and list(src.arrays) == list(arrays)
        for name, arr in arrays.items():
            back = src.read(name)
            assert back.dtype == arr.dtype and back.shape == arr.shape
            np.testing.assert_array_equal(back, arr)
            assert not back.flags.writeable
    with pytest.raises(FormatError, match="unsupported version 7, expected 8"):
        with open_container(path, b"TEST", 8, dict):
            pass
    with pytest.raises(FormatError, match="header.meta must be an object with keys"):
        with open_container(path, b"TEST", 7, {"name": str}):
            pass


def test_loading_holds_one_copy_of_the_file(tmp_path):
    # one section is read at a time, and each array is a view of its own
    # bytes; reading the whole file first peaked at 2.0 times its size
    mask = np.ones((256, 256), np.uint8)
    rng = np.random.default_rng(0)
    save_grid(WorldGrid(mask=mask, regions=mask.astype(np.uint16),
                        channels={f"ch{k}": rng.random(mask.shape) for k in range(11)},
                        region_table={1: "R01"}), tmp_path / "w.wgrd")
    size = (tmp_path / "w.wgrd").stat().st_size
    tracemalloc.start()
    try:
        load_grid(tmp_path / "w.wgrd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * size, peak / size


def small_world():
    mask = np.array([[1, 0], [1, 1]], np.uint8)
    return WorldGrid(mask=mask, regions=mask.astype(np.uint16) * 7,
                     channels={"ch0": np.array([[0.5, 0.0], [1.5, 2.5]])},
                     region_table={7: "AAA"})


# name -> (file name, write a small valid file, its loader)
FORMATS = {
    "grid": ("w.wgrd", lambda p: save_grid(small_world(), p), load_grid),
    "params": ("m.unpk", lambda p: save_params(init_params(UNetSpec(3, 2, 1), 0), p),
               load_params),
}


@pytest.fixture(scope="module")
def sealed(tmp_path_factory):
    """name -> (a scratch path, the valid file's bytes, its loader)."""
    out = {}
    for kind, (name, write, load) in FORMATS.items():
        path = tmp_path_factory.mktemp(kind) / name
        write(path)
        out[kind] = (path, path.read_bytes(), load)
    assert len(out["grid"][1]) == 384 and len(out["params"][1]) == 3584
    return out


def refused(sealed, kind, data) -> None:
    path, _, load = sealed[kind]
    path.write_bytes(bytes(data))
    with pytest.raises((FormatError, IntegrityError)):
        load(path)


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_changed_byte_is_refused(sealed, kind, data):
    good = sealed[kind][1]
    at = data.draw(st.integers(0, len(good) - 1), label="position")
    flip = data.draw(st.integers(1, 255), label="xor")
    bad = bytearray(good)
    bad[at] ^= flip
    refused(sealed, kind, bad)


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_truncation_or_append_is_refused(sealed, kind, data):
    good = sealed[kind][1]
    if data.draw(st.booleans(), label="append"):
        refused(sealed, kind, good + data.draw(st.binary(min_size=1), label="tail"))
    else:
        refused(sealed, kind, good[:data.draw(st.integers(0, len(good) - 1), label="cut")])


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_a_bit_flip_at_every_byte_is_refused(sealed, kind):
    good = sealed[kind][1]
    for at in range(len(good)):
        bad = bytearray(good)
        bad[at] ^= 0x80 if at % 2 else 0x01  # the lowest and the highest bit
        refused(sealed, kind, bad)


def nodes(value, where=()):
    """(path, value) of every node of a decoded JSON value, the root first."""
    yield where, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from nodes(item, where + (key,))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # reseal is stateless
@given(data=st.data())
def test_header_of_the_wrong_json_type_is_format_error(sealed, kind, reseal, data):
    path, good, load = sealed[kind]

    def retype(header, arrays):
        # every node below the root (wrapped_header covers the root)
        where, old = data.draw(st.sampled_from(list(nodes(header))[1:]), label="node")
        new = data.draw(JSON.filter(lambda v: type(v) is not type(old)), label="value")
        header = copy.deepcopy(header)  # reseal renews the CRCs of the original
        parent = header
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = new
        return header

    path.write_bytes(good)
    reseal(path, retype)
    with pytest.raises(FormatError):
        load(path)


def rename_second_array(header, arrays):
    header["arrays"][1][0] = header["arrays"][0][0]


def unknown_dtype(header, arrays):
    header["arrays"][0][1] = "<i8"


def negative_dim(header, arrays):
    header["arrays"][0][2][0] = -1


def bool_dim(header, arrays):
    header["arrays"][0][2][0] = True  # JSON true is no integer


def extra_key(header, arrays):
    header["extra"] = 1


def wrapped_header(header, arrays):
    return [header]


def meta_field_retyped(header, arrays):
    header["meta"]["channels" if "channels" in header["meta"] else "spec"] = "ch0"


@pytest.mark.parametrize("kind", sorted(FORMATS))
@pytest.mark.parametrize("edit, message", [
    (rename_second_array, "duplicate array name"),
    (unknown_dtype, "unknown dtype '<i8'"),
    (negative_dim, "negative dimension"),
    (bool_dim, r"header.arrays\[0\]\[2\]\[0\] must be int, not bool"),
    (extra_key, "header must be an object with keys"),
    (wrapped_header, "header must be an object with keys"),
    (meta_field_retyped, "must be"),
], ids=["duplicate-name", "unknown-dtype", "negative-dim", "bool-dim", "extra-key",
     "header-list", "meta-type"])
def test_valid_checksum_bad_header_is_format_error(sealed, kind, reseal, edit, message):
    path, good, load = sealed[kind]
    path.write_bytes(good)
    reseal(path, edit)
    with pytest.raises(FormatError, match=message) as exc:
        load(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_reseal_alone_keeps_a_file_loadable(sealed, reseal):
    # the ported corruption tests rely on it: an unedited reseal is exact
    for path, good, load in sealed.values():
        path.write_bytes(good)
        reseal(path, lambda header, arrays: None)
        assert path.read_bytes() == good
        load(path)


def section(raw: bytes, name: str) -> range:
    """The byte positions of array ``name``'s section, padding included,
    in the container bytes ``raw``."""
    length = struct.unpack_from("<I", raw, 6)[0]
    start = 14 + length + -(14 + length) % 64
    for entry, dtype, shape, _ in json.loads(raw[14:14 + length])["arrays"]:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        end = start + size + -size % 64
        if entry == name:
            return range(start, end)
        start = end
    raise KeyError(name)


def command_world():
    """A 4x4 world of two regions with every input channel and both targets."""
    rng = np.random.default_rng(0)
    mask = np.ones((4, 4), np.uint8)
    regions = np.repeat(np.array([1, 2], np.uint16), 8).reshape(4, 4)
    return WorldGrid(mask=mask, regions=regions,
                     channels={name: rng.random((4, 4))
                               for name in INPUT_CHANNELS + TARGET_CHANNELS},
                     region_table={1: "R01", 2: "R02"})


# command -> (its arguments besides --grid, the array it reads and never keeps)
COMMANDS = {
    # a single-head eval scores delta_urban only
    "eval": (["eval", "--window", "16", "--pad", "8", "--test-regions", "R02",
              "--split", "all", "--checkpoint", "CKPT", "--report", "OUT/r.csv",
              "--pred-out", "OUT/pred.wgrd"],
             f"channel.{len(INPUT_CHANNELS) + 1}"),
    # split keeps the mask and the regions only
    "split": (["split", "--test-regions", "R02"], "channel.0"),
}


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """command -> (its argv, the world file it reads, the world's bytes,
    the directory its outputs go to).  Each runs on the intact world first."""
    base = tmp_path_factory.mktemp("commands")
    ckpt = base / "m.unpk"
    save_params(init_params(UNetSpec(len(INPUT_CHANNELS), 2, 1), 0), ckpt)
    out = {}
    for name, (args, _) in COMMANDS.items():
        world, outputs = base / f"{name}.wgrd", base / f"{name}-out"
        save_grid(command_world(), world)
        outputs.mkdir()
        argv = [a.replace("CKPT", str(ckpt)).replace("OUT", str(outputs)) for a in args]
        argv += ["--grid", str(world)]
        assert main(argv) == 0
        for path in outputs.iterdir():
            path.unlink()
        out[name] = (argv, world, world.read_bytes(), outputs)
    return out


def command_refuses(commands, name, data) -> None:
    argv, world, _, outputs = commands[name]
    world.write_bytes(bytes(data))
    assert main(argv) == 2
    assert list(outputs.iterdir()) == []  # no report, no predicted planes


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_commands_refuse_any_changed_byte(commands, name, data):
    good = commands[name][2]
    kept_out = section(good, COMMANDS[name][1])
    at = data.draw(st.integers(0, len(good) - 1)
                   | st.integers(kept_out.start, kept_out.stop - 1), label="position")
    bad = bytearray(good)
    bad[at] ^= data.draw(st.integers(1, 255), label="xor")
    command_refuses(commands, name, bad)


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_commands_refuse_any_truncation_or_append(commands, name, data):
    good = commands[name][2]
    if data.draw(st.booleans(), label="append"):
        command_refuses(commands, name, good + data.draw(st.binary(min_size=1), label="tail"))
    else:
        command_refuses(commands, name,
                        good[:data.draw(st.integers(0, len(good) - 1), label="cut")])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_commands_refuse_a_bit_flip_in_a_plane_they_never_keep(commands, name):
    good = commands[name][2]
    for at in section(good, COMMANDS[name][1]):
        bad = bytearray(good)
        bad[at] ^= 0x80 if at % 2 else 0x01
        command_refuses(commands, name, bad)
