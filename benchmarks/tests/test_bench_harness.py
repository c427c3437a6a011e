"""Self-tests of the benchmark harness: span arithmetic, wrapper removal,
the metric lists in BENCHMARK.json, and a tiny-world run of every workload
that must pass its own output checks."""

import importlib
import json
import types
from pathlib import Path

import pytest

import layers
import run
import workloads
from spans import Span, Tracer, self_times, totals_by_name

ROOT = Path(__file__).resolve().parents[2]
TINY = workloads.Scale(side=24, eval_side=24, epochs=1, phase2_epochs=1)


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bound_objects():
    out = []
    for module_name, path, _, _ in layers.BINDINGS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        held = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        out.append(held)
    return out


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 5.0, 9.0),
        Span(3, 2, "a", 6.0, 7.0),
        Span(4, None, "root", 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 1.0}
    roots = sum(s.duration for s in spans if s.parent is None)
    assert sum(own.values()) == pytest.approx(roots)

    totals = totals_by_name(spans)
    assert totals["a"].calls == 2
    assert totals["a"].total == pytest.approx(4.0)
    assert totals["a"].self == pytest.approx(4.0)
    assert totals["root"].self == pytest.approx(4.0)


def test_overlapping_children_are_counted_once():
    spans = [Span(0, None, "p", 0.0, 10.0), Span(1, 0, "c", 2.0, 6.0),
             Span(2, 0, "c", 4.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_spans_record_parents_and_counters():
    owner = types.SimpleNamespace()
    owner.inner = lambda x: x + 1
    owner.outer = lambda x: owner.inner(x) * 2
    tracer = Tracer()
    with tracer.installed(()):
        tracer.wrap(owner, "inner", "in", lambda a, k, r: {"n": r})
        tracer.wrap(owner, "outer", "out")
        assert owner.outer(1) == 4
    outer, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert (outer.name, outer.parent) == ("out", None)
    assert (inner.name, inner.parent, inner.attrs) == ("in", outer.id, {"n": 2})


def test_wrappers_are_installed_and_restored():
    before = _bound_objects()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(layers.BINDINGS):
            during = _bound_objects()
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("interrupt the traced region")
    assert all(a is b for a, b in zip(before, _bound_objects()))


def test_benchmark_json_lists_what_the_harness_reports():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_names = [m["name"] for m in spec["per_layer"]]
    assert set(layers.PER_LAYER) <= set(layer_names)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == v[3] for k, v in layers.PER_LAYER.items())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_world_run_passes_its_checks(name, tmp_path):
    spec = _bench_json()
    workload = workloads.WORKLOADS[name](TINY)

    metrics, checks, ops, details = run.end_to_end(
        workload, 3, 2 * workload.unit_s, str(tmp_path))
    assert details["units"] == 2 and ops > 0
    assert checks["repeat_units_identical_loss"] and all(checks.values()), checks
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())

    metrics, checks, _, _ = run.per_layer(workload, 3, str(tmp_path), tmp_path / "s.json")
    assert all(checks.values()), checks
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert metrics["unet.forward_calls"][0] > 0
    rows = json.loads((tmp_path / "s.json").read_text())
    assert len(rows) == metrics["trace.spans"][0]
