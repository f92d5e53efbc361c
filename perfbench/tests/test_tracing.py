import json
import math
from pathlib import Path

import numpy as np
import pytest

import layers
from workloads import WORKLOADS
from tracing import Span, Tracer, inclusive_time, self_time_by, self_times


def test_self_time_from_synthetic_nested_spans():
    spans = [
        Span(0, None, "experiments.run", 0.0, 10.0),
        Span(1, 0, "lindblad.build", 1.0, 4.0),
        Span(2, 1, "hilbert.embed", 2.0, 3.0),
        Span(3, 0, "lindblad.solve", 5.0, 7.0),
        Span(4, None, "results.write", 11.0, 11.5),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 0.5}
    by_layer = self_time_by(spans, lambda n: n.split(".")[0])
    assert by_layer == {"experiments": 5.0, "lindblad": 4.0, "hilbert": 1.0, "results": 0.5}
    # self times partition the traced wall time
    assert sum(by_layer.values()) == pytest.approx(10.5)


def test_inclusive_time_counts_reentrant_calls_once():
    spans = [
        Span(0, None, "dde.series", 0.0, 10.0),
        Span(1, 0, "dde.series", 2.0, 5.0),
        Span(2, 1, "hilbert.op", 3.0, 4.0),
        Span(3, None, "dde.series", 12.0, 13.0),
    ]
    assert inclusive_time(spans, lambda n: n == "dde.series") == pytest.approx(11.0)
    assert inclusive_time(spans, lambda n: n.startswith("hilbert.")) == pytest.approx(1.0)


def _snapshot(mods):
    """Every reference a tracer may replace: module attributes, the values of
    dict attributes, and the attributes of classes defined in the module."""
    snap = {}
    for mod in mods:
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = val
            if isinstance(val, dict) and not key.startswith("__"):
                for k, v in val.items():
                    snap[(mod.__name__, key, k)] = v
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for attr, member in vars(val).items():
                    snap[(mod.__name__, key, "attr", attr)] = member
    return snap


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_wrappers_restored_after_traced_run():
    mods = layers.modules()
    before = _snapshot(mods)
    tracer = layers.full_tracer()
    experiments = next(m for m in mods if m.__name__ == "mirrorqed.experiments")
    with tracer:
        assert not _same(before, _snapshot(mods))
        pop = experiments.model_decay_curve(0.5, math.pi / 2, 2.0, 0, np.linspace(0, 1, 5))
    assert pop.shape == (5,)
    names = {s.name for s in tracer.spans}
    assert {"experiments.model_decay_curve", "lindblad.integrate_me",
            "hilbert.CompositeSpace.embed", "model.params_from_dimensionless"} <= names
    assert tracer.values["lindblad.superop_nnz"] and tracer.values["lindblad.rhs_evals"]
    assert _same(before, _snapshot(mods))

    # restored also when the traced code raises
    with pytest.raises(ValueError):
        with tracer:
            experiments.model_decay_curve(-1.0, 0.0, 2.0, 0, np.linspace(0, 1, 5))
    assert _same(before, _snapshot(mods))


def test_count_only_targets_get_no_span():
    def leaf(x):
        return x + 1

    def outer(x):
        return wrapped_leaf(x) * 2

    tracer = Tracer([], {}, count_only=("m.leaf",))
    wrapped_leaf = tracer.wrap("m.leaf", leaf)
    assert tracer.wrap("m.outer", outer)(1) == 4
    assert tracer.calls == {"m.leaf": 1, "m.outer": 1}
    assert [s.name for s in tracer.spans] == ["m.outer"]


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {k: w.why for k, w in WORKLOADS.items()}
    produced = layers.layer_metrics(Tracer([], {}), {"bytes": 0, "cpu_s": 0.0})
    assert [m["name"] for m in spec["per_layer"]] == list(produced) + ["trace_overhead"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == unit for k, (_, unit) in produced.items())
