"""Tests of the benchmark harness's own logic (not of atlasreg).

    python3 -m pytest bench/test_harness.py -q
"""
from __future__ import annotations

import importlib
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class StepClock:
    """Clock whose time each thread sets explicitly."""

    def __init__(self):
        self._local = threading.local()

    def set(self, t: float) -> None:
        self._local.t = t

    def __call__(self) -> float:
        return self._local.t


def test_self_time_of_nested_spans():
    clock = StepClock()
    tracer = spans.Tracer(clock=clock)
    clock.set(0.0)
    outer = tracer.open("a.outer")
    clock.set(1.0)
    child = tracer.open("a.child")
    clock.set(2.0)
    grandchild = tracer.open("a.grandchild")
    clock.set(2.5)
    tracer.close(grandchild)
    clock.set(4.0)
    tracer.close(child)
    clock.set(5.0)
    second = tracer.open("a.child")
    clock.set(6.0)
    tracer.close(second)
    clock.set(10.0)
    tracer.close(outer)

    assert outer.total_s == 10.0 and outer.self_s == 6.0
    assert child.total_s == 3.0 and child.self_s == 2.5
    assert grandchild.self_s == 0.5
    assert {s.parent for s in (child, second)} == {"a.outer"}
    summary = tracer.summary()
    assert summary["a.child"].calls == 2
    assert summary["a.child"].self_s == 3.5
    assert summary["a.child"].total_s == 4.0
    assert len({s.trace_id for s in tracer.spans}) == 1


def test_summary_by_phase():
    tracer = spans.Tracer()
    tracer.phase = "setup"
    with tracer.span("phantom.generate_phantom"):
        tracer.phase = "timed"  # a span keeps the phase it opened in
    with tracer.span("registration.register_ffd"):
        pass
    assert set(tracer.summary("setup")) == {"phantom.generate_phantom"}
    assert set(tracer.summary("timed")) == {"registration.register_ffd"}
    assert len(tracer.summary()) == 2


def test_self_time_with_two_overlapping_threads():
    clock = StepClock()
    tracer = spans.Tracer(clock=clock)
    barrier = threading.Barrier(2, timeout=10)
    opened: dict[str, tuple] = {}

    def work(name, t):
        clock.set(t[0])
        outer = tracer.open(f"{name}.outer")
        barrier.wait()
        clock.set(t[1])
        inner = tracer.open(f"{name}.inner")
        barrier.wait()  # both threads now hold two open spans
        clock.set(t[2])
        tracer.close(inner)
        barrier.wait()
        clock.set(t[3])
        tracer.close(outer)
        opened[name] = (outer, inner)

    threads = [threading.Thread(target=work, args=("x", (0.0, 1.0, 3.0, 4.0))),
               threading.Thread(target=work, args=("y", (0.5, 2.0, 7.0, 9.0)))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    (x_outer, x_inner), (y_outer, y_inner) = opened["x"], opened["y"]
    # each outer span loses only its own thread's child
    assert x_outer.self_s == 4.0 - 2.0
    assert y_outer.self_s == 8.5 - 5.0
    assert x_inner.trace_id == x_outer.trace_id
    assert y_inner.trace_id == y_outer.trace_id
    assert x_outer.trace_id != y_outer.trace_id


def test_registration_entry_opens_new_trace_unless_nested():
    tracer = spans.Tracer()
    with tracer.span("fusion.build_pseudo_labels") as top:
        with tracer.span("registration.register") as reg:
            with tracer.span("registration.register_ffd") as ffd:
                pass
        with tracer.span("registration.register") as reg2:
            pass
    assert reg.trace_id != top.trace_id
    assert ffd.trace_id == reg.trace_id
    assert reg2.trace_id not in (top.trace_id, reg.trace_id)


def test_binding_discovery_finds_every_module_binding():
    import atlasreg  # noqa: F401

    objective_mod = importlib.import_module("atlasreg.objective")
    found = {(m.__name__, attr): fn for m, attr, fn in spans.public_bindings()}
    assert found[("atlasreg.registration", "objective")] is objective_mod.objective
    assert found[("atlasreg.objective", "dense_displacement")].__module__ == "atlasreg.transforms"
    assert ("atlasreg.fusion", "register") in found
    assert not any(attr.startswith("_") for _, attr in found)


def test_install_records_calls_per_binding_and_uninstall_restores():
    import atlasreg

    transforms = importlib.import_module("atlasreg.transforms")
    objective_mod = importlib.import_module("atlasreg.objective")
    original = transforms.grid_dim_for
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert transforms.grid_dim_for is not original
        transforms.grid_dim_for(10, 2.0)
        with tracer.quiet():
            transforms.grid_dim_for(10, 2.0)
        assert [(s.name, s.binding) for s in tracer.spans] == [
            ("transforms.grid_dim_for", "transforms")]
        vol = atlasreg.Volume(np.random.default_rng(0).normal(size=(8, 8, 8)).astype(np.float32),
                              (1.0, 1.0, 1.0))
        ffd = atlasreg.BSplineTransform.zeros(vol, 4.0)
        objective_mod.objective(vol, vol, ffd, ffd, atlasreg.ObjectiveWeights(),
                                with_gradient=False)
    finally:
        tracer.uninstall()
    assert transforms.grid_dim_for is original
    summary = tracer.summary()
    assert summary["objective.objective.value"].calls == 1
    assert "objective.objective.grad" not in summary
    assert summary["objective.similarity_and_gradient"].calls_by_binding == {"objective": 2}
    assert "objective.objective" in tracer.names
    assert layers.absent_functions(tracer.names) == []


def test_missing_function_reads_zero_and_is_reported_absent():
    known = {n for *_, names in layers.SPAN_METRICS for n in names}
    known = {layers._function_of(n) for n in known} - {"objective.inconsistency_gradient"}
    assert layers.absent_functions(known) == ["objective.inconsistency_gradient"]
    metrics = layers.layer_metrics({}, [], 1.0, 1.0)
    assert {name for name, _ in layers.ALL_METRICS} == set(metrics)
    assert metrics["objective.inconsistency.self_s"]["value"] == 0.0
    assert metrics["registration.ffd.probe_accept_ratio"]["value"] == 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_inputs_are_byte_identical_for_a_seed(workload):
    first = workloads.input_digest(workloads.make_inputs(workload, 5))
    again = workloads.input_digest(workloads.make_inputs(workload, 5))
    other = workloads.input_digest(workloads.make_inputs(workload, 6))
    assert first == again
    assert first != other


def test_label_checks_reject_bad_outputs():
    inputs = workloads.make_inputs("pseudo_label", 0)
    target, gt = inputs["target"], inputs["gt"]
    assert workloads.label_problem(gt, target) is None
    empty = type(gt)(np.zeros_like(gt.data), gt.spacing)
    assert "foreground" in workloads.label_problem(empty, target)
    bad = type(gt)(gt.data, gt.spacing)
    object.__setattr__(bad, "data", np.where(gt.data == 1, 7, gt.data).astype(np.uint8))
    assert "class ids" in workloads.label_problem(bad, target)
    shifted = type(gt)(gt.data, gt.spacing, origin=(1.0, 0.0, 0.0))
    assert "geometry" in workloads.label_problem(shifted, target)
