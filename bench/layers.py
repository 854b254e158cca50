"""Per-layer metrics of the traced run, derived from the recorded spans.

Layer names are `atlasreg` module names. `self_s` excludes the time of child
spans on the same thread; `total_s` includes it. Metrics read the spans of
the timed sections, except those in SETUP_METRICS, which read the set-up's. A metric built from a
function that no longer exists reads 0 and its function is listed as absent,
so a later rename never breaks a run.
"""
from __future__ import annotations

from spans import SPAN_KINDS, LayerStats

# (metric, unit, kind, span names summed); kind is calls, total_s, self_s or
# ms_per_call. A name "module.function@binding" counts only calls that went
# through that module's binding of the function.
SPAN_METRICS = (
    ("registration.register_affine.calls", "count", "calls", ("registration.register_affine",)),
    ("registration.register_affine.total_s", "s", "total_s", ("registration.register_affine",)),
    ("registration.affine.nmi_evals", "count", "calls", ("objective.nmi@registration",)),
    ("registration.register_ffd.total_s", "s", "total_s", ("registration.register_ffd",)),
    ("registration.build_pyramid.self_s", "s", "self_s", ("registration.build_pyramid",)),
    ("objective.objective.grad.calls", "count", "calls", ("objective.objective.grad",)),
    ("objective.objective.grad.ms_per_call", "ms", "ms_per_call", ("objective.objective.grad",)),
    ("objective.objective.value.calls", "count", "calls", ("objective.objective.value",)),
    ("objective.objective.value.ms_per_call", "ms", "ms_per_call", ("objective.objective.value",)),
    ("objective.similarity_and_gradient.self_s", "s", "self_s",
     ("objective.similarity_and_gradient",)),
    ("objective.inconsistency.self_s", "s", "self_s",
     ("objective.inconsistency_penalty", "objective.inconsistency_gradient")),
    ("objective.nmi.calls", "count", "calls", ("objective.nmi@objective",)),
    ("objective.bending.self_s", "s", "self_s",
     ("objective.bending_energy", "objective.bending_energy_gradient")),
    ("transforms.splat_to_coefficients.calls", "count", "calls",
     ("transforms.splat_to_coefficients",)),
    ("transforms.splat_to_coefficients.self_s", "s", "self_s",
     ("transforms.splat_to_coefficients",)),
    ("transforms.dense_displacement.calls", "count", "calls", ("transforms.dense_displacement",)),
    ("transforms.dense_displacement.self_s", "s", "self_s", ("transforms.dense_displacement",)),
    ("transforms.subdivide.self_s", "s", "self_s", ("transforms.subdivide",)),
    ("transforms.warp.self_s", "s", "self_s",
     ("transforms.warp_volume", "transforms.warp_volume_masked", "transforms.warp_labels")),
    ("volume.resample.calls", "count", "calls", ("volume.resample",)),
    ("volume.resample.self_s", "s", "self_s", ("volume.resample",)),
    ("fusion.build_pseudo_labels.total_s", "s", "total_s", ("fusion.build_pseudo_labels",)),
    ("fusion.majority_vote.self_s", "s", "self_s", ("fusion.majority_vote",)),
    ("fusion.consistency_refine.self_s", "s", "self_s", ("fusion.consistency_refine",)),
    ("metrics.evaluate.self_s", "s", "self_s", ("metrics.evaluate",)),
    ("nifti.read_nifti.self_s", "s", "self_s", ("nifti.read_nifti",)),
    ("nifti.write_nifti.self_s", "s", "self_s", ("nifti.write_nifti",)),
    ("phantom.generate_phantom.self_s", "s", "self_s", ("phantom.generate_phantom",)),
)

SETUP_METRICS = frozenset({"phantom.generate_phantom.self_s"})

# Metrics computed from registration results and the untraced run.
DERIVED_METRICS = (
    ("registration.ffd.accepted_steps", "count"),
    ("registration.ffd.levels_converged", "count"),
    ("registration.ffd.probe_accept_ratio", "1"),
    ("trace.overhead_frac", "1"),
)

ALL_METRICS = tuple((m[0], m[1]) for m in SPAN_METRICS) + DERIVED_METRICS


def _function_of(span_name: str) -> str:
    """The function behind a span name: without "@binding" or a SPAN_KINDS suffix."""
    base = span_name.split("@")[0]
    for function in SPAN_KINDS:
        if base.startswith(function + "."):
            return function
    return base


def span_value(summary: dict[str, LayerStats], kind: str, names) -> float:
    calls = total = self_time = 0.0
    for ref in names:
        name, _, binding = ref.partition("@")
        st = summary.get(name)
        if st is None:
            continue
        n = st.calls_by_binding.get(binding, 0) if binding else st.calls
        calls += n
        if not binding:
            total += st.total_s
            self_time += st.self_s
    if kind == "calls":
        return int(calls)
    if kind == "total_s":
        return total
    if kind == "self_s":
        return self_time
    if kind == "ms_per_call":
        return 1000.0 * total / calls if calls else 0.0
    raise ValueError(f"unknown span metric kind {kind!r}")


def absent_functions(known: set[str]) -> list[str]:
    """Functions the metric table names that the traced package does not define."""
    wanted = {_function_of(n) for *_, names in SPAN_METRICS for n in names}
    return sorted(wanted - known)


def layer_metrics(summaries: dict[str, dict[str, LayerStats]], ffd_counts: list[dict],
                  traced_wall_s: float, untraced_wall_s: float) -> dict[str, dict]:
    """Every per-layer metric as {name: {"value", "unit"}}, from the span
    summaries of the "setup" and "timed" phases."""
    out = {}
    for name, unit, kind, names in SPAN_METRICS:
        summary = summaries.get("setup" if name in SETUP_METRICS else "timed", {})
        out[name] = {"value": span_value(summary, kind, names), "unit": unit}
    accepted = sum(c["accepted_steps"] for c in ffd_counts)
    probes = out["objective.objective.value.calls"]["value"]
    derived = {
        "registration.ffd.accepted_steps": accepted,
        "registration.ffd.levels_converged": sum(c["levels_converged"] for c in ffd_counts),
        "registration.ffd.probe_accept_ratio": accepted / probes if probes else 0.0,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
    }
    for name, unit in DERIVED_METRICS:
        out[name] = {"value": derived[name], "unit": unit}
    return out
