"""Seeded phantom inputs, timed sections and output checks of the workloads.

Every function of `atlasreg` is looked up on its module at call time
(`registration.register_affine`, not a name imported once), so the span
recorder's wrappers in `spans.py` see the calls the timed sections make.

Why each workload exists:

- affine_xmod: the affine layer alone, cross-modality (LGE target, bSSFP
  floating image under a known affine), the path an analytic affine gradient
  rewrites. No B-spline layer runs.
- ffd_stack: the symmetric FFD alone on a clinical anisotropic slice stack
  (128x128x16 at 1.25x1.25x5 mm); sampling-bound, coarse lattice.
- pseudo_label: the user pipeline end to end on small volumes: NIfTI read,
  three type-1 and two type-2 registrations on two threads, vote,
  consistency refinement, NIfTI write and evaluation. Many short FFD calls on
  a fine type-2 lattice, so splat and bending weigh more than in ffd_stack.
"""
from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from atlasreg import fusion, metrics, nifti, phantom, registration, transforms
from atlasreg.errors import AtlasRegError
from atlasreg.volume import LABEL_CLASS_IDS, LabelVolume, Volume

# the package re-exports the function `objective`, which hides the module
objective = importlib.import_module("atlasreg.objective")

WORKLOADS = ("affine_xmod", "ffd_stack", "pseudo_label")

NOISE = dict(noise_sigma=1.5, texture_amplitude=6.0)
TYPE1_WEIGHTS = objective.ObjectiveWeights(0.001, 0.001)

# Iteration caps are trimmed from the presets so that several cases fit in
# one run, and so that the levels mostly run to their caps: a case's time is
# then that of a fixed iteration budget rather than of where early stopping
# happens to fire. With the default affine caps (40, 25, 12) the x2 stage
# stopped anywhere between 10 and 25 iterations, which moved a case's time
# by up to 1.7x between seeds. ffd_stack keeps 6 iterations per level: with
# 4 its FFD left Dice below that of the unregistered pair (0.78 vs 0.85).
# pseudo_label's affine stages run with their defaults, as `register` gives
# no way to change them.
AFFINE_MAX_ITER = (15, 8, 4)
FFD_STACK_CFG = registration.RegistrationConfig(
    levels=2, max_iter_per_level=6, final_grid_spacing=5.0, weights=TYPE1_WEIGHTS)
PSEUDO_TYPE1_CFG = registration.RegistrationConfig(
    levels=3, max_iter_per_level=5, final_grid_spacing=5.0, weights=TYPE1_WEIGHTS)
PSEUDO_TYPE2_CFG = registration.RegistrationConfig(
    levels=3, max_iter_per_level=5, final_grid_spacing=2.0, weights=TYPE1_WEIGHTS)
PSEUDO_THREADS = 2


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _panel_rng(case: int, stream: int) -> np.random.Generator:
    """Generator of a case's known transforms: case index only, not the seed."""
    return np.random.default_rng([case, stream])


def _known_affine(rng, center, shift_mm, rot_deg, scale_frac):
    """Random affine about `center`: rotation, anisotropic scale, translation."""
    angles = np.deg2rad(rng.uniform(-rot_deg, rot_deg, size=3))
    cx, cy, cz = np.cos(angles)
    sx, sy, sz = np.sin(angles)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    linear = rz @ ry @ rx @ np.diag(1.0 + rng.uniform(-scale_frac, scale_frac, size=3))
    shift = rng.uniform(-shift_mm, shift_mm, size=3)
    return transforms.AffineTransform.from_linear(linear, center - linear @ center + shift)


def _center(vol: Volume) -> np.ndarray:
    return vol.world_from_voxel((np.asarray(vol.dims, dtype=np.float64) - 1) / 2)


def _perturbed(img, lbl, rng, max_disp_mm, grid_spacing, shift_mm):
    """Warp an (image, labels) pair by a random smooth FFD plus a shift."""
    ffd = phantom.random_smooth_deformation(
        img, max_disp_mm, grid_spacing, seed=int(rng.integers(2**31)))
    shift = transforms.AffineTransform.from_linear(
        np.eye(3), rng.uniform(-shift_mm, shift_mm, size=3))
    return (transforms.warp_volume(img, img, shift, ffd),
            transforms.warp_labels(lbl, img, shift, ffd))


def make_inputs(workload: str, seed: int, case: int = 0) -> dict:
    """All inputs of one case; the same (seed, case) gives byte-identical arrays.

    The known transforms form a fixed panel indexed by `case`, shared by every
    seed; the seed draws the noise and texture of every phantom. Runs with
    different seeds then register the same deformations under new noise, so
    the spread between seeds is the program's, not that of the draw: with
    transforms drawn from the seed too, a run's median Dice moved by 10%
    between seeds.
    """
    base = 1000 * seed + 10 * case  # phantom seeds base .. base + 5
    if workload == "affine_xmod":
        target, gt = phantom.generate_phantom(
            phantom.scaled_spec((40, 40, 40), modality="lge", seed=base, **NOISE))
        src, src_lbl = phantom.generate_phantom(
            phantom.scaled_spec((40, 40, 40), modality="bssfp", seed=base + 1, **NOISE))
        known = _known_affine(_panel_rng(case, 1), _center(target), 3.0, 5.0, 0.05)
        return dict(target=target, gt=gt,
                    floating=transforms.warp_volume(src, target, known),
                    floating_labels=transforms.warp_labels(src_lbl, target, known))
    if workload == "ffd_stack":
        geom = dict(dims=(128, 128, 16), spacing=(1.25, 1.25, 5.0))
        target, gt = phantom.generate_phantom(
            phantom.PhantomSpec(modality="lge", seed=base, **geom, **NOISE))
        src, src_lbl = phantom.generate_phantom(
            phantom.PhantomSpec(modality="lge", seed=base + 1, **geom, **NOISE))
        ffd = phantom.random_smooth_deformation(
            target, 4.0, (16, 16, 2), seed=int(_panel_rng(case, 2).integers(2**31)))
        return dict(target=target, gt=gt,
                    floating=transforms.warp_volume(src, target, None, ffd),
                    floating_labels=transforms.warp_labels(src_lbl, target, None, ffd))
    if workload == "pseudo_label":
        dims = (32, 32, 32)
        target, gt = phantom.generate_phantom(
            phantom.scaled_spec(dims, modality="lge", seed=base, **NOISE))
        rng = _panel_rng(case, 3)
        atlases = []
        for k, modality in enumerate(("lge", "lge", "lge", "bssfp", "t2")):
            img, lbl = phantom.generate_phantom(
                phantom.scaled_spec(dims, modality=modality, seed=base + 1 + k, **NOISE))
            atlases.append(_perturbed(img, lbl, rng, 3.0, 8.0, 2.0))
        return dict(target=target, gt=gt, atlases=atlases[:3],
                    same_patient=tuple(atlases[3:]))
    raise ValueError(f"unknown workload {workload!r}")


PSEUDO_PAIRS = ("atlas0", "atlas1", "atlas2", "bssfp", "t2")  # NIfTI name stems


def _pairs(inputs: dict) -> list:
    """(image, labels) of every pseudo_label atlas, in PSEUDO_PAIRS order."""
    return list(inputs["atlases"]) + list(inputs["same_patient"])


def input_digest(inputs: dict) -> bytes:
    """Concatenated raw bytes of every array in a case, for identity checks."""
    parts = []

    def add(v):
        if isinstance(v, (Volume, LabelVolume)):
            parts.extend([v.data.tobytes(), np.asarray(v.spacing).tobytes(),
                          v.origin.tobytes(), v.direction.tobytes()])
        elif isinstance(v, (tuple, list)):
            for item in v:
                add(item)

    for key in sorted(inputs):
        add(inputs[key])
    return b"".join(parts)


def setup_case(workload: str, seed: int, case: int, workdir: Path) -> dict:
    """Generate one case and, for pseudo_label, write its inputs as NIfTI."""
    inputs = make_inputs(workload, seed, case)
    if workload == "pseudo_label":
        workdir.mkdir(parents=True, exist_ok=True)
        nifti.write_nifti(inputs["target"], workdir / "target.nii")
        for stem, (img, lbl) in zip(PSEUDO_PAIRS, _pairs(inputs)):
            nifti.write_nifti(img, workdir / f"{stem}_img.nii")
            nifti.write_nifti(lbl, workdir / f"{stem}_lbl.nii")
        inputs["workdir"] = workdir
    return inputs


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclass
class CaseResult:
    """Outcome of one timed case: wall time, quality and failure counts.

    `fingerprint` holds the exact affine matrices and objective traces, which
    pin down the optimizer's path for the determinism check.
    """

    wall_s: float = math.nan
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    dice: float = math.nan
    asd_mm: float = math.nan
    nmi: float = math.nan
    ffd_counts: list[dict] = field(default_factory=list)
    fingerprint: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def label_problem(lbl, target) -> str | None:
    """Why a fused or warped label volume is unusable, or None if it is fine."""
    if not isinstance(lbl, LabelVolume):
        return f"not a label volume: {type(lbl).__name__}"
    if not lbl.same_geometry(target):
        return "off the target geometry"
    present = np.unique(lbl.data)
    if not set(present.tolist()) <= set(LABEL_CLASS_IDS):
        return f"class ids outside {LABEL_CLASS_IDS}: {present.tolist()}"
    if not (present > 0).any():
        return "no foreground class"
    return None


def non_finite(res) -> bool:
    """True if an affine matrix or FFD coefficient of a result is not finite."""
    if isinstance(res, transforms.AffineTransform):
        arrays = [res.matrix]
    else:
        arrays = [res.affine.matrix] + [t.coefficients for t in (res.fwd, res.bwd)
                                        if t is not None]
    return not all(np.isfinite(a).all() for a in arrays)


def final_nmi(target: Volume, floating: Volume, affine, ffd) -> float:
    """NMI of the target and the floating image warped by the result, on the overlap."""
    warped, mask = transforms.warp_volume_masked(floating, target, affine, ffd)
    return float(objective.nmi(objective.build_joint_histogram(target, warped, mask)))


def _quality(report) -> tuple[float, float]:
    """Mean Dice and ASD over the foreground classes; ASD is NaN when a class
    is empty on either side."""
    asd = report.average("asd_mm")
    return report.average("dice"), math.nan if asd is None else asd


def ffd_counts(res) -> dict:
    """Accepted steps and converged levels of one symmetric FFD result."""
    return {"accepted_steps": sum(len(t) - 1 for t in res.objective_trace),
            "levels_converged": sum(bool(c) for c in res.converged)}


# ---------------------------------------------------------------------------
# Timed sections
# ---------------------------------------------------------------------------

def run_case(workload: str, inputs: dict, quiet) -> CaseResult:
    """Run the timed section of one case, then check its outputs.

    `quiet` is a context manager factory under which the checks run, so a
    traced run records only the timed section's spans.
    """
    out = CaseResult()
    if workload == "pseudo_label":
        _run_pseudo_label(inputs, out, quiet)
        return out

    target, floating = inputs["target"], inputs["floating"]
    t0 = time.perf_counter()
    try:
        if workload == "affine_xmod":
            res = registration.register_affine(target, floating, max_iter=AFFINE_MAX_ITER)
        else:
            res = registration.register_ffd(target, floating, None, FFD_STACK_CFG)
    except AtlasRegError as exc:
        out.check(False, f"registration raised {type(exc).__name__}: {exc}")
        return out
    out.wall_s = time.perf_counter() - t0

    with quiet():
        if not out.check(not non_finite(res), "non-finite transform"):
            return out
        affine, ffd = (res, None) if workload == "affine_xmod" else (res.affine, res.fwd)
        if ffd is not None:
            out.ffd_counts.append(ffd_counts(res))
            out.fingerprint.append(res.objective_trace)
        out.fingerprint.append(affine.matrix.ravel().tolist())
        warped = transforms.warp_labels(inputs["floating_labels"], target, affine, ffd)
        problem = label_problem(warped, target)
        if out.check(problem is None, f"warped labels: {problem}"):
            out.dice, out.asd_mm = _quality(metrics.evaluate(warped, inputs["gt"]))
        out.nmi = final_nmi(target, floating, affine, ffd)
    return out


def _run_pseudo_label(inputs: dict, out: CaseResult, quiet) -> None:
    work = inputs["workdir"]
    registrations: list = []
    t0 = time.perf_counter()
    try:
        target = nifti.read_nifti(work / "target.nii")
        pairs = [(nifti.read_nifti(work / f"{stem}_img.nii"),
                  nifti.read_nifti(work / f"{stem}_lbl.nii", labels=True))
                 for stem in PSEUDO_PAIRS]
        fused = fusion.build_pseudo_labels(
            target, pairs[:3], tuple(pairs[3:]), type1_cfg=PSEUDO_TYPE1_CFG,
            type2_cfg=PSEUDO_TYPE2_CFG, threads=PSEUDO_THREADS,
            registrations_out=registrations)
        nifti.write_nifti(fused, work / "pseudo_labels.nii")
        report = metrics.evaluate(fused, inputs["gt"])
    except AtlasRegError as exc:
        out.check(False, f"pipeline raised {type(exc).__name__}: {exc}")
        return
    out.wall_s = time.perf_counter() - t0

    with quiet():
        pairs = _pairs(inputs)
        out.check(len(registrations) == len(pairs),
                  f"{len(registrations)} registrations for {len(pairs)} atlases")
        nmis = []
        for k, (res, (img, lbl)) in enumerate(zip(registrations, pairs)):
            if not out.check(not non_finite(res), f"atlas {k}: non-finite transform"):
                continue
            out.ffd_counts.append(ffd_counts(res))
            out.fingerprint.append(res.objective_trace)
            problem = label_problem(
                transforms.warp_labels(lbl, target, res.affine, res.fwd), target)
            out.check(problem is None, f"atlas {k} warped labels: {problem}")
            if k < len(inputs["atlases"]):
                nmis.append(final_nmi(target, img, res.affine, res.fwd))
        problem = label_problem(fused, target)
        out.check(problem is None, f"fused labels: {problem}")
        written = nifti.read_nifti(work / "pseudo_labels.nii", labels=True)
        out.check(np.array_equal(written.data, fused.data) and written.same_geometry(fused),
                  "written pseudo-labels differ from the fused volume")
        out.dice, out.asd_mm = _quality(report)
        out.nmi = float(np.mean(nmis)) if nmis else math.nan
