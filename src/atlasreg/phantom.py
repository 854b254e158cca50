"""Synthetic cardiac-like test volumes with ground-truth labels.

The phantom is a spherical LV cavity, centered in the volume, inside a
myocardial shell with an overlapping RV sphere trimmed to a crescent.
Per-class intensities come from the per-pseudo-modality table
DEFAULT_INTENSITIES; the tables are deliberately not affinely related to each
other so that an intensity-relationship-agnostic similarity is needed to
register across modalities. Every structure keeps MARGIN_VOXELS voxels from
the volume border. All randomness is driven by the explicit seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, is_natural, is_number, require_type
from .transforms import BSplineTransform, max_displacement
from .volume import Grid, LabelVolume, Volume, _float_array, gaussian_smooth

# class intensity tables per pseudo-modality: {class id: mean intensity}
DEFAULT_INTENSITIES = {
    "lge": {0: 15.0, 1: 85.0, 2: 40.0, 3: 75.0},
    "bssfp": {0: 70.0, 1: 25.0, 2: 50.0, 3: 30.0},
    "t2": {0: 20.0, 1: 65.0, 2: 90.0, 3: 60.0},
}
MARGIN_VOXELS = 4.0  # least distance, in voxels, from any structure to the border


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    lv_radius: float = 10.0          # mm, cavity
    myo_thickness: float = 6.0       # mm, shell around the cavity
    rv_offset: tuple[float, float, float] = (18.0, 6.0, 0.0)  # mm from LV center
    rv_radius: float = 9.0           # mm
    modality: str = "lge"
    noise_sigma: float = 2.0
    texture_amplitude: float = 0.0   # smooth tissue-like intensity variation
    seed: int = 0                    # an integer >= 0, as numpy's default_rng requires

    def __post_init__(self):
        if not is_natural(self.seed):
            raise InvalidInputError(f"seed must be an integer >= 0, got {self.seed!r}")
        Grid(self.dims, self.spacing)  # dims and spacing, checked as a grid's
        rule = "rv_offset must be three finite numbers"
        if not np.all(np.isfinite(_float_array(self.rv_offset, rule, (3,)))):
            raise InvalidInputError(f"{rule}, got {self.rv_offset!r}")
        if not all(is_number(r) and r > 0
                   for r in (self.lv_radius, self.myo_thickness, self.rv_radius)):
            raise InvalidInputError("lv_radius, myo_thickness and rv_radius must be > 0")
        if not (isinstance(self.modality, str) and self.modality in DEFAULT_INTENSITIES):
            raise InvalidInputError(f"no intensity table for modality {self.modality!r}")
        for name in ("noise_sigma", "texture_amplitude"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value) and value >= 0):
                raise InvalidInputError(f"{name} must be finite and >= 0, got {value}")

    def center(self) -> np.ndarray:
        """LV center in mm: the center of the volume."""
        return (np.asarray(self.dims) - 1) * np.asarray(self.spacing) / 2.0

    def validate_margin(self):
        """Structures must fit inside the volume with a MARGIN_VOXELS margin."""
        c = self.center()
        rv_c = c + np.asarray(self.rv_offset)
        extent = (np.asarray(self.dims) - 1) * np.asarray(self.spacing)
        margin = MARGIN_VOXELS * np.asarray(self.spacing)
        r_out = self.lv_radius + self.myo_thickness
        for center, radius in ((c, r_out), (rv_c, self.rv_radius)):
            if np.any(center - radius < margin) or np.any(center + radius > extent - margin):
                raise InvalidInputError(
                    f"phantom structures do not fit inside the volume with a "
                    f"{MARGIN_VOXELS:g}-voxel margin"
                )


def scaled_spec(dims=(64, 64, 64), spacing=(1.0, 1.0, 1.0), **kwargs) -> PhantomSpec:
    """Default phantom geometry scaled to fit an arbitrary volume extent.

    The farthest structure reach from the LV center is 27 mm at the default
    64 mm extent; the scale keeps that reach inside the MARGIN_VOXELS margin.
    """
    grid = Grid(dims, spacing)  # dims and spacing, checked as a grid's
    half = min((n - 1) * s for n, s in zip(grid.dims, grid.spacing)) / 2.0
    margin = MARGIN_VOXELS * max(grid.spacing)
    k = (half - margin) / 28.0
    if k <= 0:
        raise InvalidInputError(
            f"volume too small for a phantom with a {MARGIN_VOXELS:g}-voxel margin")
    return PhantomSpec(
        dims=grid.dims, spacing=grid.spacing,
        lv_radius=10.0 * k, myo_thickness=6.0 * k,
        rv_offset=(18.0 * k, 6.0 * k, 0.0), rv_radius=9.0 * k,
        **kwargs,
    )


def generate_phantom(spec: PhantomSpec) -> tuple[Volume, LabelVolume]:
    """Render the phantom image and its ground-truth labels."""
    require_type(PhantomSpec, spec=spec)
    spec.validate_margin()
    pos = Grid(spec.dims, spec.spacing).world_points().reshape(*spec.dims, 3)  # mm

    c = spec.center()
    d_lv = np.sqrt(((pos - c) ** 2).sum(axis=-1))
    d_rv = np.sqrt(((pos - (c + np.asarray(spec.rv_offset))) ** 2).sum(axis=-1))

    labels = np.zeros(spec.dims, dtype=np.uint8)
    labels[d_rv < spec.rv_radius] = 3
    shell = (d_lv >= spec.lv_radius) & (d_lv < spec.lv_radius + spec.myo_thickness)
    labels[shell] = 2                       # myocardium trims the RV overlap
    labels[d_lv < spec.lv_radius] = 1

    table = DEFAULT_INTENSITIES[spec.modality]
    data = np.zeros(spec.dims, dtype=np.float64)
    for cls, value in table.items():
        data[labels == cls] = value
    rng = np.random.default_rng(spec.seed)
    if spec.noise_sigma > 0:
        data = data + rng.normal(0.0, spec.noise_sigma, size=spec.dims)
    if spec.texture_amplitude > 0:
        raw = rng.normal(size=spec.dims)
        smooth = gaussian_smooth(raw, 4.0)
        smooth /= max(smooth.std(), 1e-12)
        data = data + spec.texture_amplitude * smooth

    return Volume(data, spec.spacing), LabelVolume(labels, spec.spacing)


def random_smooth_deformation(geometry, max_disp_mm: float, grid_spacing,
                              seed: int) -> BSplineTransform:
    """Random B-spline field whose dense maximum norm equals max_disp_mm.

    Control displacements are drawn uniformly in [-max, max]^3 and the whole
    coefficient set is rescaled so the dense field's maximum voxel norm lands
    exactly on max_disp_mm (the field is linear in the coefficients).
    """
    if not (is_number(max_disp_mm) and math.isfinite(max_disp_mm) and max_disp_mm >= 0):
        raise InvalidInputError(f"max_disp_mm must be finite and >= 0, got {max_disp_mm!r}")
    if not is_natural(seed):
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed!r}")
    t = BSplineTransform.zeros(geometry, grid_spacing)
    if max_disp_mm == 0:
        return t
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-max_disp_mm, max_disp_mm, size=t.coefficients.shape)
    t = t.with_coefficients(coef)
    peak = max_displacement(t)
    if peak == 0:
        return t
    return t.with_coefficients(coef * (max_disp_mm / peak))
