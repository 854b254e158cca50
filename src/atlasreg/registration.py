"""Multi-resolution registration: affine initialization, then coarse-to-fine
symmetric B-spline refinement by gradient ascent with backtracking line search.

At each pyramid level both the image resolution and the control-point grid
resolution double; the control spacing expressed in that level's voxels stays
at the configured final value. Coefficients move between levels by exact
B-spline subdivision, so the represented field carries over unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import NumericalFailureError
from .objective import ObjectiveWeights, nmi, objective, robust_range
from .objective import JointHistogram, _bin_positions, _deposit_counts
from .transforms import (
    AffineTransform,
    BSplineTransform,
    subdivide,
    warp_volume_masked,
    world_grid,
)
from .volume import TrilinearStencil, Volume, resample


@dataclass(frozen=True)
class RegistrationConfig:
    levels: int = 5
    max_iter_per_level: int = 300
    final_grid_spacing: float = 5.0  # control spacing in voxels, per axis
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    step_tolerance: float = 0.01     # mm; line-search floor
    objective_tolerance: float = 1e-5  # relative gain floor per iteration
    bins: int = 64

    def __post_init__(self):
        if self.levels < 1 or self.max_iter_per_level < 1:
            raise ValueError("levels and max_iter_per_level must be >= 1")
        if self.final_grid_spacing < 1:
            raise ValueError("final_grid_spacing must be >= 1 voxel")


def default_config(kind: str) -> RegistrationConfig:
    """Presets for the two registration flavors.

    type1 (inter-patient, intra-modality): alpha = beta = 0.001, five levels,
    300 iterations per level, final grid spacing five voxels. type2
    (intra-patient, inter-modality): six levels, 4000 iterations per level,
    final grid spacing one voxel, same weights.
    """
    if kind == "type1":
        return RegistrationConfig(levels=5, max_iter_per_level=300,
                                  final_grid_spacing=5.0,
                                  weights=ObjectiveWeights(0.001, 0.001))
    if kind == "type2":
        return RegistrationConfig(levels=6, max_iter_per_level=4000,
                                  final_grid_spacing=1.0,
                                  weights=ObjectiveWeights(0.001, 0.001))
    raise ValueError(f"unknown registration preset {kind!r}")


@dataclass
class RegistrationResult:
    affine: AffineTransform
    fwd: BSplineTransform | None
    bwd: BSplineTransform | None
    objective_trace: list[list[float]]
    converged: list[bool]


# ---------------------------------------------------------------------------
# Image pyramid
# ---------------------------------------------------------------------------

def _smooth(vol: Volume, sigma_vox: float) -> Volume:
    if sigma_vox <= 0:
        return vol
    data = gaussian_filter(vol.data.astype(np.float64), sigma=sigma_vox,
                           mode="nearest")
    return Volume(data.astype(np.float32), vol.spacing, vol.origin, vol.direction)


def build_pyramid(vol: Volume, levels: int) -> list[Volume]:
    """Coarse-to-fine list; [0] is the coarsest, [-1] the original volume.

    Each coarsening is Gaussian pre-smoothing (sigma 0.7 voxel of the coarser
    grid, i.e. 1.4 of the current) followed by 2x trilinear decimation.
    """
    pyr = [vol]
    for _ in range(levels - 1):
        prev = pyr[0]
        sm = _smooth(prev, 1.4)
        pyr.insert(0, resample(sm, tuple(2.0 * s for s in prev.spacing)))
    return pyr


def usable_levels(dims, requested: int, min_dim: int = 4) -> int:
    """Cap the pyramid depth so the coarsest level keeps min_dim voxels."""
    largest = min(dims)
    cap = 1
    while largest // 2 >= min_dim:
        largest //= 2
        cap += 1
    return max(1, min(requested, cap))


# ---------------------------------------------------------------------------
# Affine registration
# ---------------------------------------------------------------------------

def _center_of_mass(vol: Volume) -> np.ndarray:
    data = vol.data.astype(np.float64)
    w = data - data.min()
    total = w.sum()
    if total <= 0:
        return vol.world_from_voxel((np.asarray(vol.dims, dtype=np.float64) - 1) / 2)
    w, pts = w.reshape(-1), vol.grid.voxel_points()
    return vol.world_from_voxel(np.array([(w * pts[:, a]).sum() / total for a in range(3)]))


def _nmi_between(ref: Volume, float_src: Volume, matrix: np.ndarray,
                 ref_world: np.ndarray, ref_vals: np.ndarray,
                 ranges, bins: int) -> float:
    pts = ref_world @ matrix[:3, :3].T + matrix[:3, 3]
    stencil = TrilinearStencil(float_src.dims, float_src.voxel_from_world(pts))
    vals, inside = stencil.gather(float_src.data, 0.0), stencil.inside
    if not inside.any():
        return -np.inf
    q_r, _, _ = _bin_positions(ref_vals[inside], ranges[0], bins)
    q_f, _, _ = _bin_positions(vals[inside], ranges[1], bins)
    counts, _ = _deposit_counts(q_r, q_f, bins)
    try:
        return nmi(JointHistogram(bins, counts, int(inside.sum()),
                                  tuple(ranges[0]), tuple(ranges[1])))
    except Exception:
        return -np.inf


def register_affine(ref: Volume, flt: Volume, *, bins: int = 64,
                    max_iter=(40, 25, 12), gain_tolerance: float = 1e-7) -> AffineTransform:
    """Maximize NMI over 12 affine parameters, coarse to fine (x4, x2, x1).

    A coarse stage (x4, x2) is skipped when its grid would have fewer than
    16 voxels along some axis, the cap `usable_levels` puts on the pyramid;
    the `max_iter` entries of skipped stages are then unused. On so few
    grid-aligned samples NMI has spurious maxima away from the true
    alignment, which the finer stages cannot climb back from.

    Parameters are optimized in a millimeter-scaled space (linear part scaled
    by the half-extent) with central-difference gradients and a backtracking
    line search, starting from center-of-mass alignment.
    """
    robust_range(ref.data.reshape(-1))   # reject degenerate inputs early
    robust_range(flt.data.reshape(-1))

    center = ref.world_from_voxel((np.asarray(ref.dims, dtype=np.float64) - 1) / 2)
    extent = float(np.max(np.asarray(ref.dims) * np.asarray(ref.spacing)))
    scale_len = max(extent / 2.0, 1.0)

    t0 = _center_of_mass(flt) - _center_of_mass(ref)
    q = np.concatenate([np.zeros(9), t0])  # [L*(M - I).flat, t] in mm

    flt_range = robust_range(flt.data.reshape(-1))

    def matrix_of(qv):
        m3 = np.eye(3) + qv[:9].reshape(3, 3) / scale_len
        t = qv[9:]
        mat = np.eye(4)
        mat[:3, :3] = m3
        # rotation/scale about the reference center: A(w) = M(w-c) + c + t
        mat[:3, 3] = center - m3 @ center + t
        return mat

    n_stages = usable_levels(ref.dims, 3, min_dim=16)
    for factor, iters in zip((4, 2, 1), max_iter):
        if factor > 2 ** (n_stages - 1):
            continue
        if factor > 1:
            ref_l = resample(_smooth(ref, 0.7 * factor),
                             tuple(factor * s for s in ref.spacing))
            flt_l = _smooth(flt, 0.7 * factor)
        else:
            ref_l, flt_l = ref, flt
        ref_world = world_grid(ref_l)
        ref_vals = ref_l.data.reshape(-1).astype(np.float64)
        ranges = (robust_range(ref_vals), flt_range)

        def score(qv):
            return _nmi_between(ref_l, flt_l, matrix_of(qv), ref_world,
                                ref_vals, ranges, bins)

        h = 0.05
        step = max(extent / 32.0, 1.0)
        val = score(q)
        for _ in range(iters):
            grad = np.zeros(12)
            for p in range(12):
                dq = np.zeros(12)
                dq[p] = h
                grad[p] = (score(q + dq) - score(q - dq)) / (2 * h)
            gmax = np.abs(grad).max()
            if gmax == 0:
                break
            direction = grad / gmax
            improved = False
            while step >= 0.01:
                cand = q + step * direction
                cval = score(cand)
                if cval > val:
                    gain = cval - val
                    q, val = cand, cval
                    improved = True
                    break
                step /= 2
            if not improved or gain < gain_tolerance * max(abs(val), 1.0):
                break
            step = min(step * 2, max(extent / 32.0, 1.0))

    mat = matrix_of(q)
    if abs(np.linalg.det(mat[:3, :3])) <= 1e-12:
        raise NumericalFailureError("affine registration collapsed to a singular map")
    return AffineTransform(mat)


# ---------------------------------------------------------------------------
# FFD registration
# ---------------------------------------------------------------------------

def _max_pointwise_norm(*grids) -> float:
    best = 0.0
    for g in grids:
        n = np.sqrt((g ** 2).sum(axis=-1)).max()
        best = max(best, float(n))
    return best


def _ascent_direction(grad: np.ndarray, gmax: float, softness: float = 0.05):
    """Per-node normalized gradient (soft): every control point moves at a
    comparable rate while keeping a positive inner product with the gradient,
    so backtracking line search still guarantees ascent."""
    norms = np.sqrt((grad ** 2).sum(axis=-1, keepdims=True))
    return grad / (norms + softness * gmax)


def register_ffd(ref: Volume, flt: Volume, affine: AffineTransform | None,
                 cfg: RegistrationConfig) -> RegistrationResult:
    """Symmetric coarse-to-fine FFD refinement of an affine pre-alignment.

    The floating image is resampled into the affinely aligned frame once per
    level; forward and backward lattices live on the (level) reference grid
    and are optimized jointly by gradient ascent with a halving line search
    (initial step 0.4 x control spacing per level). A level stops early when
    the relative objective gain drops below objective_tolerance or the step
    falls below step_tolerance.
    """
    if affine is None:
        affine = AffineTransform.identity()
    levels = usable_levels(ref.dims, cfg.levels)
    ref_pyr = build_pyramid(ref, levels)
    flt_pyr = build_pyramid(flt, levels)

    fwd = bwd = None
    traces: list[list[float]] = []
    converged: list[bool] = []

    for k in range(levels):
        ref_k = ref_pyr[k]
        f_al, f_mask = warp_volume_masked(flt_pyr[k], ref_k, affine)

        if fwd is None:
            fwd = BSplineTransform.zeros(ref_k, cfg.final_grid_spacing)
            bwd = BSplineTransform.zeros(ref_k, cfg.final_grid_spacing)
        else:
            fwd = subdivide(fwd, ref_k)
            bwd = subdivide(bwd, ref_k)

        r_ref = robust_range(ref_k.data.reshape(-1))
        masked = f_al.data[f_mask]
        r_fal = robust_range(masked.reshape(-1)) if masked.size else r_ref
        kwargs = dict(bins=cfg.bins, ranges_fwd=(r_ref, r_fal),
                      ranges_bwd=(r_fal, r_ref), flt_mask=f_mask)

        step_init = 0.4 * cfg.final_grid_spacing * float(np.mean(ref_k.spacing))
        step = step_init
        res = objective(ref_k, f_al, fwd, bwd, cfg.weights, with_gradient=True,
                        **kwargs)
        trace = [res.value]
        level_converged = False

        for it in range(cfg.max_iter_per_level):
            if not math.isfinite(res.value):
                raise NumericalFailureError("objective is not finite",
                                            level=k, iteration=it)
            gmax = _max_pointwise_norm(res.grad_fwd, res.grad_bwd)
            if gmax == 0:
                level_converged = True
                break
            d_f = _ascent_direction(res.grad_fwd, gmax)
            d_b = _ascent_direction(res.grad_bwd, gmax)

            accepted = False
            while step >= cfg.step_tolerance:
                cand_f = fwd.with_coefficients(fwd.coefficients + step * d_f)
                cand_b = bwd.with_coefficients(bwd.coefficients + step * d_b)
                probe = objective(ref_k, f_al, cand_f, cand_b, cfg.weights,
                                  with_gradient=False, **kwargs)
                if probe.value > res.value:
                    accepted = True
                    break
                step /= 2
            if not accepted:
                level_converged = True
                break

            fwd, bwd = cand_f, cand_b
            res = objective(ref_k, f_al, fwd, bwd, cfg.weights,
                            with_gradient=True, **kwargs)
            gain = res.value - trace[-1]
            trace.append(res.value)
            if gain < cfg.objective_tolerance * max(abs(trace[-2]), 1e-12):
                level_converged = True
                break
            step = min(step * 2, step_init)

        traces.append(trace)
        converged.append(level_converged)

    return RegistrationResult(affine, fwd, bwd, traces, converged)


def register(ref: Volume, flt: Volume, cfg: RegistrationConfig | None = None,
             affine_only: bool = False) -> RegistrationResult:
    """Affine initialization followed by symmetric FFD refinement."""
    if cfg is None:
        cfg = default_config("type1")
    affine = register_affine(ref, flt, bins=cfg.bins)
    if affine_only:
        return RegistrationResult(affine, None, None, [], [])
    return register_ffd(ref, flt, affine, cfg)
