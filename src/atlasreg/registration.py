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

from .errors import (DegenerateInputError, InvalidInputError, NumericalFailureError,
                     is_count, is_number, require_type)
from .objective import (
    ObjectiveWeights,
    _nmi_deposit,
    _soft_overlap,
    nmi,
    objective,
    objective_gradient,
    robust_range,
)
from .transforms import (
    AffineTransform,
    BSplineTransform,
    subdivide,
    warp_volume_masked,
)
from .volume import Grid, TrilinearStencil, Volume, gaussian_smooth, resample

STEP_FLOOR_MM = 0.01      # smallest line-search probe, both stages
AFFINE_GAIN_FLOOR = 1e-7  # relative gain per iteration below which a stage stops
FFD_GAIN_FLOOR = 1e-5


@dataclass(frozen=True)
class RegistrationConfig:
    levels: int = 5
    max_iter_per_level: int = 300
    final_grid_spacing: float = 5.0  # control spacing in voxels, the same on every axis
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)

    def __post_init__(self):
        if not (is_count(self.levels) and is_count(self.max_iter_per_level)):
            raise InvalidInputError("levels and max_iter_per_level must be integers >= 1")
        spacing = self.final_grid_spacing
        if not (is_number(spacing) and math.isfinite(spacing) and spacing >= 1):
            raise InvalidInputError("final_grid_spacing must be a finite number >= 1 voxel")
        require_type(ObjectiveWeights, weights=self.weights)


_PRESETS = {"type1": RegistrationConfig(),
            "type2": RegistrationConfig(levels=6, max_iter_per_level=4000, final_grid_spacing=1.0)}


def default_config(kind: str) -> RegistrationConfig:
    """Presets for the two registration flavors.

    type1 (inter-patient, intra-modality) is `RegistrationConfig()` itself,
    the defaults of `RegistrationConfig` and `ObjectiveWeights`: alpha =
    beta = 0.001, five levels, 300 iterations per level, final grid spacing
    five voxels. type2 (intra-patient, inter-modality): six levels, 4000
    iterations per level, final grid spacing one voxel, the same weights.
    """
    if not (isinstance(kind, str) and kind in _PRESETS):
        raise InvalidInputError(f"unknown registration preset {kind!r}")
    return _PRESETS[kind]


@dataclass(eq=False)
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
    return Volume(gaussian_smooth(vol.data, sigma_vox), vol.spacing, vol.origin, vol.direction)


def build_pyramid(vol: Volume, levels: int) -> list[Volume]:
    """Coarse-to-fine list; [0] is the coarsest, [-1] the original volume.

    Each coarsening is Gaussian pre-smoothing (sigma 0.7 voxel of the coarser
    grid, i.e. 1.4 of the current) followed by 2x trilinear decimation.
    """
    require_type(Volume, vol=vol)
    if not is_count(levels):
        raise InvalidInputError(f"levels must be an integer >= 1, got {levels!r}")
    pyr = [vol]
    for _ in range(levels - 1):
        prev = pyr[0]
        sm = _smooth(prev, 1.4)
        pyr.insert(0, resample(sm, tuple(2.0 * s for s in prev.spacing)))
    return pyr


def usable_levels(dims, requested: int, min_dim: int = 4) -> int:
    """Cap the pyramid depth so the coarsest level keeps min_dim voxels along
    its shortest axis; the coarsest of k levels keeps min(dims) // 2^(k-1).
    `dims` are three positive integers (else InvalidInputError)."""
    if not (is_count(requested) and is_count(min_dim)):
        raise InvalidInputError(
            f"requested and min_dim must be integers >= 1, got {requested!r} and {min_dim!r}")
    return max(1, min(requested, (min(Grid(dims).dims) // min_dim).bit_length()))


# ---------------------------------------------------------------------------
# Gradient ascent
# ---------------------------------------------------------------------------

def _ascend(evaluate, x, step, max_iter, gain_tol):
    """Maximize an objective from `x` by gradient ascent with a halving line
    search.

    The last axis of `x` holds one node's components (an FFD control point's
    3, or one affine parameter). The direction is the gradient over its
    largest node norm: the first probe moves that node by exactly `step`.

    `evaluate(x)` returns (value, finish): `finish()` returns the gradient
    at x, completed from whatever state the evaluation kept. It is called
    once at the start point and once per accepted probe that a further
    iteration starts from, never for a rejected probe, so an evaluation
    pays for its gradient only when the ascent moves there. At most one
    evaluation's state is held: the current point's until it is finished,
    then the probe under test's; a rejected probe's is dropped before the
    next probe is evaluated.

    A probe is accepted when the value rises; one whose evaluation raises
    DegenerateInputError (lost overlap) is rejected. The step halves on each
    rejection and doubles, up to its start value, after an acceptance. It
    converges at a zero gradient, when no probe of at least STEP_FLOOR_MM is
    accepted, or when the gain falls below gain_tol * max(|previous|, 1).
    Returns (x, trace of the start and accepted values, converged); converged
    is False only when max_iter runs out. A non-finite value or gradient
    raises NumericalFailureError carrying the iteration: a NaN gradient would
    otherwise send every probe to NaN and end the ascent as converged.
    """
    def finite(v, it, what="objective"):
        if not math.isfinite(v):
            raise NumericalFailureError(f"{what} is not finite", iteration=it)
        return v

    step_max = step
    val, finish = evaluate(x)
    trace = [finite(val, 0)]
    for it in range(max_iter):
        g = finish()
        finish = None  # the point's state was kept for its gradient only
        gmax = finite(np.sqrt((g * g).sum(axis=-1)).max(), it, "gradient")
        if gmax == 0:
            return x, trace, True
        d = g / gmax
        while True:
            if step < STEP_FLOOR_MM:
                return x, trace, True
            cand = x + step * d
            try:
                cval, finish = evaluate(cand)
                finite(cval, it)
            except DegenerateInputError:
                cval, finish = -math.inf, None
            if cval > val:
                break
            finish = None  # drop a rejected probe's state before the next probe
            step /= 2
        x, val = cand, cval
        trace.append(val)
        if val - trace[-2] < gain_tol * max(abs(trace[-2]), 1.0):
            return x, trace, True
        step = min(step * 2, step_max)
    return x, trace, False


# ---------------------------------------------------------------------------
# Affine registration
# ---------------------------------------------------------------------------

def _center_of_mass(vol: Volume) -> np.ndarray:
    data = vol.data.astype(np.float64)
    w = data - data.min()
    total = w.sum()  # positive: `robust_range` rejected a constant image
    w, pts = w.reshape(-1), vol.grid.voxel_points()
    return vol.world_from_voxel(np.array([(w * pts[:, a]).sum() / total for a in range(3)]))


def _overlap_nmi(ref: Volume, flt: Volume, linear: np.ndarray, offset: np.ndarray, ranges):
    """NMI of ref against flt over the soft-edged overlap of `_soft_overlap`,
    where ref's voxel at world x maps to voxel coordinate x @ linear +
    offset on flt's grid. A point outside the grid reads the edge-clamped
    value.

    Returns (nmi, finish): `finish()` returns d NMI / d mapped world point
    from the deposit's finish through the probe's one stencil, (N, 3) over
    ref's voxels and zero where a point weighs 0.
    """
    rows = linear.T @ ref.grid.world_points().T
    rows += offset[:, None]
    stencil = TrilinearStencil(flt.dims, rows.T)
    mask, shell = _soft_overlap(stencil, rows.T)
    del rows
    counts, finish = _nmi_deposit(ref, flt, mask, stencil.gather(flt.data)[mask], ranges, shell)
    return nmi(counts), lambda: finish(stencil)


def register_affine(ref: Volume, flt: Volume, *, max_iter=(40, 25, 12)) -> AffineTransform:
    """Maximize NMI over 12 affine parameters, coarse to fine (x4, x2, x1).

    The reference stages are the levels of `build_pyramid`, as deep as
    `usable_levels` allows with 16 voxels along every axis: a coarse stage
    (x4, x2) whose grid would be smaller is skipped, and the `max_iter`
    entries of skipped stages are then unused. On so few grid-aligned
    samples NMI has spurious maxima away from the true alignment, which the
    finer stages cannot climb back from. The floating image of a coarse
    stage is smoothed on its own grid with sigma 0.7 x the factor voxels.

    The overlap has a soft edge (`_soft_overlap`): a reference voxel that
    maps within one voxel outside the floating grid deposits the
    edge-clamped floating value with a weight falling linearly to 0 one
    voxel out, so NMI is continuous in the parameters. A probe whose every
    point maps inside scores exactly the hard-masked NMI.

    Parameters are optimized in a millimeter-scaled space (linear part scaled
    by the half-extent) by `_ascend`, starting from center-of-mass
    alignment. They are expressed on the reference's own axes, its direction
    D: the linear part is I + D L D^T / half-extent and the translation D t'.
    So the result does not depend on the world frame: turning both images'
    world by a rotation R turns the affine A into R A R^T, up to rounding.
    Each parameter is one node, so the first probe of a stage
    moves the one of largest derivative by max(extent/32, 1) mm. Every probe
    builds one joint histogram, through the NMI core the FFD shares
    (`objective._nmi_deposit` with the soft-overlap shell). The gradient is
    analytic: an accepted probe runs the finish its deposit returned, which
    gives d NMI / d mapped world point, shell weight derivative included,
    and contracts that with [x - c, 1]. No central differences are taken.
    A stage stops once its relative NMI gain falls below AFFINE_GAIN_FLOOR.
    `max_iter` holds one integer iteration cap >= 1 per stage.
    """
    require_type(Volume, ref=ref, flt=flt)
    max_iter = tuple(max_iter) if np.iterable(max_iter) else (max_iter,)
    if len(max_iter) != 3 or not all(is_count(n) for n in max_iter):
        raise InvalidInputError(
            f"max_iter needs 3 integer iteration caps >= 1 (x4, x2, x1), got {max_iter}")
    robust_range(ref.data.reshape(-1))   # reject degenerate inputs early
    flt_range = robust_range(flt.data.reshape(-1))

    center = ref.world_from_voxel((np.asarray(ref.dims, dtype=np.float64) - 1) / 2)
    extent = float(np.max(np.asarray(ref.dims) * np.asarray(ref.spacing)))
    scale_len = max(extent / 2.0, 1.0)

    d = ref.direction  # the parameters live on the reference's own axes
    t0 = d.T @ (_center_of_mass(flt) - _center_of_mass(ref))
    q = np.concatenate([np.zeros(9), t0])[:, None]  # [L*(M' - I).flat, t'] in mm

    def matrix_of(qv):
        m3 = np.eye(3) + d @ qv[:9, 0].reshape(3, 3) @ d.T / scale_len
        t = d @ qv[9:, 0]
        mat = np.eye(4)
        mat[:3, :3] = m3
        # rotation/scale about the reference center: A(w) = M(w-c) + c + t
        mat[:3, 3] = center - m3 @ center + t
        return mat

    ref_pyr = build_pyramid(ref, usable_levels(ref.dims, 3, min_dim=16))
    n = len(ref_pyr)
    for ref_l, factor, iters in zip(ref_pyr, (4, 2, 1)[-n:], max_iter[-n:]):
        flt_l = _smooth(flt, 0.7 * factor) if factor > 1 else flt
        ref_world = ref_l.grid.world_points()
        ranges = (robust_range(ref_l.data.reshape(-1).astype(np.float64)), flt_range)
        to_voxel = flt_l.direction / np.asarray(flt_l.spacing)

        def evaluate(qv):
            m = matrix_of(qv)
            value, finish_points = _overlap_nmi(
                ref_l, flt_l, m[:3, :3].T @ to_voxel, (m[:3, 3] - flt_l.origin) @ to_voxel,
                ranges)

            def finish():
                # contract d NMI / d mapped point with [x - c, 1]
                g = finish_points()
                g_sum = g.sum(axis=0)
                linear = g.T @ ref_world - np.outer(g_sum, center)
                return np.concatenate([(d.T @ linear @ d).reshape(-1) / scale_len,
                                       d.T @ g_sum])[:, None]

            return value, finish

        q, _, _ = _ascend(evaluate, q, max(extent / 32.0, 1.0), iters, AFFINE_GAIN_FLOOR)

    mat = matrix_of(q)
    if abs(np.linalg.det(mat[:3, :3])) <= 1e-12:
        raise NumericalFailureError("affine registration collapsed to a singular map")
    return AffineTransform(mat)


# ---------------------------------------------------------------------------
# FFD registration
# ---------------------------------------------------------------------------

def register_ffd(ref: Volume, flt: Volume, affine: AffineTransform | None,
                 cfg: RegistrationConfig) -> RegistrationResult:
    """Symmetric coarse-to-fine FFD refinement of an affine pre-alignment.

    The floating image is resampled into the affinely aligned frame once per
    level; forward and backward lattices live on the (level) reference grid
    and are optimized jointly by `_ascend` on the stacked (2, gx, gy, gz, 3)
    coefficients, one node per control point: the first probe of a level
    moves the control point of largest gradient norm by 0.4 x the lattice
    spacing in mm. Every probe is a value-only `objective` call; the gradient
    at an accepted probe is finished from that call's finishes by
    `objective_gradient`. A level stops early when the relative objective gain
    drops below FFD_GAIN_FLOOR or no step of at least STEP_FLOOR_MM raises the
    objective. A non-finite value or gradient raises NumericalFailureError
    carrying the level and iteration.
    """
    require_type(Volume, ref=ref, flt=flt)
    require_type(RegistrationConfig, cfg=cfg)
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
        r_fal = robust_range(f_al.data[f_mask])
        # an all-True mask excludes nothing (its gather is 1 at every
        # in-bounds point), so leave it out of every objective call
        kwargs = dict(ranges=(r_ref, r_fal), flt_mask=None if f_mask.all() else f_mask)

        def pair(x):
            return fwd.with_coefficients(x[0]), bwd.with_coefficients(x[1])

        def evaluate(x):
            res = objective(ref_k, f_al, *pair(x), cfg.weights,
                            with_gradient=False, **kwargs)
            return res.value, lambda: np.stack(objective_gradient(res.forward))

        step = 0.4 * cfg.final_grid_spacing * float(np.mean(ref_k.spacing))
        try:
            x, trace, done = _ascend(
                evaluate, np.stack([fwd.coefficients, bwd.coefficients]),
                step, cfg.max_iter_per_level, FFD_GAIN_FLOOR)
        except NumericalFailureError as exc:
            raise NumericalFailureError(exc.reason, level=k, iteration=exc.iteration) from exc
        fwd, bwd = pair(x)
        traces.append(trace)
        converged.append(done)

    return RegistrationResult(affine, fwd, bwd, traces, converged)


def register(ref: Volume, flt: Volume, cfg: RegistrationConfig) -> RegistrationResult:
    """Affine initialization followed by symmetric FFD refinement."""
    require_type(RegistrationConfig, cfg=cfg)
    return register_ffd(ref, flt, register_affine(ref, flt), cfg)
