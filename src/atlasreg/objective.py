"""Registration objective: NMI similarity plus two regularization penalties.

The similarity is normalized mutual information computed from a Parzen-window
joint histogram of BINS x BINS cells: each image is affinely mapped to the
continuous bin range [1, BINS-3] (robust percentile clamping) and every voxel
pair deposits a cubic-kernel-weighted 4x4 footprint, so the histogram is
differentiable in the transform. The smoothness penalty averages squared
second derivatives of the displacement field (cross terms doubled); it is
evaluated on the lattice through per-axis Gram matrices of the B-spline
derivative weights, which equals the voxel average without forming the
voxel fields. The inconsistency penalty averages the squared residual of
composing the forward and backward maps.

Each map is sampled once per objective call (`sample_map`): one dense
displacement and one trilinear stencil of the mapped points x + u(x). The
similarity and the inconsistency share them. When the images and both
lattices lie on one grid, the points where the backward similarity samples
the reference are those where the round trip with the forward map outer
samples the forward field, and the other way round. The penalty therefore
requires both lattices on one grid, and each map sampled onto that grid;
the similarity requires its map's lattice over the reference and its
stencil on the floating grid. A violation raises GeometryMismatchError.

All gradients with respect to B-spline coefficients are analytic. The
composition gradient treats the inner field of each round trip as fixed, so
each of the two composition terms drives only its outer transform.

An objective evaluation is a forward pass and a finishing step. The forward
pass (`objective`) computes the value and keeps only what the gradient
reads: both maps' stencils, both round-trip residuals m (the only readers of
the displacement fields, which are then dropped) and, per similarity, the
voxel mask, the joint counts and the bin positions of the reference and
floating samples with the floating scale and unclamped mask. The finishing
step (`objective_gradient`) turns that state into the gradients: it runs
the round-trip scatters first and frees the residuals, then the two
similarity gradients, whose footprint weights and cells it recomputes from
the bin positions bit for bit. A line search thus pays for the gradient
only at the probes it accepts, without evaluating them twice.

Both passes split into a forward and a backward half, which do not meet
until their values and gradients are summed. The forward pass runs the
halves twice: the sampling and similarity of each map, then the residual of
each round trip (the forward half's trip has the forward map outer). The
finishing step also runs them twice: the scatter of each round trip, then
the gradient of each similarity. The forward half runs on one helper thread
that the whole process shares (a forked child starts its own), and the
backward half on the calling thread. When the helper has not started a
forward half by the time its backward half is done, because it is busy
with the halves of other registrations, the calling thread runs that half
itself, so no call waits behind a queue of others' halves.
Each reduction keeps its serial order, so results are bit for bit those of
running the halves one after the other. `build_pseudo_labels(threads=n)`
therefore runs n + 1 threads, and on one core the halves take turns. A call
returns or raises only once both halves have finished, so no work of a
rejected line-search probe runs on into the next probe. If both halves
raise, the forward half's error propagates: the serial order raised it
first. The per-voxel kernels (the trilinear gather and scatter, the Parzen
footprint) work in place in a few reused buffers, which keeps the memory
of two halves at once near that of one.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .transforms import (
    BSplineTransform,
    dense_displacement,
    splat_to_coefficients,
    _weight_matrices,
)
from .volume import Grid, TrilinearStencil, Volume, require_same_geometry

BINS = 64  # joint histogram bins per axis
_PAD = 1.0  # histogram deposit offset keeping the 4-bin footprint in range


@dataclass(frozen=True)
class ObjectiveWeights:
    """Penalty weights; the similarity keeps weight 1 - alpha - beta."""

    alpha: float = 0.001  # bending energy
    beta: float = 0.001   # inverse-consistency

    def __post_init__(self):
        if not (0 <= self.alpha < 1 and 0 <= self.beta < 1):
            raise InvalidInputError("alpha and beta must lie in [0, 1)")
        if self.alpha + self.beta >= 1:
            raise InvalidInputError("alpha + beta must be < 1 (similarity weight > 0)")

    @property
    def similarity(self) -> float:
        return 1.0 - self.alpha - self.beta


# ---------------------------------------------------------------------------
# The forward and backward halves
# ---------------------------------------------------------------------------

def _start_helper():
    """Create the one helper thread's executor of this process: every
    objective evaluation, from whichever thread, runs its forward half there.
    The thread itself starts with the first evaluation."""
    global _HELPER
    _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="atlasreg-fwd-half")


_start_helper()
if hasattr(os, "register_at_fork"):
    # a forked child has no copy of the parent's helper thread, and the
    # parent's executor would never start one: every forward half would
    # then run on its caller
    os.register_at_fork(after_in_child=_start_helper)


def _both_halves(fwd_part, bwd_part):
    """(fwd_part(), bwd_part()), the forward half run on the helper thread
    while this thread runs the backward half.

    If the helper has not started the forward half by the time the backward
    half is done (it is busy with other callers' halves, or takes no more
    work because the interpreter is shutting down), this thread runs it. The
    halves are independent, so the results are the same either way.

    Returns or raises only once both halves have finished, so no work of a
    call outlives it. If both raise, the forward half's error propagates: the
    serial order ran that half first.
    """
    try:
        future = _HELPER.submit(fwd_part)
    except RuntimeError:  # the executor takes no work after interpreter shutdown
        future = None
    try:
        bwd = bwd_part()
    except BaseException:
        _forward_result(future, fwd_part)  # its error, if any, supersedes this one
        raise
    return _forward_result(future, fwd_part), bwd


def _forward_result(future, fwd_part):
    """fwd_part()'s result: the helper's if it has started the half, else
    computed on this thread."""
    if future is None or future.cancel():
        return fwd_part()
    return future.result()


def _finish_both(pair: list, finish):
    """(finish(pair[0]), finish(pair[1])) as the two halves. Empties `pair`,
    so that its items go once both are finished."""
    fwd_item, bwd_item = pair
    pair.clear()
    return _both_halves(lambda: finish(fwd_item), lambda: finish(bwd_item))


# ---------------------------------------------------------------------------
# Parzen joint histogram and NMI
# ---------------------------------------------------------------------------

def robust_range(values: np.ndarray) -> tuple[float, float]:
    """0.1-99.9 percentile intensity range; degenerate ranges are rejected."""
    lo, hi = np.percentile(values, (0.1, 99.9))
    if not hi > lo:
        raise DegenerateInputError("image has no intensity range (constant image)")
    return float(lo), float(hi)


def _bin_positions(values, vrange):
    """Continuous bin coordinates in [1, BINS-3], computed in place of the
    float64 `values`, plus the scale and the unclamped mask."""
    lo, hi = vrange
    if not hi > lo:
        raise DegenerateInputError("empty intensity range")
    interior = values >= lo
    interior &= values <= hi
    scale = (BINS - 4) / (hi - lo)
    q = np.clip(values, lo, hi, out=values)
    q -= lo
    q *= scale
    q += _PAD
    np.clip(q, _PAD, BINS - 3.0, out=q)
    return q, scale, interior


def _footprint_row(t, k, d1=False, out=None):
    """Row k (0-3) of the cubic B-spline footprint at fractional bin offsets
    t = q - floor(q) in [0, 1), into `out` if given: the kernel's weight at
    the offset u = t + 1 - k, that of bin floor(q) - 1 + k, or with d1 the
    kernel's first derivative there.

    Evaluates the branch of `bspline_kernel` (and `bspline_kernel_d1`) that
    covers u, with the kernel's own operations in their order, so the row
    equals the kernel bit for bit, signed zeros included. With r2 = 2 - |u|
    and r1 = 1 - |u|: rows 0 and 3 lie where the kernel's inner cubic in r1
    is zero, rows 1 and 2 where both cubics count.
    """
    if k == 0:
        r2 = np.add(t, 1.0)
        np.subtract(2.0, r2, out=r2)
        r1 = None
    elif k == 1:
        r2, r1 = 2.0 - t, 1.0 - t
    elif k == 2:
        r1 = 1.0 - t
        r2 = 2.0 - r1
        np.subtract(1.0, r1, out=r1)
    else:
        r2 = 2.0 - t
        np.subtract(2.0, r2, out=r2)
        r1 = None
    row = np.empty_like(t) if out is None else out
    if d1:
        # sign(u) is +1 on row 0, -1 on rows 2-3; on row 1 it is 0 only at
        # t = 0, where the bracket is exactly 0 as well
        np.multiply(0.5, r2, out=row)
        row *= r2
        if r1 is None:
            np.subtract(0.0, row, out=row)
        else:
            inner = np.multiply(2.0, r1, out=r2)
            inner *= r1
            np.subtract(inner, row, out=row)
        if k >= 2:
            np.negative(row, out=row)
        return row
    np.multiply(r2, r2, out=row)
    row *= r2
    if r1 is not None:
        inner = np.multiply(4.0, r1, out=r2)
        inner *= r1
        inner *= r1
        row -= inner
    row /= 6.0
    return row


def _bin_offsets(q):
    """(t = q - floor(q), floor(q) as integers) of continuous bin positions."""
    t = np.floor(q)
    f = t.astype(np.intp)
    return np.subtract(q, t, out=t), f


def _footprint(q_r, q_f, d1_f=False):
    """The 4x4 Parzen footprint of every (ref, float) bin-position pair,
    cell by cell with the reference offset slowest.

    Yields (flat histogram cell of each pair, reference weight, floating
    weight, or with d1_f the kernel's derivative there). The cell and
    reference-weight arrays are buffers, rewritten as the loop goes on: the
    four floating rows are computed once, the reference rows one at a time.
    """
    t, cell = _bin_offsets(q_f)
    rows_f = [_footprint_row(t, k, d1_f) for k in range(4)]
    t, f_r = _bin_offsets(q_r)
    # the footprint's first cell, (floor(q_r) - 1) * BINS + floor(q_f) - 1
    f_r -= 1
    f_r *= BINS
    cell += f_r
    cell -= 1
    del f_r
    idx, w_r = np.empty_like(cell), np.empty_like(t)
    for dr in range(4):
        _footprint_row(t, dr, out=w_r)
        for df in range(4):
            yield np.add(cell, dr * BINS + df, out=idx), w_r, rows_f[df]


def _joint_counts(rv: np.ndarray, fv: np.ndarray, ranges):
    """Parzen joint histogram (BINS, BINS) of paired ref/float samples.

    `ranges` fixes the (ref, float) intensity ranges; None takes the robust
    percentile ranges of the samples. Also returns the per-pair bin
    positions the gradient reads: (ref positions, float positions, float
    scale, float unclamped mask). The positions are computed in place of
    the float64 samples rv and fv.
    """
    if rv.size == 0:
        raise DegenerateInputError("no contributing voxels (empty mask or no overlap)")
    if ranges is None:
        ranges = (robust_range(rv), robust_range(fv))
    q_r = _bin_positions(rv, ranges[0])[0]
    q_f, scale_f, interior_f = _bin_positions(fv, ranges[1])
    counts = np.zeros(BINS * BINS)
    weights = np.empty(q_r.size)
    for cell, w_r, w_f in _footprint(q_r, q_f):
        counts += np.bincount(cell, weights=np.multiply(w_r, w_f, out=weights),
                              minlength=BINS * BINS)
    return counts.reshape(BINS, BINS), (q_r, q_f, scale_f, interior_f)


def build_joint_histogram(ref: Volume, warped: Volume, mask=None,
                          ranges=None) -> np.ndarray:
    """Parzen joint histogram counts (BINS, BINS) of two geometrically
    identical volumes, reference bins along axis 0.

    `mask` (bool array over the grid) excludes padding or irrelevant voxels.
    `ranges` optionally fixes the (ref, float) intensity ranges; by default
    they are the robust percentile ranges of the masked voxels.
    """
    require_same_geometry(ref, warped)
    rv = ref.data.reshape(-1).astype(np.float64)
    fv = warped.data.reshape(-1).astype(np.float64)
    if mask is not None:
        m = np.asarray(mask, dtype=bool).reshape(-1)
        rv, fv = rv[m], fv[m]
    return _joint_counts(rv, fv, ranges)[0]


def _entropy(p: np.ndarray) -> float:
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


def _nmi_terms(counts: np.ndarray):
    """NMI of a count histogram with the terms its gradient reuses:
    (nmi, joint entropy, joint p, ref marginal, float marginal, total)."""
    total = counts.sum()
    if total <= 0:
        raise DegenerateInputError("joint histogram has zero mass")
    p = counts / total
    p_r = p.sum(axis=1)
    p_f = p.sum(axis=0)
    h_j = _entropy(p.reshape(-1))
    if h_j <= 0:
        raise DegenerateInputError("joint entropy is zero (constant images)")
    return (_entropy(p_r) + _entropy(p_f)) / h_j, h_j, p, p_r, p_f, total


def nmi(counts: np.ndarray) -> float:
    """Normalized mutual information (H(R) + H(F)) / H(R, F), in [1, 2], of a
    joint count histogram with reference bins along axis 0."""
    return _nmi_terms(counts)[0]


def _nmi_and_count_gradient(counts: np.ndarray):
    """NMI value and its derivative with respect to each histogram count."""
    s, h_j, p, p_r, p_f, total = _nmi_terms(counts)
    log_r = np.log(p_r, out=np.zeros_like(p_r), where=p_r > 0)
    log_f = np.log(p_f, out=np.zeros_like(p_f), where=p_f > 0)
    log_j = np.log(p, out=np.zeros_like(p), where=p > 0)
    # dS/dp on occupied cells; per-voxel deposits sum to a constant, so the
    # uniform terms cancel when chained through the kernel derivative.
    ds_dp = (-(log_r[:, None] + 1.0) - (log_f[None, :] + 1.0)
             + s * (log_j + 1.0)) / h_j
    ds_dp[p == 0] = 0.0
    return s, ds_dp / total


# ---------------------------------------------------------------------------
# One sampling of an FFD map
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledMap:
    """An FFD map x -> x + u(x), sampled once at every voxel x of its
    reference grid.

    `u` is the displacement (mm) channel-first, (3, nx, ny, nz) and
    C-contiguous, so each world axis is one contiguous scalar field.
    `stencil` interpolates on the grid `onto` at the mapped points, one per
    reference voxel in C order.
    """

    ffd: BSplineTransform
    onto: Grid
    u: np.ndarray
    stencil: TrilinearStencil


def sample_map(ffd: BSplineTransform, onto: Grid) -> SampledMap:
    """Sample `ffd` once for the similarity and the inconsistency penalty.

    `onto` is the grid the mapped points are interpolated on: that of the
    image the map points into, or for the penalty alone the FFD's own
    reference grid.
    """
    u = np.ascontiguousarray(np.moveaxis(dense_displacement(ffd), -1, 0))
    # the world points x + u(x) go as soon as their voxel coordinates exist
    points = onto.voxel_from_world(ffd.reference.world_points() + u.reshape(3, -1).T)
    return SampledMap(ffd, onto, u, TrilinearStencil(onto.dims, points))


# ---------------------------------------------------------------------------
# Similarity through a B-spline transform
# ---------------------------------------------------------------------------

def _floating_samples(stencil: TrilinearStencil, flt: Volume, ref_mask, flt_valid):
    """flt sampled through `stencil`, one point per ref voxel: (values, mask
    of the points that enter the histogram). Kept apart from
    `_histogram_nmi` so that a caller can release a stencil of its own
    before the histogram allocates."""
    vals = stencil.gather(flt.data, 0.0)
    mask = stencil.inside
    if ref_mask is not None:
        mask = mask & np.asarray(ref_mask, dtype=bool).reshape(-1)
    if flt_valid is not None:
        mask = mask & (stencil.gather(flt_valid, 0.0) >= 0.999)
    return vals, mask


def _histogram_nmi(ref: Volume, samples, ranges):
    """NMI between ref and the `_floating_samples` of flt: (nmi, joint
    counts, the `_joint_counts` bin positions)."""
    vals, mask = samples
    counts, positions = _joint_counts(
        ref.data.reshape(-1)[mask].astype(np.float64), vals[mask], ranges)
    return nmi(counts), counts, positions


@dataclass(frozen=True, eq=False)
class SimilarityForward:
    """What the gradient of one similarity reads of its value pass: the
    map's FFD and the stencil flt was sampled through, the floating image,
    the histogram mask, the joint counts and the `_joint_counts` bin
    positions."""

    ffd: BSplineTransform
    stencil: TrilinearStencil
    flt: Volume
    mask: np.ndarray
    counts: np.ndarray
    positions: tuple


def _sample_gradient(counts, positions):
    """d NMI / d floating sample of every histogram pair, from the joint
    counts and the `_joint_counts` bin positions. The footprint cells and
    reference weights are recomputed, bit for bit those of the deposit; of
    the floating footprint only the kernel derivative is evaluated."""
    q_r, q_f, scale_f, interior_f = positions
    ds_flat = _nmi_and_count_gradient(counts)[1].reshape(-1)
    lam = np.zeros(q_r.size)
    term = np.empty(q_r.size)
    for cell, w_r, dw_f in _footprint(q_r, q_f, d1_f=True):
        # the cells lie in the histogram, so "clip" changes none of them
        ds_flat.take(cell, out=term, mode="clip")
        term *= w_r
        term *= dw_f
        lam += term
    # clamped samples sit on the flat part of the intensity mapping
    lam *= scale_f
    lam[~interior_f] = 0.0
    return lam


def _similarity_gradient(fw: SimilarityForward) -> np.ndarray:
    """d NMI / d coefficients of the FFD, finished from its value pass."""
    lam = _sample_gradient(fw.counts, fw.positions)
    # d(sample)/d(world point): direction @ (voxel gradient / spacing); the
    # gradient's (N, 3) buffer then holds the voxel field
    field = fw.stencil.gather(fw.flt.data, 0.0, want_gradient=True)[1]
    gw = field[fw.mask]
    gw /= np.asarray(fw.flt.spacing)
    gw = gw @ fw.flt.direction.T
    gw *= lam[:, None]
    field[~fw.mask] = 0.0
    field[fw.mask] = gw
    return splat_to_coefficients(fw.ffd, field.reshape(fw.ffd.reference.dims + (3,)))


def similarity_and_gradient(ref: Volume, flt: Volume, sampled: SampledMap,
                            ranges=None, ref_mask=None, flt_valid=None,
                            with_gradient=True):
    """NMI between ref and flt warped by a sampled FFD map, plus the
    gradient with respect to that FFD's coefficients.

    `sampled` must come from an FFD over ref's geometry, sampled onto flt's
    grid: `sample_map(ffd, flt.grid)`. `ref_mask` excludes reference voxels;
    `flt_valid` marks usable voxels of the floating image (pairs whose
    warped sample touches invalid voxels are skipped).
    Returns (nmi, gradient), or without the gradient (nmi, the
    SimilarityForward its gradient is finished from).
    """
    require_same_geometry(sampled.ffd.reference, ref.grid, "FFD reference and ref")
    require_same_geometry(sampled.onto, flt.grid, "sampled grid and flt")
    samples = _floating_samples(sampled.stencil, flt, ref_mask, flt_valid)
    s, counts, positions = _histogram_nmi(ref, samples, ranges)
    forward = SimilarityForward(sampled.ffd, sampled.stencil, flt, samples[1], counts,
                                positions)
    if not with_gradient:
        return s, forward
    return s, _similarity_gradient(forward)


# ---------------------------------------------------------------------------
# Bending energy
# ---------------------------------------------------------------------------

# (x order, y order, z order, multiplicity) for the six second derivatives
_BENDING_TERMS = (
    (2, 0, 0, 1.0),
    (0, 2, 0, 1.0),
    (0, 0, 2, 1.0),
    (1, 1, 0, 2.0),
    (0, 1, 1, 2.0),
    (1, 0, 1, 2.0),
)


def _bending(t: BSplineTransform, with_gradient: bool):
    # The voxel sum of a squared derivative field W C is <C, W^T W C>, and
    # W^T W factorises per axis, so every term is a product on the lattice.
    n_vox = float(np.prod(t.reference.dims))
    coef = t.coefficients
    energy = 0.0
    grad = np.zeros_like(coef) if with_gradient else None
    for ox, oy, oz, mult in _BENDING_TERMS:
        gx, gy, gz = _weight_matrices(t, (ox, oy, oz), gram=True)
        gc = np.einsum("ap,bq,cr,pqrd->abcd", gx, gy, gz, coef, optimize=True)
        energy += mult * float(np.vdot(coef, gc))
        if with_gradient:
            grad += (2.0 * mult / n_vox) * gc
    return energy / n_vox, grad


def bending_energy(t: BSplineTransform) -> float:
    """Average over voxels of squared second derivatives of the displacement.

    Derivatives are taken with respect to reference voxel coordinates and
    evaluated analytically from the B-spline basis; cross terms count twice.
    """
    return _bending(t, with_gradient=False)[0]


def bending_energy_gradient(t: BSplineTransform):
    """(energy, d energy / d coefficients)."""
    return _bending(t, with_gradient=True)


# ---------------------------------------------------------------------------
# Inverse-consistency penalty
# ---------------------------------------------------------------------------

def _roundtrip(outer: SampledMap, inner: SampledMap):
    """(mean |m|^2, trip) of the round trip with `outer` as the outer map;
    the trip is (outer FFD, inner stencil, residual). The residual m(x) =
    u_inner(x) + u_outer(x + u_inner(x)) is C-contiguous (N, 3); the outer
    field is sampled edge-clamped through the inner map's stencil."""
    # the inner map's points are where the outer field is read
    require_same_geometry(inner.onto, outer.ffd.reference,
                          "sampled grid and outer reference")
    m = np.empty((inner.stencil.base.size, 3))
    for d in range(3):
        np.add(inner.u[d].reshape(-1), inner.stencil.gather(outer.u[d]), out=m[:, d])
    n_vox = float(np.prod(outer.ffd.reference.dims))
    return float((m ** 2).sum()) / n_vox, (outer.ffd, inner.stencil, m)


def _roundtrip_residuals(fwd: SampledMap, bwd: SampledMap):
    """(penalty, [trip with fwd outer, trip with bwd outer]), see `_roundtrip`;
    the two trips run as the two halves."""
    require_same_geometry(fwd.ffd.reference, bwd.ffd.reference,
                          "fwd and bwd references")
    (c_f, trip_f), (c_b, trip_b) = _both_halves(lambda: _roundtrip(fwd, bwd),
                                                lambda: _roundtrip(bwd, fwd))
    return (0.0 + c_f) + c_b, [trip_f, trip_b]


def _roundtrip_gradient(outer: BSplineTransform, stencil: TrilinearStencil,
                        m: np.ndarray) -> np.ndarray:
    """d(mean |m|^2) / d outer coefficients, the inner field held fixed. The
    residual m is scaled in place: it is not read again."""
    n_vox = float(np.prod(outer.reference.dims))
    m *= 2.0 / n_vox
    return splat_to_coefficients(outer, stencil.scatter(m))


def inconsistency_penalty(fwd: SampledMap, bwd: SampledMap) -> float:
    """Voxel-average squared residual of fwd∘bwd plus that of bwd∘fwd (mm^2).

    Both lattices must lie on one grid, each map sampled onto it:
    `inconsistency_penalty(sample_map(fwd, grid), sample_map(bwd, grid))`.
    """
    return _roundtrip_residuals(fwd, bwd)[0]


def inconsistency_gradient(fwd: SampledMap, bwd: SampledMap):
    """(value, grad wrt fwd's coefficients, grad wrt bwd's coefficients).

    Each round-trip term drives only its outer transform; the inner field is
    held fixed (alternating scheme), so each returned gradient is the exact
    derivative of its own term.
    """
    value, trips = _roundtrip_residuals(fwd, bwd)
    return (value, *_finish_both(trips, lambda trip: _roundtrip_gradient(*trip)))


# ---------------------------------------------------------------------------
# Full objective
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ObjectiveForward:
    """What a value-only `objective` call keeps for `objective_gradient`:
    the transforms, the weights, the SimilarityForward of each map and,
    when beta > 0, the two round trips of `_roundtrip_residuals`. The
    displacement fields are not kept. `objective_gradient` empties the
    lists as it goes."""

    fwd: BSplineTransform
    bwd: BSplineTransform
    weights: ObjectiveWeights
    similarities: list
    roundtrips: list


@dataclass(frozen=True)
class ObjectiveResult:
    value: float
    similarity_fwd: float
    similarity_bwd: float
    bending_fwd: float
    bending_bwd: float
    inconsistency: float
    grad_fwd: np.ndarray | None
    grad_bwd: np.ndarray | None
    # set by a value-only call; None when the gradients were asked for
    forward: ObjectiveForward | None = field(default=None, repr=False, compare=False)


def objective(ref: Volume, flt: Volume, fwd: BSplineTransform,
              bwd: BSplineTransform, weights: ObjectiveWeights,
              ranges_fwd=None, ranges_bwd=None, flt_mask=None,
              with_gradient=True) -> ObjectiveResult:
    """Symmetric registration objective and its coefficient gradients.

    value = (1-a-b) * (S_fwd + S_bwd) - a * (bend_fwd + bend_bwd) - b * C_inc

    where S_fwd is the NMI of flt warped onto ref by `fwd` and S_bwd the NMI
    of ref warped onto flt by `bwd`. `fwd` must be defined over ref's
    geometry and `bwd` over flt's, and with beta > 0 ref and flt must share
    one grid; otherwise GeometryMismatchError is raised. Each map is sampled
    once and shared by its similarity and the inconsistency penalty.
    `flt_mask` marks the usable voxels of flt (the in-bounds part of an
    affinely resampled floating image).

    This is the forward pass; a value-only call returns its state as
    `forward`, which `objective_gradient` finishes into the gradients. With
    the gradient, the same finishing step runs before the call returns.
    Each pass runs its forward half on the shared helper thread and its
    backward half on the calling thread (see the module docstring).
    """
    def forward_half():
        sampled = sample_map(fwd, flt.grid)
        return sampled, similarity_and_gradient(
            ref, flt, sampled, ranges=ranges_fwd, flt_valid=flt_mask, with_gradient=False)

    def backward_half():
        sampled = sample_map(bwd, ref.grid)
        return sampled, similarity_and_gradient(
            flt, ref, sampled, ranges=ranges_bwd, ref_mask=flt_mask, with_gradient=False)

    (map_f, (s_f, sim_f)), (map_b, (s_b, sim_b)) = _both_halves(forward_half, backward_half)

    e_f = e_b = c = 0.0
    trips = []
    if weights.alpha != 0:
        e_f, e_b = bending_energy(fwd), bending_energy(bwd)
    if weights.beta != 0:
        c, trips = _roundtrip_residuals(map_f, map_b)
    del map_f, map_b  # the displacements: only the residuals read them

    ws = weights.similarity
    value = ws * (s_f + s_b) - weights.alpha * (e_f + e_b) - weights.beta * c
    forward = ObjectiveForward(fwd, bwd, weights, [sim_f, sim_b], trips)
    del sim_f, sim_b, trips  # so that the finishing step frees each part it is done with
    if not with_gradient:
        return ObjectiveResult(value, s_f, s_b, e_f, e_b, c, None, None, forward)
    return ObjectiveResult(value, s_f, s_b, e_f, e_b, c, *objective_gradient(forward))


def objective_gradient(forward: ObjectiveForward):
    """(grad_fwd, grad_bwd) of the objective, finished from the `forward`
    state of a value-only `objective` call.

    The two round-trip scatters run first, as the two halves, and their
    residuals are dropped; then the two similarity gradients, as the two
    halves, and the similarities' state is dropped. The state is consumed:
    a second call raises InvalidInputError.
    """
    if not forward.similarities:
        raise InvalidInputError("this objective evaluation's gradient was already finished")
    weights = forward.weights
    g_ef = g_eb = g_cf = g_cb = 0.0
    if forward.roundtrips:
        g_cf, g_cb = _finish_both(forward.roundtrips, lambda trip: _roundtrip_gradient(*trip))
    g_sf, g_sb = _finish_both(forward.similarities, _similarity_gradient)
    if weights.alpha != 0:
        g_ef = bending_energy_gradient(forward.fwd)[1]
        g_eb = bending_energy_gradient(forward.bwd)[1]

    ws = weights.similarity
    return (ws * g_sf - weights.alpha * g_ef - weights.beta * g_cf,
            ws * g_sb - weights.alpha * g_eb - weights.beta * g_cb)
