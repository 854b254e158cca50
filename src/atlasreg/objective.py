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
composing the forward and backward maps over a sample grid of the inner
map: every s-th voxel along each axis, s = max(1, floor(g / 2)) of that
axis's lattice spacing g in voxels (`_sample_strides`). The residual
composes two cubic B-splines, so a grid at half the knot spacing estimates
its voxel average from one point in eight; on lattices under 4 voxels
every stride is 1 and the penalty is the voxel average.

Each map is sampled once per objective call (`sample_map`): one dense
displacement and one trilinear stencil of the mapped points x + u(x), on
the map's own reference grid, plus the stencil and displacement of its
sample voxels when a stride exceeds 1. The similarity and the
inconsistency share them, so both require one grid: the similarity its
map's lattice, the reference and the floating image, the penalty both
lattices. On that grid the points where the round trip with the forward
map outer samples the forward field are among those where the backward
similarity samples the reference, and the other way round. `register_ffd`
resamples the floating image onto each level's reference grid and lays
both lattices over it. A violation raises GeometryMismatchError.

All gradients with respect to B-spline coefficients are analytic. The
composition gradient treats the inner field of each round trip as fixed, so
each of the two composition terms drives only its outer transform. The
affine and FFD similarities share one NMI core, one path through
`_nmi_deposit` and the finish it returns. An overlap is a mask of points
and a shell, the points outside the floating grid that deposit a weight
below 1. The affine's overlap has the soft edge of `_soft_overlap`, so its
gradient includes the weights' term. The FFD's overlap is hard, an overlap
whose shell is empty (`_NO_SHELL`), so its gradient holds the mask fixed:
a voxel whose mapped point crosses the floating grid's edge enters or
leaves the histogram as a step, and that term is left out.

An objective evaluation is a value pass and a finishing step. Every value
pass returns its value and a finish: a closure that holds only what its
gradient reads and returns that gradient when called. `_nmi_deposit`'s
finish holds the voxel mask, the counts and the bin positions;
`similarity_and_gradient`'s adds the map's stencil and FFD; `_roundtrip`'s
holds the residual m at the inner map's sample voxels, and
`inconsistency_gradient` returns the penalty with the finishes of both
round trips. The value pass (`objective`) calls those two public entries
and returns one finish per half, holding that map's similarity finish, its
bending gradient (one scaled sum more than the energy) and, when beta > 0,
the finish of the round trip with that map outer; none holds a
displacement field. The finishing step (`objective_gradient`) runs the
two. Each runs its round trip's finish,
which pops and scatters the residual, then its similarity's finish, then
applies the weights. The similarity's finish is one gather,
`_footprint_gather`, the adjoint of the deposit: it recomputes the
footprint from the bin positions bit for bit and sums the count derivative
over it, once per sample with the floating kernel's derivative and once
per shell point's deposit weight, which for the FFD is on no point. A line
search thus pays for the gradient only at the probes it accepts, without
evaluating them twice.
The affine hands its ascent the same kind of finish, which holds the
probe's one stencil (`registration._overlap_nmi`).

Both passes split into a forward and a backward half, which do not meet
until their values and gradients are summed. The value pass runs the halves
twice, `_half` on each map, then the round trip with each map outer; the
finishing step runs them once. Each time, the forward half runs on a thread
started for it and the backward half on the calling thread, which then
joins that thread: an evaluation and its finish start three threads, two
when beta is 0. Calls share nothing and no thread outlives its call, so a
registration runs at most two threads at a time. In a registration worker
of `build_pseudo_labels`, the other workers already share the CPUs, so
there the halves run one after the other on the calling thread. They do
so in every process that `multiprocessing` started, the processes whose
`multiprocessing.parent_process()` is not None. Each reduction keeps its
serial order, so results are bit for bit those of running the halves one
after the other. A call returns or raises only once both halves have
finished, so no work of a rejected line-search probe runs on into the next;
if both raise, the forward half's error propagates, as in the serial order.
The per-voxel kernels (the trilinear gather and scatter, the Parzen
footprint) work in place in a few reused buffers, which keeps the memory of
two halves at once near that of one. They build no index array per cell
corner or footprint cell: each point's first cell indexes the view of the
data, or of the output, that starts at the corner's or cell's offset.
Points and gradients go as three contiguous rows (3, N), so that every
elementwise pass runs over N elements: `transforms._source_rows` maps the
world points to voxel coordinates on rows, for `sample_map` as for the
warps, and the stencil reads them through their (N, 3) view.
`_nmi_deposit`'s finish reads the gradient's three rows from the one
stencil its points were sampled through (`TrilinearStencil.gradient`),
works on them over the whole grid, with λ spread over every point, and
writes the one C-contiguous (N, 3) field it returns through that field's
transpose; it builds no stencil and takes no boolean (N, 3) gather or
scatter.
Freed pages stay mapped as well: the package sets the C allocator's
thresholds at import (`atlasreg._keep_freed_pages_mapped`), so an
evaluation reuses the pages the previous one freed rather than faulting
them in again as zero-filled pages. The resident memory after a call
therefore stays at its peak, less what exceeds the 128 MiB of free heap
kept mapped.
"""
from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, is_number, require_type
from .transforms import (
    BSplineTransform,
    dense_displacement,
    splat_to_coefficients,
    _einsum,
    _source_rows,
    _weight_matrices,
)
from .volume import TrilinearStencil, Volume, _float_array, _numbers, require_same_geometry

BINS = 64  # joint histogram bins per axis
_PAD = 1.0  # histogram deposit offset keeping the 4-bin footprint in range
_RANGES_RULE = "ranges must be two (lo, hi) pairs of numbers"


@dataclass(frozen=True)
class ObjectiveWeights:
    """Penalty weights; the similarity keeps weight 1 - alpha - beta."""

    alpha: float = 0.001  # bending energy
    beta: float = 0.001   # inverse-consistency

    def __post_init__(self):
        if not (is_number(self.alpha) and is_number(self.beta)):
            raise InvalidInputError("alpha and beta must be real numbers")
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

def _both_halves(fwd_part, bwd_part):
    """(fwd_part(), bwd_part()), the forward half run on a thread started
    for this call while this thread runs the backward half; in a process
    that `multiprocessing` started (a registration worker of
    `build_pseudo_labels`), both on this thread, the forward half first.

    Returns or raises only once both halves have finished, so no work of a
    call outlives it. If both raise, the forward half's error propagates: the
    serial order ran that half first.
    """
    if multiprocessing.parent_process() is not None:
        return fwd_part(), bwd_part()
    fwd = error = None

    def run_forward():
        nonlocal fwd, error
        try:
            fwd = fwd_part()
        except BaseException as exc:  # raised on the caller, after the join
            error = exc

    helper = threading.Thread(target=run_forward, name="atlasreg-fwd-half")
    helper.start()
    try:
        bwd = bwd_part()
    finally:
        helper.join()
        if error is not None:
            raise error  # inside `finally`, so it supersedes bwd_part's error
    return fwd, bwd


# ---------------------------------------------------------------------------
# Parzen joint histogram and NMI
# ---------------------------------------------------------------------------

def robust_range(values: np.ndarray) -> tuple[float, float]:
    """0.1-99.9 percentile intensity range; degenerate ranges, and no values
    at all, are rejected."""
    values = _numbers(values, "values must be numbers")  # the percentiles run on their dtype
    if values.size == 0:
        raise DegenerateInputError("image has no values to take an intensity range of")
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

    The footprint is symmetric about t = 1/2: with the row's distance
    d = 1 - t on rows 0-1 and d = t on rows 2-3, the kernel's r2 = 2 - |u|
    and r1 = 1 - |u| are d and none on the outer rows 0 and 3, where the
    kernel's inner cubic is zero (weight d^3 / 6), and 1 + d and d on the
    inner rows 1 and 2 (weight ((1 + d)^3 - 4 d^3) / 6). The row then takes
    the kernel's own operations on r2 and r1 in their order.

    The row equals `bspline_kernel` (and `bspline_kernel_d1`) at u bit for
    bit, signed zeros included, because every distance is exact. That needs
    t from `_bin_offsets` of positions q in [1, BINS - 3], as
    `_bin_positions` clips them: a q >= 1 is a multiple of 2^-52, so t is
    too, and 1 - t, 1 + t and 2 - t are exact. The caller's t is read,
    never written; rows 2-3 read it as their distance.
    """
    near = np.subtract(1.0, t) if k < 2 else t
    r2, r1 = (np.add(near, 1.0), near) if k in (1, 2) else (near, None)
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

    Yields (the cell's offset dr * BINS + df from each pair's first cell,
    the flat histogram index of that first cell, reference weight, floating
    weight, or with d1_f the kernel's derivative there). A pair's cell is
    its first cell in the view of the flat histogram from the offset on, so
    no per-cell index array is formed. The reference-weight array is a
    buffer, rewritten as the loop goes on: the four floating rows are
    computed once, the reference rows one at a time.
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
    w_r = np.empty_like(t)
    for dr in range(4):
        _footprint_row(t, dr, out=w_r)
        for df in range(4):
            yield dr * BINS + df, cell, w_r, rows_f[df]


def build_joint_histogram(ref: Volume, warped: Volume, mask=None,
                          ranges=None) -> np.ndarray:
    """Parzen joint histogram counts (BINS, BINS) of two geometrically
    identical volumes, reference bins along axis 0.

    `mask`, numbers or bools over the grid with nonzero marking a voxel,
    excludes padding or irrelevant voxels; other dtypes and shapes raise
    InvalidInputError. `ranges` optionally fixes the (ref, float) intensity
    ranges; by default they are the robust percentile ranges of the masked
    voxels.
    """
    require_type(Volume, ref=ref, warped=warped)
    require_same_geometry(ref, warped)
    m = np.ones(ref.dims, dtype=bool) if mask is None else _mask(mask, "mask", ref)
    m = m.reshape(-1)
    return _nmi_deposit(ref, warped, m, warped.data.reshape(-1)[m].astype(np.float64),
                        ranges)[0]


def _mask(mask, what: str, vol: Volume) -> np.ndarray:
    """The voxel set of `mask` over `vol`'s grid as bools, from numbers or
    bools, nonzero marking a voxel (a bool mask is returned uncopied);
    otherwise InvalidInputError naming `what`."""
    return _numbers(mask, f"{what} must be numbers or bools of shape {vol.dims}", vol.dims,
                    bools=True).astype(bool, copy=False)


def _entropy(p: np.ndarray) -> float:
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


def _nmi_terms(counts: np.ndarray):
    """NMI of a count histogram with the terms its gradient reuses:
    (nmi, joint entropy, joint p, ref marginal, float marginal, total).
    InvalidInputError unless the counts are finite numbers >= 0."""
    if counts.dtype.kind not in "iuf":
        raise InvalidInputError(f"counts must be numbers, got dtype {counts.dtype}")
    low = counts.min(initial=0)  # NaN if any count is NaN
    if not low >= 0:
        raise InvalidInputError(f"counts must be >= 0 and not NaN, got {low}")
    total = counts.sum()
    if not np.isfinite(total):
        raise InvalidInputError(f"counts must be finite, got a total of {total}")
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
    require_type(np.ndarray, counts=counts)
    if counts.ndim != 2:
        raise InvalidInputError(f"counts must be a 2-D histogram, got shape {counts.shape}")
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
# The NMI core of the affine and FFD similarities
# ---------------------------------------------------------------------------

def _soft_overlap(stencil: TrilinearStencil, points: np.ndarray):
    """The soft-edged overlap of mapped points with a grid.

    `points` (N, 3) are the voxel coordinates `stencil` was built from.
    Along each axis a point weighs 1 within [0, n - 1] and falls linearly
    to 0 one voxel outside; its weight is the product over the axes, so it
    is continuous in the point. Returns (the mask of the points of positive
    weight, the shell). The shell holds the points outside the grid whose
    weight is positive: (their indices among the points of the mask, their
    weights, d weight / d voxel coordinate (n, 3), the mask (n, 3) of the
    axes on which they lie inside, and their indices among all the points).
    Points inside the grid weigh exactly 1 and make no shell state: with
    none outside, the shell is `_NO_SHELL`'s five empty fields.
    """
    rows = np.flatnonzero(~stencil.inside)
    outside = points[rows]
    clamped = np.clip(outside, 0.0, np.asarray(stencil.dims, dtype=np.float64) - 1.0)
    excursion = np.subtract(outside, clamped, out=outside)
    axis_w = np.maximum(1.0 - np.abs(excursion), 0.0)
    weights = axis_w.prod(axis=1)
    kept = weights > 0
    shell_rows, dropped = rows[kept], rows[~kept]
    mask = stencil.inside.copy()
    mask[shell_rows] = True
    weights, excursion = weights[kept], excursion[kept]
    # an axis weight falls as the point moves out through either face; the
    # other axes' weights multiply its derivative (none of them is 0 here)
    d_weight = -np.sign(excursion) * (weights[:, None] / axis_w[kept])
    return mask, (shell_rows - np.searchsorted(dropped, shell_rows), weights, d_weight,
                  excursion == 0, shell_rows)


# the shell of an overlap with no point outside the grid, such as the FFD's
# hard overlap: the five fields of `_soft_overlap`'s shell, empty
_NO_SHELL = (np.empty(0, np.intp), np.empty(0), np.empty((0, 3)), np.empty((0, 3), bool),
             np.empty(0, np.intp))


def _nmi_deposit(ref: Volume, flt: Volume, mask, values, ranges, shell=_NO_SHELL):
    """The Parzen joint histogram (BINS, BINS) of ref's voxels under `mask`
    paired with `values`, flt's float64 samples at their mapped points, and
    the finish of its gradient.

    `ranges` fixes the (ref, float) intensity ranges, two (lo, hi) pairs of
    numbers (else InvalidInputError); None takes the robust percentile
    ranges of the samples. Every pair deposits a unit mass, except those of
    the `_soft_overlap` shell, which deposit their weight; the default shell
    is empty (`_NO_SHELL`), a hard overlap. The bin positions
    the gradient reads, (ref positions, float positions, float scale, float
    unclamped mask), are computed in place of `values`.

    Returns (counts, finish). `finish(stencil)` returns d NMI / d mapped
    world point (N, 3), C-contiguous and zero off the mask: the floating
    gradient times d NMI / d sample (Mattes et al., IEEE TMI 2003), plus a
    shell point's deposit-weight derivative. Both derivatives are one
    gather of the count derivative over the footprint, `_footprint_gather`:
    per sample with the floating kernel's derivative, per shell weight with
    the kernel itself and from the uniform term. One path serves both
    overlaps: an empty shell's steps run on no point. `stencil` is the
    stencil the points were sampled through, and the finish reads the
    floating gradient through it alone: a shell point takes the gradient at
    its edge-clamped point, which the stencil gives it, along the axes on
    which it lies inside, and 0 across the faces it lies outside.
    """
    if ranges is not None:
        ranges = _float_array(ranges, _RANGES_RULE, (2, 2))
    rv = ref.data.reshape(-1)[mask].astype(np.float64)
    if rv.size == 0:
        raise DegenerateInputError("no contributing voxels (empty mask or no overlap)")
    if ranges is None:
        ranges = (robust_range(rv), robust_range(values))
    q_r = _bin_positions(rv, ranges[0])[0]
    q_f, scale_f, interior_f = _bin_positions(values, ranges[1])
    counts = np.zeros(BINS * BINS)
    deposit = np.empty(q_r.size)
    for off, cell, w_r, w_f in _footprint(q_r, q_f):
        np.multiply(w_r, w_f, out=deposit)
        deposit[shell[0]] *= shell[1]
        counts[off:] += np.bincount(cell, deposit, BINS * BINS - off)
    counts = counts.reshape(BINS, BINS)
    histogram = [counts, (q_r, q_f, scale_f, interior_f)]

    def finish(stencil):
        if not histogram:
            raise InvalidInputError("this NMI gradient was already finished")
        counts, (q_r, q_f, scale_f, interior_f) = histogram
        histogram.clear()
        ds = _nmi_and_count_gradient(counts)[1]
        lam = np.zeros(mask.size)  # spread over every point
        # d NMI / d sample; clamped samples sit on the flat part of the
        # intensity mapping
        lam_m = _footprint_gather(ds, q_r, q_f, np.zeros(q_r.size), d1_f=True)
        lam_m *= scale_f
        lam_m[~interior_f] = 0.0
        lam[mask] = lam_m
        idx, w, d_w, inner, cells = shell
        lam[cells] *= w
        # d NMI / d deposit weight: a weight changes the histogram's total
        # mass, so the uniform term of the count derivative, which cancels
        # for a sample, stays
        d_nmi_d_w = _footprint_gather(ds, q_r[idx], q_f[idx],
                                      np.full(idx.size, -(counts * ds).sum() / counts.sum()))
        del counts, q_r, q_f, interior_f, ds, lam_m
        rows = stencil.gradient(flt.data).T  # three rows (3, N)
        # a shell point has the gradient at its clamped point; on a face the
        # edge-clamped value is flat across it only
        rows[:, cells] *= inner.T
        # d(sample)/d(world point) = direction @ (voxel gradient / spacing)
        spacing = np.asarray(flt.spacing)
        rows /= spacing[:, None]
        rows = flt.direction @ rows  # frees the gathered rows
        # +0 off the mask, where lam * rows could be -0
        field = np.zeros((mask.size, 3))
        np.multiply(rows, lam, out=field.T, where=mask)
        del rows
        field[cells] += (d_nmi_d_w[:, None] * d_w / spacing) @ flt.direction.T
        return field

    return counts, finish


def _footprint_gather(ds, q_r, q_f, out, d1_f=False):
    """Add into `out`, for each (ref, float) bin-position pair, the count
    derivative `ds` (BINS, BINS) summed over the pair's 4x4 footprint, each
    cell weighted by its reference weight and its floating weight, or with
    d1_f the floating kernel's derivative there: the adjoint of the
    deposit. The footprint cells and weights are recomputed, bit for bit
    those of the deposit. Returns `out`."""
    ds_flat = ds.reshape(-1)
    term = np.empty(q_r.size)
    for off, cell, w_r, w_f in _footprint(q_r, q_f, d1_f):
        # every first cell lies in the view from `off`, so "clip" changes
        # none of them; unlike "raise" it lets take write into `term`
        # without a buffer
        ds_flat[off:].take(cell, out=term, mode="clip")
        term *= w_r
        term *= w_f
        out += term
    return out


# ---------------------------------------------------------------------------
# One sampling of an FFD map
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledMap:
    """An FFD map x -> x + u(x), sampled once at every voxel x of its reference grid.

    `u` is the displacement (mm) channel-first, (3, nx, ny, nz) and
    C-contiguous, so each world axis is one contiguous scalar field.
    `stencil` interpolates on that grid at the mapped points, one per voxel
    in C order; the similarity reads it. `samples` and `u_samples` are the
    stencil and the displacement rows (3, n) at the map's sample voxels
    (`_sample_strides`), in C order, which the inconsistency penalty reads.
    Where every stride is 1 they are `stencil` itself and the rows of `u`.
    """

    ffd: BSplineTransform
    u: np.ndarray
    stencil: TrilinearStencil
    samples: TrilinearStencil
    u_samples: np.ndarray


def _sample_strides(ffd: BSplineTransform) -> tuple[int, int, int]:
    """The strides (s_x, s_y, s_z) of the inconsistency penalty's sample
    grid of `ffd`: every s_a-th voxel along axis a (voxels 0, s_a, 2 s_a,
    ...), where s_a = max(1, floor(g_a / 2)) of the lattice spacing g_a in
    voxels. A grid at half the knot spacing estimates the voxel average of
    a smooth residual from one point in eight, as sample-based registration
    treats its cost terms (Klein et al., IEEE TIP 2007)."""
    return tuple(max(1, int(g // 2)) for g in ffd.grid_spacing)


def sample_map(ffd: BSplineTransform) -> SampledMap:
    """Sample `ffd` once, onto its own reference grid, for the similarity and
    the inconsistency penalty: its dense displacement u, then the stencil of
    the points x + u(x), which `transforms._source_rows` maps to voxel
    coordinates as the warps' points are. When a sample stride exceeds 1,
    the sample voxels' stencil is built from their mapped rows, so each of
    their cells and fractions equals the full stencil's bit for bit."""
    require_type(BSplineTransform, ffd=ffd)
    grid = ffd.reference
    u = np.ascontiguousarray(np.moveaxis(dense_displacement(ffd), -1, 0))
    rows = _source_rows(grid, grid, u.reshape(3, -1))
    stencil = TrilinearStencil(grid.dims, rows.T)
    strides = _sample_strides(ffd)
    if strides == (1, 1, 1):
        return SampledMap(ffd, u, stencil, stencil, u.reshape(3, -1))
    every = (slice(None),) + tuple(slice(None, None, s) for s in strides)
    # the reshapes copy the strided views into contiguous rows (3, n)
    samples = TrilinearStencil(grid.dims, rows.reshape(u.shape)[every].reshape(3, -1).T)
    return SampledMap(ffd, u, stencil, samples, u[every].reshape(3, -1))


# ---------------------------------------------------------------------------
# Similarity through a B-spline transform
# ---------------------------------------------------------------------------

def similarity_and_gradient(ref: Volume, flt: Volume, sampled: SampledMap,
                            ranges=None, ref_mask=None, flt_valid=None):
    """NMI between ref and flt warped by a sampled FFD map, and the finish
    of its gradient with respect to that FFD's coefficients.

    The FFD's reference, ref and flt must lie on one grid; `sampled` is
    `sample_map(ffd)`. `ref_mask` excludes reference voxels; `flt_valid`
    marks usable voxels of the floating image, whose set is gathered as a
    0/1 indicator (a voxel whose warped sample gathers below 0.999 is
    skipped). Both are numbers or bools over the grid, nonzero marking a
    voxel; other dtypes and shapes raise InvalidInputError naming the
    argument. Returns (nmi, finish); `finish()` returns the gradient, from
    the deposit's finish through the map's stencil.
    """
    require_type(Volume, ref=ref, flt=flt)
    require_type(SampledMap, sampled=sampled)
    require_same_geometry(sampled.ffd.reference, ref.grid, "FFD reference and ref")
    require_same_geometry(ref.grid, flt.grid, "ref and flt")
    ffd, stencil = sampled.ffd, sampled.stencil
    # a hard overlap: only points inside the floating grid count
    mask = stencil.inside
    if ref_mask is not None:
        mask = mask & _mask(ref_mask, "ref_mask", ref).reshape(-1)
    if flt_valid is not None:
        mask = mask & (stencil.gather(_mask(flt_valid, "flt_valid", flt)) >= 0.999)
    counts, finish_points = _nmi_deposit(ref, flt, mask, stencil.gather(flt.data)[mask], ranges)

    def finish():
        field = finish_points(stencil)
        return splat_to_coefficients(ffd, field.reshape(ffd.reference.dims + (3,)))

    return nmi(counts), finish


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


def bending_energy_gradient(t: BSplineTransform):
    """(`bending_energy(t)`, d energy / d coefficients)."""
    require_type(BSplineTransform, t=t)
    # The voxel sum of a squared derivative field W C is <C, W^T W C>, and
    # W^T W factorises per axis, so every term is a product on the lattice.
    n_vox = float(np.prod(t.reference.dims))
    coef = t.coefficients
    energy = 0.0
    grad = np.zeros_like(coef)
    for ox, oy, oz, mult in _BENDING_TERMS:
        gx, gy, gz = _weight_matrices(t, (ox, oy, oz), gram=True)
        gc = _einsum("ap,bq,cr,pqrd->abcd", gx, gy, gz, coef)
        energy += mult * float(np.vdot(coef, gc))
        grad += (2.0 * mult / n_vox) * gc
    return energy / n_vox, grad


def bending_energy(t: BSplineTransform) -> float:
    """Average over voxels of squared second derivatives of the displacement.

    Derivatives are taken with respect to reference voxel coordinates and
    evaluated analytically from the B-spline basis; cross terms count twice.
    """
    return bending_energy_gradient(t)[0]


# ---------------------------------------------------------------------------
# Inverse-consistency penalty
# ---------------------------------------------------------------------------

def _roundtrip(outer: SampledMap, inner: SampledMap):
    """(mean |m|^2, finish) of the round trip with `outer` as the outer map,
    averaged over the inner map's sample voxels x (`SampledMap.samples`).
    The residual m(x) = u_inner(x) + u_outer(x + u_inner(x)) is C-contiguous
    (n, 3); the outer field is sampled edge-clamped through the inner map's
    sample stencil, so both maps must lie on one grid. `finish()` returns
    d(mean |m|^2) / d outer coefficients, the inner field held fixed: it
    scatters m through that stencil onto the grid and splats it, the exact
    derivative of the sampled mean. It pops m, which is freed once it
    returns, and scales it in place, so a second run raises
    InvalidInputError."""
    ffd, stencil = outer.ffd, inner.samples
    residual = [np.empty((stencil.base.size, 3))]
    for d in range(3):
        np.add(inner.u_samples[d], stencil.gather(outer.u[d]), out=residual[0][:, d])
    n_samples = float(stencil.base.size)

    def finish():
        if not residual:
            raise InvalidInputError("this round-trip gradient was already finished")
        m = residual.pop()
        np.multiply(m, 2.0 / n_samples, out=m)
        return splat_to_coefficients(ffd, stencil.scatter(m))

    return float((residual[0] ** 2).sum()) / n_samples, finish


def inconsistency_gradient(fwd: SampledMap, bwd: SampledMap):
    """(`inconsistency_penalty(fwd, bwd)`, [finish of the round trip with
    fwd outer, finish of that with bwd outer]), the value-and-finish form of
    `similarity_and_gradient`; the two trips run as the two halves.

    `objective_gradient` of the pair returns (grad wrt fwd's coefficients,
    grad wrt bwd's coefficients). Each round trip is averaged over its inner
    map's sample voxels. Each round-trip term drives only its outer
    transform; the inner field is held fixed (alternating scheme), so each
    gradient is the exact derivative of its own sampled term (see
    `_roundtrip`).
    """
    require_type(SampledMap, fwd=fwd, bwd=bwd)
    require_same_geometry(fwd.ffd.reference, bwd.ffd.reference, "fwd and bwd references")
    (c_f, finish_f), (c_b, finish_b) = _both_halves(lambda: _roundtrip(fwd, bwd),
                                                    lambda: _roundtrip(bwd, fwd))
    return (0.0 + c_f) + c_b, [finish_f, finish_b]


def inconsistency_penalty(fwd: SampledMap, bwd: SampledMap) -> float:
    """Mean squared residual of fwd∘bwd plus that of bwd∘fwd (mm^2), each
    over its inner map's sample voxels (`_sample_strides`): the voxel
    average where every stride is 1.

    Both lattices must lie on one grid:
    `inconsistency_penalty(sample_map(fwd), sample_map(bwd))`. The value of
    `inconsistency_gradient`, whose finishes are dropped unrun.
    """
    return inconsistency_gradient(fwd, bwd)[0]


# ---------------------------------------------------------------------------
# Full objective
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ObjectiveResult:
    value: float
    similarity_fwd: float
    similarity_bwd: float
    bending_fwd: float
    bending_bwd: float
    inconsistency: float
    grad_fwd: np.ndarray | None
    grad_bwd: np.ndarray | None
    # a value-only call's two half finishes; None with the gradients
    forward: list | None = field(default=None, repr=False)


def _half(ref: Volume, flt: Volume, ffd: BSplineTransform, weights: ObjectiveWeights,
          ranges, ref_mask=None, flt_valid=None):
    """One half of the value pass: (`ffd` sampled, the NMI of ref against flt
    warped by it, its bending energy or 0.0 when alpha is 0, finish).
    `finish(roundtrip)` runs the finish of the round trip with `ffd` outer
    (None when beta is 0), then the similarity's, and returns the half's
    weighted gradient."""
    sampled = sample_map(ffd)
    s, similarity = similarity_and_gradient(ref, flt, sampled, ranges=ranges,
                                            ref_mask=ref_mask, flt_valid=flt_valid)
    e, g_e = bending_energy_gradient(ffd) if weights.alpha != 0 else (0.0, 0.0)

    def finish(roundtrip):
        g_c = 0.0 if roundtrip is None else roundtrip()
        g_s = similarity()
        return weights.similarity * g_s - weights.alpha * g_e - weights.beta * g_c

    return sampled, s, e, finish


def objective(ref: Volume, flt: Volume, fwd: BSplineTransform,
              bwd: BSplineTransform, weights: ObjectiveWeights,
              ranges=None, flt_mask=None, with_gradient=True) -> ObjectiveResult:
    """Symmetric registration objective and its coefficient gradients.

    value = (1-a-b) * (S_fwd + S_bwd) - a * (bend_fwd + bend_bwd) - b * C_inc

    where S_fwd is the NMI of flt warped onto ref by `fwd` and S_bwd the NMI
    of ref warped onto flt by `bwd`. ref, flt and both lattices must lie on
    one grid; otherwise GeometryMismatchError is raised. Each map is sampled
    once and shared by its similarity and the inconsistency penalty.
    `ranges` fixes the (ref, flt) intensity ranges of S_fwd, and S_bwd takes
    the pair swapped; None takes each similarity's robust ranges. `flt_mask`
    marks the usable voxels of flt (the in-bounds part of an affinely
    resampled floating image): numbers or bools over the grid, read once
    as the set of its nonzero voxels, which S_fwd takes as `flt_valid` and
    S_bwd as `ref_mask`.

    This is the value pass; a value-only call returns its two half finishes
    as `forward`, for `objective_gradient`. With the gradient, the same
    finishing step runs before the call returns (see the module docstring).
    """
    require_type(Volume, ref=ref, flt=flt)
    require_type(ObjectiveWeights, weights=weights)
    # read before the swap, which a non-sequence fails
    swapped = None if ranges is None else _float_array(ranges, _RANGES_RULE, (2, 2))[::-1]
    flt_mask = None if flt_mask is None else _mask(flt_mask, "flt_mask", flt)
    (map_f, s_f, e_f, finish_f), (map_b, s_b, e_b, finish_b) = _both_halves(
        lambda: _half(ref, flt, fwd, weights, ranges, flt_valid=flt_mask),
        lambda: _half(flt, ref, bwd, weights, swapped, ref_mask=flt_mask))

    c, trips = 0.0, [None, None]
    if weights.beta != 0:
        c, trips = inconsistency_gradient(map_f, map_b)
    del map_f, map_b  # the displacements: only the residuals read them

    ws = weights.similarity
    value = ws * (s_f + s_b) - weights.alpha * (e_f + e_b) - weights.beta * c
    forward = [partial(finish_f, trips[0]), partial(finish_b, trips[1])]
    if not with_gradient:
        return ObjectiveResult(value, s_f, s_b, e_f, e_b, c, None, None, forward)
    return ObjectiveResult(value, s_f, s_b, e_f, e_b, c, *objective_gradient(forward))


def objective_gradient(forward: list):
    """(grad_fwd, grad_bwd) of the objective, finished from the `forward`
    of a value-only `objective` call (or any pair of two finishes) by running
    its two half finishes as the two halves. The pair is emptied first, so
    the finishes go once both have run; a second call raises
    InvalidInputError, as does anything but a list of two callables.
    """
    require_type(list, forward=forward)
    if not forward:
        raise InvalidInputError("this objective evaluation's gradient was already finished")
    if len(forward) != 2 or not all(map(callable, forward)):
        raise InvalidInputError(f"forward must hold two finishes, got {len(forward)} items")
    fwd_finish, bwd_finish = forward
    forward.clear()
    return _both_halves(fwd_finish, bwd_finish)
