"""Pointwise B-spline evaluation, the voxel-sum bending energy, the
four-stencil objective, the expression form of the trilinear gather, the
index-array forms of the stencil scatter and the Parzen kernels, and the
row-major (N, 3) forms of the grid points, the mapping of points to voxel
coordinates and the NMI gradient's finish: the references the dense
evaluation, the lattice bending, the shared sampling of the objective, the
buffered gather, the shifted-view scatter, deposit and histogram gradients,
and the channel-contiguous (3, N) points and finish are tested against."""
import numpy as np

from atlasreg.objective import (
    BINS,
    ObjectiveResult,
    _bin_positions,
    _nmi_and_count_gradient,
    _nmi_deposit,
    bending_energy_gradient,
    nmi,
    robust_range,
)
from atlasreg.transforms import (
    BSplineTransform,
    bspline_kernel,
    bspline_kernel_d1,
    bspline_kernel_d2,
    dense_displacement,
    splat_to_coefficients,
)
from atlasreg.volume import TrilinearStencil


def deform(t: BSplineTransform, x) -> np.ndarray:
    """Displacement (mm) at continuous reference voxel coordinate(s) x (..., 3)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = x.reshape(-1, 3)
    n = pts.shape[0]
    out = np.zeros((n, 3))

    idx = []
    wts = []
    for a in range(3):
        ta = pts[:, a] / t.grid_spacing[a]
        fa = np.clip(np.floor(ta).astype(np.intp), 0, t.grid_dims[a] - 4)
        ua = ta - fa
        w = np.stack([bspline_kernel(ua + 1.0 - m) for m in range(4)], axis=1)
        idx.append(fa)
        wts.append(w)

    coef = t.coefficients
    for mx in range(4):
        wx = wts[0][:, mx]
        ix = idx[0] + mx
        for my in range(4):
            wxy = wx * wts[1][:, my]
            iy = idx[1] + my
            for mz in range(4):
                w = wxy * wts[2][:, mz]
                out += w[:, None] * coef[ix, iy, idx[2] + mz]
    return out[0] if single else out.reshape(x.shape)


def _basis(n: int, spacing: float, grid_n: int, order: int) -> np.ndarray:
    """(n, grid_n) `order`-th voxel-coordinate derivative of every lattice basis
    function at each integer voxel; node j sits at voxel (j - 1) * spacing."""
    kernel = (bspline_kernel, bspline_kernel_d1, bspline_kernel_d2)[order]
    u = np.arange(n)[:, None] / spacing - np.arange(grid_n)[None, :] + 1.0
    return kernel(u) / spacing ** order


def bending_voxel_sum(t: BSplineTransform):
    """(energy, gradient) of the bending penalty from its definition: the
    squared Frobenius norm of the displacement's Hessian, in voxel
    coordinates, averaged over the reference voxels. Summing over all nine
    (a, b) axis pairs counts each cross derivative twice."""
    n_vox = float(np.prod(t.reference.dims))
    coef = t.coefficients
    energy = 0.0
    grad = np.zeros_like(coef)
    for a in range(3):
        for b in range(3):
            orders = [0, 0, 0]
            orders[a] += 1
            orders[b] += 1
            wx, wy, wz = (_basis(t.reference.dims[k], t.grid_spacing[k],
                                 t.grid_dims[k], orders[k]) for k in range(3))
            fld = np.einsum("ia,jb,kc,abcd->ijkd", wx, wy, wz, coef)
            energy += float((fld ** 2).sum())
            grad += (2.0 / n_vox) * np.einsum("ia,jb,kc,ijkd->abcd", wx, wy, wz, fld)
    return energy / n_vox, grad


def gather_lerp(stencil: TrilinearStencil, data, oob=None, gradient=False):
    """`TrilinearStencil.gather` written as plain expressions, each
    intermediate a new array: lerps along x on the four cell edges, then
    along y and z. With `gradient`, `TrilinearStencil.gradient` instead,
    (N, 3)."""
    flat = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
    fx, fy, fz = stencil.fx, stencil.fy, stencil.fz
    sx, sy, sz = stencil.strides
    slopes = []

    def edge(off):
        a = flat.take(stencil.base + off)
        d = flat.take(stencil.base + off + sx) - a
        slopes.append(d)
        return a + d * fx

    c00, c10, c01, c11 = edge(0), edge(sy), edge(sz), edge(sy + sz)
    c0 = c00 + (c10 - c00) * fy
    c1 = c01 + (c11 - c01) * fy
    if gradient:
        d00, d10, d01, d11 = slopes
        gx = (d00 * (1 - fy) + d10 * fy) * (1 - fz) + (d01 * (1 - fy) + d11 * fy) * fz
        gy = (c10 - c00) * (1 - fz) + (c11 - c01) * fz
        return np.stack([gx, gy, c1 - c0], axis=-1)
    vals = c0 + (c1 - c0) * fz
    return vals if oob is None else np.where(stencil.inside, vals, oob)


def scatter_bincount(stencil: TrilinearStencil, vecs) -> np.ndarray:
    """`TrilinearStencil.scatter` with an index array per cell corner: each
    corner's weight times each channel, counted at `base + offset` over the
    whole grid, corner by corner and channel by channel."""
    vecs = np.asarray(vecs, dtype=np.float64)
    cols = vecs.reshape(len(stencil.base), -1)
    size = int(np.prod(stencil.dims))
    out = np.zeros((size, cols.shape[1]))
    sx, sy, sz = stencil.strides
    for dx, wx in ((0, 1.0 - stencil.fx), (sx, stencil.fx)):
        for dy, wy in ((0, 1.0 - stencil.fy), (sy, stencil.fy)):
            for dz, wz in ((0, 1.0 - stencil.fz), (sz, stencil.fz)):
                w = wx * wy * wz
                lin = stencil.base + (dx + dy + dz)
                for d in range(cols.shape[1]):
                    out[:, d] += np.bincount(lin, weights=w * cols[:, d], minlength=size)
    return out.reshape(stencil.dims + vecs.shape[1:])


def parzen_cells(q_r, q_f, d1_f=False):
    """The 4x4 Parzen footprint of every (ref, float) bin-position pair, the
    reference offset slowest: yields (flat histogram cell of each pair, as an
    index array, reference kernel weight, floating kernel weight or with d1_f
    its derivative), each weight the kernel at q - floor(q) + 1 - k."""
    f_r, f_f = np.floor(q_r).astype(np.intp), np.floor(q_f).astype(np.intp)
    kernel_f = bspline_kernel_d1 if d1_f else bspline_kernel
    rows_r = [bspline_kernel(q_r - f_r - (k - 1.0)) for k in range(4)]
    rows_f = [kernel_f(q_f - f_f - (k - 1.0)) for k in range(4)]
    for dr in range(4):
        for df in range(4):
            yield (f_r - 1 + dr) * BINS + f_f - 1 + df, rows_r[dr], rows_f[df]


def parzen_counts(q_r, q_f, shell=None):
    """The joint counts (BINS, BINS) of `_nmi_deposit` from the bin
    positions: one `bincount` over the whole histogram per footprint cell.
    `shell` = (pair indices, their deposit weights) scales those pairs."""
    counts = np.zeros(BINS * BINS)
    for cell, w_r, w_f in parzen_cells(q_r, q_f):
        deposit = w_r * w_f
        if shell is not None:
            deposit[shell[0]] *= shell[1]
        counts += np.bincount(cell, weights=deposit, minlength=BINS * BINS)
    return counts.reshape(BINS, BINS)


def parzen_sample_gradient(ds, q_r, q_f, scale_f, interior_f):
    """d NMI / d floating sample of every pair from the count derivative
    `ds` and the bin positions (`objective._footprint_gather` with `d1_f`,
    then scaled and zeroed at the clamped samples, in `_nmi_deposit`)."""
    lam = np.zeros(q_r.size)
    for cell, w_r, dw_f in parzen_cells(q_r, q_f, d1_f=True):
        lam += ds.reshape(-1)[cell] * w_r * dw_f
    lam *= scale_f
    lam[~interior_f] = 0.0
    return lam


def parzen_weight_gradient(counts, ds, q_r, q_f):
    """d NMI / d deposit weight of the pairs at bin positions (q_r, q_f)
    (`objective._footprint_gather` added to the uniform term, in `_nmi_deposit`)."""
    grad = np.full(q_r.size, -float((counts * ds).sum()) / counts.sum())
    for cell, w_r, w_f in parzen_cells(q_r, q_f):
        grad += ds.reshape(-1)[cell] * w_r * w_f
    return grad


def grid_points(grid, world: bool) -> np.ndarray:
    """Voxel or world coordinates of every voxel of `grid`, x-slowest, as a
    C-contiguous (N, 3) array: the meshgrid's points, mapped to world by
    `world_from_voxel`."""
    ii, jj, kk = np.meshgrid(*(np.arange(n) for n in grid.dims), indexing="ij")
    pts = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3).astype(np.float64)
    return grid.world_from_voxel(pts) if world else pts


def mapped_points(ffd: BSplineTransform, grid) -> np.ndarray:
    """Voxel coordinates (N, 3) on `grid` of the mapped points x + u(x) of
    `ffd`'s reference voxels, row-major: `voxel_from_world` of the world
    points plus the dense displacement, both C-contiguous (N, 3)."""
    world = grid_points(ffd.reference, world=True) + dense_displacement(ffd).reshape(-1, 3)
    return grid.voxel_from_world(world)


def warped_points(src_grid, grid, affine=None, ffd=None) -> np.ndarray:
    """Voxel coordinates (N, 3) on `src_grid` that the warps sample at the
    voxels of `grid`, row-major: the world points plus the dense
    displacement, both C-contiguous (N, 3), then `AffineTransform.apply`,
    then `voxel_from_world`."""
    world = grid_points(grid, world=True)
    if ffd is not None:
        world = world + dense_displacement(ffd).reshape(-1, 3)
    if affine is not None:
        world = affine.apply(world)
    return src_grid.voxel_from_world(world)


def nmi_finish_masked(ref, flt, mask, values, ranges, stencil, shell=None, points=None):
    """The finish of `_nmi_deposit(ref, flt, mask, values, ranges, shell)`
    through `stencil`, row-major: λ from the index-array Parzen kernels, the
    gradient of the masked points gathered as (M, 3) (`grad[mask]`), divided
    by the spacing, times direction.T and λ, then scattered back into a
    C-contiguous (N, 3) field that is 0 off the mask. A `_soft_overlap`
    shell's points take the gradient through a second stencil at their
    `points` (the points `stencil` was built from) clamped onto the grid,
    and their deposit-weight term is added."""
    rv = ref.data.reshape(-1)[mask].astype(np.float64)
    values = np.array(values, dtype=np.float64)
    if ranges is None:
        ranges = (robust_range(rv), robust_range(values))
    q_r = _bin_positions(rv, ranges[0])[0]
    q_f, scale_f, interior_f = _bin_positions(values, ranges[1])
    counts = parzen_counts(q_r, q_f, None if shell is None else shell[:2])
    ds = _nmi_and_count_gradient(counts)[1]
    lam = parzen_sample_gradient(ds, q_r, q_f, scale_f, interior_f)
    grad = np.ascontiguousarray(stencil.gradient(flt.data))
    g = grad[mask]
    spacing = np.asarray(flt.spacing)
    if shell is not None:
        idx, w, d_w, inner, cells = (np.ascontiguousarray(a) for a in shell)
        lam[idx] *= w
        d_nmi_d_w = parzen_weight_gradient(counts, ds, q_r[idx], q_f[idx])
        clamped = np.clip(points[cells], 0.0, np.asarray(flt.dims) - 1.0)
        g[idx] = np.ascontiguousarray(
            TrilinearStencil(flt.dims, clamped).gradient(flt.data)) * inner
    g /= spacing
    g = g @ flt.direction.T
    g *= lam[:, None]
    if shell is not None:
        g[idx] += (d_nmi_d_w[:, None] * d_w / spacing) @ flt.direction.T
    grad[~mask] = 0.0
    grad[mask] = g
    return grad


def _roundtrip_residual(outer: BSplineTransform, inner: BSplineTransform):
    """Residual m(x) = u_inner(x) + u_outer(map_inner(x)) at every voxel,
    (N, 3), from the transforms alone.

    Returns (m, stencil): the outer field is sampled edge-clamped through
    `stencil`, whose scatter is the adjoint of that sampling.
    """
    dense_outer = dense_displacement(outer)
    u_in = dense_displacement(inner).reshape(-1, 3)
    stencil = TrilinearStencil(outer.reference.dims, mapped_points(inner, outer.reference))
    sampled = np.stack([stencil.gather(dense_outer[..., d]) for d in range(3)], axis=-1)
    return u_in + sampled, stencil


def _similarity(ref, flt, ffd, ranges, ref_mask, flt_valid, with_gradient):
    """NMI of ref against flt warped by `ffd` over the hard overlap (mapped
    point inside flt's grid, ref_mask set, flt_valid gathered >= 0.999),
    and its gradient, through a stencil of its own and the row-major finish."""
    stencil = TrilinearStencil(flt.dims, mapped_points(ffd, flt.grid))
    mask = stencil.inside.copy()
    if ref_mask is not None:
        mask &= ref_mask.reshape(-1)
    if flt_valid is not None:
        mask &= stencil.gather(flt_valid, 0.0) >= 0.999
    values = stencil.gather(flt.data, 0.0)[mask]
    counts = _nmi_deposit(ref, flt, mask, values.copy(), ranges)[0]
    if not with_gradient:
        return nmi(counts), None
    field = nmi_finish_masked(ref, flt, mask, values, ranges, stencil)
    return nmi(counts), splat_to_coefficients(ffd, field.reshape(ffd.reference.dims + (3,)))


def objective_four_stencils(ref, flt, fwd, bwd, weights, ranges=None, flt_mask=None,
                            with_gradient=True):
    """The symmetric objective with every term sampling its own maps: a
    stencil and a dense displacement for each similarity and each round
    trip, four of each per call, in the order of operations of the shared
    form. Both weights must be nonzero."""
    ws = weights.similarity
    s_f, g_sf = _similarity(ref, flt, fwd, ranges, None, flt_mask, with_gradient)
    s_b, g_sb = _similarity(flt, ref, bwd, None if ranges is None else ranges[::-1],
                            flt_mask, None, with_gradient)
    e_f, g_ef = bending_energy_gradient(fwd)
    e_b, g_eb = bending_energy_gradient(bwd)
    n_vox = float(np.prod(fwd.reference.dims))
    c = 0.0
    g_c = []
    for outer, inner in ((fwd, bwd), (bwd, fwd)):
        m, stencil = _roundtrip_residual(outer, inner)
        c += float((m ** 2).sum()) / n_vox
        g_c.append(splat_to_coefficients(outer, stencil.scatter((2.0 / n_vox) * m)))
    value = ws * (s_f + s_b) - weights.alpha * (e_f + e_b) - weights.beta * c
    if not with_gradient:
        return ObjectiveResult(value, s_f, s_b, e_f, e_b, c, None, None)
    grad_fwd = ws * g_sf - weights.alpha * g_ef - weights.beta * g_c[0]
    grad_bwd = ws * g_sb - weights.alpha * g_eb - weights.beta * g_c[1]
    return ObjectiveResult(value, s_f, s_b, e_f, e_b, c, grad_fwd, grad_bwd)
