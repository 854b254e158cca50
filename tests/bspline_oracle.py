"""Pointwise B-spline evaluation, the voxel-sum bending energy, the
four-stencil objective and the expression form of the trilinear gather: the
references the dense evaluation, the lattice bending, the shared sampling of
the objective and the buffered gather are tested against."""
import numpy as np

from atlasreg.objective import (
    ObjectiveResult,
    SimilarityForward,
    _floating_samples,
    _histogram_nmi,
    _similarity_gradient,
    bending_energy_gradient,
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


def gather_lerp(stencil: TrilinearStencil, data, oob=None, want_gradient=False):
    """`TrilinearStencil.gather` written as plain expressions, each
    intermediate a new array: lerps along x on the four cell edges, then
    along y and z."""
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
    vals = c0 + (c1 - c0) * fz
    if oob is not None:
        vals = np.where(stencil.inside, vals, oob)
    if not want_gradient:
        return vals
    d00, d10, d01, d11 = slopes
    gx = (d00 * (1 - fy) + d10 * fy) * (1 - fz) + (d01 * (1 - fy) + d11 * fy) * fz
    gy = (c10 - c00) * (1 - fz) + (c11 - c01) * fz
    gz = c1 - c0
    grad = np.stack([gx, gy, gz], axis=-1)
    grad[~stencil.inside] = 0.0
    return vals, grad


def _roundtrip_residual(outer: BSplineTransform, inner: BSplineTransform):
    """Residual m(x) = u_inner(x) + u_outer(map_inner(x)) at every voxel,
    (N, 3), from the transforms alone.

    Returns (m, stencil): the outer field is sampled edge-clamped through
    `stencil`, whose scatter is the adjoint of that sampling.
    """
    dense_outer = dense_displacement(outer)
    u_in = dense_displacement(inner).reshape(-1, 3)
    y_world = inner.reference.world_points() + u_in
    stencil = TrilinearStencil(outer.reference.dims,
                               outer.reference.voxel_from_world(y_world))
    sampled = np.stack([stencil.gather(dense_outer[..., d]) for d in range(3)], axis=-1)
    return u_in + sampled, stencil


def _similarity(ref, flt, ffd, ranges, ref_mask, flt_valid, with_gradient):
    world = ref.grid.world_points() + dense_displacement(ffd).reshape(-1, 3)
    stencil = TrilinearStencil(flt.dims, flt.voxel_from_world(world))
    samples = _floating_samples(stencil, flt, ref_mask, flt_valid)
    s, counts, positions = _histogram_nmi(ref, samples, ranges)
    if not with_gradient:
        return s, None
    return s, _similarity_gradient(
        SimilarityForward(ffd, stencil, flt, samples[1], counts, positions))


def objective_four_stencils(ref, flt, fwd, bwd, weights, ranges_fwd=None,
                            ranges_bwd=None, flt_mask=None, with_gradient=True):
    """The symmetric objective with every term sampling its own maps: a
    stencil and a dense displacement for each similarity and each round
    trip, four of each per call, in the order of operations of the shared
    form. Both weights must be nonzero."""
    ws = weights.similarity
    s_f, g_sf = _similarity(ref, flt, fwd, ranges_fwd, None, flt_mask, with_gradient)
    s_b, g_sb = _similarity(flt, ref, bwd, ranges_bwd, flt_mask, None, with_gradient)
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
