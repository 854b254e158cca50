"""Pointwise B-spline evaluation and the voxel-sum bending energy: the
references the dense evaluation and the lattice bending are tested against."""
import numpy as np

from atlasreg.transforms import (
    BSplineTransform,
    bspline_kernel,
    bspline_kernel_d1,
    bspline_kernel_d2,
)


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
