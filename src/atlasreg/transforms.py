"""Affine and cubic B-spline free-form deformation transforms.

A BSplineTransform stores one displacement vector (mm, world axes) per
control point of a lattice laid over a reference grid. Lattice node with
array index a sits at voxel coordinate (a - 1) * spacing along its axis, so
the lattice covers the reference domain plus one extra node on every side.
The dense displacement at voxel coordinate x is the tensor-product cubic
B-spline sum of the 4x4x4 surrounding nodes; the full mapping of a point is
world(x) + u(x). Zero coefficients therefore give the identity.
Both transform types are immutable values on `volume._Frozen`, checked by
their constructors, and compare and hash by identity, as the volume types do.
Each constructor rejects a NaN or Inf in its numbers, so the affine matrix
and the FFD coefficients of any transform are finite.
"""
from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import GeometryMismatchError, InvalidInputError, InvalidTransformError, require_type
from .volume import (
    Grid,
    LabelVolume,
    TrilinearStencil,
    Volume,
    _float_array,
    _Frozen,
    _points,
    as_grid,
    positive_spacings,
    require_same_geometry,
)

# ---------------------------------------------------------------------------
# Cubic B-spline kernel
# ---------------------------------------------------------------------------

def bspline_kernel(u):
    """Uniform cubic B-spline: support (-2, 2), unit integral, C^2.

    Branch-free form: ((2-|u|)_+^3 - 4 (1-|u|)_+^3) / 6.
    """
    a = np.abs(_float_array(u, "u must be numbers"))
    r2 = np.maximum(2.0 - a, 0.0)
    r1 = np.maximum(1.0 - a, 0.0)
    out = (r2 * r2 * r2 - 4.0 * r1 * r1 * r1) / 6.0
    return out if out.ndim else float(out)


def bspline_kernel_d1(u):
    """First derivative of the cubic B-spline kernel."""
    u = _float_array(u, "u must be numbers")
    a = np.abs(u)
    r2 = np.maximum(2.0 - a, 0.0)
    r1 = np.maximum(1.0 - a, 0.0)
    out = np.sign(u) * (2.0 * r1 * r1 - 0.5 * r2 * r2)
    return out if out.ndim else float(out)


def bspline_kernel_d2(u):
    """Second derivative of the cubic B-spline kernel."""
    a = np.abs(_float_array(u, "u must be numbers"))
    out = np.maximum(2.0 - a, 0.0) - 4.0 * np.maximum(1.0 - a, 0.0)
    return out if out.ndim else float(out)


_KERNELS = (bspline_kernel, bspline_kernel_d1, bspline_kernel_d2)


def grid_dim_for(n: int, spacing: float) -> int:
    """Lattice node count covering voxel domain [0, n-1] at the given spacing;
    InvalidInputError when it exceeds 2**32 - 1, the most the container's
    `<u4` grid_dims field stores."""
    nodes = (n - 1) / spacing
    if not nodes < 2**32 - 4:
        raise InvalidInputError(f"grid spacing {spacing} puts more than 2**32 - 1 lattice "
                                f"nodes on an axis of {n} voxels")
    return int(nodes) + 4


def _lattice_dims(reference: Grid, spacing) -> tuple[int, int, int]:
    """Node counts of the lattice at `spacing` over the reference grid."""
    return tuple(grid_dim_for(n, s) for n, s in zip(reference.dims, spacing))


@lru_cache(maxsize=256)
def _axis_weights(n: int, spacing: float, grid_n: int, order: int) -> np.ndarray:
    """(n x grid_n) matrix of kernel (or derivative) weights at integer voxels.

    Derivatives are taken with respect to the voxel coordinate, hence the
    1/spacing factor per derivative order.
    """
    t = np.arange(n, dtype=np.float64) / spacing
    f = np.minimum(np.floor(t).astype(np.intp), grid_n - 4)
    u = t - f
    w = np.zeros((n, grid_n))
    kern = _KERNELS[order]
    rows = np.arange(n)
    for m in range(4):
        w[rows, f + m] = kern(u + 1.0 - m)
    w /= spacing ** order
    w.flags.writeable = False
    return w


@lru_cache(maxsize=256)
def _axis_gram(n: int, spacing: float, grid_n: int, order: int) -> np.ndarray:
    """(grid_n x grid_n) Gram matrix W^T W of `_axis_weights`: the voxel sum of
    products of two lattice basis functions (or derivatives) along one axis."""
    w = _axis_weights(n, spacing, grid_n, order)
    g = w.T @ w
    g.flags.writeable = False
    return g


# ---------------------------------------------------------------------------
# Transform types
# ---------------------------------------------------------------------------

class AffineTransform(_Frozen):
    """4x4 homogeneous matrix mapping reference world coords to source world coords."""

    _ARGS = ("matrix",)

    def __init__(self, matrix):
        m = _float_array(matrix, "affine matrix must be 4x4 numbers")
        if m.shape != (4, 4):
            raise InvalidTransformError(f"affine matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidTransformError("affine matrix contains NaN or Inf")
        if not np.allclose(m[3], (0, 0, 0, 1), atol=1e-12):
            raise InvalidTransformError("affine last row must be (0, 0, 0, 1)")
        if abs(np.linalg.det(m[:3, :3])) <= 1e-12:
            raise InvalidTransformError("affine linear part is singular")
        m = m.copy()
        m[3] = (0, 0, 0, 1)
        m.flags.writeable = False
        self._set(matrix=m)

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.eye(4))

    @classmethod
    def from_linear(cls, linear, translation) -> "AffineTransform":
        m = np.eye(4)
        m[:3, :3] = _float_array(linear, "linear must be 3x3 numbers", (3, 3))
        m[:3, 3] = _float_array(translation, "translation must be 3 numbers", (3,))
        return cls(m)

    def apply(self, pts) -> np.ndarray:
        """Apply to world points of shape (..., 3)."""
        pts = _points(pts)
        return pts @ self.matrix[:3, :3].T + self.matrix[:3, 3]


class BSplineTransform(_Frozen):
    """Cubic B-spline lattice of displacement vectors over a reference grid.

    `grid_spacing` is in voxels of the reference Grid and `coefficients`
    (gx, gy, gz, 3) in mm, all finite (else InvalidTransformError).
    `grid_dims`, the lattice's node counts, follow from the reference dims
    and the grid spacing (`grid_dim_for`).
    """

    _ARGS = ("grid_spacing", "coefficients", "reference")

    def __init__(self, grid_spacing, coefficients, reference):
        gs = positive_spacings(grid_spacing, "grid spacings")
        require_type(Grid, reference=reference)
        gd = _lattice_dims(reference, gs)
        coef = _float_array(coefficients, "coefficients must be numbers")
        if coef.shape != gd + (3,):
            raise InvalidTransformError(
                f"coefficient shape {coef.shape} does not match the lattice {gd} + (3,) "
                f"that covers the reference domain"
            )
        if not np.all(np.isfinite(coef)):
            raise InvalidTransformError("FFD coefficients contain NaN or Inf")
        coef = coef.copy()
        coef.flags.writeable = False
        self._set(grid_spacing=gs, coefficients=coef, reference=reference, grid_dims=gd)

    @classmethod
    def zeros(cls, reference, grid_spacing) -> "BSplineTransform":
        """Identity transform over `reference`, a Grid or a volume, with one
        grid spacing for every axis or three."""
        grid = as_grid(reference, "reference")
        gs = positive_spacings(grid_spacing if np.ndim(grid_spacing) else (grid_spacing,) * 3,
                               "grid spacings")
        return cls(gs, np.zeros(_lattice_dims(grid, gs) + (3,)), grid)

    def with_coefficients(self, coef) -> "BSplineTransform":
        return type(self)(self.grid_spacing, coef, self.reference)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _weight_matrices(t: BSplineTransform, orders=(0, 0, 0), gram=False):
    """Per-axis weight matrices of `t` at the given derivative orders, or with
    gram their Gram matrices W^T W."""
    table = _axis_gram if gram else _axis_weights
    return tuple(
        table(t.reference.dims[a], t.grid_spacing[a], t.grid_dims[a], orders[a])
        for a in range(3)
    )


@lru_cache(maxsize=64)
def _contraction_path(subscripts: str, shapes: tuple) -> tuple:
    """The greedy contraction order np.einsum(optimize=True) would search
    for operands of these shapes; it depends on the shapes alone."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(subscripts, *operands, optimize="greedy")[0])


def _einsum(subscripts: str, *operands) -> np.ndarray:
    """np.einsum(subscripts, *operands, optimize=True), bit for bit, with
    the path search done once per operand shapes instead of on every call."""
    path = _contraction_path(subscripts, tuple(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def dense_displacement(t: BSplineTransform) -> np.ndarray:
    """Displacement field (nx, ny, nz, 3) in mm at every reference voxel."""
    require_type(BSplineTransform, t=t)
    wx, wy, wz = _weight_matrices(t)
    return _einsum("ia,jb,kc,abcd->ijkd", wx, wy, wz, t.coefficients)


def splat_to_coefficients(t: BSplineTransform, voxel_field: np.ndarray) -> np.ndarray:
    """Adjoint of dense evaluation: scatter an (nx, ny, nz, 3) voxel field to
    per-coefficient sums with the same tensor-product weights."""
    require_type(BSplineTransform, t=t)
    shape = t.reference.dims + (3,)
    voxel_field = _float_array(voxel_field, f"voxel_field shape must be {shape} numbers", shape)
    wx, wy, wz = _weight_matrices(t)
    return _einsum("ia,jb,kc,ijkd->abcd", wx, wy, wz, voxel_field)


def max_displacement(t: BSplineTransform) -> float:
    """Maximum dense displacement norm (mm) over all reference voxels."""
    u = dense_displacement(t)
    return float(np.sqrt((u ** 2).sum(axis=-1)).max())


# ---------------------------------------------------------------------------
# Warping
# ---------------------------------------------------------------------------

def _mapped_source_coords(src, ref_geometry, affine, ffd):
    """Source voxel coordinates sampled for every voxel of the ref grid."""
    require_type((AffineTransform, type(None)), affine=affine)
    require_type((BSplineTransform, type(None)), ffd=ffd)
    grid = as_grid(ref_geometry, "target geometry")
    world = grid.world_points()
    if ffd is not None:
        require_same_geometry(ffd.reference, grid, "FFD reference and target")
        world = world + dense_displacement(ffd).reshape(-1, 3)
    if affine is not None:
        world = affine.apply(world)
    return src.voxel_from_world(world)


def warp_volume(src: Volume, ref_geometry, affine: AffineTransform | None,
                ffd: BSplineTransform | None = None) -> Volume:
    """Resample `src` onto `ref_geometry`, a Grid or a volume.

    Each output voxel samples the source trilinearly at affine(world + u) of
    the voxel's world position; with no FFD the affine alone is applied.
    Samples outside the source are 0.
    """
    return warp_volume_masked(src, ref_geometry, affine, ffd)[0]


def warp_volume_masked(src, ref_geometry, affine, ffd=None):
    """Like warp_volume but also returns the in-bounds sample mask."""
    require_type(Volume, src=src)
    coords = _mapped_source_coords(src, ref_geometry, affine, ffd)
    stencil = TrilinearStencil(src.dims, coords)
    vals = stencil.gather(src.data, 0.0)
    vol = Volume(vals.reshape(ref_geometry.dims),
                 ref_geometry.spacing, ref_geometry.origin, ref_geometry.direction)
    return vol, stencil.inside.reshape(ref_geometry.dims)


def warp_labels(src: LabelVolume, ref_geometry, affine: AffineTransform | None,
                ffd: BSplineTransform | None = None) -> LabelVolume:
    """Nearest-neighbor label warp; out-of-bounds samples become background."""
    require_type(LabelVolume, src=src)
    rows = np.rint(_mapped_source_coords(src, ref_geometry, affine, ffd)).T
    # one take of each voxel's class at its nearest source voxel, clamped
    # onto the source; a voxel whose nearest voxel lies outside gets 0
    vals = src.data.take(np.ravel_multi_index(rows.astype(np.intp), src.dims, mode="clip"))
    inside = (rows >= 0) & (rows <= np.subtract(src.dims, 1)[:, None])
    vals[~inside.all(axis=0)] = 0
    return LabelVolume(vals.reshape(ref_geometry.dims),
                       ref_geometry.spacing, ref_geometry.origin, ref_geometry.direction)


# ---------------------------------------------------------------------------
# Lattice refinement (level doubling)
# ---------------------------------------------------------------------------

_SUBDIV_MASK = (1.0 / 8.0, 4.0 / 8.0, 6.0 / 8.0, 4.0 / 8.0, 1.0 / 8.0)


def _subdivide_axis(coef: np.ndarray, axis: int, new_g: int) -> np.ndarray:
    """Dyadic cubic B-spline subdivision along one lattice axis.

    Node a at position (a-1)*d maps to fine nodes j = 2a + m - 3 at
    positions (j-1)*d/2, using the two-scale binomial mask. The represented
    field is unchanged.
    """
    coef = np.moveaxis(coef, axis, 0)
    g = coef.shape[0]
    out = np.zeros((new_g,) + coef.shape[1:])
    a = np.arange(g)
    for m, w in enumerate(_SUBDIV_MASK):
        j = 2 * a + m - 3
        ok = (j >= 0) & (j < new_g)
        np.add.at(out, j[ok], w * coef[ok])
    return np.moveaxis(out, 0, axis)


def subdivide(t: BSplineTransform, fine_reference) -> BSplineTransform:
    """Refine the lattice onto a 2x finer reference grid, preserving the field.

    `fine_reference`, a Grid or a volume, must have doubled resolution (half
    spacing, same origin and direction); the grid spacing in local voxels is
    unchanged.
    """
    require_type(BSplineTransform, t=t)
    fine, ref = as_grid(fine_reference, "fine reference"), t.reference
    ratio = np.asarray(ref.spacing) / np.asarray(fine.spacing)
    if not np.allclose(ratio, 2.0, atol=1e-6):
        raise GeometryMismatchError(
            f"subdivision requires a 2x finer grid, got spacing ratio {ratio}"
        )
    if not fine.same_geometry(Grid(fine.dims, fine.spacing, ref.origin, ref.direction)):
        raise GeometryMismatchError(
            "subdivision requires the origin and direction of the coarse reference")
    coef = t.coefficients
    for a, g in enumerate(_lattice_dims(fine, t.grid_spacing)):
        coef = _subdivide_axis(coef, a, g)
    return BSplineTransform(t.grid_spacing, coef, fine)


# ---------------------------------------------------------------------------
# Serialization: self-describing binary transform container
# ---------------------------------------------------------------------------

TRANSFORM_MAGIC = b"ATLXFRM1"

# The container, little-endian: this head; then per present FFD, forward
# first, one _FFD block followed by its gx*gy*gz*3 coefficients as <f8 in the
# C order of (gx, gy, gz, 3); nothing after the last FFD. Flag bit 0 marks a
# forward FFD, bit 1 a backward one; a file setting any other bit is rejected.
_HEAD = np.dtype([("magic", "S8"), ("version", "<u4"), ("flags", "<u4"),
                  ("affine", "<f8", (4, 4))])
# the lattice (spacing in reference voxels), then its reference Grid
_FFD = np.dtype([("grid_dims", "<u4", 3), ("grid_spacing", "<f8", 3), ("dims", "<u4", 3),
                 ("spacing", "<f8", 3), ("origin", "<f8", 3), ("direction", "<f8", (3, 3))])


def _record(dtype: np.dtype, **fields) -> bytes:
    """The bytes of one `dtype` record with the named fields set."""
    rec = np.zeros((), dtype)
    for name, value in fields.items():
        rec[name] = value
    return rec.tobytes()


def save_transform(path, affine: AffineTransform,
                   fwd: BSplineTransform | None = None,
                   bwd: BSplineTransform | None = None) -> None:
    require_type((str, os.PathLike), path=path)
    require_type(AffineTransform, affine=affine)
    require_type((BSplineTransform, type(None)), fwd=fwd, bwd=bwd)
    flags = (1 if fwd is not None else 0) | (2 if bwd is not None else 0)
    parts = [_record(_HEAD, magic=TRANSFORM_MAGIC, version=1, flags=flags, affine=affine.matrix)]
    for t in (fwd, bwd):
        if t is not None:
            ref = t.reference
            parts += [_record(_FFD, grid_dims=t.grid_dims, grid_spacing=t.grid_spacing,
                              dims=ref.dims, spacing=ref.spacing, origin=ref.origin,
                              direction=ref.direction),
                      np.ascontiguousarray(t.coefficients, dtype="<f8").tobytes()]
    Path(path).write_bytes(b"".join(parts))


def load_transform(path):
    """Returns (affine, fwd | None, bwd | None)."""
    require_type((str, os.PathLike), path=path)
    buf = Path(path).read_bytes()
    if len(buf) < _HEAD.itemsize or buf[:8] != TRANSFORM_MAGIC:
        raise InvalidInputError(f"{path}: not a transform container")
    head = np.frombuffer(buf, _HEAD, count=1)[0]
    version, flags = int(head["version"]), int(head["flags"])
    if version != 1:
        raise InvalidInputError(f"{path}: unsupported container version {version}")
    if flags & ~3:
        raise InvalidInputError(f"{path}: unknown flag bits {flags & ~3:#x} (flags {flags})")
    affine = AffineTransform(head["affine"])
    off = _HEAD.itemsize
    ffds = [None, None]  # forward, backward
    for i in (0, 1):
        if flags & 1 << i:
            if len(buf) - off < _FFD.itemsize:
                raise InvalidInputError("transform container ends inside an FFD header")
            h = np.frombuffer(buf, _FFD, count=1, offset=off)[0]
            off += _FFD.itemsize
            # Python numbers: the product cannot wrap, and messages show plain values
            gd = h["grid_dims"].tolist()
            n = gd[0] * gd[1] * gd[2] * 3
            if len(buf) - off < n * 8:
                raise InvalidInputError("transform container ends inside FFD coefficients")
            coef = np.frombuffer(buf, dtype="<f8", count=n, offset=off).reshape(*gd, 3)
            off += n * 8
            ref = Grid(h["dims"].tolist(), h["spacing"].tolist(), h["origin"], h["direction"])
            ffds[i] = BSplineTransform(h["grid_spacing"].tolist(), coef, ref)
    if off != len(buf):
        raise InvalidInputError(f"{path}: {len(buf) - off} bytes after the last transform")
    return (affine, *ffds)
