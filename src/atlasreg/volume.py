"""Voxel grid geometry, the volume types, trilinear sampling and resampling.

A Grid is the geometry of a volume: dims, voxel spacing in mm, a world-space
origin (center of voxel (0,0,0)) and an orthonormal direction matrix whose
columns are the world axes of the voxel axes. Volume, LabelVolume and
ProbabilityVolume each carry one. Data is stored as an (nx, ny, nz) array;
the serialized layout is x-fastest.

Every trilinear interpolation of the package (images, masks, displacement
fields) goes through TrilinearStencil, whose scatter is the exact adjoint of
its edge-clamped gather. `resample` changes the spacing of intensity volumes
only; labels move between grids by nearest neighbour in `transforms.warp_labels`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GeometryMismatchError, InvalidInputError

LABEL_CLASS_IDS = (0, 1, 2, 3)
CLASS_NAMES = {1: "lv_cavity", 2: "lv_myocardium", 3: "rv_cavity"}
GEOMETRY_TOL = 1e-5  # absolute tolerance of `same_geometry` on spacing, origin, direction


@dataclass(frozen=True, eq=False)
class Grid:
    """Voxel grid geometry: dims, spacing (mm), origin and direction.

    The origin is the world position of voxel (0, 0, 0); the columns of the
    orthonormal direction matrix are the world axes of the voxel axes.
    Instances are immutable and hashable; `==` and `hash` are exact, while
    `same_geometry` compares within GEOMETRY_TOL.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    direction: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        dims, spacing = tuple(self.dims), tuple(self.spacing)
        if len(dims) != 3 or any(int(n) <= 0 for n in dims):
            raise InvalidInputError(f"dims must be three positive integers, got {dims}")
        if len(spacing) != 3 or any(not (0 < s < math.inf) for s in spacing):
            raise InvalidInputError(f"spacings must be finite and positive, got {spacing}")
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3).copy()
        if not np.all(np.isfinite(origin)):
            raise InvalidInputError(f"origin must be finite, got {origin}")
        direction = np.asarray(self.direction, dtype=np.float64).copy()
        if direction.shape != (3, 3):
            raise InvalidInputError(f"direction must be 3x3, got {direction.shape}")
        if not abs(abs(np.linalg.det(direction)) - 1.0) <= 1e-6:
            raise InvalidInputError("direction matrix must be orthonormal (|det| = 1)")
        origin.flags.writeable = False
        direction.flags.writeable = False
        object.__setattr__(self, "dims", tuple(int(n) for n in dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in spacing))
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", direction)

    def _key(self):
        return (self.dims, self.spacing, self.origin.tobytes(), self.direction.tobytes())

    def __eq__(self, other):
        return isinstance(other, Grid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def world_from_voxel(self, pts) -> np.ndarray:
        """Map continuous voxel coordinates (..., 3) to world mm coordinates."""
        pts = np.asarray(pts, dtype=np.float64)
        return pts * np.asarray(self.spacing) @ self.direction.T + self.origin

    def voxel_from_world(self, pts) -> np.ndarray:
        """Map world mm coordinates (..., 3) to continuous voxel coordinates."""
        pts = np.asarray(pts, dtype=np.float64)
        vox = (pts - self.origin) @ self.direction
        vox /= np.asarray(self.spacing)
        return vox

    def same_geometry(self, other: "Grid") -> bool:
        return (
            self.dims == other.dims
            and np.allclose(self.spacing, other.spacing, atol=GEOMETRY_TOL)
            and np.allclose(self.origin, other.origin, atol=GEOMETRY_TOL)
            and np.allclose(self.direction, other.direction, atol=GEOMETRY_TOL)
        )

    def voxel_points(self) -> np.ndarray:
        """Voxel coordinates (N, 3) of every voxel, x-slowest; cached, read-only."""
        return _grid_points(self, world=False)

    def world_points(self) -> np.ndarray:
        """World coordinates (N, 3) of every voxel, x-slowest; cached, read-only."""
        return _grid_points(self, world=True)


@lru_cache(maxsize=32)
def _grid_points(grid: Grid, world: bool) -> np.ndarray:
    # world points start from a voxel grid of their own, so that asking for
    # them caches no voxel points beside them
    ii, jj, kk = np.meshgrid(*(np.arange(n) for n in grid.dims), indexing="ij")
    pts = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3).astype(np.float64)
    if world:
        pts = grid.world_from_voxel(pts)
    pts.flags.writeable = False
    return pts


class _OnGrid:
    """Geometry accessors of the volume types below, all answered by their Grid."""

    def _set_grid(self, dims):
        grid = Grid(dims, self.spacing, self.origin, self.direction)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "spacing", grid.spacing)
        object.__setattr__(self, "origin", grid.origin)
        object.__setattr__(self, "direction", grid.direction)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.grid.dims

    def world_from_voxel(self, pts) -> np.ndarray:
        return self.grid.world_from_voxel(pts)

    def voxel_from_world(self, pts) -> np.ndarray:
        return self.grid.voxel_from_world(pts)

    def same_geometry(self, other) -> bool:
        return self.grid.same_geometry(other.grid)


@dataclass(frozen=True)
class Volume(_OnGrid):
    """3D scalar image with physical geometry. Immutable after construction."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    direction: np.ndarray = field(default_factory=lambda: np.eye(3))
    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise InvalidInputError(f"volume data must be 3D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("volume data contains NaN or Inf")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        self._set_grid(data.shape)


@dataclass(frozen=True)
class LabelVolume(_OnGrid):
    """Integer-class grid; 0 background, 1 LV cavity, 2 LV myocardium, 3 RV cavity."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    direction: np.ndarray = field(default_factory=lambda: np.eye(3))
    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise InvalidInputError(f"label data must be 3D, got shape {data.shape}")
        if not np.isin(data, LABEL_CLASS_IDS).all():
            bad = sorted(set(np.unique(data).tolist()) - set(LABEL_CLASS_IDS))
            raise InvalidInputError(f"label volume contains undeclared class ids {bad}")
        data = data.astype(np.uint8)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        self._set_grid(data.shape)


@dataclass(frozen=True)
class ProbabilityVolume(_OnGrid):
    """Per-class probability channels; shape (C, nx, ny, nz), per-voxel sum 1."""

    channels: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    direction: np.ndarray = field(default_factory=lambda: np.eye(3))
    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=np.float32)
        if ch.ndim != 4 or ch.shape[0] < 2:
            raise InvalidInputError(f"channels must be (C>=2, nx, ny, nz), got {ch.shape}")
        if ch.min() < -1e-6 or ch.max() > 1 + 1e-6:
            raise InvalidInputError("channel values must lie in [0, 1]")
        sums = ch.sum(axis=0, dtype=np.float64)
        if np.abs(sums - 1.0).max() > 1e-4:
            raise InvalidInputError("per-voxel channel sums must equal 1 within 1e-4")
        ch = ch.copy()
        ch.flags.writeable = False
        object.__setattr__(self, "channels", ch)
        self._set_grid(ch.shape[1:])

    @property
    def num_classes(self) -> int:
        return self.channels.shape[0]


def require_same_geometry(a, b, what: str = "volumes"):
    if not a.same_geometry(b):
        raise GeometryMismatchError(
            f"{what} must share geometry: {a.dims}/{a.spacing} vs {b.dims}/{b.spacing}"
        )


# ---------------------------------------------------------------------------
# Trilinear sampling
# ---------------------------------------------------------------------------

class TrilinearStencil:
    """Trilinear interpolation of points on a voxel grid, and its adjoint.

    Built once from the grid dims and continuous voxel coordinates (N, 3):
    it holds each point's cell (base linear index, clamped so the cell lies
    inside the grid), the per-axis fractions (clamped to [0, 1], so points
    outside take the values of the nearest face) and the `inside` mask of
    points within [0, n-1] on every axis. An axis of length 1 has a zero
    stride, so both cell corners are that single voxel.

    Channel layout: `gather` reads one scalar field (nx, ny, nz). A vector
    field is gathered one channel at a time, best from a C-contiguous
    channel-first copy (C, nx, ny, nz), whose channels are contiguous and are
    read without a copy. `scatter` takes per-point vectors (N, C) and
    returns the channel-last grid field (nx, ny, nz, C), the layout
    `splat_to_coefficients` takes.
    """

    def __init__(self, dims, points):
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        self.dims = tuple(int(n) for n in dims)
        nx, ny, nz = self.dims
        self.inside = (
            (p[:, 0] >= 0) & (p[:, 0] <= nx - 1)
            & (p[:, 1] >= 0) & (p[:, 1] <= ny - 1)
            & (p[:, 2] >= 0) & (p[:, 2] <= nz - 1)
        )
        base = None
        fractions = []
        for a, n in enumerate(self.dims):
            frac = np.floor(p[:, a])
            i0 = frac.astype(np.intp)
            np.clip(i0, 0, max(n - 2, 0), out=i0)
            np.subtract(p[:, a], i0, out=frac)
            fractions.append(np.clip(frac, 0.0, 1.0, out=frac))
            if base is None:
                base = i0
            else:
                base *= n
                base += i0
        self.base = base
        self.fx, self.fy, self.fz = fractions
        self.strides = (ny * nz if nx > 1 else 0, nz if ny > 1 else 0,
                        1 if nz > 1 else 0)

    def gather(self, data, oob=None, want_gradient=False):
        """Interpolate the scalar field `data` (nx, ny, nz) at the points.

        Returns values (N,). Points outside the grid take `oob` when it is
        given, and the edge-clamped value when it is None. With
        want_gradient, returns (values, d values / d voxel coordinate), the
        latter (N, 3) and zero outside the grid.

        Every interpolation step is a lerp a + (b - a) * f: along x on the
        four cell edges, then along y, then along z. The gradient weighs the
        x slopes of the edges along y and z, the y slopes of the two z faces
        along z, and takes the z slope. The work runs in a few reused (N,)
        buffers, and the gradient columns are written in place.
        """
        data = np.asarray(data)
        if data.shape != self.dims:
            raise InvalidInputError(
                f"gather takes one scalar field of shape {self.dims}, got {data.shape}")
        flat = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
        fx, fy, fz = self.fx, self.fy, self.fz
        sx, sy, sz = self.strides
        n = self.base.size
        idx = np.empty(n, dtype=np.intp)

        def edge(off, out, slope, scratch):
            """Values along the x-edge at `off` of every cell into `out`, and
            its x slope into `slope` (which may be the scratch)."""
            # the indices lie in the grid by construction, so "clip" changes
            # none of them; unlike "raise" it lets take write into `out`
            # without a buffer
            np.add(self.base, off, out=idx)
            flat.take(idx, out=out, mode="clip")
            np.add(idx, sx, out=idx)
            flat.take(idx, out=slope, mode="clip")
            slope -= out
            out += np.multiply(slope, fx, out=scratch)

        def face(dz, lo, hi, slope_lo, slope_hi, scratch):
            """Values lerped along y on the cell face at `dz` into `lo`, and
            its y slope into `hi` (which may be the scratch)."""
            edge(dz, lo, slope_lo, scratch)
            edge(sy + dz, hi, slope_hi, scratch)
            hi -= lo
            lo += np.multiply(hi, fy, out=scratch)

        c0, c1, dy, slope = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
        if not want_gradient:
            face(0, c0, dy, slope, slope, slope)
            face(sz, c1, dy, slope, slope, slope)
            vals = c1
            vals -= c0
            vals *= fz
            vals += c0
            if oob is not None:
                vals[~self.inside] = oob
            return vals

        slope_hi, tmp = np.empty(n), np.empty(n)

        def x_slope():
            """The face's x slope lerped along y, into `slope`."""
            np.multiply(slope, np.subtract(1.0, fy, out=tmp), out=slope)
            np.add(slope, np.multiply(slope_hi, fy, out=tmp), out=slope)
            return slope

        grad = np.empty((n, 3))
        gx, gy, gz = grad[:, 0], grad[:, 1], grad[:, 2]
        face(0, c0, dy, slope, slope_hi, tmp)
        one_minus_fz = np.subtract(1.0, fz, out=c1)
        np.multiply(dy, one_minus_fz, out=gy)
        np.multiply(x_slope(), one_minus_fz, out=gx)
        face(sz, c1, dy, slope, slope_hi, tmp)
        gx += np.multiply(x_slope(), fz, out=tmp)
        dy *= fz
        gy += dy
        np.subtract(c1, c0, out=gz)
        vals = np.multiply(gz, fz, out=c1)
        vals += c0
        if oob is not None:
            vals[~self.inside] = oob
        grad[~self.inside] = 0.0
        return vals, grad

    def scatter(self, vecs) -> np.ndarray:
        """Adjoint of the edge-clamped gather (oob=None), channel by channel.

        Deposits per-point values (N,) or vectors (N, C) onto the grid with
        the same indices and weights; returns (nx, ny, nz) or the
        channel-last (nx, ny, nz, C).
        """
        vecs = np.asarray(vecs, dtype=np.float64)
        cols = vecs.reshape(len(self.base), -1)
        size = int(np.prod(self.dims))
        out = np.zeros((size, cols.shape[1]))
        sx, sy, sz = self.strides
        n = self.base.size
        lin = np.empty(n, dtype=np.intp)
        w, deposit = np.empty(n), np.empty(n)
        x_weights = ((0, 1.0 - self.fx), (sx, self.fx))
        y_weights = ((0, 1.0 - self.fy), (sy, self.fy))
        z_weights = ((0, 1.0 - self.fz), (sz, self.fz))
        for dx, wx in x_weights:
            for dy, wy in y_weights:
                for dz, wz in z_weights:
                    np.multiply(wx, wy, out=w)
                    w *= wz
                    np.add(self.base, dx + dy + dz, out=lin)
                    for d in range(cols.shape[1]):
                        np.multiply(w, cols[:, d], out=deposit)
                        out[:, d] += np.bincount(lin, weights=deposit, minlength=size)
        return out.reshape(self.dims + vecs.shape[1:])


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def resample(vol: Volume, target_spacing) -> Volume:
    """Resample an intensity volume to a new voxel spacing; origin and
    direction are preserved.

    Output dims are ceil(n * s_old / s_new) per axis. Samples are trilinear,
    with background 0 outside the source grid.
    """
    target_spacing = tuple(float(s) for s in target_spacing)
    if any(not (s > 0) for s in target_spacing):
        raise InvalidInputError(f"target spacings must be positive, got {target_spacing}")

    old = np.asarray(vol.spacing)
    new = np.asarray(target_spacing)
    new_dims = tuple(int(math.ceil(vol.dims[a] * old[a] / new[a])) for a in range(3))
    pts = Grid(new_dims, target_spacing, vol.origin, vol.direction).voxel_points() * (new / old)
    vals = TrilinearStencil(vol.dims, pts).gather(vol.data, oob=0.0)
    return Volume(vals.reshape(new_dims).astype(np.float32), target_spacing,
                  vol.origin, vol.direction)
