"""Voxel grid geometry, the volume types, trilinear sampling, smoothing and resampling.

A Grid is the geometry of a volume: dims, voxel spacing in mm, a world-space
origin (center of voxel (0,0,0)) and an orthonormal direction matrix whose
columns are the world axes of the voxel axes. A volume (Volume, LabelVolume,
ProbabilityVolume) is its values and one Grid, nothing more: its spacing,
origin, direction and dims are read from that Grid. A volume reads its
values through `_numbers`, the one reader of every array argument, and
copies them once, into its own dtype. Values are stored as an
(nx, ny, nz) array, channels first for probabilities; the serialized layout
is x-fastest. Grids, volumes and both transform types are immutable values
on `_Frozen`, their arrays read-only. A Grid's `==` and `hash` are exact,
so it keys caches; the others compare and hash by identity, since their
arrays give `==` no single truth value. `same_geometry` compares grids, and
takes a Grid or a volume on either side.

Every trilinear interpolation of the package (images, masks, displacement
fields) and its gradient goes through TrilinearStencil, whose scatter is the
exact adjoint of its edge-clamped gather. `resample` changes the spacing of
intensity volumes only; labels move between grids by nearest neighbour in
`transforms.warp_labels`.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import GeometryMismatchError, InvalidInputError, is_count, is_number, require_type

LABEL_CLASS_IDS = (0, 1, 2, 3)
CLASS_NAMES = {1: "lv_cavity", 2: "lv_myocardium", 3: "rv_cavity"}
GEOMETRY_TOL = 1e-5  # absolute tolerance of `same_geometry` on spacing, origin, direction


def positive_spacings(spacing, what: str = "spacings") -> tuple[float, float, float]:
    """The three spacings as floats; InvalidInputError unless there are three
    and each is a finite positive number."""
    s = _float_array(spacing, f"{what} must be three finite positive numbers", (3,))
    if not np.all((s > 0) & (s < math.inf)):
        raise InvalidInputError(f"{what} must be three finite positive numbers, got {spacing!r}")
    return tuple(s.tolist())


def _numbers(value, must: str, shape=None, bools: bool = False) -> np.ndarray:
    """`value` as an array in its own dtype, of `shape` if given; otherwise
    InvalidInputError with the message `must`, which names the argument,
    and the value: its repr, or for more than nine entries its dtype and
    shape. An array passes as it is, uncopied.

    The dtype rule is `bools`, fixed at each call site. By default only an
    integer or float dtype passes: like `is_number` for a scalar, it
    refuses bools, strings (numeric ones too), complex numbers and objects
    (so a Python int beyond 64 bits). With `bools`, for a mask and for a
    field that TrilinearStencil gathers, a bool dtype passes too. numpy
    reads a bool mixed into numbers as an integer, so ranges ((0, True),
    (0, 1)), spacings (True, 1, 1) and an rv_offset (True, 0, 0) pass, with
    True as 1."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # a ragged sequence, say
        a = None
    kinds = "iufb" if bools else "iuf"
    if a is None or a.dtype.kind not in kinds or shape is not None and a.shape != shape:
        got = repr(value) if a is None or a.size <= 9 else f"{a.dtype} array of shape {a.shape}"
        raise InvalidInputError(f"{must}, got {got}")
    return a


def _float_array(value, must: str, shape=None, bools: bool = False) -> np.ndarray:
    """`_numbers(value, must, shape, bools)` cast to float64, a bool as 0.0
    and 1.0; a float64 array is returned as it is, uncopied."""
    return _numbers(value, must, shape, bools).astype(np.float64, copy=False)


def _points(pts) -> np.ndarray:
    """`pts` as a float64 array of points (..., 3); otherwise
    InvalidInputError naming `pts`."""
    a = _float_array(pts, "pts must be numbers of shape (..., 3)")
    if a.shape[-1:] != (3,):
        raise InvalidInputError(f"pts must be numbers of shape (..., 3), got shape {a.shape}")
    return a


_ORIGIN = (0.0, 0.0, 0.0)
_DIRECTION = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class _Frozen:
    """An immutable value, checked once by its constructor: Grid, the volume
    types (through _OnGrid), AffineTransform and BSplineTransform. Scalar
    configs and result records stay dataclasses.

    `_set` is the only writer; assigning or deleting an attribute raises
    AttributeError. A value pickles as a new constructor call with the
    attributes `_ARGS` names, so a copy (a worker's result, a deepcopy) is
    checked again and its arrays are read-only; default pickling would
    restore the instance dict with writeable arrays.
    """

    _ARGS: tuple[str, ...] = ()  # the constructor's arguments, read back by pickling

    def _set(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._ARGS)


class Grid(_Frozen):
    """Voxel grid geometry: dims, spacing (mm), origin and direction.

    The origin is the world position of voxel (0, 0, 0); the columns of the
    orthonormal direction matrix are the world axes of the voxel axes.
    Instances are immutable and hashable; `==` and `hash` are exact, while
    `same_geometry` compares within GEOMETRY_TOL.
    """

    _ARGS = ("dims", "spacing", "origin", "direction")

    def __init__(self, dims, spacing=(1.0, 1.0, 1.0), origin=_ORIGIN, direction=_DIRECTION):
        try:
            dims = tuple(dims)
        except TypeError:
            dims = (dims,)
        if len(dims) != 3 or not all(is_count(n) for n in dims):
            raise InvalidInputError(f"dims must be three positive integers, got {dims}")
        spacing = positive_spacings(spacing)
        origin = _float_array(origin, "origin must be 3 numbers", (3,)).copy()
        direction = _float_array(direction, "direction must be 3x3 numbers", (3, 3)).copy()
        if not np.all(np.isfinite(origin)):
            raise InvalidInputError(f"origin must be finite, got {origin}")
        # entries within 1 first, so that a NaN or huge entry fails before det
        # and norm can warn; unit columns and |det| = 1 together bound the
        # shear (Hadamard's inequality)
        if not (np.abs(direction).max() <= 1.0 + 1e-6
                and abs(abs(np.linalg.det(direction)) - 1.0) <= 1e-6
                and np.abs(np.linalg.norm(direction, axis=0) - 1.0).max() <= 1e-6):
            raise InvalidInputError(
                "direction matrix must be orthonormal (unit columns, |det| = 1)")
        origin.flags.writeable = False
        direction.flags.writeable = False
        self._set(dims=tuple(int(n) for n in dims), spacing=spacing, origin=origin,
                  direction=direction)

    def _key(self):
        return (self.dims, self.spacing, self.origin.tobytes(), self.direction.tobytes())

    def __eq__(self, other):
        return isinstance(other, Grid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def world_from_voxel(self, pts) -> np.ndarray:
        """Map continuous voxel coordinates (..., 3) to world mm coordinates."""
        pts = _points(pts)
        return pts * np.asarray(self.spacing) @ self.direction.T + self.origin

    def voxel_from_world(self, pts) -> np.ndarray:
        """Map world mm coordinates (..., 3) to continuous voxel coordinates."""
        pts = _points(pts)
        vox = (pts - self.origin) @ self.direction
        vox /= np.asarray(self.spacing)
        return vox

    def same_geometry(self, other) -> bool:
        """Whether `other`, a Grid or a volume, has this geometry within
        GEOMETRY_TOL; anything else raises InvalidInputError."""
        other = as_grid(other, "other")
        return self is other or self == other or (
            self.dims == other.dims
            and np.allclose(self.spacing, other.spacing, atol=GEOMETRY_TOL)
            and np.allclose(self.origin, other.origin, atol=GEOMETRY_TOL)
            and np.allclose(self.direction, other.direction, atol=GEOMETRY_TOL)
        )

    def voxel_points(self) -> np.ndarray:
        """Voxel coordinates (N, 3) of every voxel, x-slowest; cached, read-only.
        The columns are contiguous: the array is the transpose of (3, N) rows."""
        return _grid_points(self, world=False)

    def world_points(self) -> np.ndarray:
        """World coordinates (N, 3) of every voxel, x-slowest; cached, read-only.
        The columns are contiguous: the array is the transpose of (3, N) rows."""
        return _grid_points(self, world=True)


def as_grid(geometry, what: str = "geometry") -> Grid:
    """`geometry` itself when it is a Grid, else the Grid of the volume it is."""
    grid = geometry if isinstance(geometry, Grid) else getattr(geometry, "grid", None)
    if not isinstance(grid, Grid):
        raise InvalidInputError(f"{what} must be a Grid or a volume, got {type(geometry).__name__}")
    return grid


@lru_cache(maxsize=32)
def _grid_points(grid: Grid, world: bool) -> np.ndarray:
    # world points start from a voxel grid of their own, so that asking for
    # them caches no voxel points beside them; `world_from_voxel`'s steps on
    # the rows
    rows = np.indices(grid.dims, dtype=np.float64).reshape(3, -1)
    if world:
        rows *= np.asarray(grid.spacing)[:, None]
        rows = grid.direction @ rows
        rows += grid.origin[:, None]
    rows.flags.writeable = False
    return rows.T


class _OnGrid(_Frozen):
    """A volume: its values and one Grid, and nothing else.

    The constructor reads the values through `_numbers`, numbers only:
    bools, strings (numeric ones too), complex numbers and objects raise
    InvalidInputError naming `_ARGS[0]`. It casts them to the type's
    `_DTYPE` as a new C-ordered array, the one copy of the values; a value
    beyond float32 becomes Inf there, with no overflow warning, and the
    type's NaN-or-Inf check refuses it. With `_DTYPE` None (LabelVolume)
    they keep their dtype until `_checked` copies them into its own. The
    type's `_checked` hook checks the values and returns the array the
    volume holds, which the constructor makes read-only and stores under
    `_ARGS[0]`. It then builds the Grid of the last three axes from
    spacing, origin and direction, which checks those. Spacing, origin,
    direction and dims are read from that Grid. Volumes compare and hash
    by identity.
    """

    _ARGS = ("data", "spacing", "origin", "direction")
    _DTYPE = None  # the dtype the values are cast to, None to keep theirs

    def __init__(self, data, spacing=(1.0, 1.0, 1.0), origin=_ORIGIN, direction=_DIRECTION):
        values = _numbers(data, f"{self._ARGS[0]} must be numbers")
        if self._DTYPE is not None:
            with np.errstate(over="ignore"):  # to Inf, which `_checked` refuses
                values = values.astype(self._DTYPE, order="C")
        values = self._checked(values)
        values.flags.writeable = False
        self._set(**{self._ARGS[0]: values},
                  grid=Grid(values.shape[-3:], spacing, origin, direction))

    dims = property(lambda self: self.grid.dims)
    spacing = property(lambda self: self.grid.spacing)
    origin = property(lambda self: self.grid.origin)
    direction = property(lambda self: self.grid.direction)

    def world_from_voxel(self, pts) -> np.ndarray:
        return self.grid.world_from_voxel(pts)

    def voxel_from_world(self, pts) -> np.ndarray:
        return self.grid.voxel_from_world(pts)

    def same_geometry(self, other) -> bool:
        return self.grid.same_geometry(other)


class Volume(_OnGrid):
    """3D scalar image with physical geometry."""

    _DTYPE = np.float32

    def _checked(self, data) -> np.ndarray:
        if data.ndim != 3:
            raise InvalidInputError(f"volume data must be 3D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("volume data contains NaN or Inf")
        return data


class LabelVolume(_OnGrid):
    """Integer-class grid; 0 background, 1 LV cavity, 2 LV myocardium, 3 RV cavity."""

    def _checked(self, data) -> np.ndarray:
        if data.ndim != 3:
            raise InvalidInputError(f"label data must be 3D, got shape {data.shape}")
        if not np.isin(data, LABEL_CLASS_IDS).all():
            bad = np.setdiff1d(data, LABEL_CLASS_IDS).tolist()
            more = ", ..." if len(bad) > 5 else ""
            raise InvalidInputError(f"label volume contains undeclared class ids "
                                    f"[{', '.join(map(str, bad[:5]))}{more}], {len(bad)} in all")
        return data.astype(np.uint8)  # the one copy: `_DTYPE` None keeps the values' dtype


class ProbabilityVolume(_OnGrid):
    """Per-class probability channels; shape (C, nx, ny, nz), per-voxel sum 1."""

    _ARGS = ("channels", "spacing", "origin", "direction")
    _DTYPE = np.float32

    def __init__(self, channels, spacing=(1.0, 1.0, 1.0), origin=_ORIGIN, direction=_DIRECTION):
        super().__init__(channels, spacing, origin, direction)

    def _checked(self, ch) -> np.ndarray:
        if ch.ndim != 4 or ch.shape[0] < 2:
            raise InvalidInputError(f"channels must be (C>=2, nx, ny, nz), got {ch.shape}")
        if not np.all(np.isfinite(ch)):
            raise InvalidInputError("channels contain NaN or Inf")
        if ch.min() < -1e-6 or ch.max() > 1 + 1e-6:
            raise InvalidInputError("channel values must lie in [0, 1]")
        sums = ch.sum(axis=0, dtype=np.float64)
        if np.abs(sums - 1.0).max() > 1e-4:
            raise InvalidInputError("per-voxel channel sums must equal 1 within 1e-4")
        return ch

    @property
    def num_classes(self) -> int:
        return self.channels.shape[0]


def require_same_geometry(a, b, what: str = "volumes"):
    """GeometryMismatchError unless `a` and `b`, each a Grid or a volume,
    share geometry; InvalidInputError naming the one that is neither."""
    a, b = as_grid(a, "a"), as_grid(b, "b")
    if not a.same_geometry(b):
        raise GeometryMismatchError(
            f"{what} must share geometry: {a.dims}/{a.spacing} vs {b.dims}/{b.spacing}"
        )


# ---------------------------------------------------------------------------
# Trilinear sampling
# ---------------------------------------------------------------------------

class TrilinearStencil:
    """Trilinear interpolation of points on a voxel grid, its gradient and
    its adjoint.

    Built once from the grid dims (three positive integers) and continuous
    voxel coordinates (N, 3) of numbers. The fields `gather` and `gradient`
    read are numbers or bools (a mask gathers as 0.0 and 1.0), `oob` is a
    number and the values `scatter` deposits are numbers; other dtypes and
    shapes raise InvalidInputError naming the argument. It
    holds each point's cell (base linear index, clamped so the cell lies
    inside the grid), the per-axis fractions (clamped to [0, 1], so points
    outside take the values of the nearest face) and the `inside` mask of
    points within [0, n-1] on every axis. An axis of length 1 has a zero
    stride and a zero fraction, so both cell corners are that single voxel.

    Channel layout: the points are read one axis at a time, fastest from an
    (N, 3) view of three contiguous rows (3, N), such as `Grid.voxel_points`
    or the transpose of rows mapped to voxel coordinates. `gather` and
    `gradient` read one scalar field (nx, ny, nz). A vector field is
    gathered one channel at a time, best from a C-contiguous channel-first
    copy (C, nx, ny, nz), whose channels are contiguous and are read
    without a copy. `gradient` writes three contiguous rows and returns
    their (N, 3) transpose view. `scatter` takes per-point vectors (N, C)
    and returns the channel-last grid field (nx, ny, nz, C), the layout
    `splat_to_coefficients` takes.

    Every interpolation step is a lerp a + (b - a) * f: along x on the four
    cell edges, then along y, then along z. A cell corner at linear offset
    `off` from the cell's base is read as `base` in the view of the data
    from `off` on, so no index array is formed. The work runs in a few
    reused (N,) buffers.
    """

    def __init__(self, dims, points):
        self.dims = Grid(dims).dims  # three positive integers, or InvalidInputError
        p = _float_array(points, "stencil points must be numbers of shape (N, 3)")
        if p.ndim != 2 or p.shape[1] != 3:
            raise InvalidInputError(f"stencil points must be (N, 3), got shape {p.shape}")
        self.inside = np.ones(len(p), dtype=bool)
        base = None
        fractions = []
        for a, n in enumerate(self.dims):
            self.inside &= (p[:, a] >= 0) & (p[:, a] <= n - 1)
            frac = np.floor(p[:, a])
            i0 = frac.astype(np.intp)
            np.clip(i0, 0, max(n - 2, 0), out=i0)
            np.subtract(p[:, a], i0, out=frac)
            # a point and its edge-clamped point share their fractions
            fractions.append(np.clip(frac, 0.0, min(n - 1, 1), out=frac))
            if base is None:
                base = i0
            else:
                base *= n
                base += i0
        self.base = base
        self.fx, self.fy, self.fz = fractions
        nx, ny, nz = self.dims
        self.strides = (ny * nz if nx > 1 else 0, nz if ny > 1 else 0,
                        1 if nz > 1 else 0)

    def _flat(self, data, what: str) -> np.ndarray:
        data = _float_array(data, f"{what} takes one scalar field of shape {self.dims} as "
                            "data, of numbers or bools", self.dims, bools=True)
        return np.ascontiguousarray(data).reshape(-1)

    def _edge(self, flat, off, out, slope, scratch):
        """Values along the x-edge at `off` of every cell into `out`, and
        its x slope into `slope` (which may be the scratch)."""
        # corner `off` of each cell is `base` in the view of `flat` from
        # `off` on. Every base lies in that view by construction, so "clip"
        # changes none of them; unlike "raise" it lets take write into `out`
        # without a buffer
        flat[off:].take(self.base, out=out, mode="clip")
        flat[off + self.strides[0]:].take(self.base, out=slope, mode="clip")
        slope -= out
        out += np.multiply(slope, self.fx, out=scratch)

    def _face(self, flat, dz, lo, hi, slope_lo, slope_hi, scratch):
        """Values lerped along y on the cell face at `dz` into `lo`, and its
        y slope into `hi` (which may be the scratch); the x slopes of its
        two edges into `slope_lo` and `slope_hi`."""
        self._edge(flat, dz, lo, slope_lo, scratch)
        self._edge(flat, self.strides[1] + dz, hi, slope_hi, scratch)
        hi -= lo
        lo += np.multiply(hi, self.fy, out=scratch)

    def gather(self, data, oob=None) -> np.ndarray:
        """Interpolate the scalar field `data` (nx, ny, nz) at the points.

        Returns values (N,). Points outside the grid take `oob` when it is
        given, and the edge-clamped value when it is None.
        """
        flat = self._flat(data, "gather")
        c0, c1, dy, slope = (np.empty(self.base.size) for _ in range(4))
        self._face(flat, 0, c0, dy, slope, slope, slope)
        self._face(flat, self.strides[2], c1, dy, slope, slope, slope)
        vals = c1
        vals -= c0
        vals *= self.fz
        vals += c0
        if oob is not None:
            vals[~self.inside] = _float_array(oob, "oob must be None or a number", ())
        return vals

    def gradient(self, data) -> np.ndarray:
        """d gather(data) / d voxel coordinate at the points, (N, 3): the
        transpose view of three contiguous rows (3, N).

        It weighs the x slopes of the edges along y and z, the y slopes of
        the two z faces along z, and takes the z slope. A point outside the
        grid gets the gradient at its edge-clamped point: that point has the
        same base cell and the same clamped fractions, so the bits match.
        The work takes five (N,) buffers and the three rows, whose z row
        holds the faces' y slopes until its last write.
        """
        flat = self._flat(data, "gradient")
        fy, fz = self.fy, self.fz
        c0, c1, slope, slope_hi, tmp = (np.empty(self.base.size) for _ in range(5))
        grad = np.empty((3, self.base.size))
        gx, gy, gz = grad

        def x_slope():
            """The face's x slope lerped along y, into `slope`."""
            np.multiply(slope, np.subtract(1.0, fy, out=tmp), out=slope)
            np.add(slope, np.multiply(slope_hi, fy, out=tmp), out=slope)
            return slope

        self._face(flat, 0, c0, gz, slope, slope_hi, tmp)
        one_minus_fz = np.subtract(1.0, fz, out=c1)
        np.multiply(gz, one_minus_fz, out=gy)
        np.multiply(x_slope(), one_minus_fz, out=gx)
        self._face(flat, self.strides[2], c1, gz, slope, slope_hi, tmp)
        gx += np.multiply(x_slope(), fz, out=tmp)
        gz *= fz
        gy += gz
        np.subtract(c1, c0, out=gz)
        return grad.T

    def scatter(self, vecs) -> np.ndarray:
        """Adjoint of the edge-clamped gather (oob=None), channel by channel.

        Deposits per-point values (N,) or vectors (N, C) onto the grid with
        the same cells and weights, each corner counted at `base` into the
        view of the output from its offset on; returns (nx, ny, nz) or the
        channel-last (nx, ny, nz, C). Other shapes raise InvalidInputError.
        """
        vecs = _float_array(vecs, "scatter takes vecs of numbers")
        if vecs.shape[:1] != self.base.shape or vecs.ndim > 2:
            raise InvalidInputError(f"scatter takes (N,) or (N, C) values for N = "
                                    f"{self.base.size} points, got shape {vecs.shape}")
        cols = vecs.reshape(len(self.base), -1)
        size = int(np.prod(self.dims))
        out = np.zeros((size, cols.shape[1]))
        sx, sy, sz = self.strides
        n = self.base.size
        w, deposit = np.empty(n), np.empty(n)
        x_weights = ((0, 1.0 - self.fx), (sx, self.fx))
        y_weights = ((0, 1.0 - self.fy), (sy, self.fy))
        z_weights = ((0, 1.0 - self.fz), (sz, self.fz))
        for dx, wx in x_weights:
            for dy, wy in y_weights:
                for dz, wz in z_weights:
                    np.multiply(wx, wy, out=w)
                    w *= wz
                    off = dx + dy + dz  # the corner's cells are `base` from `off` on
                    for d in range(cols.shape[1]):
                        np.multiply(w, cols[:, d], out=deposit)
                        out[off:, d] += np.bincount(self.base, deposit, size - off)
        return out.reshape(self.dims + vecs.shape[1:])


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

_SMOOTH_CHUNK = 1 << 15  # values per operand of one filter step, to stay in cache


def gaussian_smooth(data: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian filter of a float array with edge-value padding, bit for bit
    `scipy.ndimage.gaussian_filter(data, sigma, mode="nearest")`.

    The kernel is exp(-0.5 / sigma**2 * x**2) / sum for x within
    int(4 * sigma + 0.5) of the centre. The axes are filtered in order, each
    line in float64, as the centre tap times its weight plus each symmetric
    pair (x[-j] + x[+j]) * w[j], from the outermost pair inwards. The result
    is float64 for any float input: a float32 array is filtered as its
    float64 copy would be.
    """
    require_type(np.ndarray, data=data)
    if data.dtype.kind != "f" or data.size == 0:
        raise InvalidInputError(f"data must be a non-empty float array, got {data.dtype} "
                                f"of shape {data.shape}")
    if not (is_number(sigma) and 0 < sigma < math.inf):
        raise InvalidInputError(f"sigma must be a finite number > 0, got {sigma!r}")
    sigma = float(sigma)
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = w / w.sum()
    out = data
    for axis in range(data.ndim):
        lines = np.moveaxis(out, axis, 0)  # filter along the first axis
        n = lines.shape[0]
        padded = np.empty((n + 2 * radius,) + lines.shape[1:])
        padded[radius:radius + n] = lines
        padded[:radius] = lines[0]
        padded[radius + n:] = lines[-1]
        acc = np.empty(lines.shape)
        rows = max(1, _SMOOTH_CHUNK // max(1, lines[0].size))
        tmp = np.empty((min(rows, n),) + lines.shape[1:])
        for a in range(0, n, rows):
            b = min(a + rows, n)
            o, t = acc[a:b], tmp[:b - a]
            np.multiply(padded[a + radius:b + radius], w[radius], out=o)
            for j in range(radius, 0, -1):
                np.add(padded[a + radius - j:b + radius - j],
                       padded[a + radius + j:b + radius + j], out=t)
                t *= w[radius + j]
                o += t
        out = np.moveaxis(acc, 0, axis)
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def resample(vol: Volume, target_spacing) -> Volume:
    """Resample an intensity volume to a new voxel spacing; origin and
    direction are preserved.

    Output dims are ceil(n * s_old / s_new) per axis. Samples are trilinear,
    with background 0 outside the source grid.
    """
    require_type(Volume, vol=vol)
    target_spacing = positive_spacings(target_spacing, "target spacings")

    old = np.asarray(vol.spacing)
    new = np.asarray(target_spacing)
    new_dims = tuple(int(math.ceil(vol.dims[a] * old[a] / new[a])) for a in range(3))
    pts = Grid(new_dims, target_spacing, vol.origin, vol.direction).voxel_points() * (new / old)
    vals = TrilinearStencil(vol.dims, pts).gather(vol.data, oob=0.0)
    return Volume(vals.reshape(new_dims), target_spacing, vol.origin, vol.direction)
