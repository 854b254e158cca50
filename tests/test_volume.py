import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from atlasreg import (
    AffineTransform,
    BSplineTransform,
    GeometryMismatchError,
    Grid,
    InvalidInputError,
    LabelVolume,
    ObjectiveWeights,
    ProbabilityVolume,
    RegistrationResult,
    Volume,
    resample,
)
from atlasreg.objective import objective
from atlasreg.volume import TrilinearStencil, gaussian_smooth, require_same_geometry


def test_constant_volume_interpolates_to_constant():
    vol = Volume(np.full((4, 4, 4), 7.0))
    value = TrilinearStencil(vol.dims, [(0.3, 0.7, 0.5)]).gather(vol.data, 0.0)[0]
    assert value == pytest.approx(7.0)


def test_exact_at_voxel_centers():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(5, 4, 3)).astype(np.float32)
    vol = Volume(data)
    for idx in ((0, 0, 0), (4, 3, 2), (2, 1, 1)):
        value = TrilinearStencil(vol.dims, [idx]).gather(vol.data, 0.0)[0]
        assert value == pytest.approx(float(data[idx]), abs=1e-6)


def test_hand_computed_linear_blend():
    vol = Volume(np.array([0.0, 10.0]).reshape(2, 1, 1))
    value = TrilinearStencil(vol.dims, [(0.25, 0.0, 0.0)]).gather(vol.data, 0.0)[0]
    assert value == pytest.approx(2.5)


def test_out_of_bounds_returns_padding_value():
    vol = Volume(np.full((3, 3, 3), 5.0))
    assert TrilinearStencil(vol.dims, [(-0.01, 1, 1)]).gather(vol.data, 0.0)[0] == 0.0
    assert TrilinearStencil(vol.dims, [(1, 1, 2.01)]).gather(vol.data, -1.0)[0] == -1.0


def test_interpolation_bounded_by_neighbors():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(6, 6, 6)).astype(np.float32)
    vol = Volume(data)
    pts = rng.uniform(0, 5, size=(200, 3))
    vals = TrilinearStencil(vol.dims, pts).gather(vol.data, 0.0)
    for p, v in zip(pts, vals):
        i, j, k = np.floor(p).astype(int)
        i, j, k = min(i, 4), min(j, 4), min(k, 4)
        cube = data[i:i + 2, j:j + 2, k:k + 2]
        assert cube.min() - 1e-6 <= v <= cube.max() + 1e-6


@pytest.mark.parametrize("dims", [(7, 5, 6), (6, 1, 5)])
@pytest.mark.parametrize("channels", [(), (3,)])
def test_stencil_scatter_is_adjoint_of_gather(dims, channels):
    rng = np.random.default_rng(len(dims) * dims[1] + len(channels))
    upper = np.array(dims) - 1.0
    inside = rng.uniform(0, upper, (200, 3))
    outside = rng.uniform(-3, upper + 3, (200, 3))
    faces = rng.uniform(0, upper, (60, 3))
    axis = np.arange(60) % 3
    faces[np.arange(60), axis] = upper[axis]
    stencil = TrilinearStencil(dims, np.concatenate([inside, outside, faces]))
    field = rng.normal(size=dims + channels)
    vecs = rng.normal(size=(460,) + channels)
    # gather reads one scalar field: a vector field goes channel by channel
    channels_first = np.moveaxis(field, -1, 0) if channels else field[None]
    gathered = np.stack([stencil.gather(c) for c in channels_first], axis=-1)
    lhs = np.vdot(gathered.reshape(vecs.shape), vecs)
    rhs = np.vdot(field, stencil.scatter(vecs))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_stencil_inside_holds_no_nan_or_inf_point():
    # inside, on the far corner, outside through two faces, then non-finite
    points = np.array([[1.0, 2.0, 3.0], [6.0, 4.0, 5.0], [-0.5, 1.0, 1.0], [1.0, 4.5, 1.0],
                       [np.nan, 1.0, 1.0], [1.0, np.inf, 1.0], [1.0, 1.0, -np.inf]])
    # taken, not rejected, so that a probe mapped off every grid is judged by
    # the ascent; only casting a non-finite cell index warns
    with np.errstate(invalid="ignore"):
        stencil = TrilinearStencil((7, 5, 6), points)
    assert stencil.inside.tolist() == [True, True, False, False, False, False, False]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("dims", [(7, 5, 6), (6, 1, 5), (1, 4, 3)])
@pytest.mark.parametrize("oob", [None, 0.0])
def test_gather_equals_the_lerp_oracle_bit_for_bit(dims, oob):
    from bspline_oracle import gather_lerp

    rng = np.random.default_rng(sum(dims))
    top = np.asarray(dims, dtype=np.float64)
    pts = rng.uniform(-1.5, top + 0.5, (4000, 3))  # inside and outside the grid
    pts[:100] = rng.integers(0, dims, (100, 3))    # on voxels: zero fractions
    stencil = TrilinearStencil(dims, pts)
    assert stencil.inside.any() and not stencil.inside.all()
    image = rng.normal(size=dims).astype(np.float32)
    for data in (image, 3.1 * image.astype(np.float64)):
        assert np.array_equal(_bits(stencil.gather(data, oob)),
                              _bits(gather_lerp(stencil, data, oob)))
        got = stencil.gradient(data)
        expected = gather_lerp(stencil, data, gradient=True)
        assert got.shape == expected.shape == (4000, 3)
        assert np.array_equal(_bits(got), _bits(expected))


@pytest.mark.parametrize("dims", [(7, 5, 6), (6, 1, 5), (1, 4, 3)])
def test_gradient_outside_the_grid_is_that_at_the_clamped_point_bit_for_bit(dims):
    rng = np.random.default_rng(sum(dims) + 1)
    top = np.asarray(dims, dtype=np.float64) - 1.0
    pts = rng.uniform(-2.5, top + 2.5, (4000, 3))
    outside = pts[~TrilinearStencil(dims, pts).inside]
    assert len(outside) > 1000
    stencil = TrilinearStencil(dims, outside)
    at_clamped = TrilinearStencil(dims, np.clip(outside, 0.0, top))
    image = rng.normal(size=dims)
    for data in (image.astype(np.float32), image):
        assert np.array_equal(_bits(stencil.gradient(data)), _bits(at_clamped.gradient(data)))


def test_gradient_holds_eight_float64_arrays_per_point_and_the_image_copy():
    dims, n = (32, 32, 16), 1 << 16
    rng = np.random.default_rng(5)
    stencil = TrilinearStencil(dims, rng.uniform(-1.0, 32.0, (n, 3)))
    image = rng.normal(size=dims).astype(np.float32)
    stencil.gradient(image)  # warm-up
    tracemalloc.start()
    try:
        grad = stencil.gradient(image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.shape == (n, 3) and grad.T.flags.c_contiguous
    # a ninth array would add 512 KiB, the image copy is 128 KiB
    assert peak <= 8 * n * 8 + image.size * 8 + 64 * 1024


@pytest.mark.parametrize("dims", [(7, 5, 6), (6, 1, 5), (1, 4, 3)])
@pytest.mark.parametrize("channels", [(), (3,)])
def test_scatter_equals_the_bincount_oracle_bit_for_bit(dims, channels):
    from bspline_oracle import scatter_bincount

    rng = np.random.default_rng(sum(dims) + len(channels))
    top = np.asarray(dims, dtype=np.float64)
    pts = rng.uniform(-1.5, top + 0.5, (4000, 3))  # inside and outside the grid
    pts[:100] = rng.integers(0, dims, (100, 3))    # on voxels: zero fractions
    axis = np.arange(300) % 3
    pts[100 + np.arange(300), axis] = top[axis] - 1.0  # on the far faces
    stencil = TrilinearStencil(dims, pts)
    assert stencil.inside.any() and not stencil.inside.all()
    vecs = rng.normal(size=(4000,) + channels)
    got, expected = stencil.scatter(vecs), scatter_bincount(stencil, vecs)
    assert got.shape == expected.shape == dims + channels
    assert np.array_equal(_bits(got), _bits(expected))


def test_world_points_cache_no_voxel_grid():
    from atlasreg.volume import Grid, _grid_points

    c, s = np.cos(0.4), np.sin(0.4)
    grid = Grid((5, 4, 3), (1.25, 1.25, 5.0), (3.0, -2.0, 1.0),
                [[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    _grid_points.cache_clear()
    world = grid.world_points()
    assert _grid_points.cache_info().currsize == 1
    assert grid.world_points() is world and not world.flags.writeable
    expected = grid.world_from_voxel(grid.voxel_points())
    assert np.array_equal(_bits(world), _bits(expected))


def test_grid_points_keep_the_row_major_values_and_stay_read_only():
    from bspline_oracle import grid_points
    from atlasreg.volume import Grid

    c, s = np.cos(0.4), np.sin(0.4)
    grid = Grid((6, 5, 4), (1.25, 1.5, 4.0), (3.0, -2.0, 1.0),
                [[c, -s, 0.0], [s * c, c * c, -s], [s * s, c * s, c]])
    for world in (False, True):
        points = grid.world_points() if world else grid.voxel_points()
        assert points.shape == (grid_points(grid, world).shape[0], 3)
        assert np.array_equal(_bits(points), _bits(grid_points(grid, world)))
        assert not points.flags.writeable
        with pytest.raises(ValueError):
            points[0, 0] = 1.0


def test_stencil_gather_takes_one_scalar_field():
    stencil = TrilinearStencil((4, 5, 6), np.zeros((3, 3)))
    with pytest.raises(InvalidInputError, match="scalar field"):
        stencil.gather(np.zeros((4, 5, 6, 3)))
    with pytest.raises(InvalidInputError, match="gradient takes one scalar field"):
        stencil.gradient(np.zeros((4, 5, 4)))


def test_a_refused_array_of_many_entries_is_named_by_dtype_and_shape():
    stencil = TrilinearStencil((4, 5, 6), np.zeros((3, 3)))
    with pytest.raises(InvalidInputError) as caught:
        stencil.gather(np.zeros((4, 5, 6, 3)))
    assert str(caught.value).endswith(", got float64 array of shape (4, 5, 6, 3)")
    with pytest.raises(InvalidInputError, match=r"got \[\[0, 0, 0\], \[1, 1\]\]$"):
        TrilinearStencil((4, 5, 6), [[0, 0, 0], [1, 1]])


@pytest.mark.parametrize("dims, points, vecs, match", [
    ((4, 4, 4), np.zeros((6, 2)), None, r"\(N, 3\), got shape \(6, 2\)"),
    ((4, 4, 4), np.zeros(3), None, r"\(N, 3\), got shape \(3,\)"),
    ((4, 4, 0), np.zeros((6, 3)), None, r"dims .*\(4, 4, 0\)"),
    ((4, 4), np.zeros((6, 3)), None, r"dims .*\(4, 4\)"),
    ((4, 4, 4), np.zeros((6, 3)), np.zeros(18), r"N = 6 points, got shape \(18,\)"),
    ((4, 4, 4), np.zeros((6, 3)), np.zeros((5, 3)), r"N = 6 points, got shape \(5, 3\)"),
    ((4, 4, 4), np.zeros((6, 3)), np.zeros((6, 3, 1)), r"got shape \(6, 3, 1\)"),
], ids=["points-6x2", "points-3", "dims-4x4x0", "dims-4x4", "scatter-18", "scatter-5x3",
        "scatter-6x3x1"])
def test_stencil_rejects_shapes_it_cannot_read(dims, points, vecs, match):
    with pytest.raises(InvalidInputError, match=match):
        TrilinearStencil(dims, points).scatter(vecs)


def test_volume_rejects_nan_and_bad_geometry():
    with pytest.raises(InvalidInputError):
        Volume(np.array([[[np.nan]]]))
    with pytest.raises(InvalidInputError):
        Volume(np.zeros((2, 2, 2)), spacing=(0.0, 1.0, 1.0))
    with pytest.raises(InvalidInputError):
        Volume(np.zeros((2, 2, 2)), spacing=(1, 1, "a"))
    with pytest.raises(InvalidInputError):
        Volume(np.zeros((2, 2, 2)), direction=np.eye(3) * 2.0)
    with pytest.raises(InvalidInputError, match="origin"):
        Volume(np.zeros((2, 2, 2)), origin=("a", 0, 0))


@pytest.mark.parametrize("direction", [
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],  # det 1, sheared
    np.diag([2.0, 0.5, 1.0]),            # det 1, scaled
    np.diag([1.0 + 1e-5, 1.0 / (1.0 + 1e-5), 1.0]),
], ids=["shear", "scale", "slight-scale"])
def test_grid_rejects_a_direction_that_is_not_orthonormal(direction):
    with pytest.raises(InvalidInputError, match="orthonormal"):
        Grid((4, 4, 4), direction=direction)
    with pytest.raises(InvalidInputError, match="orthonormal"):
        Volume(np.zeros((4, 4, 4)), direction=direction)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e155, 1e200])
def test_grid_refuses_a_huge_or_non_finite_direction_without_a_warning(value):
    one_entry = np.eye(3)
    one_entry[1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for direction in (np.full((3, 3), value), one_entry, np.diag([value] * 3)):
            with pytest.raises(InvalidInputError, match="orthonormal"):
                Grid((4, 4, 4), direction=direction)


@pytest.mark.parametrize("origin", [("1", "2", "3"), (True, False, True), (1j, 0, 0),
                                    [[0.0, 0.0, 0.0]], [[0.0, 0.0], [0.0]]],
                         ids=["strings", "bools", "complex", "1x3", "ragged"])
def test_grid_refuses_an_origin_of_anything_but_three_numbers(origin):
    with pytest.raises(InvalidInputError, match="origin must be 3 numbers"):
        Grid((4, 4, 4), origin=origin)


@pytest.mark.parametrize("origin", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0)], ids=["nan", "inf"])
def test_grid_refuses_a_non_finite_origin_without_a_warning(origin):
    with warnings.catch_warnings(), pytest.raises(InvalidInputError, match="origin must be finite"):
        warnings.simplefilter("error")
        Grid((4, 4, 4), origin=origin)


@pytest.mark.parametrize("kind", [str, bool, complex])
def test_grid_refuses_a_direction_of_anything_but_numbers(kind):
    with pytest.raises(InvalidInputError, match="direction must be 3x3 numbers"):
        Grid((4, 4, 4), direction=np.eye(3).astype(kind))


@pytest.mark.parametrize("dims", [("a", 2, 2), (2.5, 2, 2), (True, 2, 2), (0, 2, 2), 5])
def test_grid_rejects_dims_that_are_not_positive_integers(dims):
    with pytest.raises(InvalidInputError, match="dims"):
        Grid(dims)


def test_label_volume_rejects_undeclared_classes():
    with pytest.raises(InvalidInputError):
        LabelVolume(np.full((2, 2, 2), 7))


def test_undeclared_class_ids_are_counted_not_listed():
    # an intensity image read as labels: 24^3 distinct values
    with pytest.raises(InvalidInputError, match="undeclared class ids") as exc:
        LabelVolume(np.arange(24 ** 3, dtype=np.float32).reshape(24, 24, 24))
    message = str(exc.value)
    assert len(message) < 200
    assert "[4.0, 5.0, 6.0, 7.0, 8.0, ...]" in message and "13820 in all" in message


_VOLUME_TYPES = {  # a valid value of each volume type, and the argument its values are
    Volume: (np.zeros((4, 4, 4)), "data"),
    LabelVolume: (np.zeros((4, 4, 4), dtype=np.uint8), "data"),
    ProbabilityVolume: (np.full((2, 4, 4, 4), 0.5), "channels"),
}


@pytest.mark.parametrize("kind", sorted(_VOLUME_TYPES, key=lambda k: k.__name__))
@pytest.mark.parametrize("dtype", [str, bool, complex])
def test_volumes_refuse_values_of_anything_but_numbers(kind, dtype):
    valid, argument = _VOLUME_TYPES[kind]
    kind(valid)
    # numeric strings ("0.0", "0.5") and complex values with no imaginary
    # part: each holds numbers that a cast would read without an error
    with warnings.catch_warnings(), pytest.raises(
            InvalidInputError, match=f"^{argument} must be numbers, got "):
        warnings.simplefilter("error")  # refused, not cast with a warning
        kind(valid.astype(dtype))


def test_a_value_beyond_float32_is_refused_as_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="volume data contains NaN or Inf"):
            Volume(np.full((4, 4, 4), 1e300))
        with pytest.raises(InvalidInputError, match="channels contain NaN or Inf"):
            ProbabilityVolume(np.full((2, 4, 4, 4), -1e300))


def test_a_volume_holds_its_own_c_ordered_copy():
    values = np.asfortranarray(np.arange(60.0).reshape(3, 4, 5) % 4)  # a NIfTI payload's order
    for data in (values, values.astype(np.float32)):
        vol = Volume(data)
        assert vol.data.flags.c_contiguous and not np.shares_memory(vol.data, data)
        assert np.array_equal(vol.data, data)
    labels = values.astype(np.uint8)
    assert not np.shares_memory(LabelVolume(labels).data, labels)


def test_probability_volume_channel_sum():
    ch = np.zeros((2, 2, 2, 2), dtype=np.float32)
    ch[0] = 0.25
    ch[1] = 0.75
    ProbabilityVolume(ch)
    ch2 = ch.copy()
    ch2[0] += 0.01
    with pytest.raises(InvalidInputError):
        ProbabilityVolume(ch2)


def test_probability_volume_rejects_values_outside_zero_to_one():
    ch = np.zeros((2, 2, 2, 2), dtype=np.float32)
    ch[0] = 1.5
    ch[1] = -0.5  # each voxel still sums to 1
    with pytest.raises(InvalidInputError, match=r"channel values must lie in \[0, 1\]"):
        ProbabilityVolume(ch)


def test_probability_volume_rejects_nan_channels():
    ch = np.full((2, 2, 2, 2), 0.5, dtype=np.float32)
    ch[:, 0, 0, 0] = np.nan  # NaN passes every range and sum comparison
    with pytest.raises(InvalidInputError, match="NaN or Inf"):
        ProbabilityVolume(ch)


def test_world_voxel_round_trip():
    rng = np.random.default_rng(3)
    direction = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    vol = Volume(np.zeros((4, 5, 6), dtype=np.float32), spacing=(1.5, 2.0, 0.5),
                 origin=np.array([10.0, -4.0, 2.0]), direction=direction)
    pts = rng.uniform(0, 3, size=(50, 3))
    back = vol.voxel_from_world(vol.world_from_voxel(pts))
    np.testing.assert_allclose(back, pts, atol=1e-9)


# --- resampling ---------------------------------------------------------

def _bits(a: np.ndarray) -> np.ndarray:
    """The float64 bit patterns of `a`'s values (exact for float32 too)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# Radius int(4 sigma + 0.5): 3, 6, 11 and 16 voxels, so every axis of
# length 1 or 2, and the 5-voxel axis, is shorter than the radius.
@pytest.mark.parametrize("sigma", [0.7, 1.4, 2.8, 4.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims", [(13, 9, 7), (1, 5, 2), (2, 1, 11)])
def test_gaussian_smooth_equals_scipys_filter_bit_for_bit(sigma, dtype, dims):
    from scipy.ndimage import gaussian_filter

    data = np.random.default_rng(7).normal(0.0, 10.0, dims).astype(dtype)
    got = gaussian_smooth(data, sigma)
    # any float input is filtered, and returned, in float64
    want = gaussian_filter(data.astype(np.float64), sigma, mode="nearest")
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("data, sigma, match", [
    (np.ones((3, 3, 3), dtype=np.int64), 1.0, "float array"),
    (np.ones((0, 3, 3)), 1.0, "non-empty"),
    (np.ones((3, 3, 3)), 0.0, "sigma"),
    (np.ones((3, 3, 3)), float("nan"), "sigma"),
    ([[1.0]], 1.0, "data must be a ndarray"),
])
def test_gaussian_smooth_rejects_what_it_cannot_filter(data, sigma, match):
    with pytest.raises(InvalidInputError, match=match):
        gaussian_smooth(data, sigma)


def test_resample_dims_follow_ceil_rule():
    vol = Volume(np.zeros((10, 10, 10), dtype=np.float32), spacing=(2.0, 2.0, 2.0))
    out = resample(vol, (1.0, 1.0, 1.0))
    assert out.dims == (20, 20, 20)
    assert out.spacing == (1.0, 1.0, 1.0)


def test_resample_identity_spacing_is_identity():
    rng = np.random.default_rng(4)
    vol = Volume(rng.normal(size=(6, 5, 4)).astype(np.float32), spacing=(1.25, 1.0, 2.0))
    out = resample(vol, vol.spacing)
    np.testing.assert_array_equal(out.data, vol.data)


def test_resample_matches_trilinear_oracle():
    # 4x4x4 checkerboard at 1 mm resampled to 2 mm, checked voxel by voxel
    i, j, k = np.meshgrid(np.arange(4), np.arange(4), np.arange(4), indexing="ij")
    data = ((i + j + k) % 2).astype(np.float32) * 10.0
    vol = Volume(data, spacing=(1.0, 1.0, 1.0))
    out = resample(vol, (2.0, 2.0, 2.0))
    assert out.dims == (2, 2, 2)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                pt = [(2.0 * a, 2.0 * b, 2.0 * c)]
                expected = TrilinearStencil(vol.dims, pt).gather(vol.data, 0.0)[0]
                assert out.data[a, b, c] == pytest.approx(expected, abs=1e-6)


def test_resample_rejects_what_is_not_a_volume():
    with pytest.raises(InvalidInputError, match="vol must be a Volume"):
        resample("x", (1.0, 1.0, 1.0))


def test_resample_rejects_bad_spacing():
    vol = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    for spacing in [(0.0, 1.0, 1.0), ("a", 1, 1), (np.inf, 1, 1), 2.0]:
        with pytest.raises(InvalidInputError, match="target spacings"):
            resample(vol, spacing)


_GEOMETRY = dict(spacing=(1.0, 2.0, 0.5), origin=(3.0, -1.0, 2.0),
                 direction=np.eye(3)[[1, 0, 2]])


def _pickle_cases():
    rng = np.random.default_rng(11)
    vol = Volume(rng.normal(size=(6, 5, 4)), **_GEOMETRY)
    raw = rng.uniform(0.1, 1.0, size=(3, 6, 5, 4))
    ffd = BSplineTransform.zeros(vol, 2.0)
    return {
        "Grid": Grid((6, 5, 4), **_GEOMETRY),
        "Volume": vol,
        "LabelVolume": LabelVolume(rng.integers(0, 4, (6, 5, 4)), **_GEOMETRY),
        "ProbabilityVolume": ProbabilityVolume(raw / raw.sum(axis=0), **_GEOMETRY),
        "AffineTransform": AffineTransform.from_linear(np.diag([1.1, 0.9, 1.0]),
                                                       (1.0, 2.0, 3.0)),
        "BSplineTransform": ffd.with_coefficients(
            rng.normal(size=ffd.coefficients.shape)),
    }


def _arrays(obj):
    """Every array of `obj`, its Grid's included, by attribute path."""
    out = {}
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            out[name] = value
        elif isinstance(value, Grid):
            out.update({f"{name}.{k}": v for k, v in _arrays(value).items()})
    return out


@pytest.mark.parametrize("kind", sorted(_pickle_cases()))
def test_pickle_round_trip_is_equal_and_read_only(kind):
    original = _pickle_cases()[kind]
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is type(original)
    before, after = _arrays(original), _arrays(copy)
    assert sorted(after) == sorted(before) and after
    for name, array in after.items():
        np.testing.assert_array_equal(array, before[name], err_msg=name)
        assert array.dtype == before[name].dtype, name
        assert not array.flags.writeable, name
    # the rest (dims, spacings, Grids) compares with ==
    assert ({k: v for k, v in vars(copy).items() if k not in after}
            == {k: v for k, v in vars(original).items() if k not in before})


def _identity_cases():
    """The array-holding cases of `_pickle_cases` (not Grid, whose exact
    `==` and `hash` key the point caches) and the two result types."""
    cases = _pickle_cases()
    del cases["Grid"]
    vol, ffd = cases["Volume"], cases["BSplineTransform"]
    cases["RegistrationResult"] = RegistrationResult(cases["AffineTransform"], ffd, ffd,
                                                     [[0.5]], [True])
    cases["ObjectiveResult"] = objective(vol, vol, ffd, ffd, ObjectiveWeights())
    return cases


@pytest.mark.parametrize("kind", sorted(_identity_cases()))
def test_value_types_compare_and_hash_by_identity(kind):
    value = _identity_cases()[kind]
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert value == value and value != copy
    assert hash(value) == hash(value)
    assert value in [copy, value] and value not in [copy]
    assert {value: kind}[value] == kind


def _volume_cases():
    """One volume of each type on the `_GEOMETRY` grid, by the name of its values."""
    rng = np.random.default_rng(12)
    raw = rng.uniform(0.1, 1.0, size=(2, 3, 4, 5))
    return {
        "Volume": (Volume(rng.normal(size=(3, 4, 5)), **_GEOMETRY), "data"),
        "LabelVolume": (LabelVolume(rng.integers(0, 4, (3, 4, 5)), **_GEOMETRY), "data"),
        "ProbabilityVolume": (ProbabilityVolume(raw / raw.sum(axis=0), **_GEOMETRY),
                              "channels"),
    }


@pytest.mark.parametrize("kind", sorted(_volume_cases()))
def test_a_volume_holds_its_values_and_one_grid(kind):
    vol, values = _volume_cases()[kind]
    assert sorted(vars(vol)) == sorted([values, "grid"])
    grid = vol.grid
    assert grid == Grid((3, 4, 5), **_GEOMETRY)
    assert (vol.dims, vol.spacing) == (grid.dims, grid.spacing)
    assert vol.origin is grid.origin and vol.direction is grid.direction


@pytest.mark.parametrize("kind", sorted(_pickle_cases()))
def test_a_volume_rejects_assignment_and_deletion(kind):
    value = _pickle_cases()[kind]
    before = dict(vars(value))
    for name in (*before, "spacing", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == before


_ATTRIBUTES = {
    "Grid": ["dims", "spacing", "origin", "direction"],
    "AffineTransform": ["matrix"],
    "BSplineTransform": ["grid_spacing", "coefficients", "reference", "grid_dims"],
}


@pytest.mark.parametrize("kind", sorted(_ATTRIBUTES))
def test_a_grid_or_transform_holds_its_checked_attributes_and_nothing_else(kind):
    assert sorted(vars(_pickle_cases()[kind])) == sorted(_ATTRIBUTES[kind])


def test_volumes_construct_from_keywords():
    vol = Volume(data=np.zeros((2, 3, 4)), origin=(1.0, 2.0, 3.0))
    assert vol.dims == (2, 3, 4) and vol.origin.tolist() == [1.0, 2.0, 3.0]
    labels = LabelVolume(data=np.ones((2, 3, 4)), direction=np.eye(3)[[1, 0, 2]])
    assert labels.direction[0].tolist() == [0.0, 1.0, 0.0]
    probs = ProbabilityVolume(channels=np.full((2, 2, 3, 4), 0.5), spacing=(1.0, 2.0, 3.0))
    assert (probs.dims, probs.spacing, probs.num_classes) == ((2, 3, 4), (1.0, 2.0, 3.0), 2)


def test_same_geometry_takes_a_grid_or_a_volume_on_either_side():
    vol = _volume_cases()["Volume"][0]
    other = Volume(vol.data, spacing=(1.0, 1.0, 1.0))
    for a, b in ((vol, vol.grid), (vol.grid, vol), (vol, vol), (vol.grid, vol.grid)):
        assert a.same_geometry(b)
        require_same_geometry(a, b)
    for a, b in ((vol, other.grid), (vol.grid, other), (vol, other), (vol.grid, other.grid)):
        assert not a.same_geometry(b)
        with pytest.raises(GeometryMismatchError):
            require_same_geometry(a, b)
    for a in (vol, vol.grid):
        with pytest.raises(InvalidInputError, match="other must be a Grid or a volume"):
            a.same_geometry("x")
