import numpy as np
import pytest

from atlasreg import (
    InvalidInputError,
    LabelVolume,
    ProbabilityVolume,
    Volume,
    resample,
)
from atlasreg.volume import TrilinearStencil


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
        got = stencil.gather(data, oob, want_gradient=True)
        expected = gather_lerp(stencil, data, oob, want_gradient=True)
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            assert np.array_equal(_bits(g), _bits(e))


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


def test_stencil_gather_takes_one_scalar_field():
    stencil = TrilinearStencil((4, 5, 6), np.zeros((3, 3)))
    with pytest.raises(InvalidInputError, match="scalar field"):
        stencil.gather(np.zeros((4, 5, 6, 3)))


def test_volume_rejects_nan_and_bad_geometry():
    with pytest.raises(InvalidInputError):
        Volume(np.array([[[np.nan]]]))
    with pytest.raises(InvalidInputError):
        Volume(np.zeros((2, 2, 2)), spacing=(0.0, 1.0, 1.0))
    with pytest.raises(InvalidInputError):
        Volume(np.zeros((2, 2, 2)), direction=np.eye(3) * 2.0)


def test_label_volume_rejects_undeclared_classes():
    with pytest.raises(InvalidInputError):
        LabelVolume(np.full((2, 2, 2), 7))


def test_probability_volume_channel_sum():
    ch = np.zeros((2, 2, 2, 2), dtype=np.float32)
    ch[0] = 0.25
    ch[1] = 0.75
    ProbabilityVolume(ch)
    ch2 = ch.copy()
    ch2[0] += 0.01
    with pytest.raises(InvalidInputError):
        ProbabilityVolume(ch2)


def test_world_voxel_round_trip():
    rng = np.random.default_rng(3)
    direction = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    vol = Volume(np.zeros((4, 5, 6), dtype=np.float32), spacing=(1.5, 2.0, 0.5),
                 origin=np.array([10.0, -4.0, 2.0]), direction=direction)
    pts = rng.uniform(0, 3, size=(50, 3))
    back = vol.voxel_from_world(vol.world_from_voxel(pts))
    np.testing.assert_allclose(back, pts, atol=1e-9)


# --- resampling ---------------------------------------------------------

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


def test_resample_rejects_bad_spacing():
    vol = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    with pytest.raises(InvalidInputError):
        resample(vol, (0.0, 1.0, 1.0))
