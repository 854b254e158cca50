import struct
import warnings

import numpy as np
import pytest

from atlasreg import (
    AffineTransform,
    AtlasRegError,
    BSplineTransform,
    GeometryMismatchError,
    Grid,
    InvalidInputError,
    InvalidTransformError,
    LabelVolume,
    Volume,
    bspline_kernel,
    load_transform,
    save_transform,
    warp_labels,
    warp_volume,
)
from atlasreg import transforms
from atlasreg.transforms import (
    _einsum,
    bspline_kernel_d1,
    bspline_kernel_d2,
    dense_displacement,
    grid_dim_for,
    splat_to_coefficients,
    subdivide,
    warp_volume_masked,
)
from atlasreg.volume import TrilinearStencil
from bspline_oracle import _roundtrip_residual, deform


def _zeros_volume(dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    return Volume(np.zeros(dims, dtype=np.float32), spacing)


def _smooth_phantom(dims=(12, 12, 12)):
    i, j, k = np.meshgrid(*(np.arange(n) for n in dims), indexing="ij")
    data = np.sin(i / 3.0) + np.cos(j / 2.5) + 0.5 * np.sin(k / 4.0 + 1.0)
    return Volume(data.astype(np.float32))


# --- kernel --------------------------------------------------------------

def test_kernel_reference_values():
    assert bspline_kernel(0.0) == pytest.approx(2.0 / 3.0)
    assert bspline_kernel(1.0) == pytest.approx(1.0 / 6.0)
    assert bspline_kernel(2.5) == 0.0
    assert bspline_kernel(-1.0) == pytest.approx(1.0 / 6.0)


def test_kernel_partition_of_unity():
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 1, 100):
        total = sum(bspline_kernel(t + 1.0 - m) for m in range(4))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_kernel_is_c2_at_knots():
    h = 1e-6
    for u0 in (1.0, -1.0, 2.0, -2.0):
        for fn in (bspline_kernel, bspline_kernel_d1, bspline_kernel_d2):
            left = fn(u0 - h)
            right = fn(u0 + h)
            assert left == pytest.approx(right, abs=1e-5)


def test_kernel_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for u in rng.uniform(-2.5, 2.5, 60):
        if min(abs(abs(u) - 1), abs(abs(u) - 2), abs(u)) < 1e-3:
            continue  # skip knots, FD straddles pieces there
        fd1 = (bspline_kernel(u + h) - bspline_kernel(u - h)) / (2 * h)
        fd2 = (bspline_kernel_d1(u + h) - bspline_kernel_d1(u - h)) / (2 * h)
        assert bspline_kernel_d1(u) == pytest.approx(fd1, abs=1e-6)
        assert bspline_kernel_d2(u) == pytest.approx(fd2, abs=1e-6)


# --- deform --------------------------------------------------------------

def test_zero_coefficients_give_zero_displacement():
    t = BSplineTransform.zeros(_zeros_volume(), 2.0)
    pts = np.random.default_rng(2).uniform(0, 7, (40, 3))
    np.testing.assert_allclose(deform(t, pts), 0.0)


def test_constant_coefficients_give_constant_displacement():
    t = BSplineTransform.zeros(_zeros_volume(), 2.5)
    const = np.array([1.0, -2.0, 0.5])
    t = t.with_coefficients(np.broadcast_to(const, t.coefficients.shape))
    pts = np.random.default_rng(3).uniform(0, 7, (60, 3))
    np.testing.assert_allclose(deform(t, pts), np.broadcast_to(const, (60, 3)),
                               atol=1e-12)


def test_single_node_aligned_with_point():
    # node with array index a sits at voxel (a-1)*spacing; kernel weight at
    # its own position is (2/3)^3
    t = BSplineTransform.zeros(_zeros_volume(), 2.0)
    coef = np.zeros(t.coefficients.shape)
    coef[3, 3, 3] = (6.0, 0.0, 3.0)
    t = t.with_coefficients(coef)
    got = deform(t, (4.0, 4.0, 4.0))
    np.testing.assert_allclose(got, np.array([6.0, 0.0, 3.0]) * (2.0 / 3.0) ** 3,
                               atol=1e-12)


def test_deform_linear_in_coefficients():
    rng = np.random.default_rng(4)
    t0 = BSplineTransform.zeros(_zeros_volume(), 2.0)
    c1 = rng.normal(size=t0.coefficients.shape)
    c2 = rng.normal(size=t0.coefficients.shape)
    pts = rng.uniform(0, 7, (25, 3))
    lhs = deform(t0.with_coefficients(2.0 * c1 - 3.0 * c2), pts)
    rhs = 2.0 * deform(t0.with_coefficients(c1), pts) \
        - 3.0 * deform(t0.with_coefficients(c2), pts)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_dense_displacement_matches_pointwise_deform():
    rng = np.random.default_rng(5)
    t = BSplineTransform.zeros(_zeros_volume((6, 5, 7)), 2.0)
    t = t.with_coefficients(rng.normal(size=t.coefficients.shape))
    dense = dense_displacement(t)
    for idx in ((0, 0, 0), (5, 4, 6), (2, 3, 1)):
        np.testing.assert_allclose(dense[idx], deform(t, np.array(idx, float)),
                                   atol=1e-12)


def test_splat_is_adjoint_of_dense_displacement():
    rng = np.random.default_rng(14)
    t = BSplineTransform.zeros(_zeros_volume((9, 7, 5), (1.5, 1.0, 2.0)), (2.0, 3.0, 2.5))
    coef = rng.normal(size=t.coefficients.shape)
    vecs = rng.normal(size=(9, 7, 5, 3))
    lhs = np.vdot(dense_displacement(t.with_coefficients(coef)), vecs)
    rhs = np.vdot(coef, splat_to_coefficients(t, vecs))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("subscripts, shapes", [
    # dense evaluation, splat and bending at the ffd_stack lattice
    ("ia,jb,kc,abcd->ijkd", ((128, 29), (128, 29), (16, 7), (29, 29, 7, 3))),
    ("ia,jb,kc,ijkd->abcd", ((128, 29), (128, 29), (16, 7), (128, 128, 16, 3))),
    ("ap,bq,cr,pqrd->abcd", ((29, 29), (29, 29), (7, 7), (29, 29, 7, 3))),
    # the 2-voxel type-2 lattice on 32^3, and a 64x64x8 slice stack
    ("ia,jb,kc,abcd->ijkd", ((32, 19), (32, 19), (32, 19), (19, 19, 19, 3))),
    ("ap,bq,cr,pqrd->abcd", ((19, 19), (19, 19), (19, 19), (19, 19, 19, 3))),
    ("ia,jb,kc,ijkd->abcd", ((64, 16), (64, 16), (8, 5), (64, 64, 8, 3))),
])
def test_einsum_with_a_cached_path_equals_the_searched_path_exactly(subscripts, shapes):
    rng = np.random.default_rng(23)
    for _ in range(2):  # the second call takes the cached path
        operands = [rng.normal(size=shape) for shape in shapes]
        assert np.array_equal(_einsum(subscripts, *operands),
                              np.einsum(subscripts, *operands, optimize=True))


# --- affine --------------------------------------------------------------

def test_affine_validates_structure():
    with pytest.raises(InvalidInputError, match="4x4 numbers"):
        AffineTransform("x")
    with pytest.raises(InvalidTransformError):
        AffineTransform(np.zeros((4, 4)))
    bad = np.eye(4)
    bad[3] = (1, 0, 0, 1)
    with pytest.raises(InvalidTransformError):
        AffineTransform(bad)
    singular = np.eye(4)
    singular[0, 0] = 0.0
    with pytest.raises(InvalidTransformError):
        AffineTransform(singular)


def test_affine_inverse_round_trip():
    rng = np.random.default_rng(6)
    m = np.eye(4)
    m[:3, :3] = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    m[:3, 3] = rng.normal(size=3)
    a = AffineTransform(m)
    pts = rng.normal(size=(20, 3))
    inverse = AffineTransform(np.linalg.inv(a.matrix))
    np.testing.assert_allclose(inverse.apply(a.apply(pts)), pts, atol=1e-9)


# --- warping -------------------------------------------------------------

def test_warp_identity_is_identity():
    vol = _smooth_phantom()
    ffd = BSplineTransform.zeros(vol, 3.0)
    out = warp_volume(vol, vol, AffineTransform.identity(), ffd)
    np.testing.assert_allclose(out.data, vol.data, atol=1e-6)


def test_warp_pure_translation_shifts_columns():
    rng = np.random.default_rng(7)
    vol = Volume(rng.normal(size=(4, 4, 4)).astype(np.float32))
    shift = AffineTransform.from_linear(np.eye(3), (1.0, 0.0, 0.0))  # 1 voxel at 1 mm
    out = warp_volume(vol, vol, shift)
    np.testing.assert_allclose(out.data[:3], vol.data[1:], atol=1e-6)


def test_warp_then_inverse_recovers_smooth_phantom():
    # low-curvature analytic phantom keeps double-interpolation error < 1e-3
    i, j, k = np.meshgrid(*(np.arange(16),) * 3, indexing="ij")
    data = 0.1 * i + 0.07 * j - 0.05 * k + 0.05 * np.sin(i / 6.0 + 0.3)
    vol = Volume(data.astype(np.float32))
    m = np.eye(4)
    m[:3, :3] = [[1.05, 0.03, 0.0], [-0.02, 0.98, 0.01], [0.0, 0.02, 1.02]]
    m[:3, 3] = (0.4, -0.3, 0.2)
    a = AffineTransform(m)
    fwd = warp_volume(vol, vol, a)
    back = warp_volume(fwd, vol, AffineTransform(np.linalg.inv(a.matrix)))
    interior = np.s_[3:-3, 3:-3, 3:-3]
    assert np.abs(back.data[interior] - vol.data[interior]).max() < 1e-3


def test_warp_requires_matching_ffd_reference():
    vol = _smooth_phantom()
    other = Volume(np.zeros((9, 9, 9), dtype=np.float32))
    ffd = BSplineTransform.zeros(other, 3.0)
    with pytest.raises(GeometryMismatchError):
        warp_volume(vol, vol, AffineTransform.identity(), ffd)


def test_a_grid_is_a_target_geometry():
    vol = _smooth_phantom()
    labels = LabelVolume((vol.data > 1.0).astype(np.uint8))
    shift = AffineTransform.from_linear(np.eye(3), (0.5, 0.0, 0.0))
    ffd = BSplineTransform.zeros(vol.grid, 3.0)
    assert ffd.grid_dims == BSplineTransform.zeros(vol, 3.0).grid_dims
    np.testing.assert_array_equal(warp_volume(vol, vol.grid, shift, ffd).data,
                                  warp_volume(vol, vol, shift, ffd).data)
    np.testing.assert_array_equal(warp_labels(labels, vol.grid, shift).data,
                                  warp_labels(labels, vol, shift).data)
    fine = Volume(np.zeros((23, 23, 23), dtype=np.float32), (0.5, 0.5, 0.5))
    assert subdivide(ffd, fine.grid).reference == fine.grid


@pytest.mark.parametrize("geometry, affine, ffd", [
    (None, "x", None), (None, None, "x"), (None, BSplineTransform.zeros(_zeros_volume(), 3.0), None),
    ("x", None, None)])
def test_warp_rejects_what_is_not_a_transform_or_a_geometry(geometry, affine, ffd):
    vol = _zeros_volume()
    with pytest.raises(InvalidInputError):
        warp_volume(vol, vol if geometry is None else geometry, affine, ffd)


@pytest.mark.parametrize("warp, src, kind", [
    (warp_volume, "x", "Volume"), (warp_labels, "x", "LabelVolume"),
    (warp_labels, _zeros_volume(), "LabelVolume")])
def test_warp_rejects_a_source_of_another_type(warp, src, kind):
    with pytest.raises(InvalidInputError, match=f"src must be a {kind}"):
        warp(src, _zeros_volume(), None)


def test_warp_labels_identity_and_class_subset():
    rng = np.random.default_rng(8)
    lbl = LabelVolume(rng.integers(0, 4, size=(6, 6, 6)))
    out = warp_labels(lbl, lbl, AffineTransform.identity())
    np.testing.assert_array_equal(out.data, lbl.data)

    m = np.eye(4)
    m[:3, 3] = (0.4, -1.2, 2.7)
    shifted = warp_labels(lbl, lbl, AffineTransform(m))
    assert set(np.unique(shifted.data)) <= set(np.unique(lbl.data)) | {0}


def test_warp_labels_one_voxel_slab_shift():
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[2] = 1  # one-voxel-thick slab at x = 2
    lbl = LabelVolume(data)
    shift = AffineTransform.from_linear(np.eye(3), (1.0, 0.0, 0.0))
    out = warp_labels(lbl, lbl, shift)
    expected = np.zeros_like(data)
    expected[1] = 1  # sampling at x+1 pulls the slab one voxel down
    np.testing.assert_array_equal(out.data, expected)


def _nearest_label_oracle(data, points):
    """Class of the nearest voxel (numpy's round-half-to-even) of each point,
    0 where that voxel lies off the grid; one point at a time."""
    out = np.zeros(len(points), dtype=np.uint8)
    for n, p in enumerate(points):
        idx = tuple(int(v) for v in np.rint(p))
        if all(0 <= i < size for i, size in zip(idx, data.shape)):
            out[n] = data[idx]
    return out


def test_the_warps_sample_the_row_major_points_bit_for_bit(monkeypatch):
    from bspline_oracle import warped_points

    # an oblique, anisotropic target and a source of another geometry, an
    # affine and an FFD: every step of the map moves the points
    rng = np.random.default_rng(43)
    a, b = 0.3, 0.5
    rz = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(b), -np.sin(b)], [0.0, np.sin(b), np.cos(b)]])
    target = Volume(np.zeros((16, 14, 6), np.float32), spacing=(1.25, 1.5, 4.0),
                    origin=(3.0, -7.5, 12.0), direction=rz @ rx)
    geometry = dict(spacing=(1.0, 1.75, 3.0), origin=(1.0, -9.0, 10.0), direction=rx @ rz)
    src = Volume(rng.uniform(0.0, 100.0, (18, 12, 8)).astype(np.float32), **geometry)
    labels = LabelVolume(rng.integers(0, 4, src.dims), **geometry)
    m = np.eye(4)
    m[:3, :3] += rng.uniform(-0.05, 0.05, size=(3, 3))
    m[:3, 3] = rng.uniform(-2.0, 2.0, size=3)
    affine = AffineTransform(m)
    ffd = BSplineTransform.zeros(target, (3.0, 2.5, 1.5))
    ffd = ffd.with_coefficients(rng.normal(0.0, 2.0, ffd.coefficients.shape))

    seen = []
    source_rows = transforms._source_rows

    def recorded(*args):
        seen.append(source_rows(*args))
        return seen[-1]

    monkeypatch.setattr(transforms, "_source_rows", recorded)
    vol, inside = warp_volume_masked(src, target, affine, ffd)
    out = warp_labels(labels, target, affine, ffd)
    expected = warped_points(src.grid, target.grid, affine, ffd)
    assert 0 < inside.sum() < inside.size
    assert len(seen) == 2
    for rows in seen:  # three contiguous rows, whose columns are the oracle's points
        assert rows.flags.c_contiguous and rows.shape == (3, target.data.size)
        assert np.array_equal(rows.T.view(np.uint64), expected.view(np.uint64))
    stencil = TrilinearStencil(src.dims, expected)
    assert np.array_equal(vol.data.reshape(-1), stencil.gather(src.data, 0.0).astype(np.float32))
    assert np.array_equal(inside.reshape(-1), stencil.inside)
    assert np.array_equal(out.data.reshape(-1), _nearest_label_oracle(labels.data, expected))


def test_warp_labels_equals_nearest_neighbour_oracle_at_ties_edges_and_size_one_axes():
    rng = np.random.default_rng(21)
    # foreground everywhere, so an edge-clamped read would show as a class
    src = LabelVolume(rng.integers(1, 4, size=(5, 1, 4)))
    # target voxels land on source coordinates in quarter and half steps:
    # x from -1 to 5.75, y from -0.75 to 0.75 over the size-1 axis, z from -1
    # to 4.5; among them .5 ties inside (-0.5, 2.5) and off the grid (3.5 on
    # z rounds to 4), and points just outside every face (-0.75, 4.75)
    target = Volume(np.zeros((28, 7, 12), np.float32), spacing=(0.25, 0.25, 0.5),
                    origin=(-1.0, -0.75, -1.0))
    m = np.eye(4)
    m[:3, :3] += rng.uniform(-0.03, 0.03, size=(3, 3))
    m[:3, 3] = rng.uniform(-0.2, 0.2, size=3)
    for affine in (None, AffineTransform(m)):
        world = target.grid.world_points()
        if affine is not None:
            world = affine.apply(world)
        points = src.voxel_from_world(world)
        expected = _nearest_label_oracle(src.data, points)
        if affine is None:
            assert (points - np.floor(points) == 0.5).any() and (expected == 0).any()
        out = warp_labels(src, target, affine)
        assert out.same_geometry(target)
        np.testing.assert_array_equal(out.data.reshape(-1), expected)


# --- composition ---------------------------------------------------------

def test_compose_zero_transforms():
    vol = _zeros_volume()
    fwd = BSplineTransform.zeros(vol, 2.0)
    bwd = BSplineTransform.zeros(vol, 2.0)
    m, _ = _roundtrip_residual(fwd, bwd)
    np.testing.assert_allclose(m, 0.0, atol=1e-12)


def test_compose_constant_inverse_pair_cancels():
    vol = _zeros_volume()
    d = np.array([1.5, -0.5, 2.0])
    fwd = BSplineTransform.zeros(vol, 2.0)
    fwd = fwd.with_coefficients(np.broadcast_to(d, fwd.coefficients.shape))
    bwd = fwd.with_coefficients(np.broadcast_to(-d, fwd.coefficients.shape))
    m, _ = _roundtrip_residual(fwd, bwd)
    np.testing.assert_allclose(m, 0.0, atol=1e-9)


def test_compose_forward_only_returns_its_displacement():
    vol = _zeros_volume()
    d = np.array([0.75, 0.25, -1.0])
    fwd = BSplineTransform.zeros(vol, 2.0)
    fwd = fwd.with_coefficients(np.broadcast_to(d, fwd.coefficients.shape))
    bwd = BSplineTransform.zeros(vol, 2.0)
    m, _ = _roundtrip_residual(fwd, bwd)
    np.testing.assert_allclose(m, np.broadcast_to(d, m.shape), atol=1e-9)


# --- subdivision ---------------------------------------------------------

def test_subdivision_preserves_represented_field():
    rng = np.random.default_rng(12)
    coarse = Volume(np.zeros((9, 8, 10), dtype=np.float32), (2.0, 2.0, 2.0))
    fine = Volume(np.zeros((17, 16, 19), dtype=np.float32), (1.0, 1.0, 1.0))
    t = BSplineTransform.zeros(coarse, 2.0)
    t = t.with_coefficients(rng.normal(0, 3, t.coefficients.shape))
    tf = subdivide(t, fine)
    pts_fine = rng.uniform(0, np.array(fine.dims) - 1.0, (300, 3))
    np.testing.assert_allclose(deform(tf, pts_fine), deform(t, pts_fine / 2.0),
                               atol=1e-12)


def test_subdivision_requires_doubling():
    coarse = Volume(np.zeros((8, 8, 8), dtype=np.float32), (2.0, 2.0, 2.0))
    bad = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1.5, 1.5, 1.5))
    t = BSplineTransform.zeros(coarse, 2.0)
    with pytest.raises(GeometryMismatchError):
        subdivide(t, bad)
    # twice as fine, but shifted by 5 mm or with the x and y axes swapped
    fine = Grid((16, 16, 16), (1.0, 1.0, 1.0))
    for other in (Grid(fine.dims, fine.spacing, origin=(5.0, 0.0, 0.0)),
                  Grid(fine.dims, fine.spacing, direction=np.eye(3)[[1, 0, 2]])):
        with pytest.raises(GeometryMismatchError, match="origin and direction"):
            subdivide(t, other)
    assert subdivide(t, fine).reference is fine


# --- serialization -------------------------------------------------------

def test_transform_container_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    vol = Volume(np.zeros((7, 6, 5), dtype=np.float32), (1.5, 1.0, 2.0),
                 origin=np.array([1.0, 2.0, 3.0]))
    fwd = BSplineTransform.zeros(vol, 2.0)
    fwd = fwd.with_coefficients(rng.normal(size=fwd.coefficients.shape))
    bwd = BSplineTransform.zeros(vol, 2.0)
    bwd = bwd.with_coefficients(rng.normal(size=bwd.coefficients.shape))
    m = np.eye(4)
    m[:3, 3] = (4.0, -1.0, 0.5)
    affine = AffineTransform(m)

    path = tmp_path / "t.tfm"
    save_transform(path, affine, fwd, bwd)
    a2, f2, b2 = load_transform(path)
    np.testing.assert_array_equal(a2.matrix, affine.matrix)
    np.testing.assert_array_equal(f2.coefficients, fwd.coefficients)
    np.testing.assert_array_equal(b2.coefficients, bwd.coefficients)
    assert f2.reference.dims == vol.dims
    assert f2.grid_spacing == fwd.grid_spacing

    save_transform(path, affine)  # affine-only container
    a3, f3, b3 = load_transform(path)
    assert f3 is None and b3 is None
    np.testing.assert_array_equal(a3.matrix, affine.matrix)


def test_written_container_is_the_field_by_field_layout(tmp_path):
    rng = np.random.default_rng(23)
    direction, _ = np.linalg.qr(rng.normal(size=(3, 3)))  # oblique, orthonormal
    ref = Grid((9, 7, 5), (1.25, 0.8, 3.0), (-12.5, 4.0, 30.25), direction)
    fwd = BSplineTransform.zeros(ref, (2.0, 3.0, 1.5))
    fwd = fwd.with_coefficients(rng.normal(size=fwd.coefficients.shape))
    bwd = BSplineTransform.zeros(ref, (3.0, 1.5, 2.0))
    bwd = bwd.with_coefficients(rng.normal(size=bwd.coefficients.shape))
    affine = AffineTransform.from_linear(direction * (1.1, 0.9, 1.05), (4.0, -1.5, 0.25))
    path = tmp_path / "t.tfm"
    for f, b in ((None, None), (fwd, None), (None, bwd), (fwd, bwd)):
        expected = (b"ATLXFRM1" + struct.pack("<I", 1)
                    + struct.pack("<I", (f is not None) | (b is not None) << 1)
                    + struct.pack("<16d", *affine.matrix.ravel()))
        for t in (f, b):
            if t is not None:
                expected += (struct.pack("<3I", *t.grid_dims)
                             + struct.pack("<3d", *t.grid_spacing)
                             + struct.pack("<3I", *ref.dims)
                             + struct.pack("<3d", *ref.spacing)
                             + struct.pack("<3d", *ref.origin)
                             + struct.pack("<9d", *ref.direction.ravel())
                             + struct.pack(f"<{t.coefficients.size}d", *t.coefficients.ravel()))
        save_transform(path, affine, f, b)
        assert path.read_bytes() == expected
        a2, f2, b2 = load_transform(path)
        np.testing.assert_array_equal(a2.matrix, affine.matrix)
        for t, t2 in ((f, f2), (b, b2)):
            if t is None:
                assert t2 is None
            else:
                assert t2.reference == ref and t2.grid_spacing == t.grid_spacing
                np.testing.assert_array_equal(t2.coefficients, t.coefficients)


def _two_ffd_container(path):
    """A saved affine plus forward and backward FFDs on an 8^3 grid."""
    rng = np.random.default_rng(17)
    vol = _zeros_volume()
    fwd = BSplineTransform.zeros(vol, 4.0)
    fwd = fwd.with_coefficients(rng.normal(size=fwd.coefficients.shape))
    bwd = fwd.with_coefficients(rng.normal(size=fwd.coefficients.shape))
    save_transform(path, AffineTransform.from_linear(np.eye(3), (1.0, 2.0, 3.0)), fwd, bwd)
    return path.read_bytes()


def test_truncated_or_padded_container_raises_package_errors(tmp_path):
    path = tmp_path / "t.tfm"
    buf = _two_ffd_container(path)
    for n in range(len(buf)):
        path.write_bytes(buf[:n])
        with pytest.raises(AtlasRegError):
            load_transform(path)
    path.write_bytes(buf + b"\0")
    with pytest.raises(InvalidInputError, match="after the last transform"):
        load_transform(path)
    # grid dims of 4e9 in the forward FFD header: the coefficients cannot fit
    path.write_bytes(buf[:144] + struct.pack("<3I", 4_000_000_000, 4_000_000_000, 5)
                     + buf[156:])
    with pytest.raises(InvalidInputError, match="inside FFD coefficients"):
        load_transform(path)


def test_a_container_of_another_version_is_rejected(tmp_path):
    path = tmp_path / "t.tfm"
    buf = bytearray(_two_ffd_container(path))
    struct.pack_into("<I", buf, 8, 2)  # the version follows the 8-byte magic
    path.write_bytes(bytes(buf))
    with pytest.raises(InvalidInputError, match="unsupported container version 2"):
        load_transform(path)


@pytest.mark.parametrize("offset, value", [
    (16 + 8 * 5, np.nan),     # linear part, m[1, 1]
    (16 + 8 * 3, np.inf),     # translation, m[0, 3]
    (-8, np.nan),             # last coefficient of the backward FFD
])
def test_non_finite_transform_is_rejected(tmp_path, offset, value):
    path = tmp_path / "t.tfm"
    buf = bytearray(_two_ffd_container(path))
    start = offset % len(buf)
    buf[start:start + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(buf))
    with pytest.raises(InvalidTransformError, match="NaN or Inf"):
        load_transform(path)


def test_stored_grid_dims_that_disagree_with_the_reference_are_rejected(tmp_path):
    path = tmp_path / "t.tfm"
    buf = bytearray(_two_ffd_container(path))
    # the forward FFD's reference dims follow its grid dims and spacing;
    # an 8^3 reference at spacing 4 has 5^3 nodes, a 12 x 8 x 8 one 6 x 5 x 5
    struct.pack_into("<I", buf, 16 + 128 + 12 + 24, 12)
    path.write_bytes(bytes(buf))
    with pytest.raises(InvalidTransformError, match="coefficient shape"):
        load_transform(path)


def test_coefficients_of_another_lattice_are_rejected():
    t = BSplineTransform.zeros(_zeros_volume(), 4.0)
    with pytest.raises(InvalidTransformError, match="coefficient shape"):
        t.with_coefficients(np.zeros((4, 4, 4, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_are_rejected_by_the_constructor(value):
    t = BSplineTransform.zeros(_zeros_volume(), 4.0)
    coef = t.coefficients.copy()
    coef[1, 2, 0, 1] = value
    with pytest.raises(InvalidTransformError, match="NaN or Inf"):
        BSplineTransform(t.grid_spacing, coef, t.reference)
    with pytest.raises(InvalidTransformError, match="NaN or Inf"):
        t.with_coefficients(coef)


def test_infinite_grid_spacing_is_rejected():
    grid = _zeros_volume().grid
    with pytest.raises(InvalidInputError, match="finite"):
        BSplineTransform((np.inf, np.inf, np.inf), np.zeros((4, 4, 4, 3)), grid)


@pytest.mark.parametrize("spacing", [0, -2.0, float("nan"), "5", (1.0, 2.0)])
def test_zeros_rejects_a_bad_grid_spacing(spacing):
    with pytest.raises(InvalidInputError, match="grid spacings"):
        BSplineTransform.zeros(_zeros_volume(), spacing)


@pytest.mark.parametrize("kind", [str, bool])
def test_coefficients_of_strings_or_bools_are_rejected(kind):
    t = BSplineTransform.zeros(_zeros_volume(), 4.0)
    with pytest.raises(InvalidInputError, match="coefficients must be numbers"):
        t.with_coefficients(t.coefficients.astype(kind))


@pytest.mark.parametrize("spacing", [1e-320, 1e-300, 1e-20])
def test_a_lattice_too_fine_for_the_container_is_rejected(tmp_path, spacing):
    path = tmp_path / "t.tfm"
    buf = bytearray(_two_ffd_container(path))
    struct.pack_into("<3d", buf, 144 + 12, spacing, spacing, spacing)  # forward grid spacing
    path.write_bytes(bytes(buf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="grid spacing"):
            BSplineTransform.zeros(Grid((8, 8, 8)), spacing)
        with pytest.raises(InvalidInputError, match="grid spacing"):
            load_transform(path)


def test_node_counts_are_the_floor_up_to_the_largest_the_container_stores():
    rng = np.random.default_rng(5)
    counts, spacings = rng.integers(1, 600, 2000), 10.0 ** rng.uniform(-6, 3, 2000)
    for n, s in zip(counts.tolist(), spacings.tolist()):
        assert grid_dim_for(n, s) == int(np.floor((n - 1) / s)) + 4
    assert grid_dim_for(8, 7 / (2**32 - 5)) == 2**32 - 1  # the largest <u4
    with pytest.raises(InvalidInputError, match="grid spacing"):
        grid_dim_for(8, 7 / (2**32 - 4))


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e155, 1e200])
def test_a_stored_direction_of_huge_or_non_finite_entries_is_rejected(tmp_path, value):
    path = tmp_path / "t.tfm"
    buf = bytearray(_two_ffd_container(path))
    for direction in (np.full((3, 3), value), np.diag([value] * 3)):
        # the forward FFD's reference direction follows its lattice, dims, spacing and origin
        struct.pack_into("<9d", buf, 144 + 12 + 24 + 12 + 24 + 24, *direction.ravel())
        path.write_bytes(bytes(buf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="orthonormal"):
                load_transform(path)


@pytest.mark.parametrize("ffds, flags", [(False, 12), (False, 4), (True, 3 | 1 << 31)])
def test_unknown_flag_bits_are_rejected(tmp_path, ffds, flags):
    path = tmp_path / "t.tfm"
    if ffds:
        buf = bytearray(_two_ffd_container(path))
    else:
        save_transform(path, AffineTransform.from_linear(np.eye(3), (1.0, 2.0, 3.0)))
        buf = bytearray(path.read_bytes())
    buf[12:16] = struct.pack("<I", flags)
    path.write_bytes(bytes(buf))
    with pytest.raises(InvalidInputError, match="unknown flag bits"):
        load_transform(path)
