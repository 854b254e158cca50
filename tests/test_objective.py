import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import atlasreg.objective as objective_module
from atlasreg import (
    BSplineTransform,
    DegenerateInputError,
    GeometryMismatchError,
    InvalidInputError,
    ObjectiveWeights,
    PhantomSpec,
    Volume,
    bending_energy,
    build_joint_histogram,
    generate_phantom,
    inconsistency_penalty,
    nmi,
    random_smooth_deformation,
    sample_map,
)
from atlasreg.objective import (
    BINS,
    bending_energy_gradient,
    inconsistency_gradient,
    objective,
    objective_gradient,
    robust_range,
    similarity_and_gradient,
    _bin_offsets,
    _footprint,
    _footprint_row,
)
from atlasreg.transforms import bspline_kernel, bspline_kernel_d1, dense_displacement
from atlasreg.volume import TrilinearStencil


def _noise_volume(seed, dims=(8, 8, 8), lo=0.0, hi=100.0):
    rng = np.random.default_rng(seed)
    return Volume(rng.uniform(lo, hi, dims).astype(np.float32))


def _gradient_phantom(seed):
    spec = PhantomSpec(dims=(16, 16, 16), lv_radius=1.6, myo_thickness=1.2,
                       rv_offset=(2.2, 0.8, 0.0), rv_radius=1.2,
                       noise_sigma=1.5, seed=seed)
    return generate_phantom(spec)[0]


# --- joint histogram -----------------------------------------------------

def test_total_mass_equals_contributing_voxels():
    ref = _noise_volume(0)
    wrp = _noise_volume(1)
    h = build_joint_histogram(ref, wrp)
    assert h.sum() == pytest.approx(ref.data.size, rel=1e-6)

    mask = np.zeros(ref.dims, dtype=bool)
    mask[:4] = True
    h2 = build_joint_histogram(ref, wrp, mask=mask)
    assert h2.sum() == pytest.approx(int(mask.sum()), rel=1e-6)


def test_identical_images_concentrate_on_diagonal():
    ref = _noise_volume(2)
    h = build_joint_histogram(ref, ref)
    idx_r, idx_f = np.nonzero(h)
    assert np.abs(idx_r - idx_f).max() <= 3  # within the kernel footprint


def test_two_voxel_hand_footprint():
    # one contributing voxel pair (values exact in float32), the reference
    # one at the range midpoint; expected counts are the outer product of
    # hand-evaluated kernel weights
    ref = Volume(np.array([5.0, 0.0]).reshape(2, 1, 1))
    wrp = Volume(np.array([2.375, 0.0]).reshape(2, 1, 1))
    mask = np.array([True, False]).reshape(2, 1, 1)
    ranges = ((0.0, 10.0), (0.0, 10.0))
    h = build_joint_histogram(ref, wrp, mask=mask, ranges=ranges)
    assert h.shape == (64, 64)
    # q_ref = 5/10*60+1 = 31.0, q_flt = 2.375/10*60+1 = 15.25
    w_ref = {b: bspline_kernel(31.0 - b) for b in (30, 31, 32, 33)}
    w_flt = {b: bspline_kernel(15.25 - b) for b in (14, 15, 16, 17)}
    expected = np.zeros((64, 64))
    for br, wr in w_ref.items():
        for bf, wf in w_flt.items():
            expected[br, bf] = wr * wf
    np.testing.assert_allclose(h, expected, atol=1e-12)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _footprint_positions(seed, n):
    """Random bin positions plus every integer of the bin range and both its
    neighbours, where the kernel's branches meet."""
    rng = np.random.default_rng(seed)
    top = BINS - 3.0
    ints = np.arange(1.0, top + 1.0)  # 1 .. BINS-3, the ends of the bin range
    return np.concatenate([rng.uniform(1.0, top, n), ints,
                           np.nextafter(ints[1:], 0.0), np.nextafter(ints[:-1], np.inf)])


def test_footprint_weights_equal_kernel_bit_for_bit():
    q = _footprint_positions(21, 5000)
    f = np.floor(q).astype(np.intp)
    u = q[:, None] - f[:, None] - (np.arange(4) - 1.0)
    t, idx = _bin_offsets(q)
    assert np.array_equal(idx, f)
    signed_zeros = 0
    for k in range(4):
        for d1, kernel in ((False, bspline_kernel), (True, bspline_kernel_d1)):
            row, expected = _footprint_row(t, k, d1), kernel(u[:, k])
            assert np.array_equal(_bits(row), _bits(expected)), (k, d1)
            assert np.array_equal(np.signbit(row), np.signbit(expected)), (k, d1)
            signed_zeros += int(np.count_nonzero((row == 0) & np.signbit(row)))
    assert signed_zeros > 0  # the fixture reaches the kernel's negative zeros


@pytest.mark.parametrize("d1_f", [False, True])
def test_footprint_yields_the_deposit_cells_and_kernel_rows(d1_f):
    q_r, q_f = _footprint_positions(22, 400), _footprint_positions(23, 400)[::-1]
    f_r, f_f = np.floor(q_r).astype(np.intp), np.floor(q_f).astype(np.intp)
    u_r = q_r[:, None] - f_r[:, None] - (np.arange(4) - 1.0)
    u_f = q_f[:, None] - f_f[:, None] - (np.arange(4) - 1.0)
    kernel_f = bspline_kernel_d1 if d1_f else bspline_kernel
    seen = []
    for cell, w_r, w_f in _footprint(q_r, q_f, d1_f):
        dr, df = divmod(len(seen), 4)
        assert np.array_equal(cell, (f_r - 1 + dr) * BINS + f_f - 1 + df)
        assert np.array_equal(_bits(w_r), _bits(bspline_kernel(u_r[:, dr])))
        assert np.array_equal(_bits(w_f), _bits(kernel_f(u_f[:, df])))
        seen.append((dr, df))
    assert seen == [(dr, df) for dr in range(4) for df in range(4)]


def test_constant_image_is_degenerate():
    const = Volume(np.full((4, 4, 4), 3.0))
    other = _noise_volume(3, (4, 4, 4))
    with pytest.raises(DegenerateInputError):
        build_joint_histogram(const, other)


def test_marginals_sum_to_total():
    ref = _noise_volume(4)
    wrp = _noise_volume(5)
    h = build_joint_histogram(ref, wrp)
    assert h.sum(axis=1).sum() == pytest.approx(h.sum(), rel=1e-9)
    assert h.sum(axis=0).sum() == pytest.approx(h.sum(), rel=1e-9)


# --- NMI -----------------------------------------------------------------

def test_nmi_perfect_diagonal_is_two():
    counts = np.diag(np.array([3.0, 5.0, 2.0, 7.0]))
    assert nmi(counts) == pytest.approx(2.0)


def test_nmi_independent_images_is_one():
    pr = np.array([0.1, 0.4, 0.2, 0.3])
    pf = np.array([0.25, 0.25, 0.3, 0.2])
    assert nmi(np.outer(pr, pf) * 100) == pytest.approx(1.0)


def test_nmi_matches_direct_entropy_oracle():
    counts = np.array([[4.0, 1.0, 0.0],
                       [2.0, 6.0, 1.0],
                       [0.0, 3.0, 5.0]])
    p = counts / counts.sum()

    def ent(q):
        q = q[q > 0]
        return -(q * np.log(q)).sum()

    expected = (ent(p.sum(1)) + ent(p.sum(0))) / ent(p.reshape(-1))
    assert nmi(counts) == pytest.approx(expected, abs=1e-12)


def test_nmi_bounds_and_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = _noise_volume(rng.integers(1000))
        b = _noise_volume(rng.integers(1000))
        v = nmi(build_joint_histogram(a, b))
        assert 1.0 - 1e-9 <= v <= 2.0 + 1e-9
        v_swapped = nmi(build_joint_histogram(b, a))
        assert v == pytest.approx(v_swapped, abs=1e-12)


def test_nmi_invariant_under_positive_rescaling():
    a = _noise_volume(7)
    b = _noise_volume(8)
    ra = robust_range(a.data.reshape(-1))
    rb = robust_range(b.data.reshape(-1))
    h1 = build_joint_histogram(a, b, ranges=(ra, rb))
    c = 4.0  # power of two: exact in float32, so bin assignment is preserved
    a2 = Volume(a.data * c)
    h2 = build_joint_histogram(a2, b, ranges=((ra[0] * c, ra[1] * c), rb))
    np.testing.assert_allclose(h1, h2, atol=1e-9)
    assert nmi(h1) == pytest.approx(nmi(h2), abs=1e-12)


def test_zero_mass_histogram_is_degenerate():
    with pytest.raises(DegenerateInputError):
        nmi(np.zeros((4, 4)))


# --- bending energy ------------------------------------------------------

def _transform(dims=(12, 12, 12), spacing=4.0):
    return BSplineTransform.zeros(Volume(np.zeros(dims, dtype=np.float32)), spacing)


def _sampled(t):
    """`t` sampled onto its own reference grid, as the penalty alone takes it."""
    return sample_map(t, t.reference)


def test_bending_zero_for_identity_and_constant():
    t = _transform()
    assert bending_energy(t) == 0.0
    const = t.with_coefficients(np.broadcast_to((2.0, -1.0, 3.0), t.coefficients.shape))
    assert bending_energy(const) == pytest.approx(0.0, abs=1e-12)


def test_bending_zero_for_linear_ramp():
    t = _transform()
    g = np.stack(np.meshgrid(*(np.arange(d, dtype=float) for d in t.grid_dims),
                             indexing="ij"), axis=-1)
    ramp = g @ np.array([[0.3, 0.1, 0.0], [-0.2, 0.4, 0.2], [0.0, 0.1, -0.3]])
    assert bending_energy(t.with_coefficients(ramp)) == pytest.approx(0.0, abs=1e-8)


def test_bending_positive_and_matches_dense_fd_oracle():
    # small-step central differences of the continuous field at every voxel
    rng = np.random.default_rng(9)
    t = _transform((16, 16, 16), 4.0)
    t = t.with_coefficients(rng.normal(0, 1.0, t.coefficients.shape))
    e = bending_energy(t)
    assert e > 0

    from bspline_oracle import deform

    nx, ny, nz = t.reference.dims
    ii, jj, kk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    x = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3).astype(float)
    h = 1e-3
    e1, e2, e3 = np.eye(3) * h

    def d2(a):
        return (deform(t, x + a) - 2 * deform(t, x) + deform(t, x - a)) / h ** 2

    def d2m(a, b):
        return (deform(t, x + a + b) - deform(t, x + a - b)
                - deform(t, x - a + b) + deform(t, x - a - b)) / (4 * h ** 2)

    fd_energy = ((d2(e1) ** 2 + d2(e2) ** 2 + d2(e3) ** 2
                  + 2 * (d2m(e1, e2) ** 2 + d2m(e2, e3) ** 2 + d2m(e1, e3) ** 2))
                 .sum(axis=-1).mean())
    assert e == pytest.approx(fd_energy, rel=1e-4)


def test_bending_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    t = _transform()
    t = t.with_coefficients(rng.normal(0, 0.8, t.coefficients.shape))
    e, g = bending_energy_gradient(t)
    assert e == pytest.approx(bending_energy(t), abs=1e-12)
    h = 1e-4
    for _ in range(15):
        ix = tuple(rng.integers(0, d) for d in t.grid_dims) + (rng.integers(3),)
        cp = t.coefficients.copy()
        cm = t.coefficients.copy()
        cp[ix] += h
        cm[ix] -= h
        fd = (bending_energy(t.with_coefficients(cp))
              - bending_energy(t.with_coefficients(cm))) / (2 * h)
        assert g[ix] == pytest.approx(fd, rel=1e-2, abs=1e-10)


def test_lattice_bending_matches_voxel_sum_oracle():
    from bspline_oracle import bending_voxel_sum

    rng = np.random.default_rng(11)
    ref = Volume(np.zeros((20, 18, 6), dtype=np.float32), spacing=(1.25, 1.25, 5.0))
    t = BSplineTransform.zeros(ref, (3.7, 4.3, 1.6))
    t = t.with_coefficients(rng.normal(0, 1.0, t.coefficients.shape))
    e, g = bending_energy_gradient(t)
    e_oracle, g_oracle = bending_voxel_sum(t)
    assert bending_energy(t) == e
    assert e == pytest.approx(e_oracle, rel=1e-12)
    assert np.abs(g - g_oracle).max() <= 1e-12 * np.abs(g_oracle).max()


# --- inconsistency penalty -----------------------------------------------

def test_inconsistency_trivial_cases():
    fwd = _transform()
    bwd = _transform()
    assert inconsistency_penalty(_sampled(fwd), _sampled(bwd)) == 0.0

    d = np.array([1.0, 2.0, -1.5])
    fwd_c = fwd.with_coefficients(np.broadcast_to(d, fwd.coefficients.shape))
    bwd_c = bwd.with_coefficients(np.broadcast_to(-d, bwd.coefficients.shape))
    assert inconsistency_penalty(_sampled(fwd_c), _sampled(bwd_c)) == pytest.approx(0.0, abs=1e-18)

    # fwd constant +d, bwd zero: both round trips leave residual d
    val = inconsistency_penalty(_sampled(fwd_c), _sampled(bwd))
    assert val == pytest.approx(2.0 * float(d @ d), rel=1e-12)


def test_inconsistency_symmetry_and_nonnegativity():
    rng = np.random.default_rng(11)
    fwd = _transform().with_coefficients(rng.normal(0, 1, _transform().coefficients.shape))
    bwd = _transform().with_coefficients(rng.normal(0, 1, _transform().coefficients.shape))
    v1 = inconsistency_penalty(_sampled(fwd), _sampled(bwd))
    v2 = inconsistency_penalty(_sampled(bwd), _sampled(fwd))
    assert v1 >= 0
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_inconsistency_gradient_matches_per_term_fd():
    # each round-trip term drives only its outer transform (inner frozen),
    # so the oracle differentiates that term alone
    from bspline_oracle import _roundtrip_residual

    rng = np.random.default_rng(12)
    base = _transform()
    fwd = base.with_coefficients(rng.normal(0, 0.8, base.coefficients.shape))
    bwd = base.with_coefficients(rng.normal(0, 0.8, base.coefficients.shape))
    val, g_f, g_b = inconsistency_gradient(_sampled(fwd), _sampled(bwd))
    n_vox = float(np.prod(fwd.reference.dims))

    def term(outer, inner):
        m, _ = _roundtrip_residual(outer, inner)
        return float((m ** 2).sum()) / n_vox

    assert val == pytest.approx(term(fwd, bwd) + term(bwd, fwd), rel=1e-12)
    h = 1e-4
    for _ in range(12):
        ix = tuple(rng.integers(0, d) for d in fwd.grid_dims) + (rng.integers(3),)
        cp = fwd.coefficients.copy()
        cm = fwd.coefficients.copy()
        cp[ix] += h
        cm[ix] -= h
        fd = (term(fwd.with_coefficients(cp), bwd)
              - term(fwd.with_coefficients(cm), bwd)) / (2 * h)
        assert g_f[ix] == pytest.approx(fd, rel=1e-2, abs=1e-9)


# --- NMI similarity gradient ----------------------------------------------

def test_similarity_gradient_matches_finite_differences():
    ref = _gradient_phantom(3)
    flt = _gradient_phantom(4)
    base = random_smooth_deformation(ref, 1.5, 5.0, seed=2)
    ranges = (robust_range(ref.data.reshape(-1)), robust_range(flt.data.reshape(-1)))
    s, g = similarity_and_gradient(ref, flt, sample_map(base, flt.grid), ranges=ranges)
    assert 1.0 <= s <= 2.0

    def value(coef):
        return similarity_and_gradient(ref, flt,
                                       sample_map(base.with_coefficients(coef), flt.grid),
                                       ranges=ranges, with_gradient=False)[0]

    rng = np.random.default_rng(13)
    h = 1e-3
    errs = []
    for _ in range(40):
        ix = tuple(rng.integers(0, d) for d in base.grid_dims) + (rng.integers(3),)
        cp = base.coefficients.copy()
        cm = base.coefficients.copy()
        cp[ix] += h
        cm[ix] -= h
        fd = (value(cp) - value(cm)) / (2 * h)
        errs.append(abs(g[ix] - fd) / max(abs(fd), abs(g[ix]), 1e-10))
    assert np.median(errs) < 1e-4
    assert np.mean(np.asarray(errs) <= 5e-2) >= 0.99


def test_all_true_flt_valid_equals_no_mask():
    ref = _gradient_phantom(3)
    flt = _gradient_phantom(4)
    ffd = random_smooth_deformation(ref, 1.5, 5.0, seed=2)
    valid = np.ones(flt.dims, dtype=bool)
    # the premise: an all-True mask gathers to exactly 1 at every inside point
    world = ref.grid.world_points() + dense_displacement(ffd).reshape(-1, 3)
    stencil = TrilinearStencil(flt.dims, flt.voxel_from_world(world))
    assert np.all(stencil.gather(valid, 0.0)[stencil.inside] == 1.0)
    for with_gradient in (True, False):
        sampled = sample_map(ffd, flt.grid)
        s0, g0 = similarity_and_gradient(ref, flt, sampled, with_gradient=with_gradient)
        s1, g1 = similarity_and_gradient(ref, flt, sampled, flt_valid=valid,
                                         with_gradient=with_gradient)
        assert s1 == s0
        if with_gradient:
            assert np.array_equal(_bits(g1), _bits(g0))
    # a mask below the 0.999 threshold everywhere still excludes every voxel
    with pytest.raises(DegenerateInputError):
        similarity_and_gradient(ref, flt, sample_map(ffd, flt.grid),
                                flt_valid=np.full(flt.dims, 0.5))


def test_similarity_rejects_a_map_off_the_reference_grid():
    ref = _gradient_phantom(3)
    flt = _gradient_phantom(4)
    # a lattice over other dims
    other = random_smooth_deformation(Volume(np.zeros((16, 16, 12), np.float32)),
                                      1.5, 5.0, seed=2)
    with pytest.raises(GeometryMismatchError):
        similarity_and_gradient(ref, flt, sample_map(other, flt.grid))
    # a 1 mm lattice over a 2 mm reference
    coarse = Volume(ref.data, spacing=(2.0, 2.0, 2.0))
    ffd = random_smooth_deformation(ref, 1.5, 5.0, seed=2)
    for with_gradient in (True, False):
        with pytest.raises(GeometryMismatchError):
            similarity_and_gradient(coarse, flt, sample_map(ffd, flt.grid),
                                    with_gradient=with_gradient)
    # and its stencil must lie on the floating grid
    with pytest.raises(GeometryMismatchError):
        similarity_and_gradient(ref, flt, sample_map(ffd, coarse.grid))


# --- combined objective ----------------------------------------------------

def test_weights_validation():
    ObjectiveWeights(0.0, 0.0)
    with pytest.raises(InvalidInputError):
        ObjectiveWeights(-0.1, 0.0)
    with pytest.raises(InvalidInputError):
        ObjectiveWeights(0.6, 0.5)


def test_objective_weight_algebra_alpha_beta_zero():
    ref = _gradient_phantom(5)
    flt = _gradient_phantom(6)
    fwd = BSplineTransform.zeros(ref, 5.0)
    bwd = BSplineTransform.zeros(flt, 5.0)
    res = objective(ref, flt, fwd, bwd, ObjectiveWeights(0.0, 0.0))
    assert res.value == pytest.approx(res.similarity_fwd + res.similarity_bwd)
    assert res.bending_fwd == 0.0 and res.inconsistency == 0.0


def test_objective_identical_images_zero_transforms():
    ref = _gradient_phantom(7)
    fwd = BSplineTransform.zeros(ref, 5.0)
    bwd = BSplineTransform.zeros(ref, 5.0)
    w = ObjectiveWeights(0.001, 0.001)
    res = objective(ref, ref, fwd, bwd, w)
    assert res.similarity_fwd == pytest.approx(res.similarity_bwd, abs=1e-12)
    assert res.value == pytest.approx(w.similarity * 2.0 * res.similarity_fwd, abs=1e-12)
    assert res.bending_fwd == 0.0 and res.inconsistency == 0.0
    assert np.all(np.isfinite(res.grad_fwd)) and np.all(np.isfinite(res.grad_bwd))


def test_objective_value_matches_components():
    rng = np.random.default_rng(14)
    ref = _gradient_phantom(8)
    flt = _gradient_phantom(9)
    fwd = BSplineTransform.zeros(ref, 5.0)
    fwd = fwd.with_coefficients(rng.normal(0, 0.5, fwd.coefficients.shape))
    bwd = BSplineTransform.zeros(flt, 5.0)
    bwd = bwd.with_coefficients(rng.normal(0, 0.5, bwd.coefficients.shape))
    w = ObjectiveWeights(0.01, 0.02)
    res = objective(ref, flt, fwd, bwd, w, with_gradient=False)
    expected = (w.similarity * (res.similarity_fwd + res.similarity_bwd)
                - w.alpha * (res.bending_fwd + res.bending_bwd)
                - w.beta * res.inconsistency)
    assert res.value == pytest.approx(expected, abs=1e-12)
    assert res.bending_fwd == pytest.approx(bending_energy(fwd), rel=1e-12)
    assert res.inconsistency == pytest.approx(inconsistency_penalty(_sampled(fwd), _sampled(bwd)),
                                              rel=1e-12)


def _anisotropic_pair():
    """Images, lattices and a partial floating mask on one rotated
    1.25 x 1.25 x 5 mm grid."""
    rng = np.random.default_rng(31)
    c, sn = np.cos(0.3), np.sin(0.3)
    direction = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
    geometry = dict(spacing=(1.25, 1.25, 5.0), origin=(3.0, -7.5, 12.0),
                    direction=direction)
    ref = Volume(rng.uniform(0, 100, (36, 32, 12)).astype(np.float32), **geometry)
    flt = Volume(rng.uniform(0, 100, (36, 32, 12)).astype(np.float32), **geometry)
    fwd = BSplineTransform.zeros(ref, (3.0, 2.5, 1.5))
    fwd = fwd.with_coefficients(rng.normal(0, 1.5, fwd.coefficients.shape))
    bwd = fwd.with_coefficients(rng.normal(0, 1.5, fwd.coefficients.shape))
    flt_mask = np.ones(flt.dims, dtype=bool)
    flt_mask[:4] = False
    flt_mask[:, -3:, 4:] = False
    return ref, flt, fwd, bwd, flt_mask


@pytest.mark.parametrize("with_gradient", [True, False])
def test_objective_samples_each_map_once(monkeypatch, with_gradient):
    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    counts = {"stencils": 0, "dense": 0}
    build = TrilinearStencil.__init__
    dense = objective_module.dense_displacement

    def counted_build(self, *args):
        counts["stencils"] += 1
        build(self, *args)

    def counted_dense(t):
        counts["dense"] += 1
        return dense(t)

    monkeypatch.setattr(TrilinearStencil, "__init__", counted_build)
    monkeypatch.setattr(objective_module, "dense_displacement", counted_dense)
    objective(ref, flt, fwd, bwd, ObjectiveWeights(0.01, 0.02), flt_mask=flt_mask,
              with_gradient=with_gradient)
    assert counts == {"stencils": 2, "dense": 2}


@pytest.mark.parametrize("with_gradient", [True, False])
def test_objective_equals_four_stencil_oracle_bit_for_bit(with_gradient):
    from bspline_oracle import objective_four_stencils

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    w = ObjectiveWeights(0.01, 0.02)
    ranges = ((10.0, 90.0), (5.0, 95.0))
    for kwargs in (dict(flt_mask=flt_mask),
                   dict(ranges_fwd=ranges, ranges_bwd=ranges[::-1], flt_mask=flt_mask)):
        res = objective(ref, flt, fwd, bwd, w, with_gradient=with_gradient, **kwargs)
        oracle = objective_four_stencils(ref, flt, fwd, bwd, w,
                                         with_gradient=with_gradient, **kwargs)
        assert res.inconsistency > 0 and res.bending_fwd > 0
        for name in ("value", "similarity_fwd", "similarity_bwd", "bending_fwd",
                     "bending_bwd", "inconsistency"):
            assert _bits(getattr(res, name)) == _bits(getattr(oracle, name)), name
        if with_gradient:
            assert np.array_equal(_bits(res.grad_fwd), _bits(oracle.grad_fwd))
            assert np.array_equal(_bits(res.grad_bwd), _bits(oracle.grad_bwd))
        else:
            assert res.grad_fwd is None and res.grad_bwd is None


def test_inconsistency_sums_the_residual_point_major():
    # bit identity with earlier outputs rests on summing each round-trip
    # residual as a C-contiguous (N, 3) array; on this fixture a channel-major
    # (3, N) sum rounds differently, so a reordered reduction shows here
    from bspline_oracle import _roundtrip_residual

    rng = np.random.default_rng(0)
    ref = Volume(np.zeros((12, 10, 6), dtype=np.float32), spacing=(1.25, 1.25, 5.0))
    fwd = BSplineTransform.zeros(ref, (3.0, 2.5, 1.5))
    fwd = fwd.with_coefficients(rng.normal(0, 1.5, fwd.coefficients.shape))
    bwd = fwd.with_coefficients(rng.normal(0, 1.5, fwd.coefficients.shape))
    n_vox = float(np.prod(ref.dims))
    point_major = channel_major = 0.0
    for outer, inner in ((fwd, bwd), (bwd, fwd)):
        m, _ = _roundtrip_residual(outer, inner)
        assert m.shape[1] == 3 and m.flags.c_contiguous
        point_major += float((m ** 2).sum()) / n_vox
        channel_major += float((np.ascontiguousarray(m.T) ** 2).sum()) / n_vox
    assert _bits(point_major) != _bits(channel_major)
    penalty = inconsistency_penalty(_sampled(fwd), _sampled(bwd))
    assert _bits(penalty) == _bits(point_major)


def test_objective_submodule_is_not_shadowed():
    import atlasreg
    import atlasreg.objective as module

    assert module is sys.modules["atlasreg.objective"]
    assert atlasreg.objective is module
    assert module.dense_displacement is dense_displacement


def test_objective_rejects_lattices_off_their_grids():
    ref, flt, fwd, bwd, _ = _anisotropic_pair()
    w = ObjectiveWeights(0.01, 0.02)
    # a lattice over a grid of other spacing, as fwd or as bwd
    shifted = Volume(ref.data, spacing=(1.0, 1.0, 4.0), origin=ref.origin,
                     direction=ref.direction)
    off = BSplineTransform.zeros(shifted, (3.0, 2.5, 1.5))
    off = off.with_coefficients(fwd.coefficients)
    for with_gradient in (True, False):
        with pytest.raises(GeometryMismatchError):
            objective(ref, flt, off, bwd, w, with_gradient=with_gradient)
        with pytest.raises(GeometryMismatchError):
            objective(ref, flt, fwd, off, w, with_gradient=with_gradient)
    # the penalty reads each field at the other map's points, on its grid
    with pytest.raises(GeometryMismatchError):
        inconsistency_penalty(_sampled(fwd), sample_map(off, ref.grid))
    with pytest.raises(GeometryMismatchError):
        inconsistency_penalty(sample_map(fwd, shifted.grid), _sampled(bwd))


@pytest.mark.parametrize("alpha, beta", [(0.001, 0.001), (0.0, 0.02), (0.01, 0.0)])
def test_finished_value_pass_equals_gradient_call_and_oracle_bit_for_bit(alpha, beta):
    from bspline_oracle import objective_four_stencils

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    w = ObjectiveWeights(alpha, beta)
    value_only = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask, with_gradient=False)
    finished = objective_gradient(value_only.forward)
    full = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    oracle = objective_four_stencils(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    assert full.forward is None
    assert _bits(value_only.value) == _bits(full.value) == _bits(oracle.value)
    for k, name in enumerate(("grad_fwd", "grad_bwd")):
        assert np.array_equal(_bits(finished[k]), _bits(getattr(full, name))), name
        assert np.array_equal(_bits(finished[k]), _bits(getattr(oracle, name))), name
    # the finishing step consumes what the value pass kept
    assert value_only.forward.similarities == [] and value_only.forward.roundtrips == []
    with pytest.raises(InvalidInputError, match="already finished"):
        objective_gradient(value_only.forward)


def _record_threads(monkeypatch, calls, fwd, bwd_waits=False):
    """Wrap each binding of the objective module that one half calls, so that
    `calls` collects (name, "fwd" or "bwd", thread id) per call; `which`
    maps a call's arguments to the transform of its half. With `bwd_waits`,
    each backward call first waits until the forward half has made its own
    call of that binding, so the forward half has started before the
    backward half is done."""
    which_ffd = {
        "sample_map": lambda ffd, onto: ffd,
        "similarity_and_gradient": lambda ref, flt, sampled, **kwargs: sampled.ffd,
        "_roundtrip": lambda outer, inner: outer.ffd,
        "_roundtrip_gradient": lambda outer, stencil, m: outer,
        "_similarity_gradient": lambda fw: fw.ffd,
    }
    started = threading.Condition()

    def count(name, half):
        return sum(1 for n, h, _ in calls if (n, h) == (name, half))

    for name, which in which_ffd.items():
        def wrapper(*args, _name=name, _which=which, _original=getattr(objective_module, name),
                    **kwargs):
            half = "fwd" if _which(*args, **kwargs) is fwd else "bwd"
            with started:
                if bwd_waits and half == "bwd":
                    n = count(_name, "bwd") + 1
                    assert started.wait_for(lambda: count(_name, "fwd") >= n, timeout=60)
                calls.append((_name, half, threading.get_ident()))
                started.notify_all()
            return _original(*args, **kwargs)
        monkeypatch.setattr(objective_module, name, wrapper)
    return set(which_ffd)


def test_each_pass_runs_its_forward_half_on_one_helper_thread(monkeypatch):
    from bspline_oracle import objective_four_stencils

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    w = ObjectiveWeights(0.01, 0.02)
    calls = []
    # the helper is idle, so the forward half it has started stays there
    names = _record_threads(monkeypatch, calls, fwd, bwd_waits=True)
    for _ in range(2):
        value_only = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask, with_gradient=False)
        finished = objective_gradient(value_only.forward)
    caller = threading.get_ident()
    helpers = {thread for _, half, thread in calls if half == "fwd"}
    assert {thread for _, half, thread in calls if half == "bwd"} == {caller}
    assert len(helpers) == 1 and caller not in helpers
    assert Counter((name, half) for name, half, _ in calls) == {
        (name, half): 2 for name in names for half in ("fwd", "bwd")}
    oracle = objective_four_stencils(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    assert _bits(value_only.value) == _bits(oracle.value)
    assert np.array_equal(_bits(finished[0]), _bits(oracle.grad_fwd))
    assert np.array_equal(_bits(finished[1]), _bits(oracle.grad_bwd))


def test_concurrent_objective_calls_equal_serial_ones_bit_for_bit():
    # as in build_pseudo_labels, registrations on a pool share the helper;
    # more callers than cores, switching threads often
    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    other = fwd.with_coefficients(np.random.default_rng(7).normal(0, 1.0, fwd.coefficients.shape))
    calls = [(fwd, bwd, ObjectiveWeights(0.01, 0.02), flt_mask),
             (other, fwd, ObjectiveWeights(), None),
             (bwd, other, ObjectiveWeights(0.0, 0.02), flt_mask)]

    def evaluate(call):
        a, b, w, mask = call
        res = objective(ref, flt, a, b, w, flt_mask=mask, with_gradient=False)
        return (res.value, res.inconsistency, *objective_gradient(res.forward))

    serial = [evaluate(call) for call in calls]
    assert len({_bits(values[0]).item() for values in serial}) == len(calls)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(calls)) as pool:
            for _ in range(3):
                for got, expected in zip(pool.map(evaluate, calls, timeout=120), serial):
                    for g, e in zip(got, expected):
                        assert np.array_equal(_bits(g), _bits(e))
    finally:
        sys.setswitchinterval(interval)


def test_a_forward_half_the_busy_helper_has_not_started_runs_on_its_caller(monkeypatch):
    from bspline_oracle import objective_four_stencils

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    w = ObjectiveWeights(0.01, 0.02)
    oracle = objective_four_stencils(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    calls = []
    _record_threads(monkeypatch, calls, fwd)
    helper = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(objective_module, "_HELPER", helper)
    release, helper_thread = threading.Event(), []
    # the helper is kept busy, so every forward half stays queued behind it
    helper.submit(lambda: helper_thread.append(threading.get_ident()) or release.wait(120))

    def evaluate(_):
        res = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask, with_gradient=False)
        return threading.get_ident(), res.value, *objective_gradient(res.forward)

    try:
        with ThreadPoolExecutor(3) as pool:
            results = list(pool.map(evaluate, range(3), timeout=60))
    finally:
        release.set()
        helper.shutdown()
    callers = {thread for thread, *_ in results}
    assert len(callers) == 3 and not callers & set(helper_thread)
    assert {thread for _, half, thread in calls if half == "fwd"} == callers
    for _, value, grad_fwd, grad_bwd in results:
        assert _bits(value) == _bits(oracle.value)
        assert np.array_equal(_bits(grad_fwd), _bits(oracle.grad_fwd))
        assert np.array_equal(_bits(grad_bwd), _bits(oracle.grad_bwd))


def test_an_objective_evaluates_after_its_helper_is_shut_down(monkeypatch):
    # at interpreter exit the executors take no more work, while a thread
    # that outlives the main thread may still be registering
    from bspline_oracle import objective_four_stencils

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    w = ObjectiveWeights(0.01, 0.02)
    helper = ThreadPoolExecutor(max_workers=1)
    helper.shutdown()
    monkeypatch.setattr(objective_module, "_HELPER", helper)
    value_only = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask, with_gradient=False)
    finished = objective_gradient(value_only.forward)
    oracle = objective_four_stencils(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    assert _bits(value_only.value) == _bits(oracle.value)
    assert np.array_equal(_bits(finished[0]), _bits(oracle.grad_fwd))
    assert np.array_equal(_bits(finished[1]), _bits(oracle.grad_bwd))


def _fork_child_value(call):
    """The objective's value and the number of live helper threads after it."""
    ref, flt, fwd, bwd, w, flt_mask = call
    value = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask).value
    helpers = [t for t in threading.enumerate() if t.name.startswith("atlasreg-fwd-half")]
    return value, len(helpers)


# Python 3.12+ warns on any fork in a process with threads; the helper
# thread is running on purpose here, to show that the child starts its own
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_evaluates_with_a_helper_of_its_own():
    import multiprocessing

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    call = (ref, flt, fwd, bwd, ObjectiveWeights(0.01, 0.02), flt_mask)
    value, helpers = _fork_child_value(call)  # the parent's helper thread is running
    assert helpers == 1
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child, child_helpers = pool.apply_async(_fork_child_value, (call,)).get(timeout=60)
    assert _bits(child) == _bits(value)
    assert child_helpers == 1


def _lost(t):
    """`t` moved 10 m along every axis: no point it maps overlaps an image."""
    return t.with_coefficients(np.full_like(t.coefficients, 1e4))


def _slow_half(monkeypatch, slow, finished):
    """Delay the similarity of the half whose transform is `slow`, and list
    in `finished` the transform of every similarity that returns."""
    def delayed(ref, flt, sampled, **kwargs):
        if sampled.ffd is slow:
            time.sleep(0.3)
        out = similarity_and_gradient(ref, flt, sampled, **kwargs)
        finished.append(sampled.ffd)
        return out

    monkeypatch.setattr(objective_module, "similarity_and_gradient", delayed)


def test_an_error_in_one_half_is_raised_after_the_other_half_finishes(monkeypatch):
    from bspline_oracle import objective_four_stencils

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    w = ObjectiveWeights(0.01, 0.02)
    finished = []
    # the helper's half raises at once; the caller's half is slow
    _slow_half(monkeypatch, bwd, finished)
    with pytest.raises(DegenerateInputError, match="no contributing voxels"):
        objective(ref, flt, _lost(fwd), bwd, w, flt_mask=flt_mask, with_gradient=False)
    assert finished == [bwd]
    # the caller's half raises at once; the helper's half is slow
    finished.clear()
    _slow_half(monkeypatch, fwd, finished)
    with pytest.raises(DegenerateInputError, match="no contributing voxels"):
        objective(ref, flt, fwd, _lost(bwd), w, flt_mask=flt_mask, with_gradient=False)
    assert finished == [fwd]
    # the next call succeeds, bit for bit
    res = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    oracle = objective_four_stencils(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    assert _bits(res.value) == _bits(oracle.value)
    assert np.array_equal(_bits(res.grad_fwd), _bits(oracle.grad_fwd))


def test_when_both_halves_raise_the_forward_error_propagates(monkeypatch):
    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    # bwd over a grid of other spacing fails its geometry check at once,
    # while the slowed forward half loses its overlap later
    shifted = Volume(flt.data, spacing=(1.0, 1.0, 4.0), origin=flt.origin,
                     direction=flt.direction)
    off = BSplineTransform.zeros(shifted, (3.0, 2.5, 1.5))
    lost = _lost(fwd)
    finished = []
    _slow_half(monkeypatch, lost, finished)
    with pytest.raises(GeometryMismatchError):
        objective(ref, flt, fwd, off, ObjectiveWeights(), with_gradient=False)
    assert finished == [fwd]
    with pytest.raises(DegenerateInputError, match="no contributing voxels"):
        objective(ref, flt, lost, off, ObjectiveWeights(), with_gradient=False)
    assert finished == [fwd]


def test_similarity_gradient_evaluates_no_floating_weights(monkeypatch):
    ref, flt, fwd, _, flt_mask = _anisotropic_pair()
    _, forward = similarity_and_gradient(ref, flt, sample_map(fwd, flt.grid),
                                         flt_valid=flt_mask, with_gradient=False)
    rows = []
    footprint_row = objective_module._footprint_row

    def counted(t, k, d1=False, out=None):
        rows.append(d1)
        return footprint_row(t, k, d1, out)

    monkeypatch.setattr(objective_module, "_footprint_row", counted)
    objective_module._similarity_gradient(forward)
    # four reference weight rows and four floating derivative rows
    assert sorted(rows) == [False] * 4 + [True] * 4
