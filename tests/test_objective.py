import hashlib
import os
import pickle
import resource
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import atlasreg
import atlasreg.objective as objective_module
from atlasreg import (
    BSplineTransform,
    DegenerateInputError,
    GeometryMismatchError,
    InvalidInputError,
    ObjectiveWeights,
    PhantomSpec,
    Volume,
    build_joint_histogram,
    generate_phantom,
    nmi,
    random_smooth_deformation,
    sample_map,
)
from atlasreg.objective import (
    BINS,
    bending_energy,
    bending_energy_gradient,
    inconsistency_gradient,
    inconsistency_penalty,
    objective,
    objective_gradient,
    robust_range,
    similarity_and_gradient,
    _NO_SHELL,
    _bin_offsets,
    _footprint,
    _footprint_gather,
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


def test_histogram_rejects_a_mask_off_the_grid():
    with pytest.raises(InvalidInputError, match="mask"):
        build_joint_histogram(_noise_volume(0), _noise_volume(1),
                              mask=np.ones((4, 4, 4), dtype=bool))


@pytest.mark.parametrize("ranges", [(("0", "100"), ("0", "100")), ((False, True),) * 2,
                                    ((0, 100), (0j, 100))], ids=["strings", "bools", "complex"])
def test_ranges_of_anything_but_numbers_are_refused(ranges):
    vol = _noise_volume(0)
    ffd = BSplineTransform.zeros(vol, 4.0)
    with pytest.raises(InvalidInputError, match="ranges must be two"):
        build_joint_histogram(vol, vol, ranges=ranges)
    with pytest.raises(InvalidInputError, match="ranges must be two"):
        objective(vol, vol, ffd, ffd, ObjectiveWeights(), ranges=ranges)


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
    neighbours, where the kernel's branches meet, and dense positions in
    [1, 2), where the offsets t = q - floor(q) have their finest grid
    (multiples of 2^-52), the first and last 64 steps of it included."""
    rng = np.random.default_rng(seed)
    top = BINS - 3.0
    ints = np.arange(1.0, top + 1.0)  # 1 .. BINS-3, the ends of the bin range
    steps = np.arange(1.0, 65.0) * 2.0 ** -52
    return np.concatenate([rng.uniform(1.0, top, n), ints,
                           np.nextafter(ints[1:], 0.0), np.nextafter(ints[:-1], np.inf),
                           rng.uniform(1.0, 2.0, n), 1.0 + steps, 2.0 - steps])


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


@pytest.mark.parametrize("out", [False, True])
def test_footprint_rows_leave_their_offsets_unchanged(out):
    # rows 2-3 take t itself as their distance; a write into it would shift
    # the offsets of every later row and of the deposit's cells
    t = _bin_offsets(_footprint_positions(27, 500))[0]
    before = t.copy()
    for k in range(4):
        for d1 in (False, True):
            _footprint_row(t, k, d1, np.empty_like(t) if out else None)
            assert np.array_equal(_bits(t), _bits(before)), (k, d1)


@pytest.mark.parametrize("d1_f", [False, True])
def test_footprint_yields_the_deposit_cells_and_kernel_rows(d1_f):
    q_r, q_f = _footprint_positions(22, 400), _footprint_positions(23, 400)[::-1]
    f_r, f_f = np.floor(q_r).astype(np.intp), np.floor(q_f).astype(np.intp)
    u_r = q_r[:, None] - f_r[:, None] - (np.arange(4) - 1.0)
    u_f = q_f[:, None] - f_f[:, None] - (np.arange(4) - 1.0)
    kernel_f = bspline_kernel_d1 if d1_f else bspline_kernel
    seen = []
    for off, cell, w_r, w_f in _footprint(q_r, q_f, d1_f):
        dr, df = divmod(len(seen), 4)
        assert off == dr * BINS + df
        assert np.array_equal(cell + off, (f_r - 1 + dr) * BINS + f_f - 1 + df)
        assert np.array_equal(_bits(w_r), _bits(bspline_kernel(u_r[:, dr])))
        assert np.array_equal(_bits(w_f), _bits(kernel_f(u_f[:, df])))
        seen.append((dr, df))
    assert seen == [(dr, df) for dr in range(4) for df in range(4)]


@pytest.mark.parametrize("with_shell", [False, True])
def test_parzen_kernels_equal_the_index_oracle_bit_for_bit(with_shell):
    from bspline_oracle import parzen_counts, parzen_sample_gradient, parzen_weight_gradient

    # ranges (0, BINS - 4) put a value v at bin position v + 1, so the
    # fixture reaches both ends of the bin range; the last two values of
    # each side lie outside it and are clamped
    ranges = ((0.0, BINS - 4.0),) * 2
    ref_values = np.append(_footprint_positions(24, 2000) - 1.0, [-3.0, BINS + 5.0])
    values = np.append(_footprint_positions(25, 2000)[::-1] - 1.0, [BINS + 2.0, -1.0])
    ref = Volume(ref_values.reshape(-1, 1, 1))
    mask = np.ones(values.size, dtype=bool)
    rng = np.random.default_rng(26)
    idx = np.sort(rng.choice(values.size, 300, replace=False))
    shell = (idx, rng.uniform(0.01, 1.0, idx.size)) if with_shell else None
    # without a shell, the deposit takes its default, the empty shell
    args = (ref, ref, mask, values.copy(), ranges) + ((shell,) if with_shell else ())
    counts = objective_module._nmi_deposit(*args)[0]

    q_r = objective_module._bin_positions(ref.data.reshape(-1).astype(np.float64), ranges[0])[0]
    q_f, scale_f, interior_f = objective_module._bin_positions(values.copy(), ranges[1])
    assert q_r.min() == q_f.min() == 1.0 and q_r.max() == q_f.max() == BINS - 3.0
    assert np.array_equal(_bits(counts), _bits(parzen_counts(q_r, q_f, shell)))
    ds = objective_module._nmi_and_count_gradient(counts)[1]
    # the two gathers of `_nmi_deposit`'s finish: per sample, and per shell weight
    lam = _footprint_gather(ds, q_r, q_f, np.zeros(q_r.size), d1_f=True)
    lam *= scale_f
    lam[~interior_f] = 0.0
    assert np.array_equal(_bits(lam), _bits(parzen_sample_gradient(ds, q_r, q_f, scale_f,
                                                                    interior_f)))
    got = _footprint_gather(ds, q_r[idx], q_f[idx],
                            np.full(idx.size, -(counts * ds).sum() / counts.sum()))
    assert np.array_equal(_bits(got), _bits(parzen_weight_gradient(counts, ds, q_r[idx],
                                                                    q_f[idx])))


def test_the_empty_shell_is_the_shell_of_an_overlap_all_inside():
    # `_nmi_deposit`'s default shell is the one `_soft_overlap` finds for a
    # probe whose every point maps inside the grid, field for field, and
    # the deposit and its finish are bit for bit the same with either
    ref, flt = _noise_volume(60), _noise_volume(61)
    points = 0.3 + 0.9 * ref.grid.voxel_points()
    stencil = TrilinearStencil(flt.dims, points)
    mask, shell = objective_module._soft_overlap(stencil, points)
    assert mask.all()
    assert len(shell) == len(_NO_SHELL) == 5
    for got, empty in zip(shell, _NO_SHELL):
        assert (got.dtype, got.shape) == (empty.dtype, empty.shape)
    values = stencil.gather(flt.data)[mask]
    counts, finish = objective_module._nmi_deposit(ref, flt, mask, values.copy(), None, shell)
    counts_0, finish_0 = objective_module._nmi_deposit(ref, flt, mask, values.copy(), None)
    assert np.array_equal(_bits(counts), _bits(counts_0))
    assert np.array_equal(_bits(finish(stencil)), _bits(finish_0(stencil)))


@pytest.mark.parametrize("d1_f", [False, True])
def test_footprint_gather_adds_into_out_and_writes_no_input(d1_f):
    # the finish gathers twice over the same bin positions and count
    # derivative, so a gather may write `out` alone: the inputs are made
    # read-only, and any write to them raises
    from bspline_oracle import parzen_cells

    rng = np.random.default_rng(28)
    q_r, q_f = _footprint_positions(29, 500), _footprint_positions(30, 500)[::-1].copy()
    ds = rng.normal(size=(BINS, BINS))
    start = rng.normal(size=q_r.size)
    want = start.copy()
    for cell, w_r, w_f in parzen_cells(q_r, q_f, d1_f):
        want += ds.reshape(-1)[cell] * w_r * w_f
    for a in (ds, q_r, q_f):
        a.flags.writeable = False
    out = start.copy()
    assert _footprint_gather(ds, q_r, q_f, out, d1_f) is out
    assert np.array_equal(_bits(out), _bits(want))


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


@pytest.mark.parametrize("counts, match", [
    (np.array([[-1.0, 2.0], [1.0, 1.0]]), ">= 0"),
    (np.array([[np.nan, 2.0], [1.0, 1.0]]), "NaN"),
    (np.array([[np.inf, 2.0], [1.0, 1.0]]), "finite"),
    (np.array([["a", "b"], ["c", "d"]]), "numbers"),
], ids=["negative", "nan", "inf", "strings"])
def test_nmi_rejects_counts_that_are_not_counts(counts, match):
    with pytest.raises(InvalidInputError, match=match):
        nmi(counts)


def test_zero_mass_histogram_is_degenerate():
    with pytest.raises(DegenerateInputError):
        nmi(np.zeros((4, 4)))


def test_an_empty_intensity_range_and_a_one_cell_histogram_are_degenerate():
    vol = _noise_volume(0)
    ffd = BSplineTransform.zeros(vol, 4.0)
    with pytest.raises(DegenerateInputError, match="empty intensity range"):
        objective(vol, vol, ffd, ffd, ObjectiveWeights(), ranges=((5, 5), (0, 1)))
    with pytest.raises(DegenerateInputError, match="joint entropy is zero"):
        nmi(np.array([[5.0, 0.0], [0.0, 0.0]]))


# --- bending energy ------------------------------------------------------

def _transform(dims=(12, 12, 12), spacing=4.0):
    return BSplineTransform.zeros(Volume(np.zeros(dims, dtype=np.float32)), spacing)


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
    assert inconsistency_penalty(sample_map(fwd), sample_map(bwd)) == 0.0

    d = np.array([1.0, 2.0, -1.5])
    fwd_c = fwd.with_coefficients(np.broadcast_to(d, fwd.coefficients.shape))
    bwd_c = bwd.with_coefficients(np.broadcast_to(-d, bwd.coefficients.shape))
    assert inconsistency_penalty(sample_map(fwd_c), sample_map(bwd_c)) == pytest.approx(
        0.0, abs=1e-18)

    # fwd constant +d, bwd zero: both round trips leave residual d
    val = inconsistency_penalty(sample_map(fwd_c), sample_map(bwd))
    assert val == pytest.approx(2.0 * float(d @ d), rel=1e-12)


def test_inconsistency_symmetry_and_nonnegativity():
    rng = np.random.default_rng(11)
    fwd = _transform().with_coefficients(rng.normal(0, 1, _transform().coefficients.shape))
    bwd = _transform().with_coefficients(rng.normal(0, 1, _transform().coefficients.shape))
    v1 = inconsistency_penalty(sample_map(fwd), sample_map(bwd))
    v2 = inconsistency_penalty(sample_map(bwd), sample_map(fwd))
    assert v1 >= 0
    assert v1 == pytest.approx(v2, rel=1e-12)


# lattice spacings in voxels under 4 (every sample stride 1) and of 4 and
# more (strides 2): the penalty averages over every voxel, or over every
# other voxel along each axis
_FINE, _COARSE = (3.0, 2.5, 1.5), (5.0, 4.0, 4.0)


def test_inconsistency_gradient_matches_per_term_fd():
    # each round-trip term drives only its outer transform (inner frozen),
    # so the oracle differentiates that term alone, over its sample voxels:
    # every voxel on a 3-voxel lattice, every other voxel along each axis on
    # a 4-voxel one
    from bspline_oracle import _roundtrip_residual

    rng = np.random.default_rng(12)
    for spacing, samples in ((4.0, 6**3), (3.0, 12**3)):
        base = _transform(spacing=spacing)
        fwd = base.with_coefficients(rng.normal(0, 0.8, base.coefficients.shape))
        bwd = base.with_coefficients(rng.normal(0, 0.8, base.coefficients.shape))
        val, finishes = inconsistency_gradient(sample_map(fwd), sample_map(bwd))
        g_f, g_b = objective_gradient(finishes)

        def term(outer, inner):
            m, _ = _roundtrip_residual(outer, inner)
            assert len(m) == samples
            return float((m ** 2).sum()) / len(m)

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


def test_a_round_trip_finish_run_twice_says_it_was_already_finished():
    base = _transform()
    _, finishes = inconsistency_gradient(sample_map(base), sample_map(base))
    for finish in finishes:
        assert np.all(np.isfinite(finish()))
        # the finish consumed the residual it kept, as the deposit's does
        with pytest.raises(InvalidInputError, match="already finished"):
            finish()


# --- NMI similarity gradient ----------------------------------------------

def test_similarity_gradient_matches_finite_differences():
    ref = _gradient_phantom(3)
    flt = _gradient_phantom(4)
    base = random_smooth_deformation(ref, 1.5, 5.0, seed=2)
    ranges = (robust_range(ref.data.reshape(-1)), robust_range(flt.data.reshape(-1)))
    s, finish = similarity_and_gradient(ref, flt, sample_map(base), ranges=ranges)
    g = finish()
    assert 1.0 <= s <= 2.0

    def value(coef):
        return similarity_and_gradient(ref, flt,
                                       sample_map(base.with_coefficients(coef)),
                                       ranges=ranges)[0]

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
    sampled = sample_map(ffd)
    s0, finish0 = similarity_and_gradient(ref, flt, sampled)
    s1, finish1 = similarity_and_gradient(ref, flt, sampled, flt_valid=valid)
    assert s1 == s0
    assert np.array_equal(_bits(finish1()), _bits(finish0()))
    # a mask marks its nonzero voxels, as `ref_mask` does: an all-0.5 mask is
    # the all-True one
    s2, _ = similarity_and_gradient(ref, flt, sampled, flt_valid=np.full(flt.dims, 0.5))
    assert s2 == s0


def test_masks_of_integers_and_a_float_flt_valid_pass_as_their_bools():
    # a mask is numbers or bools, nonzero marking a voxel; flt_valid is
    # gathered, so its float copy gathers as the bools do
    ref, flt, ffd, ref_mask, flt_valid = _oblique_setup()
    s0, finish0 = similarity_and_gradient(ref, flt, sample_map(ffd), ref_mask=ref_mask,
                                          flt_valid=flt_valid)
    s1, finish1 = similarity_and_gradient(ref, flt, sample_map(ffd),
                                          ref_mask=ref_mask.astype(np.int32) * 3,
                                          flt_valid=flt_valid.astype(np.float32))
    assert _bits(s1) == _bits(s0)
    assert np.array_equal(_bits(finish1()), _bits(finish0()))
    h0 = build_joint_histogram(ref, flt, mask=ref_mask)
    h1 = build_joint_histogram(ref, flt, mask=ref_mask.astype(np.uint8))
    assert np.array_equal(_bits(h1), _bits(h0))

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    w = ObjectiveWeights(0.01, 0.02)
    res0 = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    res1 = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask.astype(np.int64))
    assert _bits(res1.value) == _bits(res0.value)
    for g0, g1 in ((res0.grad_fwd, res1.grad_fwd), (res0.grad_bwd, res1.grad_bwd)):
        assert np.array_equal(_bits(g1), _bits(g0))


def test_similarity_rejects_a_map_off_the_reference_grid():
    ref = _gradient_phantom(3)
    flt = _gradient_phantom(4)
    # a lattice over other dims
    other = random_smooth_deformation(Volume(np.zeros((16, 16, 12), np.float32)),
                                      1.5, 5.0, seed=2)
    with pytest.raises(GeometryMismatchError):
        similarity_and_gradient(ref, flt, sample_map(other))
    # a 1 mm lattice over a 2 mm reference
    coarse = Volume(ref.data, spacing=(2.0, 2.0, 2.0))
    ffd = random_smooth_deformation(ref, 1.5, 5.0, seed=2)
    with pytest.raises(GeometryMismatchError):
        similarity_and_gradient(coarse, flt, sample_map(ffd))
    # and the floating image must lie on that grid too
    with pytest.raises(GeometryMismatchError):
        similarity_and_gradient(ref, Volume(flt.data, spacing=(2.0, 2.0, 2.0)),
                                sample_map(ffd))


def test_a_similarity_gradient_finishes_once():
    ref = _gradient_phantom(3)
    ffd = random_smooth_deformation(ref, 1.5, 5.0, seed=2)
    _, finish = similarity_and_gradient(ref, _gradient_phantom(4), sample_map(ffd))
    assert np.all(np.isfinite(finish()))
    # the finish consumed the deposit it kept, as the objective's does
    with pytest.raises(InvalidInputError, match="already finished"):
        finish()


# --- combined objective ----------------------------------------------------

def test_weights_validation():
    ObjectiveWeights(0.0, 0.0)
    with pytest.raises(InvalidInputError):
        ObjectiveWeights(-0.1, 0.0)
    with pytest.raises(InvalidInputError):
        ObjectiveWeights(0.6, 0.5)
    for alpha, beta in (("x", 0.0), (False, 0.0), (0.0, True)):
        with pytest.raises(InvalidInputError, match="real numbers"):
            ObjectiveWeights(alpha, beta)


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
    assert res.inconsistency == pytest.approx(
        inconsistency_penalty(sample_map(fwd), sample_map(bwd)), rel=1e-12)


def _anisotropic_pair(lattice=_FINE):
    """Images, lattices at spacing `lattice` (voxels) and a partial floating
    mask on one rotated 1.25 x 1.25 x 5 mm grid."""
    rng = np.random.default_rng(31)
    c, sn = np.cos(0.3), np.sin(0.3)
    direction = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
    geometry = dict(spacing=(1.25, 1.25, 5.0), origin=(3.0, -7.5, 12.0),
                    direction=direction)
    ref = Volume(rng.uniform(0, 100, (36, 32, 12)).astype(np.float32), **geometry)
    flt = Volume(rng.uniform(0, 100, (36, 32, 12)).astype(np.float32), **geometry)
    fwd = BSplineTransform.zeros(ref, lattice)
    fwd = fwd.with_coefficients(rng.normal(0, 1.5, fwd.coefficients.shape))
    bwd = fwd.with_coefficients(rng.normal(0, 1.5, fwd.coefficients.shape))
    flt_mask = np.ones(flt.dims, dtype=bool)
    flt_mask[:4] = False
    flt_mask[:, -3:, 4:] = False
    return ref, flt, fwd, bwd, flt_mask


@pytest.mark.parametrize("with_gradient", [True, False])
def test_objective_samples_each_map_once(monkeypatch, with_gradient):
    # on a coarse lattice each sampling adds the stencil of its sample voxels
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
    for lattice, stencils in ((_FINE, 2), (_COARSE, 4)):
        ref, flt, fwd, bwd, flt_mask = _anisotropic_pair(lattice)
        counts.update(stencils=0, dense=0)
        objective(ref, flt, fwd, bwd, ObjectiveWeights(0.01, 0.02), flt_mask=flt_mask,
                  with_gradient=with_gradient)
        assert counts == {"stencils": stencils, "dense": 2}


@pytest.mark.parametrize("with_gradient", [True, False])
def test_objective_equals_four_stencil_oracle_bit_for_bit(with_gradient):
    from bspline_oracle import objective_four_stencils

    w = ObjectiveWeights(0.01, 0.02)
    ranges = ((10.0, 90.0), (5.0, 95.0))
    for lattice in (_FINE, _COARSE):
        ref, flt, fwd, bwd, flt_mask = _anisotropic_pair(lattice)
        for kwargs in (dict(flt_mask=flt_mask),
                       dict(ranges=ranges, flt_mask=flt_mask)):
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


def _oblique_setup():
    """Images, a lattice whose map carries points out of the grid, a
    reference mask and a partial floating mask, all on one oblique,
    anisotropic, offset grid."""
    rng = np.random.default_rng(41)
    a, b = 0.3, 0.5
    rz = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(b), -np.sin(b)], [0.0, np.sin(b), np.cos(b)]])
    geometry = dict(spacing=(1.25, 1.5, 4.0), origin=(3.0, -7.5, 12.0), direction=rz @ rx)
    ref, flt = (Volume(rng.uniform(0, 100, (20, 18, 8)).astype(np.float32), **geometry)
                for _ in range(2))
    ffd = BSplineTransform.zeros(ref, (3.0, 2.5, 1.5))
    ffd = ffd.with_coefficients(rng.normal(0, 2.0, ffd.coefficients.shape))
    ref_mask = np.ones(ref.dims, dtype=bool)
    ref_mask[:3] = False
    flt_valid = np.ones(flt.dims, dtype=bool)
    flt_valid[:, -4:, 2:] = False
    return ref, flt, ffd, ref_mask, flt_valid


def test_sample_map_builds_the_stencil_of_the_row_major_mapping():
    from bspline_oracle import mapped_points

    ref, _, ffd, _, _ = _oblique_setup()
    got = sample_map(ffd).stencil
    expected = TrilinearStencil(ref.dims, mapped_points(ffd, ref.grid))
    assert 0 < got.inside.sum() < got.inside.size
    assert np.array_equal(got.inside, expected.inside)
    assert np.array_equal(got.base, expected.base)
    for name in ("fx", "fy", "fz"):
        assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(expected, name))), name


def test_similarity_finish_equals_the_row_major_finish_bit_for_bit():
    from bspline_oracle import _similarity, mapped_points, nmi_finish_masked

    ref, flt, ffd, ref_mask, flt_valid = _oblique_setup()
    sampled = sample_map(ffd)
    stencil = sampled.stencil
    mask = stencil.inside & ref_mask.reshape(-1) & (stencil.gather(flt_valid) >= 0.999)
    assert 0 < mask.sum() < stencil.inside.sum()
    values = stencil.gather(flt.data)[mask]
    field = objective_module._nmi_deposit(ref, flt, mask, values.copy(), None)[1](stencil)
    expected = nmi_finish_masked(ref, flt, mask, values, None,
                                 TrilinearStencil(flt.dims, mapped_points(ffd, flt.grid)))
    # splat_to_coefficients and the affine's sums read a C-ordered field
    assert field.flags.c_contiguous
    assert np.array_equal(_bits(field), _bits(expected))

    s, finish = similarity_and_gradient(ref, flt, sampled, ref_mask=ref_mask,
                                        flt_valid=flt_valid)
    s_oracle, g_oracle = _similarity(ref, flt, ffd, None, ref_mask, flt_valid, True)
    assert _bits(s) == _bits(s_oracle)
    assert np.array_equal(_bits(finish()), _bits(g_oracle))


def test_inconsistency_sums_the_residual_point_major():
    # bit identity with earlier outputs rests on summing each round-trip
    # residual as a C-contiguous (n, 3) array; on this fixture, at every
    # voxel and at the samples of a coarse lattice, a channel-major (3, n)
    # sum rounds differently, so a reordered reduction shows here
    from bspline_oracle import _roundtrip_residual

    ref = Volume(np.zeros((12, 10, 6), dtype=np.float32), spacing=(1.25, 1.25, 5.0))
    for lattice in (_FINE, _COARSE):
        rng = np.random.default_rng(0)
        fwd = BSplineTransform.zeros(ref, lattice)
        fwd = fwd.with_coefficients(rng.normal(0, 1.5, fwd.coefficients.shape))
        bwd = fwd.with_coefficients(rng.normal(0, 1.5, fwd.coefficients.shape))
        point_major = channel_major = 0.0
        for outer, inner in ((fwd, bwd), (bwd, fwd)):
            m, _ = _roundtrip_residual(outer, inner)
            assert m.shape[1] == 3 and m.flags.c_contiguous
            point_major += float((m ** 2).sum()) / len(m)
            channel_major += float((np.ascontiguousarray(m.T) ** 2).sum()) / len(m)
        assert _bits(point_major) != _bits(channel_major)
        penalty = inconsistency_penalty(sample_map(fwd), sample_map(bwd))
        assert _bits(penalty) == _bits(point_major)


def test_objective_submodule_is_not_shadowed():
    import atlasreg
    import atlasreg.objective as module

    assert module is sys.modules["atlasreg.objective"]
    assert atlasreg.objective is module
    assert module.dense_displacement is dense_displacement


def _every_voxel_objective(monkeypatch, *args, **kwargs):
    """`objective(*args, **kwargs)` with each round trip averaged over every
    voxel, the form the sample grid replaced (`roundtrip_every_voxel`)."""
    from bspline_oracle import roundtrip_every_voxel

    with monkeypatch.context() as patch:
        patch.setattr(objective_module, "_roundtrip", roundtrip_every_voxel)
        return objective(*args, **kwargs)


def test_lattices_under_four_voxels_keep_the_every_voxel_penalty_bit_for_bit(monkeypatch):
    from bspline_oracle import roundtrip_every_voxel

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair(_FINE)
    map_f, map_b = sample_map(fwd), sample_map(bwd)
    # one stencil, and the displacement's own rows
    assert map_f.samples is map_f.stencil
    assert np.shares_memory(map_f.u_samples, map_f.u)
    value, finishes = inconsistency_gradient(map_f, map_b)
    (c_f, finish_f), (c_b, finish_b) = (roundtrip_every_voxel(map_f, map_b),
                                        roundtrip_every_voxel(map_b, map_f))
    assert _bits(value) == _bits((0.0 + c_f) + c_b)
    for got, expected in zip(objective_gradient(finishes), (finish_f(), finish_b())):
        assert np.array_equal(_bits(got), _bits(expected))

    w = ObjectiveWeights(0.01, 0.02)
    for lattice, same in ((_FINE, True), (_COARSE, False)):
        ref, flt, fwd, bwd, flt_mask = _anisotropic_pair(lattice)
        res = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
        every = _every_voxel_objective(monkeypatch, ref, flt, fwd, bwd, w, flt_mask=flt_mask)
        assert bool(_bits(res.value) == _bits(every.value)) is same
        for name in ("grad_fwd", "grad_bwd"):
            assert np.array_equal(_bits(getattr(res, name)), _bits(getattr(every, name))) is same


def test_the_sampled_penalty_is_near_the_voxel_average_on_the_ffd_stack_geometry():
    # smooth fields of at most 3 mm on the ffd_stack benchmark's grid and
    # lattice spacing (5 voxels, so the samples are every other voxel along
    # each axis): independent pairs and near-inverse ones. Measured: the
    # sampled penalty 0.06-0.57 % off the voxel average, the gradients
    # 7.9-8.5 % off with cosines of at least 0.9964
    from bspline_oracle import roundtrip_every_voxel

    ref = Volume(np.zeros((128, 128, 16), dtype=np.float32), spacing=(1.25, 1.25, 5.0))
    pairs = []
    for seed in (0, 4):
        fwd = random_smooth_deformation(ref, 3.0, 5.0, seed=seed)
        pairs.append((fwd, random_smooth_deformation(ref, 3.0, 5.0, seed=seed + 1)))
        pairs.append((fwd, fwd.with_coefficients(-fwd.coefficients)))
    for fwd, bwd in pairs:
        map_f, map_b = sample_map(fwd), sample_map(bwd)
        assert map_f.samples.base.size * 8 == map_f.stencil.base.size
        value, finishes = inconsistency_gradient(map_f, map_b)
        (c_f, finish_f), (c_b, finish_b) = (roundtrip_every_voxel(map_f, map_b),
                                            roundtrip_every_voxel(map_b, map_f))
        assert value == pytest.approx(c_f + c_b, rel=0.01)
        for got, expected in zip(objective_gradient(finishes), (finish_f(), finish_b())):
            cosine = np.vdot(got, expected) / (np.linalg.norm(got) * np.linalg.norm(expected))
            assert cosine >= 0.99


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
    # without the penalty, ref and flt must still share the lattices' grid
    for with_gradient in (True, False):
        with pytest.raises(GeometryMismatchError):
            objective(ref, shifted, fwd, off, ObjectiveWeights(0.01, 0.0),
                      with_gradient=with_gradient)
    # the penalty reads each field at the other map's points, on its grid
    with pytest.raises(GeometryMismatchError):
        inconsistency_penalty(sample_map(fwd), sample_map(off))


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
    assert value_only.forward == []
    with pytest.raises(InvalidInputError, match="already finished"):
        objective_gradient(value_only.forward)


def _record_threads(monkeypatch, calls, fwd):
    """Wrap each binding of the objective module that one half calls, so that
    `calls` collects (name, "fwd" or "bwd", thread id) per call; `which`
    maps a call's arguments to the transform of its half. The finishing
    halves show through `splat_to_coefficients`, which each finish calls
    once, with its FFD first."""
    which_ffd = {
        "sample_map": lambda ffd: ffd,
        "similarity_and_gradient": lambda ref, flt, sampled, **kwargs: sampled.ffd,
        "_roundtrip": lambda outer, inner: outer.ffd,
        "splat_to_coefficients": lambda ffd, field: ffd,
    }
    for name, which in which_ffd.items():
        def wrapper(*args, _name=name, _which=which, _original=getattr(objective_module, name),
                    **kwargs):
            half = "fwd" if _which(*args, **kwargs) is fwd else "bwd"
            calls.append((_name, half, threading.get_ident()))
            return _original(*args, **kwargs)
        monkeypatch.setattr(objective_module, name, wrapper)
    return set(which_ffd)


def _live_half_threads():
    return [t for t in threading.enumerate() if t.name == "atlasreg-fwd-half"]


def test_each_pass_runs_its_forward_half_on_another_thread(monkeypatch):
    from bspline_oracle import objective_four_stencils

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    w = ObjectiveWeights(0.01, 0.02)
    calls = []
    names = _record_threads(monkeypatch, calls, fwd)
    for _ in range(2):
        value_only = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask, with_gradient=False)
        finished = objective_gradient(value_only.forward)
    caller = threading.get_ident()
    assert {thread for _, half, thread in calls if half == "bwd"} == {caller}
    assert caller not in {thread for _, half, thread in calls if half == "fwd"}
    # per evaluation and half: one call of each value pass, and one splat
    # for each of the half's two finishes
    assert Counter((name, half) for name, half, _ in calls) == {
        (name, half): 4 if name == "splat_to_coefficients" else 2
        for name in names for half in ("fwd", "bwd")}
    oracle = objective_four_stencils(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    assert _bits(value_only.value) == _bits(oracle.value)
    assert np.array_equal(_bits(finished[0]), _bits(oracle.grad_fwd))
    assert np.array_equal(_bits(finished[1]), _bits(oracle.grad_bwd))


@pytest.mark.parametrize("beta, round_trips", [(0.02, 1), (0.0, 0)])
def test_a_value_call_reaches_each_term_through_its_module_binding(monkeypatch, beta,
                                                                  round_trips):
    # a tracer that wraps the module's bindings, as the bench's does, sees
    # the similarities and the round trips of every value call
    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    calls = Counter()
    for name in ("similarity_and_gradient", "inconsistency_gradient"):
        def wrapper(*args, _name=name, _original=getattr(objective_module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(objective_module, name, wrapper)
    for with_gradient in (False, True):
        calls.clear()
        result = objective(ref, flt, fwd, bwd, ObjectiveWeights(0.01, beta),
                           flt_mask=flt_mask, with_gradient=with_gradient)
        if not with_gradient:
            objective_gradient(result.forward)
        assert calls["similarity_and_gradient"] == 2
        assert calls["inconsistency_gradient"] == round_trips


def test_an_evaluation_and_its_finish_start_one_half_thread_per_pass(monkeypatch):
    # the value pass runs the halves twice with the penalty (sampling, then
    # the round trips) and once without it; the finishing step runs them once
    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    names = []
    start = threading.Thread.start

    def counted(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    for beta, threads in ((0.02, 3), (0.0, 2)):
        names.clear()
        value_only = objective(ref, flt, fwd, bwd, ObjectiveWeights(0.01, beta),
                               flt_mask=flt_mask, with_gradient=False)
        objective_gradient(value_only.forward)
        assert names == ["atlasreg-fwd-half"] * threads


def test_concurrent_objective_calls_equal_serial_ones_bit_for_bit():
    # as in build_pseudo_labels, registrations run on a pool, each call
    # starting forward-half threads of its own; more callers than cores,
    # switching threads often
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


# A non-daemon thread evaluates once the main thread has returned, while the
# interpreter shuts down: executors then take no more work.
_AFTER_MAIN_SCRIPT = """
import hashlib, pickle, sys, threading
from atlasreg.objective import objective, objective_gradient

with open(sys.argv[1], "rb") as f:
    ref, flt, fwd, bwd, w, flt_mask = pickle.load(f)

def evaluate():
    threading.main_thread().join()
    res = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask, with_gradient=False)
    grads = objective_gradient(res.forward)
    print(res.value.hex(), *(hashlib.sha256(g.tobytes()).hexdigest() for g in grads))

threading.Thread(target=evaluate).start()
"""


def test_an_objective_evaluates_after_the_main_thread_has_returned(tmp_path):
    from bspline_oracle import objective_four_stencils

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    w = ObjectiveWeights(0.01, 0.02)
    call = tmp_path / "call.pkl"
    call.write_bytes(pickle.dumps((ref, flt, fwd, bwd, w, flt_mask)))
    src = str(Path(objective_module.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", _AFTER_MAIN_SCRIPT, str(call)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0 and not run.stderr, run.stderr
    oracle = objective_four_stencils(ref, flt, fwd, bwd, w, flt_mask=flt_mask)
    assert run.stdout.split() == [
        oracle.value.hex(),
        *(hashlib.sha256(g.tobytes()).hexdigest() for g in (oracle.grad_fwd, oracle.grad_bwd))]


def _fork_child_value(call):
    """The objective's value and the number of forward-half threads still
    running after it."""
    ref, flt, fwd, bwd, w, flt_mask = call
    value = objective(ref, flt, fwd, bwd, w, flt_mask=flt_mask).value
    return value, len(_live_half_threads())


# Python 3.12+ warns on any fork in a process with threads, and threads that
# other tests started may still run at the fork
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_gives_the_parents_value_and_leaves_no_half_thread():
    import multiprocessing

    ref, flt, fwd, bwd, flt_mask = _anisotropic_pair()
    call = (ref, flt, fwd, bwd, ObjectiveWeights(0.01, 0.02), flt_mask)
    value, threads = _fork_child_value(call)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child, child_threads = pool.apply_async(_fork_child_value, (call,)).get(timeout=60)
    assert _bits(child) == _bits(value)
    assert threads == child_threads == 0


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
    # the thread's half raises at once; the caller's half is slow
    _slow_half(monkeypatch, bwd, finished)
    with pytest.raises(DegenerateInputError, match="no contributing voxels"):
        objective(ref, flt, _lost(fwd), bwd, w, flt_mask=flt_mask, with_gradient=False)
    assert finished == [bwd] and not _live_half_threads()
    # the caller's half raises at once; the thread's half is slow
    finished.clear()
    _slow_half(monkeypatch, fwd, finished)
    with pytest.raises(DegenerateInputError, match="no contributing voxels"):
        objective(ref, flt, fwd, _lost(bwd), w, flt_mask=flt_mask, with_gradient=False)
    assert finished == [fwd] and not _live_half_threads()
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
    _, finish = similarity_and_gradient(ref, flt, sample_map(fwd),
                                        flt_valid=flt_mask)
    rows = []
    footprint_row = objective_module._footprint_row

    def counted(t, k, d1=False, out=None):
        if t.size:  # the empty shell's gather evaluates its rows on no point
            rows.append(d1)
        return footprint_row(t, k, d1, out)

    monkeypatch.setattr(objective_module, "_footprint_row", counted)
    finish()
    # four reference weight rows and four floating derivative rows
    assert sorted(rows) == [False] * 4 + [True] * 4


def test_a_steady_evaluation_faults_in_no_freed_pages():
    # The package keeps freed heap pages mapped (`atlasreg._keep_freed_pages_mapped`),
    # so once one evaluation has sized the heap, the next ones reuse its pages.
    # Without the setting a 128x128x16 evaluation faults in about 17 000
    # zero-filled pages, 50 000 over the three timed here.
    if not atlasreg._keep_freed_pages_mapped():
        pytest.skip("the C library has no mallopt")
    rng = np.random.default_rng(0)
    ref, flt = (Volume(rng.uniform(0.0, 100.0, (128, 128, 16)).astype(np.float32),
                       spacing=(1.25, 1.25, 5.0)) for _ in range(2))
    fwd, bwd = (BSplineTransform.zeros(ref, (5.0, 5.0, 1.25)) for _ in range(2))
    fwd, bwd = (t.with_coefficients(rng.normal(0.0, 1.0, t.coefficients.shape))
                for t in (fwd, bwd))

    def evaluate():
        objective_gradient(objective(ref, flt, fwd, bwd, ObjectiveWeights(),
                                     with_gradient=False).forward)

    evaluate()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        evaluate()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 3000
