import importlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlasreg import (
    AffineTransform,
    DegenerateInputError,
    InvalidInputError,
    NumericalFailureError,
    ObjectiveWeights,
    RegistrationConfig,
    Volume,
    default_config,
    dice,
    random_smooth_deformation,
    register_affine,
    register_ffd,
    warp_labels,
)
from atlasreg.phantom import generate_phantom, scaled_spec
from atlasreg import registration
from atlasreg.objective import ObjectiveResult, _nmi_deposit, nmi
from atlasreg.registration import STEP_FLOOR_MM, _ascend, build_pyramid, usable_levels
from atlasreg.transforms import max_displacement, warp_volume
from atlasreg.volume import TrilinearStencil, resample


def _phantom(dims=(32, 32, 32), seed=1, noise=1.5, texture=6.0):
    spec = scaled_spec(dims=dims, seed=seed, noise_sigma=noise,
                       texture_amplitude=texture)
    return generate_phantom(spec)[0]


SMALL_CFG = RegistrationConfig(levels=3, max_iter_per_level=60,
                               final_grid_spacing=4.0,
                               weights=ObjectiveWeights(0.001, 0.001))


# --- configs ---------------------------------------------------------------

def test_default_config_type1_matches_published_settings():
    cfg = default_config("type1")
    assert cfg.levels == 5
    assert cfg.max_iter_per_level == 300
    assert cfg.final_grid_spacing == 5.0
    assert (cfg.weights.alpha, cfg.weights.beta) == (0.001, 0.001)


def test_default_config_type2_matches_published_settings():
    cfg = default_config("type2")
    assert cfg.levels == 6
    assert cfg.max_iter_per_level == 4000
    assert cfg.final_grid_spacing == 1.0
    assert (cfg.weights.alpha, cfg.weights.beta) == (0.001, 0.001)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        RegistrationConfig(levels=0)
    with pytest.raises(InvalidInputError, match="integers"):
        RegistrationConfig(levels=2.5)
    with pytest.raises(InvalidInputError, match="integers"):
        RegistrationConfig(max_iter_per_level=3.5)
    for field in ("levels", "max_iter_per_level"):
        with pytest.raises(InvalidInputError, match="integers"):
            RegistrationConfig(**{field: True})
    with pytest.raises(InvalidInputError):
        RegistrationConfig(final_grid_spacing=0.5)
    for spacing in ("5", True):
        with pytest.raises(InvalidInputError, match="final_grid_spacing"):
            RegistrationConfig(final_grid_spacing=spacing)
    with pytest.raises(InvalidInputError, match="ObjectiveWeights"):
        RegistrationConfig(weights="a")
    with pytest.raises(InvalidInputError):
        default_config("type3")


@pytest.mark.parametrize("spacing", [np.inf, np.nan])
def test_config_rejects_a_non_finite_grid_spacing(spacing):
    with pytest.raises(InvalidInputError, match="finite"):
        RegistrationConfig(final_grid_spacing=spacing)


# --- pyramid ----------------------------------------------------------------

def test_pyramid_doubles_resolution_between_levels():
    vol = _phantom((64, 64, 64))
    pyr = build_pyramid(vol, 4)
    assert len(pyr) == 4
    assert pyr[-1] is vol
    for coarse, fine in zip(pyr, pyr[1:]):
        np.testing.assert_allclose(np.asarray(coarse.spacing),
                                   2.0 * np.asarray(fine.spacing))
        for a in range(3):
            assert coarse.dims[a] == -(-fine.dims[a] // 2)  # ceil division


def test_usable_levels_caps_small_volumes():
    assert usable_levels((64, 64, 64), 5) == 5
    assert usable_levels((64, 64, 64), 9) == 5  # 64 -> 4 after 4 halvings
    assert usable_levels((16, 16, 16), 5) == 3
    assert usable_levels((4, 4, 4), 5) == 1
    # register_affine keeps the last n of its (x4, x2, x1) stages; a coarse
    # grid under 16 voxels per axis gives NMI maxima away from identity.
    assert usable_levels((32, 32, 32), 3, min_dim=16) == 2
    assert usable_levels((40, 40, 40), 3, min_dim=16) == 2
    assert usable_levels((64, 64, 64), 3, min_dim=16) == 3
    assert usable_levels((128, 128, 16), 3, min_dim=16) == 1


def _halving_levels(dims, requested, min_dim):
    """The pyramid depth by halving the shortest axis while a halving keeps
    min_dim voxels: the loop `usable_levels` replaced."""
    largest = min(dims)
    cap = 1
    while largest // 2 >= min_dim:
        largest //= 2
        cap += 1
    return max(1, min(requested, cap))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 600), min_size=3, max_size=3), st.integers(1, 12),
       st.integers(1, 40))
def test_usable_levels_equals_the_halving_loop(dims, requested, min_dim):
    assert usable_levels(dims, requested, min_dim) == _halving_levels(dims, requested, min_dim)


# --- ascent loop ------------------------------------------------------------

PEAK = np.array([[3.0], [-1.0]])  # two one-component nodes


class Quadratic:
    """-|x - PEAK|^2, recording every point at which it is evaluated."""

    def __init__(self, bad=lambda x: None, peak=PEAK):
        self.bad = bad  # returns an exception or a value to use instead
        self.peak = peak
        self.points = []

    def value(self, x):
        self.points.append(x.copy())
        override = self.bad(x)
        if isinstance(override, Exception):
            raise override
        return float(-((x - self.peak) ** 2).sum()) if override is None else override

    def gradient(self, x):
        return -2.0 * (x - self.peak)


def _climb(f, x0=((0.0,), (0.0,)), step=1.0, max_iter=100, gain_tol=1e-9):
    return _ascend(lambda x: (f.value(x), lambda: f.gradient(x)), np.array(x0),
                   step, max_iter, gain_tol)


def test_ascend_trace_is_monotone_and_reaches_the_peak():
    x, trace, converged = _climb(Quadratic())
    assert converged
    assert all(b > a for a, b in zip(trace, trace[1:]))
    np.testing.assert_allclose(x, PEAK, atol=2 * STEP_FLOOR_MM)


def test_ascend_gain_floor_converges():
    x, trace, converged = _climb(Quadratic(), gain_tol=1e3)
    assert converged and len(trace) == 2  # the first gain is under the floor


def test_ascend_max_iter_is_not_convergence():
    x, trace, converged = _climb(Quadratic(), step=0.1, max_iter=3)
    assert not converged and len(trace) == 4


def test_ascend_zero_gradient_stops_before_any_probe():
    f = Quadratic()
    x, trace, converged = _climb(f, x0=PEAK)
    assert converged and trace == [0.0]
    assert len(f.points) == 1  # the start value only


def test_ascend_rejects_a_degenerate_probe_and_halves_the_step():
    f = Quadratic(lambda x: DegenerateInputError("no overlap") if x[0, 0] > 1.5 else None)
    x, trace, converged = _climb(f, step=2.0, max_iter=1)
    # start, the rejected probe at step 2, then the accepted probe at step 1
    np.testing.assert_array_equal(f.points[1], [[2.0], [-2.0 / 3.0]])
    np.testing.assert_array_equal(x, [[1.0], [-1.0 / 3.0]])
    assert trace[1] == f.value(x)


def test_ascend_moves_the_node_of_largest_gradient_norm_by_the_step():
    # three-component nodes: node 1 has gradient norm 2 * 13 = 26, node 0
    # has 2 * 5 = 10, so the first probe moves node 1 by exactly the step
    peak = np.array([[3.0, 4.0, 0.0], [12.0, 0.0, -5.0]])
    f = Quadratic(peak=peak)
    _climb(f, x0=np.zeros((2, 3)), step=0.5, max_iter=1)
    moved = np.sqrt((f.points[1] ** 2).sum(axis=-1))
    np.testing.assert_allclose(moved, [0.5 * 5.0 / 13.0, 0.5], rtol=1e-15)
    np.testing.assert_allclose(f.points[1], 0.5 * peak / 13.0, rtol=1e-15)


def test_ascend_non_finite_value_raises_with_iteration():
    f = Quadratic(lambda x: np.nan if x[0, 0] > 2.5 else None)
    with pytest.raises(NumericalFailureError) as exc:
        _climb(f, step=1.0)
    assert exc.value.iteration == 2  # probes at x0 = 1, 2 accepted, then 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ascend_non_finite_gradient_raises_with_iteration(bad):
    f = Quadratic()

    def evaluate(x):
        gradient = f.gradient(x) if x[0, 0] < 0.5 else np.full_like(x, bad)
        return f.value(x), lambda: gradient

    # the start point's gradient is finite, the first accepted probe's is not
    with pytest.raises(NumericalFailureError, match="gradient is not finite at iteration 1") as exc:
        _ascend(evaluate, np.zeros((2, 1)), 1.0, 100, 1e-9)
    assert exc.value.iteration == 1


class _State:
    """Stands for what an evaluation keeps for its gradient."""


def test_ascend_finishes_the_start_and_accepted_probes_only_and_drops_rejected_state():
    f = Quadratic()
    evaluated, alive_at_evaluation, finished = [], [], []

    def evaluate(x):
        alive_at_evaluation.append([k for k, (_, ref) in enumerate(evaluated) if ref()])
        state = _State()
        state.index = len(evaluated)
        evaluated.append((x.copy(), weakref.ref(state)))
        if x[0, 0] > 3.5:  # a probe past the peak that loses overlap
            raise DegenerateInputError("no overlap")
        value = f.value(x)

        def finish():
            finished.append((x.copy(), state.index))
            return f.gradient(x)

        return value, finish

    x, trace, converged = _ascend(evaluate, np.zeros((2, 1)), 1.3, 100, 1e-9)
    values = [f.value(p) if p[0, 0] <= 3.5 else None for p, _ in evaluated]
    # probes were rejected both for lost overlap and for a value that fell
    assert converged and None in values
    assert len([v for v in values if v is not None]) > len(trace)
    # every earlier evaluation's state is gone before the next is evaluated:
    # a rejected probe's at once, an accepted one's once it is finished
    assert alive_at_evaluation == [[]] * len(evaluated)
    # the start point and each accepted probe an iteration started from are
    # finished once each, in order; no rejected probe is
    accepted = [evaluated[0][0]] + [evaluated[values.index(v)][0] for v in trace[1:]]
    points = [p for p, _ in finished]
    assert len(finished) in (len(accepted) - 1, len(accepted))
    assert all(np.array_equal(p, a) for p, a in zip(points, accepted))
    assert len({k for _, k in finished}) == len(finished)


def test_ffd_level_samples_maps_twice_per_value_probe_and_never_in_a_gradient(monkeypatch):
    objective_module = importlib.import_module("atlasreg.objective")
    dense, ascend = objective_module.dense_displacement, registration._ascend
    calls = []  # [kind, dense_displacement calls] per evaluation and per finish

    def counted_dense(t):
        calls[-1][1] += 1
        return dense(t)

    def counted_ascend(evaluate, *args):
        def counted_evaluate(x):
            calls.append(["value", 0])
            value, finish = evaluate(x)

            def counted_finish():
                calls.append(["gradient", 0])
                return finish()

            return value, counted_finish

        return ascend(counted_evaluate, *args)

    monkeypatch.setattr(objective_module, "dense_displacement", counted_dense)
    monkeypatch.setattr(registration, "_ascend", counted_ascend)
    register_ffd(_phantom((16, 16, 16)), _phantom((16, 16, 16), seed=2), None,
                 RegistrationConfig(levels=1, max_iter_per_level=4))
    kinds = [kind for kind, _ in calls]
    assert kinds.count("gradient") >= 1 and kinds.count("value") > kinds.count("gradient")
    assert all(n == (2 if kind == "value" else 0) for kind, n in calls)


def test_ffd_non_finite_objective_names_level_and_iteration(monkeypatch):
    def nan_objective(*args, **kwargs):
        return ObjectiveResult(np.nan, *[0.0] * 5, None, None)

    monkeypatch.setattr(registration, "objective", nan_objective)
    vol = _phantom((16, 16, 16))
    with pytest.raises(NumericalFailureError) as exc:
        register_ffd(vol, vol, None, SMALL_CFG)
    assert (exc.value.level, exc.value.iteration) == (0, 0)
    assert "level 0, iteration 0" in str(exc.value)


def test_ffd_non_finite_gradient_names_level_and_iteration(monkeypatch):
    # a NaN gradient sends every probe to NaN coefficients; the ascent must
    # stop on the gradient itself, not end the level as converged
    finished = registration.objective_gradient

    def nan_gradient(forward):
        return [np.full_like(g, np.nan) for g in finished(forward)]

    monkeypatch.setattr(registration, "objective_gradient", nan_gradient)
    with pytest.raises(NumericalFailureError) as exc:
        register_ffd(_phantom((16, 16, 16)), _phantom((16, 16, 16), seed=2), None, SMALL_CFG)
    assert (exc.value.level, exc.value.iteration) == (0, 0)
    assert str(exc.value) == "gradient is not finite (level 0, iteration 0)"


def test_affine_non_finite_gradient_raises_with_iteration(monkeypatch):
    overlap_nmi = registration._overlap_nmi

    def nan_finish(*args):
        value, finish = overlap_nmi(*args)
        return value, lambda: np.full_like(finish(), np.nan)

    monkeypatch.setattr(registration, "_overlap_nmi", nan_finish)
    with pytest.raises(NumericalFailureError, match="gradient is not finite at iteration 0") as exc:
        register_affine(_phantom((16, 16, 16)), _phantom((16, 16, 16), seed=2))
    assert (exc.value.level, exc.value.iteration) == (None, 0)


@pytest.mark.parametrize("shift_mm, all_in_bounds", [(0.0, True), (6.0, False)])
def test_ffd_passes_the_floating_mask_only_when_it_excludes_voxels(
        monkeypatch, shift_mm, all_in_bounds):
    masks = []
    real = registration.objective

    def spy(*args, **kwargs):
        masks.append(kwargs["flt_mask"])
        return real(*args, **kwargs)

    monkeypatch.setattr(registration, "objective", spy)
    vol = _phantom((16, 16, 16))
    shift = AffineTransform(np.array([[1.0, 0, 0, shift_mm], [0, 1, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]]))
    register_ffd(vol, vol, shift, RegistrationConfig(levels=1, max_iter_per_level=1))
    assert masks
    if all_in_bounds:
        assert all(m is None for m in masks)
    else:
        assert all(m is not None and m.any() and not m.all() for m in masks)


def test_ffd_of_a_floating_image_mapped_off_the_reference_fails_before_any_evaluation(
        monkeypatch):
    calls = []
    real = registration.objective

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(registration, "objective", counted)
    vol = _phantom((16, 16, 16))
    away = AffineTransform.from_linear(np.eye(3), (100.0, 0.0, 0.0))
    with pytest.raises(DegenerateInputError, match="no values"):
        register_ffd(vol, vol, away, RegistrationConfig(levels=1, max_iter_per_level=1))
    assert calls == []


# --- affine -----------------------------------------------------------------

def test_affine_self_registration_is_identity():
    vol = _phantom()
    a = register_affine(vol, vol)
    assert np.linalg.norm(a.matrix - np.eye(4)) <= 1e-2


def test_affine_recovers_translation():
    vol = _phantom(seed=2)
    shift_vox = np.array([4.0, 0.0, 0.0])
    m = np.eye(4)
    m[:3, 3] = shift_vox * np.asarray(vol.spacing)
    moved = warp_volume(vol, vol, AffineTransform(m))
    # registering moved (ref) to vol (float) should recover the same map
    a = register_affine(moved, vol)
    err_mm = np.linalg.norm(a.matrix[:3, 3] - m[:3, 3])
    lin_err = np.linalg.norm(a.matrix[:3, :3] - np.eye(3))
    assert err_mm + lin_err * 16 <= 0.5 * float(np.max(vol.spacing))


def test_affine_recovers_scale():
    vol = _phantom(seed=3)
    c = vol.world_from_voxel((np.asarray(vol.dims) - 1) / 2.0)
    m = np.eye(4)
    m[:3, :3] = np.eye(3) * 1.1
    m[:3, 3] = c - 1.1 * c
    scaled = warp_volume(vol, vol, AffineTransform(m))
    a = register_affine(scaled, vol)
    recovered_scale = np.diag(a.matrix[:3, :3])
    np.testing.assert_allclose(recovered_scale, 1.1, rtol=0.02)


def test_affine_does_not_depend_on_the_world_frame():
    # turning the world of both images by one rotation R turns the affine
    # by it: A_turned = R A R^T. Parameters on the world axes missed this by
    # 0.49 here (and by up to 3.7 on the 32^3 benchmark pairs).
    ref, flt = _xmod_pair((16, 16, 16))
    turn = np.eye(4)
    turn[:3, :3] = _rotation(1, 20.0) @ _rotation(0, 30.0)
    rotation = turn[:3, :3]
    turned = [Volume(v.data, v.spacing, rotation @ v.origin, rotation @ v.direction)
              for v in (ref, flt)]
    a = register_affine(ref, flt).matrix
    a_turned = register_affine(*turned).matrix
    assert np.abs(a - turn.T @ a_turned @ turn).max() <= 1e-4


def test_affine_rejects_constant_images():
    const = Volume(np.full((16, 16, 16), 5.0))
    with pytest.raises(DegenerateInputError):
        register_affine(const, const)


@pytest.mark.parametrize("max_iter", [(10,), (10, 5), (10, 5, 3, 1), (10, 0, 4), (10, 5, -1),
                                      (2, 2, 2.5), (True, 1, 1)])
def test_affine_max_iter_needs_one_cap_per_stage(max_iter):
    vol = _phantom((16, 16, 16))
    with pytest.raises(InvalidInputError, match="max_iter"):
        register_affine(vol, vol, max_iter=max_iter)


@pytest.mark.parametrize("register", [
    register_affine, lambda ref, flt: register_ffd(ref, flt, None, default_config("type1"))])
def test_registration_rejects_what_is_not_a_volume(register):
    vol = _phantom((16, 16, 16))
    with pytest.raises(InvalidInputError, match="flt must be a Volume"):
        register(vol, "x")
    with pytest.raises(InvalidInputError, match="ref must be a Volume"):
        register("x", vol)


def _affine_stages(monkeypatch, ref, flt):
    """(evaluate, start) of every stage `register_affine` runs, none ascended."""
    stages = []

    def capture(evaluate, x, *args):
        stages.append((evaluate, x.copy()))
        return x, [], True

    monkeypatch.setattr(registration, "_ascend", capture)
    register_affine(ref, flt)
    return stages


def _xmod_pair(dims=(24, 24, 24)):
    """An LGE reference and a bSSFP floating phantom of other noise."""
    spec = dict(dims=dims, noise_sigma=1.5, texture_amplitude=6.0)
    return (generate_phantom(scaled_spec(seed=1, modality="lge", **spec))[0],
            generate_phantom(scaled_spec(seed=2, modality="bssfp", **spec))[0])


def _rotation(axis, degrees):
    """The rotation by `degrees` about world axis `axis` (0, 1 or 2)."""
    c, s = np.cos(np.deg2rad(degrees)), np.sin(np.deg2rad(degrees))
    i, j = (k for k in range(3) if k != axis)
    rotation = np.eye(3)
    rotation[[i, i, j, j], [i, j, i, j]] = c, -s, s, c
    return rotation


def _rotated_stack(ref):
    """A bSSFP phantom on a 24x24x16 grid at (1, 1, 1.5) mm, rotated 8
    degrees about z and centred on ref's grid."""
    vol = generate_phantom(scaled_spec(seed=2, modality="bssfp", dims=(24, 24, 16),
                                       spacing=(1.0, 1.0, 1.5), noise_sigma=1.5,
                                       texture_amplitude=6.0))[0]
    rotation = _rotation(2, 8.0)
    half = (np.asarray(vol.dims) - 1) * np.asarray(vol.spacing) / 2
    center = ref.world_from_voxel((np.asarray(ref.dims) - 1) / 2)
    return Volume(vol.data, vol.spacing, center - rotation @ half, rotation)


@pytest.mark.parametrize("shift_mm, rotated", [
    pytest.param(3.5, False, id="3.5"),
    pytest.param(-3.3, False, id="-3.3"),
    pytest.param(3.5, True, id="3.5-rotated-stack"),
    pytest.param(-3.3, True, id="-3.3-rotated-stack"),
])
def test_affine_gradient_matches_central_differences_across_the_overlap_edge(
        monkeypatch, shift_mm, rotated):
    ref, flt = _xmod_pair()
    if rotated:
        flt = _rotated_stack(ref)
    (evaluate, start), = _affine_stages(monkeypatch, ref, flt)
    shells = []
    soft_overlap = registration._soft_overlap

    def spy(*args):
        mask, shell = soft_overlap(*args)
        shells.append(shell[0].size)
        return mask, shell

    monkeypatch.setattr(registration, "_soft_overlap", spy)
    # a shift along x and some shear and scale put a slab of the reference
    # grid into the one-voxel shell outside the floating grid
    q = start.copy()
    q[9, 0] += shift_mm
    q[0, 0] += 0.3
    q[4, 0] -= 0.5
    analytic = evaluate(q)[1]()[:, 0]
    assert shells[0] > 500
    # Measured 2e-4 on the unit grid, where leaving out the shell's weight
    # derivative gives 0.15-0.26. On the rotated stack the difference
    # quotient crosses trilinear kinks at larger steps (2.3e-2 at h = 2e-3,
    # at most 2.9e-3 at h = 1e-4); leaving out the spacing or the direction's
    # transpose in the voxel to world conversion gives 0.10-0.30.
    h, tol = (1e-4, 1e-2) if rotated else (0.002, 5e-3)
    fd = np.array([(evaluate(q + h * e[:, None])[0] - evaluate(q - h * e[:, None])[0]) / (2 * h)
                   for e in np.eye(12)])
    assert np.linalg.norm(analytic - fd) <= tol * np.linalg.norm(fd)


def test_affine_probe_finish_equals_the_row_major_finish_bit_for_bit():
    from bspline_oracle import grid_points, nmi_finish_masked

    ref = _xmod_pair((20, 18, 12))[0]
    flt = _rotated_stack(ref)
    ranges = (registration.robust_range(ref.data.reshape(-1).astype(np.float64)),
              registration.robust_range(flt.data.reshape(-1)))
    # a sheared, scaled and shifted map that puts a slab of ref's voxels
    # into the one-voxel shell outside flt's oblique, anisotropic grid
    to_voxel = flt.direction / np.asarray(flt.spacing)
    m3 = np.array([[1.1, 0.05, 0.0], [-0.04, 0.95, 0.02], [0.0, 0.03, 1.05]])
    linear = m3.T @ to_voxel
    offset = (np.array([-3.2, 1.5, 0.7]) - flt.origin) @ to_voxel
    value, finish = registration._overlap_nmi(ref, flt, linear, offset, ranges)
    field = finish()

    points = grid_points(ref.grid, world=True) @ linear + offset
    stencil = TrilinearStencil(flt.dims, points)
    mask, shell = registration._soft_overlap(stencil, points)
    assert shell[0].size > 100 and not mask.all()
    values = stencil.gather(flt.data)[mask]
    assert value == nmi(_nmi_deposit(ref, flt, mask, values.copy(), ranges, shell)[0])
    assert field.flags.c_contiguous
    expected = nmi_finish_masked(ref, flt, mask, values, ranges, stencil, shell, points)
    assert np.array_equal(field.view(np.uint64), expected.view(np.uint64))


def test_affine_score_is_the_hard_masked_nmi_inside_the_grid_and_not_across_its_edge():
    ref, flt = _xmod_pair()
    ranges = (registration.robust_range(ref.data.reshape(-1).astype(np.float64)),
              registration.robust_range(flt.data.reshape(-1)))
    n = np.asarray(flt.dims) - 1.0
    # both grids have unit spacing, origin 0 and identity direction
    linear = 0.9 * np.eye(3)

    def scores(offset):
        soft = registration._overlap_nmi(ref, flt, linear, offset, ranges)[0]
        # the FFD's overlap: only the points inside the grid deposit
        stencil = TrilinearStencil(flt.dims, ref.grid.world_points() @ linear + offset)
        inside = stencil.inside
        hard = nmi(_nmi_deposit(ref, flt, inside, stencil.gather(flt.data)[inside], ranges)[0])
        return soft, hard, inside

    soft, hard, inside = scores(0.05 * n)  # every point maps into [0.05, 0.95] n
    assert inside.all() and soft == hard
    # x now reaches down to -1.45: a slab maps into the one-voxel shell
    soft, hard, inside = scores(0.05 * n - [2.6, 0.0, 0.0])
    assert not inside.all() and soft != hard


def test_affine_builds_one_joint_histogram_per_probe(monkeypatch):
    objective_module = importlib.import_module("atlasreg.objective")
    deposit, ascend = objective_module._nmi_deposit, registration._ascend
    calls = {"evaluate": 0, "finish": 0, "histogram": 0}

    def counted_deposit(*args, **kwargs):
        calls["histogram"] += 1
        return deposit(*args, **kwargs)

    def counted_ascend(evaluate, *args):
        def counted_evaluate(x):
            calls["evaluate"] += 1
            value, finish = evaluate(x)

            def counted_finish():
                calls["finish"] += 1
                return finish()

            return value, counted_finish

        return ascend(counted_evaluate, *args)

    # the NMI core's value pass deposits every histogram
    monkeypatch.setattr(objective_module, "_nmi_deposit", counted_deposit)
    monkeypatch.setattr(registration, "_nmi_deposit", counted_deposit)
    monkeypatch.setattr(registration, "_ascend", counted_ascend)
    register_affine(*_xmod_pair((32, 32, 32)), max_iter=(4, 4, 4))
    assert calls["finish"] >= 2
    assert calls["histogram"] == calls["evaluate"]


# --- FFD ---------------------------------------------------------------------

def test_ffd_self_registration_stays_near_identity():
    vol = _phantom(seed=4)
    res = register_ffd(vol, vol, AffineTransform.identity(), SMALL_CFG)
    max_disp_vox = max_displacement(res.fwd) / float(np.min(vol.spacing))
    assert max_disp_vox <= 0.1
    assert max_displacement(res.bwd) / float(np.min(vol.spacing)) <= 0.1


def test_ffd_trace_is_monotone_and_levels_double():
    vol = _phantom(seed=5)
    res = register_ffd(vol, vol, AffineTransform.identity(), SMALL_CFG)
    assert len(res.objective_trace) == SMALL_CFG.levels
    for trace in res.objective_trace:
        assert len(trace) >= 1
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
    # grid spacing in full-resolution voxels halves between levels
    assert res.fwd.grid_spacing == (4.0, 4.0, 4.0)


def test_ffd_recovers_small_deformation():
    from atlasreg.transforms import dense_displacement

    vol = _phantom((32, 32, 32), seed=6)
    t_true = random_smooth_deformation(vol, 2.5, 8.0, seed=3)
    warped = warp_volume(vol, vol, AffineTransform.identity(), t_true)
    res = register_ffd(warped, vol, AffineTransform.identity(), SMALL_CFG)

    w = vol.grid.world_points()
    rec = w + dense_displacement(res.fwd).reshape(-1, 3)
    tru = w + dense_displacement(t_true).reshape(-1, 3)
    err = np.sqrt(((rec - tru) ** 2).sum(-1))
    initial = np.sqrt((dense_displacement(t_true).reshape(-1, 3) ** 2).sum(-1))
    assert err.mean() < 0.5 * initial.mean()


def test_registration_is_deterministic():
    vol = _phantom((24, 24, 24), seed=7)
    flt = _phantom((24, 24, 24), seed=8)
    cfg = RegistrationConfig(levels=2, max_iter_per_level=15,
                             final_grid_spacing=4.0)
    r1 = register_ffd(vol, flt, AffineTransform.identity(), cfg)
    r2 = register_ffd(vol, flt, AffineTransform.identity(), cfg)
    np.testing.assert_array_equal(r1.fwd.coefficients, r2.fwd.coefficients)
    np.testing.assert_array_equal(r1.bwd.coefficients, r2.bwd.coefficients)
    assert r1.objective_trace == r2.objective_trace


@pytest.mark.parametrize("spacing, same", [(1.0, True), (2.0, True), (5.0, False)])
def test_ffd_on_lattices_under_four_voxels_keeps_the_every_voxel_penalty_bit_for_bit(
        monkeypatch, spacing, same):
    # the type-2 preset's lattice (1 voxel) and the benchmark's type-2 one
    # (2 voxels) sample every voxel, so the registration is bit for bit that
    # of the every-voxel penalty; the type-1 lattice (5 voxels) samples
    # every other voxel along each axis, and its result moves
    from bspline_oracle import roundtrip_every_voxel

    objective_module = importlib.import_module("atlasreg.objective")
    ref, flt = _phantom((16, 16, 16)), _phantom((16, 16, 16), seed=2)
    cfg = RegistrationConfig(levels=2, max_iter_per_level=3, final_grid_spacing=spacing)
    sampled = register_ffd(ref, flt, None, cfg)
    monkeypatch.setattr(objective_module, "_roundtrip", roundtrip_every_voxel)
    every = register_ffd(ref, flt, None, cfg)
    for name in ("fwd", "bwd"):
        a, b = getattr(sampled, name).coefficients, getattr(every, name).coefficients
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)) is same
    assert (sampled.objective_trace == every.objective_trace) is same


def _textured(dims, modality, seed):
    return generate_phantom(scaled_spec(dims=dims, modality=modality, seed=seed,
                                        noise_sigma=1.5, texture_amplitude=6.0))


def _deformed(vol, seed):
    t = random_smooth_deformation(vol, 3.0, 8.0, seed=seed)
    return t, warp_volume(vol, vol, AffineTransform.identity(), t)


def test_ffd_result_is_stable_under_gradient_rounding(monkeypatch):
    # a 2-voxel lattice across modalities, like the type-2 preset: a 1e-14
    # relative change of every gradient must not grow into the result
    ref = _textured((24, 24, 24), "lge", 11)[0]
    _, flt = _deformed(_textured((24, 24, 24), "bssfp", 12)[0], 13)
    cfg = RegistrationConfig(levels=3, max_iter_per_level=5, final_grid_spacing=2.0)
    exact = register_ffd(ref, flt, None, cfg)

    ascend, rng = registration._ascend, np.random.default_rng(0)

    def perturbed_ascend(evaluate, *args):
        def perturbed_evaluate(x):
            value, finish = evaluate(x)

            def perturbed_finish():
                g = finish()
                return g * (1.0 + 1e-14 * rng.standard_normal(g.shape))

            return value, perturbed_finish

        return ascend(perturbed_evaluate, *args)

    monkeypatch.setattr(registration, "_ascend", perturbed_ascend)
    perturbed = register_ffd(ref, flt, None, cfg)
    a = np.stack([exact.fwd.coefficients, exact.bwd.coefficients])
    b = np.stack([perturbed.fwd.coefficients, perturbed.bwd.coefficients])
    assert np.abs(a - b).max() / np.abs(a).max() < 1e-3


def test_ffd_labels_score_no_lower_dice_than_the_affine_alone():
    target, target_labels = _textured((32, 32, 32), "lge", 21)
    image, labels = _textured((32, 32, 32), "lge", 22)
    t, atlas = _deformed(image, 23)
    atlas_labels = warp_labels(labels, labels, AffineTransform.identity(), t)

    affine = register_affine(target, atlas)
    res = register_ffd(target, atlas, affine,
                       RegistrationConfig(levels=3, max_iter_per_level=5,
                                          final_grid_spacing=5.0))

    def mean_dice(ffd):
        warped = warp_labels(atlas_labels, target, affine, ffd)
        return np.mean([dice(warped, target_labels, c) for c in (1, 2, 3)])

    assert mean_dice(res.fwd) >= mean_dice(None)
