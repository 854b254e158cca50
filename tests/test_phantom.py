import numpy as np
import pytest

from atlasreg import InvalidInputError, PhantomSpec, generate_phantom, random_smooth_deformation
from atlasreg.phantom import DEFAULT_INTENSITIES, scaled_spec
from atlasreg.transforms import dense_displacement
from atlasreg.volume import Volume


def analytic_class_volumes(spec: PhantomSpec) -> dict[int, float]:
    """Expected class volumes in mm^3 from sphere/shell/lens formulas."""
    r_in = spec.lv_radius
    r_out = spec.lv_radius + spec.myo_thickness
    r_rv = spec.rv_radius
    d = float(np.linalg.norm(spec.rv_offset))

    def sphere(r):
        return 4.0 / 3.0 * np.pi * r ** 3

    def lens(r1, r2, dist):
        # intersection volume of two spheres
        if dist >= r1 + r2:
            return 0.0
        if dist <= abs(r1 - r2):
            return sphere(min(r1, r2))
        return (np.pi * (r1 + r2 - dist) ** 2
                * (dist ** 2 + 2 * dist * (r1 + r2) - 3 * (r1 - r2) ** 2)
                / (12 * dist))

    # RV keeps only the part of its sphere outside the outer myo surface
    return {
        1: sphere(r_in),
        2: sphere(r_out) - sphere(r_in),
        3: sphere(r_rv) - lens(r_rv, r_out, d),
    }


def test_noiseless_phantom_is_piecewise_constant():
    spec = PhantomSpec(noise_sigma=0.0, seed=1)
    vol, lbl = generate_phantom(spec)
    table = DEFAULT_INTENSITIES[spec.modality]
    for cls, value in table.items():
        region = vol.data[lbl.data == cls]
        if region.size:
            assert np.all(region == np.float32(value))


def test_same_seed_is_bitwise_identical():
    a_vol, a_lbl = generate_phantom(PhantomSpec(seed=7))
    b_vol, b_lbl = generate_phantom(PhantomSpec(seed=7))
    np.testing.assert_array_equal(a_vol.data, b_vol.data)
    np.testing.assert_array_equal(a_lbl.data, b_lbl.data)
    c_vol, _ = generate_phantom(PhantomSpec(seed=8))
    assert not np.array_equal(a_vol.data, c_vol.data)


def test_class_counts_match_analytic_volumes():
    spec = PhantomSpec(seed=2)
    _, lbl = generate_phantom(spec)
    voxel_mm3 = float(np.prod(spec.spacing))
    expected = analytic_class_volumes(spec)
    for cls in (1, 2, 3):
        measured = int((lbl.data == cls).sum()) * voxel_mm3
        assert measured == pytest.approx(expected[cls], rel=0.05)


def test_structures_form_one_foreground_component():
    from scipy import ndimage

    _, lbl = generate_phantom(PhantomSpec(seed=3))
    _, n = ndimage.label(lbl.data > 0, structure=np.ones((3, 3, 3), dtype=bool))
    assert n == 1


def test_margin_validation_rejects_oversized_structures():
    with pytest.raises(InvalidInputError):
        generate_phantom(PhantomSpec(dims=(24, 24, 24), seed=0))  # defaults too big


def test_modalities_are_not_affinely_related():
    ta = [DEFAULT_INTENSITIES["lge"][c] for c in range(4)]
    tb = [DEFAULT_INTENSITIES["bssfp"][c] for c in range(4)]
    order_a = np.argsort(ta)
    order_b = np.argsort(tb)
    assert not np.array_equal(order_a, order_b)  # no monotone map exists


def test_a_volume_too_small_for_the_margin_has_no_scaled_spec():
    with pytest.raises(InvalidInputError, match="volume too small for a phantom"):
        scaled_spec((8, 8, 8))


@pytest.mark.parametrize("offset", [(np.nan, 0.0, 0.0), (1.0, 2.0), [[1.0, 2.0], [3.0]]],
                         ids=["nan", "two", "ragged"])
def test_an_rv_offset_of_anything_but_three_finite_numbers_is_rejected(offset):
    with pytest.raises(InvalidInputError, match="rv_offset must be three finite numbers"):
        PhantomSpec(rv_offset=offset)


def test_unknown_modality_rejected():
    with pytest.raises(InvalidInputError):
        PhantomSpec(modality="ct")


@pytest.mark.parametrize("field", ["noise_sigma", "texture_amplitude"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_negative_or_non_finite_noise_rejected(field, value):
    with pytest.raises(InvalidInputError, match=field):
        PhantomSpec(**{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_negative_or_fractional_seed_rejected(seed):
    with pytest.raises(InvalidInputError, match="seed"):
        PhantomSpec(seed=seed)


# --- random deformation ---------------------------------------------------

def _geometry(dims=(32, 32, 32)):
    return Volume(np.zeros(dims, dtype=np.float32))


def test_zero_amplitude_gives_zero_field():
    t = random_smooth_deformation(_geometry(), 0.0, 8.0, seed=0)
    assert np.all(t.coefficients == 0.0)


def test_dense_maximum_lands_on_target():
    for seed in (0, 1, 2):
        t = random_smooth_deformation(_geometry(), 3.0, 8.0, seed=seed)
        u = dense_displacement(t)
        peak = np.sqrt((u ** 2).sum(axis=-1)).max()
        assert 0.95 * 3.0 <= peak <= 1.05 * 3.0


def test_deformation_deterministic_from_seed():
    a = random_smooth_deformation(_geometry(), 2.0, 8.0, seed=5)
    b = random_smooth_deformation(_geometry(), 2.0, 8.0, seed=5)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    c = random_smooth_deformation(_geometry(), 2.0, 8.0, seed=6)
    assert not np.array_equal(a.coefficients, c.coefficients)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("max_disp_mm", [0.0, 2.0])
def test_deformation_rejects_a_negative_or_fractional_seed(max_disp_mm, seed):
    with pytest.raises(InvalidInputError, match="seed"):
        random_smooth_deformation(_geometry(), max_disp_mm, 8.0, seed=seed)


@pytest.mark.parametrize("max_disp_mm", [-1.0, float("nan"), float("inf"), "2"])
def test_deformation_rejects_a_bad_amplitude(max_disp_mm):
    with pytest.raises(InvalidInputError, match="max_disp_mm"):
        random_smooth_deformation(_geometry(), max_disp_mm, 4, seed=1)


def test_warped_labels_keep_single_component_at_five_voxels():
    from scipy import ndimage

    from atlasreg.transforms import AffineTransform, warp_labels

    spec = PhantomSpec(seed=4)
    vol, lbl = generate_phantom(spec)
    t = random_smooth_deformation(vol, 5.0, 8.0, seed=11)
    warped = warp_labels(lbl, lbl, AffineTransform.identity(), t)
    _, n = ndimage.label(warped.data > 0, structure=np.ones((3, 3, 3), dtype=bool))
    assert n == 1
