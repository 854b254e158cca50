"""Public entries of every module reject an argument of the wrong type with
an InvalidInputError that names the argument."""
import numpy as np
import pytest

from atlasreg import (
    AffineTransform,
    DegenerateInputError,
    InvalidInputError,
    PhantomSpec,
    ProbabilityVolume,
    Volume,
    bending_energy,
    build_joint_histogram,
    dice,
    ensemble_fuse,
    generate_phantom,
    inconsistency_penalty,
    jaccard,
    largest_component,
    load_transform,
    nmi,
    read_nifti,
    register,
    register_affine,
    register_ffd,
    sample_map,
    save_transform,
    surface_distances,
    write_nifti,
)
from atlasreg.objective import ObjectiveWeights, objective, robust_range
from atlasreg.registration import build_pyramid, usable_levels
from atlasreg.transforms import (
    BSplineTransform,
    dense_displacement,
    max_displacement,
    splat_to_coefficients,
    subdivide,
)
from atlasreg.volume import require_same_geometry


# one call per row: (the call on an intensity volume v and an output path,
# the InvalidInputError message it must raise)
_WRONG_TYPES = {
    "register_affine max_iter": (lambda v, path: register_affine(v, v, max_iter=5),
                                 "max_iter"),
    "register_ffd cfg": (lambda v, path: register_ffd(v, v, None, None),
                         "cfg must be a RegistrationConfig"),
    "register cfg": (lambda v, path: register(v, v, None), "cfg must be a RegistrationConfig"),
    "subdivide t": (lambda v, path: subdivide("x", v), "t must be a BSplineTransform"),
    "save_transform affine": (lambda v, path: save_transform(path, "x"),
                              "affine must be a AffineTransform"),
    "save_transform path": (lambda v, path: save_transform(123, AffineTransform.identity()),
                            "path must be a str or PathLike"),
    "save_transform fwd": (lambda v, path: save_transform(path, AffineTransform.identity(), "x"),
                           "fwd must be a BSplineTransform or None"),
    "write_nifti str": (lambda v, path: write_nifti("x", path),
                        "vol must be a Volume or LabelVolume"),
    "write_nifti path": (lambda v, path: write_nifti(v, 987), "path must be a str or PathLike"),
    "write_nifti probabilities": (
        lambda v, path: write_nifti(ProbabilityVolume(np.full((2, 4, 4, 4), 0.5)), path),
        "vol must be a Volume or LabelVolume"),
    "ensemble_fuse": (lambda v, path: ensemble_fuse([v]),
                      r"probs\[0\] must be a ProbabilityVolume"),
    "PhantomSpec lv_radius": (lambda v, path: PhantomSpec(lv_radius="a"), "lv_radius"),
    "PhantomSpec noise_sigma": (lambda v, path: PhantomSpec(noise_sigma="a"), "noise_sigma"),
    "PhantomSpec modality": (lambda v, path: PhantomSpec(modality=["lge"]), "modality"),
    "largest_component": (lambda v, path: largest_component(v), "labels must be a LabelVolume"),
    "dice": (lambda v, path: dice(v, v, 1), "pred must be a LabelVolume"),
    "jaccard": (lambda v, path: jaccard(v, v, 1), "pred must be a LabelVolume"),
    "surface_distances": (lambda v, path: surface_distances(v, v, 1),
                          "pred must be a LabelVolume"),
    "PhantomSpec dims": (lambda v, path: generate_phantom(PhantomSpec(dims="a")), "dims"),
    "PhantomSpec spacing": (lambda v, path: PhantomSpec(spacing="a"), "spacing"),
    "PhantomSpec rv_offset": (lambda v, path: generate_phantom(PhantomSpec(rv_offset="a")),
                              "rv_offset"),
    "generate_phantom": (lambda v, path: generate_phantom("x"), "spec must be a PhantomSpec"),
    "build_joint_histogram": (lambda v, path: build_joint_histogram("x", v),
                              "ref must be a Volume"),
    "bending_energy": (lambda v, path: bending_energy("x"), "t must be a BSplineTransform"),
    "sample_map": (lambda v, path: sample_map("x"), "ffd must be a BSplineTransform"),
    "inconsistency_penalty": (lambda v, path: inconsistency_penalty("x", "x"),
                              "fwd must be a SampledMap"),
    "nmi": (lambda v, path: nmi("x"), "counts must be a ndarray"),
    "nmi 1-D": (lambda v, path: nmi(np.ones(3)), "counts must be a 2-D histogram"),
    "nmi 3-D": (lambda v, path: nmi(np.ones((2, 2, 2))), "counts must be a 2-D histogram"),
    "require_same_geometry a": (lambda v, path: require_same_geometry("x", v),
                                "a must be a Grid or a volume"),
    "require_same_geometry b": (lambda v, path: require_same_geometry(v, "x"),
                                "b must be a Grid or a volume"),
    "Volume data": (lambda v, path: Volume("x"), "data must be numbers"),
    "ProbabilityVolume channels": (lambda v, path: ProbabilityVolume("x"),
                                   "channels must be numbers"),
    "read_nifti": (lambda v, path: read_nifti(123), "path must be a str or PathLike"),
    "load_transform": (lambda v, path: load_transform(123), "path must be a str or PathLike"),
    "AffineTransform.from_linear shape": (
        lambda v, path: AffineTransform.from_linear(np.eye(2), [0, 0, 0]), "linear must be 3x3"),
    "AffineTransform.from_linear linear": (
        lambda v, path: AffineTransform.from_linear("x", [0, 0, 0]), "linear must be 3x3"),
    "AffineTransform.from_linear translation": (
        lambda v, path: AffineTransform.from_linear(np.eye(3), [0, 0]), "translation must be 3"),
    "BSplineTransform coefficients": (
        lambda v, path: BSplineTransform((4.0, 4.0, 4.0), "x", v.grid),
        "coefficients must be numbers"),
    "with_coefficients": (lambda v, path: BSplineTransform.zeros(v, 4.0).with_coefficients("x"),
                          "coefficients must be numbers"),
    "dense_displacement": (lambda v, path: dense_displacement(v),
                           "t must be a BSplineTransform"),
    "max_displacement": (lambda v, path: max_displacement(v), "t must be a BSplineTransform"),
    "splat_to_coefficients": (
        lambda v, path: splat_to_coefficients(BSplineTransform.zeros(v, 4.0),
                                              np.ones((3, 3, 3, 3))),
        "voxel_field shape"),
    "objective weights": (
        lambda v, path: objective(v, v, BSplineTransform.zeros(v, 4.0),
                                  BSplineTransform.zeros(v, 4.0), None),
        "weights must be a ObjectiveWeights"),
    "objective ranges": (
        lambda v, path: objective(v, v, BSplineTransform.zeros(v, 4.0),
                                  BSplineTransform.zeros(v, 4.0), ObjectiveWeights(),
                                  ranges=(1, 2)),
        "ranges must be two"),
    "build_joint_histogram ranges": (
        lambda v, path: build_joint_histogram(v, v, ranges=((0, 1),)), "ranges must be two"),
    "robust_range": (lambda v, path: robust_range("abc"), "values must be numbers"),
    "build_pyramid vol": (lambda v, path: build_pyramid("x", 2), "vol must be a Volume"),
    "build_pyramid levels": (lambda v, path: build_pyramid(v, 2.5), "levels"),
    "usable_levels requested": (lambda v, path: usable_levels((8, 8, 8), "a"), "requested"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_public_entries_name_the_argument_of_a_wrong_type(tmp_path, case):
    call, match = _WRONG_TYPES[case]
    path = tmp_path / "out"
    with pytest.raises(InvalidInputError, match=match):
        call(Volume(np.zeros((4, 4, 4))), path)
    assert not path.exists()


def test_the_intensity_range_of_no_values_is_degenerate():
    with pytest.raises(DegenerateInputError, match="no values"):
        robust_range(np.array([]))
