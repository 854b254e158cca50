"""Public entries of every module reject an argument of the wrong type with
an InvalidInputError that names the argument, and no exported entry raises
anything but a package error for a wrong value in any argument."""
import inspect
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import atlasreg
from atlasreg import (
    AffineTransform,
    AtlasRegError,
    DegenerateInputError,
    EvaluationReport,
    Grid,
    InvalidInputError,
    LabelVolume,
    ObjectiveWeights,
    PhantomSpec,
    ProbabilityVolume,
    RegistrationConfig,
    RegistrationResult,
    Volume,
    build_joint_histogram,
    dice,
    ensemble_fuse,
    generate_phantom,
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
from atlasreg.objective import (bending_energy, inconsistency_penalty, objective,
                                objective_gradient, robust_range, similarity_and_gradient)
from atlasreg.phantom import scaled_spec
from atlasreg.registration import build_pyramid, usable_levels
from atlasreg.transforms import (
    BSplineTransform,
    dense_displacement,
    max_displacement,
    splat_to_coefficients,
    subdivide,
)
from atlasreg.volume import TrilinearStencil, require_same_geometry


def _stencil(v):
    """A stencil of two points on v's grid."""
    return TrilinearStencil(v.dims, np.zeros((2, 3)))


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
    "scaled_spec dims strings": (lambda v, path: scaled_spec(dims=("a", 1, 1)), "dims"),
    "scaled_spec dims number": (lambda v, path: scaled_spec(dims=5), "dims"),
    "scaled_spec spacing strings": (lambda v, path: scaled_spec(spacing=("x", 1, 1)),
                                    "spacings"),
    "scaled_spec spacing None": (lambda v, path: scaled_spec(spacing=None), "spacings"),
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
    "BSplineTransform reference": (
        lambda v, path: BSplineTransform((4.0, 4.0, 4.0), np.zeros((4, 4, 4, 3)), v),
        "reference must be a Grid"),
    "BSplineTransform.zeros subnormal grid spacing": (
        lambda v, path: BSplineTransform.zeros(v, 1e-320), "grid spacing 1e-320"),
    "BSplineTransform.zeros tiny grid spacing": (
        lambda v, path: BSplineTransform.zeros(v, 1e-20), "grid spacing 1e-20"),
    "Grid NaN direction": (lambda v, path: Grid(v.dims, direction=np.full((3, 3), np.nan)),
                           "orthonormal"),
    "RegistrationConfig weights": (lambda v, path: RegistrationConfig(weights=(0.001, 0.001)),
                                   "weights must be a ObjectiveWeights"),
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
    "objective ranges number": (
        lambda v, path: objective(v, v, BSplineTransform.zeros(v, 4.0),
                                  BSplineTransform.zeros(v, 4.0), ObjectiveWeights(),
                                  ranges=5),
        "ranges must be two"),
    "build_joint_histogram ranges": (
        lambda v, path: build_joint_histogram(v, v, ranges=((0, 1),)), "ranges must be two"),
    "robust_range": (lambda v, path: robust_range("abc"), "values must be numbers"),
    "robust_range ragged": (lambda v, path: robust_range([[1.0], [2.0, 3.0]]),
                            "values must be numbers"),
    # TrilinearStencil is not exported, so the sweep below does not reach it
    "TrilinearStencil points": (lambda v, path: TrilinearStencil(v.dims, "x"),
                                "stencil points must be numbers"),
    "TrilinearStencil ragged points": (
        lambda v, path: TrilinearStencil(v.dims, [[0, 0, 0], [1, 1]]),
        "stencil points must be numbers"),
    "TrilinearStencil.gather data": (lambda v, path: _stencil(v).gather(np.full(v.dims, "a")),
                                     "gather takes one scalar field .* as data"),
    "TrilinearStencil.gradient data": (
        lambda v, path: _stencil(v).gradient(np.full(v.dims, "a")),
        "gradient takes one scalar field .* as data"),
    "TrilinearStencil.gather oob": (lambda v, path: _stencil(v).gather(v.data, oob="x"),
                                    "oob must be None or a number"),
    "TrilinearStencil.scatter": (lambda v, path: _stencil(v).scatter("x"),
                                 "scatter takes vecs of numbers"),
    "similarity_and_gradient ref_mask shape": (
        lambda v, path: similarity_and_gradient(v, v, sample_map(BSplineTransform.zeros(v, 4.0)),
                                                ref_mask=np.ones(7, bool)),
        "ref_mask must be numbers or bools of shape"),
    "similarity_and_gradient ref_mask strings": (
        lambda v, path: similarity_and_gradient(v, v, sample_map(BSplineTransform.zeros(v, 4.0)),
                                                ref_mask=np.full(v.dims, "x")),
        "ref_mask must be numbers or bools"),
    "similarity_and_gradient flt_valid strings": (
        lambda v, path: similarity_and_gradient(v, v, sample_map(BSplineTransform.zeros(v, 4.0)),
                                                flt_valid=np.full(v.dims, "x")),
        "flt_valid must be numbers or bools"),
    "build_joint_histogram mask strings": (
        lambda v, path: build_joint_histogram(v, v, mask=np.full(v.dims, "x")),
        "mask must be numbers or bools"),
    "objective flt_mask strings": (
        lambda v, path: objective(v, v, BSplineTransform.zeros(v, 4.0),
                                  BSplineTransform.zeros(v, 4.0), ObjectiveWeights(),
                                  flt_mask=np.full(v.dims, "x")),
        "flt_mask must be numbers or bools"),
    "splat_to_coefficients strings": (
        lambda v, path: splat_to_coefficients(BSplineTransform.zeros(v, 4.0),
                                              np.full(v.dims + (3,), "x")),
        "voxel_field shape"),
    "build_pyramid vol": (lambda v, path: build_pyramid("x", 2), "vol must be a Volume"),
    "build_pyramid levels": (lambda v, path: build_pyramid(v, 2.5), "levels"),
    "usable_levels requested": (lambda v, path: usable_levels((8, 8, 8), "a"), "requested"),
    "usable_levels dims": (lambda v, path: usable_levels("abc", 2), "dims must be three"),
    "usable_levels dims number": (lambda v, path: usable_levels(5, 2), "dims must be three"),
    "similarity_and_gradient sampled": (lambda v, path: similarity_and_gradient(v, v, "x"),
                                        "sampled must be a SampledMap"),
    "similarity_and_gradient ref": (
        lambda v, path: similarity_and_gradient("x", v, sample_map(BSplineTransform.zeros(v, 4.0))),
        "ref must be a Volume"),
    "objective_gradient number": (lambda v, path: objective_gradient(5),
                                  "forward must be a list"),
    "objective_gradient str": (lambda v, path: objective_gradient("ab"),
                               "forward must be a list"),
    "objective_gradient one finish": (lambda v, path: objective_gradient([lambda: 0.0]),
                                      "forward must hold two finishes"),
    "Grid.world_from_voxel str": (lambda v, path: v.grid.world_from_voxel("x"),
                                  "pts must be numbers"),
    "Grid.world_from_voxel two": (lambda v, path: v.grid.world_from_voxel([1, 2]),
                                  "pts must be numbers"),
    "Grid.voxel_from_world two": (lambda v, path: v.grid.voxel_from_world([1, 2]),
                                  "pts must be numbers"),
    "Volume.world_from_voxel two": (lambda v, path: v.world_from_voxel([1, 2]),
                                    "pts must be numbers"),
    "Volume.voxel_from_world two": (lambda v, path: v.voxel_from_world([1, 2]),
                                    "pts must be numbers"),
    "AffineTransform.apply str": (lambda v, path: AffineTransform.identity().apply("x"),
                                  "pts must be numbers"),
    "AffineTransform.apply two": (lambda v, path: AffineTransform.identity().apply([1, 2]),
                                  "pts must be numbers"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_public_entries_name_the_argument_of_a_wrong_type(tmp_path, case):
    call, match = _WRONG_TYPES[case]
    path = tmp_path / "out"
    with warnings.catch_warnings(), pytest.raises(InvalidInputError, match=match):
        warnings.simplefilter("error")  # the error comes first, with no warning before it
        call(Volume(np.zeros((4, 4, 4))), path)
    assert not path.exists()


def test_the_intensity_range_of_no_values_is_degenerate():
    with pytest.raises(DegenerateInputError, match="no values"):
        robust_range(np.array([]))


# --- the sweep of every exported entry ------------------------------------

def _wrong_values() -> tuple:
    """What each argument of each exported entry is swapped for in turn, made
    anew for each call, so that no call sees another's writes."""
    return (None, "x", 5, -1, 2.5, float("nan"), float("inf"), [], np.array([1.0, 2.0]),
            np.zeros((2, 2, 2, 2)), {}, object(), True, np.full((4, 4, 4), 1 + 1j),
            np.full((4, 4, 4), "7"), np.full((4, 4, 4), 1e300))


def _exported_entries() -> list[str]:
    """The package's exported callables, its error types left out."""
    return sorted(name for name, value in vars(atlasreg).items()
                  if not name.startswith("_") and callable(value)
                  and not (isinstance(value, type) and issubclass(value, BaseException)))


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    spec = scaled_spec((16, 16, 16), seed=3)
    img, lbl = generate_phantom(spec)
    ffd = BSplineTransform.zeros(img, 4.0)
    cfg = RegistrationConfig(levels=1, max_iter_per_level=2, final_grid_spacing=4.0)
    nii = tmp_path_factory.mktemp("sweep") / "img.nii"
    write_nifti(img, nii)
    xfm = nii.with_name("t.xfm")
    save_transform(xfm, AffineTransform.identity(), ffd, ffd)
    probs = ProbabilityVolume(np.stack([(lbl.data == c).astype(np.float32) for c in range(4)]))
    return SimpleNamespace(spec=spec, img=img, lbl=lbl, ffd=ffd, cfg=cfg, nii=nii, xfm=xfm,
                           probs=probs, affine=AffineTransform.identity())


# one valid call per exported entry: (positional args, keyword args)
_VALID_CALLS = {
    "AffineTransform": lambda s: ((np.eye(4),), {}),
    "BSplineTransform": lambda s: ((s.ffd.grid_spacing, s.ffd.coefficients, s.img.grid), {}),
    "EvaluationReport": lambda s: (({},), {}),
    "Grid": lambda s: (((16, 16, 16),), {}),
    "LabelVolume": lambda s: ((s.lbl.data,), {}),
    "ObjectiveWeights": lambda s: ((0.001, 0.001), {}),
    "PhantomSpec": lambda s: ((), {"dims": (16, 16, 16), "lv_radius": 2.0}),
    "ProbabilityVolume": lambda s: ((s.probs.channels,), {}),
    "RegistrationConfig": lambda s: ((1, 2, 4.0), {}),
    "RegistrationResult": lambda s: ((s.affine, None, None, [], []), {}),
    "Volume": lambda s: ((s.img.data,), {}),
    "bspline_kernel": lambda s: ((np.linspace(-3.0, 3.0, 7),), {}),
    "build_joint_histogram": lambda s: ((s.img, s.img), {}),
    "build_pseudo_labels": lambda s: ((s.img, [(s.img, s.lbl)]),
                                      {"type1_cfg": s.cfg, "type2_cfg": s.cfg,
                                       "registrations_out": []}),
    "consistency_refine": lambda s: ((s.lbl, s.lbl, s.lbl), {}),
    "default_config": lambda s: (("type1",), {}),
    "dice": lambda s: ((s.lbl, s.lbl, 1), {}),
    "ensemble_fuse": lambda s: (([s.probs, s.probs],), {}),
    "evaluate": lambda s: ((s.lbl, s.lbl), {}),
    "generate_phantom": lambda s: ((s.spec,), {}),
    "jaccard": lambda s: ((s.lbl, s.lbl, 1), {}),
    "largest_component": lambda s: ((s.lbl,), {}),
    "load_transform": lambda s: ((s.xfm,), {}),
    "majority_vote": lambda s: (([s.lbl, s.lbl],), {}),
    "nmi": lambda s: ((build_joint_histogram(s.img, s.img),), {}),
    "random_smooth_deformation": lambda s: ((s.img, 2.0, 4.0, 0), {}),
    "read_nifti": lambda s: ((s.nii,), {}),
    "register": lambda s: ((s.img, s.img, s.cfg), {}),
    "register_affine": lambda s: ((s.img, s.img), {}),
    "register_ffd": lambda s: ((s.img, s.img, s.affine, s.cfg), {}),
    "resample": lambda s: ((s.img, (2.0, 2.0, 2.0)), {}),
    "sample_map": lambda s: ((s.ffd,), {}),
    "save_transform": lambda s: (("out.xfm", s.affine, s.ffd), {}),
    "surface_distances": lambda s: ((s.lbl, s.lbl, 1), {}),
    "warp_labels": lambda s: ((s.lbl, s.img, s.affine, s.ffd), {}),
    "warp_volume": lambda s: ((s.img, s.img, s.affine, s.ffd), {}),
    "write_nifti": lambda s: ((s.img, "out.nii"), {}),
}


def test_the_sweep_has_one_valid_call_per_exported_entry():
    assert sorted(_VALID_CALLS) == _exported_entries()


@pytest.mark.parametrize("name", _exported_entries())
def test_a_wrong_value_in_any_argument_raises_a_package_error(sweep_inputs, tmp_path,
                                                             monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # where a path swapped for "x" is written
    entry = getattr(atlasreg, name)
    args, kwargs = _VALID_CALLS[name](sweep_inputs)
    entry(*args, **kwargs)
    signature = inspect.signature(entry)
    raw = []
    for argument in signature.parameters:
        for wrong in _wrong_values():
            args, kwargs = _VALID_CALLS[name](sweep_inputs)  # anew, as the wrong values
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            call.arguments[argument] = wrong
            try:
                entry(*call.args, **call.kwargs)
            except AtlasRegError:
                pass
            except OSError:  # a path that names no file
                if argument != "path":
                    raw.append(f"{argument}={wrong!r:.30}: OSError")
            except Exception as exc:
                raw.append(f"{argument}={wrong!r:.30}: {type(exc).__name__}")
    assert raw == []
