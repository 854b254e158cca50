"""B-spline non-rigid registration and multi-atlas label fusion for 3D volumes."""

from .errors import (
    AtlasRegError,
    DegenerateInputError,
    GeometryMismatchError,
    InvalidInputError,
    InvalidTransformError,
    NiftiFormatError,
    NumericalFailureError,
    TruncatedFileError,
    UndefinedMetricError,
    UnsupportedDatatypeError,
    UnsupportedDimensionalityError,
)
from .fusion import (
    build_pseudo_labels,
    consistency_refine,
    ensemble_fuse,
    largest_component,
    majority_vote,
)
from .metrics import (
    EvaluationReport,
    dice,
    evaluate,
    jaccard,
    surface_distances,
)
from .nifti import read_nifti, write_nifti
from .objective import (
    ObjectiveWeights,
    bending_energy,
    build_joint_histogram,
    inconsistency_penalty,
    nmi,
    sample_map,
)
from .phantom import PhantomSpec, generate_phantom, random_smooth_deformation
from .registration import (
    RegistrationConfig,
    RegistrationResult,
    default_config,
    register,
    register_affine,
    register_ffd,
)
from .transforms import (
    AffineTransform,
    BSplineTransform,
    bspline_kernel,
    load_transform,
    save_transform,
    warp_labels,
    warp_volume,
)
from .volume import (
    Grid,
    LabelVolume,
    ProbabilityVolume,
    Volume,
    resample,
)

__version__ = "0.1.0"
