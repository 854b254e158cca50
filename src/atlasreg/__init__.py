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
    build_joint_histogram,
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

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages_mapped() -> bool:
    """Keep freed heap memory mapped, so that the next allocation reuses it.

    By default glibc serves a block above its mmap threshold with mmap and
    unmaps it on free, and hands the free top of the heap back to the OS
    beyond its trim threshold. An FFD objective evaluation frees megabytes
    of temporaries that the next evaluation allocates again, so every
    evaluation faulted them back in as zero-filled pages. Here blocks up to
    32 MiB come from the heap, and up to 128 MiB of free heap stays mapped.
    Both thresholds are set: setting either one alone turns off glibc's
    dynamic thresholds and faults more than setting none. Forked workers
    and every thread's arena inherit the setting.

    Returns whether both calls succeeded: False, with nothing changed,
    where the C library has no `mallopt`.
    """
    import ctypes  # here, so that the package exports no `ctypes`

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 128 << 20) == 1)


_keep_freed_pages_mapped()
