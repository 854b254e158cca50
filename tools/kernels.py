"""Median times of the per-voxel kernels of the FFD objective, the affine
similarity's finish, the pyramid's smoothing, the warps and the surface
distances.

    python3 tools/kernels.py

Builds one trilinear stencil at fixed seeds: the mapped points of a smooth
B-spline displacement (at most 3 mm, lattice 5 x 5 x 1.25 voxels) on a
128 x 128 x 16 grid of 1.25 x 1.25 x 5 mm, the geometry of the ffd_stack
benchmark workload, with uniform-noise reference and floating images. It
then prints the median milliseconds over REPEATS calls, after one warm-up
call, and the tracemalloc peak (MiB) of one more call, of:

- map sampling: `sample_map` of the displacement's lattice, which builds
  the dense displacement, the points' voxel coordinates and the stencil
- gather: the floating image at the points
- gradient: the gradient of the floating image at the points
- scatter, 3 channels: (N, 3) vectors onto the grid
- Parzen rows (8): the four cubic footprint rows and their four
  derivative rows at the deposit's floating bin offsets, all held at once
- Parzen deposit: the joint histogram of the points inside the grid, at
  fixed intensity ranges, as the FFD similarity deposits it
- deposit finish: that deposit's gradient with respect to the points
- affine finish, shell: the gradient of a `registration._overlap_nmi` probe
  that maps the reference onto the floating grid shifted by half a voxel
  along x, so that the last x face's points lie half a voxel outside, in
  the soft overlap's shell, and the finish takes their deposit-weight
  derivative as well
- Gaussian smooth: the float64 reference image at sigma 1.4 voxel, the
  pre-smoothing of every pyramid level
- warps: `warp_volume_masked` of the floating image and `warp_labels` of
  the phantom's labels onto the reference grid, each through an affine (a
  turn of 0.05 rad about z and a shift of a few mm) and the displacement
- surface distances: `surface_distances` of the three classes between the
  labels of an ffd_stack phantom and those labels warped by the displacement

BLAS is pinned to one thread, as in the benchmark. Timings on one machine
compare; the machine's own drift between runs can reach 20 %, so compare
runs made one after the other. Imports nothing from `bench/`.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))
# before numpy loads its BLAS
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402

from atlasreg import (  # noqa: E402
    AffineTransform,
    PhantomSpec,
    Volume,
    generate_phantom,
    random_smooth_deformation,
    surface_distances,
    warp_labels,
)
from atlasreg.objective import (  # noqa: E402
    _bin_offsets,
    _bin_positions,
    _footprint_row,
    _nmi_deposit,
    robust_range,
    sample_map,
)
from atlasreg.registration import _overlap_nmi  # noqa: E402
from atlasreg.transforms import warp_volume_masked  # noqa: E402
from atlasreg.volume import gaussian_smooth  # noqa: E402

DIMS, SPACING = (128, 128, 16), (1.25, 1.25, 5.0)
LATTICE = (5.0, 5.0, 1.25)  # lattice spacing in voxels: 6.25 mm on every axis
REPEATS = 15


def median_ms(run, prepare=lambda: None) -> float:
    """Median ms of `run(prepare())` over REPEATS calls after one warm-up;
    `prepare` is not timed."""
    run(prepare())
    times = []
    for _ in range(REPEATS):
        arg = prepare()
        t0 = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def peak_mib(run, prepare) -> float:
    """The tracemalloc peak of one `run(prepare())`, `prepare` not traced."""
    arg = prepare()
    tracemalloc.start()
    try:
        run(arg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    rng = np.random.default_rng(0)
    ref, flt = (Volume(rng.uniform(0.0, 100.0, DIMS).astype(np.float32), SPACING)
                for _ in range(2))
    ffd = random_smooth_deformation(ref, 3.0, LATTICE, seed=0)
    stencil = sample_map(ffd).stencil
    vecs = rng.normal(size=(stencil.base.size, 3))
    mask = stencil.inside
    values = stencil.gather(flt.data)[mask]
    ranges = (robust_range(ref.data.reshape(-1)[mask].astype(np.float64)),
              robust_range(values))

    t = _bin_offsets(_bin_positions(values.copy(), ranges[1])[0])[0]

    image = ref.data.astype(np.float64)
    _, labels = generate_phantom(PhantomSpec(dims=DIMS, spacing=SPACING, seed=0))
    warped = warp_labels(labels, labels, None, ffd)

    def deposit(samples):
        return _nmi_deposit(ref, flt, mask, samples, ranges)

    # reference world points to floating voxel coordinates, half a voxel on
    # along x: the probe's shell is the last x face
    to_voxel, shift = np.diag(1.0 / np.asarray(SPACING)), np.array([0.5, 0.0, 0.0])
    c, s = np.cos(0.05), np.sin(0.05)
    affine = AffineTransform.from_linear([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
                                         (1.5, -1.0, 2.0))

    kernels = (
        ("map sampling", lambda _: sample_map(ffd), lambda: None),
        ("gather", lambda _: stencil.gather(flt.data), lambda: None),
        ("gradient", lambda _: stencil.gradient(flt.data), lambda: None),
        ("scatter, 3 channels", lambda _: stencil.scatter(vecs), lambda: None),
        ("Parzen rows (8)",
         lambda _: [_footprint_row(t, k, d1) for d1 in (False, True) for k in range(4)],
         lambda: None),
        # the deposit computes its bin positions in place of the samples
        ("Parzen deposit", deposit, values.copy),
        ("deposit finish", lambda finish: finish(stencil), lambda: deposit(values.copy())[1]),
        ("affine finish, shell", lambda finish: finish(),
         lambda: _overlap_nmi(ref, flt, to_voxel, shift, ranges)[1]),
        ("Gaussian smooth", lambda _: gaussian_smooth(image, 1.4), lambda: None),
        ("warps", lambda _: (warp_volume_masked(flt, ref, affine, ffd),
                             warp_labels(labels, ref, affine, ffd)), lambda: None),
        ("surface distances",
         lambda _: [surface_distances(warped, labels, c) for c in (1, 2, 3)], lambda: None),
    )
    print(f"{DIMS[0]}x{DIMS[1]}x{DIMS[2]} grid, {stencil.base.size} points "
          f"({int(mask.sum())} inside), median of {REPEATS}", flush=True)
    for name, run, prepare in kernels:
        print(f"{name:<20} {median_ms(run, prepare):8.2f} ms "
              f"{peak_mib(run, prepare):8.1f} MiB peak", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
