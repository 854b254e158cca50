"""Bit-identity digests of the three benchmark workloads.

    python3 tools/digests.py                      # print the digest lines
    python3 tools/digests.py --check DIGESTS.txt  # and compare them with a file

Runs case 0 of affine_xmod, ffd_stack and pseudo_label for seed 1 and the
held-out seed, with the inputs and configurations of `bench/workloads.py`,
and prints one line per workload and seed. Each digest is the first 16 hex
digits of a SHA-256 over the float64 bytes of:

- affine_xmod: the affine matrix
- ffd_stack: the forward and backward coefficients, then the objective traces
- pseudo_label, at threads 1 and at threads 2: the fused labels, then each
  registration's affine matrix, forward and backward coefficients and traces

A line per seed digests the inputs of case 0 of each workload: the first 16
hex digits of a SHA-256 over `workloads.input_digest`, the bytes of every
volume's values, spacing, origin and direction. Every phantom and every warp
of the inputs builds volumes, so a change to how volumes are built or stored
shows there first.

A `nifti` line per seed digests what `nifti.write_nifti` writes, header and
payload, for the target and the ground-truth labels of pseudo_label case 0:
the first 16 hex digits of a SHA-256 over the bytes of both files, which it
writes to a temporary directory. It pins the writer's bytes. A `transform`
line per seed does the same for what `transforms.save_transform` writes for
ffd_stack case 0's result: its affine, forward and backward FFD.

A last line per seed digests `metrics.evaluate` of each workload's output
labels against the ground truth, as the benchmark scores them (the floating
labels warped by the result; the fused labels of the threads-1 run): the
float64 bits of Dice, average surface distance and Hausdorff distance per
class (NaN where a distance is undefined). It pins the surface erosion and
the nearest-point search.

A change meant to keep the outputs bit for bit prints the same digests as its
parent. BLAS is pinned to one thread, as in the benchmark, because a
threaded BLAS may round differently. The lines should also not depend on the
x86-64 host, so OpenBLAS runs its Haswell (AVX2) kernels and numpy its AVX2
loops, not the AVX-512 ones: on an AVX-512 host either alone changes bits,
one of a matrix product, the other of `np.log` and `np.exp`. The C
library's scalar `exp` and `log` are not pinned. With `--check FILE`, the
lines that differ from FILE are printed after the digests and the exit
status is 1; `python3 tools/digests.py > DIGESTS.txt` rewrites the file.
Exits 1 also if the two pseudo_label runs differ. Imports `bench/run.py` and
`bench/workloads.py` without writing to `bench/`.
"""
from __future__ import annotations

import argparse
import difflib
import functools
import hashlib
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  (bench/run.py, which loads no numpy)

# before numpy loads its BLAS and picks its loops for this CPU
os.environ.update(run.THREAD_PIN, OPENBLAS_CORETYPE="Haswell",
                  NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from atlasreg import fusion, metrics, nifti, registration, transforms  # noqa: E402

SEEDS = (("1", 1), ("heldout", run.HELDOUT_SEED))


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _ffd_arrays(res):
    yield res.fwd.coefficients
    yield res.bwd.coefficients
    yield from res.objective_trace


# The registration call of each workload's case 0 for a seed, its inputs
# made: `tools/faults.py` times the same calls.

def affine_xmod_call(seed: int):
    inputs = workloads.make_inputs("affine_xmod", seed)
    return lambda: registration.register_affine(inputs["target"], inputs["floating"],
                                                max_iter=workloads.AFFINE_MAX_ITER)


def ffd_stack_call(seed: int):
    inputs = workloads.make_inputs("ffd_stack", seed)
    return lambda: registration.register_ffd(inputs["target"], inputs["floating"], None,
                                             workloads.FFD_STACK_CFG)


def pseudo_label_call(seed: int, threads: int, registrations_out=None):
    inputs = workloads.make_inputs("pseudo_label", seed)
    return lambda: fusion.build_pseudo_labels(
        inputs["target"], inputs["atlases"], inputs["same_patient"],
        type1_cfg=workloads.PSEUDO_TYPE1_CFG, type2_cfg=workloads.PSEUDO_TYPE2_CFG,
        threads=threads, registrations_out=registrations_out)


def _scored(workload: str, seed: int, labels=None, affine=None, ffd=None):
    """(the labels the benchmark scores, the ground truth) of case 0: `labels`,
    or the floating labels warped by `affine` and `ffd`."""
    inputs = workloads.make_inputs(workload, seed)
    if labels is None:
        labels = transforms.warp_labels(inputs["floating_labels"], inputs["target"], affine, ffd)
    return labels, inputs["gt"]


def affine_xmod(seed: int):
    """(digest, scored labels and ground truth)"""
    res = affine_xmod_call(seed)()
    return digest([res.matrix]), _scored("affine_xmod", seed, affine=res)


def ffd_stack(seed: int):
    """(digest, scored labels and ground truth, transform digest)"""
    res = ffd_stack_call(seed)()
    return (digest(_ffd_arrays(res)), _scored("ffd_stack", seed, affine=res.affine, ffd=res.fwd),
            _written_digest(functools.partial(transforms.save_transform, affine=res.affine,
                                              fwd=res.fwd, bwd=res.bwd)))


def pseudo_label(seed: int, threads: int):
    registrations: list = []
    fused = pseudo_label_call(seed, threads, registrations)()
    arrays = [fused.data]
    for res in registrations:
        arrays.append(res.affine.matrix)
        arrays.extend(_ffd_arrays(res))
    return digest(arrays), _scored("pseudo_label", seed, labels=fused)


def evaluate_digest(labels, gt) -> str:
    report = metrics.evaluate(labels, gt)
    values = [math.nan if v is None else v
              for c in metrics.FOREGROUND_CLASSES
              for v in (report.per_class[c].dice, report.per_class[c].asd_mm,
                        report.per_class[c].hausdorff_mm)]
    return digest([np.array(values)])


def input_digest(workload: str, seed: int) -> str:
    raw = workloads.input_digest(workloads.make_inputs(workload, seed, 0))
    return hashlib.sha256(raw).hexdigest()[:16]


def _written_digest(*writers) -> str:
    """The digest of the bytes each `writer(path)` writes, in turn."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        for write in writers:
            write(path)
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def nifti_digest(seed: int) -> str:
    inputs = workloads.make_inputs("pseudo_label", seed)
    return _written_digest(*(functools.partial(nifti.write_nifti, inputs[name])
                             for name in ("target", "gt")))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", type=Path, metavar="FILE",
                   help="print the lines that differ from FILE and exit 1 if any do")
    args = p.parse_args(argv)
    status = 0
    lines = []

    def emit(line):
        lines.append(line)
        print(line, flush=True)

    for name, seed in SEEDS:
        affine, scored = affine_xmod(seed)
        emit(f"affine_xmod  seed {name}: {affine}")
        ffd, scored_ffd, transform = ffd_stack(seed)
        emit(f"ffd_stack    seed {name}: {ffd}")
        (one, scored_fused), (two, _) = pseudo_label(seed, 1), pseudo_label(seed, 2)
        emit(f"pseudo_label seed {name}: {one} (threads 1), {two} (threads 2)")
        if one != two:
            print("pseudo_label differs between threads 1 and 2", file=sys.stderr)
            status = 1
        inputs = ", ".join(f"{w} {input_digest(w, seed)}" for w in workloads.WORKLOADS)
        emit(f"inputs       seed {name}: {inputs}")
        emit(f"nifti        seed {name}: pseudo_label {nifti_digest(seed)}")
        emit(f"transform    seed {name}: ffd_stack {transform}")
        scores = (("affine_xmod", scored), ("ffd_stack", scored_ffd),
                  ("pseudo_label", scored_fused))
        emit(f"evaluate     seed {name}: "
             + ", ".join(f"{w} {evaluate_digest(*pair)}" for w, pair in scores))
    if args.check is not None:
        diff = list(difflib.unified_diff(args.check.read_text().splitlines(), lines,
                                         str(args.check), "this run", n=0, lineterm=""))
        print("\n".join(diff) if diff else f"every line equals {args.check}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
