"""Page faults and CPU time of the three benchmark workloads.

    python3 tools/faults.py

Runs case 0 of affine_xmod, ffd_stack and pseudo_label for seed 1, with the
inputs and configurations of `bench/workloads.py`, and prints one line per
workload: the minor page faults and the user and system CPU seconds of its
registrations, input generation left out. For pseudo_label, whose
registrations run in forked worker processes, the workers' counts
(`RUSAGE_CHILDREN`, taken once the pool has joined them) are added to the
process's and also shown on their own.

A minor fault maps one page the process touches for the first time, most
often a zero-filled page of memory the allocator has just taken from the
OS, so the count shows how much memory a run hands back to the OS and
takes again. BLAS is pinned to one thread, as in the benchmark. Imports
`bench/run.py` and `bench/workloads.py` without writing to `bench/`.
"""
from __future__ import annotations

import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  (bench/run.py, which loads no numpy)

os.environ.update(run.THREAD_PIN)  # before numpy loads its BLAS

import workloads  # noqa: E402
from atlasreg import fusion, registration  # noqa: E402

SEED = 1


def _usage(who):
    u = resource.getrusage(who)
    return u.ru_minflt, u.ru_utime, u.ru_stime


def _measure(call) -> tuple:
    """(faults, user s, sys s) of `call()` in this process, then in the
    worker processes it started and joined."""
    before = [_usage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    call()
    after = [_usage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return tuple(tuple(b - a for a, b in zip(x, y)) for x, y in zip(before, after))


def affine_xmod():
    inputs = workloads.make_inputs("affine_xmod", SEED)
    return lambda: registration.register_affine(inputs["target"], inputs["floating"],
                                                max_iter=workloads.AFFINE_MAX_ITER)


def ffd_stack():
    inputs = workloads.make_inputs("ffd_stack", SEED)
    return lambda: registration.register_ffd(inputs["target"], inputs["floating"], None,
                                             workloads.FFD_STACK_CFG)


def pseudo_label():
    inputs = workloads.make_inputs("pseudo_label", SEED)
    return lambda: fusion.build_pseudo_labels(
        inputs["target"], inputs["atlases"], inputs["same_patient"],
        type1_cfg=workloads.PSEUDO_TYPE1_CFG, type2_cfg=workloads.PSEUDO_TYPE2_CFG,
        threads=workloads.PSEUDO_THREADS)


def main() -> int:
    for workload in (affine_xmod, ffd_stack, pseudo_label):
        own, workers = _measure(workload())
        faults, user, system = (a + b for a, b in zip(own, workers))
        line = (f"{workload.__name__:<12} seed {SEED} case 0: {faults} minor faults, "
                f"user {user:.2f} s, sys {system:.2f} s")
        if workers[0]:
            line += f" (workers: {workers[0]} faults, user {workers[1]:.2f} s, sys {workers[2]:.2f} s)"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
