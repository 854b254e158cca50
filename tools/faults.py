"""Page faults and CPU time of the three benchmark workloads.

    python3 tools/faults.py

Runs case 0 of affine_xmod, ffd_stack and pseudo_label for seed 1 through
the calls of `tools/digests.py`, with the inputs and configurations of
`bench/workloads.py`, and prints one line per workload: the minor page
faults and the user and system CPU seconds of its registrations, input
generation left out. For pseudo_label, whose
registrations run in forked worker processes, the workers' counts
(`RUSAGE_CHILDREN`, taken once the pool has joined them) are added to the
process's and also shown on their own.

A minor fault maps one page the process touches for the first time, most
often a zero-filled page of memory the allocator has just taken from the
OS, so the count shows how much memory a run hands back to the OS and
takes again. It inherits the pins of `tools/digests.py`: BLAS on one thread,
as in the benchmark, OpenBLAS's Haswell kernels and numpy's AVX2 loops.
Imports `bench/run.py` and `bench/workloads.py` without writing to `bench/`.
"""
from __future__ import annotations

import resource
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ under tools/ or bench/

import digests  # noqa: E402  (puts src/ and bench/ on the path and sets its pins first)
import workloads  # noqa: E402

SEED = 1
# the workload calls of `tools/digests.py`, pseudo_label on the benchmark's threads
CALLS = (("affine_xmod", digests.affine_xmod_call, ()),
         ("ffd_stack", digests.ffd_stack_call, ()),
         ("pseudo_label", digests.pseudo_label_call, (workloads.PSEUDO_THREADS,)))


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


def main() -> int:
    for name, make_call, args in CALLS:
        own, workers = _measure(make_call(SEED, *args))
        faults, user, system = (a + b for a, b in zip(own, workers))
        line = (f"{name:<12} seed {SEED} case 0: {faults} minor faults, "
                f"user {user:.2f} s, sys {system:.2f} s")
        if workers[0]:
            line += f" (workers: {workers[0]} faults, user {workers[1]:.2f} s, sys {workers[2]:.2f} s)"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
