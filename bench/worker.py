"""One benchmark process: set up a workload's cases, run them, check outputs.

run.py starts this in a fresh process with BLAS/OpenMP pinned to one thread
and `src` and `bench` on the path. It prints one JSON object on stdout:

    python3 bench/worker.py --workload ffd_stack --seed 0 --cases 3 --trace 0 \
        --t0 <time.time() at spawn> --workdir .bench_work/x

Each case has its own inputs, made from the seed and the case index, and is
set up just before it runs.
"""
from __future__ import annotations

import argparse
import json
import resource
import time
from dataclasses import asdict
from pathlib import Path

# Case 0 is generated this many times; the copies must be byte-identical.
SETUP_REPEATS = 3


def run(workload: str, seed: int, n_cases: int, traced: bool, t0: float,
        workdir: Path) -> dict:
    import layers
    import numpy
    import scipy
    import spans
    import workloads

    import_s = time.time() - t0
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()  # records spans only once installed
    if traced:
        tracer.install()

    gen_s, cases, setup_problems = [], [], []
    for case in range(n_cases):
        tracer.phase = "setup"
        first = None
        for _ in range(SETUP_REPEATS if case == 0 else 1):
            t = time.perf_counter()
            inputs = workloads.setup_case(workload, seed, case, workdir / f"case{case}")
            gen_s.append(time.perf_counter() - t)
            digest = workloads.input_digest(inputs)
            if first is None:
                first = digest
            elif digest != first:
                setup_problems.append(f"case {case}: inputs differ between generations")
        tracer.phase = "timed"
        cases.append(asdict(workloads.run_case(workload, inputs, tracer.quiet)))

    out = {
        "import_s": import_s,
        "gen_s": gen_s,
        "cases": cases,
        "setup_problems": setup_problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if traced:
        tracer.uninstall()
        out["summary"] = {phase: {name: vars(st) for name, st in tracer.summary(phase).items()}
                          for phase in ("setup", "timed")}
        out["absent"] = layers.absent_functions(tracer.names)
        spans_path = workdir / "spans.jsonl"
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
        out["spans_file"] = str(spans_path)
        out["span_count"] = len(tracer.spans)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    out = run(args.workload, args.seed, args.cases, bool(args.trace), args.t0, args.workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
