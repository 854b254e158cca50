"""Benchmark of the atlasreg registration and pseudo-label pipeline.

    python3 bench/run.py --workload ffd_stack --seed 0 --seconds 10 --trace 0

Runs one workload on seeded phantom data, in a fresh worker process with
OpenBLAS/OpenMP pinned to one thread (the only parallelism is the pipeline's
own `threads=2`), checks every output and prints, as the last line of stdout,
one JSON object with keys correct, attempted, failed and metrics. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` a traced
worker runs after an untraced one and the metrics are per layer, including
the tracing overhead. The line before it holds the run's metadata.

`--seed heldout` picks a seed kept out of development, for checking a claim
on inputs it was not tuned on. `--determinism` runs the worker twice and
fails unless quality and iteration counts agree exactly.

Must be started from a checkout of the repository: it imports `src/atlasreg`
from there and writes scratch files under `.bench_work/`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

# A run does a fixed number of cases, each with its own seeded inputs:
# enough to fill --seconds at the nominal seconds per case measured when the
# benchmark was defined (2-core x86 machine), and at least MIN_CASES, which
# keeps the run's median quality steady across seeds while all runs of the
# benchmark fit its time budget. The traced run and the untraced run it is
# compared with each do TRACE_CASES cases.
CASE_SECONDS = {"affine_xmod": 3.5, "ffd_stack": 12.0, "pseudo_label": 22.0}
MIN_CASES = {"affine_xmod": 3, "ffd_stack": 2, "pseudo_label": 2}
TRACE_CASES = 1
HELDOUT_SEED = 7919
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("dice_mean", "1"),
    ("nmi_final", "1"),
)


def seed_arg(text: str) -> int:
    return HELDOUT_SEED if text == "heldout" else int(text)


def cases_for(workload: str, seconds: float) -> int:
    return max(MIN_CASES[workload], math.ceil(seconds / CASE_SECONDS[workload]))


def run_worker(workload: str, seed: int, cases: int, traced: bool) -> dict:
    workdir = WORKDIR / f"{workload}-seed{seed}-trace{int(traced)}"
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--cases", str(cases), "--trace", str(int(traced)),
           "--workdir", str(workdir), "--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S, check=False, text=True)
    finally:
        for case_dir in workdir.glob("case*"):
            shutil.rmtree(case_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    values = list(values)
    if not values or not all(math.isfinite(v) for v in values):
        return math.nan
    return float(statistics.median(values))


@dataclass
class Outcome:
    """What one worker run measured and how many of its checks failed."""

    values: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    deterministic: list

    @classmethod
    def of(cls, res: dict) -> "Outcome":
        """wall_s is the mean over the cases, the time per result of a fixed
        set of inputs; quality is the median over the cases, which one poor
        registration does not move."""
        cases = res["cases"]
        walls = [c["wall_s"] for c in cases]
        values = {
            "setup_s": res["import_s"] + statistics.median(res["gen_s"]),
            "wall_s": math.fsum(walls) / len(walls),
            "peak_rss_mb": res["peak_rss_mb"],
            "dice_mean": _median(c["dice"] for c in cases),
            "asd_mm": _median(c["asd_mm"] for c in cases),
            "nmi_final": _median(c["nmi"] for c in cases),
        }
        problems = res["setup_problems"] + [p for c in cases for p in c["problems"]]
        return cls(
            values=values,
            attempted=sum(c["attempted"] for c in cases) + 1,
            failed=sum(c["failed"] for c in cases) + bool(res["setup_problems"]),
            problems=problems,
            deterministic=[[c[k] for k in ("dice", "asd_mm", "nmi", "ffd_counts", "fingerprint")]
                           for c in cases],
        )


def metadata(workload: str, seed: int, cases: int, versions: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=False).stdout.strip() or None
    except OSError:
        commit = None
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "atlasreg").glob("*.py"))
    return {
        "workload": workload, "seed": seed, "cases": cases, "git_commit": commit,
        "nproc": os.cpu_count(), "blas_thread_pin": THREAD_PIN, **versions,
        "python": platform.python_version(), "src_atlasreg_lines": src_lines,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(CASE_SECONDS))
    p.add_argument("--seed", type=seed_arg, required=True,
                   help=f"integer, or 'heldout' for seed {HELDOUT_SEED}")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--determinism", action="store_true",
                   help="run twice and require identical quality and counts")
    args = p.parse_args(argv)

    if not (SRC / "atlasreg" / "__init__.py").is_file():
        print(f"error: {SRC / 'atlasreg'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2

    cases = TRACE_CASES if args.trace else cases_for(args.workload, args.seconds)
    res = run_worker(args.workload, args.seed, cases, traced=False)
    outcomes = [Outcome.of(res)]
    extra = {"asd_mm": outcomes[0].values["asd_mm"]}

    if args.determinism:
        again = Outcome.of(run_worker(args.workload, args.seed, cases, traced=False))
        identical = again.deterministic == outcomes[0].deterministic
        again.attempted += 1
        if not identical:
            again.failed += 1
            again.problems.append("same seed, different quality or optimizer path")
        outcomes.append(again)
        extra["determinism_identical"] = identical

    if args.trace:
        import layers
        from spans import LayerStats

        traced_res = run_worker(args.workload, args.seed, cases, traced=True)
        traced = Outcome.of(traced_res)
        outcomes.append(traced)
        summaries = {phase: {name: LayerStats(**st) for name, st in summary.items()}
                     for phase, summary in traced_res["summary"].items()}
        ffd_counts = [f for c in traced_res["cases"] for f in c["ffd_counts"]]
        metrics = layers.layer_metrics(summaries, ffd_counts, traced.values["wall_s"],
                                       outcomes[0].values["wall_s"])
        units = dict(layers.ALL_METRICS)
        extra.update(absent_functions=traced_res["absent"], spans_file=traced_res["spans_file"],
                     span_count=traced_res["span_count"])
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": outcomes[0].values[name], "unit": unit}
                   for name, unit in END_TO_END}

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    if not finite:
        problems.append("a metric is not finite")
    for name, m in metrics.items():
        print(f"{args.workload:>12} {name:<42} {m['value']:>14.6g} {units[name]}")
    print(f"{args.workload:>12} {'asd_mm (not gated)':<42} {extra['asd_mm']:>14.6g} mm")
    print(f"{args.workload:>12} {'failed_frac':<42} {failed / attempted:>14.6g} 1")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"meta": metadata(args.workload, args.seed, cases, res["versions"]),
                      "failed_frac": failed / attempted, "problems": problems, **extra}))
    print(json.dumps({"correct": failed == 0 and finite, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
