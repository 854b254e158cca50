"""Alternating pairs of benchmark runs of two revisions, and their summary.

    python3 tools/pairs.py PARENT CHANGE --workload ffd_stack --out BENCH_12.json
    python3 tools/pairs.py --summary BENCH_11.json

Checks the revisions PARENT and CHANGE out with `git worktree`, outside the
repository, as `parent` and `change` in one new temporary directory, so
that both trees' paths have the same length: the
ffd_stack workload's peak RSS follows the checkout's path length. Then runs
each tree's own `bench/run.py` in a subprocess, alternately. For each
workload, pair i runs seed i of the cycle `--seeds` (default 1, 2, 3,
heldout) in both trees, the parent first in even pairs and the change first
in odd ones, for `--rounds` cycles of the seeds, at BENCHMARK.json's
`run_seconds`. The worktrees are removed at the end.

Each run appends one JSON line to `--out`, in the format of BENCH_11.json:
side, pair, run_order (per workload), argv (of `bench/run.py`),
started_unix, loadavg (`os.getloadavg()` at the run's start), exit,
meta_line and result_line (the last two lines `bench/run.py` prints, or
null), tree_commit and comparison ("PARENT -> CHANGE", short hashes). The
pairs `--out` already holds for a comparison and workload are kept, and
new ones are numbered after them.

Then prints, over every record of `--out`, per comparison, workload and
end-to-end metric of BENCHMARK.json: the parent's and the change's medians
over their runs, the relative change of the medians, the pairs in which the
change is better, the parent's interquartile range, whether the change
passes the metric's bound, that is, is worse than the parent's median by at
most that fraction of it, and the number of failed runs left out of all of
these. `--summary FILE` prints that table for the records of FILE alone and
runs nothing.

Exits 1 when a run fails, by exiting nonzero or by reporting
`"correct": false`, and 2 on bad arguments. Changes nothing under `bench/`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900


def load_records(path) -> list[dict]:
    """The records of a file of one JSON object per line."""
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def failed(record: dict) -> bool:
    """Whether a run exited nonzero or reported `"correct": false`."""
    result = record["result_line"]
    return record["exit"] != 0 or not (result and result.get("correct") is True)


def _metric(record: dict, name: str) -> float:
    result = record["result_line"]
    try:
        return float(result["metrics"][name]["value"])
    except (KeyError, TypeError):
        return math.nan


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def summarize(records: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per comparison, workload and end-to-end metric, in the order
    they first appear: the sides' medians, the relative change of the
    medians, the pairs in which the change is better out of the pairs with
    both sides, the parent's interquartile range (`statistics.quantiles`,
    inclusive; NaN for one run), whether the change passes the metric's
    bound, and how many failed runs were left out. A failed run counts in
    none of the others, nor does its pair; a side with no run left, or a
    parent median of 0, gives NaN and does not pass."""
    groups: dict[tuple, list[dict]] = {}
    for record in records:
        groups.setdefault((record["comparison"], record["argv"][1]), []).append(record)
    rows = []
    for (comparison, workload), everything in groups.items():
        group = [r for r in everything if not failed(r)]
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            values = {side: [_metric(r, name) for r in group if r["side"] == side]
                      for side in SIDES}
            pairs: dict[int, dict] = {}
            for r in group:
                pairs.setdefault(r["pair"], {})[r["side"]] = _metric(r, name)
            both = [p for p in pairs.values() if len(p) == 2]
            wins = sum((p["change"] < p["parent"]) if lower else (p["change"] > p["parent"])
                       for p in both)
            parent, change = (_median(values[side]) for side in SIDES)
            q1, _, q3 = (statistics.quantiles(values["parent"], n=4, method="inclusive")
                         if len(values["parent"]) > 1 else (math.nan,) * 3)
            rel = (change - parent) / abs(parent) if parent else math.nan
            rows.append(dict(comparison=comparison, workload=workload, metric=name,
                             parent=parent, change=change, rel=rel, wins=wins,
                             pairs=len(both), parent_iqr=q3 - q1, bound=spec["bound"],
                             passes=(rel if lower else -rel) <= spec["bound"],
                             left_out=len(everything) - len(group)))
    return rows


def print_summary(rows: list[dict]) -> None:
    print(f"{'comparison':<20} {'workload':<13} {'metric':<12} {'parent':>10} {'change':>10} "
          f"{'rel':>8} {'wins':>6} {'parent_iqr':>10} {'bound':>6} passes  left_out")
    for r in rows:
        print(f"{r['comparison']:<20} {r['workload']:<13} {r['metric']:<12} "
              f"{r['parent']:>10.5g} {r['change']:>10.5g} {r['rel']:>+8.2%} "
              f"{r['wins']:>3}/{r['pairs']:<2} {r['parent_iqr']:>10.4g} {r['bound']:>6.2f} "
              f"{'yes' if r['passes'] else 'NO':>6}  {r['left_out']:>8}")


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(tree: Path, argv: list[str]) -> tuple[int, dict | None, dict | None]:
    """(exit code, meta line, result line) of one `bench/run.py` in `tree`."""
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", *argv], cwd=tree,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        return -1, None, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None, None


def run_pairs(trees: dict, commits: dict, workloads, seeds, rounds: int, seconds: float,
              out: Path) -> list[dict]:
    """Run the alternating pairs, each run for `seconds`, and append each
    run's record to `out`.
    Returns every record of `out`. Pairs of a comparison and workload that
    `out` already holds are kept: the new pairs are numbered after them,
    and their seeds and order go on from there."""
    comparison = " -> ".join(commits[side][:7] for side in SIDES)
    records = load_records(out) if out.exists() else []
    for workload in workloads:
        done = [r for r in records if (r["comparison"], r["argv"][1]) == (comparison, workload)]
        first = 1 + max((r["pair"] for r in done), default=-1)
        run_order = len(done)
        for pair in range(first, first + rounds * len(seeds)):
            argv = ["--workload", workload, "--seed", seeds[pair % len(seeds)],
                    "--seconds", f"{seconds:g}"]
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                record = dict(side=side, pair=pair, run_order=run_order, argv=argv,
                              started_unix=round(time.time(), 1),
                              loadavg=[round(x, 2) for x in os.getloadavg()])
                record["exit"], record["meta_line"], record["result_line"] = _run(
                    trees[side], argv)
                record.update(tree_commit=commits[side], comparison=comparison)
                with open(out, "a") as f:
                    f.write(json.dumps(record) + "\n")
                records.append(record)
                run_order += 1
                wall = _metric(record, "wall_s")
                print(f"{workload} pair {pair} {side:<6} seed {argv[3]:<8} "
                      f"wall_s {wall:.3f}{'  FAILED' if failed(record) else ''}", flush=True)
    return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("revisions", nargs="*", metavar="PARENT CHANGE")
    p.add_argument("--summary", metavar="FILE", help="summarise FILE's records only")
    p.add_argument("--workload", action="append", dest="workloads",
                   help="a workload to run (repeatable); default every one of BENCHMARK.json")
    p.add_argument("--seeds", nargs="+", default=["1", "2", "3", "heldout"])
    p.add_argument("--rounds", type=int, default=2, help="cycles of the seeds")
    p.add_argument("--out", type=Path, help="file the records are appended to")
    args = p.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.summary:
        if args.revisions:
            p.error("--summary takes no revisions")
        records = load_records(args.summary)
    else:
        if len(args.revisions) != 2 or args.out is None or args.rounds < 1:
            p.error("give PARENT, CHANGE, --out and a --rounds of at least 1")
        names = [w["name"] for w in benchmark["workloads"]]
        workloads = args.workloads or names
        if not set(workloads) <= set(names):
            p.error(f"workloads are {', '.join(names)}")
        commits = dict(zip(SIDES, (_git("rev-parse", "--verify", f"{rev}^{{commit}}")
                                   for rev in args.revisions)))
        base = Path(tempfile.mkdtemp(prefix="pairs-")).resolve()
        trees = {side: base / side for side in SIDES}  # names of equal length
        try:
            for side in SIDES:
                _git("worktree", "add", "--detach", str(trees[side]), commits[side])
            records = run_pairs(trees, commits, workloads, args.seeds, args.rounds,
                                benchmark["run_seconds"], args.out)
        finally:
            for side in SIDES:
                if trees[side].exists():
                    _git("worktree", "remove", "--force", str(trees[side]))
            _git("worktree", "prune")
            base.rmdir()
    print_summary(summarize(records, benchmark["end_to_end"]))
    return 1 if any(failed(r) for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
