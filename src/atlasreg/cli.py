"""Command-line interface binding the pipeline end to end.

Exit codes: 0 success, 2 bad flags (argparse), 3 I/O, format or geometry
errors, 4 numerical failures. Every run writes a JSON manifest next to its
primary output recording the resolved configuration, inputs/outputs, seed,
per-stage wall-clock timings and the tool version.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AtlasRegError, InvalidInputError, NumericalFailureError
from .fusion import (
    build_pseudo_labels,
    consistency_refine,
    ensemble_fuse,
    largest_component,
    majority_vote,
)
from .metrics import evaluate
from .nifti import read_nifti, write_nifti
from .objective import ObjectiveWeights
from .phantom import generate_phantom, scaled_spec
from .registration import (RegistrationConfig, RegistrationResult, default_config,
                           register_affine, register_ffd)
from .transforms import max_displacement, save_transform
from .volume import ProbabilityVolume, require_same_geometry


class _Timer:
    def __init__(self):
        self.stages = {}

    @contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = round(time.perf_counter() - t0, 3)


def _write_manifest(out_path, subcommand, args_dict, inputs, outputs, timer,
                    seed=None, extra=None):
    manifest = {
        "tool": "atlasreg",
        "version": __version__,
        "subcommand": subcommand,
        "config": args_dict,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "timings_s": timer.stages,
    }
    if extra:
        manifest.update(extra)
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _parse_remap(text):
    """argparse type: "200:1,500:2" -> {200: 1, 500: 2}."""
    table = {}
    for pair in text.split(","):
        src, _, dst = pair.partition(":")
        try:
            table[int(src)] = int(dst)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected SRC:DST integer pairs, got {pair!r}") from None
    return table


def _at_least_one(cast):
    """argparse type: `cast` of the text, rejected below 1 or when not finite."""
    def parse(text):
        value = cast(text)
        if not (math.isfinite(value) and value >= 1):
            raise argparse.ArgumentTypeError(f"must be a finite number >= 1, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one (a cpuset or `taskset` narrows it), else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_img_lbl(text):
    img, _, lbl = text.rpartition(":")
    if not img:
        raise argparse.ArgumentTypeError(
            f"expected IMAGE:LABELS, got {text!r}")
    return img, lbl


def _config_from_args(args) -> RegistrationConfig:
    cfg = default_config(args.preset)
    overrides = {}
    if args.alpha is not None or args.beta is not None:
        alpha = cfg.weights.alpha if args.alpha is None else args.alpha
        beta = cfg.weights.beta if args.beta is None else args.beta
        overrides["weights"] = ObjectiveWeights(alpha, beta)
    if args.levels is not None:
        overrides["levels"] = args.levels
    if args.max_iter is not None:
        overrides["max_iter_per_level"] = args.max_iter
    if args.final_spacing is not None:
        overrides["final_grid_spacing"] = args.final_spacing
    return replace(cfg, **overrides)


def _config_dict(cfg: RegistrationConfig):
    return {
        "alpha": cfg.weights.alpha,
        "beta": cfg.weights.beta,
        "levels": cfg.levels,
        "max_iter_per_level": cfg.max_iter_per_level,
        "final_grid_spacing": cfg.final_grid_spacing,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_register(args) -> int:
    timer = _Timer()
    ref = read_nifti(args.ref)
    flt = read_nifti(args.float)
    cfg = _config_from_args(args)
    with timer.stage("registration"):
        affine = register_affine(ref, flt)
        result = (RegistrationResult(affine, None, None, [], []) if args.affine_only
                  else register_ffd(ref, flt, affine, cfg))
    save_transform(args.out_transform, result.affine, result.fwd, result.bwd)
    extra = {
        "objective_trace": result.objective_trace,
        "converged": result.converged,
        "max_displacement_mm": (
            None if result.fwd is None else max_displacement(result.fwd)),
    }
    _write_manifest(args.out_transform, "register", _config_dict(cfg),
                    [args.ref, args.float], [args.out_transform], timer,
                    extra=extra)
    return 0


def cmd_fuse(args) -> int:
    timer = _Timer()
    if args.fuse_mode == "vote":
        labels = [read_nifti(p, labels=True, label_remap=args.label_remap)
                  for p in args.labels]
        with timer.stage("vote"):
            fused = majority_vote(labels)
        inputs = args.labels
    elif args.fuse_mode == "consistency":
        type1 = read_nifti(args.type1, labels=True, label_remap=args.label_remap)
        bssfp = read_nifti(args.bssfp, labels=True, label_remap=args.label_remap)
        t2 = read_nifti(args.t2, labels=True, label_remap=args.label_remap)
        with timer.stage("consistency"):
            fused = consistency_refine(type1, bssfp, t2)
        inputs = [args.type1, args.bssfp, args.t2]
    else:  # ensemble
        models = []
        inputs = [args.manifest]
        try:
            text = Path(args.manifest).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{args.manifest} is not UTF-8 text: {exc}") from None
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            paths = [p.strip() for p in line.split(",")]
            vols = [read_nifti(p) for p in paths]
            first = vols[0]
            for p, v in zip(paths[1:], vols[1:]):
                require_same_geometry(v, first, f"{p} and {paths[0]}")
            channels = np.stack([v.data for v in vols])
            models.append(ProbabilityVolume(channels, first.spacing,
                                            first.origin, first.direction))
            inputs.extend(paths)
        with timer.stage("ensemble"):
            fused = ensemble_fuse(models)
            if args.keep_largest:
                fused = largest_component(fused)
    write_nifti(fused, args.out)
    _write_manifest(args.out, f"fuse-{args.fuse_mode}", vars_of(args),
                    inputs, [args.out], timer)
    return 0


def cmd_evaluate(args) -> int:
    timer = _Timer()
    pred = read_nifti(args.pred, labels=True, label_remap=args.label_remap)
    gt = read_nifti(args.gt, labels=True, label_remap=args.label_remap)
    with timer.stage("evaluate"):
        report = evaluate(pred, gt)
    Path(args.out_csv).write_text(report.to_csv())
    print(report.to_table())
    _write_manifest(args.out_csv, "evaluate", vars_of(args),
                    [args.pred, args.gt], [args.out_csv], timer)
    return 0


def cmd_pipeline(args) -> int:
    timer = _Timer()
    target = read_nifti(args.target)
    atlases = []
    inputs = [args.target]
    for img_path, lbl_path in args.atlas:
        atlases.append((read_nifti(img_path),
                        read_nifti(lbl_path, labels=True, label_remap=args.label_remap)))
        inputs.extend([img_path, lbl_path])
    same_patient = None
    if args.bssfp is not None:
        pairs = []
        for img_path, lbl_path in (args.bssfp, args.t2):
            pairs.append((read_nifti(img_path),
                          read_nifti(lbl_path, labels=True, label_remap=args.label_remap)))
            inputs.extend([img_path, lbl_path])
        same_patient = tuple(pairs)

    registrations = []
    with timer.stage("pipeline"):
        fused = build_pseudo_labels(
            target, atlases, same_patient,
            threads=args.threads, registrations_out=registrations)
    write_nifti(fused, args.out)
    extra = {
        "registrations": [
            {"objective_trace": r.objective_trace, "converged": r.converged}
            for r in registrations
        ],
    }
    _write_manifest(args.out, "pipeline", vars_of(args), inputs, [args.out],
                    timer, extra=extra)
    return 0


def cmd_phantom(args) -> int:
    timer = _Timer()
    spec = scaled_spec(dims=tuple(args.dims), modality=args.modality,
                       noise_sigma=args.noise, seed=args.seed)
    with timer.stage("phantom"):
        vol, lbl = generate_phantom(spec)
    write_nifti(vol, args.out_image)
    write_nifti(lbl, args.out_labels)
    _write_manifest(args.out_image, "phantom",
                    {"dims": list(args.dims), "modality": args.modality,
                     "noise": args.noise},
                    [], [args.out_image, args.out_labels], timer,
                    seed=args.seed)
    return 0


def vars_of(args):
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlasreg",
        description="B-spline registration and multi-atlas label fusion for 3D volumes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="affine + symmetric FFD registration")
    reg.add_argument("--ref", required=True)
    reg.add_argument("--float", required=True)
    reg.add_argument("--out-transform", required=True)
    reg.add_argument("--preset", choices=("type1", "type2"), default="type1")
    reg.add_argument("--alpha", type=float, default=None)
    reg.add_argument("--beta", type=float, default=None)
    reg.add_argument("--levels", type=_at_least_one(int), default=None)
    reg.add_argument("--max-iter", type=_at_least_one(int), default=None)
    reg.add_argument("--final-spacing", type=_at_least_one(float), default=None)
    reg.add_argument("--affine-only", action="store_true")
    reg.set_defaults(func=cmd_register)

    fuse = sub.add_parser("fuse", help="label fusion operators")
    fuse_sub = fuse.add_subparsers(dest="fuse_mode", required=True)

    vote = fuse_sub.add_parser("vote", help="majority voting over label maps")
    vote.add_argument("--labels", nargs="+", required=True)
    vote.add_argument("--out", required=True)
    vote.add_argument("--label-remap", type=_parse_remap, default=None,
                      help="e.g. 200:1,500:2,600:3")
    vote.set_defaults(func=cmd_fuse)

    cons = fuse_sub.add_parser("consistency",
                               help="cross-modality consistency refinement")
    cons.add_argument("--type1", required=True)
    cons.add_argument("--bssfp", required=True)
    cons.add_argument("--t2", required=True)
    cons.add_argument("--out", required=True)
    cons.add_argument("--label-remap", type=_parse_remap, default=None)
    cons.set_defaults(func=cmd_fuse)

    ens = fuse_sub.add_parser("ensemble",
                              help="median-argmax fusion of probability maps")
    ens.add_argument("--manifest", required=True,
                     help="UTF-8 text: one model per line, comma-separated per-class NIfTI paths")
    ens.add_argument("--out", required=True)
    ens.add_argument("--keep-largest", action="store_true",
                     help="keep only the largest foreground component")
    ens.set_defaults(func=cmd_fuse)

    ev = sub.add_parser("evaluate", help="overlap and surface metrics vs ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--out-csv", required=True)
    ev.add_argument("--label-remap", type=_parse_remap, default=None)
    ev.set_defaults(func=cmd_evaluate)

    pipe = sub.add_parser("pipeline", help="pseudo-label generation end to end")
    pipe.add_argument("--target", required=True)
    pipe.add_argument("--atlas", action="append", required=True,
                      type=_parse_img_lbl, metavar="IMAGE:LABELS")
    pipe.add_argument("--bssfp", type=_parse_img_lbl, default=None,
                      metavar="IMAGE:LABELS")
    pipe.add_argument("--t2", type=_parse_img_lbl, default=None,
                      metavar="IMAGE:LABELS")
    pipe.add_argument("--out", required=True)
    pipe.add_argument("--label-remap", type=_parse_remap, default=None)
    pipe.add_argument("--threads", type=_at_least_one(int), default=usable_cpus(),
                      help="worker processes for the atlas registrations (default: the "
                           "CPUs this process may use; capped at the number of "
                           "registrations; 1 runs them in order in this process). In a "
                           "pool, each registration is an affine task, then an FFD task, "
                           "and every affine task starts first; a worker runs each "
                           "objective's two halves in order rather than on two threads. "
                           "Results are bit-identical for any value")
    pipe.set_defaults(func=cmd_pipeline)

    ph = sub.add_parser("phantom", help="write a synthetic image + label pair")
    ph.add_argument("--out-image", required=True)
    ph.add_argument("--out-labels", required=True)
    ph.add_argument("--dims", type=int, nargs=3, default=(64, 64, 64))
    ph.add_argument("--modality", choices=("lge", "bssfp", "t2"), default="lge")
    ph.add_argument("--noise", type=float, default=2.0)
    ph.add_argument("--seed", type=int, default=0)
    ph.set_defaults(func=cmd_phantom)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pipeline" and (args.bssfp is None) != (args.t2 is None):
        parser.error("pipeline: --bssfp and --t2 must be given together")
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"atlasreg: numerical failure: {exc}", file=sys.stderr)
        return 4
    except AtlasRegError as exc:
        print(f"atlasreg: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"atlasreg: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
