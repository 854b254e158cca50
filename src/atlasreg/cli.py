"""Command-line interface binding the pipeline end to end.

Exit codes: 0 success, 2 bad flags (argparse), 3 I/O, format or geometry
errors and a registration worker process that died, 4 numerical failures.
Every run writes a JSON manifest next to its primary output recording the
resolved configuration, inputs/outputs, seed, the wall-clock time of its
one timed stage and the tool version.

`COMMANDS` maps each subcommand, under its manifest name, to its function:
the function reads its inputs, writes its outputs and returns the fields of
the manifest, which `main` writes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
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


def _timed(stage, call, *args):
    """(call(*args), {stage: its wall-clock seconds})."""
    t0 = time.perf_counter()
    result = call(*args)
    return result, {stage: round(time.perf_counter() - t0, 3)}


def _write_manifest(subcommand, args, inputs, outputs, timings, config=None, seed=None,
                    **fields):
    """Write the run's manifest next to its first output: the resolved
    configuration (by default every parsed option), inputs, outputs, seed,
    stage timings and any further `fields`."""
    manifest = {
        "tool": "atlasreg",
        "version": __version__,
        "subcommand": subcommand,
        "config": vars(args) if config is None else config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "timings_s": timings,
        **fields,
    }
    Path(f"{outputs[0]}.manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


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
    """The --preset configuration with every option given in place of its value."""
    cfg = default_config(args.preset)
    alpha = cfg.weights.alpha if args.alpha is None else args.alpha
    beta = cfg.weights.beta if args.beta is None else args.beta
    given = {"levels": args.levels, "max_iter_per_level": args.max_iter,
             "final_grid_spacing": args.final_spacing}
    return replace(cfg, weights=ObjectiveWeights(alpha, beta),
                   **{name: value for name, value in given.items() if value is not None})


def _labels(args, path):
    """The label volume at `path`, its values mapped by the command's --label-remap."""
    return read_nifti(path, labels=True, label_remap=args.label_remap)


# ---------------------------------------------------------------------------
# Subcommands: each writes its outputs and returns its manifest's fields
# ---------------------------------------------------------------------------

def cmd_register(args):
    cfg = _config_from_args(args)  # a bad flag fails before any file is read
    ref, flt = read_nifti(args.ref), read_nifti(args.float)

    def register():
        affine = register_affine(ref, flt)
        return (RegistrationResult(affine, None, None, [], []) if args.affine_only
                else register_ffd(ref, flt, affine, cfg))

    result, timings = _timed("registration", register)
    save_transform(args.out_transform, result.affine, result.fwd, result.bwd)
    config = {"alpha": cfg.weights.alpha, "beta": cfg.weights.beta, "levels": cfg.levels,
              "max_iter_per_level": cfg.max_iter_per_level,
              "final_grid_spacing": cfg.final_grid_spacing}
    return dict(inputs=[args.ref, args.float], outputs=[args.out_transform], timings=timings,
                config=config, objective_trace=result.objective_trace,
                converged=result.converged,
                max_displacement_mm=None if result.fwd is None else max_displacement(result.fwd))


def cmd_fuse_vote(args):
    fused, timings = _timed("vote", majority_vote, [_labels(args, p) for p in args.labels])
    write_nifti(fused, args.out)
    return dict(inputs=args.labels, outputs=[args.out], timings=timings)


def cmd_fuse_consistency(args):
    inputs = [args.type1, args.bssfp, args.t2]
    fused, timings = _timed("consistency", consistency_refine, *(_labels(args, p) for p in inputs))
    write_nifti(fused, args.out)
    return dict(inputs=inputs, outputs=[args.out], timings=timings)


def cmd_fuse_ensemble(args):
    try:
        text = Path(args.manifest).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{args.manifest} is not UTF-8 text: {exc}") from None
    models, inputs = [], [args.manifest]
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        paths = [p.strip() for p in line.split(",")]
        vols = [read_nifti(p) for p in paths]
        first = vols[0]
        for p, v in zip(paths[1:], vols[1:]):
            require_same_geometry(v, first, f"{p} and {paths[0]}")
        models.append(ProbabilityVolume(np.stack([v.data for v in vols]), first.spacing,
                                        first.origin, first.direction))
        inputs.extend(paths)

    def fuse():
        fused = ensemble_fuse(models)
        return largest_component(fused) if args.keep_largest else fused

    fused, timings = _timed("ensemble", fuse)
    write_nifti(fused, args.out)
    return dict(inputs=inputs, outputs=[args.out], timings=timings)


def cmd_evaluate(args):
    report, timings = _timed("evaluate", evaluate, _labels(args, args.pred), _labels(args, args.gt))
    Path(args.out_csv).write_text(report.to_csv())
    print(report.to_table())
    return dict(inputs=[args.pred, args.gt], outputs=[args.out_csv], timings=timings)


def cmd_pipeline(args):
    pairs = args.atlas + ([] if args.bssfp is None else [args.bssfp, args.t2])
    target = read_nifti(args.target)
    read = [(read_nifti(img_path), _labels(args, lbl_path)) for img_path, lbl_path in pairs]
    atlases, same_patient = read[:len(args.atlas)], tuple(read[len(args.atlas):]) or None
    registrations = []
    fused, timings = _timed("pipeline", lambda: build_pseudo_labels(
        target, atlases, same_patient, threads=args.threads, registrations_out=registrations))
    write_nifti(fused, args.out)
    return dict(inputs=[args.target, *(p for pair in pairs for p in pair)], outputs=[args.out],
                timings=timings,
                registrations=[{"objective_trace": r.objective_trace, "converged": r.converged}
                               for r in registrations])


def cmd_phantom(args):
    spec = scaled_spec(dims=tuple(args.dims), modality=args.modality,
                       noise_sigma=args.noise, seed=args.seed)
    (vol, lbl), timings = _timed("phantom", generate_phantom, spec)
    write_nifti(vol, args.out_image)
    write_nifti(lbl, args.out_labels)
    return dict(inputs=[], outputs=[args.out_image, args.out_labels], timings=timings,
                config={"dims": list(args.dims), "modality": args.modality, "noise": args.noise},
                seed=args.seed)


# keyed by the manifest's subcommand name, "fuse-" and the mode for fuse
COMMANDS = {
    "register": cmd_register,
    "fuse-vote": cmd_fuse_vote,
    "fuse-consistency": cmd_fuse_consistency,
    "fuse-ensemble": cmd_fuse_ensemble,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
    "phantom": cmd_phantom,
}


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
    # the option of every command that reads label maps
    remap = argparse.ArgumentParser(add_help=False)
    remap.add_argument("--label-remap", type=_parse_remap, default=None,
                       help="e.g. 200:1,500:2,600:3")

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

    fuse = sub.add_parser("fuse", help="label fusion operators")
    fuse_sub = fuse.add_subparsers(dest="fuse_mode", required=True)

    vote = fuse_sub.add_parser("vote", parents=[remap], help="majority voting over label maps")
    vote.add_argument("--labels", nargs="+", required=True)
    vote.add_argument("--out", required=True)

    cons = fuse_sub.add_parser("consistency", parents=[remap],
                               help="cross-modality consistency refinement")
    cons.add_argument("--type1", required=True)
    cons.add_argument("--bssfp", required=True)
    cons.add_argument("--t2", required=True)
    cons.add_argument("--out", required=True)

    ens = fuse_sub.add_parser("ensemble",
                              help="median-argmax fusion of probability maps")
    ens.add_argument("--manifest", required=True,
                     help="UTF-8 text: one model per line, comma-separated per-class NIfTI paths")
    ens.add_argument("--out", required=True)
    ens.add_argument("--keep-largest", action="store_true",
                     help="keep only the largest foreground component")

    ev = sub.add_parser("evaluate", parents=[remap],
                        help="overlap and surface metrics vs ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--out-csv", required=True)

    pipe = sub.add_parser("pipeline", parents=[remap], help="pseudo-label generation end to end")
    pipe.add_argument("--target", required=True)
    pipe.add_argument("--atlas", action="append", required=True,
                      type=_parse_img_lbl, metavar="IMAGE:LABELS")
    pipe.add_argument("--bssfp", type=_parse_img_lbl, default=None,
                      metavar="IMAGE:LABELS")
    pipe.add_argument("--t2", type=_parse_img_lbl, default=None,
                      metavar="IMAGE:LABELS")
    pipe.add_argument("--out", required=True)
    pipe.add_argument("--threads", type=_at_least_one(int), default=usable_cpus(),
                      help="worker processes for the atlas registrations (default: the "
                           "CPUs this process may use; capped at the number of "
                           "registrations; 1 runs them in order in this process). In a "
                           "pool, each registration is an affine task, then an FFD task, "
                           "and every affine task starts first; a worker runs each "
                           "objective's two halves in order rather than on two threads. "
                           "Results are bit-identical for any value")

    ph = sub.add_parser("phantom", help="write a synthetic image + label pair")
    ph.add_argument("--out-image", required=True)
    ph.add_argument("--out-labels", required=True)
    ph.add_argument("--dims", type=int, nargs=3, default=(64, 64, 64))
    ph.add_argument("--modality", choices=("lge", "bssfp", "t2"), default="lge")
    ph.add_argument("--noise", type=float, default=2.0)
    ph.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pipeline" and (args.bssfp is None) != (args.t2 is None):
        parser.error("pipeline: --bssfp and --t2 must be given together")
    subcommand = f"fuse-{args.fuse_mode}" if args.command == "fuse" else args.command
    try:
        _write_manifest(subcommand, args, **COMMANDS[subcommand](args))
        return 0
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
