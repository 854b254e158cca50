"""Label fusion: majority voting over warped atlas labels, cross-modality
consistency refinement, ensemble median-argmax probability fusion, and
largest-connected-component post-processing.
"""
from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from functools import partial

import numpy as np
from scipy import ndimage

from .errors import AtlasRegError, InvalidInputError
from .registration import RegistrationConfig, default_config, register
from .transforms import warp_labels
from .volume import (
    LABEL_CLASS_IDS,
    LabelVolume,
    ProbabilityVolume,
    Volume,
    require_same_geometry,
)

PARENT_POLL_S = 0.5  # how often a registration worker checks that its parent lives


def majority_vote(warped_labels: list[LabelVolume]) -> LabelVolume:
    """Per-voxel modal class over the inputs; ties go to the smallest class id.

    Background votes count like any other class.
    """
    if not warped_labels:
        raise InvalidInputError("majority_vote needs at least one label volume")
    first = warped_labels[0]
    for other in warped_labels[1:]:
        require_same_geometry(first, other, "label volumes")
    stack = np.stack([lv.data for lv in warped_labels])
    votes = np.stack([(stack == c).sum(axis=0) for c in LABEL_CLASS_IDS])
    # argmax returns the first (= smallest) class id on ties
    fused = np.argmax(votes, axis=0).astype(np.uint8)
    return LabelVolume(fused, first.spacing, first.origin, first.direction)


def consistency_refine(type1: LabelVolume, from_bssfp: LabelVolume,
                       from_t2: LabelVolume) -> LabelVolume:
    """Keep the class where the two same-patient propagations agree; elsewhere
    fall back to the inter-patient (type 1) label."""
    require_same_geometry(type1, from_bssfp, "label volumes")
    require_same_geometry(type1, from_t2, "label volumes")
    out = np.where(from_bssfp.data == from_t2.data, from_bssfp.data, type1.data)
    return LabelVolume(out, type1.spacing, type1.origin, type1.direction)


def ensemble_fuse(probs: list[ProbabilityVolume]) -> LabelVolume:
    """Median across models per channel, then per-voxel argmax over channels.

    An even model count uses the mean of the two middle values; the medians
    are not renormalized before the argmax. Argmax ties pick the smallest id.
    """
    if not probs:
        raise InvalidInputError("ensemble_fuse needs at least one probability volume")
    first = probs[0]
    for other in probs[1:]:
        require_same_geometry(first, other, "probability volumes")
        if other.num_classes != first.num_classes:
            raise InvalidInputError(
                f"channel counts differ: {other.num_classes} vs {first.num_classes}"
            )
    stack = np.stack([p.channels for p in probs])  # (models, C, nx, ny, nz)
    med = np.median(stack, axis=0)
    fused = np.argmax(med, axis=0).astype(np.uint8)
    return LabelVolume(fused, first.spacing, first.origin, first.direction)


def largest_component(labels: LabelVolume) -> LabelVolume:
    """Keep only the largest 26-connected foreground component.

    Ties between equal-sized components go to the one containing the smallest
    linear (x-fastest) voxel index. Class ids inside the kept component are
    unchanged; all other foreground becomes background.
    """
    fg = labels.data > 0
    if not fg.any():
        return labels
    comp, n = ndimage.label(fg, structure=np.ones((3, 3, 3), dtype=bool))
    if n <= 1:
        return labels
    sizes = np.bincount(comp.reshape(-1))[1:]  # component ids 1..n
    best = sizes.max()
    tied = np.flatnonzero(sizes == best) + 1
    if len(tied) == 1:
        keep = tied[0]
    else:
        linear = np.arange(labels.data.size).reshape(labels.dims, order="F")
        firsts = ndimage.minimum(linear, labels=comp, index=tied)
        keep = tied[int(np.argmin(firsts))]
    out = np.where(comp == keep, labels.data, 0).astype(np.uint8)
    return LabelVolume(out, labels.spacing, labels.origin, labels.direction)


def _register_job(target: Volume, img: Volume, cfg: RegistrationConfig):
    """One registration job of `build_pseudo_labels`.

    Private and module-level, so that it is sent to a worker process by name:
    `register` itself may be rebound to a wrapper (a tracer's, say) that does
    not pickle.
    """
    return register(target, img, cfg)


def _exit_with_parent(parent: int) -> None:
    """Worker initializer: end the worker soon after process `parent` is gone.

    A parent killed outright (by a timeout's SIGKILL, say) cannot shut its
    pool down, and its idle workers would wait for jobs for ever.
    """
    def watch():
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _register_all(target: Volume, jobs: list, workers: int) -> list:
    """RegistrationResults of `jobs` in input order, at most `workers` at a time.

    One worker, or a platform without the fork start method, runs the jobs in
    order in this process. Otherwise each job runs in a forked worker process
    with a GIL of its own; jobs start in input order, and none starts once a
    failure is seen. Workers are forked rather than spawned because a fresh
    interpreter imports numpy and scipy again, which costs about as much as
    a small registration; the package keeps no thread alive between calls,
    so no thread of its own is forked mid-call.

    The error raised is that of the earliest failed job in input order,
    named after its atlas, with its attributes (such as `level` and
    `iteration`) and chained from the job's own error.
    """
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        outcomes = [partial(_register_job, target, img, cfg) for _, img, _, cfg in jobs]
    else:
        futures = []
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork, initializer=_exit_with_parent,
                                 initargs=(os.getpid(),)) as pool:
            running = set()
            for _, img, _, cfg in jobs:
                if len(running) == workers:
                    _, running = wait(running, return_when=FIRST_COMPLETED)
                if any(f.done() and f.exception() is not None for f in futures):
                    break
                futures.append(pool.submit(_register_job, target, img, cfg))
                running.add(futures[-1])
        outcomes = [f.result for f in futures]

    results = []
    for (name, *_), outcome in zip(jobs, outcomes):
        try:
            results.append(outcome())
        except AtlasRegError as exc:
            named = type(exc)(f"{name}: {exc}")
            named.__dict__.update(exc.__dict__)  # e.g. level and iteration
            raise named from exc
    return results


def build_pseudo_labels(target: Volume,
                        atlases: list[tuple[Volume, LabelVolume]],
                        same_patient=None,
                        type1_cfg: RegistrationConfig | None = None,
                        type2_cfg: RegistrationConfig | None = None,
                        threads: int | None = 1,
                        registrations_out: list | None = None) -> LabelVolume:
    """Register every atlas to the target, vote, and optionally refine.

    `atlases` is a list of (image, labels) pairs of the target's modality.
    `same_patient`, when given, is ((bssfp image, bssfp labels),
    (t2 image, t2 labels)) of the same patient; both are registered with the
    type-2 preset and fused through the consistency constraint.
    Every registration is one job, and `threads` counts the parallel
    registration workers (None: one per CPU), capped at the number of jobs.
    With more than one worker, each job runs in a forked worker process, so
    the jobs do not share a GIL; with one, they run in order in the calling
    process. Each registration also runs its FFD objectives' forward halves
    on a short-lived thread of its own (see `atlasreg.objective`). Outputs
    are bit-identical for any `threads`. A failure names its atlas, and no
    job starts after it is seen.
    `registrations_out`, if provided, collects the RegistrationResults in
    input order (type-1 first) for manifest reporting.
    """
    if not atlases:
        raise InvalidInputError("at least one atlas is required")
    if same_patient is not None and len(same_patient) != 2:
        raise InvalidInputError("same_patient must be the (bSSFP, T2) pair")
    if threads is not None and threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    type1_cfg = type1_cfg or default_config("type1")
    type2_cfg = type2_cfg or default_config("type2")

    jobs = [(f"atlas {i}", img, lbl, type1_cfg) for i, (img, lbl) in enumerate(atlases)]
    if same_patient is not None:
        jobs += [(f"same-patient atlas {i}", img, lbl, type2_cfg)
                 for i, (img, lbl) in enumerate(same_patient)]

    workers = min(threads or os.cpu_count() or 1, len(jobs))
    results = _register_all(target, jobs, workers)
    if registrations_out is not None:
        registrations_out.extend(results)

    warped = [warp_labels(lbl, target, res.affine, res.fwd)
              for (_, _, lbl, _), res in zip(jobs, results)]
    fused = majority_vote(warped[:len(atlases)])
    if same_patient is None:
        return fused
    return consistency_refine(fused, *warped[len(atlases):])
