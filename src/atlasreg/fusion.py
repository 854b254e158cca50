"""Label fusion: majority voting over warped atlas labels, cross-modality
consistency refinement, ensemble median-argmax probability fusion, and
largest-connected-component post-processing.
"""
from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np

from .errors import AtlasRegError, InvalidInputError, is_count, require_type
from .registration import (
    RegistrationConfig,
    RegistrationResult,
    default_config,
    register,
    register_affine,
    register_ffd,
)
from .transforms import AffineTransform, warp_labels
from .volume import (
    LABEL_CLASS_IDS,
    LabelVolume,
    ProbabilityVolume,
    Volume,
    require_same_geometry,
)

PARENT_POLL_S = 0.5  # how often a registration worker checks that its parent lives


def _first_of_one_grid(name: str, volumes, kind, what: str, empty: str):
    """The first of `volumes`, the argument `name`: InvalidInputError unless
    it is a list or tuple of at least one `kind` (the message `empty` when it
    has none), GeometryMismatchError naming `what` unless all share one grid."""
    require_type((list, tuple), **{name: volumes})
    if not volumes:
        raise InvalidInputError(empty)
    require_type(kind, **{f"{name}[{i}]": v for i, v in enumerate(volumes)})
    for other in volumes[1:]:
        require_same_geometry(volumes[0], other, what)
    return volumes[0]


def majority_vote(warped_labels: list[LabelVolume]) -> LabelVolume:
    """Per-voxel modal class over the inputs; ties go to the smallest class id.

    Background votes count like any other class.
    """
    first = _first_of_one_grid("warped_labels", warped_labels, LabelVolume, "label volumes",
                               "majority_vote needs at least one label volume")
    stack = np.stack([lv.data for lv in warped_labels])
    votes = np.stack([(stack == c).sum(axis=0) for c in LABEL_CLASS_IDS])
    # argmax returns the first (= smallest) class id on ties
    fused = np.argmax(votes, axis=0).astype(np.uint8)
    return LabelVolume(fused, first.spacing, first.origin, first.direction)


def consistency_refine(type1: LabelVolume, from_bssfp: LabelVolume,
                       from_t2: LabelVolume) -> LabelVolume:
    """Keep the class where the two same-patient propagations agree; elsewhere
    fall back to the inter-patient (type 1) label."""
    require_type(LabelVolume, type1=type1, from_bssfp=from_bssfp, from_t2=from_t2)
    require_same_geometry(type1, from_bssfp, "label volumes")
    require_same_geometry(type1, from_t2, "label volumes")
    out = np.where(from_bssfp.data == from_t2.data, from_bssfp.data, type1.data)
    return LabelVolume(out, type1.spacing, type1.origin, type1.direction)


def ensemble_fuse(probs: list[ProbabilityVolume]) -> LabelVolume:
    """Median across models per channel, then per-voxel argmax over channels.

    An even model count uses the mean of the two middle values; the medians
    are not renormalized before the argmax. Argmax ties pick the smallest id.
    """
    first = _first_of_one_grid("probs", probs, ProbabilityVolume, "probability volumes",
                               "ensemble_fuse needs at least one probability volume")
    for other in probs[1:]:
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
    unchanged; all other foreground becomes background. The one function of
    the package that uses scipy, whose `ndimage` it imports when called, so
    that no other command pays for loading it.
    """
    from scipy import ndimage

    require_type(LabelVolume, labels=labels)
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


# The two stages of a registration job in a worker process. Private and
# module-level, so that they are sent to the worker by name: `register_affine`
# and `register_ffd` themselves may be rebound to wrappers (a tracer's, say)
# that do not pickle.

def _affine_task(target: Volume, img: Volume) -> AffineTransform:
    return register_affine(target, img)


def _ffd_task(target: Volume, img: Volume, affine: AffineTransform,
              cfg: RegistrationConfig) -> RegistrationResult:
    return register_ffd(target, img, affine, cfg)


def _start_worker(parent: int) -> None:
    """Worker initializer: end the worker soon after process `parent` is gone.

    A parent killed outright (by a timeout's SIGKILL, say) cannot shut its
    pool down, and its idle workers would wait for jobs for ever.
    """
    def watch():
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _named(name: str, call):
    """call(), with an AtlasRegError it raises renamed after atlas `name`,
    keeping its attributes (such as `level` and `iteration`) and chained
    from it."""
    try:
        return call()
    except AtlasRegError as exc:
        named = type(exc)(f"{name}: {exc}")
        named.__dict__.update(exc.__dict__)
        raise named from exc


def _job(name: str, entry, cfg: RegistrationConfig) -> tuple:
    """The job (name, image, labels, cfg) of atlas `name`, whose `entry` must
    be an (image, labels) pair of a Volume and a LabelVolume; otherwise an
    InvalidInputError named after the atlas."""
    try:
        img, lbl = entry
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name}: must be an (image, labels) pair, "
                                f"got {type(entry).__name__}") from None
    _named(name, partial(require_type, Volume, image=img))
    _named(name, partial(require_type, LabelVolume, labels=lbl))
    return name, img, lbl, cfg


def _register_in_pool(target: Volume, jobs: list, workers: int) -> list:
    """Per job, the futures of the tasks it started: none, [affine] or
    [affine, FFD]. A task handed to a broken pool is a future that holds
    the pool's BrokenProcessPool. See `_register_all`."""
    tasks = [[] for _ in jobs]

    def next_task():
        # jobs after the earliest failed one start nothing more
        live = next((i for i, started in enumerate(tasks)
                     if any(f.done() and f.exception() is not None for f in started)),
                    len(jobs))
        for (_, img, _, _), started in zip(jobs[:live], tasks):
            if not started:
                return started, (_affine_task, target, img)
        for (_, img, _, cfg), started in zip(jobs[:live], tasks):
            if len(started) == 1 and started[0].done():
                return started, (_ffd_task, target, img, started[0].result(), cfg)
        return None

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_start_worker,
                             initargs=(os.getpid(),)) as pool:
        running = set()
        while True:
            task = next_task() if len(running) < workers else None
            if task is not None:
                started, call = task
                try:
                    started.append(pool.submit(*call))
                except BrokenProcessPool as exc:  # a worker died since the last wait
                    started.append(Future())
                    started[-1].set_exception(exc)
                running.add(started[-1])
            elif running:
                _, running = wait(running, return_when=FIRST_COMPLETED)
            else:
                break
    return tasks


def _register_all(target: Volume, jobs: list, workers: int) -> list:
    """RegistrationResults of `jobs` in input order, at most `workers`
    tasks at a time.

    One worker, or a platform without the fork start method, runs the jobs
    in order in this process through `register`. Otherwise each job is two
    tasks, its affine stage and then its FFD stage from that affine, each
    run in a forked worker process with a GIL of its own. Every affine task
    starts first, in input order; then the FFD tasks, in input order among
    those whose affine has returned. A task starts as soon as a worker is
    free, so no worker idles while a task is ready. When the job count is
    not a multiple of the worker count (5 jobs on 2 workers, or the paper's
    7 per target on 2 to 6), the shorter tasks leave less idle time at the
    end than whole registrations do. Once a job has failed, no task of a
    later job starts; the earlier jobs still run to the end, so the failure
    raised is the one that `threads=1` raises. Workers are forked rather
    than spawned because a fresh interpreter imports the package and numpy
    again, about 0.2 s on two cores (Python 3.11, numpy 2.4), half of an
    affine stage of the 32^3 benchmark (0.28-0.43 s); the package keeps
    no thread alive between calls, so no thread of its own is forked
    mid-call. The workers already share the CPUs, so each runs its
    objectives' halves in order rather than on a thread per half.

    Each result is bit for bit that of `register`. The error raised is that
    of the earliest failed job in input order, named after its atlas, with
    its attributes (such as `level` and `iteration`) and chained from the
    job's own error. A worker that dies (killed, or out of memory) breaks
    the pool, and every task not yet returned fails with it: the earliest
    such job raises an AtlasRegError named after its atlas, chained from
    the pool's BrokenProcessPool.
    """
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_named(name, partial(register, target, img, cfg))
                for name, img, _, cfg in jobs]
    tasks = _register_in_pool(target, jobs, workers)
    for (name, *_), started in zip(jobs, tasks):
        for future in started:
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                raise AtlasRegError(f"{name}: a registration worker process ended before "
                                    "this registration returned") from error
            if error is not None:
                _named(name, future.result)  # raises
    return [ffd.result() for _, ffd in tasks]


def build_pseudo_labels(target: Volume,
                        atlases: list[tuple[Volume, LabelVolume]],
                        same_patient=None,
                        type1_cfg: RegistrationConfig | None = None,
                        type2_cfg: RegistrationConfig | None = None,
                        threads: int = 1,
                        registrations_out: list | None = None) -> LabelVolume:
    """Register every atlas to the target, vote, and optionally refine.

    `atlases` is a list of (image, labels) pairs of the target's modality.
    `same_patient`, when given, is ((bssfp image, bssfp labels),
    (t2 image, t2 labels)) of the same patient; both are registered with the
    type-2 preset and fused through the consistency constraint.
    Every registration is one job, and `threads` counts the parallel
    registration workers, capped at the number of jobs. With one worker,
    the jobs run in order in the calling process. With more, each job runs
    as two tasks in forked worker processes, which do not share a GIL: its
    affine stage, then its FFD stage; every affine task starts before any
    FFD task (see `_register_all`). In the calling process, a registration
    runs its FFD objectives' forward halves on a short-lived thread of
    their own; in a worker, it runs the halves one after the other (see
    `atlasreg.objective`). Outputs are bit-identical for any `threads`.
    Inputs are checked before any registration starts, and an error in an
    atlas entry names it (`atlas 2`, `same-patient atlas 1`), as a failed
    registration names its atlas. The error raised is that of the earliest
    failed job in input order, and no task of a later job starts once a
    failure is seen.
    `registrations_out`, if provided, collects the RegistrationResults in
    input order (type-1 first) for manifest reporting.
    """
    require_type(Volume, target=target)
    require_type((list, tuple), atlases=atlases)
    require_type((list, type(None)), registrations_out=registrations_out)
    if not atlases:
        raise InvalidInputError("at least one atlas is required")
    if same_patient is not None and not (isinstance(same_patient, (tuple, list))
                                         and len(same_patient) == 2):
        raise InvalidInputError("same_patient must be the (bSSFP, T2) pair")
    if not is_count(threads):
        raise InvalidInputError(f"threads must be an integer >= 1, got {threads!r}")
    type1_cfg = default_config("type1") if type1_cfg is None else type1_cfg
    type2_cfg = default_config("type2") if type2_cfg is None else type2_cfg
    require_type(RegistrationConfig, type1_cfg=type1_cfg, type2_cfg=type2_cfg)

    jobs = [_job(f"atlas {i}", entry, type1_cfg) for i, entry in enumerate(atlases)]
    if same_patient is not None:
        jobs += [_job(f"same-patient atlas {i}", entry, type2_cfg)
                 for i, entry in enumerate(same_patient)]

    workers = min(threads, len(jobs))
    results = _register_all(target, jobs, workers)
    if registrations_out is not None:
        registrations_out.extend(results)

    warped = [warp_labels(lbl, target, res.affine, res.fwd)
              for (_, _, lbl, _), res in zip(jobs, results)]
    fused = majority_vote(warped[:len(atlases)])
    if same_patient is None:
        return fused
    return consistency_refine(fused, *warped[len(atlases):])
