"""Label fusion: majority voting over warped atlas labels, cross-modality
consistency refinement, ensemble median-argmax probability fusion, and
largest-connected-component post-processing.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

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
    Every registration is one job on a pool of `threads` worker threads
    (None: the executor's default), so `threads` counts registration jobs.
    Each registration runs its FFD objectives' forward halves on a
    short-lived thread of its own (see `atlasreg.objective`), so the run
    uses up to 2 x `threads` threads. Outputs are bit-identical for any
    thread count. A failure names its atlas, and no job starts after it.
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

    failed = threading.Event()

    def run_one(job):
        name, img, _, cfg = job
        if failed.is_set():
            return None  # never read: the failure is raised first
        try:
            return register(target, img, cfg)
        except AtlasRegError as exc:
            failed.set()
            named = type(exc)(f"{name}: {exc}")
            named.__dict__.update(exc.__dict__)  # e.g. level and iteration
            raise named from exc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_one, jobs))
    if registrations_out is not None:
        registrations_out.extend(results)

    warped = [warp_labels(lbl, target, res.affine, res.fwd)
              for (_, _, lbl, _), res in zip(jobs, results)]
    fused = majority_vote(warped[:len(atlases)])
    if same_patient is None:
        return fused
    return consistency_refine(fused, *warped[len(atlases):])
