import importlib
import itertools
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from atlasreg import (
    AffineTransform,
    AtlasRegError,
    BSplineTransform,
    GeometryMismatchError,
    InvalidInputError,
    LabelVolume,
    NumericalFailureError,
    ObjectiveWeights,
    ProbabilityVolume,
    RegistrationConfig,
    RegistrationResult,
    Volume,
    build_pseudo_labels,
    consistency_refine,
    ensemble_fuse,
    largest_component,
    majority_vote,
)
from atlasreg import fusion, phantom

objective_module = importlib.import_module("atlasreg.objective")


def _lbl(data, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(np.asarray(data), spacing)


def brute_force_vote(stacks):
    """Per-voxel counter oracle: most votes, ties to the smallest class id."""
    out = np.zeros(stacks[0].shape, dtype=np.uint8)
    for idx in np.ndindex(stacks[0].shape):
        votes = [s[idx] for s in stacks]
        counts = {c: votes.count(c) for c in set(votes)}
        best = max(counts.values())
        out[idx] = min(c for c, n in counts.items() if n == best)
    return out


# --- majority vote -------------------------------------------------------

def test_single_voter_returns_input():
    rng = np.random.default_rng(0)
    lbl = _lbl(rng.integers(0, 4, (4, 4, 4)))
    np.testing.assert_array_equal(majority_vote([lbl]).data, lbl.data)


def test_strict_majority_and_tie_break():
    a = _lbl([[[1]]])
    b = _lbl([[[1]]])
    c = _lbl([[[2]]])
    assert majority_vote([a, b, c]).data[0, 0, 0] == 1
    # tie (2, 3) resolves to the smaller id
    assert majority_vote([_lbl([[[2]]]), _lbl([[[3]]])]).data[0, 0, 0] == 2


def test_exhaustive_three_voter_oracle():
    # all 4^3 vote combinations of three voters laid out over 64 voxels
    combos = list(itertools.product(range(4), repeat=3))
    stacks = [np.array([c[v] for c in combos]).reshape(4, 4, 4) for v in range(3)]
    fused = majority_vote([_lbl(s) for s in stacks])
    np.testing.assert_array_equal(fused.data, brute_force_vote(stacks))


def test_vote_permutation_invariance():
    rng = np.random.default_rng(1)
    lbls = [_lbl(rng.integers(0, 4, (5, 5, 5))) for _ in range(5)]
    base = majority_vote(lbls).data
    for perm in ((4, 2, 0, 1, 3), (1, 0, 3, 4, 2)):
        np.testing.assert_array_equal(majority_vote([lbls[p] for p in perm]).data, base)


def test_vote_output_is_one_of_the_inputs_per_voxel():
    rng = np.random.default_rng(2)
    stacks = [rng.integers(0, 4, (6, 6, 6)) for _ in range(4)]
    fused = majority_vote([_lbl(s) for s in stacks]).data
    present = np.stack([fused == s for s in stacks]).any(axis=0)
    assert present.all()


def test_vote_errors():
    with pytest.raises(InvalidInputError):
        majority_vote([])
    with pytest.raises(InvalidInputError, match=r"warped_labels\[1\] must be a LabelVolume"):
        majority_vote([_lbl(np.zeros((2, 2, 2))), Volume(np.zeros((2, 2, 2)))])
    labels = _lbl(np.zeros((2, 2, 2)))
    with pytest.raises(InvalidInputError, match="from_t2 must be a LabelVolume"):
        consistency_refine(labels, labels, Volume(np.zeros((2, 2, 2))))
    with pytest.raises(GeometryMismatchError):
        majority_vote([_lbl(np.zeros((2, 2, 2))), _lbl(np.zeros((3, 3, 3)))])


# --- consistency refinement ----------------------------------------------

def test_full_agreement_ignores_type1():
    rng = np.random.default_rng(3)
    agreed = _lbl(rng.integers(0, 4, (4, 4, 4)))
    type1 = _lbl(rng.integers(0, 4, (4, 4, 4)))
    out = consistency_refine(type1, agreed, agreed)
    np.testing.assert_array_equal(out.data, agreed.data)


def test_full_disagreement_returns_type1():
    type1 = _lbl(np.full((3, 3, 3), 2))
    b = _lbl(np.full((3, 3, 3), 1))
    t = _lbl(np.full((3, 3, 3), 3))
    out = consistency_refine(type1, b, t)
    np.testing.assert_array_equal(out.data, type1.data)


def test_mixed_two_voxel_case():
    type1 = _lbl(np.array([3, 3]).reshape(2, 1, 1))
    b = _lbl(np.array([1, 1]).reshape(2, 1, 1))
    t = _lbl(np.array([1, 2]).reshape(2, 1, 1))
    out = consistency_refine(type1, b, t)
    np.testing.assert_array_equal(out.data.reshape(-1), [1, 3])


def test_consistency_exhaustive_small():
    # every (type1, bssfp, t2) class triple once
    trip = list(itertools.product(range(4), repeat=3))
    t1 = _lbl(np.array([x[0] for x in trip]).reshape(4, 4, 4))
    b = _lbl(np.array([x[1] for x in trip]).reshape(4, 4, 4))
    t2 = _lbl(np.array([x[2] for x in trip]).reshape(4, 4, 4))
    out = consistency_refine(t1, b, t2).data.reshape(-1)
    for i, (c1, cb, ct) in enumerate(trip):
        assert out[i] == (cb if cb == ct else c1)


# --- ensemble fusion ------------------------------------------------------

def _prob(channels):
    return ProbabilityVolume(np.asarray(channels, dtype=np.float32))


def _random_probs(rng, models, classes=4, dims=(2, 2, 2)):
    out = []
    for _ in range(models):
        raw = rng.uniform(0.05, 1.0, size=(classes,) + dims)
        out.append(_prob(raw / raw.sum(axis=0)))
    return out


def brute_force_ensemble(probs):
    """Sort-and-pick median then argmax, voxel by voxel in pure Python."""
    c = probs[0].num_classes
    dims = probs[0].dims
    out = np.zeros(dims, dtype=np.uint8)
    for idx in np.ndindex(dims):
        med = []
        for ch in range(c):
            vals = sorted(p.channels[ch][idx] for p in probs)
            n = len(vals)
            med.append((vals[n // 2] if n % 2 else (vals[n // 2 - 1] + vals[n // 2]) / 2.0))
        best = max(med)
        out[idx] = min(ch for ch in range(c) if med[ch] == best)
    return out


def test_single_model_reduces_to_argmax():
    rng = np.random.default_rng(4)
    p = _random_probs(rng, 1)[0]
    fused = ensemble_fuse([p])
    np.testing.assert_array_equal(fused.data, np.argmax(p.channels, axis=0))


def test_median_of_three_is_middle_order_statistic():
    vals = (0.2, 0.5, 0.9)
    probs = [_prob([[[[v]]], [[[1 - v]]]]) for v in vals]
    fused = ensemble_fuse(probs)
    # median over channel 0 = 0.5, channel 1 = 0.5; argmax tie -> class 0
    assert fused.data[0, 0, 0] == 0


def test_ensemble_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for models in (1, 2, 3):
        probs = _random_probs(rng, models)
        fused = ensemble_fuse(probs)
        np.testing.assert_array_equal(fused.data, brute_force_ensemble(probs))


def test_ensemble_permutation_invariance_and_identical_models():
    rng = np.random.default_rng(6)
    probs = _random_probs(rng, 3)
    base = ensemble_fuse(probs).data
    np.testing.assert_array_equal(ensemble_fuse(probs[::-1]).data, base)
    same = [probs[0]] * 3
    np.testing.assert_array_equal(ensemble_fuse(same).data,
                                  np.argmax(probs[0].channels, axis=0))


def test_ensemble_channel_mismatch():
    rng = np.random.default_rng(7)
    a = _random_probs(rng, 1, classes=4)[0]
    b = _random_probs(rng, 1, classes=3)[0]
    with pytest.raises(InvalidInputError):
        ensemble_fuse([a, b])


# --- largest component ----------------------------------------------------

def test_single_blob_unchanged():
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[2:4, 2:4, 2:4] = 1
    lbl = _lbl(data)
    np.testing.assert_array_equal(largest_component(lbl).data, data)


def test_isolated_voxel_removed():
    data = np.zeros((8, 8, 8), dtype=np.uint8)
    data[1:6, 1:6, 1:6] = 2
    data[7, 7, 7] = 3
    out = largest_component(_lbl(data))
    assert out.data[7, 7, 7] == 0
    np.testing.assert_array_equal(out.data[1:6, 1:6, 1:6], 2)


def test_diagonal_voxels_are_one_component_under_26_connectivity():
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[1, 1, 1] = 1
    data[2, 2, 2] = 1  # touches only diagonally
    data[4, 4, 4] = 3  # singleton, smaller than the pair
    out = largest_component(_lbl(data))
    assert out.data[1, 1, 1] == 1 and out.data[2, 2, 2] == 1
    assert out.data[4, 4, 4] == 0


def test_component_tie_goes_to_smallest_linear_index():
    data = np.zeros((7, 3, 3), dtype=np.uint8)
    data[5, 0, 0] = 1   # same size, later in x-fastest order
    data[0, 2, 2] = 2   # linear index 0 + 7*(2 + 3*2) = 56 vs 5 -> keep x=5? no:
    # x-fastest linear index: 5 for (5,0,0), 7*(2+3*2)+0 = 56 for (0,2,2)
    out = largest_component(_lbl(data))
    assert out.data[5, 0, 0] == 1
    assert out.data[0, 2, 2] == 0


def test_all_background_returned_unchanged():
    lbl = _lbl(np.zeros((4, 4, 4), dtype=np.uint8))
    np.testing.assert_array_equal(largest_component(lbl).data, lbl.data)


def test_largest_component_never_adds_foreground_or_changes_classes():
    rng = np.random.default_rng(8)
    data = (rng.uniform(size=(10, 10, 10)) < 0.2).astype(np.uint8) * \
        rng.integers(1, 4, (10, 10, 10)).astype(np.uint8)
    lbl = _lbl(data)
    out = largest_component(lbl)
    changed = out.data != lbl.data
    assert (out.data[changed] == 0).all()
    assert (out.data > 0).sum() <= (lbl.data > 0).sum()


# --- pseudo-label pipeline ----------------------------------------------------

def _pseudo_inputs(seed=0, dims=(6, 6, 6)):
    """Target, three type-1 atlases and a (bSSFP, T2) pair; each image is
    constant at its job index so a fake registration can tell them apart."""
    rng = np.random.default_rng(seed)
    target = Volume(np.zeros(dims, dtype=np.float32))
    pairs = [(Volume(np.full(dims, float(k), dtype=np.float32)),
              _lbl(rng.integers(0, 4, dims))) for k in range(5)]
    return target, pairs[:3], tuple(pairs[3:])


def _fake_stages(monkeypatch, log, fail_on=None, error=None, stage="ffd"):
    """Installs stand-ins for the two registration stages in `fusion`:
    `register_affine`, `register_ffd` and `register`, which runs the two in
    order as the real one does.

    A stage appends its letter ("a" or "f") and the job index to the file
    `log` when it starts. The affine of job k translates by k mm along x;
    the FFD returns an identity affine whose trace holds the job index and
    the translation it was given, with one converged flag per level of its
    config. Later jobs finish first. Stage `stage` of job `fail_on` raises
    `error` at once, by default GeometryMismatchError("boom").

    A stage may run in a forked worker process, so the fakes report through
    the file and the result rather than through objects of the test.
    """
    def start(letter, img):
        k = int(img.data.flat[0])
        with open(log, "a") as f:
            f.write(f"{letter}{k}\n")
        if k == fail_on and letter == stage[0]:
            raise error or GeometryMismatchError("boom")
        time.sleep(0.02 * (5 - k))
        return k

    def register_affine(target, img):
        return AffineTransform.from_linear(np.eye(3), (start("a", img), 0.0, 0.0))

    def register_ffd(target, img, affine, cfg):
        k = start("f", img)
        return RegistrationResult(AffineTransform.identity(), None, None,
                                  [[float(k), affine.matrix[0, 3]]], [True] * cfg.levels)

    monkeypatch.setattr(fusion, "register_affine", register_affine)
    monkeypatch.setattr(fusion, "register_ffd", register_ffd)
    monkeypatch.setattr(fusion, "register",
                        lambda target, img, cfg: register_ffd(
                            target, img, register_affine(target, img), cfg))


def _started(log, letter="a"):
    """The job indices whose stage `letter` started, sorted."""
    if not log.exists():
        return []
    return sorted(int(line[1:]) for line in log.read_text().split() if line[0] == letter)


@pytest.mark.parametrize("threads", [1, 3])
def test_pseudo_labels_order_configs_and_fusion(monkeypatch, tmp_path, threads):
    target, atlases, same_patient = _pseudo_inputs()
    cfg1 = RegistrationConfig(levels=1, max_iter_per_level=1)
    cfg2 = RegistrationConfig(levels=2, max_iter_per_level=1)
    _fake_stages(monkeypatch, tmp_path / "log")
    regs = []
    fused = build_pseudo_labels(target, atlases, same_patient, type1_cfg=cfg1,
                                type2_cfg=cfg2, threads=threads, registrations_out=regs)
    # each job's FFD started from that job's affine
    assert [(r.objective_trace, len(r.converged)) for r in regs] == [
        ([[0.0, 0.0]], 1), ([[1.0, 1.0]], 1), ([[2.0, 2.0]], 1), ([[3.0, 3.0]], 2),
        ([[4.0, 4.0]], 2)]
    assert _started(tmp_path / "log", "a") == _started(tmp_path / "log", "f") == [0, 1, 2, 3, 4]
    expected = consistency_refine(majority_vote([lbl for _, lbl in atlases]),
                                  same_patient[0][1], same_patient[1][1])
    np.testing.assert_array_equal(fused.data, expected.data)
    assert fused.same_geometry(target)


def test_pseudo_labels_start_every_affine_task_first_in_input_order(monkeypatch, tmp_path):
    # with two workers, the order in which the pool is handed tasks is the
    # order in which they start: one task at most is in flight per worker
    target, atlases, same_patient = _pseudo_inputs()
    _fake_stages(monkeypatch, tmp_path / "log")
    submitted = []

    class Recording(ProcessPoolExecutor):
        def submit(self, fn, target, img, *args):
            stage = {fusion._affine_task: "a", fusion._ffd_task: "f"}[fn]
            submitted.append(f"{stage}{int(img.data.flat[0])}")
            return super().submit(fn, target, img, *args)

    monkeypatch.setattr(fusion, "ProcessPoolExecutor", Recording)
    build_pseudo_labels(target, atlases, same_patient, threads=2)
    assert submitted[:5] == ["a0", "a1", "a2", "a3", "a4"]
    assert sorted(submitted[5:]) == ["f0", "f1", "f2", "f3", "f4"]


def test_pseudo_labels_without_same_patient_is_the_vote(monkeypatch, tmp_path):
    target, atlases, _ = _pseudo_inputs(seed=1)
    _fake_stages(monkeypatch, tmp_path / "log")
    fused = build_pseudo_labels(target, atlases, threads=2)
    np.testing.assert_array_equal(fused.data,
                                  majority_vote([lbl for _, lbl in atlases]).data)
    assert _started(tmp_path / "log", "f") == [0, 1, 2]


@pytest.mark.parametrize("threads", [1, 2])
def test_pseudo_labels_t2_failure_names_its_atlas(monkeypatch, tmp_path, threads):
    target, atlases, same_patient = _pseudo_inputs()
    _fake_stages(monkeypatch, tmp_path / "log", fail_on=4)
    with pytest.raises(GeometryMismatchError, match="^same-patient atlas 1: boom$"):
        build_pseudo_labels(target, atlases, same_patient, threads=threads)
    # the named error keeps the attributes of the one it replaces, and is
    # chained from it (from a copy of it, when the job ran in a worker)
    error = NumericalFailureError("objective is not finite", level=1, iteration=3)
    _fake_stages(monkeypatch, tmp_path / "log", fail_on=4, error=error)
    with pytest.raises(NumericalFailureError) as info:
        build_pseudo_labels(target, atlases, same_patient, threads=threads)
    assert str(info.value) == ("same-patient atlas 1: objective is not finite "
                               "(level 1, iteration 3)")
    assert (info.value.level, info.value.iteration) == (1, 3)
    cause = info.value.__cause__
    assert type(cause) is NumericalFailureError
    assert (str(cause), cause.level, cause.iteration) == (str(error), 1, 3)


def test_pseudo_labels_raise_the_earliest_failure_in_input_order(monkeypatch):
    # job 1's affine fails at once, job 0's after a sleep: the error is
    # still job 0's
    target, atlases, same_patient = _pseudo_inputs()
    errors = {0: GeometryMismatchError("first"), 1: InvalidInputError("second")}

    def register_affine(target, img):
        k = int(img.data.flat[0])
        time.sleep(0.1 if k == 0 else 0.0)
        raise errors[k]

    monkeypatch.setattr(fusion, "register_affine", register_affine)
    with pytest.raises(GeometryMismatchError, match="^atlas 0: first$"):
        build_pseudo_labels(target, atlases, same_patient, threads=2)


def test_pseudo_labels_start_no_job_after_a_failure(monkeypatch, tmp_path):
    # job 0's affine fails at once while job 1's sleeps, so with two workers
    # the failure is seen before a worker frees up for job 2
    target, atlases, same_patient = _pseudo_inputs()
    for threads in (1, 2):
        log = tmp_path / f"log{threads}"
        _fake_stages(monkeypatch, log, fail_on=0, stage="affine")
        with pytest.raises(GeometryMismatchError, match="^atlas 0: boom$"):
            build_pseudo_labels(target, atlases, same_patient, threads=threads)
        assert _started(log, "a") == list(range(threads))
        assert _started(log, "f") == []


def test_a_failed_affine_task_stops_its_ffd_and_every_later_job(monkeypatch, tmp_path):
    # job 1's affine fails at once while job 0's runs on: job 0's affine
    # returns and its FFD still runs, as it would at threads=1, yet neither
    # job 1's FFD nor job 2's affine starts, and the error is job 1's,
    # named, with its attributes and cause
    target, atlases, same_patient = _pseudo_inputs()
    log = tmp_path / "log"
    error = NumericalFailureError("affine collapsed", level=0, iteration=2)
    _fake_stages(monkeypatch, log, fail_on=1, error=error, stage="affine")
    affine = fusion.register_affine

    def register_affine(target, img):
        result = affine(target, img)
        if int(img.data.flat[0]) == 0:
            time.sleep(0.5)
        return result

    monkeypatch.setattr(fusion, "register_affine", register_affine)
    with pytest.raises(NumericalFailureError) as info:
        build_pseudo_labels(target, atlases, same_patient, threads=2)
    assert str(info.value) == "atlas 1: affine collapsed (level 0, iteration 2)"
    assert (info.value.level, info.value.iteration) == (0, 2)
    cause = info.value.__cause__
    assert type(cause) is NumericalFailureError
    assert (str(cause), cause.level, cause.iteration) == (str(error), 0, 2)
    assert _started(log, "a") == [0, 1]
    assert _started(log, "f") == [0]


@pytest.mark.parametrize("threads", [1, 2])
def test_an_earlier_jobs_ffd_failure_wins_over_a_later_jobs_affine_failure(
        monkeypatch, tmp_path, threads):
    # job 0's FFD fails, and job 3's affine fails at once; at threads=2 that
    # affine starts, and fails, before job 0's FFD. The error raised is job
    # 0's, as at threads=1, and no FFD starts after it. Job 2's affine, in
    # its worker, returns only once the parent's wait has returned job 0's
    # FFD failure, which the parent marks with a file: job 1's FFD is ready
    # from then on, and would start on the worker job 2's affine frees, were
    # that failure not seen first.
    target, atlases, same_patient = _pseudo_inputs()
    log, seen = tmp_path / "log", tmp_path / "ffd_failure_seen"
    error = NumericalFailureError("objective is not finite", level=1, iteration=3)
    _fake_stages(monkeypatch, log, fail_on=0, error=error)
    affine, wait = fusion.register_affine, fusion.wait

    def register_affine(target, img):
        k = int(img.data.flat[0])
        if k == 3:
            raise GeometryMismatchError("late")
        if k == 2:
            deadline = time.monotonic() + 60.0
            while not seen.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
        return affine(target, img)

    def wait_and_mark(futures, **kwargs):
        result = wait(futures, **kwargs)
        if any(type(f.exception()) is NumericalFailureError for f in result.done):
            seen.touch()
        return result

    monkeypatch.setattr(fusion, "register_affine", register_affine)
    monkeypatch.setattr(fusion, "wait", wait_and_mark)
    with pytest.raises(NumericalFailureError) as info:
        build_pseudo_labels(target, atlases, same_patient, threads=threads)
    assert str(info.value) == "atlas 0: objective is not finite (level 1, iteration 3)"
    assert (info.value.level, info.value.iteration) == (1, 3)
    assert type(info.value.__cause__) is NumericalFailureError
    assert _started(log, "f") == [0]


def _end_worker(*args):
    """A registration task that ends its worker process at once, as the
    kernel's OOM killer or a SIGKILL would. Module-level, so that the pool
    sends it to the worker by name."""
    os._exit(9)


def test_a_dead_worker_raises_a_package_error_named_after_its_atlas(monkeypatch, tmp_path):
    # every FFD task ends its worker, which breaks the pool: each task not
    # yet returned fails, and the earliest such job, 0, is named
    target, atlases, same_patient = _pseudo_inputs()
    _fake_stages(monkeypatch, tmp_path / "log")
    monkeypatch.setattr(fusion, "_ffd_task", _end_worker)
    with pytest.raises(AtlasRegError, match="^atlas 0: a registration worker process ended") \
            as info:
        build_pseudo_labels(target, atlases, same_patient, threads=2)
    assert type(info.value) is AtlasRegError
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert multiprocessing.active_children() == []


def test_a_task_handed_to_a_broken_pool_fails_its_job(monkeypatch, tmp_path):
    # the pool raises BrokenProcessPool from `submit` once a worker has died
    # since the last wait; here it does so for job 1's FFD task alone
    target, atlases, same_patient = _pseudo_inputs()
    log = tmp_path / "log"
    _fake_stages(monkeypatch, log)

    class Breaking(ProcessPoolExecutor):
        def submit(self, fn, target, img, *args):
            if fn is fusion._ffd_task and int(img.data.flat[0]) == 1:
                raise BrokenProcessPool("a child process terminated abruptly")
            return super().submit(fn, target, img, *args)

    monkeypatch.setattr(fusion, "ProcessPoolExecutor", Breaking)
    with pytest.raises(AtlasRegError, match="^atlas 1: a registration worker process ended") \
            as info:
        build_pseudo_labels(target, atlases, same_patient, threads=2)
    assert type(info.value) is AtlasRegError
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert 1 not in _started(log, "f") and 2 not in _started(log, "f")


def _log_half_threads(monkeypatch, log):
    """Has every FFD stage, and every registration in this process, evaluate
    one real objective, whose map samplings (one per half) append the name
    of the thread they run on to `log`."""
    sample_map = objective_module.sample_map

    def logged(ffd):
        with open(log, "a") as f:
            f.write(f"{threading.current_thread().name}\n")
        return sample_map(ffd)

    vol = Volume(np.random.default_rng(0).normal(size=(8, 8, 8)).astype(np.float32))
    ffd = BSplineTransform.zeros(vol, 4.0)

    def register_ffd(target, img, affine, cfg):
        objective_module.objective(vol, vol, ffd, ffd, ObjectiveWeights(), with_gradient=False)
        return RegistrationResult(affine, None, None, [], [])

    monkeypatch.setattr(objective_module, "sample_map", logged)
    monkeypatch.setattr(fusion, "register_affine",
                        lambda target, img: AffineTransform.identity())
    monkeypatch.setattr(fusion, "register_ffd", register_ffd)
    monkeypatch.setattr(fusion, "register", lambda target, img, cfg: register_ffd(
        target, img, AffineTransform.identity(), cfg))


def test_a_worker_starts_no_forward_half_thread(monkeypatch, tmp_path):
    target, atlases, _ = _pseudo_inputs()
    log = tmp_path / "threads"
    _log_half_threads(monkeypatch, log)
    build_pseudo_labels(target, atlases[:2], threads=2)
    names = log.read_text().split()
    assert len(names) == 4 and "atlasreg-fwd-half" not in names
    # in this process, each forward half still gets a thread
    log.unlink()
    build_pseudo_labels(target, atlases[:2], threads=1)
    assert log.read_text().split().count("atlasreg-fwd-half") == 2


def _running(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_registration_workers_exit_when_their_parent_is_killed(tmp_path):
    # a parent killed outright cannot shut its pool down; its workers, here
    # in the middle of a long job, must still end on their own
    script = tmp_path / "pipeline.py"
    script.write_text(textwrap.dedent(f"""
        import os, time
        import numpy as np
        from atlasreg import LabelVolume, Volume, build_pseudo_labels, fusion

        def register_affine(target, img):
            open(os.path.join({str(tmp_path)!r}, f"worker{{os.getpid()}}"), "w").close()
            time.sleep(60)

        fusion.register_affine = register_affine
        vol = Volume(np.zeros((4, 4, 4)))
        lbl = LabelVolume(np.zeros((4, 4, 4), dtype=np.uint8))
        build_pseudo_labels(vol, [(vol, lbl)] * 3, threads=2)
    """))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    parent = subprocess.Popen([sys.executable, str(script)], env=env)
    try:
        deadline = time.monotonic() + 60
        while len(list(tmp_path.glob("worker*"))) < 2 and time.monotonic() < deadline:
            assert parent.poll() is None, "the pipeline ended before its workers started"
            time.sleep(0.05)
        workers = [int(p.name[len("worker"):]) for p in tmp_path.glob("worker*")]
        assert len(workers) == 2
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []


def test_numerical_failure_survives_a_pickle_round_trip():
    error = NumericalFailureError("objective is not finite", level=2, iteration=7)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is NumericalFailureError
    assert str(copy) == "objective is not finite (level 2, iteration 7)"
    assert (copy.level, copy.iteration) == (2, 7)


def test_pseudo_labels_of_real_registrations_do_not_depend_on_threads():
    # a small phantom case through the real stages: in this process at
    # threads=1, as affine and FFD tasks in two or three worker processes
    # at threads=2 and 3
    dims = (20, 20, 20)
    target, _ = phantom.generate_phantom(phantom.scaled_spec(dims, modality="lge", seed=1))
    pairs = [phantom.generate_phantom(phantom.scaled_spec(
        dims, modality=modality, seed=2 + k, texture_amplitude=6.0))
        for k, modality in enumerate(("lge", "lge", "lge", "bssfp", "t2"))]
    cfg1 = RegistrationConfig(levels=2, max_iter_per_level=2, final_grid_spacing=4.0)
    cfg2 = RegistrationConfig(levels=2, max_iter_per_level=2, final_grid_spacing=2.0)
    runs = {}
    for threads in (1, 2, 3):
        regs = []
        fused = build_pseudo_labels(target, pairs[:3], tuple(pairs[3:]), type1_cfg=cfg1,
                                    type2_cfg=cfg2, threads=threads, registrations_out=regs)
        runs[threads] = fused, regs
    fused1, regs1 = runs[1]
    for fused, regs in (runs[2], runs[3]):
        np.testing.assert_array_equal(fused.data, fused1.data)
        assert len(regs) == len(regs1) == 5
        for r1, r2 in zip(regs1, regs):
            np.testing.assert_array_equal(r2.affine.matrix, r1.affine.matrix)
            for t1, t2 in ((r1.fwd, r2.fwd), (r1.bwd, r2.bwd)):
                np.testing.assert_array_equal(t2.coefficients, t1.coefficients)
                assert not t2.coefficients.flags.writeable
            assert r2.objective_trace == r1.objective_trace
            assert r2.converged == r1.converged


@pytest.mark.parametrize("threads", [0, -1, "2", 2.5, True])
def test_pseudo_labels_reject_threads_below_one(threads):
    target, atlases, _ = _pseudo_inputs()
    with pytest.raises(InvalidInputError, match="threads"):
        build_pseudo_labels(target, atlases, threads=threads)


def test_pseudo_labels_need_both_same_patient_atlases(monkeypatch, tmp_path):
    target, atlases, same_patient = _pseudo_inputs()
    _fake_stages(monkeypatch, tmp_path / "log")
    with pytest.raises(InvalidInputError, match="same_patient"):
        build_pseudo_labels(target, atlases, same_patient[:1])
    assert _started(tmp_path / "log") == []


# (the arguments target, atlases, same_patient, type1_cfg, type2_cfg made
# from those of `_pseudo_inputs`, with one of them spoiled; the error it
# must raise)
_BAD_PIPELINE_INPUTS = {
    "atlas labels": (lambda t, a, s: (t, a[:2] + [(a[2][0], a[2][0])], s),
                     "^atlas 2: labels must be a LabelVolume"),
    "atlas image": (lambda t, a, s: (t, [("x", a[0][1])] + a[1:], s),
                    "^atlas 0: image must be a Volume"),
    "same-patient labels": (lambda t, a, s: (t, a, (s[0], (s[1][0], s[1][0]))),
                            "^same-patient atlas 1: labels must be a LabelVolume"),
    "same-patient entry": (lambda t, a, s: (t, a, (s[0], s[1][0])),
                           r"^same-patient atlas 1: must be an \(image, labels\) pair"),
    "same-patient pair": (lambda t, a, s: (t, a, 5), "^same_patient must be the"),
    "target": (lambda t, a, s: ("x", a, s), "^target must be a Volume"),
    "type-2 config": (lambda t, a, s: (t, a, s, None, "type2"),
                      "^type2_cfg must be a RegistrationConfig"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("bad", sorted(_BAD_PIPELINE_INPUTS))
def test_pseudo_labels_check_every_input_before_registering(monkeypatch, tmp_path, bad,
                                                           threads):
    spoil, match = _BAD_PIPELINE_INPUTS[bad]
    _fake_stages(monkeypatch, tmp_path / "log")
    with pytest.raises(InvalidInputError, match=match):
        build_pseudo_labels(*spoil(*_pseudo_inputs()), threads=threads)
    assert _started(tmp_path / "log", "a") == _started(tmp_path / "log", "f") == []
