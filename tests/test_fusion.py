import itertools
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from atlasreg import (
    AffineTransform,
    GeometryMismatchError,
    InvalidInputError,
    LabelVolume,
    NumericalFailureError,
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


def _fake_register(log, fail_on=None, error=None):
    """Stand-in for `register`: appends the job index to the file `log` when a
    job starts, and returns an identity affine whose trace holds the job index
    and which has one converged flag per level of its config. Later jobs
    finish first. Job `fail_on` raises `error` at once, by default
    GeometryMismatchError("boom").

    A job may run in a forked worker process, so the fake reports through
    the file and the result rather than through objects of the test.
    """
    def register(target, img, cfg):
        k = int(img.data.flat[0])
        with open(log, "a") as f:
            f.write(f"{k}\n")
        if k == fail_on:
            raise error or GeometryMismatchError("boom")
        time.sleep(0.02 * (5 - k))
        return RegistrationResult(AffineTransform.identity(), None, None, [[float(k)]],
                                  [True] * cfg.levels)
    return register


def _started(log):
    return sorted(int(line) for line in log.read_text().split()) if log.exists() else []


@pytest.mark.parametrize("threads", [1, 3])
def test_pseudo_labels_order_configs_and_fusion(monkeypatch, tmp_path, threads):
    target, atlases, same_patient = _pseudo_inputs()
    cfg1 = RegistrationConfig(levels=1, max_iter_per_level=1)
    cfg2 = RegistrationConfig(levels=2, max_iter_per_level=1)
    monkeypatch.setattr(fusion, "register", _fake_register(tmp_path / "log"))
    regs = []
    fused = build_pseudo_labels(target, atlases, same_patient, type1_cfg=cfg1,
                                type2_cfg=cfg2, threads=threads, registrations_out=regs)
    assert [(r.objective_trace, len(r.converged)) for r in regs] == [
        ([[0.0]], 1), ([[1.0]], 1), ([[2.0]], 1), ([[3.0]], 2), ([[4.0]], 2)]
    assert _started(tmp_path / "log") == [0, 1, 2, 3, 4]
    expected = consistency_refine(majority_vote([lbl for _, lbl in atlases]),
                                  same_patient[0][1], same_patient[1][1])
    np.testing.assert_array_equal(fused.data, expected.data)
    assert fused.same_geometry(target)


def test_pseudo_labels_without_same_patient_is_the_vote(monkeypatch, tmp_path):
    target, atlases, _ = _pseudo_inputs(seed=1)
    monkeypatch.setattr(fusion, "register", _fake_register(tmp_path / "log"))
    fused = build_pseudo_labels(target, atlases, threads=2)
    np.testing.assert_array_equal(fused.data,
                                  majority_vote([lbl for _, lbl in atlases]).data)
    assert _started(tmp_path / "log") == [0, 1, 2]


@pytest.mark.parametrize("threads", [1, 2])
def test_pseudo_labels_t2_failure_names_its_atlas(monkeypatch, tmp_path, threads):
    target, atlases, same_patient = _pseudo_inputs()
    monkeypatch.setattr(fusion, "register", _fake_register(tmp_path / "log", fail_on=4))
    with pytest.raises(GeometryMismatchError, match="^same-patient atlas 1: boom$"):
        build_pseudo_labels(target, atlases, same_patient, threads=threads)
    # the named error keeps the attributes of the one it replaces, and is
    # chained from it (from a copy of it, when the job ran in a worker)
    error = NumericalFailureError("objective is not finite", level=1, iteration=3)
    monkeypatch.setattr(fusion, "register",
                        _fake_register(tmp_path / "log", fail_on=4, error=error))
    with pytest.raises(NumericalFailureError) as info:
        build_pseudo_labels(target, atlases, same_patient, threads=threads)
    assert str(info.value) == ("same-patient atlas 1: objective is not finite "
                               "(level 1, iteration 3)")
    assert (info.value.level, info.value.iteration) == (1, 3)
    cause = info.value.__cause__
    assert type(cause) is NumericalFailureError
    assert (str(cause), cause.level, cause.iteration) == (str(error), 1, 3)


def test_pseudo_labels_raise_the_earliest_failure_in_input_order(monkeypatch):
    # job 1 fails at once, job 0 after a sleep: the error is still job 0's
    target, atlases, same_patient = _pseudo_inputs()
    errors = {0: GeometryMismatchError("first"), 1: InvalidInputError("second")}

    def register(target, img, cfg):
        k = int(img.data.flat[0])
        time.sleep(0.1 if k == 0 else 0.0)
        raise errors[k]

    monkeypatch.setattr(fusion, "register", register)
    with pytest.raises(GeometryMismatchError, match="^atlas 0: first$"):
        build_pseudo_labels(target, atlases, same_patient, threads=2)


def test_pseudo_labels_start_no_job_after_a_failure(monkeypatch, tmp_path):
    # job 0 fails at once while job 1 sleeps, so with two workers the
    # failure is seen before a worker frees up for job 2
    target, atlases, same_patient = _pseudo_inputs()
    for threads in (1, 2):
        log = tmp_path / f"log{threads}"
        monkeypatch.setattr(fusion, "register", _fake_register(log, fail_on=0))
        with pytest.raises(GeometryMismatchError, match="^atlas 0: boom$"):
            build_pseudo_labels(target, atlases, same_patient, threads=threads)
        assert _started(log) == list(range(threads))


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

        def register(target, img, cfg):
            open(os.path.join({str(tmp_path)!r}, f"worker{{os.getpid()}}"), "w").close()
            time.sleep(60)

        fusion.register = register
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
    # a small phantom case through the real `register`: in this process at
    # threads=1, in two worker processes at threads=2
    dims = (20, 20, 20)
    target, _ = phantom.generate_phantom(phantom.scaled_spec(dims, modality="lge", seed=1))
    pairs = [phantom.generate_phantom(phantom.scaled_spec(
        dims, modality=modality, seed=2 + k, texture_amplitude=6.0))
        for k, modality in enumerate(("lge", "lge", "lge", "bssfp", "t2"))]
    cfg1 = RegistrationConfig(levels=2, max_iter_per_level=2, final_grid_spacing=4.0)
    cfg2 = RegistrationConfig(levels=2, max_iter_per_level=2, final_grid_spacing=2.0)
    runs = {}
    for threads in (1, 2):
        regs = []
        fused = build_pseudo_labels(target, pairs[:3], tuple(pairs[3:]), type1_cfg=cfg1,
                                    type2_cfg=cfg2, threads=threads, registrations_out=regs)
        runs[threads] = fused, regs
    (fused1, regs1), (fused2, regs2) = runs[1], runs[2]
    np.testing.assert_array_equal(fused2.data, fused1.data)
    assert len(regs2) == len(regs1) == 5
    for r1, r2 in zip(regs1, regs2):
        np.testing.assert_array_equal(r2.affine.matrix, r1.affine.matrix)
        for t1, t2 in ((r1.fwd, r2.fwd), (r1.bwd, r2.bwd)):
            np.testing.assert_array_equal(t2.coefficients, t1.coefficients)
            assert not t2.coefficients.flags.writeable
        assert r2.objective_trace == r1.objective_trace
        assert r2.converged == r1.converged


@pytest.mark.parametrize("threads", [0, -1])
def test_pseudo_labels_reject_threads_below_one(threads):
    target, atlases, _ = _pseudo_inputs()
    with pytest.raises(InvalidInputError, match="threads"):
        build_pseudo_labels(target, atlases, threads=threads)


def test_pseudo_labels_need_both_same_patient_atlases(monkeypatch, tmp_path):
    target, atlases, same_patient = _pseudo_inputs()
    monkeypatch.setattr(fusion, "register", _fake_register(tmp_path / "log"))
    with pytest.raises(InvalidInputError, match="same_patient"):
        build_pseudo_labels(target, atlases, same_patient[:1])
    assert _started(tmp_path / "log") == []
