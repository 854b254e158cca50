import gzip
import json
import os

import numpy as np
import pytest

import atlasreg.cli as cli
from atlasreg import fusion
from atlasreg import (
    AffineTransform,
    NumericalFailureError,
    Volume,
    dice,
    load_transform,
    read_nifti,
    warp_labels,
    warp_volume,
    write_nifti,
)
from atlasreg.cli import main

MANIFEST_KEYS = {"config", "inputs", "outputs", "timings_s"}


def _manifest(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


@pytest.fixture(scope="module")
def phantom_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = []
    for seed in (1, 2, 3):
        img, lbl = root / f"img{seed}.nii", root / f"lbl{seed}.nii"
        assert main(["phantom", "--out-image", str(img), "--out-labels", str(lbl),
                     "--dims", "24", "24", "24", "--seed", str(seed)]) == 0
        paths.append((img, lbl))
    return root, paths


def test_phantom_vote_evaluate_exit_zero_and_write_manifests(phantom_files):
    root, paths = phantom_files
    manifest = _manifest(paths[0][0])
    assert MANIFEST_KEYS <= manifest.keys()
    assert manifest["outputs"] == [str(p) for p in paths[0]]

    fused = root / "fused.nii"
    labels = [str(lbl) for _, lbl in paths]
    assert main(["fuse", "vote", "--labels", *labels, "--out", str(fused),
                 "--label-remap", "1:1,2:2,3:3"]) == 0
    manifest = _manifest(fused)
    assert MANIFEST_KEYS <= manifest.keys()
    assert manifest["inputs"] == labels

    csv = root / "report.csv"
    assert main(["evaluate", "--pred", str(fused), "--gt", labels[0],
                 "--out-csv", str(csv)]) == 0
    assert csv.read_text().strip()
    manifest = _manifest(csv)
    assert MANIFEST_KEYS <= manifest.keys()
    assert manifest["outputs"] == [str(csv)]
    assert "evaluate" in manifest["timings_s"]


@pytest.mark.parametrize("argv", [
    ["register", "--ref", "a.nii", "--float", "b.nii", "--out-transform", "t", "--levels", "0"],
    ["register", "--ref", "a.nii", "--float", "b.nii", "--out-transform", "t", "--max-iter", "0"],
    ["register", "--ref", "a.nii", "--float", "b.nii", "--out-transform", "t",
     "--final-spacing", "0.5"],
    ["fuse", "vote", "--labels", "a.nii", "--out", "o.nii", "--label-remap", "1-2"],
    ["evaluate", "--pred", "a.nii", "--gt", "b.nii", "--out-csv", "r.csv", "--label-remap", "1:x"],
    # pipeline: --bssfp and --t2 come together, checked before any file is read
    ["pipeline", "--target", "t.nii", "--atlas", "a.nii:l.nii", "--out", "o.nii",
     "--bssfp", "b.nii:bl.nii"],
    ["pipeline", "--target", "t.nii", "--atlas", "a.nii:l.nii", "--out", "o.nii",
     "--t2", "c.nii:cl.nii"],
    ["pipeline", "--target", "t.nii", "--atlas", "a.nii:l.nii", "--out", "o.nii",
     "--threads", "0"],
    # an atlas is IMAGE:LABELS
    ["pipeline", "--target", "t.nii", "--atlas", "foo", "--out", "o.nii"],
])
def test_bad_flags_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["fuse", "vote"], ["fuse", "consistency"], ["evaluate"],
                                     ["pipeline"]])
def test_every_command_that_reads_label_maps_shows_the_remap_example(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--label-remap" in out and "e.g. 200:1,500:2,600:3" in out


@pytest.mark.parametrize("spacing", ["inf", "nan"])
def test_register_rejects_a_non_finite_final_spacing(capsys, spacing):
    with pytest.raises(SystemExit) as exc:
        main(["register", "--ref", "a.nii", "--float", "b.nii", "--out-transform", "t",
              "--final-spacing", spacing])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("noise", ["-1", "nan"])
def test_phantom_rejects_negative_or_non_finite_noise(tmp_path, capsys, noise):
    img, lbl = tmp_path / "img.nii", tmp_path / "lbl.nii"
    assert main(["phantom", "--out-image", str(img), "--out-labels", str(lbl),
                 "--dims", "24", "24", "24", "--noise", noise]) == 3
    err = capsys.readouterr().err
    assert "noise_sigma" in err and "Traceback" not in err
    assert not img.exists() and not lbl.exists()


def test_phantom_rejects_a_negative_seed(tmp_path, capsys):
    img, lbl = tmp_path / "img.nii", tmp_path / "lbl.nii"
    assert main(["phantom", "--out-image", str(img), "--out-labels", str(lbl),
                 "--dims", "24", "24", "24", "--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    assert not img.exists() and not lbl.exists()


def test_a_numerical_failure_exits_four(phantom_files, monkeypatch, capsys):
    root, paths = phantom_files
    (img1, _), (img2, _) = paths[:2]

    def fail(*args):
        raise NumericalFailureError("non-finite objective value", level=0, iteration=3)

    monkeypatch.setattr(cli, "register_affine", lambda ref, flt: AffineTransform.identity())
    monkeypatch.setattr(cli, "register_ffd", fail)
    out = root / "failed.tfm"
    assert main(["register", "--ref", str(img1), "--float", str(img2),
                 "--out-transform", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numerical failure: non-finite objective value (level 0, iteration 3)" in err
    assert "Traceback" not in err and not out.exists()


def _end_worker(*args):
    """An FFD task that ends its worker process at once; module-level, so
    that the pool sends it to the worker by name."""
    os._exit(9)


def test_a_dead_registration_worker_exits_three(phantom_files, monkeypatch, capsys):
    root, paths = phantom_files
    (target, _), (img2, lbl2), (img3, lbl3) = paths
    # forked workers inherit both stand-ins
    monkeypatch.setattr(fusion, "register_affine", lambda ref, flt: AffineTransform.identity())
    monkeypatch.setattr(fusion, "_ffd_task", _end_worker)
    out = root / "dead.nii"
    assert main(["pipeline", "--target", str(target), "--atlas", f"{img2}:{lbl2}",
                 "--atlas", f"{img3}:{lbl3}", "--threads", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "atlasreg: error: atlas 0: a registration worker process ended" in err
    assert "Traceback" not in err and not out.exists()


def test_a_missing_input_file_exits_three(phantom_files, capsys):
    root, paths = phantom_files
    missing = root / "missing.nii"
    assert main(["evaluate", "--pred", str(missing), "--gt", str(paths[0][1]),
                 "--out-csv", str(root / "missing.csv")]) == 3
    err = capsys.readouterr().err
    assert "I/O error" in err and "missing.nii" in err and "Traceback" not in err
    assert not (root / "missing.csv").exists()


def test_truncated_nifti_exits_three(phantom_files, capsys):
    root, paths = phantom_files
    img, lbl = paths[0]
    raw = lbl.read_bytes()
    packed = gzip.compress(raw)
    corrupt = bytearray(packed)
    corrupt[20:40] = b"\xff" * 20  # overwrites deflate data
    for name, content, message in [("truncated.nii", raw[:-100], "truncated"),
                                   ("truncated.nii.gz", packed[:-100], "truncated"),
                                   ("corrupt.nii.gz", bytes(corrupt), "corrupt")]:
        broken = root / name
        broken.write_bytes(content)
        assert main(["evaluate", "--pred", str(broken), "--gt", str(lbl),
                     "--out-csv", str(root / "bad.csv")]) == 3, name
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, name


def test_a_label_value_the_remap_does_not_name_exits_three(tmp_path, capsys):
    labels = tmp_path / "challenge.nii"
    values = np.array([0, 200, 500, 600, 700, 0, 600, 500], dtype=np.float32)
    write_nifti(Volume(values.reshape(2, 2, 2)), labels)
    assert main(["fuse", "vote", "--labels", str(labels), "--out", str(tmp_path / "o.nii"),
                 "--label-remap", "200:1,500:2,600:3"]) == 3
    err = capsys.readouterr().err
    assert "undeclared class ids" in err and "Traceback" not in err
    assert not (tmp_path / "o.nii").exists()


@pytest.mark.parametrize("dims, spacing", [
    ((4, 4, 5), (1.0, 1.0, 1.0)),   # different dims: np.stack would fail
    ((4, 4, 4), (2.0, 2.0, 2.0)),   # same dims, different spacing
])
def test_ensemble_files_off_one_geometry_exit_three(tmp_path, capsys, dims, spacing):
    first = tmp_path / "p0.nii"
    other = tmp_path / "p1.nii"
    write_nifti(Volume(np.full((4, 4, 4), 0.5, dtype=np.float32)), first)
    write_nifti(Volume(np.full(dims, 0.5, dtype=np.float32), spacing), other)
    manifest = tmp_path / "models.txt"
    manifest.write_text(f"{first},{other}\n")
    assert main(["fuse", "ensemble", "--manifest", str(manifest),
                 "--out", str(tmp_path / "fused.nii")]) == 3
    err = capsys.readouterr().err
    assert "must share geometry" in err and "Traceback" not in err
    assert not (tmp_path / "fused.nii").exists()


def test_register_checks_its_flags_before_reading_a_file(tmp_path, capsys):
    out = tmp_path / "t.xfm"
    assert main(["register", "--ref", str(tmp_path / "missing.nii"), "--float",
                 str(tmp_path / "missing.nii"), "--out-transform", str(out),
                 "--alpha", "2"]) == 3
    err = capsys.readouterr().err
    assert "alpha" in err and "missing.nii" not in err and "Traceback" not in err
    assert not out.exists()


def test_ensemble_manifest_that_is_not_utf8_exits_three(tmp_path, capsys):
    manifest = tmp_path / "models.txt"
    manifest.write_bytes(b"\xff\xfe" + "p0.nii\n".encode("utf-16-le"))  # a UTF-16 file
    assert main(["fuse", "ensemble", "--manifest", str(manifest),
                 "--out", str(tmp_path / "fused.nii")]) == 3
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "fused.nii").exists()


# subcommand: (its one timed stage, its config keys, its manifest keys beyond
# those every manifest has)
SUBCOMMAND_MANIFESTS = {
    "register": ("registration",
                 {"alpha", "beta", "levels", "max_iter_per_level", "final_grid_spacing"},
                 {"objective_trace", "converged", "max_displacement_mm"}),
    "fuse-vote": ("vote", {"command", "fuse_mode", "labels", "out", "label_remap"}, set()),
    "fuse-consistency": ("consistency",
                         {"command", "fuse_mode", "type1", "bssfp", "t2", "out", "label_remap"},
                         set()),
    "fuse-ensemble": ("ensemble", {"command", "fuse_mode", "manifest", "out", "keep_largest"},
                      set()),
    "evaluate": ("evaluate", {"command", "pred", "gt", "out_csv", "label_remap"}, set()),
    "pipeline": ("pipeline",
                 {"command", "target", "atlas", "bssfp", "t2", "out", "label_remap", "threads"},
                 {"registrations"}),
    "phantom": ("phantom", {"dims", "modality", "noise"}, set()),
}


def test_every_subcommand_writes_its_manifest(tmp_path):
    def run(subcommand, argv, inputs, outputs, seed=None):
        assert main(argv) == 0, subcommand
        manifest = _manifest(outputs[0])
        stage, config_keys, extra_keys = SUBCOMMAND_MANIFESTS[subcommand]
        assert manifest.keys() == MANIFEST_KEYS | extra_keys | {
            "tool", "version", "subcommand", "seed"}, subcommand
        assert manifest["subcommand"] == subcommand
        assert manifest["config"].keys() == config_keys, subcommand
        assert manifest["inputs"] == [str(p) for p in inputs], subcommand
        assert manifest["outputs"] == [str(p) for p in outputs], subcommand
        assert manifest["seed"] == seed and list(manifest["timings_s"]) == [stage], subcommand
        return manifest

    def phantom(name, seed, modality="lge"):
        img, lbl = tmp_path / f"{name}.nii", tmp_path / f"{name}_lbl.nii"
        run("phantom", ["phantom", "--out-image", str(img), "--out-labels", str(lbl),
                        "--dims", "20", "20", "20", "--seed", str(seed),
                        "--modality", modality], [], [img, lbl], seed)
        return img, lbl

    # the seeds of the end-to-end test below, whose registrations converge fast
    target, atlas = phantom("target", 1), phantom("atlas", 3)
    bssfp, t2 = phantom("bssfp", 7, "bssfp"), phantom("t2", 9, "t2")

    for tfm, flags in ((tmp_path / "ffd.tfm", ["--levels", "1", "--max-iter", "1"]),
                       (tmp_path / "affine.tfm", ["--affine-only"])):
        run("register", ["register", "--ref", str(target[0]), "--float", str(atlas[0]),
                         "--out-transform", str(tfm), *flags], [target[0], atlas[0]], [tfm])

    labels = [target[1], atlas[1], bssfp[1]]
    vote = tmp_path / "vote.nii"
    manifest = run("fuse-vote", ["fuse", "vote", "--labels", *map(str, labels),
                                 "--out", str(vote)], labels, [vote])
    assert manifest["config"]["fuse_mode"] == "vote"

    refined = tmp_path / "refined.nii"
    run("fuse-consistency", ["fuse", "consistency", "--type1", str(vote), "--bssfp",
                             str(bssfp[1]), "--t2", str(t2[1]), "--out", str(refined)],
        [vote, bssfp[1], t2[1]], [refined])

    data = read_nifti(refined, labels=True).data
    channels = [tmp_path / f"p{c}.nii" for c in range(4)]
    for c, path in enumerate(channels):
        write_nifti(Volume((data == c).astype(np.float32)), path)
    listing = tmp_path / "models.txt"
    listing.write_text("# one model\n" + ",".join(map(str, channels)) + "\n")
    fused = tmp_path / "ensemble.nii"
    run("fuse-ensemble", ["fuse", "ensemble", "--manifest", str(listing), "--out", str(fused)],
        [listing, *channels], [fused])

    csv = tmp_path / "report.csv"
    run("evaluate", ["evaluate", "--pred", str(fused), "--gt", str(target[1]),
                     "--out-csv", str(csv)], [fused, target[1]], [csv])

    pseudo = tmp_path / "pseudo.nii"
    run("pipeline", ["pipeline", "--target", str(target[0]), "--atlas", f"{atlas[0]}:{atlas[1]}",
                     "--bssfp", f"{bssfp[0]}:{bssfp[1]}", "--t2", f"{t2[0]}:{t2[1]}",
                     "--threads", "1", "--out", str(pseudo)],
        [target[0], *atlas, *bssfp, *t2], [pseudo])


def test_register_pipeline_consistency_ensemble_and_evaluate_end_to_end(tmp_path):
    # 20^3 phantoms keep every registration small, and these seeds give
    # registrations that converge in few steps under the pipeline's presets
    def phantom(name, seed, modality="lge"):
        img, lbl = tmp_path / f"{name}.nii", tmp_path / f"{name}_lbl.nii"
        assert main(["phantom", "--out-image", str(img), "--out-labels", str(lbl),
                     "--dims", "20", "20", "20", "--seed", str(seed),
                     "--modality", modality]) == 0
        return img, lbl

    target, atlas = phantom("target", 1), phantom("atlas", 3)
    bssfp, t2 = phantom("bssfp", 7, "bssfp"), phantom("t2", 9, "t2")

    tfm = tmp_path / "ffd.tfm"
    assert main(["register", "--ref", str(target[0]), "--float", str(atlas[0]),
                 "--out-transform", str(tfm), "--levels", "1", "--max-iter", "2"]) == 0
    affine, fwd, bwd = load_transform(tfm)
    assert fwd is not None and bwd is not None and fwd.reference.dims == (20, 20, 20)
    manifest = _manifest(tfm)
    assert len(manifest["objective_trace"]) == len(manifest["converged"]) == 1
    assert manifest["max_displacement_mm"] >= 0.0
    assert manifest["config"]["levels"] == 1 and manifest["config"]["max_iter_per_level"] == 2

    tfm = tmp_path / "affine.tfm"
    assert main(["register", "--ref", str(target[0]), "--float", str(atlas[0]),
                 "--out-transform", str(tfm), "--affine-only"]) == 0
    only, fwd, bwd = load_transform(tfm)
    np.testing.assert_array_equal(only.matrix, affine.matrix)
    assert fwd is None and bwd is None
    manifest = _manifest(tfm)
    assert manifest["objective_trace"] == manifest["converged"] == []
    assert manifest["max_displacement_mm"] is None

    pseudo = tmp_path / "pseudo.nii"
    assert main(["pipeline", "--target", str(target[0]), "--atlas", f"{atlas[0]}:{atlas[1]}",
                 "--bssfp", f"{bssfp[0]}:{bssfp[1]}", "--t2", f"{t2[0]}:{t2[1]}",
                 "--threads", "2", "--out", str(pseudo)]) == 0
    manifest = _manifest(pseudo)
    assert len(manifest["registrations"]) == 3 and manifest["config"]["threads"] == 2

    refined = tmp_path / "refined.nii"
    assert main(["fuse", "consistency", "--type1", str(pseudo), "--bssfp", str(bssfp[1]),
                 "--t2", str(t2[1]), "--out", str(refined)]) == 0
    bssfp_lbl, t2_lbl, type1 = (read_nifti(p, labels=True) for p in (bssfp[1], t2[1], pseudo))
    agree = bssfp_lbl.data == t2_lbl.data
    expected = np.where(agree, bssfp_lbl.data, type1.data)
    np.testing.assert_array_equal(read_nifti(refined, labels=True).data, expected)

    # two models: one-hot maps of the refined labels and of the target's
    models = []
    for name, lbl in (("refined", refined), ("truth", target[1])):
        data = read_nifti(lbl, labels=True).data
        paths = [tmp_path / f"{name}_p{c}.nii" for c in range(4)]
        for c, path in enumerate(paths):
            write_nifti(Volume((data == c).astype(np.float32)), path)
        models.append(",".join(map(str, paths)))
    listing = tmp_path / "models.txt"
    listing.write_text("\n".join(models) + "\n")
    fused = tmp_path / "ensemble.nii"
    assert main(["fuse", "ensemble", "--manifest", str(listing), "--keep-largest",
                 "--out", str(fused)]) == 0
    assert len(_manifest(fused)["inputs"]) == 1 + 8

    csv = tmp_path / "report.csv"
    assert main(["evaluate", "--pred", str(fused), "--gt", str(target[1]),
                 "--out-csv", str(csv)]) == 0
    assert "lv_cavity" in csv.read_text()


def test_pipeline_moves_a_shifted_atlas_onto_the_target(tmp_path):
    # The atlas is the target phantom translated by (3, -2, 1) mm, so its
    # labels overlap the target's poorly until registration moves them back:
    # mean Dice measured 0.05 unregistered and 1.00 after the pipeline. A
    # pipeline that moved the labels the wrong way would score below the
    # unregistered atlas.
    img, lbl = tmp_path / "target.nii", tmp_path / "target_lbl.nii"
    assert main(["phantom", "--out-image", str(img), "--out-labels", str(lbl),
                 "--dims", "20", "20", "20", "--seed", "1"]) == 0
    target, truth = read_nifti(img), read_nifti(lbl, labels=True)
    shift = np.eye(4)
    shift[:3, 3] = (3.0, -2.0, 1.0)
    atlas_img, atlas_lbl = tmp_path / "atlas.nii", tmp_path / "atlas_lbl.nii"
    write_nifti(warp_volume(target, target, AffineTransform(shift)), atlas_img)
    write_nifti(warp_labels(truth, truth, AffineTransform(shift)), atlas_lbl)

    pseudo = tmp_path / "pseudo.nii"
    assert main(["pipeline", "--target", str(img), "--atlas", f"{atlas_img}:{atlas_lbl}",
                 "--threads", "1", "--out", str(pseudo)]) == 0

    def mean_dice(path):
        labels = read_nifti(path, labels=True)
        return np.mean([dice(labels, truth, c) for c in (1, 2, 3)])

    unregistered = mean_dice(atlas_lbl)
    assert unregistered < 0.2
    assert mean_dice(pseudo) > unregistered + 0.6
