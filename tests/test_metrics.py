import numpy as np
import pytest

from atlasreg import (
    GeometryMismatchError,
    InvalidInputError,
    LabelVolume,
    UndefinedMetricError,
    Volume,
    dice,
    evaluate,
    jaccard,
    surface_distances,
)
from atlasreg.metrics import _nearest_distances, _surface_points


def _lbl(data, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(np.asarray(data), spacing)


def _random_pair(rng, dims=(6, 6, 6)):
    return (_lbl(rng.integers(0, 4, dims)), _lbl(rng.integers(0, 4, dims)))


# --- overlap oracles -----------------------------------------------------

def brute_dice(pred, gt, cls):
    p = pred.data == cls
    g = gt.data == cls
    inter = sum(1 for idx in np.ndindex(pred.dims) if p[idx] and g[idx])
    np_, ng = p.sum(), g.sum()
    if np_ + ng == 0:
        return 1.0
    return 2.0 * inter / (np_ + ng)


def brute_surface(mask):
    pts = []
    nx, ny, nz = mask.shape
    for i, j, k in np.argwhere(mask):
        for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)):
            ni, nj, nk = i + di, j + dj, k + dk
            outside = not (0 <= ni < nx and 0 <= nj < ny and 0 <= nk < nz)
            if outside or not mask[ni, nj, nk]:
                pts.append((i, j, k))
                break
    return np.array(pts, dtype=float)


def brute_distances(pred, gt, cls, spacing):
    ps = brute_surface(pred.data == cls) * np.asarray(spacing)
    gs = brute_surface(gt.data == cls) * np.asarray(spacing)
    d_pg = [min(np.linalg.norm(p - g) for g in gs) for p in ps]
    d_gp = [min(np.linalg.norm(g - p) for p in ps) for g in gs]
    asd = (np.mean(d_pg) + np.mean(d_gp)) / 2.0
    return asd, max(max(d_pg), max(d_gp))


def test_dice_perfect_disjoint_half():
    full = _lbl(np.full((2, 2, 2), 1))
    assert dice(full, full, 1) == 1.0

    a = np.zeros((4, 1, 1), dtype=np.uint8)
    b = np.zeros((4, 1, 1), dtype=np.uint8)
    a[:2] = 1
    b[2:] = 1
    assert dice(_lbl(a), _lbl(b), 1) == 0.0

    # |P| = |G| = 8, intersection 4 -> dice 0.5
    p = np.zeros((4, 2, 2), dtype=np.uint8)
    g = np.zeros((4, 2, 2), dtype=np.uint8)
    p[0:2] = 1  # 8 voxels
    g[1:3] = 1  # 8 voxels, 4 shared
    assert dice(_lbl(p), _lbl(g), 1) == pytest.approx(0.5)


def test_empty_set_conventions():
    empty = _lbl(np.zeros((2, 2, 2), dtype=np.uint8))
    one = _lbl(np.full((2, 2, 2), 1, dtype=np.uint8))
    assert dice(empty, empty, 1) == 1.0
    assert dice(one, empty, 1) == 0.0
    assert jaccard(empty, empty, 1) == 1.0
    assert jaccard(one, empty, 1) == 0.0


def test_jaccard_dice_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pred, gt = _random_pair(rng)
        for cls in (1, 2, 3):
            d = dice(pred, gt, cls)
            j = jaccard(pred, gt, cls)
            assert j == pytest.approx(d / (2.0 - d), abs=1e-12)
            assert j <= d + 1e-12
    # the quoted example: dice 0.5 -> jaccard 1/3
    p = np.zeros((4, 2, 2), dtype=np.uint8)
    g = np.zeros((4, 2, 2), dtype=np.uint8)
    p[0:2] = 1
    g[1:3] = 1
    assert jaccard(_lbl(p), _lbl(g), 1) == pytest.approx(1.0 / 3.0)


def test_overlap_metrics_match_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pred, gt = _random_pair(rng, dims=(5, 4, 6))
        for cls in (1, 2, 3):
            assert dice(pred, gt, cls) == pytest.approx(brute_dice(pred, gt, cls))


def test_dice_symmetry_and_geometry_error():
    rng = np.random.default_rng(2)
    pred, gt = _random_pair(rng)
    for cls in (1, 2, 3):
        assert dice(pred, gt, cls) == dice(gt, pred, cls)
    other = _lbl(np.zeros((3, 3, 3), dtype=np.uint8))
    with pytest.raises(GeometryMismatchError):
        dice(pred, other, 1)


# --- surface distances ---------------------------------------------------

def test_identical_masks_have_zero_distances():
    rng = np.random.default_rng(3)
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[2:5, 1:4, 2:4] = 1
    lbl = _lbl(data)
    asd, hd = surface_distances(lbl, lbl, 1)
    assert asd == 0.0 and hd == 0.0


def test_single_voxel_sets_three_apart():
    a = np.zeros((8, 1, 1), dtype=np.uint8)
    b = np.zeros((8, 1, 1), dtype=np.uint8)
    a[1] = 1
    b[4] = 1
    asd, hd = surface_distances(_lbl(a), _lbl(b), 1)
    assert asd == pytest.approx(3.0)
    assert hd == pytest.approx(3.0)


def test_distances_match_all_pairs_oracle():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(25):
        pred, gt = _random_pair(rng, dims=(5, 5, 5))
        for cls in (1, 2, 3):
            if not ((pred.data == cls).any() and (gt.data == cls).any()):
                continue
            asd, hd = surface_distances(pred, gt, cls)
            basd, bhd = brute_distances(pred, gt, cls, pred.spacing)
            assert asd == pytest.approx(basd, abs=1e-9)
            assert hd == pytest.approx(bhd, abs=1e-9)
            assert hd >= asd >= 0.0
            checked += 1
    assert checked >= 20


def test_distances_use_physical_spacing():
    a = np.zeros((4, 1, 1), dtype=np.uint8)
    b = np.zeros((4, 1, 1), dtype=np.uint8)
    a[0] = 1
    b[2] = 1
    asd, hd = surface_distances(_lbl(a, spacing=(2.5, 1.0, 1.0)),
                                _lbl(b, spacing=(2.5, 1.0, 1.0)), 1)
    assert hd == pytest.approx(5.0)


def _kdtree_distances(pred, gt, cls):
    """(asd, hd) through scipy's six-neighbour erosion and cKDTree queries,
    and the two directed distance arrays."""
    from scipy import ndimage
    from scipy.spatial import cKDTree

    structure = ndimage.generate_binary_structure(3, 1)
    p_pts, g_pts = (np.argwhere(m & ~ndimage.binary_erosion(m, structure, border_value=0))
                    * np.asarray(pred.spacing) for m in (pred.data == cls, gt.data == cls))
    d_pg, d_gp = cKDTree(g_pts).query(p_pts)[0], cKDTree(p_pts).query(g_pts)[0]
    asd = (float(d_pg.mean()) + float(d_gp.mean())) / 2.0
    return asd, max(float(d_pg.max()), float(d_gp.max())), d_pg, d_gp


def _bits(*values) -> np.ndarray:
    return np.array(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", range(4))
def test_surface_points_equal_scipys_erosion_on_masks_that_touch_the_border(seed):
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    structure = ndimage.generate_binary_structure(3, 1)
    for dims in ((7, 6, 5), (1, 6, 5), (4, 2, 1)):
        for mask in (rng.random(dims) < 0.8, np.ones(dims, dtype=bool)):
            want = np.argwhere(mask & ~ndimage.binary_erosion(mask, structure,
                                                              border_value=0))
            assert np.array_equal(_surface_points(mask), want)


def _ball(dims, center, radius, spacing):
    pos = np.indices(dims).transpose(1, 2, 3, 0) * np.asarray(spacing)
    return (((pos - np.asarray(center)) ** 2).sum(axis=-1) < radius ** 2).astype(np.uint8)


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.25, 0.7, 5.0), (0.3, 2.5, 1.1)])
def test_surface_distances_equal_kdtree_queries_bit_for_bit(spacing):
    rng = np.random.default_rng(11)
    dims = (14, 12, 9)
    extent = (np.asarray(dims) - 1) * np.asarray(spacing)
    corners = np.zeros(dims, dtype=np.uint8)
    corners[0, 0, 0] = corners[-1, -1, -1] = 1
    one_a, one_b = np.zeros(dims, dtype=np.uint8), np.zeros(dims, dtype=np.uint8)
    one_a[2, 3, 4] = one_b[11, 1, 7] = 1
    corner_a, corner_b = np.zeros(dims, dtype=np.uint8), np.zeros(dims, dtype=np.uint8)
    corner_a[:4, :3, :3] = corner_b[-3:, -4:, -2:] = 1
    pairs = [
        (_ball(dims, 0.5 * extent, 0.3 * extent.max(), spacing),
         _ball(dims, 0.55 * extent, 0.25 * extent.max(), spacing)),
        (corner_a, corner_b),  # far apart
        (one_a, one_b),  # single voxels
        (one_a, corners),
        (rng.random(dims) < 0.3, rng.random(dims) < 0.6),
    ]
    for a, b in pairs:
        pred, gt = (_lbl(np.asarray(v, dtype=np.uint8), spacing) for v in (a, b))
        asd, hd, d_pg, d_gp = _kdtree_distances(pred, gt, 1)
        assert np.array_equal(_bits(*surface_distances(pred, gt, 1)), _bits(asd, hd))
        p_pts, g_pts = (_surface_points(v.data == 1) for v in (pred, gt))
        geometry = (dims, np.zeros(3, dtype=np.int64), np.asarray(spacing))
        assert np.array_equal(_bits(*_nearest_distances(p_pts, g_pts, *geometry)), _bits(*d_pg))
        assert np.array_equal(_bits(*_nearest_distances(g_pts, p_pts, *geometry)), _bits(*d_gp))


def test_empty_class_raises_undefined_metric():
    empty = _lbl(np.zeros((3, 3, 3), dtype=np.uint8))
    one = _lbl(np.full((3, 3, 3), 1, dtype=np.uint8))
    with pytest.raises(UndefinedMetricError):
        surface_distances(one, empty, 1)


# --- full report ---------------------------------------------------------

def test_evaluate_rejects_intensity_volumes():
    with pytest.raises(InvalidInputError, match="gt must be a LabelVolume"):
        evaluate(_lbl(np.zeros((2, 2, 2))), Volume(np.zeros((2, 2, 2))))


def test_evaluate_perfect_prediction():
    rng = np.random.default_rng(8)
    gt = _lbl(rng.integers(0, 4, (6, 6, 6)))
    report = evaluate(gt, gt)
    for cls in (1, 2, 3):
        m = report.per_class[cls]
        assert m.dice == 1.0 and m.jaccard == 1.0
        assert m.asd_mm == 0.0 and m.hausdorff_mm == 0.0
    assert report.average("dice") == 1.0


def test_report_averages_match_recomputation():
    rng = np.random.default_rng(9)
    pred, gt = _random_pair(rng, dims=(7, 7, 7))
    report = evaluate(pred, gt)
    for name in ("dice", "jaccard", "asd_mm", "hausdorff_mm"):
        vals = [getattr(report.per_class[c], name) for c in (1, 2, 3)]
        if any(v is None for v in vals):
            assert report.average(name) is None
        else:
            assert report.average(name) == pytest.approx(np.mean(vals), abs=1e-9)


def test_report_matches_independent_recount():
    rng = np.random.default_rng(10)
    pred, gt = _random_pair(rng, dims=(5, 6, 5))
    report = evaluate(pred, gt)
    for cls in (1, 2, 3):
        assert report.per_class[cls].dice == pytest.approx(brute_dice(pred, gt, cls))


def test_report_missing_entries_render_as_na():
    pred = _lbl(np.zeros((3, 3, 3), dtype=np.uint8))
    gt = _lbl(np.full((3, 3, 3), 1, dtype=np.uint8))
    report = evaluate(pred, gt)
    assert report.per_class[1].asd_mm is None
    csv = report.to_csv()
    assert "NA" in csv
    assert csv.splitlines()[0] == "class,dice,jaccard,asd_mm,hd_mm"
    table = report.to_table()
    assert "LV Cavity" in table and "Hausdorff distance [mm]" in table
