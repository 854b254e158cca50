"""Segmentation evaluation: overlap and surface-distance metrics per class.

Surfaces are the class voxels with at least one six-neighbor outside the
class (the volume border counts as outside); distances are measured between
surface voxel centers in millimeters. The Hausdorff distance is the exact
maximum of the two directed maxima, and the average surface distance is the
mean of the two directed means.

Each directed distance is exact, and its float64 value is that of a k-d tree
query: the squared differences summed in x, y, z order, their minimum over
the other surface, then the square root. The search works in the bounding
box of both classes, whose rows run along z. A surface voxel first takes as
an upper bound its distance to the nearest of the other surface's voxels
just before and after its z in raster order, from its own row and from the
four neighboring rows. Every row that holds voxels of the other surface
within that bound is then searched; in a row the nearest voxel is one of the
two around the query's z, so each row costs two distances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError, is_natural, require_type
from .volume import CLASS_NAMES, LabelVolume, require_same_geometry

FOREGROUND_CLASSES = (1, 2, 3)
# per reported metric: (table row title, CSV column, ClassMetrics field,
# decimals in the table); the CSV keeps six decimals
REPORT_METRICS = (
    ("Dice", "dice", "dice", 3),
    ("Jaccard", "jaccard", "jaccard", 3),
    ("Surface distance [mm]", "asd_mm", "asd_mm", 2),
    ("Hausdorff distance [mm]", "hd_mm", "hausdorff_mm", 2),
)


def _class_masks(pred: LabelVolume, gt: LabelVolume, class_id) -> tuple[np.ndarray, np.ndarray]:
    """The voxels of class `class_id` in pred and in gt, once the argument
    types and the geometry are checked."""
    require_type(LabelVolume, pred=pred, gt=gt)
    require_same_geometry(pred, gt)
    if not is_natural(class_id):
        raise InvalidInputError(f"class_id must be an integer >= 0, got {class_id!r}")
    return pred.data == class_id, gt.data == class_id


def _overlap(pred: LabelVolume, gt: LabelVolume, class_id) -> tuple[int, int]:
    """(|P∩G|, |P|+|G|) of the voxels of class `class_id` in pred and gt."""
    p, g = _class_masks(pred, gt, class_id)
    return int((p & g).sum()), int(p.sum()) + int(g.sum())


def dice(pred: LabelVolume, gt: LabelVolume, class_id: int) -> float:
    """2|P∩G| / (|P|+|G|); 1.0 when both sets are empty, 0.0 when one is."""
    both, total = _overlap(pred, gt, class_id)
    return 2.0 * both / total if total else 1.0


def jaccard(pred: LabelVolume, gt: LabelVolume, class_id: int) -> float:
    """|P∩G| / |P∪G|; empty-set conventions as dice."""
    both, total = _overlap(pred, gt, class_id)
    return both / (total - both) if total else 1.0


def _surface_points(mask: np.ndarray) -> np.ndarray:
    """Voxel indices (K, 3), in raster order, of the voxels of `mask` with a
    six-neighbor outside it; the array border counts as outside."""
    padded = np.zeros([n + 2 for n in mask.shape], dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = mask
    inner = mask.copy()
    for axis in range(3):
        for shift in (0, 2):  # the neighbor before, then after, along `axis`
            view = [slice(1, -1)] * 3
            view[axis] = slice(shift, shift + mask.shape[axis])
            inner &= padded[tuple(view)]
    return np.argwhere(mask & ~inner)


_NEIGHBOR_ROWS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
_CHUNK = 1 << 18  # rows searched at once
_REACH = 1.0 + 1e-9  # grows the bound past the rounding of coordinates


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rank) of every item when owner o holds counts[o] items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _nearest_distances(queries: np.ndarray, targets: np.ndarray, dims, corner,
                       spacing) -> np.ndarray:
    """Distance (mm) from each query voxel to its nearest target voxel.

    Both are voxel indices of a box of `dims` whose voxel 0 is `corner` of
    the volume, the targets in raster order; a voxel's center is its volume
    index times `spacing`. See the module docstring for the search.
    """
    nx, ny, nz = dims
    qi, qj, qk = queries.T
    qx, qy, qz = ((queries + corner) * spacing).T
    tx, ty, tz = ((targets + corner) * spacing).T
    last = len(targets) - 1
    # before[v]: the number of targets ahead of box voxel v in raster order
    before = np.zeros(nx * ny * nz + 1, dtype=np.int64)
    linear = (targets[:, 0] * ny + targets[:, 1]) * nz + targets[:, 2]
    np.cumsum(np.bincount(linear, minlength=nx * ny * nz), out=before[1:])

    def squared(q, t):
        d = qx[q] - tx[t]
        s = d * d
        d = qy[q] - ty[t]
        s += d * d
        d = qz[q] - tz[t]
        s += d * d
        return s

    def in_rows(q, i, j):
        """Squared distance from queries q to the targets just before and
        after (i, j, q's z) in raster order: the nearest of row (i, j), if
        the row holds one, is among them."""
        k = before[(i * ny + j) * nz + qk[q]]
        return np.minimum(squared(q, np.minimum(k, last)), squared(q, np.maximum(k - 1, 0)))

    every = slice(None)
    bound = np.full(len(queries), np.inf)
    for di, dj in _NEIGHBOR_ROWS:
        i = np.minimum(np.maximum(qi + di, 0), nx - 1)
        j = np.minimum(np.maximum(qj + dj, 0), ny - 1)
        np.minimum(bound, in_rows(every, i, j), out=bound)

    # the rows within reach of each query, among those holding targets:
    # the slices (i) first, then the rows (j) of each slice
    reach2 = bound * _REACH
    j_low, j_high = np.full(nx, ny), np.full(nx, -1)
    np.minimum.at(j_low, targets[:, 0], targets[:, 1])
    np.maximum.at(j_high, targets[:, 0], targets[:, 1])
    wx = (np.sqrt(reach2) / spacing[0]).astype(np.int64)
    i0 = np.maximum(qi - wx, targets[0, 0])
    sq, rank = _spread(np.maximum(np.minimum(qi + wx, targets[-1, 0]) - i0 + 1, 0))
    si = i0[sq] + rank
    dx = (si - qi[sq]) * spacing[0]
    wy = (np.sqrt(np.maximum(reach2[sq] - dx * dx, 0.0)) / spacing[1]).astype(np.int64)
    j0 = np.maximum(qj[sq] - wy, j_low[si])
    rows = np.maximum(np.minimum(qj[sq] + wy, j_high[si]) - j0 + 1, 0)

    best = np.full(len(queries), np.inf)
    ends = np.cumsum(rows)
    cuts = [0, *np.searchsorted(ends, np.arange(_CHUNK, ends[-1], _CHUNK)), len(rows)]
    for a, b in zip(cuts, cuts[1:]):
        owner, rank = _spread(rows[a:b])
        q = sq[a:b][owner]
        np.minimum.at(best, q, in_rows(q, si[a:b][owner], j0[a:b][owner] + rank))
    return np.sqrt(best)


def _bounding_box(mask: np.ndarray) -> tuple[slice, ...]:
    """The smallest box of `mask`'s array that holds all its True voxels."""
    box = []
    for axis in range(mask.ndim):
        hit = np.flatnonzero(mask.any(axis=tuple(a for a in range(mask.ndim) if a != axis)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def surface_distances(pred: LabelVolume, gt: LabelVolume,
                      class_id: int) -> tuple[float, float]:
    """(average surface distance, Hausdorff distance) in mm for one class."""
    p_mask, g_mask = _class_masks(pred, gt, class_id)
    for name, mask in (("prediction", p_mask), ("ground truth", g_mask)):
        if not mask.any():
            raise UndefinedMetricError(f"class {class_id} is empty in {name}")
    box = _bounding_box(p_mask | g_mask)  # every voxel outside is outside both
    p_mask, g_mask = p_mask[box], g_mask[box]
    p_pts, g_pts = _surface_points(p_mask), _surface_points(g_mask)
    geometry = (p_mask.shape, np.array([b.start for b in box]), np.asarray(pred.spacing))
    d_pg = _nearest_distances(p_pts, g_pts, *geometry)
    d_gp = _nearest_distances(g_pts, p_pts, *geometry)
    asd = (float(d_pg.mean()) + float(d_gp.mean())) / 2.0
    hausdorff = max(float(d_pg.max()), float(d_gp.max()))
    return asd, hausdorff


def _fmt(value, decimals: int) -> str:
    return "NA" if value is None else f"{value:.{decimals}f}"


@dataclass(frozen=True)
class ClassMetrics:
    dice: float
    jaccard: float
    asd_mm: float | None
    hausdorff_mm: float | None


@dataclass(frozen=True)
class EvaluationReport:
    per_class: dict[int, ClassMetrics]

    def average(self, name: str) -> float | None:
        vals = [getattr(m, name) for m in self.per_class.values()]
        if any(v is None for v in vals):
            return None
        return float(np.mean(vals))

    def _values(self, field: str) -> list:
        """`field` of the three foreground classes, then its average."""
        values = [getattr(self.per_class[c], field) for c in FOREGROUND_CLASSES]
        return values + [self.average(field)]

    def to_csv(self) -> str:
        names = [CLASS_NAMES[c] for c in FOREGROUND_CLASSES] + ["average"]
        columns = [self._values(field) for _, _, field, _ in REPORT_METRICS]
        lines = [",".join(["class"] + [column for _, column, _, _ in REPORT_METRICS])]
        for name, *values in zip(names, *columns):
            lines.append(",".join([name] + [_fmt(v, 6) for v in values]))
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        rows = [("Metric", "LV Cavity", "LV Myocardium", "RV Cavity", "Average")]
        rows += [(title, *(_fmt(v, decimals) for v in self._values(field)))
                 for title, _, field, decimals in REPORT_METRICS]
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = [" | ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
        lines.insert(1, "-+-".join("-" * w for w in widths))
        return "\n".join(lines)


def evaluate(pred: LabelVolume, gt: LabelVolume) -> EvaluationReport:
    """All four metrics for the three foreground classes plus averages.

    Undefined surface distances (a class empty on either side) are reported
    as missing entries, not as zeros. The per-class metrics check the
    argument types and the geometry.
    """
    per_class = {}
    for cls in FOREGROUND_CLASSES:
        try:
            asd, hd = surface_distances(pred, gt, cls)
        except UndefinedMetricError:
            asd = hd = None
        per_class[cls] = ClassMetrics(
            dice=dice(pred, gt, cls),
            jaccard=jaccard(pred, gt, cls),
            asd_mm=asd,
            hausdorff_mm=hd,
        )
    return EvaluationReport(per_class)
