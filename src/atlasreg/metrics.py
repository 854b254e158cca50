"""Segmentation evaluation: overlap and surface-distance metrics per class.

Surfaces are the class voxels with at least one six-neighbor outside the
class (the volume border counts as outside); distances are measured between
surface voxel centers in millimeters. The Hausdorff distance is the exact
maximum of the two directed maxima, and the average surface distance is the
mean of the two directed means.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import UndefinedMetricError, require_type
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


def dice(pred: LabelVolume, gt: LabelVolume, class_id: int) -> float:
    """2|P∩G| / (|P|+|G|); 1.0 when both sets are empty, 0.0 when one is."""
    require_type(LabelVolume, pred=pred, gt=gt)
    require_same_geometry(pred, gt)
    p = pred.data == class_id
    g = gt.data == class_id
    np_, ng = int(p.sum()), int(g.sum())
    if np_ == 0 and ng == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / (np_ + ng)


def jaccard(pred: LabelVolume, gt: LabelVolume, class_id: int) -> float:
    """|P∩G| / |P∪G|; empty-set conventions as dice."""
    require_type(LabelVolume, pred=pred, gt=gt)
    require_same_geometry(pred, gt)
    p = pred.data == class_id
    g = gt.data == class_id
    union = int((p | g).sum())
    if union == 0:
        return 1.0
    return int((p & g).sum()) / union


def _surface_points(mask: np.ndarray, spacing) -> np.ndarray:
    """Surface voxel centers (mm): class voxels with a 6-neighbor outside."""
    structure = ndimage.generate_binary_structure(3, 1)
    eroded = ndimage.binary_erosion(mask, structure=structure, border_value=0)
    surf = mask & ~eroded
    return np.argwhere(surf) * np.asarray(spacing)


def surface_distances(pred: LabelVolume, gt: LabelVolume,
                      class_id: int) -> tuple[float, float]:
    """(average surface distance, Hausdorff distance) in mm for one class."""
    require_type(LabelVolume, pred=pred, gt=gt)
    require_same_geometry(pred, gt)
    p_pts = _surface_points(pred.data == class_id, pred.spacing)
    g_pts = _surface_points(gt.data == class_id, gt.spacing)
    if len(p_pts) == 0 or len(g_pts) == 0:
        raise UndefinedMetricError(
            f"class {class_id} is empty in {'prediction' if len(p_pts) == 0 else 'ground truth'}"
        )
    d_pg = cKDTree(g_pts).query(p_pts)[0]
    d_gp = cKDTree(p_pts).query(g_pts)[0]
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
