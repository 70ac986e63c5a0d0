"""Axis-aligned box geometry: IOU metrics, anchor grids, and score filtering.

Boxes are center-form ``(x, y, w, h)`` throughout: ``(x, y)`` is the box
center in pixels, ``(w, h)`` its width and height. Corner-form never appears
in this package's interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InvalidBoxError(ValueError):
    """A box has non-finite coordinates or non-positive dimensions."""


class InvalidSpecError(ValueError):
    """An anchor-grid specification is unusable."""


@dataclass(frozen=True)
class Box:
    """Center-form bounding box in pixel units."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.x, self.y, self.w, self.h)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidBoxError(f"non-finite box {vals}")
        if self.w <= 0 or self.h <= 0:
            raise InvalidBoxError(f"non-positive box dimensions {vals}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


def as_box_array(boxes) -> np.ndarray:
    """Coerce boxes to a validated (N, 4) float64 array.

    Accepts an (N, 4) array-like, a sequence of :class:`Box`, or a sequence
    of 4-tuples. Raises :class:`InvalidBoxError` on non-finite values or
    non-positive widths/heights.
    """
    if isinstance(boxes, np.ndarray) and boxes.ndim == 2 and boxes.shape[1] == 4:
        arr = boxes.astype(np.float64, copy=False)
    else:
        rows = [b.as_array() if isinstance(b, Box) else np.asarray(b, dtype=np.float64) for b in boxes]
        arr = np.stack(rows) if rows else np.empty((0, 4), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise InvalidBoxError(f"expected (N, 4) boxes, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidBoxError("non-finite box coordinates")
    if arr.size and (np.any(arr[:, 2] <= 0) or np.any(arr[:, 3] <= 0)):
        raise InvalidBoxError("non-positive box dimensions")
    return arr


def _one_box(b) -> np.ndarray:
    if isinstance(b, Box):
        return b.as_array()
    return as_box_array([b])[0]


def iou(a, b) -> float:
    """Intersection over union of two center-form boxes, in [0, 1]."""
    return float(iou_matrix(_one_box(a)[None, :], _one_box(b)[None, :])[0, 0])


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise IOU between boxes ``a`` (N, 4) and ``b`` (M, 4)."""
    a = as_box_array(a)
    b = as_box_array(b)
    ax1, ay1 = a[:, 0] - a[:, 2] / 2, a[:, 1] - a[:, 3] / 2
    ax2, ay2 = a[:, 0] + a[:, 2] / 2, a[:, 1] + a[:, 3] / 2
    bx1, by1 = b[:, 0] - b[:, 2] / 2, b[:, 1] - b[:, 3] / 2
    bx2, by2 = b[:, 0] + b[:, 2] / 2, b[:, 1] + b[:, 3] / 2

    iw = np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(ax1[:, None], bx1[None, :])
    ih = np.minimum(ay2[:, None], by2[None, :]) - np.maximum(ay1[:, None], by1[None, :])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)

    area_a = (a[:, 2] * a[:, 3])[:, None]
    area_b = (b[:, 2] * b[:, 3])[None, :]
    return inter / (area_a + area_b - inter)


def matching_distance(a, b) -> float:
    """One minus IOU: 0 for identical boxes, 1 for disjoint ones."""
    return 1.0 - iou(a, b)


def matching_distance_matrix(a, b) -> np.ndarray:
    return 1.0 - iou_matrix(a, b)


def euclidean_distance(a, b) -> float:
    """L2 distance between the two (x, y, w, h) 4-vectors."""
    return float(np.linalg.norm(_one_box(a) - _one_box(b)))


def euclidean_distance_matrix(a, b) -> np.ndarray:
    a = as_box_array(a)
    b = as_box_array(b)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


@dataclass(frozen=True)
class GridSpec:
    """Dense anchor grid: ``grid_w × grid_h`` cells, K template shapes each.

    Anchor centers are evenly spaced with an (index+1)/(count+1) rule so all
    centers fall strictly inside the image. The flattened anchor index is
    ``((j * grid_w) + i) * K + k`` for column i, row j, template k.
    """

    image_w: float
    image_h: float
    grid_w: int
    grid_h: int
    templates: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.image_w <= 0 or self.image_h <= 0:
            raise InvalidSpecError("image dimensions must be positive")
        if self.grid_w < 1 or self.grid_h < 1:
            raise InvalidSpecError("grid dimensions must be >= 1")
        if len(self.templates) == 0:
            raise InvalidSpecError("at least one template shape is required")
        for tw, th in self.templates:
            if tw <= 0 or th <= 0:
                raise InvalidSpecError(f"non-positive template shape ({tw}, {th})")
        object.__setattr__(self, "templates", tuple((float(tw), float(th)) for tw, th in self.templates))

    @property
    def n_anchors(self) -> int:
        return self.grid_w * self.grid_h * len(self.templates)


def build_anchor_grid(spec: GridSpec) -> np.ndarray:
    """Return the (n_anchors, 4) array of anchor boxes for ``spec``.

    Deterministic: the same spec always produces bit-identical output.
    """
    k = len(spec.templates)
    xs = (np.arange(spec.grid_w) + 1) * (spec.image_w / (spec.grid_w + 1))
    ys = (np.arange(spec.grid_h) + 1) * (spec.image_h / (spec.grid_h + 1))
    tw = np.array([t[0] for t in spec.templates])
    th = np.array([t[1] for t in spec.templates])

    # Flattening order: row j slowest, column i, template k fastest.
    jj, ii, kk = np.meshgrid(np.arange(spec.grid_h), np.arange(spec.grid_w), np.arange(k), indexing="ij")
    out = np.empty((spec.n_anchors, 4), dtype=np.float64)
    out[:, 0] = xs[ii.ravel()]
    out[:, 1] = ys[jj.ravel()]
    out[:, 2] = tw[kk.ravel()]
    out[:, 3] = th[kk.ravel()]
    return out


@dataclass(frozen=True)
class ScoredBox:
    """A detection candidate: box, confidence score in [0, 1], class id."""

    box: Box
    score: float
    class_id: int = 0

    def __post_init__(self):
        if not np.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be finite and in [0, 1], got {self.score}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")


def nms(candidates: Sequence[ScoredBox], thresh: float) -> list[int]:
    """Greedy per-class non-maximum suppression.

    Candidates are visited in descending score order (ties broken by
    ascending input index). A candidate is suppressed iff its IOU with an
    already-retained candidate of the same class exceeds ``thresh``.
    Returns retained input indices in retention order. One IOU matrix over
    all candidates is built per call.
    """
    if not 0.0 <= thresh <= 1.0:
        raise ValueError(f"thresh must be in [0, 1], got {thresh}")
    if not candidates:
        return []

    boxes = as_box_array([c.box for c in candidates])
    scores = np.array([c.score for c in candidates], dtype=np.float64)
    classes = np.array([c.class_id for c in candidates])
    # iou_matrix is symmetric bit for bit, so row i holds every IOU of i
    over = (iou_matrix(boxes, boxes) > thresh) & (classes[:, None] == classes[None, :])
    suppressed = np.zeros(len(candidates), dtype=bool)
    kept: list[int] = []
    for i in np.argsort(-scores, kind="stable"):
        if not suppressed[i]:
            kept.append(int(i))
            suppressed |= over[i]
    return kept
