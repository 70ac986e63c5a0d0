"""Seeded inputs for the benchmark workloads.

The benchmark owns this generator so that a change to the library's own
``gen_synthetic`` stream cannot change what is measured. Box counts per
image are a fixed multiset shuffled by the seed, so every seed gives the
same number of boxes and only their order, placement and shape vary; that
keeps the work per run comparable across seeds.
"""

from __future__ import annotations

import numpy as np

from odkit.geometry import Box, ScoredBox
from odkit.sparse_labels import LabelRecord

YOLO_TEMPLATES = ((10, 13), (16, 30), (33, 23), (30, 61), (62, 45),
                  (59, 119), (116, 90), (156, 198), (373, 326))
CROWDED_TEMPLATES = ((12, 12), (16, 24), (24, 16))


def box_counts(rng: np.random.Generator, group, n_groups: int) -> np.ndarray:
    """Box counts for ``n_groups`` groups of ``len(group)`` images: each
    group holds the counts ``group`` in its own seeded order, so every
    batch or chunk built from one group costs about the same."""
    return rng.permuted(np.tile(np.asarray(group), (n_groups, 1)), axis=1).ravel()


def label_records(rng: np.random.Generator, counts, image_w: int, image_h: int,
                  size_lo: int, size_hi_w: int, size_hi_h: int,
                  n_classes: int = 3) -> list[LabelRecord]:
    """One record per entry of ``counts``. Widths and heights are uniform
    integers in ``[size_lo, size_hi_*]``; corners are integer pixels
    inside the image, so coordinates survive float32 storage exactly."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    w = rng.integers(size_lo, size_hi_w + 1, size=total)
    h = rng.integers(size_lo, size_hi_h + 1, size=total)
    x1 = np.floor(rng.random(total) * (image_w - w + 1))
    y1 = np.floor(rng.random(total) * (image_h - h + 1))
    boxes = np.stack([x1 + w / 2, y1 + h / 2, w, h], axis=1).astype(np.float64)
    classes = rng.integers(0, n_classes, size=total)
    ends = np.cumsum(counts)
    return [LabelRecord(i, image_w, image_h, boxes[e - c:e], classes[e - c:e])
            for i, (c, e) in enumerate(zip(counts, ends))]


def nms_candidates(rng: np.random.Generator, rec: LabelRecord, per_box: int = 4,
                   n_classes: int = 3) -> list[ScoredBox]:
    """``per_box`` jittered, scored candidates around each ground-truth box,
    each with a random class, the way a detector's raw output clusters."""
    n = len(rec.boxes) * per_box
    base = np.repeat(rec.boxes, per_box, axis=0)
    shift = rng.uniform(-0.15, 0.15, size=(n, 2)) * base[:, 2:]
    scale = np.exp(rng.uniform(-0.2, 0.2, size=(n, 2)))
    scores = rng.random(n)
    classes = rng.integers(0, n_classes, size=n)
    return [ScoredBox(Box(float(b[0] + s[0]), float(b[1] + s[1]),
                          float(b[2] * k[0]), float(b[3] * k[1])),
                      float(p), int(c))
            for b, s, k, p, c in zip(base, shift, scale, scores, classes)]


def tune_objective(rng: np.random.Generator, lows: np.ndarray, highs: np.ndarray):
    """A mildly multimodal function to maximize, on coordinates normalised
    to [0, 1]: a bowl around a seeded centre plus a small ripple."""
    centre = rng.uniform(0.25, 0.75, size=len(lows))
    span = highs - lows

    def objective(x) -> float:
        u = (np.asarray(x, dtype=np.float64) - lows) / span - centre
        return float(-np.sum(u * u) + 0.05 * np.sum(np.cos(6 * np.pi * u)))
    return objective
