"""Independent reference implementations used to check the package.

Everything here is deliberately written by a different method than the
library code: IOU by point counting instead of interval arithmetic,
assignments by exhaustive enumeration instead of Hungarian/greedy
selection, search baselines by plain uniform sampling. Slow is fine;
these run at test scale only.
"""

from __future__ import annotations

import itertools

import numpy as np


def mc_iou(a, b, n: int = 200_000, seed: int = 0) -> float:
    """Monte-Carlo IOU estimate: sample the joint bounding rectangle and
    count hits. Standard error is about 1.5e-3 at the default n."""
    ax1, ax2 = a[0] - a[2] / 2, a[0] + a[2] / 2
    ay1, ay2 = a[1] - a[3] / 2, a[1] + a[3] / 2
    bx1, bx2 = b[0] - b[2] / 2, b[0] + b[2] / 2
    by1, by2 = b[1] - b[3] / 2, b[1] + b[3] / 2
    lo_x, hi_x = min(ax1, bx1), max(ax2, bx2)
    lo_y, hi_y = min(ay1, by1), max(ay2, by2)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo_x, hi_x, n)
    ys = rng.uniform(lo_y, hi_y, n)
    in_a = (ax1 <= xs) & (xs <= ax2) & (ay1 <= ys) & (ys <= ay2)
    in_b = (bx1 <= xs) & (xs <= bx2) & (by1 <= ys) & (ys <= by2)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def cell_iou(a, b, cells_per_unit: int = 8) -> float:
    """Exact IOU for boxes whose edges lie on the 1/cells_per_unit lattice,
    computed by counting lattice cells via their center points."""
    ax1, ax2 = a[0] - a[2] / 2, a[0] + a[2] / 2
    ay1, ay2 = a[1] - a[3] / 2, a[1] + a[3] / 2
    bx1, bx2 = b[0] - b[2] / 2, b[0] + b[2] / 2
    by1, by2 = b[1] - b[3] / 2, b[1] + b[3] / 2
    lo_x = int(np.floor(min(ax1, bx1) * cells_per_unit))
    hi_x = int(np.ceil(max(ax2, bx2) * cells_per_unit))
    lo_y = int(np.floor(min(ay1, by1) * cells_per_unit))
    hi_y = int(np.ceil(max(ay2, by2) * cells_per_unit))
    cx = (np.arange(lo_x, hi_x) + 0.5) / cells_per_unit
    cy = (np.arange(lo_y, hi_y) + 0.5) / cells_per_unit
    xs, ys = np.meshgrid(cx, cy)
    in_a = (ax1 < xs) & (xs < ax2) & (ay1 < ys) & (ys < ay2)
    in_b = (bx1 < xs) & (xs < bx2) & (by1 < ys) & (ys < by2)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def serial_match_reference(anchors: np.ndarray, boxes: np.ndarray) -> list[int]:
    """Traversal-order matching, written as direct scans with no argsort,
    no matrices and no ranking structures."""
    used = set()
    out = []
    for g in range(len(boxes)):
        best_iou, best_iou_a = 0.0, None
        best_ed, best_ed_a = float("inf"), None
        for a in range(len(anchors)):
            if a in used:
                continue
            v = _plain_iou(boxes[g], anchors[a])
            if v > best_iou:
                best_iou, best_iou_a = v, a
            ed = float(np.sqrt(np.sum((boxes[g] - anchors[a]) ** 2)))
            if ed < best_ed:
                best_ed, best_ed_a = ed, a
        pick = best_iou_a if best_iou_a is not None else best_ed_a
        out.append(pick)
        used.add(pick)
    return out


def _plain_iou(a, b) -> float:
    ix = min(a[0] + a[2] / 2, b[0] + b[2] / 2) - max(a[0] - a[2] / 2, b[0] - b[2] / 2)
    iy = min(a[1] + a[3] / 2, b[1] + b[3] / 2) - max(a[1] - a[3] / 2, b[1] - b[3] / 2)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def brute_force_exact(cost: np.ndarray, candidates_per_box: int | None = None):
    """Minimum-total assignment by exhaustive enumeration.

    Returns (total, anchors tuple), where the tuple is the
    lexicographically smallest among the optimal assignments reachable
    from the candidate sets. With candidates_per_box = None every column is
    a candidate (full enumeration; use only for small matrices). With a
    limit, each row's candidates are its cheapest columns (ties toward the
    lower index); any optimal total is still reachable because a row using
    a non-candidate column can always be swapped onto an unused candidate
    column without increasing the total.
    """
    cost = np.asarray(cost, dtype=np.float64)
    nb, na = cost.shape
    if candidates_per_box is None:
        cand = [list(range(na))] * nb
    else:
        m = min(max(candidates_per_box, nb), na)
        cand = [list(np.argsort(cost[g], kind="stable")[:m]) for g in range(nb)]
        cand = [sorted(c) for c in cand]  # lex order for first-found ties
    best_total, best_tuple = float("inf"), None

    def rec(g, used, acc, picks):
        nonlocal best_total, best_tuple
        if g == nb:
            if acc < best_total - 1e-12:
                best_total, best_tuple = acc, tuple(picks)
            return
        for a in cand[g]:
            if a in used:
                continue
            rec(g + 1, used | {a}, acc + cost[g, a], picks + [a])

    rec(0, frozenset(), 0.0, [])
    return best_total, best_tuple


def full_permutation_exact(cost: np.ndarray):
    """All-permutation minimum assignment; lex-smallest on ties. Only for
    tiny matrices."""
    cost = np.asarray(cost, dtype=np.float64)
    nb, na = cost.shape
    best_total, best_tuple = float("inf"), None
    for perm in itertools.permutations(range(na), nb):
        t = float(sum(cost[g, a] for g, a in enumerate(perm)))
        if t < best_total - 1e-12 or (abs(t - best_total) <= 1e-12
                                      and (best_tuple is None or perm < best_tuple)):
            best_total, best_tuple = t, perm
    return best_total, best_tuple


def nms_reference(boxes, scores, classes, thresh: float) -> list[int]:
    """Greedy per-class suppression by direct pairwise scans: visit
    candidates by descending score (lower index first on ties) and keep one
    unless a kept candidate of its class overlaps it by more than thresh."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(classes[j] != classes[i] or _plain_iou(boxes[i], boxes[j]) <= thresh
               for j in kept):
            kept.append(i)
    return kept


def random_geometric_instance(rng: np.random.Generator, max_images: int = 4,
                              max_boxes: int = 6, image_w: int = 96, image_h: int = 96):
    """A random anchor set plus per-image ground-truth boxes, sized so
    every image fits its boxes."""
    from odkit import GridSpec, build_anchor_grid

    gw = int(rng.integers(2, 5))
    gh = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    templates = tuple((float(rng.integers(8, 48)), float(rng.integers(8, 48)))
                      for _ in range(k))
    spec = GridSpec(image_w=image_w, image_h=image_h, grid_w=gw, grid_h=gh,
                    templates=templates)
    anchors = build_anchor_grid(spec)
    n_images = int(rng.integers(1, max_images + 1))
    batch = []
    for _ in range(n_images):
        nb = int(rng.integers(0, min(max_boxes, len(anchors)) + 1))
        boxes = np.empty((nb, 4))
        for b in range(nb):
            w = float(rng.integers(4, image_w))
            h = float(rng.integers(4, image_h))
            x = float(rng.uniform(w / 2, image_w - w / 2))
            y = float(rng.uniform(h / 2, image_h - h / 2))
            boxes[b] = (x, y, w, h)
        batch.append(boxes)
    return anchors, batch


def pure_random_search(objective, lows, highs, budget: int, seed: int) -> float:
    """Best value over plain uniform sampling; the baseline any informed
    search should beat."""
    rng = np.random.default_rng(seed)
    best = -float("inf")
    for _ in range(budget):
        x = rng.uniform(lows, highs)
        best = max(best, float(objective(x)))
    return best
