"""Anchor-to-ground-truth matching.

Four matchers over the same problem: assign each ground-truth box of an
image to a distinct anchor, preferring high overlap.

* ``match_serial``       traversal-order approximation; one box at a time.
* ``match_parallel``     data-parallel reformulation built on per-box
                         distance rankings; in ``strict`` dedup mode it
                         reproduces ``match_serial`` exactly.
* ``match_greedy_bipartite``  globally sorted edge list, greedy selection.
* ``match_exact``        minimum-total-weight assignment (oracle).

All matchers are deterministic: argsorts are stable and ties always break
toward the ascending anchor index. ``ODF_THREADS`` caps the worker threads
used by the data-parallel operations (default: hardware parallelism);
results are identical for every thread count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .geometry import (
    InvalidBoxError,
    InvalidSpecError,
    as_box_array,
    euclidean_distance_matrix,
    iou_matrix,
    matching_distance_matrix,
)
from .sparse_labels import SparseLabelBatch


class CapacityError(ValueError):
    """An image holds more ground-truth boxes than there are anchors."""

    def __init__(self, image_index: int, n_boxes: int, n_anchors: int):
        super().__init__(
            f"image {image_index} has {n_boxes} boxes but only "
            f"{n_anchors} anchors are available")
        self.image_index = image_index


class MatchInconsistencyError(ValueError):
    """An assignment refers to indices outside its cost matrices."""


@dataclass
class MatchConfig:
    """Knobs for ``match_parallel``. All matchers are deterministic, so
    there is no RNG here.

    dedup_mode ``strict`` eliminates every anchor already used within the
    image (serial semantics). ``paper_literal`` eliminates only the
    immediately previous selection, which can assign one anchor to several
    boxes; it exists for studying that behavioral difference.
    """

    dedup_mode: str = "strict"

    def __post_init__(self):
        if self.dedup_mode not in ("strict", "paper_literal"):
            raise InvalidSpecError(
                f"dedup_mode must be 'strict' or 'paper_literal', got {self.dedup_mode!r}")


@dataclass
class MatchAssignment:
    """Per-image mapping from ground-truth index to anchor index.

    ``anchor_ids[i][g]`` is the anchor assigned to box ``g`` of image
    ``i`` (boxes in input order). Injectivity is not enforced here because
    the ``paper_literal`` dedup mode deliberately produces duplicates; the
    four standard matchers never do.
    """

    anchor_ids: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.anchor_ids = [np.asarray(a, dtype=np.int64).reshape(-1) for a in self.anchor_ids]

    @property
    def n_images(self) -> int:
        return len(self.anchor_ids)

    def as_maps(self) -> list[dict[int, int]]:
        return [{g: int(a) for g, a in enumerate(ids)} for ids in self.anchor_ids]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatchAssignment):
            return NotImplemented
        return (len(self.anchor_ids) == len(other.anchor_ids)
                and all(np.array_equal(a, b) for a, b in zip(self.anchor_ids, other.anchor_ids)))


@dataclass
class DistanceRanking:
    """Per-box anchor rankings feeding ``match_parallel``.

    ``dist_ids[n]`` is a full-length ranking for box ``n``: anchors with
    positive IOU sorted by descending IOU, then the Euclidean-sorted
    anchors filling the remaining positions. ``crossover[n]`` is the prefix
    length (the number of anchors with positive IOU). The Euclidean suffix can
    repeat prefix anchors, so a row may name fewer distinct anchors than
    its length; ``euclid_ids`` keeps each box's complete Euclidean order so
    selection can continue past an exhausted row.
    """

    dist_ids: np.ndarray    # (N, A) int64
    crossover: np.ndarray   # (N,) int64
    euclid_ids: np.ndarray  # (N, A) int64

    def __post_init__(self):
        self.dist_ids = np.asarray(self.dist_ids, dtype=np.int64)
        self.crossover = np.asarray(self.crossover, dtype=np.int64).reshape(-1)
        self.euclid_ids = np.asarray(self.euclid_ids, dtype=np.int64)

    @property
    def n_boxes(self) -> int:
        return len(self.dist_ids)

    @property
    def n_anchors(self) -> int:
        return self.dist_ids.shape[1] if self.dist_ids.ndim == 2 else 0


def thread_cap() -> int:
    """Worker-thread budget: ODF_THREADS if set, else hardware parallelism."""
    env = os.environ.get("ODF_THREADS")
    if env is not None and env != "":
        try:
            cap = int(env)
        except ValueError:
            raise InvalidSpecError(f"ODF_THREADS must be an integer, got {env!r}") from None
        if cap < 1:
            raise InvalidSpecError(f"ODF_THREADS must be >= 1, got {cap}")
        return cap
    return os.cpu_count() or 1


def _run_chunked(n: int, fn) -> None:
    """Run fn(lo, hi) over [0, n) split across worker threads and wait.

    fn must write only to disjoint output slices. The join is the barrier
    between data-parallel stages. An exception raised in a chunk is
    re-raised here once every thread has joined (the lowest failing
    chunk's, so the error does not depend on scheduling), never dropped.
    """
    t = min(thread_cap(), n)
    if t <= 1:
        if n:
            fn(0, n)
        return
    bounds = np.linspace(0, n, t + 1).astype(int)
    chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    errors: list[Exception | None] = [None] * len(chunks)

    def run(k: int, lo: int, hi: int) -> None:
        try:
            fn(lo, hi)
        except Exception as e:  # handed to the caller after the join
            errors[k] = e

    threads = [threading.Thread(target=run, args=(k, lo, hi))
               for k, (lo, hi) in enumerate(chunks)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for e in errors:
        if e is not None:
            raise e


def _per_image_boxes(batch) -> list[np.ndarray]:
    return [as_box_array(img) if len(img) else np.empty((0, 4)) for img in batch]


def match_serial(anchors, batch) -> MatchAssignment:
    """Traversal-order matcher.

    Per image, boxes are visited in input order; each takes the unused
    anchor with the largest IOU when some unused anchor overlaps it,
    otherwise the unused anchor with the smallest 4-vector Euclidean
    distance. Ties break toward the lower anchor index. IOUs are compared
    directly, not as 1-IOU: for small IOUs, 1-IOU rounds distinct values
    to one float and would turn them into index ties.
    """
    anchor_arr = as_box_array(anchors)
    n_anchors = len(anchor_arr)
    out = []
    for idx, boxes in enumerate(_per_image_boxes(batch)):
        nb = len(boxes)
        if nb > n_anchors:
            raise CapacityError(idx, nb, n_anchors)
        if nb == 0:
            out.append(np.empty(0, dtype=np.int64))
            continue
        iou = iou_matrix(boxes, anchor_arr)
        edist = euclidean_distance_matrix(boxes, anchor_arr)
        used = np.zeros(n_anchors, dtype=bool)
        chosen = np.empty(nb, dtype=np.int64)
        for g in range(nb):
            v = np.where(used, -1.0, iou[g])
            if v.max() > 0.0:
                a = int(np.argmax(v))  # argmax takes the first maximum
            else:
                a = int(np.argmin(np.where(used, np.inf, edist[g])))
            chosen[g] = a
            used[a] = True
        out.append(chosen)
    return MatchAssignment(out)


def match_serial_cost(cost, traversal=None) -> MatchAssignment:
    """Traversal-order matcher over a raw cost matrix (one image).

    Rows are visited in ``traversal`` order (default: input order); each
    row takes its cheapest unused column. With no geometry there is no
    Euclidean fallback; the rule is minimum unused cost, ties toward the
    lower column index.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise InvalidSpecError(f"cost must be a 2-D matrix, got shape {c.shape}")
    nb, na = c.shape
    if nb > na:
        raise CapacityError(0, nb, na)
    order = list(range(nb)) if traversal is None else [int(t) for t in traversal]
    if sorted(order) != list(range(nb)):
        raise InvalidSpecError(f"traversal must be a permutation of rows, got {order}")
    used = np.zeros(na, dtype=bool)
    chosen = np.empty(nb, dtype=np.int64)
    for g in order:
        a = int(np.argmin(np.where(used, np.inf, c[g])))
        chosen[g] = a
        used[a] = True
    return MatchAssignment([chosen])


def build_rankings(anchors, rois: SparseLabelBatch) -> DistanceRanking:
    """Build the per-box combined rankings, one box per parallel work item.

    Each row is the positive-IOU anchors sorted by descending IOU,
    followed by the first entries of the box's Euclidean order, for a fixed
    row length of ``n_anchors``. Rows are mutually independent, so the
    result is identical regardless of evaluation order or thread count.
    """
    anchor_arr = as_box_array(anchors)
    n_anchors = len(anchor_arr)
    if n_anchors == 0:
        raise InvalidSpecError("anchor list must be non-empty")
    rois.validate()
    boxes = rois.rois_values
    n = len(boxes)
    dist_ids = np.empty((n, n_anchors), dtype=np.int64)
    crossover = np.empty(n, dtype=np.int64)
    euclid_ids = np.empty((n, n_anchors), dtype=np.int64)

    def work(lo: int, hi: int) -> None:
        iou = iou_matrix(boxes[lo:hi], anchor_arr)
        edist = euclidean_distance_matrix(boxes[lo:hi], anchor_arr)
        for r in range(hi - lo):
            iou_order = np.argsort(-iou[r], kind="stable")
            j = int(np.count_nonzero(iou[r] > 0.0))
            e_order = np.argsort(edist[r], kind="stable")
            euclid_ids[lo + r] = e_order
            crossover[lo + r] = j
            dist_ids[lo + r, :j] = iou_order[:j]
            dist_ids[lo + r, j:] = e_order[: n_anchors - j]

    _run_chunked(n, work)
    return DistanceRanking(dist_ids, crossover, euclid_ids)


def _select_strict(rows, euclid_rows, n_anchors: int) -> np.ndarray:
    used = np.zeros(n_anchors, dtype=bool)
    chosen = np.empty(len(rows), dtype=np.int64)
    for g, row in enumerate(rows):
        pick = -1
        for a in row:
            if not used[a]:
                pick = int(a)
                break
        if pick < 0:
            # Combined row exhausted (its distinct anchors all used);
            # continue down the full Euclidean order, as the serial
            # matcher effectively does.
            for a in euclid_rows[g]:
                if not used[a]:
                    pick = int(a)
                    break
        chosen[g] = pick
        used[pick] = True
    return chosen


def _select_paper_literal(rows, euclid_rows) -> np.ndarray:
    chosen = np.empty(len(rows), dtype=np.int64)
    prev = -1
    for g, row in enumerate(rows):
        pick = -1
        for a in row:
            if a != prev:
                pick = int(a)
                break
        if pick < 0:
            for a in euclid_rows[g]:
                if a != prev:
                    pick = int(a)
                    break
        chosen[g] = pick
        prev = pick
    return chosen


def match_parallel(ranking: DistanceRanking, rois: SparseLabelBatch,
                   cfg: MatchConfig | None = None) -> MatchAssignment:
    """Select anchors from precomputed rankings, image by image.

    In ``strict`` dedup mode every anchor already used within the image is
    eliminated; the output then equals ``match_serial`` on the same
    instance. In ``paper_literal`` mode only the immediately previous
    selection is eliminated. Images are independent work items.
    """
    cfg = cfg or MatchConfig()
    rois.validate()
    if ranking.n_boxes != rois.n_boxes:
        raise InvalidSpecError(
            f"ranking covers {ranking.n_boxes} boxes but batch has {rois.n_boxes}")
    n_anchors = ranking.n_anchors
    im_of_box = rois.rois_idx[:, 0]
    out: list[np.ndarray | None] = [None] * rois.batch_size

    counts = np.bincount(im_of_box, minlength=rois.batch_size) if len(im_of_box) else \
        np.zeros(rois.batch_size, dtype=np.int64)
    over = np.nonzero(counts > n_anchors)[0]
    if len(over):
        raise CapacityError(int(over[0]), int(counts[over[0]]), n_anchors)

    def work(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            sel = np.nonzero(im_of_box == i)[0]
            rows = ranking.dist_ids[sel]
            erows = ranking.euclid_ids[sel]
            if cfg.dedup_mode == "strict":
                out[i] = _select_strict(rows, erows, n_anchors)
            else:
                out[i] = _select_paper_literal(rows, erows)

    _run_chunked(rois.batch_size, work)
    return MatchAssignment(out)


def _as_cost_list(cost) -> list[np.ndarray]:
    if isinstance(cost, np.ndarray) and cost.ndim == 2:
        return [np.asarray(cost, dtype=np.float64)]
    mats = [np.asarray(c, dtype=np.float64) for c in cost]
    if any(m.ndim != 2 for m in mats):
        raise InvalidSpecError("each per-image cost must be a 2-D matrix")
    return mats


def match_greedy_bipartite(cost) -> MatchAssignment:
    """Greedy edge-list matcher.

    All (box, anchor) edges of an image are sorted ascending by weight,
    ties by (box index, anchor index); edges are then taken greedily,
    skipping any that touch an already-matched box or anchor, until every
    box is matched.
    """
    out = []
    for idx, c in enumerate(_as_cost_list(cost)):
        nb, na = c.shape
        if nb > na:
            raise CapacityError(idx, nb, na)
        if nb == 0:
            out.append(np.empty(0, dtype=np.int64))
            continue
        box_idx, anchor_idx = np.divmod(np.arange(nb * na), na)
        order = np.lexsort((anchor_idx, box_idx, c.ravel()))
        box_done = np.zeros(nb, dtype=bool)
        anchor_done = np.zeros(na, dtype=bool)
        chosen = np.empty(nb, dtype=np.int64)
        remaining = nb
        for e in order:
            b, a = int(box_idx[e]), int(anchor_idx[e])
            if box_done[b] or anchor_done[a]:
                continue
            chosen[b] = a
            box_done[b] = True
            anchor_done[a] = True
            remaining -= 1
            if remaining == 0:
                break
        out.append(chosen)
    return MatchAssignment(out)


def _hungarian_total(c: np.ndarray) -> float:
    if c.size == 0 or c.shape[0] == 0:
        return 0.0
    r, col = scipy.optimize.linear_sum_assignment(c)
    return float(c[r, col].sum())


def _lex_smallest_optimal(c: np.ndarray) -> np.ndarray:
    """Among all minimum-total assignments, return the lexicographically
    smallest anchor tuple (box order).

    The refinement runs on candidate columns only (see
    ``_candidate_columns``), then maps the chosen columns back.
    """
    best = _hungarian_total(c)
    tol = 1e-9 * max(1.0, abs(best))
    cols = _candidate_columns(c, tol)
    return cols[_refine(c[:, cols], best, tol)]


def _candidate_columns(c: np.ndarray, tol: float) -> np.ndarray:
    """Ascending ids of the columns the lex-smallest optimum can use.

    In any minimum-cost assignment each row's column is among that row's
    nb cheapest in (cost, index) order: otherwise one of those columns is
    free, and moving the row onto it lowers the total or gives a
    lexicographically smaller tuple. The refinement accepts totals within
    ``tol`` of the optimum, so a row whose nb-th cost has near-ties that
    are not exact ties also keeps every column within ``tol`` of it.
    """
    nb = c.shape[0]
    order = np.argsort(c, axis=1, kind="stable")
    keep = np.zeros(c.shape[1], dtype=bool)
    keep[order[:, :nb].ravel()] = True
    kth = np.take_along_axis(c, order[:, nb - 1:nb], axis=1)
    near = np.abs(c - kth) <= tol
    widen = np.any(near & (c != kth), axis=1)
    keep |= np.any(near[widen], axis=0)
    return np.flatnonzero(keep)


def _refine(c: np.ndarray, best: float, tol: float) -> np.ndarray:
    """Fix rows one at a time, keeping the lowest available column from
    which the optimum ``best`` is still reachable.

    For every available column of a row, the lower bound is the column's
    cost plus the remaining rows' minima over the other available columns,
    all in one step. Only columns whose bound reaches ``best`` get a
    Hungarian solve, in ascending order; the first whose total is
    ``best`` is kept.
    """
    nb = c.shape[0]
    avail = np.arange(c.shape[1])
    chosen = np.empty(nb, dtype=np.int64)
    prefix = 0.0
    for g in range(nb):
        trials = prefix + c[g, avail]
        rest = c[g + 1:, avail]
        lbs = trials + _minima_without_each_column(rest).sum(axis=1)
        for pos in np.flatnonzero(~(lbs - best > tol)):
            total = trials[pos] + _hungarian_total(np.delete(rest, pos, axis=1))
            if math.isclose(total, best, rel_tol=1e-12, abs_tol=1e-9):
                chosen[g] = avail[pos]
                prefix = trials[pos]
                avail = np.delete(avail, pos)
                break
        else:  # numeric safety net; cannot trigger on exact ties
            raise MatchInconsistencyError("optimal refinement failed to extend prefix")
    return chosen


def _minima_without_each_column(rest: np.ndarray) -> np.ndarray:
    """``out[j, r]`` is the minimum of row r of ``rest`` with column j
    left out: the row minimum, or its second-smallest value where the
    (first) minimum sits in column j."""
    n_rows, n_cols = rest.shape
    out = np.empty((n_cols, n_rows))
    rows = np.arange(n_rows)
    first = np.argmin(rest, axis=1)
    out[:] = rest[rows, first]
    masked = rest.copy()
    masked[rows, first] = np.inf
    out[first, rows] = masked.min(axis=1)
    return out


def match_exact(cost) -> MatchAssignment:
    """Minimum-total-weight matcher (the oracle the others are judged by).

    Ties between equally cheap assignments break toward the
    lexicographically smallest anchor tuple in box order. Costs may be any
    finite values, negative ones included.
    """
    out = []
    for idx, c in enumerate(_as_cost_list(cost)):
        nb, na = c.shape
        if nb > na:
            raise CapacityError(idx, nb, na)
        if not np.all(np.isfinite(c)):
            raise InvalidSpecError(f"cost matrix for image {idx} has non-finite entries")
        if nb == 0:
            out.append(np.empty(0, dtype=np.int64))
            continue
        out.append(_lex_smallest_optimal(c))
    return MatchAssignment(out)


def cost_matrices(anchors, batch) -> list[np.ndarray]:
    """Per-image 1-IOU weight matrices for a geometric instance."""
    anchor_arr = as_box_array(anchors)
    return [matching_distance_matrix(boxes, anchor_arr) if len(boxes) else
            np.empty((0, len(anchor_arr)))
            for boxes in _per_image_boxes(batch)]


def total_weight(a: MatchAssignment, cost) -> float:
    """Sum of cost entries over all assigned pairs over all images."""
    mats = _as_cost_list(cost)
    if a.n_images != len(mats):
        raise MatchInconsistencyError(
            f"assignment covers {a.n_images} images, cost {len(mats)}")
    total = 0.0
    for i, (ids, c) in enumerate(zip(a.anchor_ids, mats)):
        if len(ids) > c.shape[0] or (len(ids) and (ids.min() < 0 or ids.max() >= c.shape[1])):
            raise MatchInconsistencyError(f"assignment for image {i} is out of bounds")
        total += float(c[np.arange(len(ids)), ids].sum())
    return total


def compute_deltas(a: MatchAssignment, anchors, batch) -> list[np.ndarray]:
    """Per-pair regression targets.

    dx = (x - xa) / wa, dy = (y - ya) / ha, dw = ln(w / wa),
    dh = ln(h / ha), where (xa, ya, wa, ha) is the assigned anchor.
    Row g of image i is the target for ground-truth box g. Pure
    element-wise arithmetic; evaluation order is irrelevant.
    """
    anchor_arr = as_box_array(anchors)
    out = []
    for i, boxes in enumerate(_per_image_boxes(batch)):
        ids = a.anchor_ids[i]
        if len(ids) != len(boxes):
            raise MatchInconsistencyError(
                f"image {i}: {len(ids)} assignments for {len(boxes)} boxes")
        if len(boxes) and (np.any(boxes[:, 2] <= 0) or np.any(boxes[:, 3] <= 0)):
            raise InvalidBoxError(f"image {i} has non-positive ground-truth dimensions")
        anc = anchor_arr[ids]
        d = np.empty((len(boxes), 4), dtype=np.float64)
        if len(boxes):
            d[:, 0] = (boxes[:, 0] - anc[:, 0]) / anc[:, 2]
            d[:, 1] = (boxes[:, 1] - anc[:, 1]) / anc[:, 3]
            d[:, 2] = np.log(boxes[:, 2] / anc[:, 2])
            d[:, 3] = np.log(boxes[:, 3] / anc[:, 3])
        out.append(d)
    return out


def decode_deltas(a: MatchAssignment, anchors, deltas) -> list[np.ndarray]:
    """Invert :func:`compute_deltas`: recover center-form boxes."""
    anchor_arr = as_box_array(anchors)
    out = []
    for i, d in enumerate(deltas):
        d = np.asarray(d, dtype=np.float64).reshape(-1, 4)
        ids = a.anchor_ids[i]
        anc = anchor_arr[ids]
        b = np.empty_like(d)
        if len(d):
            b[:, 0] = anc[:, 0] + d[:, 0] * anc[:, 2]
            b[:, 1] = anc[:, 1] + d[:, 1] * anc[:, 3]
            b[:, 2] = anc[:, 2] * np.exp(d[:, 2])
            b[:, 3] = anc[:, 3] * np.exp(d[:, 3])
        out.append(b)
    return out
