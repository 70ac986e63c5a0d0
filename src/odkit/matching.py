"""Anchor-to-ground-truth matching.

Four matchers over the same problem: assign each ground-truth box of an
image to a distinct anchor, preferring high overlap.

* ``match_serial``       traversal-order approximation; one box at a time.
* ``match_parallel``     data-parallel reformulation built on per-box
                         distance rankings; in ``strict`` dedup mode it
                         selects with ``match_serial``'s kernel, from
                         the same rows, so it reproduces it exactly.
* ``match_greedy_bipartite``  greedy selection in global (cost, box, anchor)
                         edge order.
* ``match_exact``        minimum-total-weight assignment (oracle).

All matchers are deterministic: every sort orders as a stable sort does,
and ties always break toward the ascending anchor index. ``build_rankings``
and ``match_serial`` hand their row blocks to a thread pool of at most
``ODF_THREADS`` threads (default: hardware parallelism); no other matcher
starts a thread, and results are identical for every thread count. Each
public function checks its anchors and boxes once, and finds once whether
the anchors form a grid; the inner IOU and distance work runs on
geometry's unchecked kernels, per axis on a grid.
"""

from __future__ import annotations

import heapq
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

# the matchers call geometry's unchecked kernels; the public distance
# functions stay importable from here, where perfbench's traced run wraps them
from .geometry import (  # noqa: F401
    InvalidSpecError,
    _as_box_arrays,
    _euclidean_distance_matrix,
    _grid_factors,
    _iou_matrix,
    as_box_array,
    euclidean_distance_matrix,
    matching_distance_matrix,
)
from .sparse_labels import SparseLabelBatch


class CapacityError(ValueError):
    """An image holds more ground-truth boxes than there are anchors.

    Every matcher raises it for the first such image, before it matches
    any image."""

    def __init__(self, image_index: int, n_boxes: int, n_anchors: int):
        super().__init__(
            f"image {image_index} has {n_boxes} boxes but only "
            f"{n_anchors} anchors are available")
        self.image_index = image_index


class MatchInconsistencyError(ValueError):
    """An assignment refers to indices outside its cost matrices."""


def _check_capacity(n_boxes, n_anchors) -> None:
    """Raise the ``CapacityError`` of the first image whose box count in
    ``n_boxes`` exceeds its anchor count: ``n_anchors`` is one count for
    every image, or one per image."""
    n_boxes = np.asarray(n_boxes, dtype=np.int64)
    n_anchors = np.broadcast_to(np.asarray(n_anchors, dtype=np.int64), n_boxes.shape)
    over = np.flatnonzero(n_boxes > n_anchors)
    if len(over):
        i = int(over[0])
        raise CapacityError(i, int(n_boxes[i]), int(n_anchors[i]))


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

    ``dist_ids[n]`` is a permutation of every anchor for box ``n``: the
    anchors with positive IOU by descending IOU, then every IOU-0 anchor
    by ascending Euclidean distance, ties toward the lower index in both
    parts. ``crossover[n]`` is the length of the IOU part (the number of
    anchors with positive IOU). A row names every anchor, so selection
    never runs past its end.
    """

    dist_ids: np.ndarray    # (N, A) int64
    crossover: np.ndarray   # (N,) int64

    def __post_init__(self):
        self.dist_ids = np.asarray(self.dist_ids, dtype=np.int64)
        self.crossover = np.asarray(self.crossover, dtype=np.int64).reshape(-1)

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


def _rank_key(boxes: np.ndarray, anchor_arr: np.ndarray,
              factors=None) -> tuple[np.ndarray, np.ndarray]:
    """Each box's anchor preference as one C-ordered (N, A) int64 key,
    lowest first, ties toward the lower index; and each box's count of
    overlapping anchors. Both arrays must have passed ``as_box_array``;
    ``factors`` is ``_grid_factors(anchor_arr)``, with which the IOU and
    distance kernels compute per-axis terms on a grid and give the same
    floats as anchor by anchor.

    The key is made of float bits, which grow with the float from 0.0 up:
    ``-bits(iou)`` < 0 for an overlapping anchor, by descending IOU, else
    ``bits(d)`` >= 0 of the Euclidean distance, by ascending distance;
    equal floats give equal keys. IOUs are compared directly, not as
    1-IOU, which rounds distinct small IOUs to one float and ties them. A
    distance that overflows is +inf, whose bits lie above every finite
    distance's; the overflow raises no warning, in this thread or a worker.
    ``_iou_matrix`` raises before any IOU is NaN, and a -0.0 IOU is folded
    into 0.0 first, whose bits are 0. The key is built in the distance
    matrix's buffer, in the kernels' memory order, and made C-ordered last.
    """
    iou = _iou_matrix(boxes, anchor_arr, factors)
    with np.errstate(over="ignore"):
        key = _euclidean_distance_matrix(boxes, anchor_arr, factors).view(np.int64)
    free = iou == 0.0
    key *= free
    iou += 0.0
    key -= iou.view(np.int64)
    return np.ascontiguousarray(key), key.shape[1] - free.sum(axis=1, dtype=np.int32)


def _stable_argsort_rows(key: np.ndarray, out: np.ndarray) -> int:
    """Write ``np.argsort(key, axis=1, kind="stable")`` of the int64 array
    ``key`` into the int64 array ``out`` with one integer sort per row;
    return how many rows needed the stable sort after all.

    The low ``b = (A - 1).bit_length()`` bits of each key are replaced by
    the column index and each row sorted once (numpy's SIMD integer sort);
    the low ``b`` bits of the result are the ids. The row is then ordered
    by (high bits, index). It is ordered by (key, index), the stable order,
    when the keys gathered by its ids never decrease. Rows where two
    distinct keys agree above bit ``b`` may fail that check; one stable
    argsort of their gathered keys then finishes them all. Equal keys
    share their high bits, so they already stand in index order there,
    which a stable sort keeps, and the nearly sorted rows cost it little.
    ``key`` is left unchanged.
    """
    n, a = key.shape
    low = np.int64((1 << (a - 1).bit_length()) - 1)
    np.bitwise_and(key, ~low, out=out)
    out |= np.arange(a)
    out.sort(axis=1)
    out &= low
    # gather the keys by flat index
    row_start = np.arange(n)[:, None] * a
    out += row_start
    got = np.take(key.ravel(), out, mode="clip")
    out -= row_start
    redo = np.flatnonzero((got[:, 1:] < got[:, :-1]).any(axis=1))
    out[redo] = np.take_along_axis(out[redo], np.argsort(got[redo], axis=1, kind="stable"), axis=1)
    return len(redo)


# keys built and sorted at a time in _rank_rows, a whole number of rows
# (86 at 1,521 anchors). Set by measurement on prep-dense batches (336 x
# 1,521 keys, 2 CPUs): 2^17 gave the least time per batch at one thread and
# at two, and the least CPU time at one. Against 2^16, its blocks make half
# the numpy calls, each a hand-off of the interpreter lock between pool
# threads, over inner loops twice as long; 2^18 was slower again, with a
# traced peak 3 to 5 MiB higher.
_RANK_BLOCK_KEYS = 2**17


def build_rankings(anchors, rois: SparseLabelBatch) -> DistanceRanking:
    """The per-box rankings (see ``DistanceRanking``), the orders in which
    ``match_serial`` takes anchors, built by ``_rank_rows`` once anchors
    and boxes are checked. Rows are mutually independent, so the result is
    identical regardless of evaluation order, block size or thread count.
    """
    anchor_arr = as_box_array(anchors)
    if len(anchor_arr) == 0:
        raise InvalidSpecError("anchor list must be non-empty")
    rois.validate()
    return DistanceRanking(*_rank_rows(rois.rois_values, anchor_arr))


def _rank_rows(boxes: np.ndarray, anchor_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dist_ids, crossover)`` of ``build_rankings`` for boxes and anchors
    that have passed ``as_box_array``.

    Rows are built a block of ``_RANK_BLOCK_KEYS`` keys at a time:
    ``_rank_key``, sorted by ``_stable_argsort_rows`` (one integer sort of
    a composite key per row, equal to a stable sort) straight into the
    block's slice of ``dist_ids``. ``_grid_factors`` of the anchors is
    found once, so that every block of a grid gets its IOU and distance
    terms per axis, the floats of anchor by anchor (see ``_iou_matrix``).
    Memory beyond the result stays O(block x anchors); the block size is
    the measured fastest (see ``_RANK_BLOCK_KEYS``). The blocks go to a
    pool of ``min(thread_cap(), blocks)`` threads; a batch of one block,
    or a cap of one, runs on the caller's thread. An error in a block
    reaches the caller once the pool has shut down: the lowest failing
    block's, at every thread count, and blocks not yet started when it
    happened may be skipped.
    """
    factors = _grid_factors(anchor_arr)
    n, n_anchors = len(boxes), len(anchor_arr)
    dist_ids = np.empty((n, n_anchors), dtype=np.int64)
    crossover = np.empty(n, dtype=np.int64)

    # match_serial ranks its (empty) images on no anchors too
    block = max(1, _RANK_BLOCK_KEYS // max(1, n_anchors))
    starts = range(0, n, block)

    def rank(b: int) -> None:
        e = min(b + block, n)
        key, crossover[b:e] = _rank_key(boxes[b:e], anchor_arr, factors)
        _stable_argsort_rows(key, dist_ids[b:e])

    workers = min(thread_cap(), len(starts))
    if workers <= 1:
        for b in starts:
            rank(b)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(rank, starts))  # raises the lowest failing block's error
    return dist_ids, crossover


def _select_strict(rows, n_anchors: int) -> np.ndarray:
    used = np.zeros(n_anchors, dtype=bool)
    chosen = np.empty(len(rows), dtype=np.int64)
    for g, row in enumerate(rows):
        for a in row:
            if not used[a]:
                break
        else:
            raise InvalidSpecError(f"ranking row of box {g} in its image names no unused anchor")
        chosen[g] = a
        used[a] = True
    return chosen


def match_serial(anchors, batch) -> MatchAssignment:
    """Traversal-order matcher.

    Per image, boxes are visited in input order; each takes the unused
    anchor with the largest IOU when some unused anchor overlaps it,
    otherwise the unused anchor with the smallest 4-vector Euclidean
    distance. Ties break toward the lower anchor index. Once anchors,
    boxes and capacity are checked, all images' boxes are ranked together
    by ``_rank_rows``, as ``build_rankings`` ranks them, and each image
    selects from its rows with strict ``match_parallel``'s kernel.
    """
    anchor_arr = as_box_array(anchors)
    per_image = _as_box_arrays(batch)
    counts = [len(boxes) for boxes in per_image]
    _check_capacity(counts, len(anchor_arr))
    if not per_image:
        return MatchAssignment()
    dist_ids, _ = _rank_rows(np.concatenate(per_image), anchor_arr)
    off = np.cumsum([0, *counts])
    return MatchAssignment([_select_strict(dist_ids[b:e], len(anchor_arr))
                            for b, e in zip(off[:-1], off[1:])])


def match_serial_cost(cost, traversal=None) -> MatchAssignment:
    """Traversal-order matcher over a raw cost matrix (one image).

    Rows are visited in ``traversal`` order (default: input order), a
    permutation of the row indices; each row takes its cheapest unused
    column. With no geometry there is no Euclidean fallback; the rule is
    minimum unused cost, ties toward the lower column index: the first
    unused column in the row's stable argsort.
    """
    (c,) = _as_cost_list([cost])
    nb, na = c.shape
    _check_capacity([nb], na)
    order = list(range(nb)) if traversal is None else list(traversal)
    if sorted(order) != list(range(nb)):  # compared as given: 0.9 is not 0
        raise InvalidSpecError(f"traversal must be a permutation of rows, got {order}")
    order = [int(t) for t in order]
    chosen = np.empty(nb, dtype=np.int64)
    chosen[order] = _select_strict(np.argsort(c, axis=1, kind="stable")[order], na)
    return MatchAssignment([chosen])


def _select_paper_literal(rows) -> np.ndarray:
    chosen = np.empty(len(rows), dtype=np.int64)
    prev = -1
    for g, row in enumerate(rows):
        for a in row:
            if a != prev:
                break
        else:
            raise InvalidSpecError(
                f"ranking row of box {g} in its image names only the previous pick")
        chosen[g] = prev = a
    return chosen


def match_parallel(ranking: DistanceRanking, rois: SparseLabelBatch,
                   cfg: MatchConfig | None = None) -> MatchAssignment:
    """Select anchors from precomputed rankings, image by image.

    In ``strict`` dedup mode every anchor already used within the image is
    eliminated; the output then equals ``match_serial`` on the same
    instance. In ``paper_literal`` mode only the immediately previous
    selection is eliminated. Raises ``IndexError`` when ``dist_ids`` is not
    2-D or names an id outside ``[0, n_anchors)``.
    """
    cfg = cfg or MatchConfig()
    rois.validate()
    if ranking.n_boxes != rois.n_boxes:
        raise InvalidSpecError(
            f"ranking covers {ranking.n_boxes} boxes but batch has {rois.n_boxes}")
    ids = ranking.dist_ids
    n_anchors = ranking.n_anchors
    if ids.ndim != 2:
        raise IndexError(f"dist_ids must be 2-D, got shape {ids.shape}")
    # one pass over the ids: a negative id reads as a huge unsigned one
    if ids.size and ids.view(np.uint64).max() >= n_anchors:
        raise IndexError(f"dist_ids names anchors outside [0, {n_anchors})")
    off = rois.offsets()
    _check_capacity(np.diff(off), n_anchors)

    out = []
    for i in range(rois.batch_size):
        rows = ids[off[i]:off[i + 1]]
        if cfg.dedup_mode == "strict":
            out.append(_select_strict(rows, n_anchors))
        else:
            out.append(_select_paper_literal(rows))
    return MatchAssignment(out)


def _as_cost_list(cost) -> list[np.ndarray]:
    if isinstance(cost, np.ndarray) and cost.ndim == 2:
        mats = [np.asarray(cost, dtype=np.float64)]
    else:
        mats = [np.asarray(c, dtype=np.float64) for c in cost]
    for idx, m in enumerate(mats):
        if m.ndim != 2:
            raise InvalidSpecError("each per-image cost must be a 2-D matrix")
        if not np.all(np.isfinite(m)):
            raise InvalidSpecError(f"cost matrix for image {idx} has non-finite entries")
    return mats


def _match_costs(cost, solve) -> MatchAssignment:
    """``solve`` of each image's cost matrix, once every image has passed
    the capacity check; an image with no boxes gets no ids."""
    mats = _as_cost_list(cost)
    _check_capacity([len(c) for c in mats], [c.shape[1] for c in mats])
    return MatchAssignment([solve(c) if len(c) else np.empty(0, dtype=np.int64) for c in mats])


def match_greedy_bipartite(cost) -> MatchAssignment:
    """Greedy edge-list matcher.

    All (box, anchor) edges of an image are sorted ascending by weight,
    ties by (box index, anchor index); edges are then taken greedily,
    skipping any that touch an already-matched box or anchor, until every
    box is matched.

    That takes, each time, the least free edge in (cost, box, anchor)
    order, which is found here without the full edge list: one stable
    argsort per row orders each box's anchors by (cost, anchor), and a
    heap holds one ``(cost, box)`` head per unmatched box. A head whose
    anchor is taken is replaced by the box's next free anchor; its cost
    is no lower, so the heap's least head is always a least free edge.
    """
    return _match_costs(cost, _greedy)


def _greedy(c: np.ndarray) -> np.ndarray:
    nb, na = c.shape
    order = np.argsort(c, axis=1, kind="stable")
    heads = list(zip(c[np.arange(nb), order[:, 0]].tolist(), range(nb)))
    heapq.heapify(heads)
    nxt = [0] * nb  # position in order[b] of box b's head
    taken = bytearray(na)
    chosen = np.empty(nb, dtype=np.int64)
    while heads:
        b = heads[0][1]
        a = order[b, nxt[b]]
        if taken[a]:
            while taken[a]:
                nxt[b] += 1
                a = order[b, nxt[b]]
            heapq.heapreplace(heads, (c[b, a].item(), b))
        else:
            heapq.heappop(heads)
            chosen[b] = a
            taken[a] = 1
    return chosen


def _hungarian(c: np.ndarray) -> tuple[float, np.ndarray]:
    """Total and columns of a minimum-total assignment of every row of
    ``c`` (row g takes ``cols[g]``)."""
    if c.size == 0 or c.shape[0] == 0:
        return 0.0, np.empty(0, dtype=np.intp)
    r, col = scipy.optimize.linear_sum_assignment(c)
    return float(c[r, col].sum()), col


def _lex_smallest_optimal(c: np.ndarray) -> np.ndarray:
    """Among all minimum-total assignments, return the lexicographically
    smallest anchor tuple (box order).

    One solve gives the optimum ``best`` and its columns; their reduced
    costs ``rc`` (see ``_reduced_costs``) bound every other assignment
    from below by ``best`` plus the ``rc`` of its edges. The refinement
    runs only on columns with some ``rc`` within ``margin`` of 0, which
    include the solve's own, then maps the chosen columns back. ``margin``
    covers the tolerance with which the refinement accepts a total as
    optimal, plus rounding.
    """
    best, cols = _hungarian(c)
    tol = 1e-9 * max(1.0, abs(best))
    margin = 4 * tol + 1e-12 * float(np.abs(c).sum())
    rc = _reduced_costs(c, cols)
    keep = np.flatnonzero(rc.min(axis=0) <= margin)
    return keep[_refine(c[:, keep], rc[:, keep], best, margin, np.searchsorted(keep, cols))]


def _reduced_costs(c: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Reduced costs ``c - u - v >= 0`` of an optimal LP dual, given the
    optimal columns ``cols`` (row g uses ``cols[g]``).

    The column potentials ``v`` are shortest distances from 0 along the
    moves "row g leaves ``cols[g]`` for column j", weight
    ``c[g, j] - c[g, cols[g]]``, found by Bellman-Ford relaxation. An
    optimal assignment has no negative cycle of such moves, and no
    negative path onto an unused column, so ``v <= 0``, ``v = 0`` on the
    unused columns, and a path visits at most ``nb`` edges: ``nb`` rounds
    settle it. With ``u[g] = c[g, cols[g]] - v[cols[g]]``, the solver's
    edges get ``rc = 0`` and any assignment costs at least the optimum
    plus the ``rc`` of its edges.
    """
    own = c[np.arange(len(cols)), cols]
    move = c - own[:, None]
    v = np.zeros(c.shape[1])
    for _ in range(len(cols)):
        relaxed = np.minimum(v, (v[cols, None] + move).min(axis=0))
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    return move + v[cols, None] - v


def _refine(c: np.ndarray, rc: np.ndarray, best: float, margin: float,
            carry: np.ndarray) -> np.ndarray:
    """Fix rows one at a time, keeping the lowest available column from
    which the optimum ``best`` is still reachable.

    A column is tried only while the reduced costs of the fixed prefix
    plus its own stay within ``margin``, in ascending order, and the first
    from which the remaining rows still reach ``best`` is kept. ``carry``
    is an optimum that extends the fixed prefix (row g takes
    ``carry[g]``): the first solve's columns, then those of the last
    solve that reached ``best``. When the tried column is the carried
    one, the carried rest is a witness, and its total is accepted without
    a solve when it is ``best``: a solve's total lies between ``best``
    and the witness's, up to rounding, so it would accept the same
    column. Any other column gets a Hungarian solve of the remaining
    rows, whose columns become the carry when it reaches ``best``. The
    carry ends as the chosen columns. The free columns are a mask, and
    the remaining rows are gathered only for a solve, over the free
    columns but the tried one.
    """
    nb = c.shape[0]
    rows = np.arange(nb)
    free = np.ones(c.shape[1], dtype=bool)
    carry = carry.copy()
    prefix = prefix_rc = 0.0
    for g in range(nb):
        for j in ((prefix_rc + rc[g] <= margin) & free).nonzero()[0]:
            trial = prefix + c[g, j]
            if j == carry[g]:
                witness = float(c[rows[g + 1:], carry[g + 1:]].sum())
                if math.isclose(trial + witness, best, rel_tol=1e-12, abs_tol=1e-9):
                    break
            free[j] = False
            rest = free.nonzero()[0]
            total, cols = _hungarian(c[g + 1:, rest])
            if math.isclose(trial + total, best, rel_tol=1e-12, abs_tol=1e-9):
                carry[g] = j
                carry[g + 1:] = rest[cols]
                break
            free[j] = True
        else:  # numeric safety net; cannot trigger on exact ties
            raise MatchInconsistencyError("optimal refinement failed to extend prefix")
        prefix = trial
        prefix_rc += rc[g, j]
        free[j] = False
    return carry


def match_exact(cost) -> MatchAssignment:
    """Minimum-total-weight matcher (the oracle the others are judged by).

    Ties between equally cheap assignments break toward the
    lexicographically smallest anchor tuple in box order. Costs may be any
    finite values, negative ones included.
    """
    return _match_costs(cost, _lex_smallest_optimal)


def cost_matrices(anchors, batch) -> list[np.ndarray]:
    """Per-image 1-IOU weight matrices for a geometric instance: one IOU
    pass over every image's boxes stacked, split back into per-image row
    slices of one C-ordered array. IOU is elementwise, so each image gets
    the floats it would get alone; on a grid (``_grid_factors``) its
    terms are computed per axis, which gives the same floats."""
    anchor_arr = as_box_array(anchors)
    per_image = _as_box_arrays(batch)
    if not per_image:
        return []
    cost = np.ascontiguousarray(
        _iou_matrix(np.concatenate(per_image), anchor_arr, _grid_factors(anchor_arr)))
    np.subtract(1.0, cost, out=cost)
    return np.split(cost, np.cumsum([len(b) for b in per_image[:-1]]))


def total_weight(a: MatchAssignment, cost) -> float:
    """Sum of cost entries over all assigned pairs over all images."""
    total = 0.0
    for w in _image_weights(a, _as_cost_list(cost)):
        total += w
    return total


def _image_weights(a: MatchAssignment, mats: list[np.ndarray]) -> list[float]:
    """Each image's sum of ``mats[i]`` entries over its assigned pairs, for
    2-D float64 cost matrices that are already checked (as
    ``_as_cost_list`` checks them); raises ``MatchInconsistencyError``
    unless ``a`` covers every image with ids inside its matrix."""
    if a.n_images != len(mats):
        raise MatchInconsistencyError(
            f"assignment covers {a.n_images} images, cost {len(mats)}")
    weights = []
    for i, (ids, c) in enumerate(zip(a.anchor_ids, mats)):
        # a negative id reads as a huge unsigned one
        if len(ids) > c.shape[0] or (len(ids) and ids.view(np.uint64).max() >= c.shape[1]):
            raise MatchInconsistencyError(f"assignment for image {i} is out of bounds")
        weights.append(float(c[np.arange(len(ids)), ids].sum()))
    return weights


def _per_pair(fn, a: MatchAssignment, anchor_arr, rows, what: str) -> list[np.ndarray]:
    """``fn(rows, anchors)`` on the rows of every image stacked, each beside
    the anchor assigned to it, split back per image; raises
    ``MatchInconsistencyError`` unless ``a`` has one id per row."""
    if a.n_images != len(rows):
        raise MatchInconsistencyError(f"assignment covers {a.n_images} images, {what} {len(rows)}")
    for i, (ids, r) in enumerate(zip(a.anchor_ids, rows)):
        if len(ids) != len(r):
            raise MatchInconsistencyError(f"image {i}: {len(ids)} assignments for {len(r)} {what}")
    if not rows:
        return []
    out = fn(np.concatenate(rows), anchor_arr[np.concatenate(a.anchor_ids)])
    return np.split(out, np.cumsum([len(r) for r in rows[:-1]]))


def compute_deltas(a: MatchAssignment, anchors, batch) -> list[np.ndarray]:
    """Per-pair regression targets.

    dx = (x - xa) / wa, dy = (y - ya) / ha, dw = ln(w / wa),
    dh = ln(h / ha), where (xa, ya, wa, ha) is the assigned anchor.
    Row g of image i is the target for ground-truth box g. Pure
    element-wise arithmetic, done once over the whole batch's rows.
    """
    def deltas(boxes, anc):
        d = np.empty_like(boxes)
        d[:, 0] = (boxes[:, 0] - anc[:, 0]) / anc[:, 2]
        d[:, 1] = (boxes[:, 1] - anc[:, 1]) / anc[:, 3]
        d[:, 2] = np.log(boxes[:, 2] / anc[:, 2])
        d[:, 3] = np.log(boxes[:, 3] / anc[:, 3])
        return d
    anchor_arr = as_box_array(anchors)
    return _per_pair(deltas, a, anchor_arr, _as_box_arrays(batch), "boxes")


def decode_deltas(a: MatchAssignment, anchors, deltas) -> list[np.ndarray]:
    """Invert :func:`compute_deltas`: recover center-form boxes."""
    def boxes(d, anc):
        b = np.empty_like(d)
        b[:, 0] = anc[:, 0] + d[:, 0] * anc[:, 2]
        b[:, 1] = anc[:, 1] + d[:, 1] * anc[:, 3]
        b[:, 2] = anc[:, 2] * np.exp(d[:, 2])
        b[:, 3] = anc[:, 3] * np.exp(d[:, 3])
        return b
    anchor_arr = as_box_array(anchors)
    per_image = [np.asarray(d, dtype=np.float64).reshape(-1, 4) for d in deltas]
    return _per_pair(boxes, a, anchor_arr, per_image, "delta rows")
