import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from odkit import (
    Box,
    CapacityError,
    GridSpec,
    MatchAssignment,
    MatchConfig,
    MatchInconsistencyError,
    ScoredBox,
    SparseLabelBatch,
    build_anchor_grid,
    build_rankings,
    compute_deltas,
    cost_matrices,
    decode_deltas,
    match_exact,
    match_greedy_bipartite,
    match_parallel,
    match_serial,
    match_serial_cost,
    nms,
    total_weight,
)
from odkit import cli, geometry, matching, sparse_labels
from odkit.geometry import (
    InvalidBoxError,
    InvalidSpecError,
    euclidean_distance_matrix,
    iou_matrix,
)
from oracles import (
    brute_force_exact,
    edge_scan_greedy,
    full_permutation_exact,
    grid_stress_boxes,
    per_row_exact,
    random_geometric_instance,
    random_grid_spec,
    serial_match_reference,
)

COST_2X2 = np.array([[10.0, 1000.0], [15.0, 500.0]])


def _seed_lex_smallest_optimal(c: np.ndarray) -> np.ndarray:
    """The exact matcher's refinement before candidate-column pruning:
    every column of every row is tried in ascending order, with a Hungarian
    solve for each one the lower bound does not rule out. Frozen here as the
    reference the pruned refinement must reproduce on non-negative costs."""
    def hungarian_total(m):
        if m.size == 0 or m.shape[0] == 0:
            return 0.0
        r, col = scipy.optimize.linear_sum_assignment(m)
        return float(m[r, col].sum())

    nb, na = c.shape
    best = hungarian_total(c)
    avail = list(range(na))
    chosen = np.empty(nb, dtype=np.int64)
    prefix = 0.0
    for g in range(nb):
        rest_rows = c[g + 1:]
        for pos, a in enumerate(avail):
            trial = prefix + c[g, a]
            if trial - best > 1e-9 * max(1.0, abs(best)):
                continue
            sub_avail = avail[:pos] + avail[pos + 1:]
            if len(rest_rows):
                sub = c[np.ix_(range(g + 1, nb), sub_avail)]
                lb = trial + float(np.min(sub, axis=1).sum())
                if lb - best > 1e-9 * max(1.0, abs(best)):
                    continue
                total = trial + hungarian_total(sub)
            else:
                total = trial
            if math.isclose(total, best, rel_tol=1e-12, abs_tol=1e-9):
                chosen[g] = a
                prefix = trial
                avail = sub_avail
                break
        else:
            raise MatchInconsistencyError("optimal refinement failed to extend prefix")
    return chosen


def _seed_truncated_rankings(anchors, rois):
    """build_rankings before its rows became permutations: the IOU prefix,
    then the first entries of the Euclidean order (which can repeat prefix
    anchors), cut to the anchor count, plus each box's full Euclidean
    order. Frozen here with the two selectors below as the reference the
    permutation rows must reproduce."""
    n_anchors = len(anchors)
    boxes = rois.rois_values
    iou = iou_matrix(boxes, anchors)
    edist = euclidean_distance_matrix(boxes, anchors)
    dist_ids = np.empty((len(boxes), n_anchors), dtype=np.int64)
    crossover = np.empty(len(boxes), dtype=np.int64)
    euclid_ids = np.empty((len(boxes), n_anchors), dtype=np.int64)
    for r in range(len(boxes)):
        iou_order = np.argsort(-iou[r], kind="stable")
        j = int(np.count_nonzero(iou[r] > 0.0))
        e_order = np.argsort(edist[r], kind="stable")
        euclid_ids[r] = e_order
        crossover[r] = j
        dist_ids[r, :j] = iou_order[:j]
        dist_ids[r, j:] = e_order[: n_anchors - j]
    return dist_ids, crossover, euclid_ids


def _seed_select_strict(rows, euclid_rows, n_anchors):
    used = np.zeros(n_anchors, dtype=bool)
    chosen = np.empty(len(rows), dtype=np.int64)
    for g, row in enumerate(rows):
        pick = -1
        for a in row:
            if not used[a]:
                pick = int(a)
                break
        if pick < 0:  # row exhausted: go on down the full Euclidean order
            for a in euclid_rows[g]:
                if not used[a]:
                    pick = int(a)
                    break
        chosen[g] = pick
        used[pick] = True
    return chosen


def _seed_select_paper_literal(rows, euclid_rows):
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


def _seed_match_parallel(anchors, rois, mode):
    """Per image: (assignment, number of boxes the fallback served)."""
    dist_ids, _, euclid_ids = _seed_truncated_rankings(anchors, rois)
    off = rois.offsets()
    out = []
    for i in range(rois.batch_size):
        rows, erows = dist_ids[off[i]:off[i + 1]], euclid_ids[off[i]:off[i + 1]]
        if mode == "strict":
            chosen = _seed_select_strict(rows, erows, len(anchors))
        else:
            chosen = _seed_select_paper_literal(rows, erows)
        out.append((chosen, sum(int(a) not in row for a, row in zip(chosen, rows))))
    return out


def _seed_match_serial(anchors, batch):
    """match_serial before its anchor order came from the key build_rankings
    sorts by: an argmax over the unused IOUs when one is positive, else an
    argmin over the unused Euclidean distances. Frozen here as the
    reference the shared key must reproduce wherever no distance overflows."""
    out = []
    for boxes in batch:
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        iou = iou_matrix(boxes, anchors)
        edist = euclidean_distance_matrix(boxes, anchors)
        used = np.zeros(len(anchors), dtype=bool)
        chosen = np.empty(len(boxes), dtype=np.int64)
        for g in range(len(boxes)):
            v = np.where(used, -1.0, iou[g])
            if v.max() > 0.0:
                a = int(np.argmax(v))
            else:
                a = int(np.argmin(np.where(used, np.inf, edist[g])))
            chosen[g] = a
            used[a] = True
        out.append(chosen)
    return MatchAssignment(out)


def _seed_match_serial_cost(c, order):
    """match_serial_cost's selection loop before it shared one with
    match_serial, frozen as its reference."""
    used = np.zeros(c.shape[1], dtype=bool)
    chosen = np.empty(len(c), dtype=np.int64)
    for g in order:
        a = int(np.argmin(np.where(used, np.inf, c[g])))
        chosen[g] = a
        used[a] = True
    return MatchAssignment([chosen])


def _seed_build_rankings(anchors, rois):
    """build_rankings before it sorted without the stable merge sort and
    built its key in the distance buffer: one np.where key and one stable
    argsort over every row. Frozen here as the bitwise reference for
    ``dist_ids`` and ``crossover``."""
    boxes = rois.rois_values
    iou = iou_matrix(boxes, anchors)
    with np.errstate(over="ignore"):
        edist = euclidean_distance_matrix(boxes, anchors)
    np.minimum(edist, np.finfo(np.float64).max, out=edist)
    pos = iou > 0.0
    key = np.where(pos, -iou, edist)
    return np.argsort(key, axis=1, kind="stable"), np.count_nonzero(pos, axis=1)


def _seed_compute_deltas(a, anchors, batch):
    """compute_deltas before it ran once over the batch's stacked rows: one
    image at a time. Frozen here as its bitwise reference."""
    out = []
    for boxes, ids in zip(batch, a.anchor_ids):
        anc = anchors[ids]
        d = np.empty((len(boxes), 4))
        d[:, 0] = (boxes[:, 0] - anc[:, 0]) / anc[:, 2]
        d[:, 1] = (boxes[:, 1] - anc[:, 1]) / anc[:, 3]
        d[:, 2] = np.log(boxes[:, 2] / anc[:, 2])
        d[:, 3] = np.log(boxes[:, 3] / anc[:, 3])
        out.append(d)
    return out


def _seed_decode_deltas(a, anchors, deltas):
    """decode_deltas one image at a time, frozen as its bitwise reference."""
    out = []
    for d, ids in zip(deltas, a.anchor_ids):
        anc = anchors[ids]
        b = np.empty_like(d)
        b[:, 0] = anc[:, 0] + d[:, 0] * anc[:, 2]
        b[:, 1] = anc[:, 1] + d[:, 1] * anc[:, 3]
        b[:, 2] = anc[:, 2] * np.exp(d[:, 2])
        b[:, 3] = anc[:, 3] * np.exp(d[:, 3])
        out.append(b)
    return out


def _bitwise_equal(got, want) -> bool:
    return (len(got) == len(want)
            and all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want)))


YOLO_TEMPLATES = ((10, 13), (16, 30), (33, 23), (30, 61), (62, 45),
                  (59, 119), (116, 90), (156, 198), (373, 326))


def yolo_grid():
    """13x13 cells of the nine YOLOv3 templates on a 416x416 image."""
    return build_anchor_grid(GridSpec(image_w=416, image_h=416, grid_w=13, grid_h=13,
                                      templates=YOLO_TEMPLATES))


def yolo_batch(rng, counts, size_lo):
    """Integer-pixel boxes inside a 416x416 image, ``counts[i]`` in image
    i, widths and heights uniform in [size_lo, 416]. Large boxes hold
    many anchors of one template whole, which all share one IOU."""
    batch = []
    for c in counts:
        wh = rng.integers(size_lo, 417, (c, 2)).astype(float)
        corner = np.floor(rng.random((c, 2)) * (417 - wh))
        batch.append(np.column_stack([corner + wh / 2, wh]))
    return batch


# three anchors on a row; box 0 sits on anchor 0, box 1 on anchor 1, and
# box 2 overlaps only anchor 0 (already taken), exposing the dedup modes
CE_ANCHORS = np.array([[10, 10, 8, 8], [30, 10, 8, 8], [50, 10, 8, 8]], float)
CE_BOXES = np.array([[10, 10, 8, 8], [30, 10, 8, 8], [11, 10, 8, 8]], float)


def to_sparse(batch) -> SparseLabelBatch:
    idx, vals = [], []
    for i, boxes in enumerate(batch):
        for o, b in enumerate(boxes):
            idx.append((i, o))
            vals.append(b)
    return SparseLabelBatch(
        rois_idx=np.array(idx, np.int64).reshape(-1, 2),
        rois_values=np.array(vals, float).reshape(-1, 4),
        classes=np.zeros(len(vals), np.int64),
        batch_size=len(batch))


def small_grid(gw=3, gh=3, k=2, image=96):
    spec = GridSpec(image_w=image, image_h=image, grid_w=gw, grid_h=gh,
                    templates=tuple((12.0 + 6 * t, 10.0 + 4 * t) for t in range(k)))
    return build_anchor_grid(spec)


TINY_GRIDS = [(2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 1, 1), (1, 1, 3),
              (2, 2, 1), (2, 1, 2), (1, 2, 2), (1, 1, 4)]


def tiny_grid_instance(rng):
    """2-4 anchors and at most as many boxes per image, placed near
    anchors: the truncated rows of ``_seed_truncated_rankings`` repeat
    anchors here, and its fallback runs."""
    anchors = small_grid(*TINY_GRIDS[int(rng.integers(len(TINY_GRIDS)))])
    batch = []
    for _ in range(int(rng.integers(1, 4))):
        nb = int(rng.integers(0, len(anchors) + 1))
        near = anchors[rng.integers(len(anchors), size=nb)]
        batch.append(np.column_stack([near[:, :2] + rng.uniform(-24, 24, (nb, 2)),
                                      near[:, 2:] * rng.uniform(0.3, 1.5, (nb, 2))]))
    return anchors, batch


def any_instance(seed):
    rng = np.random.default_rng(seed)
    return (tiny_grid_instance if seed % 2 else random_geometric_instance)(rng)


def crowded_instance(seed):
    """Crowded evaluation images: 8x8x3 anchors on a 320x320 image, 16,
    24, 32 and 40 boxes of 4-24 px, an eighth of each image's boxes
    shifted off the image, where they overlap no anchor."""
    rng = np.random.default_rng(seed)
    anchors = build_anchor_grid(GridSpec(image_w=320, image_h=320, grid_w=8, grid_h=8,
                                         templates=((12, 12), (16, 24), (24, 16))))
    batch = []
    for n in rng.permutation([16, 24, 32, 40]):
        wh = rng.integers(4, 25, (n, 2))
        centre = wh / 2 + np.floor(rng.random((n, 2)) * (321 - wh))
        centre[:n // 8] += 400
        batch.append(np.column_stack([centre, wh]).astype(float))
    return anchors, batch


def one_row_blocks(monkeypatch):
    """build_rankings hands its thread pool whole row blocks; one-row
    blocks let a few boxes still spread over the pool's threads."""
    monkeypatch.setattr(matching, "_RANK_BLOCK_KEYS", 1)


class TestMatchSerial:
    def test_exact_anchor_hit(self):
        anchors = small_grid()
        a = match_serial(anchors, [np.array([anchors[7]])])
        assert list(a.anchor_ids[0]) == [7]

    def test_cost_instance_traversal_second_row_first(self):
        a = match_serial_cost(COST_2X2, traversal=[1, 0])
        # row 1 grabs the cheap column first, forcing row 0 onto the 1000 edge
        assert list(a.anchor_ids[0]) == [1, 0]
        assert total_weight(a, [COST_2X2]) == 1015.0

    def test_no_overlap_falls_back_to_euclidean(self):
        anchors = small_grid()
        box = np.array([[1.0, 1.0, 2.0, 2.0]])  # corner sliver, IOU 0 everywhere
        a = match_serial(anchors, [box])
        ed = np.sqrt(np.sum((anchors - box[0]) ** 2, axis=1))
        assert list(a.anchor_ids[0]) == [int(np.argmin(ed))]

    def test_capacity_error_names_image(self):
        anchors = CE_ANCHORS
        batch = [np.tile([20.0, 10, 4, 4], (2, 1)),
                 np.tile([20.0, 10, 4, 4], (4, 1))]
        with pytest.raises(CapacityError) as e:
            match_serial(anchors, batch)
        assert e.value.image_index == 1
        assert "image 1" in str(e.value)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_reference(self, seed):
        rng = np.random.default_rng(seed)
        anchors, batch = random_geometric_instance(rng)
        got = match_serial(anchors, batch)
        for boxes, ids in zip(batch, got.anchor_ids):
            assert list(ids) == serial_match_reference(anchors, boxes)


class TestOneRankKey:
    """match_serial takes anchors in the order build_rankings sorts them by,
    and match_serial_cost shares its selection loop."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_distances_stay_injective(self):
        # every box-anchor distance overflows to inf: the anchors tie, and
        # the second box must still skip the anchor the first one took
        anchors = np.array([[10.0, 10, 4, 4], [30.0, 10, 4, 4]])
        batch = [np.array([[1e160, 1e160, 1, 1]] * 2)]
        sparse = to_sparse(batch)
        assert np.all(np.isinf(euclidean_distance_matrix(batch[0], anchors)))
        serial = match_serial(anchors, batch)
        ranking = build_rankings(anchors, sparse)
        assert serial.anchor_ids[0].tolist() == [0, 1]
        assert serial == match_parallel(ranking, sparse)
        assert ranking.dist_ids.tolist() == [[0, 1], [0, 1]]
        assert ranking.crossover.tolist() == [0, 0]

    def test_key_at_the_float_cap(self):
        # one row holds an overlapping anchor and one whose distance
        # overflows to +inf: its key, bits(inf), lies above every finite
        # distance's, where the float key's cap put it
        anchors = np.array([[10.0, 10, 4, 4], [1e160, 1e160, 1, 1], [30.0, 10, 4, 4]])
        boxes = np.array([[11.0, 10, 4, 4]])
        key, crossover = matching._rank_key(boxes, anchors)
        iou = iou_matrix(boxes, anchors)[0]
        with np.errstate(over="ignore"):
            dist = euclidean_distance_matrix(boxes, anchors)[0]
        assert np.isinf(dist[1])
        assert key[0].tolist() == [-_bits(iou[0]), _bits(np.inf), _bits(dist[2])]
        assert key.dtype == np.int64 and _bits(np.finfo(np.float64).max) < key[0, 1]
        assert 0 < iou[0] < 1 and crossover.tolist() == [1]
        ranking = build_rankings(anchors, to_sparse([boxes]))
        want_ids, want_crossover = _seed_build_rankings(anchors, to_sparse([boxes]))
        assert ranking.dist_ids.tolist() == want_ids.tolist() == [[0, 2, 1]]
        assert ranking.crossover.tolist() == want_crossover.tolist() == [1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_serial_equals_seed(self, seed):
        anchors, batch = any_instance(seed)
        assert match_serial(anchors, batch) == _seed_match_serial(anchors, batch)

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_serial_cost_equals_seed(self, seed):
        # tie-heavy entries from {0, 0.5, 1} on even seeds, random ones
        # with negatives on odd seeds; 0 to na rows in a random order
        rng = np.random.default_rng(seed)
        na = int(rng.integers(1, 10))
        nb = int(rng.integers(0, na + 1))
        if seed % 2:
            c = rng.uniform(-2, 1, (nb, na))
        else:
            c = rng.choice([0.0, 0.5, 1.0], (nb, na))
        order = rng.permutation(nb)
        traversal = [None, order, order.tolist()][seed % 3]
        want = _seed_match_serial_cost(c, range(nb) if traversal is None else order)
        assert match_serial_cost(c, traversal) == want

    def test_serial_cost_leaves_cost_unchanged(self):
        c = np.array([[0.5, 0.0, 1.0], [0.0, 0.5, 0.5]])
        before = c.copy()
        match_serial_cost(c, [1, 0])
        assert np.array_equal(c, before)

    @pytest.mark.parametrize("traversal", [[0.9, 1.7], [1.5, 0], [np.nan, 0], ["1", "0"]])
    def test_non_integral_traversal_rejected(self, traversal):
        with pytest.raises(InvalidSpecError, match="traversal"):
            match_serial_cost(COST_2X2, traversal=traversal)

    @pytest.mark.parametrize("traversal", [[1, 0], np.array([1, 0]),
                                           np.array([1, 0], dtype=np.int32), (1.0, 0.0)])
    def test_integral_traversal_accepted(self, traversal):
        assert match_serial_cost(COST_2X2, traversal).anchor_ids[0].tolist() == [1, 0]


class TestBuildRankings:
    def test_single_overlap(self):
        anchors = CE_ANCHORS
        r = build_rankings(anchors, to_sparse([np.array([[11.0, 10, 8, 8]])]))
        assert r.crossover[0] == 1
        assert r.dist_ids[0][0] == 0

    def test_no_overlap_equals_euclidean_order(self):
        anchors = small_grid()
        box = np.array([[1.0, 1.0, 2.0, 2.0]])
        r = build_rankings(anchors, to_sparse([box]))
        assert r.crossover[0] == 0
        ed = np.sqrt(np.sum((anchors - box[0]) ** 2, axis=1))
        assert list(r.dist_ids[0]) == list(np.argsort(ed, kind="stable"))

    def test_iou_prefix_order(self):
        # IOUs to the box: anchor0 0.6, anchor1 0.2, anchor2 0
        box = np.array([[0.0, 0.0, 10.0, 10.0]])
        anchors = np.array([[2.5, 0, 10, 10], [20 / 3, 0, 10, 10],
                            [100, 100, 10, 10]])
        r = build_rankings(anchors, to_sparse([box]))
        assert r.crossover[0] == 2
        assert list(r.dist_ids[0][:2]) == [0, 1]

    def test_empty_anchors_rejected(self):
        with pytest.raises(InvalidSpecError):
            build_rankings(np.empty((0, 4)), to_sparse([np.array([[5.0, 5, 2, 2]])]))

    def test_prefix_distances_below_one(self):
        rng = np.random.default_rng(7)
        anchors, batch = random_geometric_instance(rng)
        sparse = to_sparse(batch)
        r = build_rankings(anchors, sparse)
        from odkit import matching_distance_matrix
        for n in range(r.n_boxes):
            d = matching_distance_matrix(sparse.rois_values[n:n + 1], anchors)[0]
            j = r.crossover[n]
            assert np.all(d[r.dist_ids[n][:j]] < 1.0)
            assert np.all(d[r.dist_ids[n][j:]] == 1.0) or j == r.n_anchors

    def test_thread_count_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(19)
        anchors, batch = random_geometric_instance(rng, max_images=6)
        sparse = to_sparse(batch)
        monkeypatch.setenv("ODF_THREADS", "1")
        r1 = build_rankings(anchors, sparse)
        monkeypatch.setenv("ODF_THREADS", "7")
        r7 = build_rankings(anchors, sparse)
        assert np.array_equal(r1.dist_ids, r7.dist_ids)
        assert np.array_equal(r1.crossover, r7.crossover)


def _bits(x) -> int:
    """The int64 whose bits are those of the float64 ``x``."""
    return int(np.float64(x).view(np.int64))


I64 = np.iinfo(np.int64)
KEY_POOL = [I64.min, -_bits(1.0), -1, 0, 1, _bits(np.inf), I64.max]


class TestStableArgsortRows:
    """The row sort build_rankings uses equals numpy's stable argsort
    bitwise, on keys where nearly every key has a tie."""

    @given(arrays(np.int64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=64),
                  elements=st.sampled_from(KEY_POOL)))
    @example(np.empty((0, 7), dtype=np.int64))
    @example(np.full((3, 1), I64.min))
    @example(np.array([[I64.max, 0, I64.min, 0, 1, _bits(np.inf), I64.max, -1]]))
    @settings(max_examples=300, deadline=None)
    def test_equals_stable_argsort(self, key):
        out = np.empty(key.shape, dtype=np.int64)
        matching._stable_argsort_rows(key, out)
        assert np.array_equal(out, np.argsort(key, axis=1, kind="stable"))

    def test_wide_rows_tag_in_int64(self):
        # 46,341 columns: run * A + index no longer fits in int32
        rng = np.random.default_rng(0)
        key = rng.choice(KEY_POOL + [3, 7], size=(2, 46_341))
        out = np.empty(key.shape, dtype=np.int64)
        matching._stable_argsort_rows(key, out)
        assert np.array_equal(out, np.argsort(key, axis=1, kind="stable"))


# rank keys of IOU 1 and 0.25, of distance 0, 1, 3.5 and the largest float
NEAR_BASES = [-_bits(1.0), -_bits(0.25), 0, _bits(1.0), _bits(3.5),
              _bits(np.finfo(np.float64).max)]


@st.composite
def near_tie_blocks(draw):
    """A block of int64 rows whose keys lie within 2**b of a few bases,
    b = (A - 1).bit_length(): distinct keys there often share every bit the
    composite sort keeps. Its first row must be re-sorted (a key one above
    the next one's, at the lower index), its second needs no re-sort."""
    a = draw(st.integers(2, 48))
    span = 1 << (a - 1).bit_length()
    n = draw(st.integers(0, 6))
    base = draw(arrays(np.int64, (n, a), elements=st.sampled_from(NEAR_BASES)))
    steps = draw(arrays(np.int64, (n, a), elements=st.integers(-span, span)))
    first = np.full(a, _bits(1.0))
    first[0] += 1
    return np.vstack([first, np.zeros(a, dtype=np.int64), base + steps])


class TestCompositeRowSort:
    """Where the composite key loses bits, the check catches it and the
    stable sort finishes the row."""

    @given(near_tie_blocks())
    @settings(max_examples=300, deadline=None)
    def test_near_ties_equal_stable_argsort(self, key):
        out = np.empty(key.shape, dtype=np.int64)
        redone = matching._stable_argsort_rows(key, out)
        assert np.array_equal(out, np.argsort(key, axis=1, kind="stable"))
        assert 1 <= redone < len(key)

    def test_one_ulp_iou_tie_of_seed_32(self):
        # two anchors lie inside box 0 and box 1 of the first image: their
        # exact IOUs tie, the computed ones differ by one ulp, and the
        # larger one (anchor 12) outranks anchor 3 though its index is higher;
        # one ulp more IOU is one less key
        anchors, batch = random_geometric_instance(np.random.default_rng(32))
        boxes = batch[0]
        key = matching._rank_key(boxes, anchors)[0]
        assert (key[:, 12] + 1).tolist() == key[:, 3].tolist()
        out = np.empty(key.shape, dtype=np.int64)
        assert matching._stable_argsort_rows(key, out) == 2
        assert np.array_equal(out, np.argsort(key, axis=1, kind="stable"))
        assert out[:, :3].tolist() == [[0, 12, 3]] * 2
        want_ids, _ = _seed_build_rankings(anchors, to_sparse(batch))
        assert np.array_equal(build_rankings(anchors, to_sparse(batch)).dist_ids, want_ids)


class TestRankingsEqualStableSort:
    """build_rankings' rows and crossover equal the frozen stable-sort
    builder bitwise, at any thread count and block size."""

    @staticmethod
    def _assert_equals_seed(anchors, sparse):
        want_ids, want_crossover = _seed_build_rankings(anchors, sparse)
        for threads in ("1", "2", "3"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("ODF_THREADS", threads)
                got = build_rankings(anchors, sparse)
            assert np.array_equal(got.dist_ids, want_ids)
            assert np.array_equal(got.crossover, want_crossover)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_random_geometric_instance(self, seed):
        anchors, batch = random_geometric_instance(np.random.default_rng(seed))
        self._assert_equals_seed(anchors, to_sparse(batch))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_one_row_blocks(self, seed):
        anchors, batch = random_geometric_instance(np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching, "_RANK_BLOCK_KEYS", 1)
            self._assert_equals_seed(anchors, to_sparse(batch))

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_yolo_geometry_with_large_boxes(self, seed):
        rng = np.random.default_rng(seed)
        anchors = yolo_grid()
        sparse = to_sparse(yolo_batch(rng, rng.integers(1, 21, 6), size_lo=200))
        key = np.sort(matching._rank_key(sparse.rois_values, anchors)[0], axis=1)
        assert np.any((key[:, 1:] == key[:, :-1]) & (key[:, 1:] < 0))  # IOU ties
        self._assert_equals_seed(anchors, sparse)

    def test_memory_bounded_on_a_prep_dense_batch(self, monkeypatch):
        # 336 boxes x 1,521 anchors: the result alone is 3.9 MB, and the
        # whole-batch key with its temporaries peaked at about 24 MB
        monkeypatch.setenv("ODF_THREADS", "1")
        rng = np.random.default_rng(0)
        counts = np.full(32, 10)
        counts[:16] += 1
        anchors = yolo_grid()
        sparse = to_sparse(yolo_batch(rng, counts, size_lo=2))
        tracemalloc.start()
        try:
            ranking = build_rankings(anchors, sparse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ranking.dist_ids.shape == (336, 1521)
        assert peak < 12 * 2**20


HUGE_BOX = [0.0, 0.0, 1e200, 1e200]  # finite, but its area overflows


class TestOverflow:
    """Distances that overflow raise no warning, in any thread, on a grid
    or one cell; areas that overflow raise InvalidBoxError rather than
    give NaN IOUs."""

    ANCHORS = np.array([[10.0, 10, 4, 4], [30.0, 10, 4, 4], [50.0, 10, 4, 4]])
    FAR = [np.array([[1e160, 1e160, 1, 1]] * 2)] * 3
    # ANCHORS is a row of three cells; beside it a 3x3 grid of two
    # templates, and a row whose middle anchor has its own shape: one
    # cell of three templates
    LAYOUTS = {"grid": (small_grid(), (3, 3, 2)),
               "one cell": (ANCHORS + [0, 0, 0, 1] * (np.arange(3) == 1)[:, None], (1, 1, 3))}

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_build_rankings_warns_in_no_thread(self, monkeypatch, threads):
        monkeypatch.setenv("ODF_THREADS", threads)
        one_row_blocks(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranking = build_rankings(self.ANCHORS, to_sparse(self.FAR))
        assert [str(w.message) for w in caught] == []
        assert ranking.dist_ids.tolist() == [[0, 1, 2]] * 6

    def test_match_serial_warns_not(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = match_serial(self.ANCHORS, self.FAR)
        assert [str(w.message) for w in caught] == []
        assert got == MatchAssignment([[0, 1]] * 3)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_no_warning_on_either_layout(self, monkeypatch, threads, layout):
        anchors, factors = self.LAYOUTS[layout]
        assert geometry._grid_factors(self.ANCHORS) == (1, 3, 1)
        assert geometry._grid_factors(anchors) == factors
        monkeypatch.setenv("ODF_THREADS", threads)
        one_row_blocks(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranking = build_rankings(anchors, to_sparse(self.FAR))
            serial = match_serial(anchors, self.FAR)
        assert [str(w.message) for w in caught] == []
        assert ranking.dist_ids.tolist() == [list(range(len(anchors)))] * 6
        assert serial == MatchAssignment([[0, 1]] * 3)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_build_rankings_rejects_overflowing_area(self, monkeypatch, threads):
        monkeypatch.setenv("ODF_THREADS", threads)
        one_row_blocks(monkeypatch)
        batch = [np.array([[20.0, 20, 8, 8]])] * 5 + [np.array([HUGE_BOX])]
        with pytest.raises(InvalidBoxError, match="overflow"):
            build_rankings(small_grid(), to_sparse(batch))

    def test_match_serial_rejects_overflowing_area(self):
        with pytest.raises(InvalidBoxError, match="overflow"):
            match_serial(small_grid(), [np.array([HUGE_BOX])])

    def test_cost_matrices_rejects_overflowing_area(self):
        with pytest.raises(InvalidBoxError, match="overflow"):
            cost_matrices(np.array([HUGE_BOX]), [np.array([HUGE_BOX])])

    def test_cost_matrices_rejects_overflowing_area_on_a_grid(self):
        with pytest.raises(InvalidBoxError, match="overflow"):
            cost_matrices(small_grid(), [np.array([[20.0, 20, 8, 8]]), np.array([HUGE_BOX])])


class TestFactoredRankKey:
    """On a grid the rank key, the rankings, match_serial and the cost
    matrices come from per-axis terms (see geometry._grid_factors); they
    equal the one-cell path's and the frozen references bit for bit."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_rank_key_equals_one_cell_form(self, seed):
        rng = np.random.default_rng(seed)
        anchors = build_anchor_grid(random_grid_spec(rng))
        boxes = grid_stress_boxes(rng, anchors, int(rng.integers(0, 30)))
        key, crossover = matching._rank_key(boxes, anchors, geometry._grid_factors(anchors))
        want_key, want_crossover = matching._rank_key(boxes, anchors)
        assert key.flags.c_contiguous and want_key.flags.c_contiguous
        assert np.array_equal(key.view(np.uint64), want_key.view(np.uint64))
        assert np.array_equal(crossover, want_crossover)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matchers_equal_frozen_references(self, seed):
        rng = np.random.default_rng(seed)
        anchors = build_anchor_grid(random_grid_spec(rng))
        batch = [grid_stress_boxes(rng, anchors, int(rng.integers(0, min(8, len(anchors)) + 1)))
                 for _ in range(int(rng.integers(1, 4)))]
        sparse = to_sparse(batch)
        ranking = build_rankings(anchors, sparse)
        want_ids, want_crossover = _seed_build_rankings(anchors, sparse)
        assert np.array_equal(ranking.dist_ids, want_ids)
        assert np.array_equal(ranking.crossover, want_crossover)
        serial = match_serial(anchors, batch)
        assert serial == _seed_match_serial(anchors, batch) == match_parallel(ranking, sparse)
        for cost, boxes in zip(cost_matrices(anchors, batch), batch):
            assert cost.flags.c_contiguous
            assert np.array_equal(cost.view(np.uint64),
                                  (1.0 - iou_matrix(boxes, anchors)).view(np.uint64))


class TestMatchParallel:
    def _run(self, anchors, batch, mode="strict"):
        sparse = to_sparse(batch)
        ranking = build_rankings(anchors, sparse)
        return match_parallel(ranking, sparse, MatchConfig(dedup_mode=mode))

    def test_collision_takes_next_rank(self):
        # both boxes overlap anchor 0 best; second box must step down
        anchors = CE_ANCHORS
        batch = [np.array([[10.0, 10, 8, 8], [11.0, 10, 8, 8]])]
        got = self._run(anchors, batch)
        assert got.anchor_ids[0][0] == 0
        assert got.anchor_ids[0][1] != 0

    def test_counter_example_modes_differ(self):
        strict = self._run(CE_ANCHORS, [CE_BOXES], "strict")
        literal = self._run(CE_ANCHORS, [CE_BOXES], "paper_literal")
        assert list(strict.anchor_ids[0]) == [0, 1, 2]
        assert list(literal.anchor_ids[0]) == [0, 1, 0]  # anchor 0 duplicated
        serial = match_serial(CE_ANCHORS, [CE_BOXES])
        assert serial == strict

    def test_capacity_error(self):
        batch = [np.tile([20.0, 10, 4, 4], (4, 1))]
        with pytest.raises(CapacityError):
            self._run(CE_ANCHORS, batch)

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidSpecError):
            MatchConfig(dedup_mode="fuzzy")

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_strict_equals_serial(self, seed):
        rng = np.random.default_rng(seed)
        anchors, batch = random_geometric_instance(rng)
        assert self._run(anchors, batch) == match_serial(anchors, batch)

    def test_deterministic_across_threads(self, monkeypatch):
        rng = np.random.default_rng(3)
        anchors, batch = random_geometric_instance(rng, max_images=6)
        monkeypatch.setenv("ODF_THREADS", "1")
        a1 = self._run(anchors, batch)
        monkeypatch.setenv("ODF_THREADS", "5")
        a5 = self._run(anchors, batch)
        assert a1 == a5


class TestWorkerErrors:
    """An exception in any row block reaches the caller; the fault sits in
    the last block, which runs on a pool thread whenever threads > 1."""

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_build_rankings_raises_bad_box(self, monkeypatch, threads):
        monkeypatch.setenv("ODF_THREADS", threads)
        batch = [np.array([[20.0, 20, 8, 8]])] * 5 + [np.array([[20.0, 20, -4, 8]])]
        with pytest.raises(InvalidBoxError):
            build_rankings(small_grid(), to_sparse(batch))

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_match_parallel_raises_bad_ranking(self, monkeypatch, threads):
        monkeypatch.setenv("ODF_THREADS", threads)
        one_row_blocks(monkeypatch)
        anchors = small_grid()
        sparse = to_sparse([np.array([[20.0, 20, 8, 8]])] * 6)
        ranking = build_rankings(anchors, sparse)
        ranking.dist_ids[-1, 0] = len(anchors)  # names an anchor that does not exist
        with pytest.raises(IndexError):
            match_parallel(ranking, sparse)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("failing", ["last", "all"])
    def test_run_chunked_reraises_worker_error(self, monkeypatch, threads, failing):
        """build_rankings raises the lowest failing block's error, whichever
        block fails first, and ranks no block twice."""
        monkeypatch.setenv("ODF_THREADS", threads)
        one_row_blocks(monkeypatch)
        anchors = small_grid()
        boxes = np.array([[20.0 + 8 * i, 20, 8, 8] for i in range(7)])
        # a block's first argument tells which it is: its box, or its key
        firsts = {"_rank_key": boxes, "_stable_argsort_rows": matching._rank_key(boxes, anchors)[0]}
        for name, rows in firsts.items():
            real, ran = getattr(matching, name), []

            def stub(first, *rest, rows=rows, real=real, ran=ran):
                i = next(i for i, row in enumerate(rows) if np.array_equal(row, first[0]))
                ran.append(i)
                if failing == "all" or i == 6:
                    raise RuntimeError(f"block {i}")
                return real(first, *rest)

            with monkeypatch.context() as mp:
                mp.setattr(matching, name, stub)
                with pytest.raises(RuntimeError) as e:
                    build_rankings(anchors, to_sparse([box[None] for box in boxes]))
            assert str(e.value) == ("block 0" if failing == "all" else "block 6")
            assert len(ran) == len(set(ran))
            assert 0 in ran and (failing == "all" or sorted(ran) == list(range(7)))

    @pytest.mark.parametrize("failing", [False, True])
    def test_pool_threads_end_with_the_call(self, monkeypatch, failing):
        monkeypatch.setenv("ODF_THREADS", "3")
        one_row_blocks(monkeypatch)
        real, during = matching._rank_key, []

        def counting(boxes, anchor_arr, factors):
            during.append(threading.active_count())
            if failing and boxes[0, 0] > 40:
                raise RuntimeError("bad block")
            return real(boxes, anchor_arr, factors)
        monkeypatch.setattr(matching, "_rank_key", counting)
        sparse = to_sparse([np.array([[20.0 + 8 * i, 20, 8, 8]]) for i in range(7)])
        before = threading.active_count()
        if failing:
            with pytest.raises(RuntimeError):
                build_rankings(small_grid(), sparse)
        else:
            build_rankings(small_grid(), sparse)
        assert max(during) > before  # the blocks ran on pool threads
        assert threading.active_count() == before

    def test_many_threads_under_fast_switching(self, monkeypatch):
        # 112 one-row blocks on 8 pool threads, switched every microsecond
        one_row_blocks(monkeypatch)
        anchors, batch = crowded_instance(5)
        sparse = to_sparse(batch)
        monkeypatch.setenv("ODF_THREADS", "1")
        want = build_rankings(anchors, sparse)
        monkeypatch.setenv("ODF_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = build_rankings(anchors, sparse)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.dist_ids, want.dist_ids)
        assert np.array_equal(got.crossover, want.crossover)


class TestPermutationRankings:
    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_equals_seed_truncated_rankings(self, seed):
        anchors, batch = any_instance(seed)
        sparse = to_sparse(batch)
        ranking = build_rankings(anchors, sparse)
        seed_ids, seed_crossover, _ = _seed_truncated_rankings(anchors, sparse)
        assert np.array_equal(ranking.crossover, seed_crossover)
        for row, seed_row, j in zip(ranking.dist_ids, seed_ids, seed_crossover):
            assert np.array_equal(row[:j], seed_row[:j])
        for mode in ("strict", "paper_literal"):
            got = match_parallel(ranking, sparse, MatchConfig(dedup_mode=mode))
            want = [chosen for chosen, _ in _seed_match_parallel(anchors, sparse, mode)]
            assert got == MatchAssignment(want)

    def test_seed_fallback_runs_on_tiny_grids(self):
        served = {"strict": 0, "paper_literal": 0}
        for seed in range(200):
            anchors, batch = tiny_grid_instance(np.random.default_rng(seed))
            sparse = to_sparse(batch)
            ranking = build_rankings(anchors, sparse)
            for mode in served:
                want = _seed_match_parallel(anchors, sparse, mode)
                served[mode] += sum(n for _, n in want)
                got = match_parallel(ranking, sparse, MatchConfig(dedup_mode=mode))
                assert got == MatchAssignment([chosen for chosen, _ in want])
        assert served["strict"] > 0 and served["paper_literal"] > 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_row_layout(self, seed):
        anchors, batch = any_instance(seed)
        sparse = to_sparse(batch)
        rankings = []
        for threads in ("1", "2", "3"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("ODF_THREADS", threads)
                rankings.append(build_rankings(anchors, sparse))
        for r in rankings[1:]:
            assert np.array_equal(r.dist_ids, rankings[0].dist_ids)
            assert np.array_equal(r.crossover, rankings[0].crossover)
        iou = iou_matrix(sparse.rois_values, anchors)
        edist = euclidean_distance_matrix(sparse.rois_values, anchors)
        for n, row in enumerate(rankings[0].dist_ids):
            overlapping = [a for a in range(len(anchors)) if iou[n, a] > 0]
            rest = [a for a in range(len(anchors)) if iou[n, a] <= 0]
            assert rankings[0].crossover[n] == len(overlapping)
            assert row.tolist() == (sorted(overlapping, key=lambda a: (-iou[n, a], a))
                                    + sorted(rest, key=lambda a: (edist[n, a], a)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_strict_equals_scan_reference(self, seed):
        anchors, batch = any_instance(seed)
        sparse = to_sparse(batch)
        got = match_parallel(build_rankings(anchors, sparse), sparse)
        for boxes, ids in zip(batch, got.anchor_ids):
            assert list(ids) == serial_match_reference(anchors, boxes)

    @pytest.mark.parametrize("mode", ["strict", "paper_literal"])
    @pytest.mark.parametrize("bad", ["negative", "past_end"])
    def test_out_of_range_ids_rejected(self, mode, bad):
        anchors = small_grid()
        sparse = to_sparse([np.array([[20.0, 20, 8, 8], [40.0, 40, 8, 8]])] * 3)
        ranking = build_rankings(anchors, sparse)
        ranking.dist_ids[4, :] = -1 if bad == "negative" else len(anchors)
        with pytest.raises(IndexError):
            match_parallel(ranking, sparse, MatchConfig(dedup_mode=mode))

    def test_ids_must_be_two_dimensional(self):
        anchors = small_grid()
        sparse = to_sparse([np.array([[20.0, 20, 8, 8]])])
        ranking = build_rankings(anchors, sparse)
        ranking.dist_ids = ranking.dist_ids[:, :, None]
        with pytest.raises(IndexError):
            match_parallel(ranking, sparse)

    @pytest.mark.parametrize("mode", ["strict", "paper_literal"])
    def test_row_that_runs_out_is_rejected(self, mode):
        # rows naming one anchor only: the second box finds nothing to take
        sparse = to_sparse([np.array([[20.0, 20, 8, 8], [40.0, 40, 8, 8]])])
        ranking = matching.DistanceRanking(np.zeros((2, 18)), np.zeros(2))
        with pytest.raises(InvalidSpecError):
            match_parallel(ranking, sparse, MatchConfig(dedup_mode=mode))


BAD_ROWS = [(20.0, 20, -4, 8), (20.0, 20, 8, 0), (np.nan, 20, 8, 8), (20.0, np.inf, 8, 8)]


class TestBadBoxesAtTheBoundary:
    """SparseLabelBatch.validate rejects bad box values, so the matchers
    raise before any row block is ranked."""

    @staticmethod
    def _no_workers(monkeypatch):
        def fail(boxes, anchor_arr, factors):
            raise AssertionError("a row block was ranked")
        monkeypatch.setattr(matching, "_rank_key", fail)

    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_build_rankings(self, monkeypatch, bad):
        self._no_workers(monkeypatch)
        batch = [np.array([[20.0, 20, 8, 8]])] * 5 + [np.array([bad])]
        with pytest.raises(InvalidBoxError):
            build_rankings(small_grid(), to_sparse(batch))

    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_match_parallel(self, bad):
        anchors = small_grid()
        ranking = build_rankings(anchors, to_sparse([np.array([[20.0, 20, 8, 8]])] * 6))
        batch = to_sparse([np.array([[20.0, 20, 8, 8]])] * 5 + [np.array([bad])])
        with pytest.raises(InvalidBoxError):
            match_parallel(ranking, batch)


def box_checks(monkeypatch, fn) -> int:
    """How many box-value checks ``fn()`` makes, in geometry or
    sparse_labels, from any thread."""
    calls = []
    real = geometry._check_box_values

    def counting(boxes):
        calls.append(len(boxes))
        real(boxes)
    with monkeypatch.context() as mp:
        for module in (geometry, sparse_labels):
            mp.setattr(module, "_check_box_values", counting)
        fn()
    return len(calls)


class TestOneBoxCheckPerCall:
    """Anchors and boxes are checked once per public call: the number of
    box-value checks does not grow with row blocks or images."""

    def test_build_rankings(self, monkeypatch):
        monkeypatch.setenv("ODF_THREADS", "3")
        one_row_blocks(monkeypatch)
        anchors = small_grid()
        counts = []
        for n_images in (1, 2, 7):
            sparse = to_sparse([np.array([[20.0 + 8 * i, 20, 8, 8]]) for i in range(n_images)])
            counts.append(box_checks(monkeypatch, lambda: build_rankings(anchors, sparse)))
        assert counts == [counts[0]] * 3

    @pytest.mark.parametrize("algo", ["serial", "parallel", "greedy", "exact"])
    def test_odkit_match(self, monkeypatch, tmp_path, algo):
        counts = []
        for n_images in (2, 16):
            records = tmp_path / f"{n_images}.odr"
            assert cli.main(["gen-data", "--images", str(n_images), "--max-boxes", "4",
                             "--seed", "5", "--width", "96", "--height", "96",
                             "--out", str(records)]) == 0
            argv = ["match", "--algo", algo, "--records", str(records), "--grid", "3x3x2",
                    "--image", "96x96", "--templates", "16x12,32x24",
                    "--out", str(tmp_path / "m.jsonl")]
            counts.append(box_checks(monkeypatch, lambda: cli.main(argv)))
        assert counts[0] == counts[1]

    def test_nms(self, monkeypatch):
        # 100 candidates make one suppression block, 600 make three
        rng = np.random.default_rng(3)
        counts = []
        for n in (100, 600):
            xy, wh = rng.uniform(0, 200, (n, 2)), rng.uniform(4, 40, (n, 2))
            cands = [ScoredBox(Box(*p, *s), float(sc), int(k))
                     for p, s, sc, k in zip(xy, wh, rng.random(n), rng.integers(0, 3, n))]
            counts.append(box_checks(monkeypatch, lambda: nms(cands, 0.5)))
        assert counts[0] == counts[1]


def _over_full_batch():
    """Four images on the three CE anchors; images 2 and 3 hold four boxes."""
    return [CE_BOXES[:1], CE_BOXES, np.tile(CE_BOXES[0], (4, 1)), np.tile(CE_BOXES[1], (4, 1))]


CAPACITY_MATCHERS = {
    "serial": match_serial,
    "parallel-strict": lambda anchors, batch: match_parallel(
        build_rankings(anchors, to_sparse(batch)), to_sparse(batch)),
    "parallel-paper-literal": lambda anchors, batch: match_parallel(
        build_rankings(anchors, to_sparse(batch)), to_sparse(batch),
        MatchConfig(dedup_mode="paper_literal")),
    "greedy": lambda anchors, batch: match_greedy_bipartite(cost_matrices(anchors, batch)),
    "exact": lambda anchors, batch: match_exact(cost_matrices(anchors, batch)),
}


class TestCapacity:
    @pytest.mark.parametrize("name", CAPACITY_MATCHERS)
    def test_every_matcher_names_the_first_over_full_image(self, name):
        with pytest.raises(CapacityError) as e:
            CAPACITY_MATCHERS[name](CE_ANCHORS, _over_full_batch())
        assert e.value.image_index == 2
        assert str(e.value) == "image 2 has 4 boxes but only 3 anchors are available"

    def test_exact_raises_before_any_solve(self, monkeypatch):
        def fail(c):
            raise AssertionError("an image was solved")
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", fail)
        costs = cost_matrices(CE_ANCHORS, _over_full_batch()[:3])  # the last is over-full
        with pytest.raises(CapacityError) as e:
            match_exact(costs)
        assert e.value.image_index == 2


class TestMatchGreedy:
    def test_cost_instance(self):
        a = match_greedy_bipartite(COST_2X2)
        assert list(a.anchor_ids[0]) == [0, 1]
        assert total_weight(a, [COST_2X2]) == 510.0

    def test_single_box_takes_global_min(self):
        c = np.array([[7.0, 2.0, 9.0]])
        a = match_greedy_bipartite(c)
        assert list(a.anchor_ids[0]) == [1]

    def test_tie_breaks_by_box_then_anchor(self):
        c = np.full((2, 3), 4.0)
        a = match_greedy_bipartite(c)
        assert list(a.anchor_ids[0]) == [0, 1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_never_beats_exact(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0, 1, (4, 6))
        assert total_weight(match_exact(c), [c]) <= total_weight(
            match_greedy_bipartite(c), [c]) + 1e-12


class TestMatchExact:
    def test_two_by_two(self):
        c = np.array([[1.0, 2.0], [3.0, 1.0]])
        a = match_exact(c)
        assert list(a.anchor_ids[0]) == [0, 1]
        assert total_weight(a, [c]) == 2.0

    def test_cost_instance_beats_serial(self):
        a = match_exact(COST_2X2)
        assert total_weight(a, [COST_2X2]) == 510.0

    def test_single_row_is_argmin(self):
        c = np.array([[5.0, 1.0, 3.0, 1.0]])
        a = match_exact(c)
        assert list(a.anchor_ids[0]) == [1]  # first of the tied minima

    def test_lexicographic_tie_break(self):
        c = np.full((2, 4), 1.0)
        assert list(match_exact(c).anchor_ids[0]) == [0, 1]
        c2 = np.array([[1.0, 1.0, 5.0], [1.0, 1.0, 5.0]])
        assert list(match_exact(c2).anchor_ids[0]) == [0, 1]

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidSpecError):
            match_exact(np.array([[1.0, np.inf]]))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            match_exact(np.ones((3, 2)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_permutation_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        nb = int(rng.integers(1, 5))
        na = int(rng.integers(nb, 8))
        c = rng.uniform(0, 1, (nb, na))
        total, tup = full_permutation_exact(c)
        a = match_exact(c)
        assert total_weight(a, [c]) == pytest.approx(total, abs=1e-9)
        assert tuple(a.anchor_ids[0]) == tup

    def test_negative_costs(self):
        # the optimum puts a cost above the optimal total on row 0; a skip
        # that assumed the remaining rows cost >= 0 rejected every column
        for c in (np.array([[-2.0, -2, -2], [-2, 1, 0]]),
                  np.array([[0.0, -1, -1, -2], [-2, -2, -2, 2], [1, 2, 0, 1]])):
            total, tup = full_permutation_exact(c)
            a = match_exact(c)
            assert tuple(a.anchor_ids[0]) == tup
            assert total_weight(a, [c]) == total

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_tie_heavy_integers_match_full_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        nb = int(rng.integers(1, 5))
        na = int(rng.integers(nb, 8))
        c = rng.integers(-2, 3, (nb, na)).astype(np.float64)
        total, tup = full_permutation_exact(c)
        a = match_exact(c)
        assert tuple(a.anchor_ids[0]) == tup
        assert total_weight(a, [c]) == total

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_near_ties_match_unpruned_refinement(self, seed):
        # costs within 6e-10 of four levels: the refinement's 1e-9 tolerance
        # accepts near-optimal columns, which pruning must not drop
        rng = np.random.default_rng(seed)
        nb = int(rng.integers(1, 7))
        na = int(rng.integers(nb, 40))
        c = (rng.choice([0.25, 0.5, 0.75, 1.0], (nb, na))
             + rng.uniform(-6e-10, 6e-10, (nb, na)))
        assert tuple(match_exact(c).anchor_ids[0]) == tuple(_seed_lex_smallest_optimal(c))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_exact_ties_match_unpruned_refinement(self, seed):
        rng = np.random.default_rng(seed)
        nb = int(rng.integers(1, 8))
        na = int(rng.integers(nb, 40))
        c = np.where(rng.random((nb, na)) < 0.7, 1.0, rng.uniform(0, 1, (nb, na)))
        assert tuple(match_exact(c).anchor_ids[0]) == tuple(_seed_lex_smallest_optimal(c))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_restricted_brute_force_wide(self, seed):
        rng = np.random.default_rng(seed)
        nb = int(rng.integers(1, 6))
        na = int(rng.integers(16, 49))
        c = rng.uniform(0, 1, (nb, na))
        total, tup = brute_force_exact(c, candidates_per_box=nb)
        a = match_exact(c)
        assert total_weight(a, [c]) == pytest.approx(total, abs=1e-9)
        assert tuple(a.anchor_ids[0]) == tup

    def test_carried_optimum_saves_solves(self, monkeypatch):
        # a refinement that confirms each fixed row by a solve needs one
        # per box plus one per image, 464 here; the carried optimum
        # confirms most rows without one
        costs = []
        for seed in range(4):
            anchors, batch = crowded_instance(seed)
            assert any(np.all(iou_matrix(b, anchors) == 0, axis=1).any() for b in batch)
            costs += cost_matrices(anchors, batch)
        want = [_seed_lex_smallest_optimal(c) for c in costs]
        real = scipy.optimize.linear_sum_assignment
        solves = []
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment",
                            lambda c: solves.append(c.shape) or real(c))
        got = match_exact(costs)
        assert got == MatchAssignment(want)
        n_boxes = sum(len(c) for c in costs)
        assert len(solves) <= n_boxes // 2


@st.composite
def tie_heavy_costs(draw):
    """Square or wide matrices of small integers of both signs, -0.0
    among them, and zero rows: nearly every edge ties with another."""
    nb = draw(st.integers(0, 6))
    na = draw(st.integers(nb, 10))
    return draw(arrays(np.float64, (nb, na),
                       elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])))


TIE_EXAMPLES = [np.zeros((3, 3)), np.full((2, 5), -0.0), np.zeros((0, 4)), np.zeros((0, 0)),
                np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]),
                np.array([[1.0, -1, -1, 2], [0, 0, 0, 0], [-1, -1, 1, 1]])]


def _equal_frozen_matchers(c):
    """The heap-driven greedy matcher picks what the edge scan picks; the
    copy-free refinement picks what the per-row refinement picks, after
    the same ``_hungarian`` calls on bitwise-equal matrices."""
    assert match_greedy_bipartite(c).anchor_ids[0].tolist() == edge_scan_greedy(c)
    calls = {"new": [], "frozen": []}

    def recorder(name):
        real = matching._hungarian
        return lambda m: calls[name].append(m.copy()) or real(m)

    with mock.patch.object(matching, "_hungarian", recorder("new")):
        got = match_exact(c).anchor_ids[0].tolist()
    assert got == (per_row_exact(c, recorder("frozen")) if len(c) else [])
    assert [m.shape for m in calls["new"]] == [m.shape for m in calls["frozen"]]
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
               for a, b in zip(calls["new"], calls["frozen"]))


class TestFrozenMatchers:
    @given(tie_heavy_costs())
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_costs(self, c):
        _equal_frozen_matchers(c)

    @pytest.mark.parametrize("c", TIE_EXAMPLES)
    def test_tie_examples(self, c):
        _equal_frozen_matchers(c)

    @pytest.mark.parametrize("seed", range(2))
    def test_crowded_images(self, seed):
        anchors, batch = crowded_instance(seed)
        for c in cost_matrices(anchors, batch):
            _equal_frozen_matchers(c)


class TestCostMatrices:
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_one_minus_iou_per_image(self, seed):
        anchors, batch = crowded_instance(seed) if seed % 2 else random_geometric_instance(
            np.random.default_rng(seed), max_images=6)
        batch = [*batch[:2], np.empty((0, 4)), *batch[2:]]
        got = cost_matrices(anchors, batch)
        assert len(got) == len(batch)
        for g, boxes in zip(got, batch):
            want = 1.0 - iou_matrix(boxes, anchors)
            assert g.shape == want.shape
            assert np.array_equal(g.view(np.uint64), want.view(np.uint64))

    def test_empty_batch(self):
        assert cost_matrices([[1.0, 2, 3, 4]], []) == []
        got = cost_matrices([[1.0, 2, 3, 4]], [[], []])
        assert [g.shape for g in got] == [(0, 1), (0, 1)]


def _bound_instance(seed):
    """Small cost matrices of three kinds the rc bound must survive:
    tie-heavy integers, near ties, and negative costs with exact ties."""
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(1, 6))
    shape = (nb, int(rng.integers(nb, 12)))
    if seed % 3 == 0:
        return rng.integers(-2, 3, shape).astype(np.float64)
    if seed % 3 == 1:
        return rng.choice([0.25, 0.5, 0.75, 1.0], shape) + rng.uniform(-6e-10, 6e-10, shape)
    return np.where(rng.random(shape) < 0.5, -1.0, rng.uniform(-3, 1, shape))


class TestReducedCostBound:
    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_bound_holds_and_prunes_no_optimum(self, seed):
        c = _bound_instance(seed)
        nb, na = c.shape
        rows, cols = scipy.optimize.linear_sum_assignment(c)
        best = float(c[rows, cols].sum())
        rc = matching._reduced_costs(c, cols)
        scale = float(np.abs(c).sum())
        margin = 4e-9 * max(1.0, abs(best)) + 1e-12 * scale
        # dual feasible, and tight on the solver's edges
        assert rc.min() >= -1e-12 * scale
        assert np.allclose(rc[rows, cols], 0.0, rtol=0.0, atol=1e-12 * scale)
        # any assignment costs at least the optimum plus its edges' rc
        rng = np.random.default_rng(seed)
        for _ in range(20):
            perm = rng.permutation(na)[:nb]
            assert c[rows, perm].sum() >= best + rc[rows, perm].sum() - margin
        # along match_exact's path, no column the bound skips would have
        # passed the unpruned refinement's isclose check
        prefix = prefix_rc = 0.0
        avail = list(range(na))
        for g, pick in enumerate(match_exact(c).anchor_ids[0].tolist()):
            for j in avail:
                if prefix_rc + rc[g, j] > margin:
                    rest = c[np.ix_(range(g + 1, nb), [a for a in avail if a != j])]
                    total = prefix + c[g, j] + matching._hungarian(rest)[0]
                    assert not math.isclose(total, best, rel_tol=1e-12, abs_tol=1e-9)
            prefix += c[g, pick]
            prefix_rc += rc[g, pick]
            avail.remove(pick)


NONFINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteCosts:
    """NaN compares false both ways, so a matcher that let it through
    could pick NaN edges; every cost-taking function rejects it, and inf."""

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_serial_cost(self, bad):
        with pytest.raises(InvalidSpecError, match="non-finite"):
            match_serial_cost([[bad, 1.0], [0.5, bad]])

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("fn", [
        match_greedy_bipartite,
        match_exact,
        lambda cost: total_weight(MatchAssignment([[0], [0, 1]]), cost),
    ], ids=["greedy", "exact", "total_weight"])
    def test_cost_list_names_the_image(self, fn, bad):
        with pytest.raises(InvalidSpecError, match="image 1 has non-finite"):
            fn([np.ones((1, 2)), np.array([[bad, 1.0], [0.5, bad]])])


class TestTotalWeight:
    def test_empty_assignment(self):
        assert total_weight(MatchAssignment([np.empty(0, np.int64)]),
                            [np.empty((0, 5))]) == 0.0

    def test_out_of_bounds_rejected(self):
        a = MatchAssignment([np.array([4])])
        with pytest.raises(MatchInconsistencyError):
            total_weight(a, [np.ones((1, 3))])

    def test_image_count_mismatch_rejected(self):
        a = MatchAssignment([np.array([0])])
        with pytest.raises(MatchInconsistencyError):
            total_weight(a, [np.ones((1, 3)), np.ones((1, 3))])

    def test_negative_id_rejected(self):
        with pytest.raises(MatchInconsistencyError, match="image 1"):
            total_weight(MatchAssignment([[0], [-1]]), [np.ones((1, 3))] * 2)

    def test_sums_the_image_weights_in_order(self):
        rng = np.random.default_rng(4)
        mats = [rng.uniform(-1, 1, (n, 6)) for n in (3, 0, 5, 2)]
        a = match_greedy_bipartite(mats)
        weights = matching._image_weights(a, mats)
        assert weights == [float(c[np.arange(len(ids)), ids].sum())
                           for ids, c in zip(a.anchor_ids, mats)]
        total = 0.0
        for w in weights:
            total += w
        assert total_weight(a, mats) == total


class TestDominanceAndAgreement:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_exact_dominates_all(self, seed):
        rng = np.random.default_rng(seed)
        anchors, batch = random_geometric_instance(rng, max_images=2, max_boxes=5)
        costs = cost_matrices(anchors, batch)
        w_exact = total_weight(match_exact(costs), costs)
        w_greedy = total_weight(match_greedy_bipartite(costs), costs)
        w_serial = total_weight(match_serial(anchors, batch), costs)
        assert w_exact <= w_greedy + 1e-12
        assert w_exact <= w_serial + 1e-12

    def test_all_matchers_injective_per_image(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            anchors, batch = random_geometric_instance(rng)
            costs = cost_matrices(anchors, batch)
            sparse = to_sparse(batch)
            ranking = build_rankings(anchors, sparse)
            for a in (match_serial(anchors, batch),
                      match_parallel(ranking, sparse, MatchConfig()),
                      match_greedy_bipartite(costs),
                      match_exact(costs)):
                for ids in a.anchor_ids:
                    assert len(set(ids.tolist())) == len(ids)

    def test_distinct_best_anchors_all_agree(self):
        rng = np.random.default_rng(77)
        anchors = small_grid(4, 4, 2, image=128)
        for _ in range(20):
            picks = rng.choice(len(anchors), size=4, replace=False)
            batch = [np.array([anchors[p] + [rng.uniform(-1, 1),
                                             rng.uniform(-1, 1), 0, 0]
                               for p in picks])]
            costs = cost_matrices(anchors, batch)
            sparse = to_sparse(batch)
            ranking = build_rankings(anchors, sparse)
            results = [match_serial(anchors, batch),
                       match_parallel(ranking, sparse, MatchConfig()),
                       match_greedy_bipartite(costs),
                       match_exact(costs)]
            assert all(r == results[0] for r in results[1:])


class TestDeltas:
    def test_identity_pair_is_zero(self):
        anchors = CE_ANCHORS
        a = match_serial(anchors, [CE_ANCHORS[:1]])
        d = compute_deltas(a, anchors, [CE_ANCHORS[:1]])
        assert np.array_equal(d[0], np.zeros((1, 4)))

    def test_double_width(self):
        anchors = np.array([[50.0, 50, 10, 10]])
        gt = [np.array([[50.0, 50, 20, 10]])]
        a = match_serial(anchors, gt)
        d = compute_deltas(a, anchors, gt)
        assert d[0][0, 2] == pytest.approx(np.log(2), abs=1e-12)
        assert d[0][0, 3] == 0.0

    def test_offset_by_anchor_width(self):
        anchors = np.array([[50.0, 50, 10, 10]])
        gt = [np.array([[60.0, 50, 10, 10]])]
        a = MatchAssignment([np.array([0])])
        d = compute_deltas(a, anchors, gt)
        assert d[0][0, 0] == 1.0

    def test_nonpositive_gt_rejected(self):
        anchors = CE_ANCHORS
        a = MatchAssignment([np.array([0])])
        with pytest.raises(InvalidBoxError):
            compute_deltas(a, anchors, [np.array([[10.0, 10, 0, 5]])])

    @pytest.mark.parametrize("ids, rows", [([1], 3), ([0, 1], 1)])
    def test_decode_rows_must_match_assignment(self, ids, rows):
        # one id for three rows used to broadcast; two ids for one row raised
        # a bare numpy shape error
        with pytest.raises(MatchInconsistencyError,
                           match=f"image 1: {len(ids)} assignments for {rows} delta rows"):
            decode_deltas(MatchAssignment([[2], ids]), CE_ANCHORS,
                          [np.zeros((1, 4)), np.zeros((rows, 4))])

    @pytest.mark.parametrize("n_assigned", [1, 3])
    def test_image_count_must_match_assignment(self, n_assigned):
        batch = [CE_ANCHORS[:1], CE_ANCHORS[1:2]]
        a = MatchAssignment([[0]] * n_assigned)
        with pytest.raises(MatchInconsistencyError, match=f"covers {n_assigned} images"):
            compute_deltas(a, CE_ANCHORS, batch)
        with pytest.raises(MatchInconsistencyError, match=f"covers {n_assigned} images"):
            decode_deltas(a, CE_ANCHORS, [np.zeros((1, 4))] * 2)

    def test_empty_images_round_trip(self):
        batch = [np.empty((0, 4)), CE_BOXES, []]
        a = match_serial(CE_ANCHORS, batch)
        d = compute_deltas(a, CE_ANCHORS, batch)
        assert [x.shape for x in d] == [(0, 4), (3, 4), (0, 4)]
        back = decode_deltas(a, CE_ANCHORS, d)
        assert [x.shape for x in back] == [(0, 4), (3, 4), (0, 4)]
        assert np.allclose(back[1], CE_BOXES)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equal_per_image_reference(self, seed):
        if seed % 3:
            anchors, batch = any_instance(seed)
        else:  # a YOLOv3 grid, 0-20 boxes in each of 8 images
            rng = np.random.default_rng(seed)
            anchors, batch = yolo_grid(), yolo_batch(rng, rng.integers(0, 21, 8), size_lo=2)
        a = match_serial(anchors, batch)
        d = compute_deltas(a, anchors, batch)
        assert _bitwise_equal(d, _seed_compute_deltas(a, anchors, batch))
        assert _bitwise_equal(decode_deltas(a, anchors, d), _seed_decode_deltas(a, anchors, d))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        anchors, batch = random_geometric_instance(rng)
        a = match_serial(anchors, batch)
        decoded = decode_deltas(a, anchors, compute_deltas(a, anchors, batch))
        for boxes, rec in zip(batch, decoded):
            if len(boxes):
                assert np.allclose(rec, boxes, rtol=1e-6, atol=1e-9)
