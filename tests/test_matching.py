import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from odkit import (
    CapacityError,
    GridSpec,
    MatchAssignment,
    MatchConfig,
    MatchInconsistencyError,
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
    total_weight,
)
from odkit.geometry import InvalidBoxError, InvalidSpecError
from oracles import (
    brute_force_exact,
    full_permutation_exact,
    random_geometric_instance,
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
    """An exception in any worker chunk reaches the caller; the fault sits
    in the last chunk, which runs on a worker thread whenever threads > 1."""

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_build_rankings_raises_bad_box(self, monkeypatch, threads):
        monkeypatch.setenv("ODF_THREADS", threads)
        batch = [np.array([[20.0, 20, 8, 8]])] * 5 + [np.array([[20.0, 20, -4, 8]])]
        with pytest.raises(InvalidBoxError):
            build_rankings(small_grid(), to_sparse(batch))

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_match_parallel_raises_bad_ranking(self, monkeypatch, threads):
        monkeypatch.setenv("ODF_THREADS", threads)
        anchors = small_grid()
        sparse = to_sparse([np.array([[20.0, 20, 8, 8]])] * 6)
        ranking = build_rankings(anchors, sparse)
        ranking.dist_ids[-1, 0] = len(anchors)  # names an anchor that does not exist
        with pytest.raises(IndexError):
            match_parallel(ranking, sparse)


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
