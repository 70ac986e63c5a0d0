import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odkit import geometry
from odkit import (
    Box,
    GridSpec,
    InvalidBoxError,
    InvalidSpecError,
    ScoredBox,
    build_anchor_grid,
    euclidean_distance,
    euclidean_distance_matrix,
    iou,
    iou_matrix,
    matching_distance,
    nms,
)
from oracles import cell_iou, grid_stress_boxes, mc_iou, nms_reference, random_grid_spec

coord = st.floats(-100, 100, allow_nan=False, width=32).map(float)
size = st.floats(0.25, 64, allow_nan=False, width=32).filter(lambda v: v > 0).map(float)
boxes = st.builds(lambda x, y, w, h: Box(x, y, w, h), coord, coord, size, size)


def _seed_euclidean_distance_matrix(a, b):
    """euclidean_distance_matrix before it dropped its (N, M, 4)
    temporary, frozen here as the bitwise reference: rankings break
    Euclidean ties by index, so the floats must not move."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _seed_iou_matrix(a, b):
    """iou_matrix before it computed in reused buffers, frozen here as
    the bitwise reference: rankings break IOU ties by index, so the
    floats must not move."""
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


def _random_boxes(seed):
    """Two box sets of 1-59 boxes; on odd seeds rounded to 0.1, so that
    coordinates and IOUs tie."""
    rng = np.random.default_rng(seed)
    a, b = (np.column_stack([rng.uniform(-500, 500, (n, 2)), rng.uniform(0.5, 300, (n, 2))])
            for n in rng.integers(1, 60, 2))
    if seed % 2:
        a, b = np.round(a, 1), np.round(b, 1)
    return a, b


class TestBoxValidation:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(InvalidBoxError):
            Box(0, 0, 0, 1)
        with pytest.raises(InvalidBoxError):
            Box(0, 0, 1, -2)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidBoxError):
            Box(float("nan"), 0, 1, 1)
        with pytest.raises(InvalidBoxError):
            Box(0, float("inf"), 1, 1)


GOOD = [[20.0, 20, 8, 8], [30.0, 10, 4, 6]]
BAD_IMAGES = {
    "nan": [[np.nan, 20, 8, 8]],
    "zero width": [[20.0, 20, 0, 8]],
    "nan and zero width": [[20.0, 20, -1, 8], [np.inf, 0, 1, 1]],
    "shape": [[20.0, 20, 8]],
    "ragged": [[20.0, 20, 8, 8], [1.0]],
}


def _first_error(images):
    """The error ``as_box_array`` raises first, image by image."""
    try:
        for boxes in images:
            geometry.as_box_array(boxes)
    except (ValueError, TypeError) as e:
        return type(e), str(e)
    return None


class TestBatchValidation:
    """_as_box_arrays checks a batch's values once and raises what checking
    its images one by one, in order, raises first."""

    def test_equals_per_image_arrays(self):
        images = [np.array(GOOD), [], [Box(1.0, 2, 3, 4)], np.array(GOOD, np.float32)]
        got = geometry._as_box_arrays(images)
        want = [geometry.as_box_array(boxes) for boxes in images]
        assert all(g.dtype == np.float64 and np.array_equal(g, w) for g, w in zip(got, want))
        assert len(got) == len(want)
        assert geometry._as_box_arrays([]) == []

    @pytest.mark.parametrize("first", sorted(BAD_IMAGES))
    @pytest.mark.parametrize("second", [None, *sorted(BAD_IMAGES)])
    def test_first_bad_image_names_the_error(self, first, second):
        images = [GOOD, BAD_IMAGES[first], GOOD] + ([BAD_IMAGES[second]] if second else [])
        want = _first_error(images)
        with pytest.raises((ValueError, TypeError)) as e:
            geometry._as_box_arrays(images)
        assert (type(e.value), str(e.value)) == want

    @pytest.mark.parametrize("boxes", [
        [Box(1.0, 2, 3, 4), (5, 6, 7, 8), np.array([9.0, 1, 2, 3]), [4, 5, 6, 7.5]],
        [Box(1.0, 2, 3, 4)] * 3,
        [(1, 2, 3, 4), Box(5.0, 6, 7, 8)],
        [np.float32(1.5), 2, 3, 4],
        [[[1.0, 2, 3, 4]]],
        [Box(1.0, 2, 3, 4), (1, 2, 3)],
        [Box(1.0, 2, 3, 4), None],
        [(1, 2, 3, 4), ("a", 2, 3, 4)],
        [(1, 2, 3, 4), {}],
    ])
    def test_rows_as_stacking_them_one_by_one(self, boxes):
        # _box_rows builds the rows as one array; it must return and raise
        # what converting each row and stacking them did
        def stacked(rows):
            rows = [b.as_array() if isinstance(b, Box) else np.asarray(b, dtype=np.float64)
                    for b in rows]
            arr = np.stack(rows)
            if arr.ndim != 2 or arr.shape[1] != 4:
                raise InvalidBoxError(f"expected (N, 4) boxes, got shape {arr.shape}")
            return arr

        try:
            want = stacked(boxes)
        except (ValueError, TypeError) as e:
            with pytest.raises(type(e)) as got:
                geometry._box_rows(iter(boxes))  # a one-pass iterable, too
            assert str(got.value) == str(e)
        else:
            got = geometry._box_rows(iter(boxes))
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_one_value_check(self, monkeypatch):
        calls = []
        real = geometry._check_box_values
        monkeypatch.setattr(geometry, "_check_box_values",
                            lambda boxes: calls.append(len(boxes)) or real(boxes))
        geometry._as_box_arrays([GOOD] * 9)
        assert calls == [18]


class TestIou:
    def test_identity(self):
        assert iou(Box(5, 5, 2, 2), Box(5, 5, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 2, 2), Box(10, 10, 2, 2)) == 0.0

    def test_third_overlap(self):
        # intersection 1x2 = 2, union 4+4-2 = 6
        a, b = Box(0, 0, 2, 2), Box(1, 0, 2, 2)
        assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
        assert cell_iou(a.as_array(), b.as_array()) == pytest.approx(1 / 3, abs=1e-12)
        assert mc_iou(a.as_array(), b.as_array()) == pytest.approx(1 / 3, abs=0.01)

    @given(boxes, boxes)
    def test_symmetry_and_range(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes)
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    @given(boxes, boxes)
    def test_complement_is_exact(self, a, b):
        assert matching_distance(a, b) + iou(a, b) == 1.0

    @given(st.integers(0, 400), st.integers(0, 400), st.integers(1, 64),
           st.integers(1, 64), st.integers(0, 400), st.integers(0, 400),
           st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_against_cell_counting_oracle(self, ax, ay, aw, ah, bx, by, bw, bh):
        # integer-lattice boxes make the cell count exact
        a = np.array([ax, ay, aw * 2, ah * 2], dtype=float)
        b = np.array([bx, by, bw * 2, bh * 2], dtype=float)
        assert iou(a, b) == pytest.approx(cell_iou(a, b, cells_per_unit=1), abs=1e-12)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(5)
        a = np.column_stack([rng.uniform(0, 50, 7), rng.uniform(0, 50, 7),
                             rng.uniform(1, 20, 7), rng.uniform(1, 20, 7)])
        b = np.column_stack([rng.uniform(0, 50, 9), rng.uniform(0, 50, 9),
                             rng.uniform(1, 20, 9), rng.uniform(1, 20, 9)])
        m = iou_matrix(a, b)
        assert m.shape == (7, 9)
        for i in range(7):
            for j in range(9):
                assert m[i, j] == pytest.approx(iou(a[i], b[j]), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matrix_bitwise_equals_seed_formula(self, seed):
        a, b = _random_boxes(seed)
        got = iou_matrix(a, b)
        want = _seed_iou_matrix(a, b)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_touching_and_disjoint_bitwise_equal_clip_formula(self, seed):
        # even sides on an integer lattice: many pairs share an edge or a
        # corner (a zero overlap) or lie apart (a negative one), which the
        # kernel zeroes by np.maximum where the seed formula used np.clip
        rng = np.random.default_rng(seed)
        a, b = (np.column_stack([rng.integers(-6, 7, (n, 2)), 2 * rng.integers(1, 4, (n, 2))])
                .astype(float) for n in rng.integers(1, 30, 2))
        got = iou_matrix(a, b)
        assert (got == 0).any()
        assert np.array_equal(got.view(np.uint64), _seed_iou_matrix(a, b).view(np.uint64))

    def test_empty_side_gives_empty_matrix(self):
        assert iou_matrix(np.empty((0, 4)), [[0.0, 0, 1, 1]]).shape == (0, 1)
        assert iou_matrix([[0.0, 0, 1, 1]], np.empty((0, 4))).shape == (1, 0)


HUGE = [0.0, 0.0, 1e200, 1e200]  # finite, but its area overflows


class TestOverflowingBoxes:
    """Boxes whose area or corners overflow float64 raise rather than
    give NaN IOUs (the union would be inf - inf)."""

    @pytest.mark.parametrize("a, b", [
        ([HUGE], [HUGE]),
        ([HUGE], [[0.0, 0, 2, 2]]),
        ([[0.0, 0, 1.5e154, 1e154]], [[0.0, 0, 1.5e154, 1e154]]),  # each area finite, sum not
        ([[1.7e308, 0, 1e308, 1e-10]], [[1.7e308, 0, 1e308, 1e-10]]),  # right edge at +inf
    ])
    def test_iou_matrix_raises(self, a, b):
        with pytest.raises(InvalidBoxError, match="overflow"):
            iou_matrix(np.array(a), np.array(b))

    def test_large_finite_boxes_still_compute(self):
        big = np.array([[0.0, 0, 1e150, 1e150], [5e149, 0, 1e150, 1e150]])
        m = iou_matrix(big, big)
        assert np.all(np.isfinite(m))
        assert m[0, 0] == 1.0 and m[0, 1] == pytest.approx(1 / 3)

    def test_nms_raises(self):
        cands = [ScoredBox(Box(*HUGE), 0.9), ScoredBox(Box(*HUGE), 0.8)]
        with pytest.raises(InvalidBoxError, match="overflow"):
            nms(cands, 0.5)


class TestMatchingDistance:
    def test_examples(self):
        assert matching_distance(Box(5, 5, 2, 2), Box(5, 5, 2, 2)) == 0.0
        assert matching_distance(Box(0, 0, 2, 2), Box(10, 10, 2, 2)) == 1.0
        assert matching_distance(Box(0, 0, 2, 2), Box(1, 0, 2, 2)) == pytest.approx(2 / 3)


class TestEuclideanDistance:
    def test_examples(self):
        assert euclidean_distance(Box(1, 2, 3, 4), Box(1, 2, 3, 4)) == 0.0
        assert euclidean_distance(Box(0, 0, 1, 1), Box(3, 4, 1, 1)) == 5.0
        assert euclidean_distance(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == 2.0

    def test_scalar_bitwise_equals_matrix_entry(self):
        # the matchers break ties on the matrix's floats; a norm-based
        # scalar differed from them by one ulp on about one pair in ten
        rng = np.random.default_rng(0)
        a = np.column_stack([rng.uniform(-500, 500, (2000, 2)), rng.uniform(0.5, 300, (2000, 2))])
        b = np.column_stack([rng.uniform(-500, 500, (2000, 2)), rng.uniform(0.5, 300, (2000, 2))])
        got = np.array([euclidean_distance(p, q) for p, q in zip(a, b)])
        want = np.array([euclidean_distance_matrix(p[None], q[None])[0, 0] for p, q in zip(a, b)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matrix_bitwise_equals_seed_formula(self, seed):
        a, b = _random_boxes(seed)
        got = euclidean_distance_matrix(a, b)
        want = _seed_euclidean_distance_matrix(a, b)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestAnchorGrid:
    def test_single_cell(self):
        spec = GridSpec(image_w=100, image_h=100, grid_w=1, grid_h=1,
                        templates=((10, 10),))
        grid = build_anchor_grid(spec)
        assert grid.shape == (1, 4)
        assert tuple(grid[0]) == (50.0, 50.0, 10.0, 10.0)

    def test_even_spacing(self):
        spec = GridSpec(image_w=300, image_h=100, grid_w=2, grid_h=1,
                        templates=((10, 10),))
        grid = build_anchor_grid(spec)
        assert sorted(set(grid[:, 0])) == [100.0, 200.0]

    def test_flattened_index(self):
        templates = ((10, 10), (20, 20), (30, 30))
        spec = GridSpec(image_w=120, image_h=120, grid_w=2, grid_h=2,
                        templates=templates)
        grid = build_anchor_grid(spec)
        assert len(grid) == 12
        # (i=1, j=1, k=2) -> ((1*2)+1)*3 + 2 = 11
        x = (1 + 1) * 120 / 3
        y = (1 + 1) * 120 / 3
        assert tuple(grid[11]) == (x, y, 30.0, 30.0)

    def test_empty_templates_rejected(self):
        with pytest.raises(InvalidSpecError):
            GridSpec(image_w=100, image_h=100, grid_w=1, grid_h=1, templates=())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["image_w", "image_h", "template_w", "template_h"])
    def test_non_finite_sizes_rejected(self, bad, field):
        sizes = {"image_w": 100.0, "image_h": 100.0, "template_w": 10.0, "template_h": 10.0}
        sizes[field] = bad
        with pytest.raises(InvalidSpecError, match="finite"):
            GridSpec(image_w=sizes["image_w"], image_h=sizes["image_h"], grid_w=2, grid_h=2,
                     templates=((sizes["template_w"], sizes["template_h"]),))

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_length_and_bounds(self, gw, gh, k):
        templates = tuple((8.0 + 2 * t, 6.0 + t) for t in range(k))
        spec = GridSpec(image_w=200, image_h=160, grid_w=gw, grid_h=gh,
                        templates=templates)
        grid = build_anchor_grid(spec)
        assert len(grid) == gw * gh * k
        assert np.all(grid[:, 0] > 0) and np.all(grid[:, 0] < 200)
        assert np.all(grid[:, 1] > 0) and np.all(grid[:, 1] < 160)
        again = build_anchor_grid(spec)
        assert np.array_equal(grid, again)


def _bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


def _non_grids(spec):
    """Anchor sets one step away from ``spec``'s grid, each with the map
    from its rows to the grid's rows: one coordinate of the last anchor,
    or the x of the second, moved one ulp up; rows permuted; the last
    anchor dropped (so that A need not be a product); a single anchor."""
    grid = build_anchor_grid(spec)
    a = len(grid)
    rng = np.random.default_rng(a)
    out = []
    for row, col in [(-1, 0), (-1, 1), (-1, 2), (-1, 3), (min(1, a - 1), 0)]:
        moved = grid.copy()
        moved[row, col] = np.nextafter(moved[row, col], np.inf)
        out.append((moved, np.arange(a)))
    perm = rng.permutation(a)
    while a > 1 and np.array_equal(perm, np.arange(a)):
        perm = rng.permutation(a)
    out += [(grid[perm], perm), (grid[:1], np.arange(1))]
    if a > 1:
        out.append((grid[:-1], np.arange(a - 1)))
    return out


class TestGridFactors:
    """geometry._grid_factors recognises build_anchor_grid's layout, and
    nothing else: everything else is one cell of A templates."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_every_built_grid_is_recognised(self, seed):
        spec = random_grid_spec(np.random.default_rng(seed))
        got = geometry._grid_factors(build_anchor_grid(spec))
        assert got == (spec.grid_h, spec.grid_w, len(spec.templates))

    def test_near_grids_are_one_cell(self):
        spec = GridSpec(image_w=90, image_h=60, grid_w=4, grid_h=3,
                        templates=((8.0, 6.0), (6.0, 8.0)))
        for anchors, _ in _non_grids(spec):
            assert geometry._grid_factors(anchors) == (1, 1, len(anchors))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_near_grids_equal_the_grid(self, seed):
        # whatever factors a near grid gets (a permuted single row is still
        # a grid), its unchanged anchors get the grid's floats
        rng = np.random.default_rng(seed)
        spec = random_grid_spec(rng)
        grid = build_anchor_grid(spec)
        boxes = grid_stress_boxes(rng, grid, int(rng.integers(0, 12)))
        for kernel in (geometry._iou_matrix, geometry._euclidean_distance_matrix):
            want = kernel(boxes, grid, geometry._grid_factors(grid))
            for anchors, rows in _non_grids(spec):
                got = kernel(boxes, anchors, geometry._grid_factors(anchors))
                assert np.array_equal(_bits(got), _bits(kernel(boxes, anchors)))
                same = np.all(anchors == grid[rows], axis=1)
                assert np.array_equal(_bits(got)[:, same], _bits(want[:, rows])[:, same])

    def test_random_anchors_are_one_cell(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 12, 36):
            anchors = np.column_stack([rng.uniform(0, 100, (n, 2)), rng.uniform(1, 30, (n, 2))])
            assert geometry._grid_factors(anchors) == (1, 1, n)
        assert geometry._grid_factors(np.empty((0, 4))) == (1, 1, 0)

    def test_signed_zero_centres_are_not_equal(self):
        grid = build_anchor_grid(GridSpec(image_w=4, image_h=4, grid_w=1, grid_h=2,
                                          templates=((1, 1), (2, 2))))
        grid[:, 0] = 0.0
        assert geometry._grid_factors(grid) == (2, 1, 2)
        grid[1, 0] = -0.0
        assert geometry._grid_factors(grid) == (1, 1, 4)


class TestFactoredKernels:
    """On a grid the IOU and distance kernels build their pair terms per
    axis; every float equals the one-cell form's and the frozen seed
    formulas' bit for bit, whatever the box."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_one_cell_form(self, seed):
        rng = np.random.default_rng(seed)
        anchors = build_anchor_grid(random_grid_spec(rng))
        boxes = grid_stress_boxes(rng, anchors, int(rng.integers(0, 40)))
        factors = geometry._grid_factors(anchors)
        for kernel, seed_formula in ((geometry._iou_matrix, _seed_iou_matrix),
                                     (geometry._euclidean_distance_matrix,
                                      _seed_euclidean_distance_matrix)):
            got = kernel(boxes, anchors, factors)
            assert got.shape == (len(boxes), len(anchors))
            assert np.array_equal(_bits(got), _bits(kernel(boxes, anchors)))
            assert np.array_equal(_bits(got), _bits(seed_formula(boxes, anchors)))

    @pytest.mark.parametrize("boxes, templates", [
        ([HUGE], ((4.0, 4.0),)),
        ([[0.0, 0, 1.5e154, 1e154]], ((1.5e154, 1e154),)),
        ([[1.7e308, 0, 1e308, 1e-10]], ((4.0, 4.0),)),
        ([[10.0, 10, 4, 4]], ((1e200, 1e200), (4.0, 4.0))),
    ])
    def test_overflow_raises_on_both_forms(self, boxes, templates):
        anchors = build_anchor_grid(GridSpec(image_w=64, image_h=64, grid_w=3, grid_h=2,
                                             templates=templates))
        assert geometry._grid_factors(anchors) == (2, 3, len(templates))
        for factors in (geometry._grid_factors(anchors), None):
            with pytest.raises(InvalidBoxError, match="overflow"):
                geometry._iou_matrix(np.array(boxes), anchors, factors)


class TestNms:
    def test_duplicate_suppressed(self):
        cands = [ScoredBox(Box(5, 5, 4, 4), 0.9), ScoredBox(Box(5, 5, 4, 4), 0.8)]
        assert nms(cands, 0.5) == [0]

    def test_disjoint_kept(self):
        cands = [ScoredBox(Box(5, 5, 4, 4), 0.2), ScoredBox(Box(50, 50, 4, 4), 0.9)]
        assert nms(cands, 0.5) == [1, 0]

    def test_below_thresh_kept(self):
        # IOU 1/3 < 0.487
        cands = [ScoredBox(Box(0, 0, 2, 2), 0.9), ScoredBox(Box(1, 0, 2, 2), 0.8)]
        assert nms(cands, 0.487) == [0, 1]

    def test_classes_do_not_suppress_each_other(self):
        cands = [ScoredBox(Box(5, 5, 4, 4), 0.9, class_id=0),
                 ScoredBox(Box(5, 5, 4, 4), 0.8, class_id=1)]
        assert nms(cands, 0.5) == [0, 1]

    def test_empty(self):
        assert nms([], 0.5) == []

    def test_thresh_validated(self):
        with pytest.raises(ValueError):
            nms([], 1.5)

    def test_thresh_one_keeps_all_non_identical(self):
        cands = [ScoredBox(Box(5, 5, 4, 4), 0.9), ScoredBox(Box(6, 5, 4, 4), 0.8),
                 ScoredBox(Box(5, 6, 4, 4), 0.7)]
        assert sorted(nms(cands, 1.0)) == [0, 1, 2]

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20),
                              st.integers(1, 10), st.integers(1, 10)),
                    min_size=1, max_size=8, unique=True),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant_with_distinct_scores(self, geoms, rnd):
        # distinct scores give a strict total order, so the retained SET of
        # boxes cannot depend on input order
        n = len(geoms)
        scores = [0.9 - 0.05 * i for i in range(n)]
        cands = [ScoredBox(Box(*g), s) for g, s in zip(geoms, scores)]
        kept = {id(cands[i]) for i in nms(cands, 0.4)}
        perm = list(range(n))
        rnd.shuffle(perm)
        shuffled = [cands[p] for p in perm]
        kept_shuffled = {id(shuffled[i]) for i in nms(shuffled, 0.4)}
        assert kept == kept_shuffled

    @given(st.data(), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_scan_oracle(self, data, thresh):
        # few distinct scores, so the ascending-index tie-break is exercised
        n_classes = data.draw(st.integers(1, 3))
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, 16), st.integers(0, 16), st.integers(1, 8),
                      st.integers(1, 8), st.sampled_from([0.0, 0.3, 0.6, 1.0]),
                      st.integers(0, n_classes - 1)),
            min_size=1, max_size=40))
        cands = [ScoredBox(Box(x, y, w, h), s, c) for x, y, w, h, s, c in rows]
        boxes = [(x, y, w, h) for x, y, w, h, _, _ in rows]
        expected = nms_reference(boxes, [r[4] for r in rows], [r[5] for r in rows], thresh)
        assert nms(cands, thresh) == expected

    @given(st.data(), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1, 2, 3, 7]))
    @settings(max_examples=100, deadline=None)
    def test_small_blocks_match_oracle(self, data, thresh, block):
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, 16), st.integers(0, 16), st.integers(1, 8),
                      st.integers(1, 8), st.sampled_from([0.0, 0.3, 0.6, 1.0]),
                      st.integers(0, 1)),
            min_size=1, max_size=30))
        cands = [ScoredBox(Box(x, y, w, h), s, c) for x, y, w, h, s, c in rows]
        boxes = [(x, y, w, h) for x, y, w, h, _, _ in rows]
        expected = nms_reference(boxes, [r[4] for r in rows], [r[5] for r in rows], thresh)
        saved = geometry._NMS_BLOCK
        geometry._NMS_BLOCK = block
        try:
            assert nms(cands, thresh) == expected
        finally:
            geometry._NMS_BLOCK = saved

    def test_memory_bounded_at_2000_candidates(self):
        rng = np.random.default_rng(0)
        xy = rng.uniform(0, 400, (2000, 2))
        wh = rng.uniform(4, 60, (2000, 2))
        cands = [ScoredBox(Box(*b), float(s), int(c)) for b, s, c in
                 zip(np.hstack([xy, wh]).tolist(), rng.uniform(0, 1, 2000), rng.integers(0, 3, 2000))]
        tracemalloc.start()
        try:
            kept = nms(cands, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(kept) < 2000
        assert peak < 40 * 2**20
