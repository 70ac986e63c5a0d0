"""The front door: constructors and public scalar parameters under one
number rule (README, "Input rules").

Hypothesis draws each argument from a pool of numbers and near-numbers;
every call must either succeed or raise its documented typed error
(``InvalidBoxError``, ``InvalidSpecError`` or ``ValueError``). Any other
exception, ``TypeError``, ``OverflowError`` and ``struct.error`` among
them, fails the test, as does a warning under the suite's filter. Sizes
that set an amount of work (image and box counts, layer counts) are drawn
small, and no drawn grid is built.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odkit import (
    Box,
    GridSpec,
    InvalidBoxError,
    InvalidSpecError,
    LabelRecord,
    PipelineConfig,
    ScoredBox,
    SearchSpace,
    SparseLabelBatch,
    StageSpec,
    augment_jitter,
    gen_synthetic,
    iou_matrix,
    new_optimizer,
    nms,
    run_optimization,
    write_records,
)
from odkit.cli import TransferPlanEntry, plan_transfer
from odkit.hyperopt import BUILTIN_OBJECTIVES, Dim

EDGE_INTS = [0, 1, 2, -1, 65535, 65536, 2**63, 2**64, 10**400, -10**400, 2**1024 - 2**970]
EDGE_FLOATS = [0.5, -0.0, 1e308, -1e308, math.nan, math.inf, -math.inf, 2.0]
# everything but Python and numpy integers: none of these is an integer
NOT_INTS = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS), st.booleans(),
    st.floats(width=32).map(np.float32), st.booleans().map(np.bool_),
    st.sampled_from(["1", "0.5", "10", "nan", "-3", "1e400"]), st.none(),
    st.fractions(), st.decimals(), st.complex_numbers(),
)
POOL = st.one_of(st.integers(-10**400, 10**400), st.sampled_from(EDGE_INTS),
                 st.integers(-2**63, 2**63 - 1).map(np.int64), NOT_INTS)
# for arguments that set an amount of work
SMALL = st.one_of(st.integers(-2, 3), st.integers(-2, 3).map(np.int64), NOT_INTS)
ROWS = st.lists(st.tuples(POOL, POOL, POOL, POOL), max_size=3)

BOX = Box(10, 10, 4, 4)
UNIT = SearchSpace((Dim("x", 0.0, 1.0),))
RECORD = LabelRecord(0, 64, 64, [(10, 10, 4, 4), (30, 30, 8, 8)], [0, 1])
EXAMPLES = settings(max_examples=150, deadline=None)


def _typed(errors, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or None when it raises one of ``errors``."""
    try:
        return fn(*args, **kwargs)
    except errors:
        return None


@given(POOL, POOL, POOL, POOL)
@EXAMPLES
def test_box(x, y, w, h):
    box = _typed(InvalidBoxError, Box, x, y, w, h)
    if box is not None:
        assert np.isfinite(box.as_array()).all()


@given(POOL, POOL)
@EXAMPLES
def test_scored_box(score, class_id):
    _typed(ValueError, ScoredBox, BOX, score, class_id)


@given(POOL, POOL, POOL, ROWS, st.lists(POOL, max_size=3))
@EXAMPLES
def test_label_record_constructs_only_what_writes(tmp_path_factory, image_id, image_w,
                                                  image_h, boxes, classes):
    rec = _typed(ValueError, LabelRecord, image_id, image_w, image_h, boxes, classes)
    if rec is not None:
        assert write_records(tmp_path_factory.mktemp("odr") / "r.odr", [rec]) == 1


@given(POOL, POOL, POOL, POOL,
       st.one_of(st.lists(st.tuples(POOL, POOL), min_size=1, max_size=2).map(tuple), POOL))
@EXAMPLES
def test_grid_spec(image_w, image_h, grid_w, grid_h, templates):
    _typed(InvalidSpecError, GridSpec, image_w, image_h, grid_w, grid_h, templates)


@given(POOL, POOL, st.one_of(st.booleans(), POOL))
@EXAMPLES
def test_dim(lo, hi, is_integer):
    _typed(ValueError, Dim, "x", lo, hi, is_integer)


@given(POOL, POOL, POOL)
@EXAMPLES
def test_stage_spec(fixed_ms, per_box_ms, transfer_cost_ms):
    _typed(ValueError, StageSpec, "s", fixed_ms, per_box_ms, "accelerator", transfer_cost_ms)


@given(POOL, POOL, POOL, POOL)
@EXAMPLES
def test_pipeline_config(batch_size, prefetch_depth, n_batches, mean_boxes):
    _typed(ValueError, PipelineConfig, [StageSpec("s")], batch_size, prefetch_depth,
           n_batches, mean_boxes)


@given(POOL, POOL, POOL, POOL)
@EXAMPLES
def test_new_optimizer(exploration_p, alpha, noise_eps, seed):
    _typed(ValueError, new_optimizer, UNIT, exploration_p, alpha, noise_eps, seed)


@given(SMALL)
@EXAMPLES
def test_run_optimization_budget(budget):
    state = new_optimizer(UNIT, seed=0)
    _typed(ValueError, run_optimization, state, BUILTIN_OBJECTIVES["parabola"], budget)


@given(ROWS, ROWS)
@EXAMPLES
def test_iou_matrix(a, b):
    iou = _typed(InvalidBoxError, iou_matrix, a, b)
    if iou is not None:
        assert iou.shape == (len(a), len(b)) and ((iou >= 0) & (iou <= 1)).all()


@given(ROWS, POOL)
@EXAMPLES
def test_sparse_batch_validate(values, batch_size):
    def made():
        SparseLabelBatch(np.zeros((len(values), 2)), values, np.zeros(len(values)),
                         batch_size).validate()
    _typed(ValueError, made)


@given(POOL)
@EXAMPLES
def test_nms_thresh(thresh):
    _typed(ValueError, nms, [ScoredBox(BOX, 0.9), ScoredBox(BOX, 0.5)], thresh)


@given(POOL, SMALL, SMALL, POOL, POOL, SMALL)
@EXAMPLES
def test_gen_synthetic(seed, n_images, max_boxes, image_w, image_h, class_count):
    _typed(ValueError, gen_synthetic, seed, n_images, max_boxes, image_w, image_h, class_count)


@given(SMALL, POOL, POOL)
@EXAMPLES
def test_transfer_plans(layers, n_layers, fine_tune):
    _typed(ValueError, plan_transfer, layers)
    _typed(ValueError, TransferPlanEntry, "A", n_layers, fine_tune)


@given(POOL, POOL, st.booleans())
@EXAMPLES
def test_augment_jitter(seed, max_drift, allow_flip):
    _typed(ValueError, augment_jitter, RECORD, seed, max_drift, allow_flip)


# Each case below raised TypeError or OverflowError, or was accepted,
# before the shared rule.
CASES = {
    "grid image beyond float64": (
        lambda: GridSpec(10**400, 10, 2, 2, ((1, 1),)),
        InvalidSpecError, "image dimensions must be positive and finite"),
    "grid template beyond float64": (
        lambda: GridSpec(10, 10, 2, 2, ((10**400, 1),)),
        InvalidSpecError, r"template shape .* must be positive and finite"),
    "grid image str": (
        lambda: GridSpec("10", 10, 2, 2, ((1, 1),)),
        InvalidSpecError, "image dimensions must be positive and finite"),
    "grid image bool": (
        lambda: GridSpec(True, 10, 2, 2, ((1, 1),)),
        InvalidSpecError, "image dimensions must be positive and finite"),
    "dim bound beyond float64": (
        lambda: Dim("x", 0, 10**400), ValueError, "bounds must be finite"),
    "dim bound str": (
        lambda: Dim("x", "0", 1), ValueError, "bounds must be finite"),
    "dim bounds bool": (
        lambda: Dim("x", False, True), ValueError, "bounds must be finite"),
    "dim is_integer str": (
        lambda: Dim("x", 0, 1, "yes"), ValueError, "is_integer must be true or false"),
    "alpha beyond float64": (
        lambda: new_optimizer(UNIT, alpha=10**400), ValueError, "alpha must be finite"),
    "noise_eps beyond float64": (
        lambda: new_optimizer(UNIT, noise_eps=10**400), ValueError,
        "noise_eps must be finite"),
    "exploration_p str": (
        lambda: new_optimizer(UNIT, exploration_p="0.1"), ValueError,
        r"exploration_p must be in \[0, 1\]"),
    "alpha bool": (
        lambda: new_optimizer(UNIT, alpha=True), ValueError, "alpha must be finite"),
    "seed float": (
        lambda: new_optimizer(UNIT, seed=1.5), ValueError, "seed must be an integer"),
    "seed str": (
        lambda: new_optimizer(UNIT, seed="3"), ValueError, "seed must be an integer"),
    "budget float": (
        lambda: run_optimization(new_optimizer(UNIT), BUILTIN_OBJECTIVES["parabola"], 1.5),
        ValueError, "budget must be an integer"),
    "box str": (lambda: Box("1", 1, 1, 1), InvalidBoxError, "non-finite box"),
    "box bools": (lambda: Box(True, True, True, True), InvalidBoxError, "non-finite box"),
    "score str": (lambda: ScoredBox(BOX, "0.5"), ValueError, "score must be finite"),
    "score bool": (lambda: ScoredBox(BOX, True), ValueError, "score must be finite"),
    "class_id bool": (
        lambda: ScoredBox(BOX, 0.5, True), ValueError, "class_id must be an integer"),
    "record str boxes": (
        lambda: LabelRecord(0, 64, 64, [["10", "10", "4", "4"]], [3]),
        InvalidBoxError, "box values must be real numbers"),
    "record str classes": (
        lambda: LabelRecord(0, 64, 64, [(10, 10, 4, 4)], ["3"]),
        ValueError, "class ids must be integers"),
    "record bool classes": (
        lambda: LabelRecord(0, 64, 64, [(10, 10, 4, 4)], [True]),
        ValueError, "class ids must be integers"),
    "iou str boxes": (
        lambda: iou_matrix([["10", "10", "4", "4"]], [BOX]),
        InvalidBoxError, "box values must be real numbers"),
    "iou bool boxes": (
        lambda: iou_matrix(np.ones((1, 4), bool), np.ones((1, 4), bool)),
        InvalidBoxError, "box values must be real numbers"),
    "batch str values": (
        lambda: SparseLabelBatch([(0, 0)], [["10", "10", "4", "4"]], [0], 1).validate(),
        InvalidBoxError, "box values must be real numbers"),
    "nms thresh str": (
        lambda: nms([ScoredBox(BOX, 0.9)], "0.5"), ValueError, r"thresh must be in \[0, 1\]"),
    "gen_synthetic float count": (
        lambda: gen_synthetic(0, 1.5, 2, 10, 10), InvalidSpecError,
        "gen_synthetic takes integers"),
    "plan_transfer float": (
        lambda: plan_transfer(1.5), ValueError, "layers must be >= 1 and an integer"),
    "transfer entry str": (
        lambda: TransferPlanEntry("A", "1", False), ValueError,
        "n_layers must be >= 1 and an integer"),
    "jitter float seed": (
        lambda: augment_jitter(RECORD, 1.5, 1, False), ValueError,
        "seed and max_drift must be integers"),
    "jitter float drift": (
        lambda: augment_jitter(RECORD, 1, 1.5, False), ValueError,
        "seed and max_drift must be integers"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_known_case_raises_its_typed_error(case):
    fn, error, message = CASES[case]
    with pytest.raises(error, match=message):
        fn()


@pytest.mark.parametrize("value", [np.int64(3), Fraction(1, 2), np.float32(0.25), -0.0, 2**60])
def test_reals_beside_float_and_int_are_accepted(value):
    # the rule takes any finite numbers.Real, not only Python's two types
    assert ScoredBox(BOX, abs(value) % 1).score == abs(value) % 1
    assert Dim("x", value, value + 1).hi == value + 1


@pytest.mark.parametrize("value", [Decimal("0.5"), 0.5 + 0j, np.bool_(False), "0.5", None])
def test_non_reals_are_rejected(value):
    with pytest.raises(ValueError, match="score must be finite"):
        ScoredBox(BOX, value)
