"""Axis-aligned box geometry: IOU metrics, anchor grids, and score filtering.

Boxes are center-form ``(x, y, w, h)`` throughout: ``(x, y)`` is the box
center in pixels, ``(w, h)`` its width and height. Corner-form never appears
in this package's interfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import is_integer, is_real, is_real_array


class InvalidBoxError(ValueError):
    """A box has non-finite coordinates or non-positive dimensions."""


class InvalidSpecError(ValueError):
    """An anchor-grid specification is unusable."""


@dataclass(frozen=True)
class Box:
    """Center-form bounding box in pixel units. Raises
    :class:`InvalidBoxError` for a value that is not a real (README,
    "Input rules") or a non-positive width or height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        x, y, w, h = vals = (self.x, self.y, self.w, self.h)
        if not (is_real(x) and is_real(y) and is_real(w) and is_real(h)):
            raise InvalidBoxError(f"non-finite box {vals}")
        if w <= 0 or h <= 0:
            raise InvalidBoxError(f"non-positive box dimensions {vals}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


def as_box_array(boxes) -> np.ndarray:
    """Coerce boxes to a validated (N, 4) float64 array.

    Accepts an (N, 4) array-like, a sequence of :class:`Box`, or a sequence
    of 4-tuples. Raises :class:`InvalidBoxError` on values that break
    README's "Input rules", and on non-positive widths/heights.
    """
    arr = _box_rows(boxes)
    _check_box_values(arr)
    return arr


def _as_box_arrays(images) -> list[np.ndarray]:
    """:func:`as_box_array` of each image's boxes, with one value check for
    them all. A bad image raises the error that checking the images one by
    one, in order, raises first."""
    arrays = []
    try:
        for boxes in images:
            arrays.append(_box_rows(boxes))
        if arrays:
            _check_box_values(np.concatenate(arrays))
    except ValueError:
        for arr in arrays:  # an earlier image's error comes first
            _check_box_values(arr)
        raise
    return arrays


def _box_rows(boxes) -> np.ndarray:
    """``boxes`` as an (N, 4) float64 array. Its dtype, or that of the
    array numpy makes of a sequence, is checked; its values are not."""
    if not isinstance(boxes, np.ndarray):
        try:
            rows = [(b.x, b.y, b.w, b.h) if isinstance(b, Box) else b for b in boxes]
            boxes = np.array(rows) if rows else np.empty((0, 4))
        except (TypeError, ValueError):  # not a sequence, or ragged rows
            raise InvalidBoxError("expected (N, 4) boxes, got rows of no common shape") from None
    if boxes.shape[1:] != (4,):
        raise InvalidBoxError(f"expected (N, 4) boxes, got shape {boxes.shape}")
    if not is_real_array(boxes):
        raise InvalidBoxError(f"box values must be real numbers, got dtype {boxes.dtype}")
    return boxes.astype(np.float64, copy=False)


def _check_box_values(boxes: np.ndarray) -> None:
    """Raise :class:`InvalidBoxError` unless every row of the (N, 4) array
    ``boxes`` is finite with positive width and height."""
    if not np.isfinite(boxes).all():
        raise InvalidBoxError("non-finite box coordinates")
    if (boxes[:, 2:] <= 0).any():
        raise InvalidBoxError("non-positive box dimensions")


def iou(a, b) -> float:
    """Intersection over union of two center-form boxes, in [0, 1]."""
    return float(iou_matrix([a], [b])[0, 0])


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise IOU between boxes ``a`` (N, 4) and ``b`` (M, 4).

    Raises :class:`InvalidBoxError` when a box corner, or the largest area
    of ``a`` plus the largest area of ``b``, overflows float64: the union
    would be ``inf - inf`` and the IOU NaN. The check reads only the
    corner and area vectors, so finite results are unchanged by it.
    """
    return np.ascontiguousarray(_iou_matrix(as_box_array(a), as_box_array(b)))


def _grid_factors(anchor_arr: np.ndarray) -> tuple[int, int, int]:
    """``(gh, gw, K)`` when the (A, 4) array ``anchor_arr`` is laid out as
    :func:`build_anchor_grid` lays out a grid: row ``(j * gw + i) * K + k``
    has the x of column i, the y of row j, and the (w, h) of template k,
    every float bit for bit. Any other anchor set gives ``(1, 1, A)``,
    one cell whose templates are the anchors. O(A).
    """
    a = len(anchor_arr)
    if a == 0:
        return (1, 1, 0)
    bits = np.ascontiguousarray(anchor_arr).view(np.int64)
    # a grid row is the leading rows at anchor 0's y, a cell the leading
    # rows of that at its x; argmax is 0 when no row differs
    c = int((bits[:, 1] != bits[0, 1]).argmax()) or a
    k = int((bits[:c, 0] != bits[0, 0]).argmax()) or c
    if c % k or a % c:
        return (1, 1, a)
    # w and h repeat every K rows and x every grid row; y is constant
    # along a grid row and x along a cell
    if ((bits[k:, 2] == bits[:-k, 2]).all() and (bits[k:, 3] == bits[:-k, 3]).all()
            and (bits[c:, 0] == bits[:-c, 0]).all()
            and (bits[:, 1].reshape(-1, c) == bits[::c, 1, None]).all()
            and (bits[:c, 0].reshape(-1, k) == bits[:c:k, 0, None]).all()):
        return (a // c, c // k, k)
    return (1, 1, a)


def _pair_terms(n: int, b: np.ndarray, factors):
    """The per-axis anchor terms of ``b`` under ``factors`` (see
    :func:`_grid_factors`; None is the one-cell form), and a maker of
    scratch arrays for ``n`` boxes.

    x is (gw, kc) and y (gh, kc), where kc is 1 on a grid, whose centres
    do not vary with the template, and K on one cell; wh is (2, K).
    Scratch arrays are indexed (box, ...). Their box axis is innermost in
    memory when there are more boxes than templates, so that the longer
    axis runs in numpy's inner loops; an (N, M) result is then
    F-contiguous, else C-contiguous.
    """
    gh, gw, k = factors or (1, 1, len(b))
    g = b.reshape(gh, gw, k, 4)
    kc = 1 if gh * gw > 1 else k
    box_inner = n > k

    def empty(*shape: int) -> np.ndarray:
        if box_inner:
            return np.empty(shape + (n,)).transpose(len(shape), *range(len(shape)))
        return np.empty((n,) + shape)
    return g[0, :, :kc, 0], g[:, 0, :kc, 1], g[0, 0, :, 2:].T, empty


def _iou_matrix(a: np.ndarray, b: np.ndarray, factors=None) -> np.ndarray:
    """:func:`iou_matrix` of two (N, 4) float64 arrays that already passed
    :func:`as_box_array`, C- or F-contiguous (see :func:`_pair_terms`);
    only the overflow check runs here.

    With ``factors`` from :func:`_grid_factors` of a grid ``b``, the
    overlap terms are computed per axis: x overlaps on (N, gw, K), y
    overlaps on (N, gh, K), the areas' sums on (N, K). Only their
    product, the union and the quotient cover all (N, M) pairs. Each
    float comes from the same IEEE operations on the same operands as
    pair by pair, shared only by anchors whose operands are equal bit
    for bit, so the result equals the one-cell form's bit for bit.
    """
    n = len(a)
    x, y, wh, empty = _pair_terms(n, b, factors)
    gh, gw, k = len(y), len(x), wh.shape[1]
    with np.errstate(over="ignore"):  # an overflow here raises below
        half_a, (half_w, half_h) = a[:, 2:] / 2, wh / 2
        lo_a, hi_a = a[:, :2] - half_a, a[:, :2] + half_a
        lo_x, hi_x = x - half_w, x + half_w
        lo_y, hi_y = y - half_h, y + half_h
        area_a, area_b = a[:, 2] * a[:, 3], wh[0] * wh[1]
        # a corner at +-inf makes its side's span inf
        if n and len(b) and not (math.isfinite(area_a.max() + area_b.max())
                                 and np.isfinite(hi_a - lo_a).all()
                                 and np.isfinite(hi_x - lo_x).all()
                                 and np.isfinite(hi_y - lo_y).all()):
            raise InvalidBoxError("box corners or areas overflow float64")

    iw = np.minimum(hi_a[:, 0, None, None], hi_x, out=empty(gw, k))
    tmp = np.maximum(lo_a[:, 0, None, None], lo_x, out=empty(gw, k))
    np.maximum(np.subtract(iw, tmp, out=iw), 0.0, out=iw)
    ih = np.minimum(hi_a[:, 1, None, None], hi_y, out=empty(gh, k))
    tmp = np.maximum(lo_a[:, 1, None, None], lo_y, out=tmp if gh == gw else empty(gh, k))
    np.maximum(np.subtract(ih, tmp, out=ih), 0.0, out=ih)
    # the product, the areas' sum and the union reuse iw, tmp and ih
    # where these have their shapes already, as on one cell
    inter = np.multiply(iw[:, None], ih[:, :, None], out=iw[:, None] if gh == 1 else empty(gh, gw, k))
    union = np.add(area_a[:, None], area_b, out=tmp[:, 0] if gh == 1 else empty(k))
    union = np.subtract(union[:, None, None], inter,
                        out=ih[:, :, None] if gw == 1 else empty(gh, gw, k))
    return np.divide(inter, union, out=inter).reshape(n, gh * gw * k)


def matching_distance(a, b) -> float:
    """One minus IOU: 0 for identical boxes, 1 for disjoint ones."""
    return 1.0 - iou(a, b)


def matching_distance_matrix(a, b) -> np.ndarray:
    return 1.0 - iou_matrix(a, b)


def euclidean_distance(a, b) -> float:
    """L2 distance between the two (x, y, w, h) 4-vectors."""
    return float(euclidean_distance_matrix([a], [b])[0, 0])


def euclidean_distance_matrix(a, b) -> np.ndarray:
    """Pairwise L2 distance between the 4-vectors of ``a`` (N, 4) and
    ``b`` (M, 4)."""
    return np.ascontiguousarray(_euclidean_distance_matrix(as_box_array(a), as_box_array(b)))


def _euclidean_distance_matrix(a: np.ndarray, b: np.ndarray, factors=None) -> np.ndarray:
    """:func:`euclidean_distance_matrix` of two (N, 4) float64 arrays that
    already passed :func:`as_box_array`, C- or F-contiguous like
    :func:`_iou_matrix`, whose ``factors`` it takes.

    On a grid the squared coordinate differences are computed per axis:
    x on (N, gw), y on (N, gh), w and h on (N, K), and x + y on
    (N, gh, gw). They are summed in coordinate order, ``((x + y) + w) +
    h``, the floats of summing an (N, M, 4) array over its last axis;
    only the last two sums and the square root cover all (N, M) pairs.
    """
    n = len(a)
    x, y, b_wh, empty = _pair_terms(n, b, factors)
    gh, gw, kc, k = len(y), len(x), x.shape[1], b_wh.shape[1]
    sq = np.subtract(a[:, 0, None, None], x, out=empty(gw, kc))
    d = np.subtract(a[:, 1, None, None], y, out=empty(gh, kc))
    sq *= sq
    d *= d
    sq = np.add(sq[:, None], d[:, :, None], out=sq[:, None] if gh == 1 else empty(gh, gw, kc))
    # the w and h terms reuse the y terms' buffer where it has their shape
    d = d[:, 0] if d.shape[1:] == (1, k) else empty(k)
    for col in (2, 3):
        np.subtract(a[:, col, None], b_wh[col - 2], out=d)
        d *= d
        sq = np.add(sq, d[:, None, None], out=sq if sq.shape[3] == k else empty(gh, gw, k))
    return np.sqrt(sq, out=sq).reshape(n, gh * gw * k)


@dataclass(frozen=True)
class GridSpec:
    """Dense anchor grid: ``grid_w × grid_h`` cells, K template shapes each.

    Anchor centers are evenly spaced with an (index+1)/(count+1) rule so all
    centers fall strictly inside the image. The flattened anchor index is
    ``((j * grid_w) + i) * K + k`` for column i, row j, template k. A value
    outside README's "Input rules" raises :class:`InvalidSpecError`.
    """

    image_w: float
    image_h: float
    grid_w: int
    grid_h: int
    templates: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (is_real(self.image_w) and is_real(self.image_h)
                and self.image_w > 0 and self.image_h > 0):
            raise InvalidSpecError("image dimensions must be positive and finite")
        for size in (self.grid_w, self.grid_h):
            if not is_integer(size):
                raise InvalidSpecError(f"grid dimensions must be integers, got {size!r}")
        if self.grid_w < 1 or self.grid_h < 1:
            raise InvalidSpecError("grid dimensions must be >= 1")
        try:
            templates = tuple((tw, th) for tw, th in self.templates)
        except (TypeError, ValueError):
            raise InvalidSpecError(f"templates must be (w, h) pairs, got {self.templates!r}") from None
        if not templates:
            raise InvalidSpecError("at least one template shape is required")
        for tw, th in templates:
            if not (is_real(tw) and is_real(th) and tw > 0 and th > 0):
                raise InvalidSpecError(f"template shape ({tw}, {th}) must be positive and finite")
        object.__setattr__(self, "templates", tuple((float(tw), float(th)) for tw, th in templates))

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
    """A detection candidate: box, confidence score in [0, 1], class id.

    Values follow README's "Input rules", else ValueError.
    """

    box: Box
    score: float
    class_id: int = 0

    def __post_init__(self):
        if not (is_real(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be finite and in [0, 1], got {self.score}")
        c = self.class_id
        if not (is_integer(c) or (is_real(c) and float(c).is_integer())):
            raise ValueError(f"class_id must be an integer, got {c!r}")
        if c < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")


# rows of the suppression matrix built at a time: bounds nms memory at
# O(block × candidates), and up to this many candidates make one block
_NMS_BLOCK = 256


def nms(candidates: Sequence[ScoredBox], thresh: float) -> list[int]:
    """Greedy per-class non-maximum suppression.

    Candidates are visited in descending score order (ties broken by
    ascending input index). A candidate is suppressed iff its IOU with an
    already-retained candidate of the same class exceeds ``thresh``.
    Returns retained input indices in retention order. The same-class
    ``iou > thresh`` rows are built a fixed block of visiting positions
    at a time, each against the candidates not yet visited, so memory
    stays O(candidates) for a fixed block.
    """
    if not (is_real(thresh) and 0.0 <= thresh <= 1.0):
        raise ValueError(f"thresh must be in [0, 1], got {thresh}")
    if not candidates:
        return []

    boxes = as_box_array([c.box for c in candidates])
    scores = np.array([c.score for c in candidates], dtype=np.float64)
    classes = np.array([c.class_id for c in candidates])
    order = np.argsort(-scores, kind="stable")
    boxes, classes = boxes[order], classes[order]
    n = len(order)
    suppressed = np.zeros(n, dtype=bool)
    kept: list[int] = []
    for lo in range(0, n, _NMS_BLOCK):
        rows = lo + np.flatnonzero(~suppressed[lo:lo + _NMS_BLOCK])
        over = (_iou_matrix(boxes[rows], boxes[lo:]) > thresh) \
            & (classes[rows, None] == classes[None, lo:])
        for p, row in zip(rows.tolist(), over):
            if not suppressed[p]:
                kept.append(int(order[p]))
                suppressed[lo:] |= row
    return kept
