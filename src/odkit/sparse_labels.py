"""Sparse batch labels and the ODR1 record file format.

A batch of per-image box labels is stored in COO-style sparse form: a list
of (batch_index, ordinal) pointers plus parallel value arrays. The sparse
form transfers only real boxes, never padding.

ODR1 file layout (all integers little-endian):

    magic  "ODR1"                                   4 bytes
    per record:
        payload length                              u32
        payload:
            image_id                                u64
            image_w, image_h, num_boxes             u16 each
            per box: x, y, w, h (f32), class (u16)  18 bytes

Box coordinates are stored as float32; a record round-trips exactly when
its coordinates are float32-representable. Reading is streamed: memory use
is bounded by a single record. Each record's boxes are parsed and packed
as one numpy array of the 18-byte box layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .geometry import InvalidBoxError, InvalidSpecError

MAGIC = b"ODR1"

_HEAD = struct.Struct("<QHHH")   # image_id, image_w, image_h, num_boxes
_BOX = struct.Struct("<ffffH")   # x, y, w, h, class
_BOX_DTYPE = np.dtype([("b", "<f4", (4,)), ("c", "<u2")])  # the same 18 bytes
_LEN = struct.Struct("<I")

_U16_MAX = 0xFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


class RecordFormatError(ValueError):
    """The file does not start with the ODR1 magic."""


class RecordCorruptionError(ValueError):
    """A record payload is truncated or internally inconsistent."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class CorruptBatchError(ValueError):
    """A sparse batch violates its ordering or bounds invariants."""


@dataclass
class LabelRecord:
    """Labels for one image: its id, pixel size, and per-box class ids."""

    image_id: int
    image_w: int
    image_h: int
    boxes: np.ndarray      # (B, 4) float64, center-form
    classes: np.ndarray    # (B,) int64
    # slack absorbs float32 storage and mirror-arithmetic rounding
    _BOUNDS_SLACK = 1e-3

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.classes = np.asarray(self.classes, dtype=np.int64).reshape(-1)
        if len(self.boxes) != len(self.classes):
            raise ValueError("boxes and classes must have equal length")
        if not 0 <= self.image_id <= _U64_MAX:
            raise ValueError(f"image_id {self.image_id} outside u64 range")
        for name, v in (("image_w", self.image_w), ("image_h", self.image_h)):
            if not 1 <= v <= _U16_MAX:
                raise ValueError(f"{name} {v} outside [1, {_U16_MAX}]")
        if len(self.boxes) > _U16_MAX:
            raise ValueError("box count exceeds u16")
        if self.classes.size and (self.classes.min() < 0 or self.classes.max() > _U16_MAX):
            raise ValueError("class ids outside u16 range")
        if not np.isfinite(self.boxes).all():
            raise ValueError("non-finite box coordinates")
        if self.boxes.size:
            centers, sizes = self.boxes[:, :2], self.boxes[:, 2:]
            if (sizes <= 0).any():
                raise ValueError("non-positive box dimensions")
            s = self._BOUNDS_SLACK
            half = sizes / 2
            if ((centers - half < -s).any()
                    or (centers + half > (self.image_w + s, self.image_h + s)).any()):
                raise ValueError("box extends outside image bounds")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelRecord):
            return NotImplemented
        return (self.image_id == other.image_id
                and self.image_w == other.image_w
                and self.image_h == other.image_h
                and np.array_equal(self.boxes, other.boxes)
                and np.array_equal(self.classes, other.classes))


@dataclass
class SparseLabelBatch:
    """COO-form labels for a batch of images.

    ``rois_idx[n] = (batch_index, ordinal)`` locates ``rois_values[n]``
    (a center-form box) and ``classes[n]`` within the batch.
    """

    rois_idx: np.ndarray     # (N, 2) int64, lexicographically sorted
    rois_values: np.ndarray  # (N, 4) float64
    classes: np.ndarray      # (N,) int64
    batch_size: int

    def __post_init__(self):
        self.rois_idx = np.asarray(self.rois_idx, dtype=np.int64).reshape(-1, 2)
        self.rois_values = np.asarray(self.rois_values, dtype=np.float64).reshape(-1, 4)
        self.classes = np.asarray(self.classes, dtype=np.int64).reshape(-1)

    @property
    def n_boxes(self) -> int:
        return len(self.rois_values)

    def validate(self):
        """Check lengths, bounds, key order and box values.

        Keys must be lexicographically non-decreasing (equal keys are
        allowed). Box values must be finite with positive width and
        height, else :class:`~odkit.geometry.InvalidBoxError`.
        """
        if not (len(self.rois_idx) == len(self.rois_values) == len(self.classes)):
            raise CorruptBatchError("pointer and value lists differ in length")
        if self.batch_size < 1:
            raise CorruptBatchError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.rois_idx.size:
            images = self.rois_idx[:, 0]
            if images.min() < 0 or images.max() >= self.batch_size:
                raise CorruptBatchError("batch index outside [0, batch_size)")
            # adjacent keys compared directly: a difference could overflow
            a, b = self.rois_idx[:-1], self.rois_idx[1:]
            if ((a[:, 0] > b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] > b[:, 1]))).any():
                raise CorruptBatchError("rois_idx is not lexicographically sorted")
        if not np.isfinite(self.rois_values).all():
            raise InvalidBoxError("non-finite box coordinates")
        if (self.rois_values[:, 2:] <= 0).any():
            raise InvalidBoxError("non-positive box dimensions")

    def offsets(self) -> np.ndarray:
        """CSR row offsets of a validated batch: image ``i``'s boxes are
        rows ``offsets[i]:offsets[i + 1]``. Shape ``(batch_size + 1,)``."""
        return np.searchsorted(self.rois_idx[:, 0], np.arange(self.batch_size + 1))


def encode_batch(records: list[LabelRecord]) -> SparseLabelBatch:
    """Concatenate per-image boxes into sparse COO form. Lossless."""
    if not records:
        raise ValueError("batch must contain at least one record")
    counts = np.array([len(rec.boxes) for rec in records], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    images = np.repeat(np.arange(len(records)), counts)
    ordinals = np.arange(len(images)) - np.repeat(starts, counts)
    return SparseLabelBatch(
        rois_idx=np.stack([images, ordinals], axis=1),
        rois_values=np.concatenate([rec.boxes for rec in records]),
        classes=np.concatenate([rec.classes for rec in records]),
        batch_size=len(records),
    )


def decode_batch(batch: SparseLabelBatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inverse of :func:`encode_batch`: per-image (boxes, classes) pairs."""
    batch.validate()
    off = batch.offsets().tolist()
    return [(batch.rois_values[lo:hi].copy(), batch.classes[lo:hi].copy())
            for lo, hi in zip(off[:-1], off[1:])]


def _pack_boxes(boxes, classes) -> bytes:
    """A record's boxes as ODR1 bytes, 18 per box."""
    if len(classes) != len(boxes):  # numpy would broadcast a single class
        raise ValueError("boxes and classes must have equal length")
    arr = np.empty(len(boxes), dtype=_BOX_DTYPE)
    try:
        with np.errstate(over="raise"):  # a finite value beyond f32 range
            arr["b"] = boxes
        arr["c"] = np.asarray(classes).tolist()  # Python ints outside u16 raise; int64s would wrap
    except (FloatingPointError, OverflowError):
        # a value ODR1 cannot hold, possible only in a field reassigned
        # after construction: struct raises on it, as it always has
        return b"".join(_BOX.pack(float(b[0]), float(b[1]), float(b[2]), float(b[3]), int(c))
                        for b, c in zip(boxes, classes))
    return arr.tobytes()


def write_records(path, records) -> int:
    """Write records to ``path`` in ODR1 format; returns the record count."""
    n = 0
    with open(path, "wb") as f:
        f.write(MAGIC)
        for rec in records:
            payload = _HEAD.pack(rec.image_id, rec.image_w, rec.image_h, len(rec.boxes)) \
                + _pack_boxes(rec.boxes, rec.classes)
            f.write(_LEN.pack(len(payload)) + payload)
            n += 1
    return n


def read_records(path):
    """Yield records from an ODR1 file, one at a time.

    Raises :class:`RecordFormatError` on a bad magic and
    :class:`RecordCorruptionError` (carrying the byte offset) on truncation
    or an inconsistent payload length.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise RecordFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        offset = 4
        while True:
            head = f.read(_LEN.size)
            if not head:
                return
            if len(head) < _LEN.size:
                raise RecordCorruptionError("truncated record length", offset)
            (plen,) = _LEN.unpack(head)
            offset += _LEN.size
            payload = f.read(plen)
            if len(payload) < plen:
                raise RecordCorruptionError("truncated record payload", offset)
            if plen < _HEAD.size:
                raise RecordCorruptionError("payload shorter than record header", offset)
            image_id, image_w, image_h, nb = _HEAD.unpack_from(payload, 0)
            if plen != _HEAD.size + nb * _BOX.size:
                raise RecordCorruptionError(
                    f"payload length {plen} does not match {nb} boxes", offset)
            arr = np.frombuffer(payload, dtype=_BOX_DTYPE, count=nb, offset=_HEAD.size)
            offset += plen
            yield LabelRecord(image_id, image_w, image_h,
                              arr["b"].astype(np.float64), arr["c"].astype(np.int64))


def gen_synthetic(seed: int, n_images: int, max_boxes: int, image_w: int, image_h: int,
                  class_count: int = 3) -> list[LabelRecord]:
    """Generate a deterministic synthetic record stream.

    Each image gets a uniform number of boxes in [0, max_boxes]; every box
    lies fully inside the image with integer-pixel corners and w, h >= 2,
    so coordinates survive float32 storage exactly.
    """
    if image_w < 2 or image_h < 2:
        raise InvalidSpecError(f"image dimensions ({image_w}, {image_h}) too small")
    if n_images < 1 or max_boxes < 1:
        raise InvalidSpecError("n_images and max_boxes must be >= 1")
    if class_count < 1:
        raise InvalidSpecError("class_count must be >= 1")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_images):
        nb = int(rng.integers(0, max_boxes + 1))
        boxes = np.empty((nb, 4), dtype=np.float64)
        for b in range(nb):
            w = int(rng.integers(2, image_w + 1))
            h = int(rng.integers(2, image_h + 1))
            x1 = int(rng.integers(0, image_w - w + 1))
            y1 = int(rng.integers(0, image_h - h + 1))
            boxes[b] = (x1 + w / 2, y1 + h / 2, w, h)
        classes = rng.integers(0, class_count, size=nb).astype(np.int64)
        records.append(LabelRecord(i, image_w, image_h, boxes, classes))
    return records


def augment_jitter(rec: LabelRecord, seed: int, max_drift: int, allow_flip: bool) -> LabelRecord:
    """Translate all boxes by a seeded integer drift, optionally mirroring x.

    The flip (a seeded coin when ``allow_flip``) is applied first, then the
    drift, clamped so every box stays inside the image. Box count and
    classes are unchanged. With ``max_drift = 0`` the same seed applied
    twice restores the original record.
    """
    if max_drift < 0:
        raise ValueError(f"max_drift must be >= 0, got {max_drift}")
    rng = np.random.default_rng(seed)
    dx = int(rng.integers(-max_drift, max_drift + 1))
    dy = int(rng.integers(-max_drift, max_drift + 1))
    flip = bool(rng.integers(0, 2)) if allow_flip else False

    boxes = rec.boxes.copy()
    if boxes.size:
        if flip:
            boxes[:, 0] = rec.image_w - boxes[:, 0]
        w2, h2 = boxes[:, 2] / 2, boxes[:, 3] / 2
        dx = int(np.clip(dx, -np.floor((boxes[:, 0] - w2).min()),
                         np.floor((rec.image_w - boxes[:, 0] - w2).min())))
        dy = int(np.clip(dy, -np.floor((boxes[:, 1] - h2).min()),
                         np.floor((rec.image_h - boxes[:, 1] - h2).min())))
        boxes[:, 0] += dx
        boxes[:, 1] += dy
    return LabelRecord(rec.image_id, rec.image_w, rec.image_h, boxes, rec.classes.copy())
