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
its coordinates are float32-representable. A record's length field and
header also take 18 bytes, so a run of records is one numpy array of the
18-byte box layout: its header row, then its box rows, record after
record. Writing packs blocks of about 64 KiB of records as one such array.
Reading takes the file in reads of 64 KiB: one walk over the record heads
in a read finds every record that is whole in it, and those records'
rows are parsed and checked as one array, a block. A record cut by the
end of a read is carried into the next one. Only a record the walk cannot
take, one longer than a read or malformed, is framed on its own, with one
more bounded read; then the walk goes on. Memory use is bounded by one
block or read (64 KiB) plus the record that fills it. The records read in
one block share that block's box and class arrays: each record's
``boxes`` and ``classes`` are slices of them, so a record kept alive keeps
its whole block's arrays.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .geometry import InvalidSpecError, _check_box_values

MAGIC = b"ODR1"

_HEAD = struct.Struct("<QHHH")   # image_id, image_w, image_h, num_boxes
_BOX = struct.Struct("<ffffH")   # x, y, w, h, class
_BOX_DTYPE = np.dtype([("b", "<f4", (4,)), ("c", "<u2")])  # the same 18 bytes
_LEN = struct.Struct("<I")
_ROW = struct.Struct("<I12xH")   # a record's length field and box count
# a record's length field and header, the same 18 bytes as a box row
_HEAD_ROW = np.dtype([("len", "<u4"), ("id", "<u8"), ("w", "<u2"), ("h", "<u2"), ("n", "<u2")])

_U16_MAX = 0xFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF
# slack absorbs float32 storage and mirror-arithmetic rounding
_BOUNDS_SLACK = 1e-3
# the file is read this many bytes at a time, and written in blocks of at least as many
_BLOCK_BYTES = 1 << 16
# the longest payload a record can have: its header and 65,535 boxes
_MAX_PAYLOAD = _HEAD.size + _U16_MAX * _BOX.size


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

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.classes = np.asarray(self.classes, dtype=np.int64).reshape(-1)
        if len(self.boxes) != len(self.classes):
            raise ValueError("boxes and classes must have equal length")
        if not 0 <= self.image_id <= _U64_MAX:
            raise ValueError(f"image_id {self.image_id} outside u64 range")
        _check_values(self.image_w, self.image_h, self.boxes, self.classes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelRecord):
            return NotImplemented
        return (self.image_id == other.image_id
                and self.image_w == other.image_w
                and self.image_h == other.image_h
                and np.array_equal(self.boxes, other.boxes)
                and np.array_equal(self.classes, other.classes))


def _check_values(image_w, image_h, boxes, classes, counts=None):
    """The checks of :class:`LabelRecord` after ``image_id``, in its order:
    raise ValueError for the first that fails (for a box value, its
    subclass :class:`~odkit.geometry.InvalidBoxError`).

    Checks one record, or, given per-record box ``counts``, a block of
    records: then ``image_w`` and ``image_h`` are per-record arrays, and
    ``boxes`` and ``classes`` hold the records' rows one after another. A
    block fails exactly when one of its records would.
    """
    block = counts is not None
    for name, v in (("image_w", image_w), ("image_h", image_h)):
        lo, hi = (v.min(), v.max()) if block else (v, v)
        if not (1 <= lo and hi <= _U16_MAX):
            raise ValueError(f"{name} {v} outside [1, {_U16_MAX}]")
    if (counts.max() if block else len(boxes)) > _U16_MAX:
        raise ValueError("box count exceeds u16")
    if classes.size and (classes.min() < 0 or classes.max() > _U16_MAX):
        raise ValueError("class ids outside u16 range")
    if boxes.size:
        _check_box_values(boxes)
        centers, sizes = boxes[:, :2], boxes[:, 2:]
        s = _BOUNDS_SLACK
        if block:  # each box against its own record's image
            limits = np.repeat(np.stack([image_w, image_h], axis=1), counts, axis=0) + s
        else:
            limits = (image_w + s, image_h + s)
        half = sizes / 2
        if (centers - half < -s).any() or (centers + half > limits).any():
            raise ValueError("box extends outside image bounds")


def _unchecked_record(image_id, image_w, image_h, boxes, classes) -> LabelRecord:
    """A LabelRecord of values that have passed its checks, built without
    running them again."""
    rec = object.__new__(LabelRecord)
    rec.image_id, rec.image_w, rec.image_h = image_id, image_w, image_h
    rec.boxes, rec.classes = boxes, classes
    return rec


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
        _check_box_values(self.rois_values)

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
    """Inverse of :func:`encode_batch`: per-image (boxes, classes) pairs.

    The pairs are slices of one copy of the batch's arrays: no two images,
    and no image and the batch, share any element.
    """
    batch.validate()
    off = batch.offsets().tolist()
    values, classes = batch.rois_values.copy(), batch.classes.copy()
    return [(values[lo:hi], classes[lo:hi]) for lo, hi in zip(off[:-1], off[1:])]


def _box_rows(counts: np.ndarray) -> np.ndarray:
    """Which rows of a block are box rows: each record takes its header
    row, then ``counts[i]`` box rows."""
    mask = np.ones(len(counts) + int(counts.sum()), dtype=bool)
    mask[np.cumsum(counts + 1) - (counts + 1)] = False
    return mask


def _pack_boxes(boxes, classes) -> bytes:
    """A record's boxes as ODR1 bytes, 18 per box, packed one at a time:
    struct raises on a value ODR1 cannot hold."""
    if len(classes) != len(boxes):  # zip would drop the extra ones
        raise ValueError("boxes and classes must have equal length")
    return b"".join(_BOX.pack(float(b[0]), float(b[1]), float(b[2]), float(b[3]), int(c))
                    for b, c in zip(boxes, classes))


def _in_range(a: np.ndarray, hi: int) -> bool:
    """An integer array with every value in [0, hi]."""
    return a.dtype.kind in "iu" and (not a.size or (a.min() >= 0 and a.max() <= hi))


def _pack_block(recs) -> bytes | None:
    """Records as ODR1 bytes, packed as one array of 18-byte rows, or None
    if a value is one ODR1 cannot hold (or one this packing does not take)."""
    try:
        counts = np.array([len(rec.boxes) for rec in recs])
        if [len(rec.classes) for rec in recs] != counts.tolist():
            return None
        ids = np.array([rec.image_id for rec in recs])
        sizes = np.array([(rec.image_w, rec.image_h) for rec in recs])
        classes = np.concatenate([rec.classes for rec in recs])
        with np.errstate(over="raise"):  # a finite value beyond f32 range
            boxes = np.concatenate([rec.boxes for rec in recs],
                                   dtype=np.float32, casting="unsafe")
    except (AttributeError, TypeError, ValueError, OverflowError, FloatingPointError):
        return None
    n, total = len(recs), int(counts.sum())
    if not (ids.shape == (n,) and sizes.shape == (n, 2) and classes.shape == (total,)
            and boxes.shape == (total, 4) and _in_range(ids, _U64_MAX)
            and _in_range(sizes, _U16_MAX) and _in_range(counts, _U16_MAX)
            and _in_range(classes, _U16_MAX)):
        return None
    head = np.empty(n, dtype=_HEAD_ROW)
    head["len"] = _HEAD.size + _BOX.size * counts
    head["id"], head["w"], head["h"], head["n"] = ids, sizes[:, 0], sizes[:, 1], counts
    rows = np.empty(n + total, dtype=_BOX_DTYPE)
    is_box = _box_rows(counts)
    rows.view(_HEAD_ROW)[~is_box] = head
    rows["b"][is_box] = boxes
    rows["c"][is_box] = classes
    return rows.tobytes()


def _write_block(f, recs):
    """Write records in one call, or one at a time when the block cannot
    be packed whole, so that an error is raised at its own record with the
    records before it written."""
    if not recs:
        return
    data = _pack_block(recs)
    if data is not None:
        f.write(data)
        return
    for rec in recs:
        payload = _HEAD.pack(rec.image_id, rec.image_w, rec.image_h, len(rec.boxes)) \
            + _pack_boxes(rec.boxes, rec.classes)
        f.write(_LEN.pack(len(payload)) + payload)


def write_records(path, records) -> int:
    """Write records to ``path`` in ODR1 format; returns the record count.

    Records are packed by blocks of about 64 KiB. When a record holds a
    value ODR1 cannot (after a field was reassigned past the constructor's
    checks), or ``records`` raises, the records before it are written
    before the error propagates.
    """
    n = 0
    with open(path, "wb") as f:
        f.write(MAGIC)
        block, rows = [], 0
        try:
            for rec in records:
                rows += 1 + len(rec.boxes)
                block.append(rec)
                if rows * _BOX.size >= _BLOCK_BYTES:
                    full, block, rows = block, [], 0
                    _write_block(f, full)
                    n += len(full)
        finally:
            _write_block(f, block)
    return n + len(block)


def _walk(data) -> tuple[list[int], int]:
    """The records at the start of ``data`` that the walk takes: each whole
    in ``data``, with a length field of ``14 + 18 * num_boxes``. Returns
    their box counts and the byte offset where the walk stopped, at the
    first record it cannot take or at the end of ``data``.
    """
    unpack, size, head, box = _ROW.unpack_from, len(data), _HEAD.size, _BOX.size
    counts, pos, last = [], 0, size - _ROW.size
    while pos <= last:
        plen, nb = unpack(data, pos)
        end = pos + _LEN.size + plen
        if plen != head + box * nb or end > size:
            break
        counts.append(nb)
        pos = end
    return counts, pos


def _finish_record(f, rest, offset):
    """The one record at byte ``offset`` that the walk cannot take: it
    crosses the end of the bytes read so far, or is malformed.

    ``rest`` holds the bytes read from ``offset`` on. The record is framed
    as one read on its own would frame it: a malformed one raises
    :class:`RecordCorruptionError` at that offset, and a whole one is
    finished with one bounded read and returned as its length field and
    payload. Returns None at the end of the file.
    """
    if len(rest) < _LEN.size:
        rest += f.read(_LEN.size - len(rest))
        if not rest:
            return None
        if len(rest) < _LEN.size:
            raise RecordCorruptionError("truncated record length", offset)
    (plen,) = _LEN.unpack_from(rest)
    offset += _LEN.size
    if plen > _MAX_PAYLOAD:
        _reject_long_payload(f, rest[_LEN.size:], plen, offset)
    size = _LEN.size + plen
    record = rest[:size]
    if len(record) < size:
        record += f.read(size - len(record))
        if len(record) < size:
            raise RecordCorruptionError("truncated record payload", offset)
    if plen < _HEAD.size:
        raise RecordCorruptionError("payload shorter than record header", offset)
    nb = _HEAD.unpack_from(record, _LEN.size)[3]
    if plen != _HEAD.size + nb * _BOX.size:
        raise RecordCorruptionError(f"payload length {plen} does not match {nb} boxes", offset)
    return record


def _reject_long_payload(f, payload, plen, offset):
    """Raise the error a read of ``plen`` bytes, more than any record holds,
    leads to. ``payload`` holds the bytes of it already read; the rest are
    read on in pieces of bounded size to tell a truncated payload from one
    whose length does not match its box count."""
    head, left = payload[:_HEAD.size], plen - len(payload)
    while left and (piece := f.read(min(left, _BLOCK_BYTES))):
        left -= len(piece)
        head += piece[:_HEAD.size - len(head)]
    if left:
        raise RecordCorruptionError("truncated record payload", offset)
    nb = _HEAD.unpack(head)[3]
    raise RecordCorruptionError(f"payload length {plen} does not match {nb} boxes", offset)


def _block_records(data, end, counts):
    """Records from the whole records in ``data[:end]``, whose box counts
    are ``counts``, their values checked at once.

    The records' rows become one array; a block that fails the checks is
    built again through the public constructor, one record at a time,
    which raises at its first bad record.
    """
    n_boxes = np.array(counts, dtype=np.int64)
    rows = np.frombuffer(data, dtype=_BOX_DTYPE, count=end // _BOX.size)
    is_box = _box_rows(n_boxes)
    heads, box_rows = rows.view(_HEAD_ROW)[~is_box], rows[is_box]
    boxes, classes = box_rows["b"].astype(np.float64), box_rows["c"].astype(np.int64)
    try:
        _check_values(heads["w"], heads["h"], boxes, classes, n_boxes)
        make = _unchecked_record
    except ValueError:
        make = LabelRecord
    ends = np.cumsum(n_boxes)
    for image_id, image_w, image_h, lo, hi in zip(
            heads["id"].tolist(), heads["w"].tolist(), heads["h"].tolist(),
            (ends - n_boxes).tolist(), ends.tolist()):
        yield make(image_id, image_w, image_h, boxes[lo:hi], classes[lo:hi])


def read_records(path):
    """Yield records from an ODR1 file, in file order.

    The file is read 64 KiB at a time. A walk over the record heads in
    each read takes every record that is whole in it, and their rows are
    parsed and checked as one block; the records of one block share its
    box and class arrays. The unfinished record at a read's end is carried
    into the next read. A record the walk cannot take, because it is
    longer than a read or malformed, is framed on its own, then the walk
    goes on. Memory is bounded by one read plus the record that fills it.

    Raises :class:`RecordFormatError` on a bad magic,
    :class:`RecordCorruptionError` (carrying the byte offset) on truncation
    or an inconsistent payload length, and the constructor's ValueError on
    a bad value; every record before the bad one, or before a failed read,
    is yielded first.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise RecordFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        tail, offset = b"", len(MAGIC)
        while True:
            try:
                data = tail + f.read(_BLOCK_BYTES)
            except OSError:
                # the records before the tail are yielded; the next one is
                # read on its own, so its reads raise the error at its place
                data = tail
            else:
                if not data:
                    return
            counts, end = _walk(data)
            if not end:  # the first record crosses the end of data, or is malformed
                data = _finish_record(f, data, offset)
                if data is None:
                    return
                counts, end = _walk(data)
            yield from _block_records(data, end, counts)
            tail, offset = data[end:], offset + end


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
