import copy
import functools
import gc
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odkit import (
    CorruptBatchError,
    LabelRecord,
    RecordCorruptionError,
    RecordFormatError,
    SparseLabelBatch,
    augment_jitter,
    decode_batch,
    encode_batch,
    gen_synthetic,
    read_records,
    write_records,
)
import odkit.sparse_labels
import oracles
from odkit.geometry import InvalidBoxError, InvalidSpecError, as_box_array
from odkit.sparse_labels import _BLOCK_BYTES
from oracles import per_record_read_records, struct_write_records


def _rec(image_id, boxes, classes, w=256, h=256):
    return LabelRecord(image_id, w, h, np.array(boxes, float).reshape(-1, 4),
                       np.array(classes, np.int64))


@st.composite
def records(draw):
    # integer corners and sizes keep every coordinate f32-exact
    nb = draw(st.integers(0, 6))
    boxes, classes = [], []
    for _ in range(nb):
        w = draw(st.integers(2, 50))
        h = draw(st.integers(2, 50))
        x1 = draw(st.integers(0, 256 - w))
        y1 = draw(st.integers(0, 256 - h))
        boxes.append((x1 + w / 2, y1 + h / 2, w, h))
        classes.append(draw(st.integers(0, 9)))
    return _rec(draw(st.integers(0, 2**40)), boxes, classes)


def _tuple_sort_validate(batch):
    """validate's length, bounds and key-order checks, with the keys as a
    sorted list of Python-int tuples."""
    if not (len(batch.rois_idx) == len(batch.rois_values) == len(batch.classes)):
        raise CorruptBatchError("pointer and value lists differ in length")
    if batch.batch_size < 1:
        raise CorruptBatchError(f"batch_size must be >= 1, got {batch.batch_size}")
    keys = [(int(i), int(o)) for i, o in batch.rois_idx]
    if keys and not all(0 <= i < batch.batch_size for i, _ in keys):
        raise CorruptBatchError("batch index outside [0, batch_size)")
    if keys != sorted(keys):
        raise CorruptBatchError("rois_idx is not lexicographically sorted")


def _per_box_encode(recs):
    """encode_batch spelled out one box at a time."""
    idx, values, classes = [], [], []
    for pos, rec in enumerate(recs):
        for ordinal, (box, cls) in enumerate(zip(rec.boxes, rec.classes)):
            idx.append((pos, ordinal))
            values.append(box)
            classes.append(cls)
    return (np.array(idx, np.int64).reshape(-1, 2), np.array(values, float).reshape(-1, 4),
            np.array(classes, np.int64))


def _error(fn):
    try:
        fn()
    except Exception as e:
        return type(e), str(e)
    return None


BAD_BOXES = [(10, 10, -4, 4), (10, 10, 4, 0), (np.nan, 10, 4, 4), (10, np.inf, 4, 4),
             (10, 10, -np.inf, 4)]


class TestLabelRecord:
    def test_rejects_out_of_bounds_box(self):
        with pytest.raises(ValueError):
            _rec(0, [(250, 10, 20, 4)], [0])  # right edge at 260 > 256

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            _rec(0, [(10, 10, 4, 4)], [0, 1])

    def test_rejects_oversized_fields(self):
        with pytest.raises(ValueError):
            LabelRecord(2**64, 10, 10, np.empty((0, 4)), np.empty(0, np.int64))
        with pytest.raises(ValueError):
            LabelRecord(0, 2**16, 10, np.empty((0, 4)), np.empty(0, np.int64))

    @pytest.mark.parametrize("bad", BAD_BOXES)
    def test_bad_box_values_raise_as_in_geometry(self, bad):
        batch = SparseLabelBatch(rois_idx=np.zeros((1, 2), np.int64), rois_values=[bad],
                                 classes=np.zeros(1, np.int64), batch_size=1)
        errors = [_error(lambda: _rec(0, [bad], [0])), _error(batch.validate),
                  _error(lambda: as_box_array([bad]))]
        assert errors[0][0] is InvalidBoxError
        assert errors == [errors[0]] * 3

    def test_equality(self):
        a = _rec(1, [(10, 10, 4, 4)], [2])
        b = _rec(1, [(10, 10, 4, 4)], [2])
        c = _rec(1, [(10, 10, 4, 4)], [3])
        assert a == b and a != c


class TestBatchCoding:
    def test_two_images(self):
        recs = [_rec(0, [(10, 10, 4, 4), (30, 30, 8, 8)], [0, 1]),
                _rec(1, [(50, 50, 6, 6)], [2])]
        batch = encode_batch(recs)
        assert batch.batch_size == 2
        assert [tuple(p) for p in batch.rois_idx] == [(0, 0), (0, 1), (1, 0)]
        assert batch.n_boxes == 3

    def test_empty_images_preserved(self):
        recs = [_rec(0, [], []), _rec(1, [], []), _rec(2, [], [])]
        batch = encode_batch(recs)
        assert batch.batch_size == 3
        assert batch.n_boxes == 0
        decoded = decode_batch(batch)
        assert len(decoded) == 3
        assert all(len(b) == 0 for b, _ in decoded)

    def test_unsorted_idx_rejected(self):
        batch = SparseLabelBatch(
            rois_idx=np.array([[1, 0], [0, 0]]),
            rois_values=np.array([[10, 10, 4, 4], [20, 20, 4, 4]], float),
            classes=np.array([0, 0]), batch_size=2)
        with pytest.raises(CorruptBatchError):
            decode_batch(batch)

    def test_index_bounds_rejected(self):
        batch = SparseLabelBatch(
            rois_idx=np.array([[5, 0]]),
            rois_values=np.array([[10, 10, 4, 4]], float),
            classes=np.array([0]), batch_size=2)
        with pytest.raises(CorruptBatchError):
            batch.validate()

    @given(st.lists(records(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_encode_matches_per_box_reference(self, recs):
        batch = encode_batch(recs)
        idx, values, classes = _per_box_encode(recs)
        assert batch.rois_idx.dtype == np.int64 and batch.classes.dtype == np.int64
        assert np.array_equal(batch.rois_idx, idx)
        assert np.array_equal(batch.rois_values, values)
        assert np.array_equal(batch.classes, classes)
        assert batch.batch_size == len(recs)

    def test_offsets_are_csr_rows(self):
        recs = [_rec(0, [], []), _rec(1, [(10, 10, 4, 4)] * 3, [0, 1, 2]),
                _rec(2, [], []), _rec(3, [(20, 20, 4, 4)], [1])]
        assert encode_batch(recs).offsets().tolist() == [0, 0, 3, 3, 4]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_validate_matches_tuple_sort(self, data):
        ordinal = st.one_of(st.integers(-3, 3), st.integers(-2**63, 2**63 - 1))
        keys = data.draw(st.lists(st.tuples(st.integers(-1, 4), ordinal), max_size=8))
        if data.draw(st.booleans()):
            keys = sorted(keys)
        if keys and data.draw(st.booleans()):  # adjacent duplicate keys
            k = data.draw(st.integers(0, len(keys) - 1))
            keys.insert(k, keys[k])
        n = len(keys)
        batch = SparseLabelBatch(
            rois_idx=np.array(keys, np.int64).reshape(-1, 2),
            rois_values=np.tile([10.0, 10, 4, 4], (n, 1)),
            classes=np.zeros(n - data.draw(st.sampled_from([0, 0, 0, 1])) if n else 0, np.int64),
            batch_size=data.draw(st.integers(0, 5)))
        assert _error(batch.validate) == _error(lambda: _tuple_sort_validate(batch))

    def test_equal_keys_allowed(self):
        batch = SparseLabelBatch(rois_idx=np.array([[0, 1], [0, 1], [1, 0]]),
                                 rois_values=np.tile([10.0, 10, 4, 4], (3, 1)),
                                 classes=np.zeros(3, np.int64), batch_size=2)
        batch.validate()

    @pytest.mark.parametrize("bad", BAD_BOXES)
    def test_bad_box_values_rejected(self, bad):
        batch = SparseLabelBatch(rois_idx=np.array([[0, 0], [1, 0]]),
                                 rois_values=np.array([(10, 10, 4, 4), bad], float),
                                 classes=np.zeros(2, np.int64), batch_size=2)
        with pytest.raises(InvalidBoxError):
            batch.validate()
        with pytest.raises(InvalidBoxError):
            decode_batch(batch)

    def test_decoded_images_own_their_rows(self):
        recs = [_rec(0, [(10, 10, 4, 4), (30, 30, 8, 8)], [0, 1]),
                _rec(1, [(50, 50, 6, 6)], [2]), _rec(2, [(20, 20, 2, 2)], [1])]
        batch = encode_batch(recs)
        values, classes = batch.rois_values.copy(), batch.classes.copy()
        decoded = decode_batch(batch)
        decoded[1][0][:] = -1.0
        decoded[1][1][:] = 7
        assert np.array_equal(batch.rois_values, values)
        assert np.array_equal(batch.classes, classes)
        for rec, (boxes, cls) in zip([recs[0], recs[2]], [decoded[0], decoded[2]]):
            assert np.array_equal(boxes, rec.boxes) and np.array_equal(cls, rec.classes)

    @given(st.lists(records(), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, recs):
        decoded = decode_batch(encode_batch(recs))
        assert len(decoded) == len(recs)
        for rec, (boxes, classes) in zip(recs, decoded):
            assert np.array_equal(rec.boxes, boxes)
            assert np.array_equal(rec.classes, classes)


class TestRecordFile:
    def test_round_trip_100(self, tmp_path):
        recs = gen_synthetic(seed=11, n_images=100, max_boxes=5,
                             image_w=320, image_h=240)
        path = tmp_path / "r.odr"
        assert write_records(path, recs) == 100
        assert list(read_records(path)) == recs

    def test_empty_file_is_magic_only(self, tmp_path):
        path = tmp_path / "e.odr"
        write_records(path, [])
        assert path.read_bytes() == b"ODR1"
        assert list(read_records(path)) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.odr"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(RecordFormatError):
            list(read_records(path))

    def test_truncated_length_field(self, tmp_path):
        path = tmp_path / "t.odr"
        path.write_bytes(b"ODR1" + b"\x20\x00")  # 2 of 4 length bytes
        with pytest.raises(RecordCorruptionError) as e:
            list(read_records(path))
        assert e.value.offset == 4

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.odr"
        path.write_bytes(b"ODR1" + struct.pack("<I", 32) + b"\x00" * 10)
        with pytest.raises(RecordCorruptionError) as e:
            list(read_records(path))
        assert e.value.offset == 8

    def test_inconsistent_box_count(self, tmp_path):
        # header claims 5 boxes but payload length only covers the header
        payload = struct.pack("<QHHH", 1, 64, 64, 5)
        path = tmp_path / "t.odr"
        path.write_bytes(b"ODR1" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(RecordCorruptionError) as e:
            list(read_records(path))
        assert e.value.offset == 8

    @pytest.mark.parametrize("after, message", [
        (24, "truncated record payload"),
        (3_000_000, "payload length 3000000 does not match 2 boxes")],
        ids=["truncated", "mismatched"])
    def test_long_length_field_is_read_in_bounded_pieces(self, tmp_path, after, message):
        # no record is longer than 14 + 18 * 65,535 bytes; a longer length
        # field must not make the reader allocate what it states
        plen = 0xFFFFFFF0 if after == 24 else after
        path = tmp_path / "t.odr"
        path.write_bytes(b"ODR1" + struct.pack("<I", plen)
                         + struct.pack("<QHHH", 1, 64, 64, 2) + bytes(after - 14))
        tracemalloc.start()
        try:
            with pytest.raises(RecordCorruptionError) as e:
                list(read_records(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == f"{message} (at byte offset 8)"
        assert peak < 8 * 2**20

    def test_known_byte_layout(self, tmp_path):
        rec = LabelRecord(7, 64, 48, np.array([[16.5, 12.25, 8, 6]]),
                          np.array([3], np.int64))
        path = tmp_path / "g.odr"
        write_records(path, [rec])
        expected = (b"ODR1"
                    + struct.pack("<I", 32)
                    + struct.pack("<QHHH", 7, 64, 48, 1)
                    + struct.pack("<ffffH", 16.5, 12.25, 8.0, 6.0, 3))
        assert path.read_bytes() == expected

    @given(recs=st.lists(records(), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, recs, tmp_path_factory):
        path = tmp_path_factory.mktemp("odr") / "p.odr"
        write_records(path, recs)
        assert list(read_records(path)) == recs


class TestPackedRecords:
    """The numpy writer and reader against the struct-based writer."""

    @given(recs=st.lists(records(), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_struct_writer(self, recs, tmp_path_factory):
        d = tmp_path_factory.mktemp("odr")
        assert write_records(d / "a.odr", recs) == struct_write_records(d / "b.odr", recs)
        assert (d / "a.odr").read_bytes() == (d / "b.odr").read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_f32_rounding_matches_struct_writer(self, tmp_path, seed):
        # coordinates that float32 cannot hold exactly, extreme header fields
        rng = np.random.default_rng(seed)
        recs = []
        for i in range(20):
            nb = int(rng.integers(0, 7))
            wh = rng.uniform(1e-3, 100, (nb, 2))
            xy = wh / 2 + rng.uniform(0, 65535 - 100, (nb, 2))
            recs.append(LabelRecord(2**64 - 1 - i, 65535, 65535, np.hstack([xy, wh]),
                                    rng.integers(0, 2**16, nb)))
        write_records(tmp_path / "a.odr", recs)
        struct_write_records(tmp_path / "b.odr", recs)
        assert (tmp_path / "a.odr").read_bytes() == (tmp_path / "b.odr").read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("classes", [70000]), ("classes", np.array([-1])),
        ("boxes", np.array([[10.0, 10, 1e39, 4]]))])
    def test_unpackable_value_fails_to_write(self, tmp_path, field, value):
        # fields reassigned after construction skip LabelRecord's checks
        rec = _rec(0, [(10, 10, 4, 4)], [1])
        setattr(rec, field, value)
        expected = _error(lambda: struct_write_records(tmp_path / "b.odr", [rec]))
        assert expected is not None
        assert _error(lambda: write_records(tmp_path / "a.odr", [rec])) == expected

    def test_mismatched_lengths_fail_to_write(self, tmp_path):
        # the struct writer wrote a payload shorter than its header's count
        rec = _rec(0, [(10, 10, 4, 4)] * 3, [0, 1, 2])
        rec.classes = np.array([1])
        with pytest.raises(ValueError, match="equal length"):
            write_records(tmp_path / "m.odr", [rec])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_f32_rejected_on_read(self, tmp_path, value):
        payload = (struct.pack("<QHHH", 1, 64, 64, 2)
                   + struct.pack("<ffffH", 10, 10, 4, 4, 0)
                   + struct.pack("<ffffH", 10, value, 4, 4, 0))
        path = tmp_path / "n.odr"
        path.write_bytes(b"ODR1" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(ValueError, match="non-finite box coordinates"):
            list(read_records(path))


# records sized to fill two to three read and write blocks
BLOCK_SEEDS = range(3)
BLOCK_IMAGES = 2400


@functools.lru_cache(maxsize=None)
def _block_records(seed):
    recs = gen_synthetic(seed=seed, n_images=BLOCK_IMAGES, max_boxes=6, image_w=64, image_h=48)
    with tempfile.TemporaryDirectory() as d:
        struct_write_records(Path(d) / "s.odr", recs)
        data = (Path(d) / "s.odr").read_bytes()
    return tuple(recs), data


def _block_edges(recs):
    """The first and last record of each block: a block closes after the
    record that brings its rows (a header row per record, plus its box
    rows, 18 bytes each) to at least ``_BLOCK_BYTES`` bytes."""
    edges, first, size = set(), 0, 0
    for i, rec in enumerate(recs):
        size += 18 * (1 + len(rec.boxes))
        if size >= _BLOCK_BYTES:
            edges |= {first, i}
            first, size = i + 1, 0
    return sorted(edges | {first, len(recs) - 1})


def _read_outcome(read, path):
    """Records yielded, then the error raised (type, message, offset)."""
    got = []
    try:
        for rec in read(path):
            got.append(rec)
    except ValueError as e:
        return got, (type(e), str(e), getattr(e, "offset", None))
    return got, None


def _spoil(data, recs, k, kind):
    """File bytes with record ``k`` made bad in the way ``kind`` names."""
    buf = bytearray(data)
    at = 4 + sum(18 * (1 + len(rec.boxes)) for rec in recs[:k])  # its length field
    plen = 14 + 18 * len(recs[k].boxes)
    if kind in ("nan", "zero size", "out of bounds") and len(recs[k].boxes):
        field, value = {"nan": (0, float("nan")), "zero size": (2, 0.0),
                        "out of bounds": (0, 64 + 40.0)}[kind]
        struct.pack_into("<f", buf, at + 18 + 4 * field, value)
    elif kind in ("nan", "zero size", "out of bounds", "image_w = 0"):
        struct.pack_into("<H", buf, at + 12, 0)
    elif kind == "long length":
        struct.pack_into("<I", buf, at, plen + 1)
    elif kind == "short length":
        struct.pack_into("<I", buf, at, 3)
    elif kind == "truncated length":
        del buf[at + 2:]
    else:  # truncated payload
        del buf[at + 4 + plen // 2:]
    return bytes(buf)


BAD_VALUES = ["nan", "zero size", "out of bounds", "image_w = 0"]
BAD_FRAMES = ["long length", "short length", "truncated length", "truncated payload"]
BAD_READS = BAD_VALUES + BAD_FRAMES


def _record_starts(recs):
    """The file offset of each record's length field, then of the file's end."""
    return 4 + 18 * np.cumsum([0] + [1 + len(rec.boxes) for rec in recs])


def _read_edges(recs):
    """The first record that a read boundary cuts in each part it can cut:
    "length" (its length field), "header", "rows" (its box rows), or
    "start" (the boundary falls just before it). Reads go by
    ``_BLOCK_BYTES`` from the end of the magic while no record is longer
    than a read."""
    starts = _record_starts(recs)
    edges = {}
    for at in range(4 + _BLOCK_BYTES, int(starts[-1]), _BLOCK_BYTES):
        k = int(np.searchsorted(starts, at, side="right")) - 1
        cut = at - starts[k]
        part = "start" if cut == 0 else "length" if cut < 4 else "header" if cut < 18 else "rows"
        edges.setdefault(part, k)
    return edges


@functools.lru_cache(maxsize=None)
def _edge_records():
    """Records over ten reads, with read boundaries in each part of a record.

    The j-th boundary lies ``16 * j % 18`` bytes into an 18-byte row, so
    only the 8th can cut a length field and only the 9th can fall between
    records. Zero-box records put in before the record at the 1st, 8th and
    9th boundaries move its header row onto the boundary."""
    recs = gen_synthetic(seed=5, n_images=2300, max_boxes=30, image_w=64, image_h=48)
    for j in (1, 8, 9):
        rows = np.cumsum([0] + [1 + len(rec.boxes) for rec in recs])
        at = j * _BLOCK_BYTES // 18  # the row the boundary falls in
        k = int(np.searchsorted(rows, at, side="right")) - 1
        recs[k:k] = [LabelRecord(10**6 + n, 64, 48, np.empty((0, 4)), np.empty(0))
                     for n in range(at - rows[k])]
    with tempfile.TemporaryDirectory() as d:
        struct_write_records(Path(d) / "s.odr", recs)
        data = (Path(d) / "s.odr").read_bytes()
    return tuple(recs), data


def _tiled(image_id, n):
    """A record of ``n`` equal boxes."""
    return LabelRecord(image_id, 64, 48, np.tile([[32.0, 24, 4, 4]], (n, 1)), np.arange(n) % 3)


def _framing_calls(monkeypatch):
    """The offsets of the records that ``read_records`` frames on its own,
    filled in as it reads."""
    calls, finish = [], odkit.sparse_labels._finish_record

    def counted(f, rest, offset):
        calls.append(offset)
        return finish(f, rest, offset)

    monkeypatch.setattr(odkit.sparse_labels, "_finish_record", counted)
    return calls


class TestBlockReads:
    """Block reads against the per-record reader."""

    @pytest.mark.parametrize("seed", BLOCK_SEEDS)
    def test_clean_file(self, tmp_path, seed):
        recs, data = _block_records(seed)
        path = tmp_path / "c.odr"
        path.write_bytes(data)
        assert len(_block_edges(recs)) >= 4  # two blocks at least
        back = list(read_records(path))
        assert back == list(recs) == list(per_record_read_records(path))
        assert all(type(r.image_id) is int and type(r.image_w) is int for r in back)
        assert all(r.boxes.dtype == np.float64 and r.boxes.shape == (len(r.classes), 4)
                   and r.classes.dtype == np.int64 for r in back)

    @given(seed=st.sampled_from(BLOCK_SEEDS), kind=st.sampled_from(BAD_READS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_bad_record(self, tmp_path_factory, seed, kind, data):
        recs, clean = _block_records(seed)
        k = data.draw(st.one_of(st.sampled_from(_block_edges(recs)),
                                st.integers(0, len(recs) - 1)), label="bad record")
        path = tmp_path_factory.mktemp("odr") / "b.odr"
        path.write_bytes(_spoil(clean, recs, k, kind))
        got, error = _read_outcome(read_records, path)
        want, want_error = _read_outcome(per_record_read_records, path)
        assert want_error is not None and len(want) == k
        assert error == want_error
        assert got == want

    def test_clean_file_across_read_edges(self, tmp_path, monkeypatch):
        recs, data = _edge_records()
        assert sorted(_read_edges(recs)) == ["header", "length", "rows", "start"]
        path = tmp_path / "c.odr"
        path.write_bytes(data)
        calls = _framing_calls(monkeypatch)
        assert list(read_records(path)) == list(recs) == list(per_record_read_records(path))
        assert calls == []

    @pytest.mark.parametrize("kind", BAD_READS)
    def test_bad_record_at_read_edges(self, tmp_path, monkeypatch, kind):
        recs, clean = _edge_records()
        starts = _record_starts(recs)
        path = tmp_path / "b.odr"
        calls = _framing_calls(monkeypatch)
        for part, k in _read_edges(recs).items():
            path.write_bytes(_spoil(clean, recs, k, kind))
            calls.clear()
            got, error = _read_outcome(read_records, path)
            want, want_error = _read_outcome(per_record_read_records, path)
            assert want_error is not None and len(want) == k, part
            assert error == want_error, part
            assert got == want, part
            # only a malformed record is framed on its own
            assert calls == ([starts[k]] if kind in BAD_FRAMES else []), part

    @pytest.mark.parametrize("kind", [None] + BAD_READS)
    def test_longest_record_between_small_ones(self, tmp_path, monkeypatch, kind):
        small, _ = _block_records(0)
        recs = small[:300] + (_tiled(7, 65535),) + small[300:]
        path = tmp_path / "l.odr"
        struct_write_records(path, recs)
        if kind is not None:
            path.write_bytes(_spoil(path.read_bytes(), recs, 300, kind))
        calls = _framing_calls(monkeypatch)
        got, error = _read_outcome(read_records, path)
        want, want_error = _read_outcome(per_record_read_records, path)
        assert error == want_error and (error is None) == (kind is None)
        assert got == want == list(recs[:300] if kind else recs)
        assert calls == [_record_starts(recs)[300]]  # and no record after it

    def test_records_own_their_rows(self, tmp_path):
        recs, data = _block_records(0)
        path = tmp_path / "o.odr"
        path.write_bytes(data)
        back = list(read_records(path))
        k = next(i for i in range(1, len(back) - 1) if len(back[i].boxes))
        back[k].boxes[:] = -1.0
        back[k].classes[:] = 99
        assert back[k - 1] == recs[k - 1] and back[k + 1] == recs[k + 1]
        assert back[:k] + back[k + 1:] == list(recs[:k] + recs[k + 1:])


class _FailingReader:
    """A binary file whose reads fail once they would pass byte ``stop``."""

    def __init__(self, path, stop):
        self._f, self._stop = open(path, "rb"), stop

    def read(self, n):
        if self._f.tell() + n > self._stop:
            raise OSError("read failed")
        return self._f.read(n)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("where", ["first", "middle", "last", "before read edge",
                                   "after read edge"])
def test_failed_read_keeps_records_before(tmp_path, monkeypatch, where):
    recs, data = _block_records(2)
    path = tmp_path / "r.odr"
    path.write_bytes(data)
    starts = _record_starts(recs)
    if where.endswith("read edge"):
        # the first read boundary cuts record k; reads fail just before or after it
        at = 4 + _BLOCK_BYTES
        k = int(np.searchsorted(starts, at)) - 1
        stop = at - 1 if where.startswith("before") else at + 1
        assert starts[k] < stop < starts[k + 1]
    else:
        edges = _block_edges(recs)  # a block's first record, its last, the next's first, ...
        k = {"first": edges[2], "middle": edges[2] + 5, "last": edges[3]}[where]
        stop = starts[k] + 9  # inside record k
    for module in (odkit.sparse_labels, oracles):
        monkeypatch.setattr(module, "open", lambda p, mode: _FailingReader(p, stop),
                            raising=False)
    outcomes = []
    for read in (read_records, per_record_read_records):
        got = []
        with pytest.raises(OSError, match="read failed"):
            for rec in read(path):
                got.append(rec)
        outcomes.append(got)
    assert outcomes[0] == outcomes[1] == list(recs[:k])


def test_read_makes_no_per_record_garbage(tmp_path):
    # every object the collector tracks counts toward its next collection,
    # which scans every record still alive; a read adds none but the records
    recs, data = _block_records(1)
    path = tmp_path / "g.odr"
    path.write_bytes(data)
    got, excess = [], []
    gc.collect()
    gc.disable()
    try:
        start = gc.get_count()[0]
        for rec in read_records(path):
            got.append(rec)
            excess.append(gc.get_count()[0] - start - len(got))
    finally:
        gc.enable()
    assert got == list(recs)
    assert max(excess) < 64


@pytest.mark.parametrize("longest", [0, 65535], ids=["small records", "one 65,535-box record"])
def test_read_memory_is_bounded_by_one_buffer(tmp_path, longest):
    # records taken and dropped one by one, with one record of ``longest``
    # boxes in the middle of a file longer than the bound, so that a reader
    # holding the whole file exceeds it; around the long record, records of
    # 1,000 boxes keep the file quick to read
    bound = 16 * _BLOCK_BYTES + 8 * 18 * (1 + longest)
    filler = [_tiled(1, 1000)] * 12 if longest else list(_block_records(0)[0])
    reps = bound // (18 * sum(1 + len(rec.boxes) for rec in filler)) + 1
    path = tmp_path / "m.odr"
    n = write_records(path, filler * reps + [_tiled(7, longest)] + filler * reps)
    tracemalloc.start()
    try:
        assert sum(1 for _ in read_records(path)) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound < path.stat().st_size


def _reassign(rec, kind):
    """A copy of ``rec`` with a field reassigned to a value ODR1 cannot
    hold, past the constructor's checks."""
    rec = copy.copy(rec)
    if kind in ("class 70000", "class -1", "box 1e39") and not len(rec.boxes):
        kind = "image_w 70000"
    if kind == "class 70000":
        rec.classes = np.where(np.arange(len(rec.classes)) == 0, 70000, rec.classes)
    elif kind == "class -1":
        rec.classes = np.where(np.arange(len(rec.classes)) == 0, -1, rec.classes)
    elif kind == "box 1e39":
        rec.boxes = rec.boxes.copy()
        rec.boxes[0, 2] = 1e39
    elif kind == "image_w 70000":
        rec.image_w = 70000
    elif kind == "image_id -1":
        rec.image_id = -1
    elif kind == "image_id 2**64":
        rec.image_id = 2**64
    else:  # mismatched lengths
        rec.classes = np.append(rec.classes, 1)
    return rec


BAD_WRITES = ["class 70000", "class -1", "box 1e39", "image_w 70000", "image_id -1",
              "image_id 2**64", "mismatched lengths"]


class TestBlockWrites:
    """Block writes against the struct writer."""

    @pytest.mark.parametrize("seed", BLOCK_SEEDS)
    def test_bytes_match_struct_writer(self, tmp_path, seed):
        recs, data = _block_records(seed)
        assert write_records(tmp_path / "a.odr", iter(recs)) == len(recs)
        assert (tmp_path / "a.odr").read_bytes() == data

    @given(seed=st.sampled_from(BLOCK_SEEDS), kind=st.sampled_from(BAD_WRITES), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_unpackable_record(self, tmp_path_factory, seed, kind, data):
        recs, _ = _block_records(seed)
        k = data.draw(st.sampled_from(_block_edges(recs)), label="bad record")
        recs = list(recs)
        recs[k] = _reassign(recs[k], kind)
        d = tmp_path_factory.mktemp("odr")
        error = _error(lambda: write_records(d / "a.odr", recs))
        if kind == "mismatched lengths":
            # the struct writer writes a payload shorter than its header's count
            struct_write_records(d / "b.odr", recs[:k])
            want = (ValueError, "boxes and classes must have equal length")
        else:
            want = _error(lambda: struct_write_records(d / "b.odr", recs))
        assert want is not None and error == want
        assert (d / "a.odr").read_bytes() == (d / "b.odr").read_bytes()

    def test_failing_source_keeps_records_before(self, tmp_path):
        recs, _ = _block_records(1)
        k = _block_edges(recs)[2]

        def source():
            yield from recs[:k]
            raise KeyError("source failed")
        with pytest.raises(KeyError):
            write_records(tmp_path / "a.odr", source())
        struct_write_records(tmp_path / "b.odr", recs[:k])
        assert (tmp_path / "a.odr").read_bytes() == (tmp_path / "b.odr").read_bytes()


class TestGenSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(seed=42, n_images=10, max_boxes=4, image_w=100, image_h=80)
        b = gen_synthetic(seed=42, n_images=10, max_boxes=4, image_w=100, image_h=80)
        assert len(a) == 10
        assert a == b

    def test_seeds_differ(self, tmp_path):
        p1, p2 = tmp_path / "1.odr", tmp_path / "2.odr"
        write_records(p1, gen_synthetic(seed=1, n_images=20, max_boxes=4,
                                        image_w=100, image_h=80))
        write_records(p2, gen_synthetic(seed=2, n_images=20, max_boxes=4,
                                        image_w=100, image_h=80))
        assert p1.read_bytes() != p2.read_bytes()

    def test_boxes_inside_bounds(self):
        for rec in gen_synthetic(seed=3, n_images=50, max_boxes=6,
                                 image_w=60, image_h=40):
            if not len(rec.boxes):
                continue
            assert np.all(rec.boxes[:, 0] - rec.boxes[:, 2] / 2 >= 0)
            assert np.all(rec.boxes[:, 0] + rec.boxes[:, 2] / 2 <= 60)
            assert np.all(rec.boxes[:, 1] - rec.boxes[:, 3] / 2 >= 0)
            assert np.all(rec.boxes[:, 1] + rec.boxes[:, 3] / 2 <= 40)
            assert np.all(rec.boxes[:, 2:] >= 2)

    def test_rejects_degenerate_args(self):
        with pytest.raises(InvalidSpecError):
            gen_synthetic(seed=0, n_images=0, max_boxes=4, image_w=100, image_h=80)
        with pytest.raises(InvalidSpecError):
            gen_synthetic(seed=0, n_images=1, max_boxes=4, image_w=0, image_h=80)


class TestAugmentJitter:
    def test_noop_params_identity(self):
        rec = _rec(5, [(100, 100, 20, 10)], [1])
        assert augment_jitter(rec, seed=9, max_drift=0, allow_flip=False) == rec

    def test_flip_is_involution(self):
        rec = _rec(5, [(100, 80, 20, 10), (30, 40, 8, 8)], [1, 0])
        once = augment_jitter(rec, seed=0, max_drift=0, allow_flip=True)
        assert once != rec  # seed 0 flips
        twice = augment_jitter(once, seed=0, max_drift=0, allow_flip=True)
        assert twice == rec

    def test_known_drift(self):
        # seed 26 with max_drift 3 draws (dx, dy) = (3, 0)
        rec = _rec(5, [(10, 100, 8, 8)], [1])
        out = augment_jitter(rec, seed=26, max_drift=3, allow_flip=False)
        assert tuple(out.boxes[0]) == (13.0, 100.0, 8.0, 8.0)

    @given(records(), st.integers(0, 2**32 - 1), st.integers(0, 20), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_stays_valid_and_preserves_labels(self, rec, seed, drift, flip):
        out = augment_jitter(rec, seed=seed, max_drift=drift, allow_flip=flip)
        assert out.image_id == rec.image_id
        assert len(out.boxes) == len(rec.boxes)
        assert np.array_equal(out.classes, rec.classes)
        assert np.array_equal(out.boxes[:, 2:], rec.boxes[:, 2:])
        if len(out.boxes):
            assert np.all(out.boxes[:, 0] - out.boxes[:, 2] / 2 >= -1e-9)
            assert np.all(out.boxes[:, 0] + out.boxes[:, 2] / 2 <= rec.image_w + 1e-9)
