"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import odkit.geometry  # noqa: E402
from odkit import matching  # noqa: E402

import workloads  # noqa: E402
from tracing import Span, Tracer, percentile, self_ms, summarize, union_length  # noqa: E402


def span(sid, t0, t1, parent=None, thread=1):
    return Span(sid, f"s{sid}", t0, t1, parent, None, thread)


class TestSelfTime:
    def test_nested(self):
        spans = [span(1, 0.0, 0.010), span(2, 0.002, 0.005, 1), span(3, 0.003, 0.004, 2)]
        got = self_ms(spans)
        assert got[1] == pytest.approx(7.0)
        assert got[2] == pytest.approx(2.0)
        assert got[3] == pytest.approx(1.0)

    def test_concurrent_children_count_once(self):
        # two worker threads overlap on [4, 6] ms; one child outlives its parent
        spans = [span(1, 0.0, 0.010), span(2, 0.002, 0.006, 1, thread=2),
                 span(3, 0.004, 0.008, 1, thread=3), span(4, 0.009, 0.012, 1, thread=4)]
        assert self_ms(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_union_length(self):
        assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
        assert union_length([]) == 0.0

    def test_worker_threads_attach_to_fanout_span(self):
        tr = Tracer()

        def worker():
            with tr.span("inner"):
                time.sleep(0.05)

        with tr.span("outer", op=7, fanout=True):
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        (outer,) = tr.named("outer")
        inner = tr.named("inner")
        assert len(inner) == 2
        assert all(s.parent == outer.sid and s.op == 7 for s in inner)
        assert len({s.thread for s in inner}) == 2
        covered = union_length([(s.t0, s.t1) for s in inner]) * 1000.0
        assert self_ms(tr.spans)[outer.sid] == pytest.approx(outer.ms - covered)
        assert covered < sum(s.ms for s in inner)


class TestWrapping:
    def test_wrap_records_span_and_restores(self):
        original = odkit.geometry.nms
        tr = Tracer()
        assert tr.wrap("odkit.geometry.nms", "geometry.nms")
        try:
            assert odkit.geometry.nms([], 0.5) == []
        finally:
            tr.unwrap_all()
        assert odkit.geometry.nms is original
        assert [s.name for s in tr.spans] == ["geometry.nms"]

    def test_missing_target_is_reported_not_raised(self):
        tr = Tracer()
        assert not tr.wrap("odkit.matching.no_such_function", "matching.gone")
        assert not tr.wrap("odkit.no_such_module.f", "gone")
        assert not tr.wrap_iter("odkit.sparse_labels.NoSuchClass.read", "gone")
        assert tr.missing == ["odkit.matching.no_such_function", "odkit.no_such_module.f",
                              "odkit.sparse_labels.NoSuchClass.read"]

    def test_wrapped_method_and_generator(self, tmp_path):
        from odkit import sparse_labels
        recs = [sparse_labels.LabelRecord(i, 8, 8, [[4, 4, 2, 2]], [0]) for i in range(3)]
        path = tmp_path / "r.odr"
        sparse_labels.write_records(path, recs)
        tr = Tracer()
        workloads.install_wraps(tr)
        try:
            back = list(sparse_labels.read_records(path))
            sparse_labels.decode_batch(sparse_labels.encode_batch(back))
        finally:
            tr.unwrap_all()
        assert back == recs
        assert tr.counters["sparse_labels.read_records.items"] == 3
        (decode,) = tr.named("sparse_labels.decode_batch")
        (validate,) = tr.named("sparse_labels.validate")
        assert validate.parent == decode.sid
        assert not tr.missing


class TestRescale:
    def test_scales_only_what_the_operation_added(self):
        wl = workloads.DatasetIO()
        wl.busy_s, wl.write_s, wl.scan_s, wl.latencies_ms = 1.0, 0.5, 0.5, [10.0]
        mark = wl.mark()
        wl.busy_s, wl.write_s, wl.scan_s = 3.0, 1.0, 2.0
        wl.latencies_ms.append(20.0)
        wl.rescale(mark, 0.5)
        assert (wl.busy_s, wl.write_s, wl.scan_s) == (2.0, 0.75, 1.25)
        assert wl.latencies_ms == [10.0, 10.0]
        assert wl.raw_busy_s == 2.0 and wl.factors == [0.5]


class TestCalibration:
    def test_thread_count_comes_from_the_machine(self, tmp_path, monkeypatch):
        # the scale must not react to odkit's own thread settings
        monkeypatch.setenv("ODF_THREADS", "64")
        monkeypatch.setattr(matching, "thread_cap", lambda: 64)
        wl = workloads.PrepDense()
        wl.setup(5, str(tmp_path))
        wl.close()
        assert wl.threads == (os.cpu_count() or 1)


class TestPeakRss:
    def test_tune_waits_for_a_whole_study(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workloads.Tune, "TRIALS", 20)
        monkeypatch.setattr(workloads.Tune, "CHECKPOINT_EVERY", 10)
        wl = workloads.Tune()
        wl.setup(5, str(tmp_path))
        wl.op()
        assert wl.first_peak_rss_mb is None
        wl.op()
        assert wl.done() and wl.first_peak_rss_mb > 0


class TestStatistics:
    def test_percentile_matches_numpy(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]
        for q in (0, 10, 50, 90, 100):
            assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))

    def test_summary_reports_sample_count(self):
        got = summarize(range(1, 11))
        assert got["p50"] == pytest.approx(5.5)
        assert got["p90"] == pytest.approx(9.1)
        assert got["n"] == 10

    def test_percentile_of_nothing_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


def _swap_two(assignment):
    ids = [a.copy() for a in assignment.anchor_ids]
    i = next(k for k, a in enumerate(ids) if len(a) >= 2)
    ids[i][[0, 1]] = ids[i][[1, 0]]
    return matching.MatchAssignment(ids)


class TestWrongOutputsCount:
    def test_prep_swapped_anchor_ids(self, tmp_path):
        wl = workloads.PrepDense()
        wl.setup(5, str(tmp_path))
        wl.op()
        wl.close()
        assert wl.attempted == wl.PASS_BATCHES and wl.failed == 0
        records, assignment, deltas = wl.samples[0]
        wl.samples[0] = (records, _swap_two(assignment), deltas)
        wl.verify()
        assert wl.failed == 1
        assert "differs from match_serial" in wl.errors[0]

    def test_eval_checks(self, tmp_path):
        wl = workloads.EvalCrowded()
        wl.setup(5, str(tmp_path))
        wl.op()
        wl.verify()
        assert (wl.attempted, wl.failed) == (wl.CHUNK, 0)
        first, texts, kept = wl.outputs[0]
        lines = texts["parallel"].splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        bad_nms = [list(range(len(wl.candidates[first + i]))) for i in range(wl.CHUNK)]
        wl.outputs[0] = (first, {**texts, "parallel": "\n".join(lines)}, bad_nms)
        wl.verify()
        # images 0 and 1 fail the JSONL comparison; all four fail the nms check
        assert wl.failed == wl.CHUNK

    def test_io_changed_record(self):
        from odkit.sparse_labels import LabelRecord
        recs = [LabelRecord(i, 8, 8, [[4, 4, 2, 2]], [1]) for i in range(4)]
        back = list(recs)
        back[2] = LabelRecord(2, 8, 8, [[4, 4, 2, 2]], [2])
        decoded = [(r.boxes, r.classes) for r in recs]
        assert workloads._check_io(recs, 4, recs, decoded) == 0
        assert workloads._check_io(recs, 4, back, decoded) == 1
        assert workloads._check_io(recs, 3, recs, decoded) == 4

    def test_tune_checkpoint_and_determinism(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workloads.Tune, "TRIALS", 40)
        monkeypatch.setattr(workloads.Tune, "CHECKPOINT_EVERY", 10)
        wl = workloads.Tune()
        wl.setup(5, str(tmp_path))
        for _ in range(8):
            wl.op()
        assert wl.done() and wl.study == 2
        wl.verify()
        assert (wl.attempted, wl.failed) == (80, 0)
        seed, log = wl.first_log
        log[3] = ((0.0,) * 4, 0.0)
        wl.verify()
        assert wl.failed == 1
        assert "another trial log" in wl.errors[0]

    def test_raising_operation_is_counted(self, tmp_path, monkeypatch):
        wl = workloads.EvalCrowded()
        wl.setup(5, str(tmp_path))
        monkeypatch.setattr(matching, "match_exact", None)
        wl.op()
        assert (wl.attempted, wl.failed) == (wl.CHUNK, wl.CHUNK)
        assert "TypeError" in wl.errors[0]

    def test_raising_stage_is_counted_without_stalling(self, tmp_path, monkeypatch):
        wl = workloads.PrepDense()
        wl.setup(5, str(tmp_path))

        def broken(*args, **kwargs):
            raise RuntimeError("broken stage")
        monkeypatch.setattr(matching, "compute_deltas", broken)
        wl.op()
        wl.close()
        assert (wl.attempted, wl.failed) == (wl.PASS_BATCHES, wl.PASS_BATCHES)
        assert "stage targets" in wl.errors[0]
