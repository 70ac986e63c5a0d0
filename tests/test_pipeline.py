import dataclasses
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from odkit import (
    DataUnderrunError,
    PipelineConfig,
    StageSpec,
    compare_pipelines,
    gen_synthetic,
    match_serial,
    model_throughput,
    run_pipeline,
)
from odkit import pipeline
from odkit.pipeline import config_from_obj, format_report, report_to_obj

RECORDS = gen_synthetic(seed=2, n_images=80, max_boxes=4, image_w=96, image_h=96)


def two_stage(prefetch):
    return PipelineConfig(stages=[StageSpec("load", fixed_ms=10),
                                  StageSpec("update", fixed_ms=5)],
                          batch_size=2, prefetch_depth=prefetch, n_batches=15)


class TestValidation:
    def test_stage_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            StageSpec("s", fixed_ms=-1)

    def test_stage_rejects_bad_placement(self):
        with pytest.raises(ValueError):
            StageSpec("s", placement="tpu")

    def test_config_rejects_empty_stages(self):
        with pytest.raises(ValueError):
            PipelineConfig(stages=[])

    def test_config_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            PipelineConfig(stages=[StageSpec("s")], batch_size=0)
        with pytest.raises(ValueError):
            PipelineConfig(stages=[StageSpec("s")], prefetch_depth=-1)


class TestModel:
    def test_bottleneck_rule(self):
        assert model_throughput(two_stage(prefetch=2)) == pytest.approx(100.0)

    def test_sum_rule(self):
        assert model_throughput(two_stage(prefetch=0)) == pytest.approx(1000 / 15)

    def test_transfer_cost_raises_bottleneck(self):
        cfg = PipelineConfig(
            stages=[StageSpec("load", fixed_ms=10),
                    StageSpec("net", fixed_ms=8, placement="accelerator",
                              transfer_cost_ms=4)],
            prefetch_depth=2, n_batches=5)
        # accelerator stage costs 8 + 4 transfer = 12 > 10
        assert model_throughput(cfg) == pytest.approx(1000 / 12)

    def test_first_stage_charged_against_host_source(self):
        cfg = PipelineConfig(
            stages=[StageSpec("net", fixed_ms=8, placement="accelerator",
                              transfer_cost_ms=4)],
            prefetch_depth=1, n_batches=5)
        assert model_throughput(cfg) == pytest.approx(1000 / 12)

    def test_per_box_cost_resolved_by_mean(self):
        cfg = PipelineConfig(stages=[StageSpec("match", per_box_ms=0.5)],
                             batch_size=4, prefetch_depth=0, n_batches=5,
                             mean_boxes_per_image=3.0)
        # 4 images/batch * 3 boxes * 0.5 ms
        assert model_throughput(cfg) == pytest.approx(1000 / 6)


class TestRun:
    def test_single_stage_wall_clock(self):
        cfg = PipelineConfig(stages=[StageSpec("only", fixed_ms=10)],
                             prefetch_depth=0, n_batches=10)
        r = run_pipeline(cfg, RECORDS)
        assert r.wall_ms == pytest.approx(100, rel=0.25)
        assert r.batches_per_sec == pytest.approx(100, rel=0.25)

    def test_prefetched_overlaps_stages(self):
        r = run_pipeline(two_stage(prefetch=2), RECORDS)
        assert r.batches_per_sec == pytest.approx(100, rel=0.2)
        assert r.predicted_batches_per_sec == pytest.approx(100.0)

    def test_synchronous_pays_the_sum(self):
        r = run_pipeline(two_stage(prefetch=0), RECORDS)
        assert r.batches_per_sec == pytest.approx(1000 / 15, rel=0.2)

    def test_images_per_sec_scales_with_batch(self):
        r = run_pipeline(two_stage(prefetch=1), RECORDS)
        assert r.images_per_sec == pytest.approx(r.batches_per_sec * 2)

    def test_underrun(self):
        cfg = PipelineConfig(stages=[StageSpec("s", fixed_ms=1)],
                             batch_size=32, prefetch_depth=1, n_batches=10)
        with pytest.raises(DataUnderrunError):
            run_pipeline(cfg, RECORDS)

    def test_work_conservation_and_order(self):
        for prefetch in (0, 3):
            cfg = PipelineConfig(stages=[StageSpec("a", fixed_ms=2),
                                         StageSpec("b", fixed_ms=1),
                                         StageSpec("c", fixed_ms=2)],
                                 batch_size=2, prefetch_depth=prefetch, n_batches=12)
            seen = []
            r = run_pipeline(cfg, RECORDS, on_batch=lambda p: seen.append(p["index"]))
            assert seen == list(range(12))
            assert r.n_batches_processed == 12

    def test_busy_times_accumulate(self):
        cfg = PipelineConfig(stages=[StageSpec("a", fixed_ms=5),
                                     StageSpec("b", fixed_ms=2)],
                             prefetch_depth=2, n_batches=10)
        r = run_pipeline(cfg, RECORDS)
        assert len(r.per_stage_busy_ms) == 2
        assert r.per_stage_busy_ms[0] == pytest.approx(50, rel=0.3)
        assert r.per_stage_busy_ms[1] == pytest.approx(20, rel=0.4)

    def test_prediction_sanity_band(self):
        for cfg in (two_stage(0), two_stage(2)):
            r = run_pipeline(cfg, RECORDS)
            assert r.batches_per_sec <= r.predicted_batches_per_sec * 1.25
            assert r.batches_per_sec >= r.predicted_batches_per_sec * 0.5

    def test_matcher_results_not_perturbed(self):
        anchors = np.array([[24.0, 24, 24, 24], [72.0, 24, 24, 24],
                            [24.0, 72, 24, 24], [72.0, 72, 24, 24],
                            [48.0, 48, 64, 40], [20.0, 70, 16, 16]])
        standalone = match_serial(anchors, [r.boxes for r in RECORDS[:24]])
        cfg = PipelineConfig(stages=[StageSpec("parse", fixed_ms=1),
                                     StageSpec("match"),
                                     StageSpec("update", fixed_ms=1)],
                             batch_size=4, prefetch_depth=2, n_batches=6)
        got = []
        run_pipeline(cfg, RECORDS[:24],
                     matcher=lambda recs: match_serial(anchors, [r.boxes for r in recs]),
                     on_batch=lambda p: got.append(p["results"]["match"]))
        merged = [ids for a in got for ids in a.anchor_ids]
        assert len(merged) == len(standalone.anchor_ids)
        assert all(np.array_equal(x, y) for x, y in zip(merged, standalone.anchor_ids))


class TestSchedule:
    """Sleeping stages keep the model's schedule: each sleeps until its
    modeled finish, so time lost to oversleeping does not add up."""

    def test_oversleeping_does_not_add_up(self, monkeypatch):
        real_sleep = time.sleep
        woke = [0.0]  # how far the last real sleep woke past its s + 2 ms
        late = []  # that, per batch, or 0 for a batch that did not sleep

        def oversleep(s):
            t0 = time.perf_counter()
            real_sleep(s + 0.002)
            woke[0] = time.perf_counter() - t0 - (s + 0.002)

        def on_batch(payload):
            late.append(woke[0])
            woke[0] = 0.0

        monkeypatch.setattr(time, "sleep", oversleep)
        cfg = PipelineConfig(stages=[StageSpec("only", fixed_ms=10)],
                             prefetch_depth=0, n_batches=10)
        r = run_pipeline(cfg, RECORDS, on_batch=on_batch)
        # 10 x (10 + 2) = 120 ms if every batch paid its oversleep. No later
        # sleep absorbs the host's own lateness on the last batch's.
        assert 100 <= r.wall_ms - late[-1] * 1000 < 115

    def test_stage_blocked_by_a_full_queue_is_charged_its_cost(self):
        cfg = PipelineConfig(stages=[StageSpec("load", fixed_ms=2),
                                     StageSpec("update", fixed_ms=8)],
                             prefetch_depth=1, n_batches=20)
        r = run_pipeline(cfg, RECORDS)
        assert r.per_stage_busy_ms[0] == pytest.approx(40, rel=0.3)

    def test_stage_blocked_by_a_full_queue_does_not_run_ahead(self):
        # "update" is the bottleneck for 10 heavy batches, then "load" is for
        # 10 empty ones. "load" may start a batch only once its queue has
        # room, so the run takes about 236 ms; were it free from its own last
        # finish, it would skip its sleeps after the heavy batches (~206 ms).
        heavy, empty = SimpleNamespace(boxes=[0] * 10), SimpleNamespace(boxes=[])
        cfg = PipelineConfig(stages=[StageSpec("load", fixed_ms=4),
                                     StageSpec("update", per_box_ms=2)],
                             prefetch_depth=1, n_batches=20)
        r = run_pipeline(cfg, [heavy] * 10 + [empty] * 10)
        assert r.wall_ms > 225

    def test_downstream_stall_does_not_shift_the_schedule(self, monkeypatch):
        # "net" oversleeps its first batch by 60 ms, which fills the queue
        # "load" feeds; "load" then catches up, as it waited on a stall, not
        # on the model
        real_sleep = time.sleep
        threads, calls = [], []

        def stalling_sleep(s):
            me = threading.get_ident()
            if me not in threads:
                threads.append(me)  # in order of first sleep: load, net, update
            calls.append(me)
            if threads.index(me) == 1 and calls.count(me) == 1:
                s += 0.06
            real_sleep(s)
        monkeypatch.setattr(time, "sleep", stalling_sleep)
        cfg = PipelineConfig(stages=[StageSpec("load", fixed_ms=6),
                                     StageSpec("net", fixed_ms=4),
                                     StageSpec("update", fixed_ms=5)],
                             prefetch_depth=2, n_batches=15)
        r = run_pipeline(cfg, RECORDS)
        # the model's 15 x 6 + 4 + 5 = 99 ms, against about 145 ms if the
        # stall had pushed back the rest of the run
        assert r.wall_ms < 125


class TestThreads:
    @pytest.mark.parametrize("prefetch, started", [(0, 0), (1, 3), (2, 3)])
    def test_one_thread_per_stage(self, monkeypatch, prefetch, started):
        starts = []
        real_start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread)
            real_start(thread)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        cfg = PipelineConfig(stages=[StageSpec(s, fixed_ms=1) for s in "abc"],
                             prefetch_depth=prefetch, n_batches=6)
        assert run_pipeline(cfg, RECORDS).n_batches_processed == 6
        assert len(starts) == started


class TestCompare:
    def test_self_comparison_is_flat(self):
        # longer runs keep scheduler jitter inside the 10% tolerance
        cfg = PipelineConfig(stages=[StageSpec("load", fixed_ms=10),
                                     StageSpec("update", fixed_ms=5)],
                             batch_size=2, prefetch_depth=2, n_batches=30)
        cmp = compare_pipelines(cfg, cfg, RECORDS)
        assert cmp.speedup == pytest.approx(1.0, rel=0.1)
        assert cmp.predicted_speedup == pytest.approx(1.0)

    def test_headline_ratio_case(self):
        slow = PipelineConfig(stages=[StageSpec("s", fixed_ms=18)],
                              prefetch_depth=0, n_batches=12)
        fast = PipelineConfig(stages=[StageSpec("s", fixed_ms=10)],
                              prefetch_depth=0, n_batches=12)
        cmp = compare_pipelines(slow, fast, RECORDS)
        assert cmp.predicted_speedup == pytest.approx(1.8)
        assert cmp.speedup == pytest.approx(1.8, rel=0.2)

    def test_colocation_beats_transfer_heavy_layout(self, monkeypatch):
        real_sleep, real_run = time.sleep, pipeline.run_pipeline
        sleeps = []  # (wake time, how late it woke) per sleep of the current run
        late_ms = []  # per run, how late its last sleep to wake woke

        def timed_sleep(s):
            t0 = time.perf_counter()
            real_sleep(s)
            t1 = time.perf_counter()
            sleeps.append((t1, t1 - t0 - s))

        def timed_run(*args, **kwargs):
            sleeps.clear()
            r = real_run(*args, **kwargs)
            # a run whose stages were all behind schedule never slept
            late_ms.append(max(sleeps, default=(0.0, 0.0))[1] * 1000)
            return r

        monkeypatch.setattr(time, "sleep", timed_sleep)
        monkeypatch.setattr(pipeline, "run_pipeline", timed_run)
        layout_a = PipelineConfig(
            stages=[StageSpec("load", fixed_ms=6),
                    StageSpec("net", fixed_ms=4, placement="accelerator",
                              transfer_cost_ms=3),
                    StageSpec("update", fixed_ms=5, transfer_cost_ms=3)],
            prefetch_depth=0, n_batches=15)
        layout_b = PipelineConfig(
            stages=[StageSpec("load", fixed_ms=6),
                    StageSpec("net", fixed_ms=4),
                    StageSpec("update", fixed_ms=5)],
            prefetch_depth=2, n_batches=15)
        cmp = compare_pipelines(layout_a, layout_b, RECORDS)
        # A pays 6 + (4+3) + (5+3) = 21 serially; B pays its 6 ms bottleneck
        assert cmp.predicted_speedup == pytest.approx(21 / 6)
        # Both run 15 batches, so the speedup is A's wall time over B's. No
        # later sleep absorbs the host's own lateness on a run's last sleep.
        wall_a, wall_b = (r.wall_ms - late for r, late in zip((cmp.report_a, cmp.report_b), late_ms))
        assert wall_a / wall_b == pytest.approx(cmp.predicted_speedup, rel=0.2)


class TestJsonInterface:
    def test_config_parsing(self):
        cfg = config_from_obj({
            "stages": [{"name": "load", "fixed_ms": 10},
                       {"name": "net", "fixed_ms": 5, "placement": "accelerator",
                        "transfer_cost_ms": 2}],
            "batch_size": 4, "prefetch_depth": 2, "n_batches": 7})
        assert len(cfg.stages) == 2
        assert cfg.stages[1].placement == "accelerator"
        assert cfg.n_batches == 7

    def test_malformed_config_rejected(self):
        with pytest.raises(ValueError):
            config_from_obj({"stages": "nope"})
        with pytest.raises(ValueError):
            config_from_obj({})

    def test_report_serialization(self):
        r = run_pipeline(PipelineConfig(stages=[StageSpec("s", fixed_ms=2)],
                                        prefetch_depth=1, n_batches=5), RECORDS)
        obj = report_to_obj(r)
        assert set(obj) >= {"batches_per_sec", "images_per_sec", "wall_ms",
                            "per_stage_busy_ms", "predicted_batches_per_sec"}
        text = format_report(r, ["s"])
        assert "batches/sec" in text and "busy ms [s]" in text

    def test_report_obj_keys_are_the_report_fields(self):
        r = run_pipeline(PipelineConfig(stages=[StageSpec("s", fixed_ms=1)],
                                        prefetch_depth=0, n_batches=2), RECORDS)
        assert set(report_to_obj(r)) == {f.name for f in dataclasses.fields(pipeline.ThroughputReport)}


class TestFailingStage:
    """A raising stage callable or on_batch ends a prefetched run with its
    own exception, and every thread the run started has exited. Each run
    happens in a daemon thread joined with a timeout, so a hang fails the
    test instead of stalling the suite."""

    STAGES = ("a", "b", "c")

    @staticmethod
    def _run_with_timeout(cfg, **kwargs):
        before = set(threading.enumerate())
        outcome = {}

        def target():
            try:
                outcome["report"] = run_pipeline(cfg, RECORDS, **kwargs)
            except BaseException as e:
                outcome["error"] = e

        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive(), "run_pipeline hung"
        assert set(threading.enumerate()) - before == set()
        return outcome

    def _cfg(self, prefetch):
        return PipelineConfig(stages=[StageSpec(s) for s in self.STAGES],
                              batch_size=2, prefetch_depth=prefetch, n_batches=12)

    @staticmethod
    def _raise_at(index, exc):
        def fn(payload):
            if payload["index"] == index:
                raise exc
            return payload
        return fn

    @pytest.mark.parametrize("prefetch", [0, 1, 2])
    @pytest.mark.parametrize("failing", ["a", "c"])
    def test_raising_stage(self, prefetch, failing):
        exc = RuntimeError(f"stage {failing} failed")
        workers = {s: (lambda p: p) for s in self.STAGES}
        workers[failing] = self._raise_at(3, exc)
        seen = []
        outcome = self._run_with_timeout(self._cfg(prefetch), workers=workers,
                                         on_batch=lambda p: seen.append(p["index"]))
        assert outcome.get("error") is exc
        assert seen == list(range(len(seen))) and len(seen) <= 3

    @pytest.mark.parametrize("prefetch", [0, 2])
    @pytest.mark.parametrize("failing", ["a", "c"])
    def test_stage_stop_iteration_is_its_own(self, prefetch, failing):
        # stages run inside generators, which turn a StopIteration raised
        # in them into RuntimeError (PEP 479)
        exc = StopIteration(f"stage {failing} ran dry")
        workers = {s: (lambda p: p) for s in self.STAGES}
        workers[failing] = self._raise_at(3, exc)
        seen = []
        outcome = self._run_with_timeout(self._cfg(prefetch), workers=workers,
                                         on_batch=lambda p: seen.append(p["index"]))
        assert outcome.get("error") is exc
        assert exc.__notes__ == [f"run_pipeline: {len(seen)} of 12 batches completed"]
        assert exc.__cause__ is None

    @pytest.mark.parametrize("prefetch", [0, 1, 2])
    def test_raising_on_batch(self, prefetch):
        exc = KeyError("sink failed")
        workers = {s: (lambda p: p) for s in self.STAGES}
        outcome = self._run_with_timeout(self._cfg(prefetch), workers=workers,
                                         on_batch=self._raise_at(3, exc))
        assert outcome.get("error") is exc

    @pytest.mark.parametrize("prefetch", [0, 1, 2])
    def test_error_notes_batches_completed(self, prefetch):
        exc = KeyError("sink failed")
        outcome = self._run_with_timeout(self._cfg(prefetch), on_batch=self._raise_at(3, exc))
        assert outcome.get("error") is exc
        assert exc.__notes__ == ["run_pipeline: 3 of 12 batches completed"]
        assert str(exc) == "'sink failed'"

    @pytest.mark.parametrize("prefetch", [0, 1, 2])
    def test_stage_error_notes_batches_completed(self, prefetch):
        exc = RuntimeError("stage b failed")
        seen = []
        outcome = self._run_with_timeout(self._cfg(prefetch), workers={"b": self._raise_at(3, exc)},
                                         on_batch=lambda p: seen.append(p["index"]))
        assert outcome.get("error") is exc
        assert exc.__notes__ == [f"run_pipeline: {len(seen)} of 12 batches completed"]
        assert str(exc) == "stage b failed"
        if prefetch == 0:
            assert seen == [0, 1, 2]

    @pytest.mark.parametrize("prefetch", [1, 2])
    def test_first_error_wins_when_every_batch_fails(self, prefetch):
        def fail(payload):
            raise ValueError(payload["index"])
        outcome = self._run_with_timeout(self._cfg(prefetch), workers={"b": fail})
        assert isinstance(outcome.get("error"), ValueError)
        assert outcome["error"].args == (0,)

    def test_many_failing_stages_under_fast_switching(self):
        # more stage threads than cores, each failing from a random batch on
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(20):
                rng = np.random.default_rng(seed)
                raised = []

                def fail_from(at):
                    def fn(payload):
                        if payload["index"] >= at:
                            e = RuntimeError(at, payload["index"])
                            raised.append(e)
                            raise e
                        return payload
                    return fn

                cfg = PipelineConfig(stages=[StageSpec(f"s{k}") for k in range(8)],
                                     prefetch_depth=1 + seed % 2, n_batches=12)
                workers = {f"s{k}": fail_from(int(rng.integers(0, 12))) for k in range(8)}
                outcome = self._run_with_timeout(cfg, workers=workers)
                assert any(outcome.get("error") is e for e in raised)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("prefetch", [0, 1, 2])
    def test_stage_returning_none_does_not_end_the_stream(self, prefetch):
        # "b" has no callable, so it reads the None payload's box count
        outcome = self._run_with_timeout(self._cfg(prefetch), workers={"a": lambda p: None})
        assert isinstance(outcome.get("error"), TypeError)
