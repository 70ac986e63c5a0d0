"""Staged producer/consumer pipeline harness with a throughput model.

A run is one chain of generators from the collected batches to a sink loop
on the calling thread, which calls ``on_batch``. With ``prefetch_depth = 0``
the calling thread takes each batch through every stage in turn. Otherwise
each stage runs in its own worker thread and hands batches on through a
bounded FIFO queue of capacity ``prefetch_depth``, so no state is shared.
An exception from a stage or ``on_batch`` reaches the caller at its place
in batch order, with a note of how many batches had completed; closing the
chain stops and joins every worker first.

Stage latency is either simulated (sleep until the modeled finish on the
thread's schedule) or real (run a bound callable and measure it). The
analytic model predicts batches/sec as 1000 over the bottleneck stage cost
when prefetched, or over the summed cost when synchronous. A stage placed
differently from its predecessor is charged its transfer cost, which is how
a layout that bounces between host and accelerator loses throughput
against a co-located one.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
import time
from dataclasses import asdict, dataclass

from ._checks import is_integer, is_real

_PLACEMENTS = ("host", "accelerator")
# the first stage is charged transfer if it is not host-placed, since
# input records originate on the host
_SOURCE_PLACEMENT = "host"


class DataUnderrunError(RuntimeError):
    """The record stream ended before n_batches * batch_size records."""


class _StageStopIteration(Exception):
    """Carries a stage's ``StopIteration`` (its ``__cause__``) out of the
    stage's generator, where PEP 479 would turn it into ``RuntimeError``."""


@dataclass
class StageSpec:
    """One pipeline stage: a cost model plus an optional real workload.

    ``fixed_ms`` is charged per batch, ``per_box_ms`` per ground-truth box
    in the batch; see README, "Input rules". When ``fn`` is set the stage
    runs it instead of sleeping (fn receives and returns the batch payload
    dict).
    """

    name: str
    fixed_ms: float = 0.0
    per_box_ms: float = 0.0
    placement: str = "host"
    transfer_cost_ms: float = 0.0
    fn: object = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"stage name must be a str, got {self.name!r}")
        for field in ("fixed_ms", "per_box_ms", "transfer_cost_ms"):
            v = getattr(self, field)
            if not (is_real(v) and v >= 0):
                raise ValueError(f"stage {self.name!r}: latencies must be finite and >= 0, "
                                 f"got {field}={v!r}")
        if self.fn is not None and not callable(self.fn):
            raise ValueError(f"stage {self.name!r}: fn must be callable or None, got {self.fn!r}")
        if self.placement not in _PLACEMENTS:
            raise ValueError(
                f"stage {self.name!r}: placement must be one of {_PLACEMENTS}, "
                f"got {self.placement!r}")


@dataclass
class PipelineConfig:
    """A pipeline layout; see README, "Input rules"."""

    stages: list[StageSpec]
    batch_size: int = 1
    prefetch_depth: int = 0
    n_batches: int = 1
    # resolves per-box costs in predictions, where actual counts are unknown
    mean_boxes_per_image: float = 0.0

    def __post_init__(self):
        if not self.stages:
            raise ValueError("pipeline needs at least one stage")
        for field, least in (("batch_size", 1), ("prefetch_depth", 0), ("n_batches", 1)):
            v = getattr(self, field)
            if not is_integer(v):
                raise ValueError(f"{field} must be an integer, got {v!r}")
            if v < least:
                raise ValueError(f"{field} must be >= {least}, got {v}")
        v = self.mean_boxes_per_image
        if not (is_real(v) and v >= 0):
            raise ValueError(f"mean_boxes_per_image must be finite and >= 0, got {v!r}")


@dataclass
class ThroughputReport:
    batches_per_sec: float
    images_per_sec: float
    wall_ms: float
    per_stage_busy_ms: list[float]
    predicted_batches_per_sec: float
    n_batches_processed: int = 0


def _stage_cost_ms(stage: StageSpec, prev_placement: str, boxes_in_batch: float) -> float:
    cost = stage.fixed_ms + stage.per_box_ms * boxes_in_batch
    if stage.placement != prev_placement:
        cost += stage.transfer_cost_ms
    return cost


def _modeled_costs(cfg: PipelineConfig) -> list[float]:
    boxes = cfg.batch_size * cfg.mean_boxes_per_image
    costs, prev = [], _SOURCE_PLACEMENT
    for st in cfg.stages:
        costs.append(_stage_cost_ms(st, prev, boxes))
        prev = st.placement
    return costs


def model_throughput(cfg: PipelineConfig) -> float:
    """Predicted batches/sec: bottleneck rule when prefetched, sum rule
    when synchronous."""
    costs = _modeled_costs(cfg)
    total = max(costs) if cfg.prefetch_depth >= 1 else sum(costs)
    if total <= 0:
        return float("inf")
    return 1000.0 / total


def _collect_batches(cfg: PipelineConfig, data) -> list[dict]:
    it = iter(data)
    batches = []
    for i in range(cfg.n_batches):
        records = list(itertools.islice(it, cfg.batch_size))
        if len(records) < cfg.batch_size:
            raise DataUnderrunError(
                f"needed {cfg.n_batches * cfg.batch_size} records, stream ended "
                f"after {i * cfg.batch_size + len(records)}")
        n_boxes = sum(len(getattr(r, "boxes", ())) for r in records)
        batches.append({"index": i, "records": records, "n_boxes": n_boxes,
                        "results": {}})
    return batches


def _stage(st: StageSpec, prev: str, fn, items, free: list[float], busy_ms, pos: int):
    """Run a stage over ``(ready, payload)`` items, ``ready`` being when the batch left
    the previous stage, on a thread whose schedule ``free[0]`` is when it finished its
    last batch. A batch starts at ``max(ready, free)`` and costs a callable's measured
    time, or the modeled cost, slept off until then so that oversleeps do not add up."""
    for ready, payload in items:
        t0 = time.perf_counter()
        start = max(ready, free[0])
        if fn is not None:
            try:
                payload = fn(payload)
            except StopIteration as e:
                raise _StageStopIteration() from e
            cost = time.perf_counter() - t0
        else:
            cost = _stage_cost_ms(st, prev, payload["n_boxes"]) / 1000.0
            if start + cost > t0:  # a zero sleep would still hand over the interpreter lock
                try:
                    time.sleep(start + cost - t0)
                except OverflowError:
                    raise ValueError(f"stage {st.name!r}: a modeled cost of {cost * 1000.0} ms "
                                     "is too long to sleep") from None
        free[0] = start + cost
        busy_ms[pos] += cost * 1000.0
        yield free[0], payload


def _buffered(items, upstream, depth: int, free: list[float], next_free: list[float]):
    """Yield what the stage ``items`` over ``upstream`` yields, from a worker thread up
    to ``depth`` batches ahead, raising an error at its place. A put that waits on a
    full queue frees the stage's schedule ``free`` from when, on its own schedule
    ``next_free``, the consumer took the batch that made room. Closing the buffer stops
    the worker before its next batch, drains the queue so that a blocked put returns,
    joins the worker and closes ``upstream``: shutdown cascades up."""
    q = queue.Queue(depth)
    stop = threading.Event()
    takes = []  # the consumer's schedule as it asked for each batch

    def work():
        error = None
        try:
            for i, item in enumerate(items):
                try:
                    q.put_nowait((item, None))
                except queue.Full:
                    q.put((item, None))
                    if not stop.is_set():  # else the drain, not a take, made room
                        free[0] = max(free[0], takes[i - depth])
                if stop.is_set():
                    break
        except BaseException as e:  # re-raised by the consumer
            error = e
        q.put((None, error))  # items are never None: the end of the stream

    worker = threading.Thread(target=work)
    worker.start()
    item = ()
    try:
        while True:
            takes.append(next_free[0])
            item, error = q.get()
            if item is None:
                break
            yield item
        if error is not None:
            raise error
    finally:
        stop.set()
        while item is not None:  # drain, so that a blocked put returns
            item = q.get()[0]
        worker.join()
        upstream.close()


def run_pipeline(cfg: PipelineConfig, data, matcher=None, workers=None,
                 on_batch=None) -> ThroughputReport:
    """Push ``n_batches`` batches from ``data`` through the stages.

    ``matcher`` (a callable on a list of records) binds to the stage named
    ``match``; ``workers`` maps further stage names to callables on the
    batch payload. ``on_batch(payload)`` fires at the sink, on the calling
    thread, in batch order. Stages without a bound callable sleep their
    modeled cost. An exception raised by a stage callable or ``on_batch``
    propagates to the caller, with a note of how many batches had completed
    (every stage, then ``on_batch``) before it, once every pipeline thread
    has exited; batches still in flight are dropped.
    """
    stage_fns = dict(workers or {})
    if matcher is not None:
        def _match_stage(payload):
            payload["results"]["match"] = matcher(payload["records"])
            return payload
        stage_fns.setdefault("match", _match_stage)
    fns = [st.fn if st.fn is not None else stage_fns.get(st.name) for st in cfg.stages]

    batches = _collect_batches(cfg, data)
    busy_ms = [0.0] * len(fns)
    prevs = [_SOURCE_PLACEMENT] + [st.placement for st in cfg.stages[:-1]]

    t_start = time.perf_counter()
    caller = [t_start]  # one schedule per thread; the caller's is every stage's when synchronous
    frees = [[t_start] if cfg.prefetch_depth else caller for _ in fns] + [caller]
    chain = ((t_start, payload) for payload in batches)
    for pos, (st, fn) in enumerate(zip(cfg.stages, fns)):
        upstream, chain = chain, _stage(st, prevs[pos], fn, chain, frees[pos], busy_ms, pos)
        if cfg.prefetch_depth:
            chain = _buffered(chain, upstream, cfg.prefetch_depth, frees[pos], frees[pos + 1])
    done = 0
    try:
        for ready, payload in chain:
            t0 = time.perf_counter()
            if on_batch is not None:
                on_batch(payload)
            caller[0] = max(ready, caller[0]) + time.perf_counter() - t0
            done += 1
    except BaseException as e:
        error = e.__cause__ if isinstance(e, _StageStopIteration) else e
        error.add_note(f"run_pipeline: {done} of {cfg.n_batches} batches completed")
        if error is e:
            raise
        raise error from error.__cause__  # the wrapper stays out of its chain
    finally:
        chain.close()
    wall_ms = (time.perf_counter() - t_start) * 1000.0

    bps = done / (wall_ms / 1000.0) if wall_ms > 0 else float("inf")
    return ThroughputReport(
        batches_per_sec=bps,
        images_per_sec=bps * cfg.batch_size,
        wall_ms=wall_ms,
        per_stage_busy_ms=busy_ms,
        predicted_batches_per_sec=model_throughput(cfg),
        n_batches_processed=done,
    )


@dataclass
class SpeedupReport:
    report_a: ThroughputReport
    report_b: ThroughputReport
    speedup: float            # measured throughput(b) / throughput(a)
    predicted_speedup: float


def compare_pipelines(cfg_a: PipelineConfig, cfg_b: PipelineConfig, data) -> SpeedupReport:
    """Run both layouts over the same records and report b-over-a speedup."""
    records = list(data)
    ra = run_pipeline(cfg_a, records)
    rb = run_pipeline(cfg_b, records)
    return SpeedupReport(
        report_a=ra, report_b=rb,
        speedup=rb.batches_per_sec / ra.batches_per_sec,
        predicted_speedup=rb.predicted_batches_per_sec / ra.predicted_batches_per_sec,
    )


# ---------------------------------------------------------------- JSON I/O

def config_from_obj(obj: dict) -> PipelineConfig:
    """The config whose fields are ``obj``'s keys, with ``stages`` a list of
    ``StageSpec`` field objects. Any fault is a ``ValueError``."""
    try:
        return PipelineConfig(**{**obj, "stages": [StageSpec(**s) for s in obj["stages"]]})
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"bad pipeline config: {e}") from None


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as f:
        return config_from_obj(json.load(f))


def report_to_obj(r: ThroughputReport) -> dict:
    return asdict(r)


def format_report(r: ThroughputReport, stage_names=None) -> str:
    lines = [
        f"{'batches/sec':>22}  {r.batches_per_sec:10.2f}",
        f"{'images/sec':>22}  {r.images_per_sec:10.2f}",
        f"{'wall ms':>22}  {r.wall_ms:10.2f}",
        f"{'predicted batches/sec':>22}  {r.predicted_batches_per_sec:10.2f}",
    ]
    names = stage_names or [f"stage {i}" for i in range(len(r.per_stage_busy_ms))]
    for name, ms in zip(names, r.per_stage_busy_ms):
        lines.append(f"{'busy ms [' + name + ']':>22}  {ms:10.2f}")
    return "\n".join(lines)
