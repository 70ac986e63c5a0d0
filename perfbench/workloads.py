"""The four benchmark workloads.

Each workload drives odkit from one process, closed loop: the next
operation starts when the previous one has finished. Each stresses one
part of the library and bypasses the others (see README.md). A workload
is used as:

    wl.setup(seed, workdir)   # inputs; timed by the runner, repeated
    wl.op()                   # one operation; repeated until time is up
    wl.verify()               # output checks, outside the timed region

``op`` records items done, operation time and latency samples, and counts
attempted and failed operations. An operation that raises is counted as
failed and the run goes on. Library functions are always looked up
through their module at call time, so the tracer's wrappers see them.
Only public names of odkit are used.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time
import traceback

import numpy as np

from odkit import cli, geometry, hyperopt, matching, pipeline, sparse_labels

import inputs
from tracing import percentile, self_ms, summarize

STRICT = matching.MatchConfig(dedup_mode="strict")


class Workload:
    name = ""
    item = ""       # what items_per_s counts
    op_unit = ""    # what one latency sample times
    # untimed operations first, so thread start-up and first-call costs
    # stay out of short operations; one long operation absorbs them
    WARMUP_OPS = 1
    # threads the speed calibration runs its sorts on; it is set from the
    # machine, never from odkit, so that no odkit change moves the scale
    threads = 1

    # operation times that the runner scales for machine speed; busy_s first
    SCALED = ("busy_s",)

    def __init__(self):
        self.tracer = None
        self.first_peak_rss_mb = None
        self.clear_timings()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def span(self, name: str, op=None):
        return self.tracer.span(name, op) if self.tracer else contextlib.nullcontext()

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)

    def op(self) -> None:
        try:
            self._op()
        except Exception:
            self.fail(self.op_items(), traceback.format_exc(limit=3))
        # after the first operation that completes a unit of work, so that
        # a tune study's largest arrays are in it
        if self.first_peak_rss_mb is None and self.done():
            self.first_peak_rss_mb = peak_rss_mb()

    def clear_timings(self) -> None:
        self.items = 0
        for attr in self.SCALED:
            setattr(self, attr, 0.0)
        self.latencies_ms = []
        self.raw_busy_s = 0.0
        self.factors = []

    def mark(self):
        return [getattr(self, a) for a in self.SCALED], len(self.latencies_ms)

    def rescale(self, mark, factor: float) -> None:
        """Multiply every time measured since ``mark`` by ``factor``."""
        values, k = mark
        self.raw_busy_s += self.busy_s - values[0]
        for attr, v in zip(self.SCALED, values):
            setattr(self, attr, v + (getattr(self, attr) - v) * factor)
        self.latencies_ms[k:] = [x * factor for x in self.latencies_ms[k:]]
        self.factors.append(factor)

    def op_items(self) -> int:
        """Attempted-operation count charged to one failing ``op``."""
        return 1

    def reset(self) -> None:
        """Rewind so the next ``op`` repeats the first one."""

    def done(self) -> bool:
        """Whether a run may stop after the last ``op``."""
        return True

    def close(self) -> None:
        """Release what the operations hold open."""

    def verify(self) -> None:
        """Check kept outputs after the timed operations."""


def peak_rss_mb() -> float:
    """The process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _anchor_properties(anchors, records, limit: int = 512) -> dict:
    """Input properties that decide matcher cost, on the first ``limit``
    images: the share of boxes that overlap no anchor (these fall back to
    Euclidean distance) and the median count of anchors a box overlaps."""
    overlaps = [np.count_nonzero(geometry.iou_matrix(r.boxes, anchors) > 0, axis=1)
                for r in records[:limit] if len(r.boxes)]
    per_box = np.concatenate(overlaps)
    return {"fallback_frac": float(np.mean(per_box == 0)),
            "pos_iou_anchors_p50": float(np.median(per_box))}


def _record_properties(records) -> dict:
    counts = np.array([len(r.boxes) for r in records])
    return {"images": len(records), "boxes": int(counts.sum()),
            "max_boxes_per_image": int(counts.max()),
            "mean_boxes_per_image": float(counts.mean())}


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def _span_ms(tr, name: str) -> float:
    return sum(s.ms for s in tr.named(name))


# ---------------------------------------------------------------- prep-dense

class PrepDense(Workload):
    """Training-target preparation on the paper's geometry: records stream
    from an ODR1 file through load (encode_batch), match (build_rankings +
    strict match_parallel) and targets (compute_deltas) stages."""

    name = "prep-dense"
    item = "images"
    op_unit = "batch"
    N_IMAGES, SIZE, BATCH, PASS_BATCHES, PREFETCH = 5120, 416, 32, 16, 2
    SAMPLE_EVERY = 8
    STAGES = ("load", "match", "targets")
    # the pipeline keeps every CPU busy
    threads = os.cpu_count() or 1

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        # 1-20 boxes per image, the same counts in every batch
        counts = inputs.box_counts(rng, np.rint(np.linspace(1, 20, self.BATCH)).astype(int),
                                   self.N_IMAGES // self.BATCH)
        self.records = inputs.label_records(rng, counts, self.SIZE, self.SIZE, 2,
                                            self.SIZE, self.SIZE)
        self.path = os.path.join(workdir, "prep-dense.odr")
        sparse_labels.write_records(self.path, self.records)
        spec = geometry.GridSpec(self.SIZE, self.SIZE, 13, 13, inputs.YOLO_TEMPLATES)
        self.anchors = geometry.build_anchor_grid(spec)
        self.cfg = pipeline.PipelineConfig(
            stages=[pipeline.StageSpec(s) for s in self.STAGES], batch_size=self.BATCH,
            prefetch_depth=self.PREFETCH, n_batches=self.PASS_BATCHES)
        self.samples = []
        self.depth_used = self.row_len = 0
        self.reset()

    def reset(self):
        self.close()
        self.stream = self._stream()
        self.base = 0

    def close(self):
        stream = getattr(self, "stream", None)
        if stream is not None:
            stream.close()
            self.stream = None

    def _stream(self):
        while True:
            yield from sparse_labels.read_records(self.path)

    def op_items(self):
        return self.PASS_BATCHES

    def _stage(self, name, fn):
        # A stage that raises would stall the pipeline's queues, so errors
        # travel with the batch to the sink, which counts them.
        def run(payload):
            if "error" not in payload:
                try:
                    fn(payload)
                except Exception:
                    payload["error"] = f"stage {name}: " + traceback.format_exc(limit=3)
            return payload
        if self.tracer is None:
            return run

        def traced(payload):
            with self.tracer.span("pipeline.stage." + name, op=self.base + payload["index"]):
                return run(payload)
        return traced

    def _load(self, payload):
        payload["t_in"] = time.perf_counter()
        payload["rois"] = sparse_labels.encode_batch(payload["records"])

    def _match(self, payload):
        rois = payload["rois"]
        ranking = matching.build_rankings(self.anchors, rois)
        payload["assignment"] = matching.match_parallel(ranking, rois, STRICT)
        if (self.base + payload["index"]) % self.SAMPLE_EVERY == 0:
            payload["ranking"] = ranking

    def _targets(self, payload):
        boxes = [r.boxes for r in payload["records"]]
        payload["deltas"] = matching.compute_deltas(payload["assignment"], self.anchors, boxes)

    def _sink(self, payload):
        # like a stage, the sink must not raise: the pipeline would stall
        if "error" in payload:
            self.fail(1, payload["error"])
            return
        self.items += self.BATCH
        self.latencies_ms.append((time.perf_counter() - payload["t_in"]) * 1000.0)
        ranking = payload.get("ranking")
        if ranking is not None:
            self.samples.append((payload["records"], payload["assignment"], payload["deltas"]))
            try:
                depth = _depth_used(ranking, payload["assignment"])
            except Exception:
                self.fail(1, "sink: " + traceback.format_exc(limit=3))
            else:
                self.depth_used = max(self.depth_used, depth)
                self.row_len = ranking.dist_ids.shape[1]

    def _op(self):
        workers = {name: self._stage(name, getattr(self, "_" + name)) for name in self.STAGES}
        self.attempted += self.PASS_BATCHES
        t0 = time.perf_counter()
        try:
            report = pipeline.run_pipeline(self.cfg, self.stream, workers=workers,
                                           on_batch=self._sink)
        finally:
            self.base += self.PASS_BATCHES
        self.busy_s += time.perf_counter() - t0
        if report.n_batches_processed != self.PASS_BATCHES:
            self.fail(self.PASS_BATCHES - report.n_batches_processed, "pass lost batches")

    def verify(self):
        for records, assignment, deltas in self.samples:
            boxes = [r.boxes for r in records]
            try:
                why = _check_prep_batch(self.anchors, boxes, assignment, deltas)
            except Exception as e:
                why = f"check raised {e!r}"
            if why:
                self.fail(1, why)

    def properties(self):
        return {**_record_properties(self.records), "anchors": len(self.anchors),
                **_anchor_properties(self.anchors, self.records)}

    def layer_metrics(self, tr, n_ops):
        batches = n_ops * self.PASS_BATCHES
        # after reset() the traced pass reads the file from its start
        counts = np.array([len(r.boxes) for r in self.records])
        boxes = int(counts[np.arange(batches * self.BATCH) % len(counts)].sum())
        stage = {s: _span_ms(tr, "pipeline.stage." + s) for s in self.STAGES}
        handoffs = _handoffs(tr, self.STAGES)
        wall = _span_ms(tr, "pipeline.run_pipeline")
        props = _anchor_properties(self.anchors, self.records)
        return {
            "geometry.distance_ms": (_per(_span_ms(tr, "geometry.matching_distance_matrix")
                                          + _span_ms(tr, "geometry.euclidean_distance_matrix"),
                                          batches), "ms/batch"),
            "matching.rank_ms_per_box": (_per(_span_ms(tr, "matching.build_rankings"), boxes),
                                         "ms/box"),
            "matching.select_ms_per_box": (_per(_span_ms(tr, "matching.match_parallel"), boxes),
                                           "ms/box"),
            "matching.deltas_ms": (_per(_span_ms(tr, "matching.compute_deltas"), batches),
                                   "ms/batch"),
            "matching.rank_bytes": (_per(tr.counters.get("matching.rank_bytes", 0.0), batches),
                                    "bytes/batch"),
            "matching.rank_depth_used_frac": (_per(self.depth_used, self.row_len), "frac"),
            "matching.fallback_frac.prep-dense": (props["fallback_frac"], "frac"),
            "matching.pos_iou_anchors_p50.prep-dense": (props["pos_iou_anchors_p50"], "count"),
            "sparse_labels.read_ms.prep-dense": (
                _per(tr.counters.get("sparse_labels.read_records.ms", 0.0), batches), "ms/batch"),
            **{f"pipeline.stage_busy_ms.{s}": (_per(ms, batches), "ms/batch")
               for s, ms in stage.items()},
            "pipeline.handoff_ms_p50": (percentile(handoffs, 50) if handoffs else 0.0, "ms"),
            "pipeline.bottleneck_share": (_per(max(stage.values()), wall), "frac"),
        }

    def named_metrics(self):
        lat = summarize(self.latencies_ms) if self.latencies_ms else None
        return {
            "prep_images_per_s": (_per(self.items, self.busy_s), "1/s", self.items),
            "prep_batch_ms_p50": (lat and lat["p50"], "ms", len(self.latencies_ms)),
            "prep_batch_ms_p90": (lat and lat["p90"], "ms", len(self.latencies_ms)),
        }


def _depth_used(ranking, assignment) -> int:
    """Deepest ranking position strict selection consumed in this batch.
    A box whose row ran out, so that selection went on past it, counts as
    one past the row's end."""
    chosen = np.concatenate(assignment.anchor_ids)
    hit = ranking.dist_ids == chosen[:, None]
    depth = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, ranking.dist_ids.shape[1] + 1)
    return int(depth.max()) if len(depth) else 0


def _check_prep_batch(anchors, boxes, assignment, deltas) -> str:
    """Why a prepared batch is wrong, or '' when it is right: strict
    match_parallel must equal match_serial, the deltas must be finite and
    decode_deltas must recover the boxes."""
    if matching.match_serial(anchors, boxes) != assignment:
        return "strict match_parallel differs from match_serial"
    if not all(np.all(np.isfinite(d)) for d in deltas):
        return "non-finite deltas"
    back = matching.decode_deltas(assignment, anchors, deltas)
    if not all(np.allclose(b, g, rtol=1e-9, atol=1e-6) for b, g in zip(back, boxes)):
        return "decode_deltas does not recover the boxes"
    return ""


def _handoffs(tr, stages) -> list[float]:
    """Gap between a batch leaving one stage callable and entering the next."""
    by_op: dict = {}
    for s in tr.spans:
        if s.name.startswith("pipeline.stage."):
            by_op.setdefault(s.op, {})[s.name[len("pipeline.stage."):]] = s
    out = []
    for spans in by_op.values():
        for a, b in zip(stages, stages[1:]):
            if a in spans and b in spans:
                out.append((spans[b].t0 - spans[a].t1) * 1000.0)
    return out


# -------------------------------------------------------------- eval-crowded

class EvalCrowded(Workload):
    """Evaluation-style matching on crowded small boxes: the CLI's four
    matchers over ODR1 chunk files, then per-image nms."""

    name = "eval-crowded"
    item = "images"
    op_unit = "chunk"
    N_IMAGES, SIZE, CHUNK, CHUNK_COUNTS = 96, 320, 4, (16, 24, 32, 40)
    GRID, TEMPLATES = "8x8x3", "12x12,16x24,24x16"
    ALGOS = ("serial", "parallel", "greedy", "exact")
    NMS_THRESH = 0.5

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        counts = inputs.box_counts(rng, self.CHUNK_COUNTS, self.N_IMAGES // self.CHUNK)
        self.records = inputs.label_records(rng, counts, self.SIZE, self.SIZE, 4, 24, 24)
        self.candidates = [inputs.nms_candidates(rng, r) for r in self.records]
        self.chunks = []
        for k in range(0, self.N_IMAGES, self.CHUNK):
            path = os.path.join(workdir, f"eval-{k // self.CHUNK}.odr")
            sparse_labels.write_records(path, self.records[k:k + self.CHUNK])
            self.chunks.append((k, path))
        self.out = {a: os.path.join(workdir, f"eval-{a}.jsonl") for a in self.ALGOS}
        spec = geometry.GridSpec(self.SIZE, self.SIZE, 8, 8, inputs.CROWDED_TEMPLATES)
        self.anchors = geometry.build_anchor_grid(spec)
        self.outputs = []
        self.reset()

    def reset(self):
        self.next_chunk = 0

    def op_items(self):
        return self.CHUNK

    def _op(self):
        first, path = self.chunks[self.next_chunk % len(self.chunks)]
        op_id = self.next_chunk
        self.next_chunk += 1
        self.attempted += self.CHUNK
        t0 = time.perf_counter()
        for algo in self.ALGOS:
            argv = ["match", "--algo", algo, "--records", path, "--grid", self.GRID,
                    "--image", f"{self.SIZE}x{self.SIZE}", "--templates", self.TEMPLATES,
                    "--out", self.out[algo]]
            with self.span("cli.match." + algo, op_id), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"odkit match --algo {algo} exited with {code}")
        kept = []
        with self.span("eval.nms", op_id):
            for cands in self.candidates[first:first + self.CHUNK]:
                kept.append(geometry.nms(cands, self.NMS_THRESH))
        elapsed = time.perf_counter() - t0
        self.busy_s += elapsed
        self.latencies_ms.append(elapsed * 1000.0)
        self.items += self.CHUNK
        texts = {}
        for algo in self.ALGOS:
            with open(self.out[algo], encoding="utf-8") as f:
                texts[algo] = f.read()
        self.outputs.append((first, texts, kept))

    def verify(self):
        for first, texts, kept in self.outputs:
            lines = {a: texts[a].splitlines() for a in self.ALGOS}
            for i in range(self.CHUNK):
                try:
                    why = _check_eval_image(self.records[first + i], self.candidates[first + i],
                                            {a: lines[a][i] if i < len(lines[a]) else "{}"
                                             for a in self.ALGOS},
                                            kept[i], self.NMS_THRESH)
                except Exception as e:
                    why = f"unreadable output: {e!r}"
                if why:
                    self.fail(1, f"image {first + i}: {why}")

    def properties(self):
        return {**_record_properties(self.records), "anchors": len(self.anchors),
                "nms_candidates": sum(len(c) for c in self.candidates),
                **_anchor_properties(self.anchors, self.records)}

    def layer_metrics(self, tr, n_ops):
        images = n_ops * self.CHUNK
        main_spans = tr.named("cli.main")
        selfs = self_ms(tr.spans)
        seen = self.outputs[-n_ops:]
        n_cands = sum(len(self.candidates[first + i]) for first, _, _ in seen
                      for i in range(self.CHUNK))
        n_kept = sum(len(k) for _, _, kept in seen for k in kept)
        props = _anchor_properties(self.anchors, self.records)
        return {
            "geometry.nms_ms_per_image": (_per(_span_ms(tr, "geometry.nms"), images), "ms/image"),
            "geometry.nms_kept_frac": (_per(n_kept, n_cands), "frac"),
            "matching.serial_ms_per_image": (_per(_span_ms(tr, "matching.match_serial"), images),
                                             "ms/image"),
            "matching.greedy_ms_per_image": (
                _per(_span_ms(tr, "matching.match_greedy_bipartite"), images), "ms/image"),
            "matching.exact_ms_per_image": (_per(_span_ms(tr, "matching.match_exact"), images),
                                            "ms/image"),
            "matching.cost_ms": (_per(_span_ms(tr, "matching.cost_matrices"), images), "ms/image"),
            "matching.fallback_frac.eval-crowded": (props["fallback_frac"], "frac"),
            "matching.pos_iou_anchors_p50.eval-crowded": (props["pos_iou_anchors_p50"], "count"),
            **{f"cli.match_ms.{a}": (_per(_span_ms(tr, "cli.match." + a), images), "ms/image")
               for a in self.ALGOS},
            "cli.self_ms": (_per(sum(selfs[s.sid] for s in main_spans), images), "ms/image"),
        }

    def named_metrics(self):
        return {"eval_images_per_s": (_per(self.items, self.busy_s), "1/s", self.items)}


def _check_eval_image(record, candidates, lines: dict, kept, thresh) -> str:
    """Why one image's evaluation output is wrong, or '' when it is right."""
    if lines["parallel"] != lines["serial"]:
        return "parallel JSONL line differs from serial"
    rows = {a: json.loads(line) for a, line in lines.items()}
    if any(len(r.get("assignment", ())) != len(record.boxes) for r in rows.values()):
        return "assignment length differs from box count"
    exact = rows["exact"]["total_weight"]
    if exact > rows["greedy"]["total_weight"] + 1e-9 or exact > rows["serial"]["total_weight"] + 1e-9:
        return "exact total_weight exceeds greedy or serial"
    boxes = np.array([candidates[i].box.as_array() for i in kept]).reshape(-1, 4)
    classes = np.array([candidates[i].class_id for i in kept])
    overlap = geometry.iou_matrix(boxes, boxes) > thresh
    same = classes[:, None] == classes[None, :]
    if np.any(np.triu(overlap & same, k=1)):
        return "nms kept two same-class boxes above the threshold"
    return ""


# ---------------------------------------------------------------- dataset-io

class DatasetIO(Workload):
    """Dataset storage: write every record to ODR1, then scan it back
    (read_records, one encode_batch over all records, decode_batch)."""

    name = "dataset-io"
    item = "records"
    op_unit = "cycle"
    WARMUP_OPS = 0
    SCALED = ("busy_s", "write_s", "scan_s")
    N_IMAGES, W, H = 10000, 640, 480

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        counts = inputs.box_counts(rng, np.resize(np.arange(9), self.N_IMAGES), 1)
        self.records = inputs.label_records(rng, counts, self.W, self.H, 2, self.W, self.H)
        self.path = os.path.join(workdir, "dataset-io.odr")

    def op_items(self):
        return len(self.records)

    def _op(self):
        n = len(self.records)
        self.attempted += n
        t0 = time.perf_counter()
        written = sparse_labels.write_records(self.path, self.records)
        t1 = time.perf_counter()
        back = list(sparse_labels.read_records(self.path))
        decoded = sparse_labels.decode_batch(sparse_labels.encode_batch(back))
        t2 = time.perf_counter()
        self.write_s += t1 - t0
        self.scan_s += t2 - t1
        self.busy_s += t2 - t0
        self.latencies_ms.append((t2 - t0) * 1000.0)
        self.items += n
        self.bytes = os.path.getsize(self.path)
        bad = _check_io(self.records, written, back, decoded)
        if bad:
            self.fail(bad, f"{bad} records did not round-trip")

    def properties(self):
        return {**_record_properties(self.records),
                "file_bytes": os.path.getsize(self.path) if os.path.exists(self.path) else 0}

    def layer_metrics(self, tr, n_ops):
        p = _record_properties(self.records)
        per = {"write": "sparse_labels.write_records", "encode": "sparse_labels.encode_batch",
               "decode": "sparse_labels.decode_batch", "validate": "sparse_labels.validate"}
        return {
            **{f"sparse_labels.{k}_ms": (_per(_span_ms(tr, v), n_ops), "ms/cycle")
               for k, v in per.items()},
            "sparse_labels.read_ms": (
                _per(tr.counters.get("sparse_labels.read_records.ms", 0.0), n_ops), "ms/cycle"),
            "sparse_labels.records": (p["images"], "count"),
            "sparse_labels.boxes": (p["boxes"], "count"),
            "sparse_labels.bytes": (self.bytes, "bytes"),
        }

    def named_metrics(self):
        n = len(self.latencies_ms)
        return {
            "io_write_records_per_s": (_per(self.items, self.write_s), "1/s", n),
            "io_scan_records_per_s": (_per(self.items, self.scan_s), "1/s", n),
        }


def _check_io(records, written, back, decoded) -> int:
    """Count records that did not survive the write, read and decode."""
    if written != len(records) or len(back) != len(records) or len(decoded) != len(records):
        return len(records)
    bad = 0
    for rec, got, (boxes, classes) in zip(records, back, decoded):
        if not (got == rec and np.array_equal(boxes, rec.boxes)
                and np.array_equal(classes, rec.classes)):
            bad += 1
    return bad


# ---------------------------------------------------------------------- tune

class Tune(Workload):
    """Hyperparameter search: ask/evaluate/tell on the bundled table3
    space, with a save_state/load_state checkpoint every 100 trials. Each
    study in a run starts from its own optimizer seed, so one run averages
    over several searches."""

    name = "tune"
    item = "trials"
    op_unit = "trial"
    WARMUP_OPS = 0  # a warm-up would have to be a whole study
    TRIALS, CHECKPOINT_EVERY = 1000, 100

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.space = hyperopt.load_bundled_space("table3")
        self.objective = inputs.tune_objective(rng, self.space.lows, self.space.highs)
        self.first_seed = int(rng.integers(0, 2**31))
        self.path = os.path.join(workdir, "tune.ckpt")
        self.first_log = None
        self.local_asks = self.asks = 0
        self.fallbacks: list[int] = []
        self.reset()

    def reset(self):
        self.study = 0
        self.state = None

    def done(self):
        return self.state is None

    def op_items(self):
        return self.CHECKPOINT_EVERY

    def _op(self):
        # one operation is the trials up to and including a checkpoint; a
        # study that raises is dropped and the next operation starts afresh
        state, self.state = self.state, None
        if state is None:
            self.opt_seed = self.first_seed + self.study
            self.study += 1
            self.log = []
            state = hyperopt.new_optimizer(self.space, seed=self.opt_seed)
        self.attempted += self.CHECKPOINT_EVERY
        t_op = time.perf_counter()
        for _ in range(self.CHECKPOINT_EVERY):
            with self.span("tune.trial", (self.opt_seed, len(self.log))):
                t0 = time.perf_counter()
                x = hyperopt.ask(state)
                t1 = time.perf_counter()
                value = self.objective(x)
                t2 = time.perf_counter()
                hyperopt.tell(state, x, value)
                t3 = time.perf_counter()
            self.latencies_ms.append((t1 - t0 + t3 - t2) * 1000.0)
            self.asks += 1
            self.local_asks += state.phase == "local"
            self.log.append((tuple(x), value))
        hyperopt.save_state(state, self.path)
        loaded = hyperopt.load_state(self.path)
        self.busy_s += time.perf_counter() - t_op
        self.items += self.CHECKPOINT_EVERY
        if not _same_state(state, loaded):
            self.fail(1, f"checkpoint at trial {len(self.log)} differs from the saved state")
        out = sum(not self.space.contains(np.array(p))
                  for p, _ in self.log[-self.CHECKPOINT_EVERY:])
        if out:
            self.fail(out, f"{out} trial points outside the space")
        if len(self.log) < self.TRIALS:
            self.state = loaded
            return
        self.fallbacks.append(loaded.tr_fallbacks)
        if self.first_log is None:
            self.first_log = (self.opt_seed, self.log[:2 * self.CHECKPOINT_EVERY])

    def verify(self):
        """Repeat the start of the first study with its seed, without
        checkpoints: the trial log must be the same."""
        if self.first_log is None:
            return
        seed, ref = self.first_log
        log = []
        try:
            state = hyperopt.new_optimizer(self.space, seed=seed)
            for _ in ref:
                x = hyperopt.ask(state)
                value = self.objective(x)
                hyperopt.tell(state, x, value)
                log.append((tuple(x), value))
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
        diff = len(ref) - len(log) + sum(a != b for a, b in zip(log, ref))
        if diff:
            self.fail(diff, "repeat with one seed gave another trial log")

    def properties(self):
        return {"dims": self.space.d, "trials_per_study": self.TRIALS,
                "checkpoint_every": self.CHECKPOINT_EVERY,
                "tr_fallbacks_per_study": self.fallbacks}

    def layer_metrics(self, tr, n_ops):
        ask = [s.ms for s in tr.named("hyperopt.ask")]
        tell = [s.ms for s in tr.named("hyperopt.tell")]
        ckpt = _span_ms(tr, "hyperopt.save_state") + _span_ms(tr, "hyperopt.load_state")
        n_ckpt = len(tr.named("hyperopt.save_state"))
        return {
            "hyperopt.ask_ms_p50": (percentile(ask, 50) if ask else 0.0, "ms"),
            "hyperopt.ask_ms_p90": (percentile(ask, 90) if ask else 0.0, "ms"),
            "hyperopt.tell_ms_p50": (percentile(tell, 50) if tell else 0.0, "ms"),
            "hyperopt.tell_ms_p90": (percentile(tell, 90) if tell else 0.0, "ms"),
            "hyperopt.local_frac": (_per(self.local_asks, self.asks), "frac"),
            "hyperopt.tr_fallbacks": (_per(sum(self.fallbacks), len(self.fallbacks)), "count"),
            "hyperopt.checkpoint_ms": (_per(ckpt, n_ckpt), "ms"),
        }

    def named_metrics(self):
        lat = summarize(self.latencies_ms) if self.latencies_ms else None
        n = len(self.latencies_ms)
        return {
            "tune_trials_per_s": (_per(self.items, self.busy_s), "1/s", self.items),
            "tune_trial_ms_p50": (lat and lat["p50"], "ms", n),
            "tune_trial_ms_p90": (lat and lat["p90"], "ms", n),
        }


def _same_state(a, b) -> bool:
    """Whether a loaded optimizer state equals the one that was saved."""
    if len(a.trials) != len(b.trials):
        return False
    for x, y in zip(a.trials, b.trials):
        if not (np.array_equal(x.point, y.point) and x.value == y.value and x.seq == y.seq):
            return False
    scalars = ("exploration_p", "alpha", "noise_eps", "rng_seed", "lipschitz_k",
               "tr_radius", "phase", "tr_fallbacks")
    if any(getattr(a, k) != getattr(b, k) for k in scalars) or a.space != b.space:
        return False
    if (a.pending is None) != (b.pending is None):
        return False
    if (a.tr is None) != (b.tr is None) or (a.tr is not None and not (
            np.array_equal(a.tr.center, b.tr.center) and a.tr.radius == b.tr.radius
            and np.array_equal(a.tr.quad_coeffs, b.tr.quad_coeffs))):
        return False
    return a.rng.bit_generator.state == b.rng.bit_generator.state


WORKLOADS = {cls.name: cls for cls in (PrepDense, EvalCrowded, DatasetIO, Tune)}

# Module attributes the traced run wraps, with the span name each gets.
# ``fanout`` marks calls that start worker threads (see tracing.py).
WRAPS = (
    ("odkit.matching.matching_distance_matrix", "geometry.matching_distance_matrix", False),
    ("odkit.matching.euclidean_distance_matrix", "geometry.euclidean_distance_matrix", False),
    ("odkit.geometry.nms", "geometry.nms", False),
    ("odkit.matching.build_rankings", "matching.build_rankings", True),
    ("odkit.matching.match_parallel", "matching.match_parallel", True),
    ("odkit.matching.match_serial", "matching.match_serial", False),
    ("odkit.matching.match_greedy_bipartite", "matching.match_greedy_bipartite", False),
    ("odkit.matching.match_exact", "matching.match_exact", False),
    ("odkit.matching.cost_matrices", "matching.cost_matrices", False),
    ("odkit.matching.compute_deltas", "matching.compute_deltas", False),
    ("odkit.sparse_labels.write_records", "sparse_labels.write_records", False),
    ("odkit.sparse_labels.encode_batch", "sparse_labels.encode_batch", False),
    ("odkit.sparse_labels.decode_batch", "sparse_labels.decode_batch", False),
    ("odkit.sparse_labels.SparseLabelBatch.validate", "sparse_labels.validate", False),
    ("odkit.pipeline.run_pipeline", "pipeline.run_pipeline", True),
    ("odkit.hyperopt.ask", "hyperopt.ask", False),
    ("odkit.hyperopt.tell", "hyperopt.tell", False),
    ("odkit.hyperopt.save_state", "hyperopt.save_state", False),
    ("odkit.hyperopt.load_state", "hyperopt.load_state", False),
    ("odkit.cli.main", "cli.main", False),
)


def install_wraps(tr) -> None:
    def rank_bytes(ranking):
        tr.count("matching.rank_bytes", sum(v.nbytes for v in vars(ranking).values()
                                            if isinstance(v, np.ndarray)))
    for target, name, fanout in WRAPS:
        tr.wrap(target, name, fanout,
                on_result=rank_bytes if name == "matching.build_rankings" else None)
    tr.wrap_iter("odkit.sparse_labels.read_records", "sparse_labels.read_records")
