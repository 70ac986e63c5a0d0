"""Release gate: ten end-to-end checks, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -s`` to see every verdict line;
without ``-s`` pytest only shows stdout for failing tests. Each check
also asserts, so a FAIL line always fails the suite. Checks with a
runtime budget fold the elapsed time into their verdict.
"""

from __future__ import annotations

import time

import numpy as np

from odkit import (
    GridSpec,
    MatchAssignment,
    MatchConfig,
    PipelineConfig,
    RecordCorruptionError,
    RecordFormatError,
    SearchSpace,
    SparseLabelBatch,
    StageSpec,
    best,
    build_anchor_grid,
    build_rankings,
    compare_pipelines,
    compute_deltas,
    cost_matrices,
    decode_batch,
    decode_deltas,
    encode_batch,
    gen_synthetic,
    get_objective,
    load_bundled_space,
    match_exact,
    match_greedy_bipartite,
    match_parallel,
    match_serial,
    match_serial_cost,
    new_optimizer,
    read_records,
    run_optimization,
    total_weight,
    write_records,
)
from odkit.hyperopt import Dim
from oracles import brute_force_exact, pure_random_search, serial_match_reference

COST_2X2 = np.array([[10.0, 1000.0], [15.0, 500.0]])

CE_ANCHORS = np.array([[10, 10, 8, 8], [30, 10, 8, 8], [50, 10, 8, 8]], float)
CE_BOXES = np.array([[10, 10, 8, 8], [30, 10, 8, 8], [11, 10, 8, 8]], float)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def to_sparse(batch) -> SparseLabelBatch:
    idx, vals = [], []
    for i, boxes in enumerate(batch):
        for o, b in enumerate(boxes):
            idx.append((i, o))
            vals.append(b)
    return SparseLabelBatch(
        rois_idx=np.array(idx, np.int64).reshape(-1, 2),
        rois_values=np.array(vals, float).reshape(-1, 4),
        classes=np.zeros(len(vals), np.int64),
        batch_size=len(batch))


def _random_instance(rng: np.random.Generator, max_grid: int, max_templates: int,
                     max_images: int, max_boxes: int, image: int):
    """Random grid anchors plus per-image boxes, capped so capacity holds."""
    gw = int(rng.integers(2, max_grid + 1))
    gh = int(rng.integers(2, max_grid + 1))
    k = int(rng.integers(1, max_templates + 1))
    templates = tuple((float(rng.integers(6, image // 3)), float(rng.integers(6, image // 3)))
                      for _ in range(k))
    spec = GridSpec(image_w=image, image_h=image, grid_w=gw, grid_h=gh,
                    templates=templates)
    anchors = build_anchor_grid(spec)
    batch = []
    for _ in range(int(rng.integers(1, max_images + 1))):
        nb = int(rng.integers(0, min(max_boxes, len(anchors)) + 1))
        boxes = np.empty((nb, 4))
        for b in range(nb):
            w = float(rng.integers(4, image // 2))
            h = float(rng.integers(4, image // 2))
            boxes[b] = (float(rng.uniform(w / 2, image - w / 2)),
                        float(rng.uniform(h / 2, image - h / 2)), w, h)
        batch.append(boxes)
    return anchors, batch


def test_01_serial_and_greedy_totals_on_2x2():
    t0 = time.perf_counter()
    serial = match_serial_cost(COST_2X2, traversal=[1, 0])
    w_serial = total_weight(serial, [COST_2X2])
    w_greedy = total_weight(match_greedy_bipartite(COST_2X2), [COST_2X2])
    elapsed = time.perf_counter() - t0
    ok = w_serial == 1015.0 and w_greedy == 510.0 and elapsed < 1.0
    _verdict(1, "2x2 cost matrix: serial total 1015, greedy total 510", ok,
             f"serial={w_serial:g} greedy={w_greedy:g} {elapsed * 1000:.1f} ms")


def test_02_serial_parallel_equivalence_1000_instances():
    t0 = time.perf_counter()
    n_equal = 0
    n, n_scanned = 1000, 40
    scanned = []
    for seed in range(n):
        rng = np.random.default_rng(seed)
        anchors, batch = _random_instance(rng, max_grid=12, max_templates=9,
                                          max_images=8, max_boxes=16, image=192)
        sparse = to_sparse(batch)
        par = match_parallel(build_rankings(anchors, sparse), sparse, MatchConfig())
        if match_serial(anchors, batch) == par:
            n_equal += 1
        if seed < n_scanned:
            scanned.append((anchors, batch, par))
    elapsed = time.perf_counter() - t0
    # outside the timed window: strict parallel and serial select with one
    # kernel, so the first instances are also checked, image by image,
    # against the direct scan, which shares no code with either
    n_images = n_same = 0
    for anchors, batch, par in scanned:
        for boxes, ids in zip(batch, par.anchor_ids):
            n_images += 1
            n_same += ids.tolist() == serial_match_reference(anchors, boxes)
    ok = n_equal == n and n_same == n_images and elapsed < 60.0
    _verdict(2, f"parallel(strict) equals serial on 1000 random instances, "
                f"and the direct scan on the first {n_scanned}", ok,
             f"{n_equal}/{n} equal, {n_same}/{n_images} images as the scan, {elapsed:.1f} s")


def test_03_exact_dominates_and_matches_brute_force():
    t0 = time.perf_counter()
    n = 500
    n_dom = n_brute = 0
    rng = np.random.default_rng(33)
    for _ in range(n):
        anchors, batch = _random_instance(rng, max_grid=4, max_templates=4,
                                          max_images=1, max_boxes=6, image=96)
        costs = cost_matrices(anchors, batch)
        exact = match_exact(costs)
        w_exact = total_weight(exact, costs)
        w_greedy = total_weight(match_greedy_bipartite(costs), costs)
        w_serial = total_weight(match_serial(anchors, batch), costs)
        if w_exact <= w_greedy + 1e-9 and w_exact <= w_serial + 1e-9:
            n_dom += 1
        bf_total, bf_ids = brute_force_exact(costs[0], candidates_per_box=6)
        if (tuple(exact.anchor_ids[0].tolist()) == bf_ids
                and abs(bf_total - w_exact) <= 1e-9):
            n_brute += 1
    elapsed = time.perf_counter() - t0
    ok = n_dom == n and n_brute == n and elapsed < 60.0
    _verdict(3, "exact <= greedy/serial and equals brute force on 500 instances", ok,
             f"dominance {n_dom}/{n}, brute-force {n_brute}/{n}, {elapsed:.1f} s")


def test_04_unique_rank0_anchors_force_agreement():
    rng = np.random.default_rng(4)
    grids = [build_anchor_grid(GridSpec(image_w=im, image_h=im, grid_w=g, grid_h=g,
                                        templates=tuple((12.0 + 6 * t, 10.0 + 4 * t)
                                                        for t in range(k))))
             for g, k, im in ((4, 2, 128), (3, 3, 96), (5, 2, 160))]
    n = 500
    n_agree = 0
    for trial in range(n):
        anchors = grids[trial % len(grids)]
        nb = int(rng.integers(2, 7))
        picks = rng.choice(len(anchors), size=nb, replace=False)
        batch = [np.array([anchors[p] + [rng.uniform(-1, 1), rng.uniform(-1, 1), 0, 0]
                           for p in picks])]
        sparse = to_sparse(batch)
        ranking = build_rankings(anchors, sparse)
        rank0 = ranking.dist_ids[:, 0]
        if len(np.unique(rank0)) != nb:
            continue  # construction failed its own precondition; counts as disagreement
        costs = cost_matrices(anchors, batch)
        results = [match_serial(anchors, batch),
                   match_parallel(ranking, sparse, MatchConfig()),
                   match_greedy_bipartite(costs),
                   match_exact(costs)]
        if all(r == results[0] for r in results[1:]):
            n_agree += 1
    ok = n_agree == n
    _verdict(4, "all four matchers agree when rank-0 anchors are unique", ok,
             f"{n_agree}/{n} agree")


def test_05_dedup_modes_diverge_on_counter_example():
    batch = [CE_BOXES]
    sparse = to_sparse(batch)
    ranking = build_rankings(CE_ANCHORS, sparse)
    strict = match_parallel(ranking, sparse, MatchConfig(dedup_mode="strict"))
    literal = match_parallel(ranking, sparse, MatchConfig(dedup_mode="paper_literal"))
    serial = match_serial(CE_ANCHORS, batch)
    diverge = not np.array_equal(strict.anchor_ids[0], literal.anchor_ids[0])
    duplicated = len(set(literal.anchor_ids[0].tolist())) < len(literal.anchor_ids[0])
    ok = diverge and duplicated and strict == serial
    _verdict(5, "strict and previous-selection-only dedup pick different anchors", ok,
             f"strict={strict.anchor_ids[0].tolist()} "
             f"literal={literal.anchor_ids[0].tolist()}")


def test_06_convergence_on_shifted_quadratic():
    t0 = time.perf_counter()
    space = SearchSpace((Dim("x", 0.0, 1.0), Dim("y", 0.0, 1.0)))
    f = get_objective("quad2")
    target = np.array([0.3, 0.7])
    n_seeds, budget = 20, 200
    hits = 0
    bests = []
    for seed in range(n_seeds):
        state = run_optimization(new_optimizer(space, seed=seed), f, budget)
        top = best(state)
        bests.append(top.value)
        if float(np.linalg.norm(top.point - target)) <= 1e-2:
            hits += 1
    baseline = [pure_random_search(f, space.lows, space.highs, budget, seed)
                for seed in range(n_seeds)]
    med_ok = float(np.median(bests)) >= float(np.median(baseline))
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and med_ok and elapsed < 30.0
    _verdict(6, "best point lands within 1e-2 of the optimum for >= 18/20 seeds", ok,
             f"hits {hits}/{n_seeds}, median {np.median(bests):.2e} vs "
             f"random {np.median(baseline):.2e}, {elapsed:.1f} s")


def test_07_bundled_space_70_trial_conformance():
    space = load_bundled_space("table3")
    lows, highs = space.lows, space.highs

    def f(x):
        z = (np.asarray(x) - lows) / (highs - lows)
        return -float(np.sum((z - 0.5) ** 2))

    state = run_optimization(new_optimizer(space, seed=7), f, budget=70)
    pts = np.array([t.point for t in state.trials])
    apg = pts[:, [d.name for d in space.dims].index("ANCHOR_PER_GRID")]
    in_bounds = bool(np.all((pts >= lows) & (pts <= highs)))
    integral = bool(np.all(apg == np.round(apg)) and np.all((apg >= 1) & (apg <= 16)))
    ok = len(state.trials) == 70 and in_bounds and integral
    _verdict(7, "70 trials on the bundled space stay in bounds, anchor count integral",
             ok, f"{len(state.trials)} trials, in_bounds={in_bounds}, integral={integral}")


def test_08_pipeline_model_agreement():
    records = gen_synthetic(seed=8, n_images=60, max_boxes=4, image_w=96, image_h=96)

    def stages():
        return [StageSpec("load", fixed_ms=10.0), StageSpec("match", fixed_ms=5.0)]

    sync = PipelineConfig(stages=stages(), batch_size=2, prefetch_depth=0, n_batches=30)
    pre = PipelineConfig(stages=stages(), batch_size=2, prefetch_depth=3, n_batches=30)
    cmp_ = compare_pipelines(sync, pre, records)
    predicted = cmp_.report_b.predicted_batches_per_sec
    measured = cmp_.report_b.batches_per_sec
    model_ok = predicted == 100.0 and cmp_.predicted_speedup == 1.5
    tp_ok = abs(measured - 100.0) / 100.0 <= 0.2
    sp_ok = abs(cmp_.speedup - 1.5) / 1.5 <= 0.2
    ok = model_ok and tp_ok and sp_ok
    _verdict(8, "measured throughput within 20% of 100 b/s, speedup within 20% of 1.5x",
             ok, f"measured {measured:.1f} b/s, speedup {cmp_.speedup:.2f}x")


def test_09_record_format_round_trips(tmp_path):
    records = gen_synthetic(seed=9, n_images=1000, max_boxes=6,
                            image_w=640, image_h=480)
    path = tmp_path / "labels.odr"
    n_written = write_records(path, records)
    back = list(read_records(path))
    io_ok = n_written == 1000 and back == records
    decoded = decode_batch(encode_batch(records))
    enc_ok = len(decoded) == 1000 and all(
        np.array_equal(boxes, rec.boxes) and np.array_equal(cls, rec.classes)
        for (boxes, cls), rec in zip(decoded, records))
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad.odr"
    bad_magic.write_bytes(b"XDR1" + raw[4:])
    try:
        list(read_records(bad_magic))
        magic_ok = False
    except RecordFormatError:
        magic_ok = True
    truncated = tmp_path / "short.odr"
    truncated.write_bytes(raw[:-7])
    try:
        list(read_records(truncated))
        trunc_ok = False
    except RecordCorruptionError:
        trunc_ok = True
    ok = io_ok and enc_ok and magic_ok and trunc_ok
    _verdict(9, "1000-record file and batch round trips, corruption detected", ok,
             f"file={io_ok} batch={enc_ok} magic={magic_ok} truncation={trunc_ok}")


def test_10_delta_round_trip_1000_pairs():
    rng = np.random.default_rng(10)
    n = 1000
    anchors = np.column_stack([rng.uniform(40, 600, n), rng.uniform(40, 440, n),
                               rng.uniform(2, 64, n), rng.uniform(2, 64, n)])
    gts = np.column_stack([rng.uniform(40, 600, n), rng.uniform(40, 440, n),
                           rng.uniform(2, 64, n), rng.uniform(2, 64, n)])
    a = MatchAssignment([np.arange(n)])
    deltas = compute_deltas(a, anchors, [gts])
    back = decode_deltas(a, anchors, deltas)[0]
    rel = float(np.max(np.abs(back - gts) / np.abs(gts)))
    zero = compute_deltas(a, anchors, [anchors.copy()])[0]
    ok = rel <= 1e-6 and np.all(zero == 0.0)
    _verdict(10, "decode(encode) recovers ground truth, identical pair gives zeros",
             ok, f"max rel err {rel:.2e}, zeros exact={bool(np.all(zero == 0.0))}")
