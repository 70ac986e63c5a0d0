"""Independent reference implementations used to check the package.

Everything here is deliberately written by a different method than the
library code: IOU by point counting instead of interval arithmetic,
assignments by exhaustive enumeration instead of Hungarian/greedy
selection, search baselines by plain uniform sampling. Slow is fine;
these run at test scale only. The exceptions are the frozen earlier
matcher and optimizer code, which faster rewrites must reproduce exactly.
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np


def mc_iou(a, b, n: int = 200_000, seed: int = 0) -> float:
    """Monte-Carlo IOU estimate: sample the joint bounding rectangle and
    count hits. Standard error is about 1.5e-3 at the default n."""
    ax1, ax2 = a[0] - a[2] / 2, a[0] + a[2] / 2
    ay1, ay2 = a[1] - a[3] / 2, a[1] + a[3] / 2
    bx1, bx2 = b[0] - b[2] / 2, b[0] + b[2] / 2
    by1, by2 = b[1] - b[3] / 2, b[1] + b[3] / 2
    lo_x, hi_x = min(ax1, bx1), max(ax2, bx2)
    lo_y, hi_y = min(ay1, by1), max(ay2, by2)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo_x, hi_x, n)
    ys = rng.uniform(lo_y, hi_y, n)
    in_a = (ax1 <= xs) & (xs <= ax2) & (ay1 <= ys) & (ys <= ay2)
    in_b = (bx1 <= xs) & (xs <= bx2) & (by1 <= ys) & (ys <= by2)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def cell_iou(a, b, cells_per_unit: int = 8) -> float:
    """Exact IOU for boxes whose edges lie on the 1/cells_per_unit lattice,
    computed by counting lattice cells via their center points."""
    ax1, ax2 = a[0] - a[2] / 2, a[0] + a[2] / 2
    ay1, ay2 = a[1] - a[3] / 2, a[1] + a[3] / 2
    bx1, bx2 = b[0] - b[2] / 2, b[0] + b[2] / 2
    by1, by2 = b[1] - b[3] / 2, b[1] + b[3] / 2
    lo_x = int(np.floor(min(ax1, bx1) * cells_per_unit))
    hi_x = int(np.ceil(max(ax2, bx2) * cells_per_unit))
    lo_y = int(np.floor(min(ay1, by1) * cells_per_unit))
    hi_y = int(np.ceil(max(ay2, by2) * cells_per_unit))
    cx = (np.arange(lo_x, hi_x) + 0.5) / cells_per_unit
    cy = (np.arange(lo_y, hi_y) + 0.5) / cells_per_unit
    xs, ys = np.meshgrid(cx, cy)
    in_a = (ax1 < xs) & (xs < ax2) & (ay1 < ys) & (ys < ay2)
    in_b = (bx1 < xs) & (xs < bx2) & (by1 < ys) & (ys < by2)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def serial_match_reference(anchors: np.ndarray, boxes: np.ndarray) -> list[int]:
    """Traversal-order matching, written as direct scans with no argsort,
    no matrices and no ranking structures."""
    used = set()
    out = []
    for g in range(len(boxes)):
        best_iou, best_iou_a = 0.0, None
        best_ed, best_ed_a = float("inf"), None
        for a in range(len(anchors)):
            if a in used:
                continue
            v = _plain_iou(boxes[g], anchors[a])
            if v > best_iou:
                best_iou, best_iou_a = v, a
            ed = float(np.sqrt(np.sum((boxes[g] - anchors[a]) ** 2)))
            if ed < best_ed:
                best_ed, best_ed_a = ed, a
        pick = best_iou_a if best_iou_a is not None else best_ed_a
        out.append(pick)
        used.add(pick)
    return out


def _plain_iou(a, b) -> float:
    ix = min(a[0] + a[2] / 2, b[0] + b[2] / 2) - max(a[0] - a[2] / 2, b[0] - b[2] / 2)
    iy = min(a[1] + a[3] / 2, b[1] + b[3] / 2) - max(a[1] - a[3] / 2, b[1] - b[3] / 2)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def brute_force_exact(cost: np.ndarray, candidates_per_box: int | None = None):
    """Minimum-total assignment by exhaustive enumeration.

    Returns (total, anchors tuple), where the tuple is the
    lexicographically smallest among the optimal assignments reachable
    from the candidate sets. With candidates_per_box = None every column is
    a candidate (full enumeration; use only for small matrices). With a
    limit, each row's candidates are its cheapest columns (ties toward the
    lower index); any optimal total is still reachable because a row using
    a non-candidate column can always be swapped onto an unused candidate
    column without increasing the total.
    """
    cost = np.asarray(cost, dtype=np.float64)
    nb, na = cost.shape
    if candidates_per_box is None:
        cand = [list(range(na))] * nb
    else:
        m = min(max(candidates_per_box, nb), na)
        cand = [list(np.argsort(cost[g], kind="stable")[:m]) for g in range(nb)]
        cand = [sorted(c) for c in cand]  # lex order for first-found ties
    best_total, best_tuple = float("inf"), None

    def rec(g, used, acc, picks):
        nonlocal best_total, best_tuple
        if g == nb:
            if acc < best_total - 1e-12:
                best_total, best_tuple = acc, tuple(picks)
            return
        for a in cand[g]:
            if a in used:
                continue
            rec(g + 1, used | {a}, acc + cost[g, a], picks + [a])

    rec(0, frozenset(), 0.0, [])
    return best_total, best_tuple


def full_permutation_exact(cost: np.ndarray):
    """All-permutation minimum assignment; lex-smallest on ties. Only for
    tiny matrices."""
    cost = np.asarray(cost, dtype=np.float64)
    nb, na = cost.shape
    best_total, best_tuple = float("inf"), None
    for perm in itertools.permutations(range(na), nb):
        t = float(sum(cost[g, a] for g, a in enumerate(perm)))
        if t < best_total - 1e-12 or (abs(t - best_total) <= 1e-12
                                      and (best_tuple is None or perm < best_tuple)):
            best_total, best_tuple = t, perm
    return best_total, best_tuple


# Earlier library code, frozen as it was before a faster rewrite that must
# reproduce it exactly: the same picks, and for the exact matcher the same
# Hungarian solves.

def edge_scan_greedy(cost) -> list[int]:
    """``match_greedy_bipartite`` on one matrix as a scan of every edge in
    (cost, box, anchor) order."""
    c = np.asarray(cost, dtype=np.float64)
    nb, na = c.shape
    # the flat index is box-major, so a stable sort of the costs
    # orders edges by (cost, box, anchor)
    order = np.argsort(c, axis=None, kind="stable")
    box_idx, anchor_idx = np.divmod(order, na)
    box_done = np.zeros(nb, dtype=bool)
    anchor_done = np.zeros(na, dtype=bool)
    chosen = np.empty(nb, dtype=np.int64)
    remaining = nb
    for b, a in zip(box_idx.tolist(), anchor_idx.tolist()):
        if box_done[b] or anchor_done[a]:
            continue
        chosen[b] = a
        box_done[b] = True
        anchor_done[a] = True
        remaining -= 1
        if remaining == 0:
            break
    return chosen.tolist()


def per_row_refine(c, rc, best, margin, carry, hungarian):
    """``matching._refine`` with a copy of the remaining rows and columns
    per row, each candidate solve cut from it by ``np.delete``;
    ``hungarian`` solves (see ``matching._hungarian``)."""
    nb = c.shape[0]
    rows = np.arange(nb)
    avail = np.arange(c.shape[1])
    carry = carry.copy()
    prefix = prefix_rc = 0.0
    for g in range(nb):
        trials = prefix + c[g, avail]
        rest = c[g + 1:, avail]
        for pos in np.flatnonzero(prefix_rc + rc[g, avail] <= margin):
            if avail[pos] == carry[g]:
                witness = float(c[rows[g + 1:], carry[g + 1:]].sum())
                if math.isclose(trials[pos] + witness, best, rel_tol=1e-12, abs_tol=1e-9):
                    break
            total, cols = hungarian(np.delete(rest, pos, axis=1))
            if math.isclose(trials[pos] + total, best, rel_tol=1e-12, abs_tol=1e-9):
                carry[g] = avail[pos]
                carry[g + 1:] = np.delete(avail, pos)[cols]
                break
        else:
            raise AssertionError("optimal refinement failed to extend prefix")
        prefix = trials[pos]
        prefix_rc += rc[g, avail[pos]]
        avail = np.delete(avail, pos)
    return carry


def per_row_exact(cost, hungarian=None) -> list[int]:
    """``match_exact`` on one non-empty matrix, refined by
    ``per_row_refine``; ``hungarian`` defaults to ``matching._hungarian``."""
    from odkit import matching

    hungarian = hungarian or matching._hungarian
    c = np.asarray(cost, dtype=np.float64)
    best, cols = hungarian(c)
    tol = 1e-9 * max(1.0, abs(best))
    margin = 4 * tol + 1e-12 * float(np.abs(c).sum())
    rc = matching._reduced_costs(c, cols)
    keep = np.flatnonzero(rc.min(axis=0) <= margin)
    picks = per_row_refine(c[:, keep], rc[:, keep], best, margin,
                           np.searchsorted(keep, cols), hungarian)
    return keep[picks].tolist()


def nms_reference(boxes, scores, classes, thresh: float) -> list[int]:
    """Greedy per-class suppression by direct pairwise scans: visit
    candidates by descending score (lower index first on ties) and keep one
    unless a kept candidate of its class overlaps it by more than thresh."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(classes[j] != classes[i] or _plain_iou(boxes[i], boxes[j]) <= thresh
               for j in kept):
            kept.append(i)
    return kept


def box_error_reference(x, y, w, h):
    """``Box``'s value check as it was with one ``np.isfinite`` call per
    value, frozen: the InvalidBoxError message it raised, or None."""
    vals = (x, y, w, h)
    if not all(np.isfinite(v) for v in vals):
        return f"non-finite box {vals}"
    if w <= 0 or h <= 0:
        return f"non-positive box dimensions {vals}"
    return None


def score_error_reference(score):
    """``ScoredBox``'s score check as it was with ``np.isfinite``, frozen:
    the ValueError message it raised, or None."""
    if not np.isfinite(score) or not 0.0 <= score <= 1.0:
        return f"score must be finite and in [0, 1], got {score}"
    return None


def random_geometric_instance(rng: np.random.Generator, max_images: int = 4,
                              max_boxes: int = 6, image_w: int = 96, image_h: int = 96):
    """A random anchor set plus per-image ground-truth boxes, sized so
    every image fits its boxes."""
    from odkit import GridSpec, build_anchor_grid

    gw = int(rng.integers(2, 5))
    gh = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    templates = tuple((float(rng.integers(8, 48)), float(rng.integers(8, 48)))
                      for _ in range(k))
    spec = GridSpec(image_w=image_w, image_h=image_h, grid_w=gw, grid_h=gh,
                    templates=templates)
    anchors = build_anchor_grid(spec)
    n_images = int(rng.integers(1, max_images + 1))
    batch = []
    for _ in range(n_images):
        nb = int(rng.integers(0, min(max_boxes, len(anchors)) + 1))
        boxes = np.empty((nb, 4))
        for b in range(nb):
            w = float(rng.integers(4, image_w))
            h = float(rng.integers(4, image_h))
            x = float(rng.uniform(w / 2, image_w - w / 2))
            y = float(rng.uniform(h / 2, image_h - h / 2))
            boxes[b] = (x, y, w, h)
        batch.append(boxes)
    return anchors, batch


def random_grid_spec(rng: np.random.Generator):
    """A GridSpec of 1-16 columns and 1-16 rows with 1-9 templates drawn
    from a smaller pool, so templates repeat; sizes are half-pixels."""
    from odkit import GridSpec

    pool = rng.integers(1, 400, (int(rng.integers(1, 10)), 2)) / 2
    k = int(rng.integers(1, 10))
    templates = tuple(map(tuple, pool[rng.integers(len(pool), size=k)]))
    return GridSpec(image_w=float(rng.integers(8, 1000)), image_h=float(rng.integers(8, 1000)),
                    grid_w=int(rng.integers(1, 17)), grid_h=int(rng.integers(1, 17)),
                    templates=templates)


def grid_stress_boxes(rng: np.random.Generator, anchors: np.ndarray, n: int) -> np.ndarray:
    """``n`` boxes placed against ``anchors`` where the IOU and distance
    terms are delicate: centred exactly on an anchor and sized exactly like
    one of the templates, touching an anchor's edge, nested in or around
    one, sub-pixel, huge (areas near 1e300), or anywhere on the image."""
    span = anchors[:, :2].max(axis=0) * 2
    boxes = np.empty((n, 4))
    for b in range(n):
        anchor = anchors[rng.integers(len(anchors))]
        kind = int(rng.integers(6))
        if kind == 0:
            boxes[b] = (*anchor[:2], *anchors[rng.integers(len(anchors)), 2:])
        elif kind == 1:
            w, h = rng.integers(1, 64, 2) / 4
            side = int(rng.integers(2))
            centre = anchor[:2].copy()
            centre[side] += (anchor[2 + side] + (w, h)[side]) / 2 * rng.choice([-1, 1])
            boxes[b] = (*centre, w, h)
        elif kind == 2:
            boxes[b] = (*anchor[:2], *(anchor[2:] * rng.choice([0.25, 0.5, 2.0, 4.0], 2)))
        elif kind == 3:
            boxes[b] = (*(rng.random(2) * span), *rng.uniform(1e-3, 1.0, 2))
        elif kind == 4:
            boxes[b] = (*(rng.random(2) * span), *10.0 ** rng.uniform(3, 150, 2))
        else:
            boxes[b] = (*(rng.random(2) * span), *rng.uniform(0.5, 1.2, 2) * span)
    return boxes


def _loop_features(x) -> np.ndarray:
    """Quadratic features built term by term: constant, x_i, then x_i*x_j
    for i <= j in lexicographic order."""
    d = len(x)
    feats = [1.0]
    feats.extend(x)
    for i in range(d):
        for j in range(i, d):
            feats.append(x[i] * x[j])
    return np.array(feats)


def scipy_fd_ask_local(state, model) -> np.ndarray:
    """``hyperopt._ask_local`` as it was when L-BFGS-B estimated the
    surrogate's gradient itself (no ``jac``, so scipy's ``approx_derivative``
    with its default absolute step), with the features built in a loop."""
    import scipy.optimize

    def predict(x):
        return float(_loop_features(np.asarray(x, dtype=np.float64)) @ model.quad_coeffs)

    lo = np.maximum(state.space.lows, model.center - model.radius)
    hi = np.minimum(state.space.highs, model.center + model.radius)
    bounds = list(zip(lo, hi))
    starts = [model.center.copy()]
    for _ in range(4):
        starts.append(state.rng.uniform(lo, hi))
    best_x, best_v = None, -np.inf
    for x0 in starts:
        res = scipy.optimize.minimize(lambda x: -predict(x), np.clip(x0, lo, hi),
                                      method="L-BFGS-B", bounds=bounds)
        for cand in (np.clip(res.x, lo, hi), np.clip(x0, lo, hi)):
            v = predict(cand)
            if v > best_v:
                best_x, best_v = cand, v
    return best_x


def fit_quadratic_reference(state):
    """``hyperopt.fit_quadratic_tr`` as it was before fits were reused: every
    call sorts all trials by distance to the best and runs ``lstsq``. The
    arrays are rebuilt from ``state.trials`` and the design matrix is built
    row by row with ``_loop_features``."""
    from odkit import hyperopt

    n_terms = state.space.n_quad_terms
    trials = state.trials
    if len(trials) < n_terms:
        raise ValueError(f"quadratic fit needs >= {n_terms} trials, have {len(trials)}")
    pts = np.array([t.point for t in trials])
    vals = np.array([t.value for t in trials])
    center = trials[int(np.argmax(vals))].point
    order = np.argsort(np.linalg.norm(pts - center, axis=1), kind="stable")
    keep = order[: min(2 * n_terms, len(order))]
    fit_points, fit_values = pts[keep], vals[keep]
    with np.errstate(over="ignore"):
        design = np.array([_loop_features(p) for p in fit_points])
    if not np.isfinite(design).all():
        raise hyperopt.RankDeficiencyError("quadratic terms of the fit points overflow float64")
    coeffs, _, rank, _ = np.linalg.lstsq(design, fit_values, rcond=None)
    if rank < n_terms:
        raise hyperopt.RankDeficiencyError(
            f"fit rank {rank} < {n_terms} required (degenerate fit geometry)")
    return hyperopt.TrustRegionModel(center=center.copy(), radius=state.tr_radius,
                                     quad_coeffs=coeffs, fit_points=fit_points,
                                     fit_values=fit_values)


def pdist_lipschitz_reference(trials, alpha: float) -> float:
    """``hyperopt.lipschitz_estimate`` as it was, over scipy's ``pdist`` of
    every pair of trials at once: the steepest slope between two distinct
    points, snapped up to a power of ``1 + alpha``. O(n^2) memory."""
    from scipy.spatial.distance import pdist

    from odkit import hyperopt

    if len(trials) < 2:
        return 0.0
    pts = np.array([t.point for t in trials])
    vals = np.array([[t.value] for t in trials])
    dd = pdist(pts)
    vd = pdist(vals, metric="cityblock")
    mask = dd > 0
    if not mask.any():
        return 0.0
    return hyperopt._snap_slope(float((vd[mask] / dd[mask]).max()), alpha)


def pure_random_search(objective, lows, highs, budget: int, seed: int) -> float:
    """Best value over plain uniform sampling; the baseline any informed
    search should beat."""
    rng = np.random.default_rng(seed)
    best = -float("inf")
    for _ in range(budget):
        x = rng.uniform(lows, highs)
        best = max(best, float(objective(x)))
    return best


def struct_write_records(path, records) -> int:
    """ODR1 writer packing one box at a time with ``struct``: the format's
    byte layout spelled out field by field."""
    head, box, length = struct.Struct("<QHHH"), struct.Struct("<ffffH"), struct.Struct("<I")
    n = 0
    with open(path, "wb") as f:
        f.write(b"ODR1")
        for rec in records:
            payload = bytearray(head.pack(rec.image_id, rec.image_w, rec.image_h, len(rec.boxes)))
            for b, c in zip(rec.boxes, rec.classes):
                payload += box.pack(float(b[0]), float(b[1]), float(b[2]), float(b[3]), int(c))
            f.write(length.pack(len(payload)))
            f.write(payload)
            n += 1
    return n


def per_record_read_records(path):
    """ODR1 reader that parses one record at a time and checks it through
    the public ``LabelRecord`` constructor: yields every record before the
    first bad one, then raises at it."""
    from odkit import LabelRecord, RecordCorruptionError, RecordFormatError

    head, length = struct.Struct("<QHHH"), struct.Struct("<I")
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != b"ODR1":
            raise RecordFormatError(f"bad magic {magic!r}, expected {b'ODR1'!r}")
        offset = 4
        while True:
            raw = f.read(length.size)
            if not raw:
                return
            if len(raw) < length.size:
                raise RecordCorruptionError("truncated record length", offset)
            (plen,) = length.unpack(raw)
            offset += length.size
            payload = f.read(plen)
            if len(payload) < plen:
                raise RecordCorruptionError("truncated record payload", offset)
            if plen < head.size:
                raise RecordCorruptionError("payload shorter than record header", offset)
            image_id, image_w, image_h, nb = head.unpack_from(payload, 0)
            if plen != head.size + nb * 18:
                raise RecordCorruptionError(
                    f"payload length {plen} does not match {nb} boxes", offset)
            boxes = [struct.unpack_from("<ffffH", payload, head.size + 18 * k)
                     for k in range(nb)]
            offset += plen
            yield LabelRecord(image_id, image_w, image_h,
                              np.array([b[:4] for b in boxes], np.float64).reshape(-1, 4),
                              np.array([b[4] for b in boxes], np.int64))
