"""Derivative-free maximization over bounded mixed integer/continuous spaces.

Two alternating phases drive the search:

* global: adaptive Lipschitz search. The running constant estimate k is the
  smallest (1+alpha)^i covering the steepest slope seen between any two
  trials; a uniform draw is accepted as a candidate only while its upper
  bound min_j(f_j + k*||x - x_j||) + noise_eps can still beat the incumbent
  maximum. With probability ``exploration_p`` the bound is skipped and a
  plain uniform draw is used.
* local: a full quadratic surrogate, least-squares fitted to the trials
  nearest the best point, maximized inside a trust region box around the
  best point. The radius doubles after an evaluation that improves the best
  by more than ``noise_eps`` and halves otherwise.

The global phase runs on odd iterations, the local on even ones once enough
trials exist to fit the quadratic; before that every iteration is global.
Noisy objectives are handled by ``noise_eps``: slack in the acceptance
bound and in the improve-vs-shrink test.

Usage follows a strict ask/tell protocol: every ``ask`` must be answered by
``tell`` before the next ``ask``. Evaluation of the objective happens
outside, between the two calls.

``state.trials`` is the public, append-only record. Points and values are
mirrored in cached arrays together with the steepest slope seen so far, so
a ``tell`` costs O(n*d) rather than re-deriving every pairwise slope.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.optimize

from ._checks import is_integer, is_real

# exploitation draws give up after this many rejected uniform samples and
# return the sample with the largest upper bound instead
_MAX_DRAWS = 1000
_TR_MULTISTARTS = 4
_CHECKPOINT_FORMAT = "odkit.hyperopt.state/1"
# L-BFGS-B's default gradient: forward differences with absolute step 1e-8,
# or sqrt(eps) * sign(x) * max(1, |x|) where x + 1e-8 rounds back to x
_FD_STEP = 1e-8
_FD_REL_STEP = float(np.finfo(np.float64).eps) ** 0.5


class ProtocolError(RuntimeError):
    """ask/tell called out of order, or a tell for a point never asked."""


class RankDeficiencyError(RuntimeError):
    """The quadratic fit system is rank-deficient (degenerate geometry)."""


@dataclass(frozen=True)
class Dim:
    name: str
    lo: float
    hi: float
    is_integer: bool = False

    def __post_init__(self):
        if not (is_real(self.lo) and is_real(self.hi)):
            raise ValueError(f"dim {self.name!r}: bounds must be finite")
        if not isinstance(self.is_integer, bool):
            raise ValueError(f"dim {self.name!r}: is_integer must be true or false, "
                             f"got {self.is_integer!r}")
        if not self.lo < self.hi:
            raise ValueError(f"dim {self.name!r}: lo must be < hi, got [{self.lo}, {self.hi}]")
        if self.is_integer and math.ceil(self.lo) > self.hi:
            raise ValueError(f"integer dim {self.name!r}: no integer in [{self.lo}, {self.hi}]")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SearchSpace:
    dims: tuple[Dim, ...]
    # the bounds as read-only arrays, made once, as they are read per draw and per ask
    lows: np.ndarray = field(init=False, repr=False, compare=False)
    highs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims:
            raise ValueError("search space needs at least one dimension")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise ValueError(f"dimension names must be unique, got {names}")
        object.__setattr__(self, "lows", _read_only(np.array([d.lo for d in self.dims], float)))
        object.__setattr__(self, "highs", _read_only(np.array([d.hi for d in self.dims], float)))

    @property
    def d(self) -> int:
        return len(self.dims)

    @functools.cached_property
    def diagonal(self) -> float:
        with np.errstate(over="ignore"):  # inf for a space too wide for float64
            return float(np.linalg.norm(self.highs - self.lows))

    @property
    def n_quad_terms(self) -> int:
        # constant + linear + all second-order terms
        return (self.d + 1) * (self.d + 2) // 2

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.d,):
            return False
        for v, dim in zip(p, self.dims):
            if not dim.lo <= v <= dim.hi:
                return False
            if dim.is_integer and v != int(v):
                return False
        return True


@dataclass
class Trial:
    point: np.ndarray
    value: float
    seq: int

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=np.float64).reshape(-1)


@dataclass
class TrustRegionModel:
    """Quadratic surrogate around the current best point.

    ``quad_coeffs`` follows the term order constant, x_0..x_{d-1}, then
    x_i*x_j for i <= j in lexicographic order.
    """

    center: np.ndarray
    radius: float
    quad_coeffs: np.ndarray
    fit_points: np.ndarray
    fit_values: np.ndarray

    def predict(self, x) -> float:
        return float(_quad_features(np.asarray(x, dtype=np.float64)) @ self.quad_coeffs)


class _LastFit(NamedTuple):
    """A quadratic fit over a full fit set: centred on trial ``best`` when
    ``n`` trials existed; ``reach`` is the distance of the farthest row it
    kept. ``outcome`` is ``(coeffs,
    fit_points, fit_values)``, or the message of the
    :class:`RankDeficiencyError` the fit raised; the exception itself is not
    kept, as its traceback would pin the fit's frames and arrays."""

    best: Trial
    n: int
    reach: float
    outcome: tuple[np.ndarray, np.ndarray, np.ndarray] | str


@dataclass
class _TrialArrays:
    """Rows ``[:n]`` mirror ``trials[:n]``; ``last`` is ``trials[n-1]``, so a
    replaced list is noticed. ``max_slope`` is the steepest slope between
    any two of those points at distance > 0.

    ``fit`` is the last fit over a full fit set, which
    ``fit_quadratic_tr`` returns or raises again while the best trial and
    the rows it kept stay the same. It lives and dies with the rows: a
    replaced or shortened trial list, or a state read by ``load_state``,
    starts without it, and ``save_state`` does not write it."""

    points: np.ndarray
    values: np.ndarray
    n: int = 0
    last: Trial | None = None
    max_slope: float = 0.0
    fit: _LastFit | None = None

    def append(self, trial: Trial) -> None:
        n = self.n
        if n == len(self.values):  # grow by doubling
            points = np.empty((max(2 * n, 16), self.points.shape[1]))
            points[:n] = self.points[:n]
            values = np.empty(len(points))
            values[:n] = self.values[:n]
            self.points, self.values = points, values
        self.points[n] = trial.point
        self.values[n] = trial.value
        if n:
            self.max_slope = max(self.max_slope, _max_slope_to(
                self.points[:n], self.values[:n], self.points[n], self.values[n]))
        self.n, self.last = n + 1, trial


@dataclass
class OptimizerState:
    space: SearchSpace
    exploration_p: float
    alpha: float
    noise_eps: float
    rng_seed: int
    trials: list[Trial] = field(default_factory=list)
    lipschitz_k: float = 0.0
    tr: TrustRegionModel | None = None
    tr_radius: float = 0.0
    phase: str = "global"
    tr_fallbacks: int = 0          # rank-deficient fits redirected to global
    pending: np.ndarray | None = None
    rng: np.random.Generator | None = None
    _arrays: _TrialArrays | None = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if self.rng is None:
            self.rng = np.random.default_rng(self.rng_seed)
        if self.tr_radius == 0.0:
            self.tr_radius = self.space.diagonal / 4


def new_optimizer(space: SearchSpace, exploration_p: float = 0.1, alpha: float = 0.5,
                  noise_eps: float = 0.0, seed: int = 0) -> OptimizerState:
    if not (is_real(exploration_p) and 0.0 <= exploration_p <= 1.0):
        raise ValueError(f"exploration_p must be in [0, 1], got {exploration_p}")
    # k grows in steps of (1 + alpha), so 1 + alpha must exceed 1 in float64
    if not (is_real(alpha) and 1.0 + alpha > 1.0):
        raise ValueError(f"alpha must be finite and > 0 with 1 + alpha > 1, got {alpha}")
    if not (is_real(noise_eps) and noise_eps >= 0.0):
        raise ValueError(f"noise_eps must be finite and >= 0, got {noise_eps}")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not math.isfinite(space.diagonal):
        raise ValueError(f"search space too wide: its diagonal is {space.diagonal} in float64")
    return OptimizerState(space=space, exploration_p=exploration_p, alpha=alpha,
                          noise_eps=noise_eps, rng_seed=int(seed))


def round_integers(point, space: SearchSpace) -> np.ndarray:
    """Round integer dims half away from zero, then clamp them to the
    integers within their bounds."""
    p = np.asarray(point, dtype=np.float64).copy()
    for i, dim in enumerate(space.dims):
        if dim.is_integer:
            v = math.floor(abs(p[i]) + 0.5) * (1 if p[i] >= 0 else -1)
            p[i] = min(max(v, math.ceil(dim.lo)), math.floor(dim.hi))
    return p


def lipschitz_estimate(trials, alpha: float) -> float:
    """Smallest (1+alpha)^i covering the steepest pairwise slope.

    Zero-distance pairs (repeat evaluations of one point) are excluded, so
    noisy duplicates never force an infinite estimate. Fewer than two
    distinct points give 0. Slopes are found as ``tell`` finds them.
    """
    arrays = _TrialArrays(np.empty((0, len(trials[0].point) if trials else 0)), np.empty(0))
    for t in trials:
        arrays.append(t)
    return _snap_slope(arrays.max_slope, alpha)


def _snap_slope(s: float, alpha: float) -> float:
    """Smallest (1+alpha)^i >= s, or 0 for a zero slope."""
    if s == 0.0:
        return 0.0
    i = math.ceil(math.log(s) / math.log(1.0 + alpha) - 1e-12)
    k = (1.0 + alpha) ** i
    while k < s:  # guard against log rounding
        i += 1
        k = (1.0 + alpha) ** i
    return k


def _max_slope_to(pts: np.ndarray, vals: np.ndarray, x: np.ndarray, v: float) -> float:
    """Steepest |v - vals_j| / ||x - pts_j|| over rows at distance > 0.

    The squares are summed column by column, in scipy ``pdist``'s order,
    so every slope is bitwise the one pdist's distances give.
    """
    sq = pts - x
    sq *= sq
    dist = sq[:, 0].copy()
    for j in range(1, sq.shape[1]):
        dist += sq[:, j]
    np.sqrt(dist, out=dist)
    mask = dist > 0
    if not mask.any():
        return 0.0
    return float((np.abs(vals[mask] - v) / dist[mask]).max())


def _trial_arrays(state: OptimizerState) -> tuple[np.ndarray, np.ndarray]:
    """(points, values) of ``state.trials`` as float64 arrays.

    Only trials appended since the last call are copied in. A list that got
    shorter or whose cached last element was replaced is read afresh.
    """
    trials, cache = state.trials, state._arrays
    if cache is None or cache.n > len(trials) or (
            cache.n and trials[cache.n - 1] is not cache.last):
        cache = state._arrays = _TrialArrays(np.empty((0, state.space.d)), np.empty(0))
    for t in trials[cache.n:]:
        cache.append(t)
    return cache.points[:cache.n], cache.values[:cache.n]


@functools.cache
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(d)``, the (i, j) of the second-order terms, made
    once per dimension count and read-only, as every caller shares them."""
    i, j = np.triu_indices(d)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _quad_features(x: np.ndarray) -> np.ndarray:
    i, j = _pairs(len(x))
    return np.concatenate(([1.0], x, x[i] * x[j]))


def _quad_design(pts: np.ndarray) -> np.ndarray:
    """Rows of ``_quad_features`` for every point, built in one step."""
    i, j = _pairs(pts.shape[1])
    return np.hstack([np.ones((len(pts), 1)), pts, pts[:, i] * pts[:, j]])


def fit_quadratic_tr(state: OptimizerState) -> TrustRegionModel:
    """Least-squares full quadratic over the trials nearest the best point.

    Uses m = min(2 * n_terms, all) fit points. A design matrix with rank
    below the term count, or with a term that overflows float64, raises
    :class:`RankDeficiencyError`; callers treat that as "stay global this
    iteration".

    The fit is recomputed only when its inputs change. Once 2 * n_terms
    trials exist, the last fit is returned (or its error raised) again,
    with the current ``tr_radius``, if the best trial is the same and every
    trial added since lies at least as far from it as the farthest row
    kept: the stable sort would keep the same rows in the same order, so
    ``lstsq`` would see the same bytes. Models, candidates and trial logs
    are those of a fit on every call.
    """
    n_terms = state.space.n_quad_terms
    if len(state.trials) < n_terms:
        raise ValueError(
            f"quadratic fit needs >= {n_terms} trials, have {len(state.trials)}")
    best_trial = best(state)
    center = best_trial.point
    pts, vals = _trial_arrays(state)
    dist = np.linalg.norm(pts - center, axis=1)
    cache, m = state._arrays, 2 * n_terms
    last = cache.fit
    if last is not None and last.best is best_trial and (dist[last.n:] >= last.reach).all():
        cache.fit = last._replace(n=len(pts))
        outcome = last.outcome
    else:
        keep = np.argsort(dist, kind="stable")[:m]
        outcome = _fit_rows(pts[keep], vals[keep], n_terms)
        if len(keep) == m:
            cache.fit = _LastFit(best_trial, len(pts), float(dist[keep[-1]]), outcome)
    if isinstance(outcome, str):
        raise RankDeficiencyError(outcome)
    coeffs, fit_points, fit_values = outcome
    # copies, so that a caller editing the model cannot edit the kept fit
    return TrustRegionModel(center=center.copy(), radius=state.tr_radius,
                            quad_coeffs=coeffs.copy(), fit_points=fit_points.copy(),
                            fit_values=fit_values.copy())


def _fit_rows(fit_points: np.ndarray, fit_values: np.ndarray, n_terms: int):
    """``(coeffs, fit_points, fit_values)`` of the least-squares quadratic
    through these rows, or why the fit is rank-deficient."""
    with np.errstate(over="ignore"):  # an overflowing term is caught below
        design = _quad_design(fit_points)
    if not np.isfinite(design).all():
        return "quadratic terms of the fit points overflow float64"
    coeffs, _, rank, _ = np.linalg.lstsq(design, fit_values, rcond=None)
    if rank < n_terms:
        return f"fit rank {rank} < {n_terms} required (degenerate fit geometry)"
    return coeffs, fit_points, fit_values


def _uniform_draw(state: OptimizerState) -> np.ndarray:
    return state.rng.uniform(state.space.lows, state.space.highs)


def _upper_bound(state: OptimizerState, x: np.ndarray) -> float:
    pts, vals = _trial_arrays(state)
    return float((vals + state.lipschitz_k * np.linalg.norm(pts - x, axis=1)).min()
                 + state.noise_eps)


def _ask_global(state: OptimizerState) -> np.ndarray:
    if not state.trials or state.lipschitz_k == 0.0:
        return _uniform_draw(state)
    if state.rng.random() < state.exploration_p:
        return _uniform_draw(state)
    best_val = float(_trial_arrays(state)[1].max())
    top, top_ub = None, -np.inf
    for _ in range(_MAX_DRAWS):
        x = _uniform_draw(state)
        ub = _upper_bound(state, x)
        if ub >= best_val:
            return x
        if ub > top_ub:
            top, top_ub = x, ub
    return top


def _forward_step(x: float, lo: float, hi: float) -> float:
    """scipy's 2-point step for one coordinate of ``x`` in ``[lo, hi]``.

    This is ``approx_derivative(method="2-point", abs_step=1e-8)``'s step,
    after its '1-sided' bounds adjustment: a step that leaves the box is
    reversed if it fits the other way, and otherwise becomes the distance
    to the farther bound.
    """
    h = _FD_STEP
    if (x + h) - x == 0:
        h = _FD_REL_STEP * (1.0 if x >= 0 else -1.0) * max(1.0, abs(x))
    lower, upper = x - lo, hi - x
    # each test is false for a NaN x, as numpy's are, so NaN keeps its step
    if abs(h) <= lower or abs(h) <= upper:
        if x + h < lo or x + h > hi:
            h = -h
    elif upper >= lower:
        h = upper
    elif upper < lower:
        h = -lower
    return h


def _negated_with_gradient(model: TrustRegionModel, bounds: list[tuple[float, float]]):
    """``x -> (-model.predict(x), gradient)`` for L-BFGS-B on the box
    ``bounds``, one ``(lo, hi)`` per coordinate.

    The gradient is the forward difference scipy computes when no ``jac``
    is given, float for float: each perturbed point differs from ``x`` only
    in coordinate i, and ``g[i] = (f(x1) - f(x)) / ((x[i] + h) - x[i])``,
    divided as numpy divides, so a zero step gives inf or NaN as there.
    """
    def fun(x: np.ndarray):
        f0 = -model.predict(x)
        df, dx = np.empty(len(x)), np.empty(len(x))
        x1 = x.copy()
        for i, (xi, (l, u)) in enumerate(zip(x.tolist(), bounds)):
            h = _forward_step(xi, l, u)
            x1[i] = xi + h
            df[i] = -model.predict(x1) - f0
            dx[i] = (xi + h) - xi
            x1[i] = xi
        return f0, df / dx
    return fun


def _ask_local(state: OptimizerState, model: TrustRegionModel) -> np.ndarray:
    """Best of the centre and ``_TR_MULTISTARTS`` uniform starts, each
    pushed uphill on the surrogate by L-BFGS-B inside the trust box.

    L-BFGS-B gets its gradient from ``_negated_with_gradient``, which
    mirrors scipy's default for a missing ``jac``:
    ``approx_derivative(f, x, method="2-point", abs_step=1e-8,
    bounds=(lo, hi))``. The floats are the same, so the iterates, the
    candidate and the trial log are too.
    """
    lo = np.maximum(state.space.lows, model.center - model.radius)
    hi = np.minimum(state.space.highs, model.center + model.radius)
    bounds = list(zip(lo.tolist(), hi.tolist()))
    fun = _negated_with_gradient(model, bounds)
    starts = [model.center.copy()]
    for _ in range(_TR_MULTISTARTS):
        starts.append(state.rng.uniform(lo, hi))
    best_x, best_v = None, -np.inf
    for x0 in starts:
        res = scipy.optimize.minimize(fun, np.clip(x0, lo, hi), jac=True,
                                      method="L-BFGS-B", bounds=bounds)
        for cand in (np.clip(res.x, lo, hi), np.clip(x0, lo, hi)):
            v = model.predict(cand)
            if v > best_v:
                best_x, best_v = cand, v
    return best_x


def ask(state: OptimizerState) -> np.ndarray:
    """Propose the next point to evaluate. Must be followed by ``tell``."""
    if state.pending is not None:
        raise ProtocolError("ask called again before tell answered the pending ask")
    iteration = len(state.trials) + 1
    fittable = len(state.trials) >= state.space.n_quad_terms
    candidate = None
    if iteration % 2 == 0 and fittable:
        try:
            model = fit_quadratic_tr(state)
            state.tr = model
            state.phase = "local"
            candidate = _ask_local(state, model)
        except RankDeficiencyError:
            state.tr_fallbacks += 1
    if candidate is None:
        state.phase = "global"
        candidate = _ask_global(state)
    candidate = round_integers(np.clip(candidate, state.space.lows, state.space.highs),
                               state.space)
    state.pending = candidate
    return candidate.copy()


def tell(state: OptimizerState, point, value: float) -> Trial:
    """Record the objective value for the pending ask."""
    if state.pending is None:
        raise ProtocolError("tell called with no pending ask")
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    # np.allclose(p, pending, rtol=0, atol=1e-12) for a finite pending
    # ask, without its set-up: NaN and inf in p fail both
    if p.shape != state.pending.shape or not np.abs(p - state.pending).max() <= 1e-12:
        raise ProtocolError(f"tell point {p} does not match the pending ask {state.pending}")
    if not is_real(value):
        raise ValueError(f"objective value must be finite, got {value}")
    vals = _trial_arrays(state)[1]
    prev_best = float(vals.max()) if len(vals) else -math.inf
    trial = Trial(point=p.copy(), value=float(value), seq=len(state.trials))
    state.trials.append(trial)
    state.pending = None
    _trial_arrays(state)
    state.lipschitz_k = _snap_slope(state._arrays.max_slope, state.alpha)
    diag = state.space.diagonal
    if value > prev_best + state.noise_eps:
        state.tr_radius = min(state.tr_radius * 2.0, diag)
    else:
        state.tr_radius = max(state.tr_radius * 0.5, 1e-6 * diag)
    if state.tr is not None:
        state.tr.radius = state.tr_radius
    return trial


def best(state: OptimizerState) -> Trial:
    """Highest-value trial; the earlier one on ties."""
    if not state.trials:
        raise ValueError("no trials recorded yet")
    return state.trials[int(np.argmax(_trial_arrays(state)[1]))]  # the first max


def run_optimization(state: OptimizerState, objective, budget: int, on_trial=None) -> OptimizerState:
    """Drive ask/eval/tell for ``budget`` rounds. ``on_trial(trial, best)``
    fires after each tell."""
    if not is_integer(budget):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    for _ in range(budget):
        x = ask(state)
        trial = tell(state, x, float(objective(x)))
        if on_trial is not None:
            on_trial(trial, best(state))
    return state


# ---------------------------------------------------------------- state I/O

def save_state(state: OptimizerState, path) -> None:
    """Write ``state`` to ``path`` as a JSON checkpoint for ``load_state``.

    Trials go in as arrays next to the scalars, the trust-region model, the
    pending ask and the PCG64 generator state. Raises ``ValueError`` for
    another bit generator, a value JSON cannot hold (NaN, infinity), or a
    ``lipschitz_k`` that no longer matches the trials.
    """
    pts, vals = _trial_arrays(state)
    max_slope = state._arrays.max_slope
    if state.lipschitz_k != _snap_slope(max_slope, state.alpha):
        raise ValueError(f"lipschitz_k {state.lipschitz_k} does not match the trials "
                         f"(steepest slope {max_slope}); append trials only through tell")
    rng_state = state.rng.bit_generator.state
    if rng_state["bit_generator"] != "PCG64":
        raise ValueError(f"only a PCG64 generator can be checkpointed, "
                         f"not {rng_state['bit_generator']}")
    tr = state.tr
    obj = {
        "format": _CHECKPOINT_FORMAT,
        "space": _space_to_obj(state.space),
        "exploration_p": state.exploration_p,
        "alpha": state.alpha,
        "noise_eps": state.noise_eps,
        "rng_seed": state.rng_seed,
        "lipschitz_k": state.lipschitz_k,
        "max_slope": max_slope,
        "tr_radius": state.tr_radius,
        "phase": state.phase,
        "tr_fallbacks": state.tr_fallbacks,
        "points": pts.tolist(),
        "values": vals.tolist(),
        "seqs": [t.seq for t in state.trials],
        "tr": None if tr is None else {
            "center": tr.center.tolist(), "radius": tr.radius,
            "coeffs": tr.quad_coeffs.tolist(), "fit_points": tr.fit_points.tolist(),
            "fit_values": tr.fit_values.tolist()},
        "pending": None if state.pending is None else state.pending.tolist(),
        "rng": rng_state,
    }
    text = json.dumps(obj, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_state(path) -> OptimizerState:
    """Read a checkpoint written by ``save_state``.

    The file is parsed as JSON only; nothing in it is executed. Anything
    that is not a well-formed checkpoint (another format, such as the old
    pickle files, or mismatched shapes, lengths or dimensions) raises
    ``ValueError``. Loading costs O(n*d): the cached arrays and the stored
    steepest slope are filled in directly.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        return _state_from_obj(json.loads(data, parse_constant=_reject_constant))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: not a valid hyperopt checkpoint: {e}") from None


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _state_from_obj(obj) -> OptimizerState:
    tag = obj.get("format") if isinstance(obj, dict) else None
    if tag != _CHECKPOINT_FORMAT:
        raise ValueError(f"format tag {tag!r}, expected {_CHECKPOINT_FORMAT!r}")
    space = space_from_obj(obj["space"])
    d = space.d
    state = new_optimizer(space, exploration_p=_number(obj, "exploration_p"),
                          alpha=_number(obj, "alpha"), noise_eps=_number(obj, "noise_eps"),
                          seed=_integer(obj, "rng_seed"))
    seqs = obj["seqs"]
    if not (isinstance(seqs, list) and all(map(is_integer, seqs))):
        raise ValueError("seqs must be a list of integers")
    n = len(seqs)
    points = _float_array(obj["points"], (n, d), "points")
    values = _float_array(obj["values"], (n,), "values")
    max_slope = _number(obj, "max_slope")
    state.lipschitz_k = _number(obj, "lipschitz_k")
    if max_slope < 0 or state.lipschitz_k != _snap_slope(max_slope, state.alpha):
        raise ValueError(f"lipschitz_k {state.lipschitz_k} does not match the stored "
                         f"steepest slope {max_slope}")
    state.tr_radius = _number(obj, "tr_radius")
    state.phase = obj["phase"]
    if state.phase not in ("global", "local"):
        raise ValueError(f"unknown phase {state.phase!r}")
    state.tr_fallbacks = _integer(obj, "tr_fallbacks")
    tr = obj["tr"]
    if tr is not None:
        m = len(tr["fit_values"])
        state.tr = TrustRegionModel(
            center=_float_array(tr["center"], (d,), "tr center"),
            radius=_number(tr, "radius"),
            quad_coeffs=_float_array(tr["coeffs"], (space.n_quad_terms,), "tr coeffs"),
            fit_points=_float_array(tr["fit_points"], (m, d), "tr fit_points"),
            fit_values=_float_array(tr["fit_values"], (m,), "tr fit_values"))
    if obj["pending"] is not None:
        state.pending = _float_array(obj["pending"], (d,), "pending")
    rng_state = obj["rng"]
    if not isinstance(rng_state, dict) or rng_state.get("bit_generator") != "PCG64":
        raise ValueError("rng: only PCG64 generator state is supported")
    bit_generator = np.random.PCG64(0)
    bit_generator.state = rng_state
    state.rng = np.random.Generator(bit_generator)
    state.trials = [Trial(point=p, value=v, seq=q)
                    for p, v, q in zip(points, values.tolist(), seqs)]
    state._arrays = _TrialArrays(points.copy(), values.copy(), n,
                                 state.trials[-1] if n else None, max_slope)
    return state


def _number(obj: dict, key: str) -> float:
    v = obj[key]
    if not is_real(v):
        raise ValueError(f"{key} must be a finite number, got {v!r}")
    return float(v)


def _integer(obj: dict, key: str) -> int:
    v = obj[key]
    if not is_integer(v) or v < 0:
        raise ValueError(f"{key} must be a non-negative integer, got {v!r}")
    return v


def _float_array(value, shape: tuple, what: str) -> np.ndarray:
    a = np.array(value, dtype=np.float64)
    if a.shape != shape and not (a.shape == (0,) and 0 in shape):
        raise ValueError(f"{what}: shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what}: values must be finite")
    return a.reshape(shape)


# ---------------------------------------------------------------- space I/O

_DIM_KEYS = {"name", "lo", "hi", "integer"}


def space_from_obj(obj) -> SearchSpace:
    """A space from a JSON list of ``{"name", "lo", "hi", "integer"}``
    objects; ``integer`` is optional and false by default."""
    if not isinstance(obj, list):
        raise ValueError("space file must be a JSON list of dimension objects")
    dims = []
    for entry in obj:
        try:
            name = entry["name"]
            if not isinstance(name, str):
                raise ValueError(f"name must be a string, got {name!r}")
            if unknown := set(entry) - _DIM_KEYS:
                raise ValueError(f"dim {name!r}: unknown keys {sorted(unknown)}, "
                                 f"expected some of {sorted(_DIM_KEYS)}")
            dims.append(Dim(name=name, lo=_number(entry, "lo"), hi=_number(entry, "hi"),
                            is_integer=entry.get("integer", False)))
        except (KeyError, TypeError) as e:
            raise ValueError(f"bad dimension entry {entry!r}: {e}") from None
    return SearchSpace(tuple(dims))


def load_space(path) -> SearchSpace:
    with open(path, "r", encoding="utf-8") as f:
        return space_from_obj(json.load(f))


def _space_to_obj(space: SearchSpace) -> list:
    return [{"name": d.name, "lo": d.lo, "hi": d.hi, "integer": d.is_integer}
            for d in space.dims]


def save_space(space: SearchSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_space_to_obj(space), f, indent=2)
        f.write("\n")


def load_bundled_space(name: str = "table3") -> SearchSpace:
    """Load a space shipped with the package (see ``odkit/spaces/``)."""
    res = importlib.resources.files("odkit").joinpath("spaces", f"{name}.json")
    try:
        text = res.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"no bundled space named {name!r}") from None
    return space_from_obj(json.loads(text))


# ------------------------------------------------------- builtin objectives
# Each is evaluated with overflow ignored: on a space near 1e154 a square
# overflows to inf, and the -inf it gives is reported by ``tell`` as a
# non-finite value, with no RuntimeWarning before it.

@np.errstate(over="ignore")
def _quad2(x):
    return -(x[0] - 0.3) ** 2 - (x[1] - 0.7) ** 2


@np.errstate(over="ignore")
def _parabola(x):
    return -(x[0] - 0.3) ** 2


@np.errstate(over="ignore")
def _sphere(x):
    return -float(np.sum(np.square(x)))


@np.errstate(over="ignore")
def _rastrigin(x):
    x = np.asarray(x, dtype=np.float64)
    return -float(10 * len(x) + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))


BUILTIN_OBJECTIVES = {
    "quad2": _quad2,        # max 0 at (0.3, 0.7)
    "parabola": _parabola,  # max 0 at x = 0.3
    "sphere": _sphere,      # max 0 at the origin
    "rastrigin": _rastrigin,
}
# a space needs at least this many dimensions for a built-in that reads
# coordinates by index; the others read every coordinate there is
_BUILTIN_MIN_DIMS = {"quad2": 2}


def get_objective(name: str):
    try:
        return BUILTIN_OBJECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin objective {name!r}; available: "
            f"{', '.join(sorted(BUILTIN_OBJECTIVES))}") from None
