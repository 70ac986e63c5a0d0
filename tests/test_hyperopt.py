import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import pdist

from odkit import hyperopt as hp
from oracles import pure_random_search

UNIT_1D = hp.SearchSpace((hp.Dim("x", 0.0, 1.0),))
UNIT_2D = hp.SearchSpace((hp.Dim("x", 0.0, 1.0), hp.Dim("y", 0.0, 1.0)))


def _seeded_trials(state, points, values):
    # install a trial history directly; protocol-level behavior is tested
    # separately
    for p, v in zip(points, values):
        state.trials.append(hp.Trial(point=np.atleast_1d(np.asarray(p, float)),
                                     value=float(v), seq=len(state.trials)))
    state.lipschitz_k = hp.lipschitz_estimate(state.trials, state.alpha)
    return state


class TestConstruction:
    def test_empty_start(self):
        st_ = hp.new_optimizer(UNIT_1D, seed=1)
        assert st_.trials == []
        assert st_.lipschitz_k == 0.0
        assert st_.phase == "global"
        with pytest.raises(ValueError):
            hp.best(st_)

    def test_validation(self):
        with pytest.raises(ValueError):
            hp.new_optimizer(UNIT_1D, exploration_p=1.5)
        with pytest.raises(ValueError):
            hp.new_optimizer(UNIT_1D, alpha=0.0)
        with pytest.raises(ValueError):
            hp.new_optimizer(UNIT_1D, noise_eps=-0.1)
        with pytest.raises(ValueError):
            hp.SearchSpace((hp.Dim("x", 1.0, 1.0),))
        with pytest.raises(ValueError):
            hp.SearchSpace((hp.Dim("a", 0, 1), hp.Dim("a", 0, 1)))

    def test_same_seed_same_asks(self):
        f = hp.BUILTIN_OBJECTIVES["quad2"]
        seqs = []
        for _ in range(2):
            state = hp.new_optimizer(UNIT_2D, seed=9)
            pts = []
            for _ in range(15):
                x = hp.ask(state)
                pts.append(tuple(x))
                hp.tell(state, x, f(x))
            seqs.append(pts)
        assert seqs[0] == seqs[1]


class TestProtocol:
    def test_double_ask_rejected(self):
        state = hp.new_optimizer(UNIT_1D, seed=0)
        hp.ask(state)
        with pytest.raises(hp.ProtocolError):
            hp.ask(state)

    def test_tell_without_ask_rejected(self):
        state = hp.new_optimizer(UNIT_1D, seed=0)
        with pytest.raises(hp.ProtocolError):
            hp.tell(state, np.array([0.5]), 1.0)

    def test_tell_wrong_point_rejected(self):
        state = hp.new_optimizer(UNIT_1D, seed=0)
        x = hp.ask(state)
        with pytest.raises(hp.ProtocolError):
            hp.tell(state, x + 0.25, 1.0)

    def test_nonfinite_value_rejected_and_retryable(self):
        state = hp.new_optimizer(UNIT_1D, seed=0)
        x = hp.ask(state)
        with pytest.raises(ValueError):
            hp.tell(state, x, float("nan"))
        assert state.trials == []
        hp.tell(state, x, 0.5)  # pending survives the rejected tell
        assert len(state.trials) == 1


EDGE = 1e-12  # the point check's absolute tolerance
ABOVE_EDGE = float(np.nextafter(EDGE, 1.0))


def _tell_accepts(pending, point) -> bool:
    state = hp.new_optimizer(UNIT_2D, seed=0)
    state.pending = np.asarray(pending, dtype=np.float64)
    try:
        hp.tell(state, point, 1.0)
    except hp.ProtocolError:
        return False
    return True


class TestTellPointCheck:
    """tell accepts a point exactly when np.allclose(point, pending,
    rtol=0, atol=1e-12) does, for the finite points ask returns."""

    @pytest.mark.parametrize("point,accepted", [
        ([EDGE, 0.5], True), ([-EDGE, 0.5], True), ([ABOVE_EDGE, 0.5], False),
        ([-ABOVE_EDGE, 0.5], False), ([-0.0, 0.5], True),
        ([np.nan, 0.5], False), ([np.inf, 0.5], False), ([-np.inf, 0.5], False)])
    def test_edges(self, point, accepted):
        assert _tell_accepts([0.0, 0.5], point) is accepted

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_decision_as_allclose(self, data):
        values = st.sampled_from([0.0, -0.0, 5e-324, EDGE, 0.5, 1.0, 1e6]) | st.floats(-1e3, 1e3)
        pending = np.array(data.draw(st.lists(values, min_size=2, max_size=2)))
        shifts = [0.0, -0.0, EDGE, -EDGE, ABOVE_EDGE, -ABOVE_EDGE,
                  float(np.nextafter(EDGE, 0.0)), 1e-9]
        point = [data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])
                           | st.sampled_from(shifts).map(lambda d, x=x: x + d))
                 for x in pending]
        want = bool(np.allclose(point, pending, rtol=0, atol=EDGE))
        assert _tell_accepts(pending, point) is want


class TestAskBehavior:
    def test_first_ask_in_bounds(self):
        state = hp.new_optimizer(UNIT_2D, seed=4)
        x = hp.ask(state)
        assert state.space.contains(x)
        assert state.phase == "global"

    def test_exploitation_keeps_upper_bound_above_best(self):
        state = hp.new_optimizer(UNIT_1D, exploration_p=0.0, seed=2)
        f = lambda x: float(np.sin(3 * x[0]))
        for _ in range(20):
            trials_before = list(state.trials)
            k_before = state.lipschitz_k
            x = hp.ask(state)
            if state.phase == "global" and k_before > 0 and trials_before:
                pts = np.array([t.point for t in trials_before])
                vals = np.array([t.value for t in trials_before])
                ub = float(np.min(vals + k_before * np.linalg.norm(pts - x, axis=1)))
                assert ub + state.noise_eps >= max(vals) - 1e-9
            hp.tell(state, x, f(x))

    def test_local_candidate_inside_trust_region(self):
        state = hp.new_optimizer(UNIT_2D, seed=6)
        f = hp.BUILTIN_OBJECTIVES["quad2"]
        saw_local = False
        for _ in range(24):
            x = hp.ask(state)
            if state.phase == "local":
                saw_local = True
                assert np.all(np.abs(x - state.tr.center) <= state.tr.radius + 1e-9)
            hp.tell(state, x, f(x))
        assert saw_local

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_bounded_and_integral(self, seed):
        space = hp.load_bundled_space("table3")
        state = hp.new_optimizer(space, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(12):
            x = hp.ask(state)
            assert space.contains(x)
            assert x[0] == int(x[0])  # the integer dim
            hp.tell(state, x, float(rng.normal()))


class TestLipschitzEstimate:
    def _trials(self, pairs):
        return [hp.Trial(point=np.array([p], float), value=v, seq=i)
                for i, (p, v) in enumerate(pairs)]

    def test_unit_slope(self):
        assert hp.lipschitz_estimate(self._trials([(0, 0), (1, 1)]), 0.5) == 1.0

    def test_slope_two_rounds_up_the_grid(self):
        assert hp.lipschitz_estimate(self._trials([(0, 0), (1, 2)]), 0.5) == 2.25

    def test_single_trial(self):
        assert hp.lipschitz_estimate(self._trials([(0, 0)]), 0.5) == 0.0

    def test_identical_points_only(self):
        assert hp.lipschitz_estimate(self._trials([(1, 0), (1, 5)]), 0.5) == 0.0

    def test_noisy_duplicate_excluded(self):
        # repeat of x=0 with a different value must not produce an infinite
        # slope; the (0,1) pairs dominate: max slope (1-0)/1 = 1
        t = self._trials([(0, 0), (0, 0.5), (1, 1)])
        assert hp.lipschitz_estimate(t, 0.5) == 1.0

    @given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False),
                              st.floats(-5, 5, allow_nan=False)),
                    min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_grid_membership(self, pairs):
        k = hp.lipschitz_estimate(self._trials(pairs), 0.5)
        if k == 0.0:
            return
        i = math.log(k) / math.log(1.5)
        assert abs(i - round(i)) < 1e-9


class TestQuadraticFit:
    COEFFS = np.array([2.0, 3.0, -1.0, 0.5, 0.25, -0.75])

    def _quad(self, x):
        return float(np.dot([1, x[0], x[1], x[0] * x[0], x[0] * x[1], x[1] * x[1]],
                            self.COEFFS))

    def test_recovers_exact_quadratic(self):
        state = hp.new_optimizer(UNIT_2D, seed=0)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, (12, 2))
        _seeded_trials(state, pts, [self._quad(p) for p in pts])
        model = hp.fit_quadratic_tr(state)
        assert np.allclose(model.quad_coeffs, self.COEFFS, atol=1e-6)
        for p in pts:
            assert model.predict(p) == pytest.approx(self._quad(p), abs=1e-8)

    def test_too_few_trials_rejected(self):
        state = hp.new_optimizer(UNIT_2D, seed=0)
        _seeded_trials(state, [(0.1, 0.2)] * 3, [0.0] * 3)
        with pytest.raises(ValueError):
            hp.fit_quadratic_tr(state)

    def test_collinear_points_rank_deficient(self):
        state = hp.new_optimizer(UNIT_2D, seed=0)
        ts = np.linspace(0.05, 0.95, 8)
        pts = np.column_stack([ts, ts * 0.5])  # all on one line
        _seeded_trials(state, pts, [self._quad(p) for p in pts])
        with pytest.raises(hp.RankDeficiencyError):
            hp.fit_quadratic_tr(state)

    def test_rank_deficiency_is_survivable_in_the_loop(self):
        # constant objective drives duplicate points; the optimizer must
        # keep answering asks regardless
        state = hp.new_optimizer(UNIT_1D, seed=5)
        for _ in range(30):
            x = hp.ask(state)
            hp.tell(state, x, 1.0)
        assert len(state.trials) == 30


class TestRoundIntegers:
    SPACE = hp.SearchSpace((hp.Dim("n", 1, 16, is_integer=True), hp.Dim("c", 0.0, 1.0)))

    def test_rounding_and_clamping(self):
        assert hp.round_integers([15.4, 0.37], self.SPACE)[0] == 15.0
        assert hp.round_integers([15.5, 0.37], self.SPACE)[0] == 16.0
        assert hp.round_integers([16.0, 0.37], self.SPACE)[0] == 16.0
        assert hp.round_integers([16.2, 0.37], self.SPACE)[0] == 16.0
        assert hp.round_integers([0.4, 0.37], self.SPACE)[0] == 1.0

    def test_continuous_untouched(self):
        assert hp.round_integers([3.0, 0.37251], self.SPACE)[1] == 0.37251

    def test_half_away_from_zero_on_negatives(self):
        space = hp.SearchSpace((hp.Dim("z", -10, 10, is_integer=True),))
        assert hp.round_integers([-2.5], space)[0] == -3.0
        assert hp.round_integers([2.5], space)[0] == 3.0


class TestBest:
    def test_single(self):
        state = hp.new_optimizer(UNIT_1D, seed=0)
        _seeded_trials(state, [(0.2,)], [1.5])
        assert hp.best(state).seq == 0

    def test_tie_prefers_earlier(self):
        state = hp.new_optimizer(UNIT_1D, seed=0)
        _seeded_trials(state, [(0.2,), (0.8,), (0.5,)], [1.5, 2.0, 2.0])
        assert hp.best(state).seq == 1

    def test_best_tracks_running_max(self):
        state = hp.new_optimizer(UNIT_1D, seed=11)
        rng = np.random.default_rng(0)
        running = -np.inf
        for _ in range(70):
            x = hp.ask(state)
            v = float(rng.normal())
            hp.tell(state, x, v)
            running = max(running, v)
            assert hp.best(state).value == running


class TestRadiusPolicy:
    def test_doubles_on_improvement_halves_otherwise(self):
        state = hp.new_optimizer(UNIT_2D, seed=0)
        r0 = state.tr_radius
        x = hp.ask(state)
        hp.tell(state, x, 1.0)  # first value always improves
        assert state.tr_radius == pytest.approx(min(2 * r0, state.space.diagonal))
        r1 = state.tr_radius
        x = hp.ask(state)
        hp.tell(state, x, 0.0)
        assert state.tr_radius == pytest.approx(r1 / 2)

    def test_radius_floor(self):
        state = hp.new_optimizer(UNIT_1D, seed=0)
        for _ in range(60):
            x = hp.ask(state)
            hp.tell(state, x, -1.0 - len(state.trials))  # never improves
        assert state.tr_radius >= 1e-6 * state.space.diagonal - 1e-18

    def test_noise_eps_gates_improvement(self):
        state = hp.new_optimizer(UNIT_1D, noise_eps=0.5, seed=0)
        x = hp.ask(state)
        hp.tell(state, x, 1.0)
        r = state.tr_radius
        x = hp.ask(state)
        hp.tell(state, x, 1.2)  # above best, but within the noise band
        assert state.tr_radius == pytest.approx(r / 2)


class TestCheckpointing:
    def test_resume_is_bit_identical(self, tmp_path):
        f = hp.BUILTIN_OBJECTIVES["quad2"]
        state = hp.new_optimizer(UNIT_2D, seed=13)
        for _ in range(9):
            x = hp.ask(state)
            hp.tell(state, x, f(x))
        path = tmp_path / "ckpt.pkl"
        hp.save_state(state, path)
        fork = pickle.loads(pickle.dumps(state))
        resumed = hp.load_state(path)
        a, b = [], []
        for _ in range(8):
            xa = hp.ask(fork)
            hp.tell(fork, xa, f(xa))
            a.append(tuple(xa))
            xb = hp.ask(resumed)
            hp.tell(resumed, xb, f(xb))
            b.append(tuple(xb))
        assert a == b

    def test_forty_saved_plus_thirty_equals_seventy(self, tmp_path):
        space = hp.load_bundled_space("table3")
        f = _table3_objective(space)
        straight = hp.new_optimizer(space, seed=3)
        hp.run_optimization(straight, f, 70)
        state = hp.new_optimizer(space, seed=3)
        hp.run_optimization(state, f, 40)
        hp.save_state(state, tmp_path / "ckpt.json")
        resumed = hp.run_optimization(hp.load_state(tmp_path / "ckpt.json"), f, 30)
        assert _trial_log(resumed) == _trial_log(straight)
        for key in ("lipschitz_k", "tr_radius", "phase", "tr_fallbacks"):
            assert getattr(resumed, key) == getattr(straight, key)
        assert resumed.rng.bit_generator.state == straight.rng.bit_generator.state

    def test_pending_ask_and_model_survive(self, tmp_path):
        f = hp.BUILTIN_OBJECTIVES["quad2"]
        state = hp.new_optimizer(UNIT_2D, seed=6)
        hp.run_optimization(state, f, 24)
        x = hp.ask(state)
        hp.save_state(state, tmp_path / "ckpt.json")
        resumed = hp.load_state(tmp_path / "ckpt.json")
        assert np.array_equal(resumed.pending, x)
        assert state.tr is not None
        for key in ("center", "radius", "quad_coeffs", "fit_points", "fit_values"):
            assert np.array_equal(getattr(resumed.tr, key), getattr(state.tr, key))
        hp.tell(resumed, x, f(x))
        hp.tell(state, x, f(x))
        assert _trial_log(resumed) == _trial_log(state)

    @pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
    def test_pickle_payload_is_rejected_unrun(self, tmp_path, protocol):
        marker = tmp_path / "marker"

        class Payload:
            def __reduce__(self):
                return open, (str(marker), "w")
        path = tmp_path / "ckpt.pkl"
        path.write_bytes(pickle.dumps(Payload(), protocol=protocol))
        with pytest.raises(ValueError):
            hp.load_state(path)
        assert not marker.exists()

    def _malformed(self, tmp_path, edit):
        state = hp.new_optimizer(UNIT_2D, seed=2)
        hp.run_optimization(state, hp.BUILTIN_OBJECTIVES["quad2"], 12)
        path = tmp_path / "ckpt.json"
        hp.save_state(state, path)
        obj = json.loads(path.read_text())
        text = edit(obj)  # edits return replacement text or change obj in place
        path.write_text(text if isinstance(text, str) else json.dumps(obj))
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda o: json.dumps(o)[: len(json.dumps(o)) // 2], "Expecting"),
        (lambda o: "[]", "format tag"),
        (lambda o: o.update(format="odkit.hyperopt.state/0"), "format tag"),
        (lambda o: o["values"].pop(), "values: shape"),
        (lambda o: o["seqs"].pop(), "points: shape"),
        (lambda o: [p.pop() for p in o["points"]], "points: shape"),
        (lambda o: o["tr"]["fit_values"].pop(), "fit_points: shape"),
        (lambda o: o.update(pending=[0.5]), "pending: shape"),
        (lambda o: o["rng"].update(bit_generator="MT19937"), "PCG64"),
        (lambda o: o.update(lipschitz_k=o["lipschitz_k"] * 1.5), "does not match"),
        (lambda o: o.update(values=[None] * len(o["values"])), "finite"),
        (lambda o: json.dumps(o).replace('"alpha": 0.5', '"alpha": NaN'), "NaN"),
        (lambda o: o.__delitem__("phase"), "phase"),
    ])
    def test_malformed_checkpoint_is_value_error(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=message):
            hp.load_state(self._malformed(tmp_path, edit))

    def test_unsavable_state_is_value_error(self, tmp_path):
        state = hp.new_optimizer(UNIT_1D, seed=0)
        state.rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError):
            hp.save_state(state, tmp_path / "ckpt.json")
        state = hp.new_optimizer(UNIT_1D, seed=0)
        _seeded_trials(state, [(0.0,), (1.0,)], [0.0, 1.0])
        state.lipschitz_k = 0.0  # stale: does not cover the trials
        with pytest.raises(ValueError):
            hp.save_state(state, tmp_path / "ckpt.json")


def _table3_objective(space):
    centre = np.array([0.3, 0.6, 0.45, 0.5])

    def objective(x):
        u = (np.asarray(x) - space.lows) / (space.highs - space.lows) - centre
        return float(-np.sum(u * u) + 0.05 * np.sum(np.cos(6 * np.pi * u)))
    return objective


def _trial_log(state):
    return [(t.point.tobytes(), t.value, t.seq) for t in state.trials]


class TestTrialCache:
    """The cached arrays and running slope agree with a rebuild from the
    trial list, however that list was changed."""

    GRID = hp.SearchSpace((hp.Dim("a", 0, 2, is_integer=True),
                           hp.Dim("b", 0, 2, is_integer=True)))
    VALUES = st.sampled_from([0.0, 1.0, 2.5, -1.0])

    @staticmethod
    def _check(state, x):
        assert state.lipschitz_k == hp.lipschitz_estimate(state.trials, state.alpha)
        vals = [t.value for t in state.trials]
        assert hp.best(state) is state.trials[vals.index(max(vals))]
        pts = np.array([t.point for t in state.trials])
        ref = float((np.array(vals) + state.lipschitz_k
                     * np.linalg.norm(pts - x, axis=1)).min() + state.noise_eps)
        assert hp._upper_bound(state, x) == ref

    @given(st.lists(st.one_of(
        st.tuples(st.just("tell"), VALUES),
        st.tuples(st.just("append"), st.tuples(st.integers(0, 2), st.integers(0, 2)), VALUES),
        st.tuples(st.just("truncate"), st.integers(0, 6)),
        st.tuples(st.just("replace"), st.booleans())), max_size=30),
        st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_matches_rebuild_after_every_tell(self, ops, seed):
        state = hp.new_optimizer(self.GRID, alpha=0.25, seed=seed)
        for op in ops:
            if op[0] == "tell":
                x = hp.ask(state)
                hp.tell(state, x, op[1])
                self._check(state, x + 0.5)
            elif op[0] == "append":
                state.trials.append(hp.Trial(point=np.array(op[1], float), value=op[2],
                                             seq=len(state.trials)))
            elif op[0] == "truncate":
                del state.trials[op[1]:]
            elif op[1]:  # a new list, same length, other values
                state.trials = [hp.Trial(t.point.copy(), 1.0 - t.value, t.seq)
                                for t in state.trials]
            else:
                state.trials = list(state.trials)

    def test_new_slopes_are_bitwise_pdist_slopes(self):
        # the running maximum only equals lipschitz_estimate's if every
        # slope is computed bit for bit as pdist computes it; with one
        # earlier point the maximum is that single slope
        rng = np.random.default_rng(3)
        for d in range(1, 17):
            for _ in range(100):
                pts = rng.uniform(-50, 50, (2, d)) * rng.uniform(1e-3, 1, d)
                vals = rng.normal(size=2)
                ref = abs(vals[0] - vals[1]) / pdist(pts)[0]
                assert hp._max_slope_to(pts[:1], vals[:1], pts[1], vals[1]) == ref

    def test_running_k_along_a_table3_study(self):
        space = hp.load_bundled_space("table3")
        f = _table3_objective(space)
        state = hp.new_optimizer(space, seed=8)
        for _ in range(300):
            x = hp.ask(state)
            hp.tell(state, x, f(x))
            assert state.lipschitz_k == hp.lipschitz_estimate(state.trials, state.alpha)
        self._check(state, space.lows)

    @given(st.integers(1, 5).flatmap(lambda d: hnp.arrays(
        np.float64, st.tuples(st.integers(1, 12), st.just(d)),
        elements=st.floats(-1e6, 1e6, allow_nan=False))))
    @settings(max_examples=60, deadline=None)
    def test_design_matrix_is_stacked_features(self, pts):
        ref = np.vstack([hp._quad_features(p) for p in pts])
        got = hp._quad_design(pts)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestSpaceIO:
    def test_round_trip(self, tmp_path):
        space = hp.SearchSpace((hp.Dim("n", 1, 16, is_integer=True),
                                hp.Dim("lr", 0.01, 0.1)))
        path = tmp_path / "s.json"
        hp.save_space(space, path)
        assert hp.load_space(path) == space

    def test_bundled_table3(self):
        space = hp.load_bundled_space("table3")
        names = [d.name for d in space.dims]
        assert names == ["ANCHOR_PER_GRID", "NMS_THRESH", "LEARNING_RATE",
                         "WEIGHT_DECAY"]
        assert space.dims[0].is_integer
        assert (space.dims[0].lo, space.dims[0].hi) == (1.0, 16.0)
        assert not any(d.is_integer for d in space.dims[1:])

    def test_unknown_bundle_rejected(self):
        with pytest.raises(ValueError):
            hp.load_bundled_space("table99")

    @pytest.mark.parametrize("field, value", [
        ("integer", "false"), ("integer", 1), ("integer", None),
        ("lo", "0"), ("lo", False), ("hi", True), ("hi", [1])])
    def test_wrongly_typed_field_rejected(self, field, value):
        entry = {"name": "x", "lo": 0, "hi": 1, "integer": False}
        entry[field] = value
        with pytest.raises(ValueError, match=field):
            hp.space_from_obj([entry])

    def test_malformed_space_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"name": "x", "lo": 0}]')
        with pytest.raises(ValueError):
            hp.load_space(path)


class TestSearchQuality:
    def test_monotone_best(self):
        state = hp.new_optimizer(UNIT_2D, seed=21)
        f = hp.BUILTIN_OBJECTIVES["quad2"]
        last = -np.inf
        for _ in range(40):
            x = hp.ask(state)
            hp.tell(state, x, f(x))
            assert hp.best(state).value >= last
            last = hp.best(state).value

    def test_single_seed_convergence(self):
        state = hp.new_optimizer(UNIT_1D, seed=0)
        f = hp.BUILTIN_OBJECTIVES["parabola"]
        hp.run_optimization(state, f, 100)
        assert abs(hp.best(state).point[0] - 0.3) < 1e-2

    def test_beats_pure_random_on_quadratic(self):
        f = hp.BUILTIN_OBJECTIVES["quad2"]
        ours, rand = [], []
        for seed in range(8):
            state = hp.new_optimizer(UNIT_2D, seed=seed)
            hp.run_optimization(state, f, 60)
            ours.append(hp.best(state).value)
            rand.append(pure_random_search(f, [0, 0], [1, 1], 60, seed))
        assert np.median(ours) >= np.median(rand)
