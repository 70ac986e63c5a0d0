import json
import subprocess
import sys

import pytest

from odkit import (
    GridSpec,
    MatchAssignment,
    build_anchor_grid,
    compute_deltas,
    cost_matrices,
    read_records,
    total_weight,
)
from odkit import cli
from odkit.cli import TransferPlanEntry, main, plan_transfer

GRID_FLAGS = ["--grid", "3x3x2", "--image", "96x96",
              "--templates", "16x12,32x24"]


def run_cli(*argv) -> int:
    return main(list(argv))


N_RECORDS = 24


@pytest.fixture()
def record_file(tmp_path):
    path = tmp_path / "r.odr"
    assert run_cli("gen-data", "--images", str(N_RECORDS), "--max-boxes", "4",
                   "--seed", "5", "--width", "96", "--height", "96",
                   "--out", str(path)) == 0
    return path


class TestGenData:
    def test_writes_readable_file(self, record_file):
        from odkit import read_records
        recs = list(read_records(record_file))
        assert len(recs) == N_RECORDS

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.odr", tmp_path / "b.odr"
        for out in (a, b):
            run_cli("gen-data", "--images", "6", "--seed", "3", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()


class TestMatch:
    def _match(self, record_file, out, algo, *extra):
        return run_cli("match", "--algo", algo, "--records", str(record_file),
                       *GRID_FLAGS, "--out", str(out), *extra)

    def test_serial_and_strict_parallel_identical(self, record_file, tmp_path):
        s, p = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        assert self._match(record_file, s, "serial") == 0
        assert self._match(record_file, p, "parallel", "--dedup", "strict") == 0
        assert s.read_bytes() == p.read_bytes()

    def test_jsonl_schema(self, record_file, tmp_path):
        out = tmp_path / "g.jsonl"
        assert self._match(record_file, out, "greedy") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == N_RECORDS
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"image_id", "assignment", "total_weight", "deltas"}
            assert len(obj["deltas"]) == len(obj["assignment"])

    def test_exact_never_heavier_than_greedy(self, record_file, tmp_path):
        g, e = tmp_path / "g.jsonl", tmp_path / "e.jsonl"
        self._match(record_file, g, "greedy")
        self._match(record_file, e, "exact")
        for gl, el in zip(g.read_text().splitlines(), e.read_text().splitlines()):
            assert json.loads(el)["total_weight"] <= json.loads(gl)["total_weight"] + 1e-9

    def test_paper_literal_accepted(self, record_file, tmp_path):
        out = tmp_path / "pl.jsonl"
        assert self._match(record_file, out, "parallel", "--dedup", "paper-literal") == 0

    def test_bad_grid_is_usage_error(self, record_file, tmp_path):
        code = run_cli("match", "--algo", "serial", "--records", str(record_file),
                       "--grid", "3x3x3", "--image", "96x96",
                       "--templates", "16x12,32x24", "--out", str(tmp_path / "x"))
        assert code == 1  # template count does not match K

    @pytest.mark.parametrize("templates", ["nanx12,32x24", "16x12,32xinf", "infx12,32x24"])
    def test_non_finite_template_is_usage_error(self, record_file, tmp_path, capsys, templates):
        code = run_cli("match", "--algo", "serial", "--records", str(record_file),
                       "--grid", "3x3x2", "--image", "96x96",
                       "--templates", templates, "--out", str(tmp_path / "x"))
        assert code == 1
        assert "template shape" in capsys.readouterr().err

    def test_missing_records_is_data_error(self, tmp_path):
        code = run_cli("match", "--algo", "serial", "--records",
                       str(tmp_path / "absent.odr"), *GRID_FLAGS,
                       "--out", str(tmp_path / "x"))
        assert code == 2

    def test_corrupt_records_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.odr"
        bad.write_bytes(b"XXXX")
        code = run_cli("match", "--algo", "serial", "--records", str(bad),
                       *GRID_FLAGS, "--out", str(tmp_path / "x"))
        assert code == 2


MATCH_VARIANTS = [("serial",), ("parallel",), ("greedy",), ("exact",),
                  ("parallel", "--dedup", "paper-literal")]


class TestMatchBytes:
    @pytest.mark.parametrize("variant", MATCH_VARIANTS)
    def test_lines_equal_per_element_writer(self, record_file, tmp_path, variant):
        # the lines as first written, one int() or float() per element
        out = tmp_path / "m.jsonl"
        assert run_cli("match", "--algo", *variant, "--records", str(record_file),
                       *GRID_FLAGS, "--out", str(out)) == 0
        records = list(read_records(record_file))
        anchors = build_anchor_grid(GridSpec(96, 96, 3, 3, ((16, 12), (32, 24))))
        batch = [r.boxes for r in records]
        costs = cost_matrices(anchors, batch)
        ids = [json.loads(line)["assignment"] for line in out.read_text().splitlines()]
        a = MatchAssignment(ids)
        deltas = compute_deltas(a, anchors, batch)
        want = "".join(json.dumps({
            "image_id": rec.image_id,
            "assignment": [int(x) for x in a.anchor_ids[i]],
            "total_weight": total_weight(MatchAssignment([a.anchor_ids[i]]), [costs[i]]),
            "deltas": [[float(v) for v in row] for row in deltas[i]],
        }, sort_keys=True, separators=(", ", ": ")) + "\n" for i, rec in enumerate(records))
        assert out.read_text() == want


class TestParserReuse:
    """main parses with one parser per process, and no call leaves state
    in it that changes a later call."""

    @staticmethod
    def _outcome(argv, out, capsys):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
        stdout, stderr = capsys.readouterr()
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, stdout, stderr, text

    def test_each_call_equals_a_fresh_parser(self, record_file, tmp_path, capsys,
                                             monkeypatch):
        out = tmp_path / "out.jsonl"
        match = ["match", "--records", str(record_file), *GRID_FLAGS, "--out", str(out)]
        calls = [
            [*match, "--algo", "parallel", "--dedup", "paper-literal"],
            [*match, "--algo", "parallel"],
            [*match, "--algo", "bogus"],
            [*match, "--algo", "serial"],
            [*match, "--algo", "serial", "--grid", "3x3x3"],
            [*match, "--algo", "exact"],
            ["plan-transfer", "--layers", "2"],
            [*match, "--algo", "greedy"],
        ]
        shared = [self._outcome(argv, out, capsys) for argv in calls]
        assert cli._shared_parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [self._outcome(argv, out, capsys) for argv in calls]
        assert shared == fresh
        assert [o[0] for o in shared] == [0, 0, 1, 0, 1, 0, 0, 0]
        # the default dedup is strict, which equals serial here, and differs
        # from paper-literal on this file
        assert shared[1][3] == shared[3][3] != shared[0][3]


class TestBench:
    def _config(self, tmp_path, name, prefetch):
        path = tmp_path / name
        path.write_text(json.dumps({
            "stages": [{"name": "load", "fixed_ms": 6},
                       {"name": "update", "fixed_ms": 3}],
            "batch_size": 2, "prefetch_depth": prefetch, "n_batches": 10}))
        return path

    def test_single_run_writes_report(self, record_file, tmp_path):
        cfg = self._config(tmp_path, "p.json", 2)
        out = tmp_path / "report.json"
        assert run_cli("bench", "--pipeline", str(cfg), "--records",
                       str(record_file), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["predicted_batches_per_sec"] == pytest.approx(1000 / 6)
        assert report["n_batches_processed"] == 10

    def test_compare_without_records_synthesizes(self, tmp_path):
        a = self._config(tmp_path, "a.json", 0)
        b = self._config(tmp_path, "b.json", 2)
        out = tmp_path / "cmp.json"
        assert run_cli("bench", "--compare", str(a), str(b), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["predicted_speedup"] == pytest.approx(9 / 6)
        assert report["speedup"] > 1.0

    def test_report_without_modeled_cost_is_json(self, record_file, tmp_path):
        # no stage has a cost: the predicted rate is inf, and the predicted
        # speedup inf / inf; both are written as null
        cfg = tmp_path / "free.json"
        cfg.write_text('{"stages": [{"name": "load"}], "batch_size": 2, "n_batches": 3}')
        out = tmp_path / "report.json"
        assert run_cli("bench", "--pipeline", str(cfg), "--records", str(record_file),
                       "--out", str(out)) == 0
        report = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert report["predicted_batches_per_sec"] is None
        assert report["batches_per_sec"] > 0 and report["n_batches_processed"] == 3
        assert run_cli("bench", "--compare", str(cfg), str(cfg), "--records", str(record_file),
                       "--out", str(out)) == 0
        report = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert report["predicted_speedup"] is None and report["speedup"] > 0
        assert report["a"]["predicted_batches_per_sec"] is None

    def test_malformed_config_is_data_error(self, record_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("bench", "--pipeline", str(bad), "--records",
                       str(record_file)) == 2

    def test_missing_flags_is_usage_error(self):
        assert run_cli("bench") == 1

    @pytest.mark.parametrize("fixed_ms", ["NaN", "Infinity", "1e300"])
    def test_unusable_latency_is_data_error(self, record_file, tmp_path, capsys, fixed_ms):
        cfg = tmp_path / "p.json"
        cfg.write_text('{"stages": [{"name": "load", "fixed_ms": %s}], "n_batches": 2}'
                       % fixed_ms)
        assert run_cli("bench", "--pipeline", str(cfg), "--records", str(record_file)) == 2
        assert "stage 'load'" in capsys.readouterr().err


class TestHyperopt:
    def test_builtin_objective_trial_log(self, tmp_path):
        out = tmp_path / "trials.jsonl"
        assert run_cli("hyperopt", "--space", "table3.json", "--budget", "20",
                       "--objective", "builtin:sphere", "--seed", "4",
                       "--out", str(out)) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 20
        assert [l["seq"] for l in lines] == list(range(20))
        best = -float("inf")
        for l in lines:
            p = l["point"]
            assert 1 <= p[0] <= 16 and p[0] == int(p[0])
            assert 0 <= p[1] <= 1
            assert 0.01 <= p[2] <= 0.1
            assert 1e-5 <= p[3] <= 1e-3
            best = max(best, l["value"])
            assert l["best_so_far"] == best

    def test_trial_log_carries_optimizer_state(self, tmp_path):
        out = tmp_path / "trials.jsonl"
        assert run_cli("hyperopt", "--space", "table3.json", "--budget", "40",
                       "--objective", "builtin:sphere", "--seed", "4",
                       "--out", str(out)) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(set(l) == {"seq", "point", "value", "best_so_far", "phase",
                              "lipschitz_k", "tr_radius", "tr_fallbacks"}
                   for l in lines)
        assert {l["phase"] for l in lines} == {"global", "local"}
        assert all(l["tr_radius"] > 0 for l in lines)
        for a, b in zip(lines, lines[1:]):  # both only ever grow
            assert b["lipschitz_k"] >= a["lipschitz_k"]
            assert b["tr_fallbacks"] >= a["tr_fallbacks"]

    def test_explicit_space_file(self, tmp_path):
        space = tmp_path / "s.json"
        space.write_text(json.dumps([{"name": "x", "lo": 0, "hi": 1}]))
        out = tmp_path / "t.jsonl"
        assert run_cli("hyperopt", "--space", str(space), "--budget", "5",
                       "--objective", "builtin:parabola", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_wrongly_typed_space_field_is_data_error(self, tmp_path, capsys):
        space = tmp_path / "s.json"
        space.write_text(json.dumps([{"name": "x", "lo": 0, "hi": 1, "integer": "false"}]))
        assert run_cli("hyperopt", "--space", str(space), "--budget", "5",
                       "--objective", "builtin:parabola") == 2
        assert "integer must be true or false" in capsys.readouterr().err

    def test_conflicting_modes_usage_error(self, tmp_path):
        assert run_cli("hyperopt", "--space", "table3.json", "--budget", "3",
                       "--objective", "builtin:sphere", "--ask-tell") == 1
        assert run_cli("hyperopt", "--space", "table3.json", "--budget", "3") == 1

    def test_unknown_builtin_usage_error(self):
        assert run_cli("hyperopt", "--space", "table3.json", "--budget", "3",
                       "--objective", "builtin:nope") == 1

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("mode", [["--objective", "builtin:sphere"], ["--ask-tell"]],
                             ids=["objective", "ask-tell"])
    def test_budget_below_one_is_usage_error(self, budget, mode, capsys):
        assert run_cli("hyperopt", "--space", "table3.json", "--budget", budget, *mode) == 1
        captured = capsys.readouterr()
        assert f"--budget must be >= 1, got {budget}" in captured.err
        assert captured.out == ""

    def test_unknown_builtin_reported_before_the_budget(self, capsys):
        assert run_cli("hyperopt", "--space", "table3.json", "--budget", "0",
                       "--objective", "builtin:nope") == 1
        assert "unknown builtin objective 'nope'" in capsys.readouterr().err

    def test_builtin_objective_looked_up_once(self, monkeypatch, tmp_path):
        from odkit import hyperopt
        lookups = []
        real = hyperopt.get_objective
        monkeypatch.setattr(hyperopt, "get_objective",
                            lambda name: lookups.append(name) or real(name))
        assert run_cli("hyperopt", "--space", "table3.json", "--budget", "5",
                       "--objective", "builtin:sphere", "--out", str(tmp_path / "t.jsonl")) == 0
        assert lookups == ["sphere"]

    def test_ask_tell_protocol_over_stdio(self, tmp_path):
        out = tmp_path / "t.jsonl"
        with subprocess.Popen(
                [sys.executable, "-m", "odkit.cli", "hyperopt", "--space",
                 "table3.json", "--budget", "6", "--ask-tell", "--seed", "2",
                 "--out", str(out)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
            for _ in range(6):
                line = proc.stdout.readline()
                point = json.loads(line)
                assert len(point) == 4
                value = -sum((v - 1) ** 2 for v in point)
                proc.stdin.write(f"tell {value}\n")
                proc.stdin.flush()
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_ask_tell_bad_reply_is_data_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "odkit.cli", "hyperopt", "--space",
             "table3.json", "--budget", "3", "--ask-tell"],
            input="garbage\n", capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2


class TestPlanTransfer:
    def test_twelve_entries_for_three_layers(self, capsys):
        assert run_cli("plan-transfer", "--layers", "3") == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 12
        labels = {e["label"] for e in entries}
        assert {"A1B", "A1B+", "B3B", "B3B+"} <= labels

    def test_label_convention(self):
        assert TransferPlanEntry("A", 3, True).label == "A3B+"
        assert TransferPlanEntry("B", 7, False).label == "B7B"

    def test_default_layer_count(self, capsys):
        assert run_cli("plan-transfer") == 0
        assert len(json.loads(capsys.readouterr().out)) == 40

    def test_entries_cover_grid(self):
        entries = plan_transfer(4)
        assert len(entries) == 16
        assert len({(e.source, e.n_layers, e.fine_tune) for e in entries}) == 16

    def test_zero_layers_usage_error(self):
        assert run_cli("plan-transfer", "--layers", "0") == 1


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli("frobnicate")
        assert e.value.code == 1

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli("gen-data", "--images", "1", "--out", "x", "--bogus")
        assert e.value.code == 1
