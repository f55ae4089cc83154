"""End-to-end checks of the command line: exit codes, printed values
frozen from the worked examples, file round trips, and byte-stable
bench output."""

import csv

import pytest
from click.testing import CliRunner

from planpack.cli import main
from planpack.model import load_instance, save_instance
from planpack.offline import optimal_schedule, parse_schedule


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def w2_file(w2, tmp_path):
    path = tmp_path / "w2.jsonl"
    save_instance(w2, str(path))
    return str(path)


@pytest.fixture
def w1_file(w1, tmp_path):
    path = tmp_path / "w1.jsonl"
    save_instance(w1, str(path))
    return str(path)


class TestSimulate:
    def test_prints_gain(self, runner, w2_file):
        result = runner.invoke(main, ["simulate", "--instance", w2_file])
        assert result.exit_code == 0
        assert result.output == "gain0 = 14\n"

    def test_greedy_gain(self, runner, w1_file):
        result = runner.invoke(
            main, ["simulate", "--algorithm", "greedy", "--instance", w1_file]
        )
        assert result.exit_code == 0
        assert "gain0 = 9" in result.output

    def test_missing_file_exits_2(self, runner):
        result = runner.invoke(main, ["simulate", "--instance", "nowhere.jsonl"])
        assert result.exit_code == 2
        assert "does not exist" in result.output

    def test_malformed_instance_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":1}\n')
        result = runner.invoke(main, ["simulate", "--instance", str(bad)])
        assert result.exit_code == 1
        assert "expected keys" in result.output

    def test_horizon_cap_enforced(self, runner, w2_file, monkeypatch):
        monkeypatch.setenv("SCHED_HORIZON_CAP", "1")
        result = runner.invoke(main, ["simulate", "--instance", w2_file])
        assert result.exit_code == 1
        assert "SCHED_HORIZON_CAP" in result.output

    def test_monotonicity_monitor_flag(self, runner, w1_file):
        ok = runner.invoke(
            main, ["simulate", "--instance", w1_file, "--check-monotonicity"]
        )
        assert ok.exit_code == 0
        trip = runner.invoke(
            main,
            ["simulate", "--algorithm", "greedy", "--instance", w1_file,
             "--check-monotonicity"],
        )
        assert trip.exit_code == 1


class TestOpt:
    def test_prints_weight_and_writes_schedule(self, runner, w2, w2_file, tmp_path):
        out = tmp_path / "w2.opt"
        result = runner.invoke(
            main, ["opt", "--instance", w2_file, "--out", str(out)]
        )
        assert result.exit_code == 0
        assert result.output == "opt = 15\n"
        parsed = parse_schedule(out.read_text())
        assert parsed == optimal_schedule(w2)

    def test_deep_augmenting_path(self, runner, chain, tmp_path):
        path = tmp_path / "chain.jsonl"
        save_instance(chain, str(path))
        result = runner.invoke(main, ["opt", "--instance", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output == "opt = 2401\n"


class TestVerify:
    def run_pipeline(self, runner, instance_file, tmp_path, algorithm="planm"):
        trace = tmp_path / "run.trace"
        comparison = tmp_path / "cmp.sched"
        r1 = runner.invoke(
            main,
            ["simulate", "--algorithm", algorithm, "--instance", instance_file,
             "--trace", str(trace)],
        )
        assert r1.exit_code == 0
        r2 = runner.invoke(
            main, ["opt", "--instance", instance_file, "--out", str(comparison)]
        )
        assert r2.exit_code == 0
        return str(trace), str(comparison)

    def test_clean_audit_with_ledger(self, runner, w2_file, tmp_path):
        trace, comparison = self.run_pipeline(runner, w2_file, tmp_path)
        ledger = tmp_path / "ledger.csv"
        result = runner.invoke(
            main,
            ["verify", "--instance", w2_file, "--trace", trace,
             "--comparison", comparison, "--out", str(ledger)],
        )
        assert result.exit_code == 0
        assert result.output.startswith("ok: 5 events")
        assert "margin -15/1+14/1*phi" in result.output
        with open(ledger, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["index", "time", "kind", "case", "detail"]
        assert len(rows) == 6
        assert [row[3] for row in rows[1:]] == [
            "A.2.a", "A.2.a", "A.1", "L.S.2", "O.1",
        ]

    def test_tampered_trace_reports_event(self, runner, w2_file, tmp_path):
        trace, comparison = self.run_pipeline(runner, w2_file, tmp_path)
        with open(trace) as fh:
            text = fh.read()
        tampered = tmp_path / "tampered.trace"
        tampered.write_text(text.replace("S,1,3", "S,1,1"))
        result = runner.invoke(
            main,
            ["verify", "--instance", w2_file, "--trace", str(tampered),
             "--comparison", comparison],
        )
        assert result.exit_code == 1
        assert "event=4" in result.output

    def test_greedy_trace_rejected(self, runner, w1_file, tmp_path):
        trace, comparison = self.run_pipeline(
            runner, w1_file, tmp_path, algorithm="greedy"
        )
        result = runner.invoke(
            main,
            ["verify", "--instance", w1_file, "--trace", trace,
             "--comparison", comparison],
        )
        assert result.exit_code == 1
        assert "greedy" in result.output

    def test_empty_instance(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        trace, comparison = self.run_pipeline(runner, str(empty), tmp_path)
        result = runner.invoke(
            main,
            ["verify", "--instance", str(empty), "--trace", trace,
             "--comparison", comparison],
        )
        assert result.exit_code == 0
        assert result.output.startswith("ok: 0 events")


class TestGenerate:
    def test_single_file_round_trips(self, runner, tmp_path):
        out = tmp_path / "inst.jsonl"
        args = ["generate", "--generator", "s-bounded", "--steps", "6",
                "--seed", "11", "--span", "3", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        first = out.read_text()
        inst = load_instance(str(out))
        assert all(p.deadline - p.release <= 3 for p in inst.packets)
        assert runner.invoke(main, args).exit_code == 0
        assert out.read_text() == first

    def test_count_writes_directory(self, runner, tmp_path):
        out = tmp_path / "family"
        result = runner.invoke(
            main,
            ["generate", "--generator", "agreeable", "--steps", "4",
             "--count", "3", "--out", str(out)],
        )
        assert result.exit_code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["agreeable-0.jsonl", "agreeable-1.jsonl", "agreeable-2.jsonl"]
        for line in result.output.splitlines():
            load_instance(line)

    def test_bad_config_exits_1(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["generate", "--generator", "uniform-random", "--steps", "-1",
             "--out", str(tmp_path / "x.jsonl")],
        )
        assert result.exit_code == 1
        assert "steps" in result.output


class TestBench:
    ARGS = ["bench", "--count", "2", "--steps", "6", "--weight-max", "30",
            "--seed", "4"]

    def test_all_rows_pass_and_byte_stable(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            result = runner.invoke(main, self.ARGS + ["--verify", "--out", str(path)])
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        with open(a, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4 * 2
        assert all(row["check"] == "pass" for row in rows)
        assert all(row["runtime"] == "-" for row in rows)

    def test_adversarial_family_ratios(self, runner):
        result = runner.invoke(
            main,
            ["bench", "--generator", "phi-adversarial", "--count", "1",
             "--steps", "8"],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(result.output.splitlines()))
        by_alg = {row["algorithm"]: row for row in rows}
        assert by_alg["planm"]["ratio"] == "1.000000"
        assert by_alg["greedy"]["ratio"] == "1.618034"

    def test_algorithm_filter_and_timings(self, runner):
        result = runner.invoke(
            main,
            self.ARGS + ["--generator", "agreeable", "--algorithm", "planm",
                         "--timings"],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(result.output.splitlines()))
        assert [row["algorithm"] for row in rows] == ["planm", "planm"]
        assert all(row["runtime"] != "-" for row in rows)
