"""End-to-end checks of the command line: exit codes, printed values
frozen from the worked examples, file round trips, and byte-stable
bench output."""

import csv

import pytest
from click.testing import CliRunner

from planpack.cli import main
from planpack.golden import WeightScale
from planpack.model import load_instance, save_instance
from planpack.offline import optimal_schedule, parse_schedule
from conftest import (
    ARRIVAL_END_EDITS, FAR, INSTANCE_END_EDITS, LOOSE_LEAP_EDITS, REPEATED_KEY_EDITS, run_cli,
)


@pytest.fixture
def runner():
    return CliRunner()


def assert_output_error(proc, path) -> None:
    """An output path that cannot be written is a typed error naming it."""
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"Error: {path}: ")
    assert "Traceback" not in proc.stderr


def assert_missing_folder(proc, path) -> None:
    """A missing output folder is the one error reported, and nothing is created."""
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"Error: {path}: No such file or directory\n"
    assert not path.parent.exists()


@pytest.fixture
def path_in_missing_dir(tmp_path):
    """An output path inside a directory that does not exist."""
    return tmp_path / "missing" / "out.txt"


@pytest.fixture
def bad_instance(tmp_path):
    """An instance file that fails to parse: reading it would be reported first."""
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": 1, "r": 0}\n')
    return str(path)


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

    def test_non_string_weight_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":1,"r":0,"d":1,"w":5}\n')
        result = runner.invoke(main, ["simulate", "--instance", str(bad)])
        assert result.exit_code == 1
        assert "num/den string" in result.output

    def test_deeply_nested_instance_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        result = runner.invoke(main, ["simulate", "--instance", str(bad)])
        assert result.exit_code == 1
        assert "line 1: bad JSON" in result.output
        assert "Traceback" not in result.output

    def test_repeated_key_exits_1(self, runner, w2_file):
        _, canonical, repeated = REPEATED_KEY_EDITS["instance-packet"]
        with open(w2_file) as fh:
            text = fh.read()
        with open(w2_file, "w") as fh:
            fh.write(text.replace(canonical, repeated))
        result = runner.invoke(main, ["simulate", "--instance", w2_file])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {w2_file}: line 1: a key repeats")

    @pytest.mark.parametrize("canonical, edited", INSTANCE_END_EDITS.values(),
                             ids=INSTANCE_END_EDITS.keys())
    def test_text_after_the_packet_exits_1(self, runner, w2_file, canonical, edited):
        with open(w2_file) as fh:
            text = fh.read()
        assert text.count(canonical) == 1
        with open(w2_file, "w") as fh:
            fh.write(text.replace(canonical, edited))
        result = runner.invoke(main, ["simulate", "--instance", w2_file])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {w2_file}: line 2: ")
        assert "Traceback" not in result.output

    def test_horizon_cap_enforced(self, runner, w2_file, monkeypatch):
        monkeypatch.setenv("SCHED_HORIZON_CAP", "1")
        result = runner.invoke(main, ["simulate", "--instance", w2_file])
        assert result.exit_code == 1
        assert "SCHED_HORIZON_CAP" in result.output

    def test_non_integer_horizon_cap_is_named(self, runner, w2_file, tmp_path, monkeypatch):
        for cap in ("abc", " 1_000 "):      # int() would read the second as 1000
            monkeypatch.setenv("SCHED_HORIZON_CAP", cap)
            message = f"SCHED_HORIZON_CAP must be an integer, got {cap!r}"
            simulate = runner.invoke(main, ["simulate", "--instance", w2_file])
            assert simulate.exit_code == 1
            assert simulate.output == f"Error: {w2_file}: {message}\n"
            generate = runner.invoke(
                main, ["generate", "--generator", "s-bounded", "--steps", "5",
                       "--out", str(tmp_path / "g.jsonl")]
            )
            assert generate.exit_code == 1
            assert generate.output == f"Error: {message}\n"

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

    @pytest.mark.parametrize("flags", [[], ["--check-monotonicity"]])
    def test_far_releases(self, far, tmp_path, flags):
        """A gap of 10**9 idle slots costs one event, not 10**9."""
        path = tmp_path / "far.jsonl"
        save_instance(far, str(path))
        proc = run_cli("simulate", "--instance", str(path), *flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "gain0 = 11\n"

    def test_unwritable_trace_exits_1(self, w2_file, path_in_missing_dir):
        proc = run_cli("simulate", "--instance", w2_file, "--trace", str(path_in_missing_dir))
        assert_output_error(proc, path_in_missing_dir)

    def test_missing_trace_folder_fails_before_the_run(self, bad_instance, path_in_missing_dir):
        proc = run_cli("simulate", "--instance", bad_instance, "--trace", str(path_in_missing_dir))
        assert_missing_folder(proc, path_in_missing_dir)


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

    def test_far_releases(self, runner, far, tmp_path):
        path = tmp_path / "far.jsonl"
        out = tmp_path / "far.opt"
        save_instance(far, str(path))
        result = runner.invoke(main, ["opt", "--instance", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == "opt = 11\n"
        assert out.read_text() == f"0,5\n{FAR},2\n{FAR + 1},4\n{FAR + 2},1\nW,11/1\n"

    def test_unwritable_out_exits_1(self, w2_file, path_in_missing_dir):
        proc = run_cli("opt", "--instance", w2_file, "--out", str(path_in_missing_dir))
        assert_output_error(proc, path_in_missing_dir)

    def test_missing_out_folder_fails_before_the_search(self, bad_instance, path_in_missing_dir):
        proc = run_cli("opt", "--instance", bad_instance, "--out", str(path_in_missing_dir))
        assert_missing_folder(proc, path_in_missing_dir)


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

    @pytest.mark.parametrize("which, canonical, lenient", [
        ("instance", '"w":"10/1"', '"w":"1_0/1"'),
        ("trace", "S,1,3,", "S, +1,3,"),
        ("comparison", "W,15/1", "W,15/-1"),
    ], ids=["instance", "trace", "comparison"])
    def test_numbers_off_the_grammar_exit_1(self, runner, w2_file, tmp_path, which,
                                            canonical, lenient):
        trace, comparison = self.run_pipeline(runner, w2_file, tmp_path)
        paths = {"instance": w2_file, "trace": trace, "comparison": comparison}
        path = paths[which]
        with open(path) as fh:
            text = fh.read()
        assert text.count(canonical) == 1
        with open(path, "w") as fh:
            fh.write(text.replace(canonical, lenient))
        result = runner.invoke(
            main,
            ["verify", "--instance", w2_file, "--trace", trace, "--comparison", comparison],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {path}: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("which, canonical, repeated", REPEATED_KEY_EDITS.values(),
                             ids=REPEATED_KEY_EDITS.keys())
    def test_repeated_json_key_exit_1(self, runner, w2_file, tmp_path, which, canonical,
                                      repeated):
        trace, comparison = self.run_pipeline(runner, w2_file, tmp_path)
        path = {"instance": w2_file, "trace": trace}[which]
        with open(path) as fh:
            text = fh.read()
        assert text.count(canonical) == 1
        with open(path, "w") as fh:
            fh.write(text.replace(canonical, repeated))
        result = runner.invoke(
            main,
            ["verify", "--instance", w2_file, "--trace", trace, "--comparison", comparison],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {path}: ")
        assert "a key repeats" in result.output

    @pytest.mark.parametrize("canonical, edited", ARRIVAL_END_EDITS.values(),
                             ids=ARRIVAL_END_EDITS.keys())
    def test_bad_arrival_cell_exit_1(self, runner, w2_file, tmp_path, canonical, edited):
        trace, comparison = self.run_pipeline(runner, w2_file, tmp_path)
        with open(trace) as fh:
            text = fh.read()
        assert text.count(canonical) == 1
        with open(trace, "w") as fh:
            fh.write(text.replace(canonical, edited))
        result = runner.invoke(
            main,
            ["verify", "--instance", w2_file, "--trace", trace, "--comparison", comparison],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {trace}: trace line 3: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("canonical, lenient", LOOSE_LEAP_EDITS.values(),
                             ids=LOOSE_LEAP_EDITS.keys())
    def test_loose_leap_record_exit_1(self, runner, leap_chain, tmp_path, canonical, lenient):
        instance = str(tmp_path / "chain.jsonl")
        save_instance(leap_chain, instance)
        trace, comparison = self.run_pipeline(runner, instance, tmp_path)
        with open(trace) as fh:
            text = fh.read()
        assert text.count(canonical) == 1
        with open(trace, "w") as fh:
            fh.write(text.replace(canonical, lenient))
        result = runner.invoke(
            main, ["verify", "--instance", instance, "--trace", trace, "--comparison", comparison],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {trace}: trace line 6: ")
        assert "Traceback" not in result.output

    def test_verify_builds_one_weight_scale(self, runner, leap_chain, tmp_path, monkeypatch):
        """The trace is read in the units of the instance's scale, the
        only one a verify builds (leap_chain weighs 1/2, so D = 2)."""
        instance = str(tmp_path / "chain.jsonl")
        save_instance(leap_chain, instance)
        trace, comparison = self.run_pipeline(runner, instance, tmp_path)
        built = []
        init = WeightScale.__init__

        def counting_init(scale, weights):
            built.append(scale)
            init(scale, weights)

        monkeypatch.setattr(WeightScale, "__init__", counting_init)
        result = runner.invoke(
            main, ["verify", "--instance", instance, "--trace", trace, "--comparison", comparison,
                   "--out", str(tmp_path / "ledger.csv")],
        )
        assert result.exit_code == 0, result.output
        assert len(built) == 1

    @pytest.mark.parametrize("edits", [
        [],
        [('"w":"1/2"', '"w":"1/6"')],
    ], ids=["off-the-grid", "on-the-grid-of-edited-arrivals"])
    def test_schedule_weight_off_the_instance_grid_exit_1(self, runner, leap_chain, tmp_path,
                                                          edits):
        """A weight change of 1/3 is not a multiple of 1/2, the instance's
        1/D, even where the trace's own arrivals are over 6."""
        instance = str(tmp_path / "chain.jsonl")
        save_instance(leap_chain, instance)
        trace, comparison = self.run_pipeline(runner, instance, tmp_path)
        with open(trace) as fh:
            text = fh.read()
        for canonical, edited in [('{"4":"1/1(+1)"}', '{"4":"1/3(+1)"}'), *edits]:
            assert text.count(canonical) == 1
            text = text.replace(canonical, edited)
        with open(trace, "w") as fh:
            fh.write(text)
        result = runner.invoke(
            main, ["verify", "--instance", instance, "--trace", trace, "--comparison", comparison],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {trace}: trace line 6: ")
        assert "1/3 is not a multiple of 1/2" in result.output

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

    @pytest.mark.parametrize("bad", ["trace", "comparison"])
    def test_non_utf8_file_exits_1(self, runner, w2_file, tmp_path, bad):
        files = dict(zip(("trace", "comparison"), self.run_pipeline(runner, w2_file, tmp_path)))
        files[bad] = str(tmp_path / "garbled.txt")
        (tmp_path / "garbled.txt").write_bytes(b"\xff\n")
        result = runner.invoke(
            main,
            ["verify", "--instance", w2_file, "--trace", files["trace"],
             "--comparison", files["comparison"]],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {files[bad]}: ")
        assert "can't decode byte 0xff" in result.output

    @pytest.mark.parametrize("cell", ["0_1,2", " +1 , 2", "\u0661,\u0662"],
                             ids=["underscore", "sign-and-blanks", "arabic-indic-digits"])
    def test_non_canonical_comparison_cell_exits_1(self, runner, w2_file, tmp_path, cell):
        """Each cell reads as slot 1, packet 2 under int(): the written
        line is 1,2."""
        trace, comparison = self.run_pipeline(runner, w2_file, tmp_path)
        with open(comparison) as fh:
            assert fh.read() == "0,1\n1,2\nW,15/1\n"
        with open(comparison, "w", encoding="utf-8") as fh:
            fh.write(f"0,1\n{cell}\nW,15/1\n")
        result = runner.invoke(
            main,
            ["verify", "--instance", w2_file, "--trace", trace,
             "--comparison", comparison],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {comparison}: line 2: ")

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

    def test_unwritable_ledger_exits_1(self, runner, w2_file, tmp_path, path_in_missing_dir):
        trace, comparison = self.run_pipeline(runner, w2_file, tmp_path)
        proc = run_cli("verify", "--instance", w2_file, "--trace", trace,
                       "--comparison", comparison, "--out", str(path_in_missing_dir))
        assert_output_error(proc, path_in_missing_dir)

    def test_missing_ledger_folder_fails_before_the_audit(
        self, runner, w2_file, tmp_path, path_in_missing_dir
    ):
        trace, comparison = self.run_pipeline(runner, w2_file, tmp_path)
        tampered = tmp_path / "tampered.trace"
        with open(trace) as fh:
            tampered.write_text(fh.read().replace("S,1,3", "S,1,1"))
        proc = run_cli("verify", "--instance", w2_file, "--trace", str(tampered),
                       "--comparison", comparison, "--out", str(path_in_missing_dir))
        assert_missing_folder(proc, path_in_missing_dir)


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

    def test_unwritable_out_exits_1(self, tmp_path, path_in_missing_dir):
        args = ("generate", "--generator", "agreeable", "--steps", "4")
        assert_output_error(run_cli(*args, "--out", str(path_in_missing_dir)), path_in_missing_dir)
        taken = tmp_path / "taken.jsonl"
        taken.write_text("")
        assert_output_error(run_cli(*args, "--count", "2", "--out", str(taken)), taken)


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

    def test_unwritable_out_exits_1(self, path_in_missing_dir):
        proc = run_cli("bench", "--generator", "agreeable", "--count", "1", "--steps", "3",
                       "--out", str(path_in_missing_dir))
        assert_output_error(proc, path_in_missing_dir)

    def test_missing_out_folder_fails_before_any_row(self, path_in_missing_dir):
        # without the early check, the bad --steps would be reported first
        proc = run_cli("bench", "--generator", "agreeable", "--count", "1", "--steps", "-1",
                       "--out", str(path_in_missing_dir))
        assert_missing_folder(proc, path_in_missing_dir)
