"""Smoke test of the pipeline benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest pipebench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "pipebench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False,
    )


def _tiny(workload: str, trace: int, seed: int = 0) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tampered_pin_raises_failed_ratio():
    sys.path.insert(0, str(run.SRC))
    workload = workloads.WORKLOADS["short-window"]
    pins = run.load_pins("tiny", workload.name, run.PIN_SEED)
    assert run.measure(workload, run.PIN_SEED, 0, False, "tiny", pins)["failed"] == 0
    tampered = copy.deepcopy(pins)
    tampered[0]["ledger_sha256"] = "0" * 64
    result = run.measure(workload, run.PIN_SEED, 0, False, "tiny", tampered)
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_traced_counters_repeat_across_runs():
    runs = [_tiny("short-window", 1, seed=3) for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in r["metrics"].items() if m["unit"] != "s"}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["plan.refresh_calls"] > 0


def test_benchmark_json_matches_the_benchmark():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "dense-random", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_span_checks_catch_broken_nesting():
    import tracing

    good = [("cli.verify", 0.0, 10.0, -1), ("plan.refresh", 1.0, 4.0, 0),
            ("plan.clone", 4.0, 9.0, 0)]
    assert tracing.check_spans(good) == []
    assert run.check_traced_total(10.0, [10.0]) == []
    outside = [good[0], ("plan.refresh", 1.0, 11.0, 0)]
    assert tracing.check_spans(outside)
    overlapping = [good[0], ("plan.refresh", 1.0, 6.0, 0), ("plan.clone", 4.0, 9.0, 0)]
    assert tracing.check_spans(overlapping)
    assert run.check_traced_total(9.0, [10.0])
