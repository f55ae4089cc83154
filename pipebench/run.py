#!/usr/bin/env python3
"""Pipeline benchmark for planpack.

Usage, from the root of a checkout:

    python3 pipebench/run.py --workload dense-random --seed 0 --seconds 35 --trace 0
    python3 pipebench/run.py --workload all

One run builds a workload's instances from the seed, writes them to a
scratch directory, and then takes every instance, again and again until
``--seconds`` have passed, through the four user-facing commands:
``simulate --algorithm planm --trace``, ``simulate --algorithm greedy
--trace``, ``opt --out`` and ``verify --out``.  The commands run
in-process through the click entry point, one thread, closed loop, with
the same file I/O a ``planpack`` user pays.  Every output is checked
exactly after each pass; for the pinned seed it is also compared with
``pins.json``.

Each pass over the batch is one round.  Every time metric is a batch
total in wall seconds: the sum over instances of each instance's median
over rounds.  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` runs every command untraced and then traced and
prints the per-layer metrics of ``tracing.py``; the counters of all
traced rounds must agree exactly.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Every time is wall time, what a user of the commands waits for.
clock = time.perf_counter

STAGES = ("simulate_planm", "simulate_greedy", "opt", "verify")

END_TO_END = {
    "setup_s": "s",
    "simulate_planm_s": "s",
    "simulate_greedy_s": "s",
    "opt_s": "s",
    "verify_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

EVENT_KINDS = ("arrival", "ordinary", "simple-leap", "iterated-leap", "idle", "greedy")
LEAP_CHAIN_BUCKETS = 6      # lengths 0..5, then one bucket for 6 and longer
CASES = (
    "A.1", "A.2.a", "A.2.b", "O.1", "O.2", "ADV.0", "ADV.1", "ADV.2",
    "L.InSeg.1", "L.InSeg.2", "L.S.1", "L.S.2", "L.I.1", "L.I.2",
    "T", "M.i", "M.ii", "I",
)

PER_LAYER = {
    "golden.weight_bits_max": "bits",
    "golden.sign_calls": "count",
    "model.parse_instance_s": "s",
    "model.instance_bytes": "bytes",
    "plan.refresh_calls": "count",
    "plan.refresh_s": "s",
    "plan.refresh_slots_mean": "slots",
    "plan.refresh_pending_mean": "packets",
    "plan.clone_calls": "count",
    "plan.clone_s": "s",
    "schedulers.run_s": "s",
    "schedulers.planm_step_s": "s",
    "schedulers.greedy_step_s": "s",
    **{f"schedulers.events.{kind}": "count" for kind in EVENT_KINDS},
    **{f"schedulers.leap_chain.{n}": "count" for n in range(LEAP_CHAIN_BUCKETS)},
    f"schedulers.leap_chain.{LEAP_CHAIN_BUCKETS}plus": "count",
    "schedulers.leap_chain_max": "links",
    "offline.optimal_schedule_s": "s",
    "offline.canonical_assignment_s": "s",
    "offline.schedule_io_s": "s",
    "trace_io.format_s": "s",
    "trace_io.parse_s": "s",
    "trace_io.bytes": "bytes",
    "verifier.replay_s": "s",
    "verifier.on_arrival_s": "s",
    "verifier.on_ordinary_step_s": "s",
    "verifier.on_leap_step_s": "s",
    "verifier.on_idle_s": "s",
    "verifier.finalize_s": "s",
    **{f"verifier.case.{case}": "count" for case in CASES},
    "cli.self_s": "s",
    "traced_pipeline_s": "s",
    "trace_overhead_s": "s",
}

SETUP_REPEATS = 9
SETUP_REPEATS_PER_ROUND = 4
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 2
PIN_SEED = 0
PINS = HERE / "pins.json"


class BenchmarkError(Exception):
    """The benchmark cannot run here (no planpack sources)."""


# ----------------------------------------------------------------------
# set-up

def load_program() -> SimpleNamespace:
    """Import planpack afresh from this checkout's sources."""
    for name in [m for m in sys.modules if m == "planpack" or m.startswith("planpack.")]:
        del sys.modules[name]
    cli = importlib.import_module("planpack.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"planpack imported from {cli.__file__}, not from {SRC}")
    mods = {name: sys.modules[f"planpack.{name}"] for name in (
        "golden", "model", "generators", "plan", "schedulers", "offline",
        "trace_io", "verifier",
    )}
    return SimpleNamespace(cli=cli, **mods)


def setup(workload: workloads.Workload, scale: str, seed: int, workdir: Path,
          repeats: int, times: list[float]):
    """Import planpack, build the instances and write their files,
    ``repeats`` times, appending each repeat's time to ``times``;
    returns the last program, instances and paths.  Each repeat starts
    from a collected heap, so earlier garbage does not land in its time."""
    for _ in range(repeats):
        gc.collect()
        start = clock()
        pp = load_program()
        instances = workloads.build(workload, scale, seed, pp)
        paths = []
        for k, inst in enumerate(instances):
            d = workdir / f"i{k}"
            d.mkdir(exist_ok=True)
            path = d / "instance.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(pp.model.serialize_instance(inst))
            paths.append(path)
        times.append(clock() - start)
    return pp, instances, paths


# ----------------------------------------------------------------------
# one round: every instance through the four commands

def invoke(pp: SimpleNamespace, args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        pp.cli.main.main(args=args, prog_name="planpack", standalone_mode=False)
    return out.getvalue()


def commands(path: Path) -> list[tuple[str, list[str]]]:
    d = path.parent
    inst = str(path)
    return [
        ("simulate", ["simulate", "--instance", inst, "--algorithm", "planm",
                      "--trace", str(d / "planm.trace")]),
        ("simulate", ["simulate", "--instance", inst, "--algorithm", "greedy",
                      "--trace", str(d / "greedy.trace")]),
        ("opt", ["opt", "--instance", inst, "--out", str(d / "opt.sched")]),
        ("verify", ["verify", "--instance", inst, "--trace", str(d / "planm.trace"),
                    "--comparison", str(d / "opt.sched"), "--out", str(d / "ledger.csv")]),
    ]


def run_round(pp: SimpleNamespace, paths: list[Path], tracer=None):
    """Per instance, its stage times (None if a stage raised) and its
    outputs (or the exception that stopped it).

    With a tracer, each command runs twice back to back, untraced and
    then traced, and each stage time is an (untraced, traced) pair; the
    host's speed changes little between the two, so their difference is
    the tracing overhead.
    """
    times: list[list | None] = []
    outputs: list[list[str] | Exception] = []
    for path in paths:
        ts, outs = [], []
        try:
            for command, args in commands(path):
                start = clock()
                out = invoke(pp, args)
                t = clock() - start
                if tracer is not None:
                    tracer.install()
                    try:
                        start = clock()
                        traced_out = tracer.span(f"cli.{command}", invoke, pp, args)
                        t = (t, clock() - start)
                    finally:
                        tracer.uninstall()
                    if traced_out != out:
                        raise ValueError(f"traced {command} printed something else")
                ts.append(t)
                outs.append(out)
        except Exception as exc:  # any failing stage fails the instance
            times.append(None)
            outputs.append(exc)
        else:
            times.append(ts)
            outputs.append(outs)
    return times, outputs


# ----------------------------------------------------------------------
# exact checks

_VERIFY_LINE = re.compile(
    r"^ok: (\d+) events, advgain (\S+), gain0 (\S+), margin (\S+)$"
)


def _value(text: str, prefix: str) -> Fraction:
    line = text.strip()
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {line!r}")
    return Fraction(line[len(prefix):])


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observe(pp: SimpleNamespace, path: Path, outs: list[str]) -> dict:
    """The pinned outputs of one instance, after the exact checks.

    Raises ValueError when a bound, the audit or a cross-check fails.
    """
    golden = pp.golden
    planm = _value(outs[0], "gain0 = ")
    greedy = _value(outs[1], "gain0 = ")
    opt = _value(outs[2], "opt = ")
    m = _VERIFY_LINE.match(outs[3].strip())
    if m is None:
        raise ValueError(f"audit did not pass: {outs[3].strip()!r}")
    margin = golden.PHI * planm - opt
    if golden.golden_sign(margin) < 0:
        raise ValueError("phi * gain0 < opt for planm")
    if 2 * greedy < opt:
        raise ValueError("2 * gain0 < opt for greedy")
    if Fraction(m.group(2)) != opt or Fraction(m.group(3)) != planm:
        raise ValueError("audit totals disagree with simulate and opt")
    if m.group(4) != golden.format_golden(margin):
        raise ValueError("audit margin disagrees with phi * gain0 - opt")
    d = path.parent
    return {
        "gain0_planm": str(planm),
        "gain0_greedy": str(greedy),
        "opt": str(opt),
        "margin": m.group(4),
        "planm_trace_sha256": _digest(d / "planm.trace"),
        "greedy_trace_sha256": _digest(d / "greedy.trace"),
        "schedule_sha256": _digest(d / "opt.sched"),
        "ledger_sha256": _digest(d / "ledger.csv"),
    }


def check_round(pp, paths, outputs, first: dict, pinned: list | None, problems: list) -> int:
    """Check one round's outputs; returns the number of failed instances.

    ``first`` holds each instance's outputs from the first round, so
    every later round must reproduce them byte for byte.
    """
    failed = 0
    for k, (path, outs) in enumerate(zip(paths, outputs)):
        try:
            if isinstance(outs, Exception):
                raise outs
            seen = observe(pp, path, outs)
            if seen != first.setdefault(k, seen):
                raise ValueError("outputs differ from the first round")
            if pinned is not None and seen != pinned[k]:
                diff = sorted(key for key in seen if seen[key] != pinned[k].get(key))
                raise ValueError(f"outputs differ from pins.json in {diff}")
        except Exception as exc:  # counted as a failed instance
            failed += 1
            problems.append(f"instance {k}: {type(exc).__name__}: {exc}")
    return failed


def load_pins(scale: str, workload: str, seed: int) -> list | None:
    if seed != PIN_SEED:
        return None
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)[scale][workload]


# ----------------------------------------------------------------------
# traced metrics

def counters(tracer: tracing.Tracer, instances: list) -> dict:
    """Deterministic per-round counters of the traced layers."""
    c = tracer.counts
    calls = max(c["refresh_calls"], 1)
    out = {
        "golden.weight_bits_max": max(
            (max(p.weight.numerator.bit_length(), p.weight.denominator.bit_length())
             for inst in instances for p in inst.packets),
            default=0,
        ),
        "golden.sign_calls": c["sign_calls"],
        "model.instance_bytes": c["instance_bytes"],
        "plan.refresh_calls": c["refresh_calls"],
        "plan.refresh_slots_mean": c["refresh_slots"] / calls,
        "plan.refresh_pending_mean": c["refresh_pending"] / calls,
        "plan.clone_calls": c["clone_calls"],
        "trace_io.bytes": c["trace_bytes"],
    }
    events = dict.fromkeys(EVENT_KINDS, 0)
    chains = [0] * (LEAP_CHAIN_BUCKETS + 1)
    longest = 0
    for trace in tracer.run_traces:
        for ev in trace.events:
            events[getattr(ev, "kind", "arrival")] += 1
            leap = getattr(ev, "leap", None)
            if leap is not None:
                n = len(leap.chain)
                chains[min(n, LEAP_CHAIN_BUCKETS)] += 1
                longest = max(longest, n)
    for kind, n in events.items():
        out[f"schedulers.events.{kind}"] = n
    for n in range(LEAP_CHAIN_BUCKETS):
        out[f"schedulers.leap_chain.{n}"] = chains[n]
    out[f"schedulers.leap_chain.{LEAP_CHAIN_BUCKETS}plus"] = chains[LEAP_CHAIN_BUCKETS]
    out["schedulers.leap_chain_max"] = longest
    cases = dict.fromkeys(CASES, 0)
    for result in tracer.verifications:
        for rep in result.reports:
            for label in case_labels(rep.case, rep.detail):
                if label not in cases:
                    raise ValueError(f"unknown proof case {label!r}")
                cases[label] += 1
    for label, n in cases.items():
        out[f"verifier.case.{label}"] = n
    return out


_DETAIL_CASE = re.compile(r"adv=(ADV\.\d)|(L\.InSeg\.\d)|\b(T|M\.i|M\.ii|I)\[")


def case_labels(case: str, detail: str) -> list[str]:
    """The proof cases one ledger report exercised: its own case, the
    adversary substep, the first-segment case and each window group."""
    labels = [case]
    for m in _DETAIL_CASE.finditer(detail):
        labels.append(next(g for g in m.groups() if g))
    return labels


# ----------------------------------------------------------------------
# the run

def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
            scale: str = "full", pins: list | None = None):
    """One benchmark run; returns the result object printed as JSON.

    Each stage time is the sum over instances of that instance's median
    time for the stage, and ``pipeline_s`` is the sum of the four stage
    times.
    """
    if pins is None:
        pins = load_pins(scale, workload.name, seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup_times: list[float] = []
        pp, instances, paths = setup(workload, scale, seed, workdir, SETUP_REPEATS, setup_times)
        first: dict = {}
        problems: list[str] = []
        attempted = failed = rounds = 0
        samples: list[list[list[float]]] = [[] for _ in paths]
        round_totals: list[float] = []
        traced: list[tuple[dict, float, dict, float]] = []
        all_spans: list = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            tracer = tracing.Tracer(pp, clock) if trace else None
            times, outputs = run_round(pp, paths, tracer)
            attempted += len(paths)
            failed += check_round(pp, paths, outputs, first, pins, problems)
            clean = None not in times
            if trace:
                try:
                    counts = counters(tracer, instances)
                except ValueError as exc:
                    problems.append(str(exc))
                    counts = {}
                all_spans.append(tracer.spans)
                if clean:
                    problems.extend(tracing.check_spans(tracer.spans))
                    self_s, roots = tracing.self_times(tracer.spans)
                    pairs = [pair for ts in times for pair in ts]
                    round_totals.append(sum(u for u, _ in pairs))
                    problems.extend(check_traced_total(roots, [t for _, t in pairs]))
                    traced.append((self_s, roots, counts, sum(t - u for u, t in pairs)))
            else:
                for k, ts in enumerate(times):
                    if ts is not None:
                        samples[k].append(ts)
                if clean:
                    round_totals.append(sum(map(sum, times)))
            rounds += 1
            # the next round runs on a fresh set-up; timing set-up between
            # rounds samples the host's speed over the whole run, as the
            # rounds do
            pp, instances, paths = setup(workload, scale, seed, workdir,
                                         SETUP_REPEATS_PER_ROUND, setup_times)
            now = time.perf_counter()
            # stop before a round that would overrun --seconds
            least = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
            if rounds >= least and now - start + (now - began) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not round_totals or (trace and not traced):
        problems.append("no round got every instance through the pipeline")
        round_totals.append(0.0)
        traced.append(({}, 0.0, {}, 0.0))
    if not trace:
        stage_s = [sum(statistics.median(s[i] for s in inst) for inst in samples if inst)
                   for i in range(len(STAGES))]
        metrics = {
            "setup_s": statistics.median(setup_times),
            **{f"{stage}_s": t for stage, t in zip(STAGES, stage_s)},
            "pipeline_s": sum(stage_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(traced, problems)
        units = PER_LAYER
        write_spans(OUT / f"spans-{workload.name}-{seed}.csv", all_spans)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "round_pipeline_s": round_totals,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


# The root spans are the traced commands, timed once more around the
# root span in run_round; the two may differ only by the span's own
# bookkeeping.
SPAN_SLACK_S = 1e-4


def check_traced_total(roots: float, commands: list[float]) -> list[str]:
    """The root spans of a round, whose self times sum to ``roots``,
    against the traced command times measured around them."""
    outer = sum(commands)
    if not 0 <= outer - roots <= SPAN_SLACK_S * len(commands):
        return [f"traced pipeline {roots:.6f} s, but its commands took {outer:.6f} s"]
    return []


def layer_metrics(traced: list, problems: list) -> dict:
    """Counters of the traced rounds, which must all agree, the self
    times of the traced round with the median pipeline time, and the
    median over rounds of traced minus untraced pipeline time."""
    counts = traced[0][2]
    if any(c != counts for _, _, c, _ in traced):
        problems.append("counters differ between traced rounds of one seed")
    by_time = sorted(traced, key=lambda r: r[1])
    self_s, roots, _, _ = by_time[(len(by_time) - 1) // 2]
    metrics = dict(counts)
    for name in set(tracing.SELF_TIME_METRICS.values()):
        metrics[name] = self_s.get(name, 0.0)
    metrics["traced_pipeline_s"] = roots
    metrics["trace_overhead_s"] = statistics.median(r[3] for r in traced)
    missing = [name for name in PER_LAYER if name not in metrics]
    if missing:
        problems.append(f"per-layer metrics missing: {missing}")
        metrics.update(dict.fromkeys(missing, 0))
    return metrics


def write_spans(path: Path, rounds: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,name,start,end,parent\n")
        for r, spans in enumerate(rounds):
            for name, start, end, parent in spans:
                fh.write(f"{r},{name},{start:.9f},{end:.9f},{parent}\n")


# ----------------------------------------------------------------------
# command line

def print_result(name: str, result: dict) -> None:
    failed_ratio = result["failed"] / result["attempted"]
    print(f"# {name}: {result['attempted']} instance pipelines, "
          f"failed_ratio = {failed_ratio:.6g}")
    if "round_pipeline_s" in result:
        print("#   untraced pipeline_s per round: "
              + " ".join(f"{t:.4f}" for t in result["round_pipeline_s"]))
    for problem in result["problems"][:20]:
        print(f"#   problem: {problem}")
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        result.setdefault("problems", [])
        print_result(name, result)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "planpack" / "__init__.py").is_file():
        print(f"error: no planpack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print_result(workload.name, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
