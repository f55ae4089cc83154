"""Command line front end.

Five subcommands cover the pipeline: ``generate`` writes instance
files, ``simulate`` runs a scheduler and records a trace, ``opt``
computes the exact offline optimum, ``verify`` audits a recorded trace
against a comparison schedule, and ``bench`` batches all of it into a
CSV ratio table.  All pass/fail decisions use exact arithmetic; the
decimal ratio column is rendered at six digits for humans only.
"""

from __future__ import annotations

import csv
import os
import sys
import time
from fractions import Fraction

import click

from planpack import generators
from planpack.generators import KINDS, GeneratorConfig
from planpack.golden import PHI, GoldenNumber, format_golden, golden, golden_sign
from planpack.model import (
    Instance,
    InstanceSyntaxError,
    load_instance,
    serialize_instance,
)
from planpack.offline import (
    Schedule,
    ScheduleSyntaxError,
    format_schedule,
    optimal_schedule,
    parse_schedule,
)
from planpack.schedulers import ALGORITHMS, MonotonicityError, run
from planpack.trace_io import TraceSyntaxError, load_trace, save_trace
from planpack.verifier import VerifierError, verify_trace

LEDGER_COLUMNS = (
    "index", "time", "kind", "case", "detail", "advgain", "dweights",
    "dpsi_adv", "dpsi_initseg", "dpsi_window", "dpsi_total",
    "psi_after", "margin",
)

BENCH_COLUMNS = ("instance", "algorithm", "gain0", "opt", "check", "ratio", "runtime")


def _display(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _decimal6(q: Fraction) -> str:
    scaled = round(q * 10**6)
    sign = "-" if scaled < 0 else ""
    mag = abs(scaled)
    return f"{sign}{mag // 10**6}.{mag % 10**6:06d}"


def _read_instance(path: str) -> Instance:
    try:
        return load_instance(path)
    except (InstanceSyntaxError, ValueError) as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _read_schedule(path: str) -> Schedule:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_schedule(fh.read())
    except ScheduleSyntaxError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _read_trace(path: str) -> object:
    try:
        return load_trace(path)
    except TraceSyntaxError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


existing_file = click.Path(exists=True, dir_okay=False)


@click.group()
def main() -> None:
    """Exact-arithmetic toolkit for online deadline packet scheduling.

    The SCHED_HORIZON_CAP environment variable, when set, bounds the
    horizon any command will accept.
    """


@main.command()
@click.option("--instance", "instance_path", type=existing_file, required=True,
              help="Instance file (one packet JSON per line).")
@click.option("--algorithm", type=click.Choice(ALGORITHMS), default="planm",
              show_default=True)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="Write the replayable event log here.")
@click.option("--check-monotonicity", is_flag=True,
              help="Monitor the per-slot admission floors during the run.")
def simulate(instance_path: str, algorithm: str, trace_path: str | None,
             check_monotonicity: bool) -> None:
    """Run a scheduler over an instance and print its on-time gain."""
    inst = _read_instance(instance_path)
    try:
        result, trace = run(algorithm, inst, check_monotonicity=check_monotonicity)
    except MonotonicityError as exc:
        raise click.ClickException(str(exc)) from exc
    if trace_path is not None:
        save_trace(trace, trace_path)
    click.echo(f"gain0 = {_display(result.gain0)}")


@main.command()
@click.option("--instance", "instance_path", type=existing_file, required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the schedule (slot,packet lines plus weight footer).")
def opt(instance_path: str, out_path: str | None) -> None:
    """Compute an exact maximum-weight offline schedule."""
    inst = _read_instance(instance_path)
    schedule = optimal_schedule(inst)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(format_schedule(schedule))
    click.echo(f"opt = {_display(schedule.weight0)}")


@main.command()
@click.option("--instance", "instance_path", type=existing_file, required=True)
@click.option("--trace", "trace_path", type=existing_file, required=True)
@click.option("--comparison", "comparison_path", type=existing_file, required=True,
              help="Schedule file the trace is audited against.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the per-event audit ledger as CSV.")
def verify(instance_path: str, trace_path: str, comparison_path: str,
           out_path: str | None) -> None:
    """Audit a recorded run against a comparison schedule.

    Exits 0 when every per-event check passes, 1 on the first
    violation (the message carries the event index).
    """
    inst = _read_instance(instance_path)
    trace = _read_trace(trace_path)
    comparison = _read_schedule(comparison_path)
    try:
        result = verify_trace(inst, trace, comparison)
    except VerifierError as exc:
        raise click.ClickException(str(exc)) from exc
    # the ledger's values are integers over the instance's common
    # denominator; its rows show the rationals
    rational = result.scale.rational

    def golden_text(x: GoldenNumber) -> str:
        return format_golden(result.scale.golden(x))

    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(LEDGER_COLUMNS)
            for rep in result.reports:
                writer.writerow((
                    rep.index, rep.time, rep.kind, rep.case, rep.detail,
                    _display(rational(rep.advgain)), _display(rational(rep.dweights)),
                    golden_text(rep.dpsi_adv), golden_text(rep.dpsi_initseg),
                    golden_text(rep.dpsi_window), golden_text(rep.dpsi_total),
                    golden_text(rep.psi_after), golden_text(rep.margin),
                ))
    s = result.summary
    click.echo(
        f"ok: {s.events} events, advgain {_display(s.advgain_total)}, "
        f"gain0 {_display(s.gain0)}, margin {format_golden(s.bound_margin)}"
    )


@main.command()
@click.option("--generator", "kind", type=click.Choice(KINDS), required=True)
@click.option("--steps", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=1, show_default=True,
              help="Instances to emit; seeds count up from --seed.")
@click.option("--packets-per-step", type=int, default=5, show_default=True)
@click.option("--weight-max", type=int, default=10**6, show_default=True)
@click.option("--span", type=int, default=8, show_default=True,
              help="Max deadline minus release (s-bounded only).")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Output file; with --count > 1, a directory.")
def generate(kind: str, steps: int, seed: int, count: int, packets_per_step: int,
             weight_max: int, span: int, out_path: str) -> None:
    """Write deterministic instance files."""
    if count < 1:
        raise click.ClickException("--count must be at least 1")
    paths = []
    try:
        for i in range(count):
            cfg = GeneratorConfig(kind, steps, seed + i, packets_per_step,
                                  weight_max, span)
            inst = generators.generate(cfg)
            if count == 1:
                path = out_path
            else:
                os.makedirs(out_path, exist_ok=True)
                path = os.path.join(out_path, f"{kind}-{seed + i}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_instance(inst))
            paths.append(path)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    for path in paths:
        click.echo(path)


@main.command()
@click.option("--generator", "kind", type=click.Choice(KINDS + ("all",)),
              default="all", show_default=True)
@click.option("--algorithm", "algorithms", type=click.Choice(ALGORITHMS),
              multiple=True, help="Repeatable; default runs both.")
@click.option("--count", type=int, default=10, show_default=True,
              help="Instances per generator kind.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--steps", type=int, default=20, show_default=True)
@click.option("--packets-per-step", type=int, default=5, show_default=True)
@click.option("--weight-max", type=int, default=10**6, show_default=True)
@click.option("--span", type=int, default=8, show_default=True)
@click.option("--verify", "do_verify", is_flag=True,
              help="Replay the full audit for every planm row.")
@click.option("--timings", is_flag=True,
              help="Fill the runtime column (breaks byte-stability).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="CSV path; stdout when omitted.")
def bench(kind: str, algorithms: tuple[str, ...], count: int, seed: int, steps: int,
          packets_per_step: int, weight_max: int, span: int, do_verify: bool,
          timings: bool, out_path: str | None) -> None:
    """Tabulate exact competitive-ratio checks over generated families.

    Each row checks golden_sign(c * gain0 - opt) >= 0 with c = phi for
    planm and c = 2 for greedy.  With --verify, planm rows also replay
    the event-by-event audit against the optimum and must agree.
    Identical flags and seed produce byte-identical CSV unless
    --timings is given.
    """
    kinds = KINDS if kind == "all" else (kind,)
    algs = algorithms or ALGORITHMS
    rows: list[tuple[str, ...]] = []
    for family in kinds:
        for i in range(count):
            cfg = GeneratorConfig(family, steps, seed + i, packets_per_step,
                                  weight_max, span)
            try:
                inst = generators.generate(cfg)
            except ValueError as exc:
                raise click.ClickException(str(exc)) from exc
            schedule = optimal_schedule(inst)
            for algorithm in algs:
                started = time.perf_counter()
                result, trace = run(algorithm, inst)
                elapsed = time.perf_counter() - started
                factor = PHI if algorithm == "planm" else golden(2)
                ok = golden_sign(factor * result.gain0 - schedule.weight0) >= 0
                if do_verify and algorithm == "planm":
                    try:
                        verify_trace(inst, trace, schedule)
                    except VerifierError:
                        ok = False
                if result.gain0 == 0:
                    ratio = "-"
                else:
                    ratio = _decimal6(schedule.weight0 / result.gain0)
                rows.append((
                    f"{family}-{seed + i}",
                    algorithm,
                    _display(result.gain0),
                    _display(schedule.weight0),
                    "pass" if ok else "fail",
                    ratio,
                    f"{elapsed:.3f}" if timings else "-",
                ))
    sink = open(out_path, "w", encoding="utf-8", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(BENCH_COLUMNS)
        writer.writerows(rows)
    finally:
        if out_path:
            sink.close()
    if any(row[4] == "fail" for row in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
