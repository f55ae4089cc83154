"""Command line front end.

Five subcommands cover the pipeline: ``generate`` writes instance
files, ``simulate`` runs a scheduler and records a trace, ``opt``
computes the exact offline optimum, ``verify`` audits a recorded trace
against a comparison schedule, and ``bench`` batches all of it into a
CSV ratio table.  All pass/fail decisions use exact arithmetic; the
decimal ratio column is rendered at six digits for humans only.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Iterator, TextIO, TypeVar

import click

from planpack import generators
from planpack.generators import KINDS, GeneratorConfig
from planpack.golden import PHI, GoldenNumber, format_golden, golden, golden_sign
from planpack.model import load_instance, serialize_instance
from planpack.offline import (
    Schedule,
    format_schedule,
    optimal_schedule,
    parse_schedule,
)
from planpack.schedulers import ALGORITHMS, MonotonicityError, run
from planpack.trace_io import load_trace, save_trace
from planpack.verifier import VerificationResult, VerifierError, verify_trace

T = TypeVar("T")

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


def _integral(text: str) -> str:
    """``_display`` of a rational from its ``num/den`` text."""
    return text[:-2] if text.endswith("/1") else text


def write_ledger(result: VerificationResult, fh: TextIO) -> None:
    """Write an audit's per-event ledger as CSV, one row per slot.

    The report's values are integers over the instance's common
    denominator; ``WeightScale.text`` turns each into its rational's
    text.  Consecutive rows repeat most values (zeros, the potential,
    a delta that is also the total), so a small cache, local to the
    call, formats most values once.  Only the text cells (kind, case,
    detail) can need quoting, so only they go through the csv writer;
    the numeric cells (digits, ``-``, ``/``, ``+``, ``*phi``) are joined
    as they are.  The bytes are those of a csv writer given every cell.
    """
    text = functools.lru_cache(maxsize=16)(result.scale.text)
    # the writer's write returns the row it was given, terminator and all
    quote = csv.writer(_Echo(), lineterminator="\n").writerow

    def golden_text(x: GoldenNumber) -> str:
        return f"{text(x.a)}+{text(x.b)}*phi"

    fh.write(quote(LEDGER_COLUMNS))
    for rep in result.reports:
        tail = ",".join((
            quote((rep.kind, rep.case, rep.detail))[:-1],
            _integral(text(rep.advgain)), _integral(text(rep.dweights)),
            golden_text(rep.dpsi_adv), golden_text(rep.dpsi_initseg),
            golden_text(rep.dpsi_window), golden_text(rep.dpsi_total),
            golden_text(rep.psi_after), golden_text(rep.margin),
        ))
        # a report of an idle run stands for one row per slot
        fh.writelines(f"{rep.index + k},{rep.time + k},{tail}\n" for k in range(rep.slots))


class _Echo:
    """A csv writer's sink that hands each formatted row back."""

    @staticmethod
    def write(row: str) -> str:
        return row


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """An output path that cannot be opened or written is a typed error."""
    try:
        yield
    except OSError as exc:
        raise click.ClickException(f"{path}: {exc.strerror or exc}") from exc


def _require_folder(path: str) -> None:
    """Fail before any work when the folder of an output path is missing.

    It creates nothing; any other fault in opening or writing the file
    is reported by ``_writing`` when the file is opened.
    """
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        with _writing(path):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))


def _read(path: str, load: Callable[[str], T]) -> T:
    """load(path); a malformed file, which every reader reports with a
    ValueError, exits 1 with the path and the reason."""
    try:
        return load(path)
    except ValueError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _load_schedule(path: str) -> Schedule:
    # parse_schedule is looked up when called, so a wrapper set on this
    # module's name sees the call
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schedule(fh.read())


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
    if trace_path is not None:
        _require_folder(trace_path)
    inst = _read(instance_path, load_instance)
    try:
        result, trace = run(algorithm, inst, check_monotonicity=check_monotonicity)
    except MonotonicityError as exc:
        raise click.ClickException(str(exc)) from exc
    if trace_path is not None:
        with _writing(trace_path):
            save_trace(trace, trace_path)
    click.echo(f"gain0 = {_display(result.gain0)}")


@main.command()
@click.option("--instance", "instance_path", type=existing_file, required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the schedule (slot,packet lines plus weight footer).")
def opt(instance_path: str, out_path: str | None) -> None:
    """Compute an exact maximum-weight offline schedule."""
    if out_path is not None:
        _require_folder(out_path)
    inst = _read(instance_path, load_instance)
    schedule = optimal_schedule(inst)
    if out_path is not None:
        with _writing(out_path), open(out_path, "w", encoding="utf-8") as fh:
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
    if out_path is not None:
        _require_folder(out_path)
    inst = _read(instance_path, load_instance)
    trace = _read(trace_path, functools.partial(load_trace, scale=inst.scale))
    comparison = _read(comparison_path, _load_schedule)
    try:
        result = verify_trace(inst, trace, comparison)
    except VerifierError as exc:
        raise click.ClickException(str(exc)) from exc
    if out_path is not None:
        # the reports hold integers over the instance's common denominator;
        # write_ledger prints the rationals they stand for
        with _writing(out_path), open(out_path, "w", encoding="utf-8", newline="") as fh:
            write_ledger(result, fh)
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
                with _writing(out_path):
                    os.makedirs(out_path, exist_ok=True)
                path = os.path.join(out_path, f"{kind}-{seed + i}.jsonl")
            with _writing(path), open(path, "w", encoding="utf-8") as fh:
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
    if out_path is not None:
        _require_folder(out_path)
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
    table = [BENCH_COLUMNS, *rows]
    if out_path is None:
        csv.writer(sys.stdout, lineterminator="\n").writerows(table)
    else:
        with _writing(out_path), open(out_path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
    if any(row[4] == "fail" for row in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
