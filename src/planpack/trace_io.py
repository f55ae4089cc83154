"""Line-oriented run-trace files.

Format, one event per line:

    H,1,<algorithm>                          header, format version 1
    A,<t>,<packet-json>                      arrival
    S,<t>,<pid>,<kind>,<leap-json>,<dweights-json>   transmission
    G,<num/den>                              gain footer (original weights)

An idle slot is `S,<t>,-,idle,-,-`.  Absent leap or dweights cells are
`-`.  Weights inside the JSON cells are exact "num/den(+tb)" strings;
the packet JSON matches the instance file shape.  JSON cells contain
commas, so S lines are parsed with a raw JSON decoder walking the tail
of the line rather than a comma split.

In memory, the weights of S lines are integers over the common
denominator of the trace's arrival weights (``RunTrace.scale``), so a
trace is read in two passes: the arrivals fix the scale, then the S
lines are built with it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .golden import WeightScale, format_rational, format_tagged, parse_rational, parse_tagged
from .model import Packet
from .schedulers import (
    ArrivalEvent,
    ChainLink,
    LeapRecord,
    RunTrace,
    ScheduleEvent,
)

__all__ = [
    "TraceSyntaxError",
    "format_event",
    "format_leap",
    "format_trace",
    "parse_trace",
    "load_trace",
    "save_trace",
]

FORMAT_VERSION = "1"

KINDS = ("ordinary", "simple-leap", "iterated-leap", "idle", "greedy")


class TraceSyntaxError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"trace line {line}: {message}")
        self.line = line


def _packet_json(p: Packet) -> dict:
    return {"id": p.id, "r": p.release, "d": p.deadline, "w": format_rational(p.weight)}


def _leap_json(leap: LeapRecord, scale: WeightScale) -> dict:
    return {
        "p": leap.p_id,
        "rho": leap.rho_id,
        "ell": leap.ell_id,
        "delta": leap.delta,
        "gamma": leap.gamma,
        "tau0": leap.tau0,
        "rho_virtual": leap.rho_was_virtual,
        "rho_d": leap.rho_deadline,
        "rho_w": [
            format_tagged(leap.rho_old_weight, scale),
            format_tagged(leap.rho_new_weight, scale),
        ],
        "chain": [
            [
                link.h_id,
                link.tau,
                link.old_deadline,
                link.new_deadline,
                format_tagged(link.old_weight, scale),
                format_tagged(link.new_weight, scale),
                format_tagged(link.mu, scale),
            ]
            for link in leap.chain
        ],
    }


def _leap_from_json(obj: dict, scale: WeightScale) -> LeapRecord:
    return LeapRecord(
        p_id=obj["p"],
        rho_id=obj["rho"],
        ell_id=obj["ell"],
        delta=obj["delta"],
        gamma=obj["gamma"],
        tau0=obj["tau0"],
        rho_was_virtual=obj["rho_virtual"],
        rho_deadline=obj["rho_d"],
        rho_old_weight=parse_tagged(obj["rho_w"][0], scale),
        rho_new_weight=parse_tagged(obj["rho_w"][1], scale),
        chain=tuple(
            ChainLink(
                h_id=c[0],
                tau=c[1],
                old_deadline=c[2],
                new_deadline=c[3],
                old_weight=parse_tagged(c[4], scale),
                new_weight=parse_tagged(c[5], scale),
                mu=parse_tagged(c[6], scale),
            )
            for c in obj["chain"]
        ),
    )


def _cell(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def format_leap(leap: LeapRecord, scale: WeightScale) -> str:
    """The JSON cell of a leap record whose weights are in scale's units."""
    return _cell(_leap_json(leap, scale))


def format_event(ev: ArrivalEvent | ScheduleEvent, scale: WeightScale) -> str:
    """The trace line of one event whose weights are in scale's units."""
    if isinstance(ev, ArrivalEvent):
        return f"A,{ev.t},{_cell(_packet_json(ev.packet))}"
    pid = "-" if ev.p_id is None else str(ev.p_id)
    leap = "-" if ev.leap is None else format_leap(ev.leap, scale)
    dw = (
        "-"
        if not ev.dweights
        else _cell({str(pid_): format_tagged(w, scale) for pid_, w in sorted(ev.dweights.items())})
    )
    return f"S,{ev.t},{pid},{ev.kind},{leap},{dw}"


def format_trace(trace: RunTrace) -> str:
    scale = trace.scale
    lines = [f"H,{FORMAT_VERSION},{trace.algorithm}"]
    lines.extend(format_event(ev, scale) for ev in trace.events)
    lines.append(f"G,{format_rational(trace.gain0)}")
    return "\n".join(lines) + "\n"


_decoder = json.JSONDecoder()


def _take_cell(line: str, pos: int, lineno: int):
    """Parse one `-` or JSON cell starting at pos; returns (value, next pos)."""
    if pos >= len(line):
        raise TraceSyntaxError(lineno, "missing cell")
    if line[pos] == "-" and (pos + 1 == len(line) or line[pos + 1] == ","):
        return None, pos + 1
    try:
        value, end = _decoder.raw_decode(line, pos)
    except json.JSONDecodeError as exc:
        raise TraceSyntaxError(lineno, f"bad JSON cell: {exc.msg}") from exc
    return value, end


def _expect_comma(line: str, pos: int, lineno: int) -> int:
    if pos >= len(line) or line[pos] != ",":
        raise TraceSyntaxError(lineno, "expected ','")
    return pos + 1


def _schedule_event(record: tuple, scale: WeightScale) -> ScheduleEvent:
    """Second pass over one S line: build its weights in scale's units."""
    lineno, t, pid, kind, leap_obj, dw_obj = record
    try:
        leap = None if leap_obj is None else _leap_from_json(leap_obj, scale)
        dweights = (
            {}
            if dw_obj is None
            else {int(k): parse_tagged(v, scale) for k, v in dw_obj.items()}
        )
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise TraceSyntaxError(lineno, f"bad cell content: {exc}") from exc
    return ScheduleEvent(t, pid, kind, leap, dweights)


def parse_trace(text: str) -> RunTrace:
    algorithm: str | None = None
    gain: Fraction | None = None
    # ArrivalEvents, and S lines as records until the scale is known
    events: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if gain is not None:
            raise TraceSyntaxError(lineno, "content after the gain footer")
        tag, _, rest = line.partition(",")
        if algorithm is None:
            if tag != "H":
                raise TraceSyntaxError(lineno, "missing header")
            version, _, algorithm = rest.partition(",")
            if version != FORMAT_VERSION:
                raise TraceSyntaxError(lineno, f"unsupported version {version!r}")
            if not algorithm:
                raise TraceSyntaxError(lineno, "missing algorithm")
            continue
        if tag == "A":
            t_text, _, cell = rest.partition(",")
            try:
                t = int(t_text)
            except ValueError as exc:
                raise TraceSyntaxError(lineno, "bad arrival time") from exc
            obj, end = _take_cell(cell, 0, lineno)
            if obj is None or end != len(cell):
                raise TraceSyntaxError(lineno, "bad arrival packet cell")
            if not isinstance(obj, dict) or set(obj) != {"id", "r", "d", "w"}:
                raise TraceSyntaxError(lineno, "arrival packet needs keys id, r, d, w")
            try:
                packet = Packet(obj["id"], obj["r"], obj["d"], parse_rational(obj["w"]))
            except (TypeError, ValueError) as exc:
                raise TraceSyntaxError(lineno, f"bad arrival packet: {exc}") from exc
            events.append(ArrivalEvent(t, packet))
        elif tag == "S":
            fields = rest.split(",", 3)
            if len(fields) != 4:
                raise TraceSyntaxError(lineno, "short transmission line")
            t_text, pid_text, kind, tail = fields
            try:
                t = int(t_text)
            except ValueError as exc:
                raise TraceSyntaxError(lineno, "bad transmission time") from exc
            if kind not in KINDS:
                raise TraceSyntaxError(lineno, f"unknown kind {kind!r}")
            if pid_text == "-":
                pid = None
            else:
                try:
                    pid = int(pid_text)
                except ValueError as exc:
                    raise TraceSyntaxError(lineno, "bad packet id") from exc
            leap_obj, pos = _take_cell(tail, 0, lineno)
            pos = _expect_comma(tail, pos, lineno)
            dw_obj, pos = _take_cell(tail, pos, lineno)
            if pos != len(tail):
                raise TraceSyntaxError(lineno, "trailing content")
            events.append((lineno, t, pid, kind, leap_obj, dw_obj))
        elif tag == "G":
            try:
                gain = parse_rational(rest)
            except ValueError as exc:
                raise TraceSyntaxError(lineno, f"bad gain: {exc}") from exc
        else:
            raise TraceSyntaxError(lineno, f"unknown record {tag!r}")
    if algorithm is None:
        raise TraceSyntaxError(0, "empty trace file")
    if gain is None:
        raise TraceSyntaxError(0, "missing gain footer")
    scale = WeightScale(ev.packet.weight for ev in events if isinstance(ev, ArrivalEvent))
    for i, ev in enumerate(events):
        if isinstance(ev, tuple):
            events[i] = _schedule_event(ev, scale)
    return RunTrace(algorithm, events, gain, scale)


def load_trace(path: str) -> RunTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())


def save_trace(trace: RunTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_trace(trace))
