"""Line-oriented run-trace files.

Format, one event per line:

    H,1,<algorithm>                          header, format version 1
    A,<t>,<packet-json>                      arrival
    S,<t>,<pid>,<kind>,<leap-json>,<dweights-json>   transmission
    G,<num/den>                              gain footer (original weights)

An idle slot is `S,<t>,-,idle,-,-`.  Absent leap or dweights cells are
`-`.  Weights inside the JSON cells are exact "num/den(+tb)" strings;
the packet cell is an instance file line, read by ``model.read_packet``,
the instance reader's own.  Every other JSON cell is decoded by
``model.json_cell``, which refuses a repeated key.  Every number follows
the grammar of :mod:`planpack.golden`, and the integers inside JSON
cells are JSON integers (not 1.0 or true).  A leap cell holds exactly
the keys, weights and chain-link cells that ``format_event`` writes.
JSON cells contain commas, so S lines are parsed by decoding each cell
where the last one ended rather than by a comma split.

In memory, an idle stretch is one event, ``ScheduleEvent.slots`` long;
in the file it is one idle line per slot.  ``format_trace`` expands it,
and ``parse_trace`` folds consecutive idle lines at consecutive times,
with no packet, leap record or weight change, back into one stretch, so
files stay version 1.  Any other idle line stays an event of its own,
for the audit to reject.

In memory, the weights of S lines are integers over the common
denominator of the trace's arrival weights (``RunTrace.scale``), so a
trace is read in two passes: the arrivals fix the scale, then the S
lines are built with it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .golden import (
    WeightScale,
    format_rational,
    format_tagged,
    parse_integer,
    parse_rational,
    parse_tagged,
)
from .model import json_cell, json_integer, read_packet, serialize_packet
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


_LEAP_KEYS = frozenset(
    ("p", "rho", "ell", "delta", "gamma", "tau0", "rho_virtual", "rho_d", "rho_w", "chain")
)


def _leap_from_json(obj: dict, scale: WeightScale) -> LeapRecord:
    """The leap record of one JSON cell: exactly the keys ``_leap_json``
    writes, two weights in rho_w and seven cells in every chain link."""
    if not isinstance(obj, dict) or obj.keys() != _LEAP_KEYS:
        raise ValueError(f"leap record keys must be {', '.join(sorted(_LEAP_KEYS))}")
    if type(obj["rho_virtual"]) is not bool:
        raise ValueError("field rho_virtual must be true or false")
    if type(obj["rho_w"]) is not list or len(obj["rho_w"]) != 2:
        raise ValueError("field rho_w must hold two weights")
    if type(obj["chain"]) is not list or any(
        type(c) is not list or len(c) != 7 for c in obj["chain"]
    ):
        raise ValueError("field chain must hold links of seven cells")
    return LeapRecord(
        p_id=json_integer(obj["p"], "p"),
        rho_id=json_integer(obj["rho"], "rho"),
        ell_id=json_integer(obj["ell"], "ell"),
        delta=json_integer(obj["delta"], "delta"),
        gamma=json_integer(obj["gamma"], "gamma"),
        tau0=json_integer(obj["tau0"], "tau0"),
        rho_was_virtual=obj["rho_virtual"],
        rho_deadline=json_integer(obj["rho_d"], "rho_d"),
        rho_old_weight=parse_tagged(obj["rho_w"][0], scale),
        rho_new_weight=parse_tagged(obj["rho_w"][1], scale),
        chain=tuple(
            ChainLink(
                h_id=json_integer(c[0], "h_id"),
                tau=json_integer(c[1], "tau"),
                old_deadline=json_integer(c[2], "old_deadline"),
                new_deadline=json_integer(c[3], "new_deadline"),
                old_weight=parse_tagged(c[4], scale),
                new_weight=parse_tagged(c[5], scale),
                mu=parse_tagged(c[6], scale),
            )
            for c in obj["chain"]
        ),
    )


def _cell(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def format_event(ev: ArrivalEvent | ScheduleEvent, scale: WeightScale) -> str:
    """The trace line of one event (the first of an idle stretch) in scale's units."""
    if isinstance(ev, ArrivalEvent):
        return f"A,{ev.t},{serialize_packet(ev.packet)}"
    pid = "-" if ev.p_id is None else str(ev.p_id)
    leap = "-" if ev.leap is None else _cell(_leap_json(ev.leap, scale))
    dw = (
        "-"
        if not ev.dweights
        else _cell({str(pid_): format_tagged(w, scale) for pid_, w in sorted(ev.dweights.items())})
    )
    return f"S,{ev.t},{pid},{ev.kind},{leap},{dw}"


def format_trace(trace: RunTrace) -> str:
    scale = trace.scale
    lines = [f"H,{FORMAT_VERSION},{trace.algorithm}"]
    for ev in trace.events:
        lines.append(format_event(ev, scale))
        if isinstance(ev, ScheduleEvent) and ev.kind == "idle":
            lines.extend(f"S,{t},-,idle,-,-" for t in range(ev.t + 1, ev.t + ev.slots))
    lines.append(f"G,{format_rational(trace.gain0)}")
    return "\n".join(lines) + "\n"


def _take_cell(line: str, pos: int, lineno: int):
    """Parse one `-` or JSON cell starting at pos; returns (value, next pos)."""
    if pos >= len(line):
        raise TraceSyntaxError(lineno, "missing cell")
    if line[pos] == "-" and (pos + 1 == len(line) or line[pos + 1] == ","):
        return None, pos + 1
    try:
        return json_cell(line, pos)
    except ValueError as exc:
        raise TraceSyntaxError(lineno, str(exc)) from exc


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
            else {parse_integer(k): parse_tagged(v, scale) for k, v in dw_obj.items()}
        )
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise TraceSyntaxError(lineno, f"bad cell content: {exc}") from exc
    return ScheduleEvent(t, pid, kind, leap, dweights)


def parse_trace(text: str) -> RunTrace:
    algorithm: str | None = None
    gain: Fraction | None = None
    # ArrivalEvents, idle stretches as [t, slots], and other S lines as
    # records until the scale is known
    events: list = []
    weights: dict[str, Fraction] = {}
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
                events.append(ArrivalEvent(parse_integer(t_text), read_packet(cell, weights)))
            except ValueError as exc:
                raise TraceSyntaxError(lineno, str(exc)) from exc
        elif tag == "S":
            fields = rest.split(",", 3)
            if len(fields) != 4:
                raise TraceSyntaxError(lineno, "short transmission line")
            t_text, pid_text, kind, tail = fields
            try:
                t = parse_integer(t_text)
                pid = None if pid_text == "-" else parse_integer(pid_text)
            except ValueError as exc:
                raise TraceSyntaxError(lineno, f"bad transmission: {exc}") from exc
            if kind not in KINDS:
                raise TraceSyntaxError(lineno, f"unknown kind {kind!r}")
            leap_obj, pos = _take_cell(tail, 0, lineno)
            pos = _expect_comma(tail, pos, lineno)
            dw_obj, pos = _take_cell(tail, pos, lineno)
            if pos != len(tail):
                raise TraceSyntaxError(lineno, "trailing content")
            idle = kind == "idle" and pid is None and leap_obj is None and dw_obj in (None, {})
            if idle and events and isinstance(events[-1], list) and sum(events[-1]) == t:
                events[-1][1] += 1      # the stretch [t0, t0 + slots) reaches t
            else:
                events.append([t, 1] if idle else (lineno, t, pid, kind, leap_obj, dw_obj))
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
        if isinstance(ev, list):
            events[i] = ScheduleEvent(ev[0], None, "idle", None, {}, ev[1])
        elif isinstance(ev, tuple):
            events[i] = _schedule_event(ev, scale)
    return RunTrace(algorithm, events, gain, scale)


def load_trace(path: str) -> RunTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())


def save_trace(trace: RunTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_trace(trace))
