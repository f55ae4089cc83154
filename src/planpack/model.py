"""Packets, instances, validation, and bit-exact file I/O.

An instance is a finite list of packets (id, release, deadline, weight).
Weights are exact rationals, in the file and in :class:`Packet`.  A run
works on them as integers over the instance's common denominator
(:attr:`Instance.scale`).  The order-only tiebreaks that make weights
pairwise distinct are not part of the instance; they are assigned per
run, in validation order, by :class:`planpack.golden.TiebreakSource`.

An instance file holds one packet per line, and a trace file's arrival
lines hold the same packet cell after ``A,<t>,``; :func:`read_packet`
reads that cell for both files.  ``serialize_packet`` writes every cell
in one canonical form, ``{"id":I,"r":R,"d":D,"w":"N/M"}`` with no
blanks, which ``read_packet`` takes with one compiled pattern and no
JSON, converting each distinct weight text once per file.  Any other
cell, and a canonical one whose numbers ``int`` or ``parse_rational``
refuse, is read as JSON by :func:`json_cell` and ``packet_from_json``,
which give every error message; both ways take the same grammar.
:func:`json_cell` decodes every JSON cell of both files and refuses a
repeated key.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from planpack.golden import (
    RATIONAL,
    TaggedWeight,
    TiebreakSource,
    WeightScale,
    format_rational,
    parse_integer,
    parse_rational,
)

HORIZON_CAP_ENV = "SCHED_HORIZON_CAP"


class InstanceError(ValueError):
    pass


class DuplicateIdError(InstanceError):
    pass


class DeadlineBeforeReleaseError(InstanceError):
    pass


class NegativeWeightError(InstanceError):
    pass


class InstanceSyntaxError(InstanceError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True)
class Packet:
    id: int
    release: int
    deadline: int
    weight: Fraction


@dataclass(frozen=True)
class Instance:
    """Validated, immutable packet list sorted by (release, id).

    horizon is the maximum deadline (-1 when empty); sentinel is the
    slot one past it, used by the plan engine as the permanent final
    tight slot.
    """

    packets: tuple[Packet, ...]
    horizon: int

    @property
    def sentinel(self) -> int:
        return self.horizon + 1

    def by_id(self) -> dict[int, Packet]:
        return {p.id: p for p in self.packets}

    @cached_property
    def scale(self) -> WeightScale:
        """The common denominator of the packet weights."""
        return WeightScale(p.weight for p in self.packets)


def validate(packets: Iterable[Packet]) -> Instance:
    ordered = sorted(packets, key=lambda p: (p.release, p.id))
    seen: set[int] = set()
    horizon = -1
    for p in ordered:
        if p.id in seen:
            raise DuplicateIdError(f"packet id {p.id} appears twice")
        seen.add(p.id)
        if p.id < 0:
            raise InstanceError(f"packet id {p.id} is negative")
        if p.release < 0:
            raise InstanceError(f"packet {p.id} released before slot 0")
        if p.deadline < p.release:
            raise DeadlineBeforeReleaseError(
                f"packet {p.id}: deadline {p.deadline} < release {p.release}"
            )
        if p.weight.numerator < 0:
            raise NegativeWeightError(f"packet {p.id}: negative weight {p.weight}")
        horizon = max(horizon, p.deadline)
    cap = os.environ.get(HORIZON_CAP_ENV)
    if cap is not None:
        try:
            limit = parse_integer(cap)
        except ValueError:
            raise InstanceError(f"{HORIZON_CAP_ENV} must be an integer, got {cap!r}") from None
        if horizon + 1 > limit:
            raise InstanceError(
                f"horizon sentinel {horizon + 1} exceeds {HORIZON_CAP_ENV}={cap}"
            )
    return Instance(tuple(ordered), horizon)


def tagged_weight_map(instance: Instance, source: TiebreakSource) -> dict[int, TaggedWeight]:
    """Each packet's weight as a run holds it: the integer weight*D of
    the instance's scale, with a per-run tiebreak in validation order,
    earliest heaviest.

    Must run before the source hands out any other sub-zero ranks so
    that later virtual packets sort below every input packet.
    """
    scaled = instance.scale.scaled
    return {
        p.id: TaggedWeight(scaled(p.weight), source.sub_zero()) for p in instance.packets
    }


def json_integer(value: object, name: str) -> int:
    """value, when it is a JSON integer: 1.0, 1e0 and true are not."""
    if type(value) is not int:
        raise ValueError(f"field {name} must be an integer")
    return value


def packet_from_json(obj: object) -> Packet:
    """The packet of one JSON cell of an instance or trace file: keys id,
    r, d and w, JSON integers for id, r and d, and a num/den string
    for w.  ValueError otherwise."""
    if not isinstance(obj, dict) or obj.keys() != {"id", "r", "d", "w"}:
        raise ValueError("expected keys id, r, d, w")
    try:
        weight = parse_rational(obj["w"])
    except ValueError as exc:
        raise ValueError(f"bad weight: {exc}") from exc
    return Packet(
        json_integer(obj["id"], "id"), json_integer(obj["r"], "r"),
        json_integer(obj["d"], "d"), weight,
    )


_decoder = json.JSONDecoder()


def json_cell(text: str, pos: int) -> tuple[object, int]:
    """The JSON value that starts at text[pos], and the index just past
    it; ValueError when the text there is not JSON or an object in it
    repeats a key.  What follows the value is the caller's to check."""
    try:
        value, end = _decoder.raw_decode(text, pos)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON cell: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # nesting too deep, or an integer past Python's digit limit
        raise ValueError(f"bad JSON cell: {exc}") from exc
    # json keeps the last of a repeated key; no value read from a JSON
    # cell holds a ':', so an object's text has one per key unless a key
    # repeats
    if type(value) is dict and text.count(":", pos, end) != len(value):
        raise ValueError("a key repeats or a value holds ':'")
    return value, end


# JSON's integer: no leading zeros, and no "+"
_JSON_INTEGER = r"-?(?:0|[1-9][0-9]*)"
# the packet cell serialize_packet writes; groups id, r, d and w
_PACKET_CELL = re.compile(
    rf'\{{"id":({_JSON_INTEGER}),"r":({_JSON_INTEGER}),"d":({_JSON_INTEGER}),'
    rf'"w":"({RATIONAL})"\}}'
)


def read_packet(cell: str, weights: dict[str, Fraction]) -> Packet:
    """The packet of cell, an instance line or a trace arrival cell, which
    must hold nothing after the packet; ValueError otherwise.  Its weight
    is taken from, or added to, weights: the weight texts the caller's
    file has shown so far."""
    m = _PACKET_CELL.fullmatch(cell)
    if m is not None:
        id_text, r_text, d_text, w_text = m.groups()
        try:
            weight = weights.get(w_text)
            if weight is None:
                weight = weights[w_text] = parse_rational(w_text)
            return Packet(int(id_text), int(r_text), int(d_text), weight)
        except ValueError:
            pass    # past the digit limit, or a zero denominator: JSON names it
    obj, end = json_cell(cell, 0)
    if end != len(cell):
        raise ValueError("text after the packet cell")
    return packet_from_json(obj)


def parse_instance(text: str) -> Instance:
    packets = []
    weights: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            try:
                packets.append(read_packet(line, weights))
            except ValueError as exc:
                raise InstanceSyntaxError(lineno, str(exc)) from exc
    return validate(packets)


def serialize_packet(p: Packet) -> str:
    return (
        f'{{"id":{p.id},"r":{p.release},"d":{p.deadline},'
        f'"w":"{format_rational(p.weight)}"}}'
    )


def serialize_instance(instance: Instance) -> str:
    return "".join(serialize_packet(p) + "\n" for p in instance.packets)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(instance))
