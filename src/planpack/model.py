"""Packets, instances, validation, and bit-exact file I/O.

An instance is a finite list of packets (id, release, deadline, weight).
Weights are exact rationals, in the file and in :class:`Packet`.  A run
works on them as integers over the instance's common denominator
(:attr:`Instance.scale`).  The order-only tiebreaks that make weights
pairwise distinct are not part of the instance; they are assigned per
run, in validation order, by :class:`planpack.golden.TiebreakSource`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from planpack.golden import (
    TaggedWeight,
    TiebreakSource,
    WeightScale,
    format_rational,
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
        if p.weight < 0:
            raise NegativeWeightError(f"packet {p.id}: negative weight {p.weight}")
        horizon = max(horizon, p.deadline)
    cap = os.environ.get(HORIZON_CAP_ENV)
    if cap is not None and horizon + 1 > int(cap):
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


def parse_instance(text: str) -> Instance:
    packets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InstanceSyntaxError(lineno, f"bad JSON: {exc.msg}") from exc
        if not isinstance(obj, dict) or set(obj) != {"id", "r", "d", "w"}:
            raise InstanceSyntaxError(lineno, "expected keys id, r, d, w")
        try:
            weight = parse_rational(obj["w"])
        except (TypeError, ValueError) as exc:
            raise InstanceSyntaxError(lineno, f"bad weight: {exc}") from exc
        for key in ("id", "r", "d"):
            if not isinstance(obj[key], int) or isinstance(obj[key], bool):
                raise InstanceSyntaxError(lineno, f"field {key} must be an integer")
        packet = Packet(obj["id"], obj["r"], obj["d"], weight)
        packets.append(packet)
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
