"""Exact offline optimum: the maximum-weight set of packets that fits
one per slot within release/deadline windows, plus a brute-force oracle
for small instances.

The admissible sets form a transversal matroid (packets matched to
slots), so greedy admission in decreasing weight order with an
augmenting-path feasibility test is exactly optimal.

A failed search prunes the later ones.  It fails only when every slot
it reached is held, and it tries every slot in the window of each
packet it reaches, so those windows cover one closed interval whose
every slot is held by a packet with its window inside: the interval is
tight, with as many admitted packets inside it as it has slots.
Admissions only grow, so it stays tight.  Two tight intervals I and J
that overlap or touch form one: with N(X) the admitted packets inside
X, N(I | J) >= N(I) + N(J) - N(I & J) >= |I| + |J| - |I & J|.  Every
slot of a tight block is held by a packet with its window inside the
block, so no augmenting path enters a block and leaves it: a slot in a
block is a dead end for the search, and a packet whose window lies
inside a block is rejected without one.  Neither changes the matching
the search builds or the admitted set.

The final assignment is canonicalized independently of that matching:
slots ascending, each filled with the admitted packet of smallest
(deadline, id) available there, which is also how feasibility of a
fixed set is decided everywhere else in this package.
Weights are compared and summed as integers over the instance's common
denominator; the schedule's total is a rational, as in its file.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .golden import TiebreakSource, format_rational, parse_rational
from .model import Instance, tagged_weight_map

__all__ = [
    "Schedule",
    "TooLargeError",
    "ScheduleSyntaxError",
    "optimal_schedule",
    "brute_force_opt",
    "canonical_assignment",
    "format_schedule",
    "parse_schedule",
]

BRUTE_FORCE_LIMIT = 12


class TooLargeError(ValueError):
    """brute_force_opt refuses instances beyond its packet limit."""


class ScheduleSyntaxError(ValueError):
    """Malformed schedule file."""


@dataclass(frozen=True)
class Schedule:
    """slot -> packet id, injective in packets, plus the total original weight."""

    assignment: dict[int, int] = field(default_factory=dict)
    weight0: Fraction = Fraction(0)

    def check_feasible(self, instance: Instance) -> None:
        """Raise ValueError unless every entry respects its packet's window."""
        by_id = instance.by_id()
        scale = instance.scale
        seen: set[int] = set()
        total = 0
        for slot, pid in self.assignment.items():
            if pid in seen:
                raise ValueError(f"packet {pid} assigned twice")
            seen.add(pid)
            p = by_id.get(pid)
            if p is None:
                raise ValueError(f"packet {pid} not in instance")
            if not p.release <= slot <= p.deadline:
                raise ValueError(
                    f"packet {pid} at slot {slot} outside [{p.release}, {p.deadline}]"
                )
            total += scale.scaled(p.weight)
        if scale.rational(total) != self.weight0:
            raise ValueError(f"weight0 {self.weight0} != assigned total {scale.rational(total)}")


def canonical_assignment(instance: Instance, ids: set[int]) -> dict[int, int] | None:
    """Deterministic slot assignment of the given packets, or None if
    they do not fit.  Slots ascending; each takes the available packet
    with the smallest (deadline, id).  An earliest-deadline-first pass
    over a heap of the released packets: a run of slots with nothing
    released is jumped, so the cost is bounded by the packets, not the
    horizon."""
    by_id = instance.by_id()
    chosen = sorted((by_id[pid] for pid in ids), key=lambda p: (p.release, p.id))
    assignment: dict[int, int] = {}
    ready: list[tuple[int, int]] = []
    slot = 0
    i = 0
    while i < len(chosen) or ready:
        if not ready:
            slot = chosen[i].release
        while i < len(chosen) and chosen[i].release <= slot:
            heapq.heappush(ready, (chosen[i].deadline, chosen[i].id))
            i += 1
        deadline, pid = heapq.heappop(ready)
        if deadline < slot:
            return None
        assignment[slot] = pid
        slot += 1
    return assignment


class TightBlocks:
    """Slot intervals known to be tight: every slot in one is held by an
    admitted packet whose window lies inside it.  The blocks are sorted,
    disjoint and never adjacent, kept as parallel lists of first and
    last slots; ``slots`` holds every slot of every block."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.slots: set[int] = set()

    def add(self, lo: int, hi: int) -> None:
        """Record the tight interval [lo, hi], merged with every block it
        overlaps or touches."""
        self.slots.update(range(lo, hi + 1))
        i = bisect.bisect_left(self.ends, lo - 1)
        j = bisect.bisect_right(self.starts, hi + 1)
        if i < j:
            lo = min(lo, self.starts[i])
            hi = max(hi, self.ends[j - 1])
        self.starts[i:j] = [lo]
        self.ends[i:j] = [hi]

    def covers(self, release: int, deadline: int) -> bool:
        """Whether [release, deadline] lies inside one block."""
        i = bisect.bisect_right(self.starts, release) - 1
        return i >= 0 and deadline <= self.ends[i]


def optimal_schedule(instance: Instance) -> Schedule:
    weights = tagged_weight_map(instance, TiebreakSource())
    order = sorted(instance.packets, key=lambda p: weights[p.id], reverse=True)
    match: dict[int, int] = {}
    # each packet's slots, latest first
    slots = {p.id: range(p.deadline, p.release - 1, -1) for p in instance.packets}
    blocks = TightBlocks()
    tight = blocks.slots

    def augment(root: int) -> bool:
        """Depth-first search for an augmenting path from root.  pids[i]
        is a packet on the path, untried[i] its slots not yet tried, and
        path[i] the slot it is trying, held by pids[i + 1].  A slot in a
        tight block is a dead end.  A failed search records the windows
        of every packet it reached, which cover one tight interval."""
        visited: set[int] = set()
        pids = [root]
        reached = [root]
        untried = [iter(slots[root])]
        path: list[int] = []
        while untried:
            for slot in untried[-1]:
                if slot in visited or slot in tight:
                    continue
                visited.add(slot)
                path.append(slot)
                occupant = match.get(slot)
                if occupant is None:
                    match.update(zip(path, pids))
                    return True
                pids.append(occupant)
                reached.append(occupant)
                untried.append(iter(slots[occupant]))
                break
            else:
                untried.pop()
                pids.pop()
                if path:
                    path.pop()
        blocks.add(min(slots[q].stop for q in reached) + 1,
                   max(slots[q].start for q in reached))
        return False

    admitted: set[int] = set()
    total = 0
    for p in order:
        if not blocks.covers(p.release, p.deadline) and augment(p.id):
            admitted.add(p.id)
            total += weights[p.id].value
    assignment = canonical_assignment(instance, admitted)
    assert assignment is not None
    return Schedule(assignment, instance.scale.rational(total))


def brute_force_opt(instance: Instance) -> Schedule:
    n = len(instance.packets)
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"{n} packets exceeds the brute-force limit {BRUTE_FORCE_LIMIT}")
    packets = sorted(instance.packets, key=lambda p: (p.deadline, p.release, p.id))
    suffix = [Fraction(0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + packets[i].weight

    best_value = Fraction(0)
    best_ids: set[int] = set()
    used: set[int] = set()
    chosen: list[int] = []

    def search(i: int, value: Fraction) -> None:
        nonlocal best_value, best_ids
        if value + suffix[i] < best_value:
            return
        if i == n:
            if value > best_value:
                best_value = value
                best_ids = set(chosen)
            return
        p = packets[i]
        slot = next((tau for tau in range(p.release, p.deadline + 1) if tau not in used), None)
        if slot is not None:
            used.add(slot)
            chosen.append(p.id)
            search(i + 1, value + p.weight)
            chosen.pop()
            used.remove(slot)
        search(i + 1, value)

    search(0, Fraction(0))
    assignment = canonical_assignment(instance, best_ids)
    assert assignment is not None
    return Schedule(assignment, best_value)


def format_schedule(schedule: Schedule) -> str:
    lines = [f"{slot},{pid}" for slot, pid in sorted(schedule.assignment.items())]
    lines.append(f"W,{format_rational(schedule.weight0)}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    assignment: dict[int, int] = {}
    weight0 = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if weight0 is not None:
            raise ScheduleSyntaxError(f"line {lineno}: content after the weight footer")
        head, _, rest = line.partition(",")
        if head == "W":
            try:
                weight0 = parse_rational(rest)
            except ValueError as exc:
                raise ScheduleSyntaxError(f"line {lineno}: bad total weight: {exc}") from exc
            continue
        try:
            slot, pid = int(head), int(rest)
        except ValueError as exc:
            raise ScheduleSyntaxError(f"line {lineno}: expected 'slot,packet_id'") from exc
        if slot in assignment:
            raise ScheduleSyntaxError(f"line {lineno}: slot {slot} assigned twice")
        assignment[slot] = pid
    if weight0 is None:
        raise ScheduleSyntaxError("missing weight footer")
    return Schedule(assignment, weight0)
