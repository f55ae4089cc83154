"""Exact offline optimum: the maximum-weight set of packets that fits
one per slot within release/deadline windows, plus a brute-force oracle
for small instances.

The admissible sets form a transversal matroid (packets matched to
slots), so greedy admission in decreasing weight order with an
augmenting-path feasibility test is exactly optimal.  A search only
decides whether its packet fits beside the packets already admitted,
which is a property of that set and not of the matching, so the
admitted set does not depend on which augmenting path a search finds.

The search finds slots through two path-compressed pointers instead of
walking windows.  The first is global: it maps a held slot to a lower
slot with every slot between them held, so following it from a
deadline gives the latest free slot at or below it.  It stays valid for
the whole run because a held slot is never freed: an augmenting path
moves packets among the slots it holds and takes one free slot.  Every
packet the search reaches, the root first, looks there for a free slot
in its window, and the search augments at once if it finds one.
Otherwise every slot of the window is held, and the search tries them
latest first through the second pointer, kept per search: it maps a
slot to a lower one with every slot between them tried or a dead end
(below), so no slot is tried twice and none is walked over again.

A failed search prunes the later ones.  It fails only when every slot
it reached is held, and, since a look for a free slot only ever ends a
search early with success, it tries every slot in the window of each
packet it reaches, so those windows cover one closed interval whose
every slot is held by a packet with its window inside: the interval is
tight, with as many admitted packets inside it as it has slots.
Admissions only grow, so it stays tight.  Two tight intervals I and J
that overlap or touch form one: with N(X) the admitted packets inside
X, N(I | J) >= N(I) + N(J) - N(I & J) >= |I| + |J| - |I & J|.  Every
slot of a tight block is held by a packet with its window inside the
block, so no augmenting path enters a block and leaves it: a slot in a
block is a dead end for the search, and a packet whose window lies
inside a block is rejected without one.  This holds for any matching,
whichever paths earlier searches found.

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

from .golden import TiebreakSource, format_rational, parse_integer, parse_rational
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
    last slots.  ``below`` maps every slot of every block to a lower
    slot with every slot between them in a block; following it link by
    link leads out of the blocks."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.below: dict[int, int] = {}

    def add(self, lo: int, hi: int) -> None:
        """Record the tight interval [lo, hi], merged with every block it
        overlaps or touches."""
        first, last = lo, hi
        i = bisect.bisect_left(self.ends, lo - 1)
        j = bisect.bisect_right(self.starts, hi + 1)
        if i < j:
            lo = min(lo, self.starts[i])
            hi = max(hi, self.ends[j - 1])
        self.starts[i:j] = [lo]
        self.ends[i:j] = [hi]
        self.below.update(dict.fromkeys(range(first, last + 1), lo - 1))

    def covers(self, release: int, deadline: int) -> bool:
        """Whether [release, deadline] lies inside one block."""
        i = bisect.bisect_right(self.starts, release) - 1
        return i >= 0 and deadline <= self.ends[i]


def optimal_schedule(instance: Instance) -> Schedule:
    weights = tagged_weight_map(instance, TiebreakSource())
    order = sorted(instance.packets, key=lambda p: weights[p.id], reverse=True)
    # two maps of ints: a tuple per packet would be one more object for
    # the garbage collector to count
    releases = {p.id: p.release for p in instance.packets}
    deadlines = {p.id: p.deadline for p in instance.packets}
    match: dict[int, int] = {}
    # held slot -> a lower slot, every slot between them held
    free_below: dict[int, int] = {}
    blocks = TightBlocks()
    tight_below = blocks.below

    def augment(root: int) -> bool:
        """Depth-first search for an augmenting path from root.  pids[i]
        is a packet on the path and path[i] the slot it is trying, held
        by pids[i + 1].  Each packet reached first takes the latest free
        slot of its window, if it has one; the lists and the tried
        pointer are made only when the root has none.  A failed search
        records the windows of every packet it reached, which cover one
        tight interval."""
        pid = root
        path = None
        while True:
            release = releases[pid]
            deadline = deadlines[pid]
            free = deadline
            while free in free_below:
                free = free_below[free]
            slot = deadline
            while slot != free:
                free_below[slot], slot = free, free_below[slot]
            if free >= release:
                if path is None:
                    match[free] = root
                else:
                    path.append(free)
                    match.update(zip(path, pids))
                free_below[free] = free - 1
                return True
            if path is None:
                pids = [root]
                path = []
                # slot -> a lower slot, every slot between them tried or
                # in a tight block
                tried: dict[int, int] = {}
                lo, hi = release, deadline
            else:
                if release < lo:
                    lo = release
                if deadline > hi:
                    hi = deadline
            # try the latest slot of pids[-1] not yet tried nor dead; a
            # packet that gets back to the top resumes below the slot it tried
            slot = deadline
            while True:
                start = slot
                while True:
                    step = tried.get(slot)
                    if step is None:
                        step = tight_below.get(slot)
                        if step is None:
                            break
                    slot = step
                while start != slot:
                    step = tried.get(start)
                    tried[start], start = slot, tight_below[start] if step is None else step
                if slot >= release:
                    break
                pids.pop()
                if not path:
                    blocks.add(lo, hi)
                    return False
                slot = path.pop()
                release = releases[pids[-1]]
            tried[slot] = slot - 1
            path.append(slot)
            pid = match[slot]
            pids.append(pid)

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
    """Read a schedule file.  Its numbers follow the grammar of
    :mod:`planpack.golden` (``parse_integer``, ``parse_rational``), the
    forms format_schedule writes."""
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
            slot, pid = parse_integer(head), parse_integer(rest)
        except ValueError:
            raise ScheduleSyntaxError(f"line {lineno}: expected 'slot,packet_id'") from None
        if slot in assignment:
            raise ScheduleSyntaxError(f"line {lineno}: slot {slot} assigned twice")
        assignment[slot] = pid
    if weight0 is None:
        raise ScheduleSyntaxError("missing weight footer")
    return Schedule(assignment, weight0)
