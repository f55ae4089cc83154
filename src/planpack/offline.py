"""Exact offline optimum: the maximum-weight set of packets that fits
one per slot within release/deadline windows, plus a brute-force oracle
for small instances.

The admissible sets form a transversal matroid (packets matched to
slots), so greedy admission in decreasing weight order with an
augmenting-path feasibility test is exactly optimal.  A search only
decides whether its packet fits beside the packets already admitted,
which is a property of that set and not of the matching, so the
admitted set does not depend on which augmenting path a search finds.

A search first looks for the latest free slot in its packet's window
through a global path-compressed pointer: it maps a held slot to a lower
slot with every slot between them held, so following it from a deadline
gives the latest free slot at or below it.  It stays valid for the whole
run because a held slot is never freed: an augmenting path moves packets
among the slots it holds and takes one free slot.  When the window is
full, the search grows a range of slots instead of a path: from the
window to the earliest release and the latest deadline of the packets
holding the range's slots, scanning each slot once, until the range
holds a free slot or stops growing.  Every slot of the range lies in the
window of a packet that some augmenting path reaches, so a free slot in
it admits the packet (Hall's condition for interval windows, Glover
1967).  The path is walked back from the free slot: the packet whose
window brought a slot into the range moves into it, leaving a slot that
was in the range before.

A failed search prunes the later ones.  It fails only when the range
stops growing with every slot held, so every slot of the range is held
by a packet with its window inside: the interval is tight, with as many
admitted packets inside it as it has slots.  Admissions only grow, so it
stays tight.  Two tight intervals I and J that overlap or touch form
one: with N(X) the admitted packets inside X,
N(I | J) >= N(I) + N(J) - N(I & J) >= |I| + |J| - |I & J|.  Every slot
of a tight block is held by a packet with its window inside the block,
so no augmenting path enters a block and leaves it, and a packet whose
window lies inside a block is rejected without a search.  This holds
for any matching, whichever paths earlier searches found.  The interval
that rejects a packet is its witness of optimality: it holds the
packet's window and as many admitted windows as it has slots, all
admitted earlier and so none lighter, so the packet closes a circuit of
packets at least as heavy.

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
from itertools import chain

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
    last slots."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []

    def add(self, lo: int, hi: int) -> None:
        """Record the tight interval [lo, hi], merged with every block it
        overlaps or touches."""
        i = bisect.bisect_left(self.ends, lo - 1)
        j = bisect.bisect_right(self.starts, hi + 1)
        if i < j:
            lo = min(lo, self.starts[i])
            hi = max(hi, self.ends[j - 1])
        self.starts[i:j] = [lo]
        self.ends[i:j] = [hi]

    def covers(self, release: int, deadline: int) -> tuple[int, int] | None:
        """The block (first, last) that holds [release, deadline], or None."""
        i = bisect.bisect_right(self.starts, release) - 1
        if i >= 0 and deadline <= self.ends[i]:
            return self.starts[i], self.ends[i]
        return None


def optimal_schedule(instance: Instance) -> Schedule:
    admitted, total, _, _ = _greedy(instance)
    assignment = canonical_assignment(instance, admitted)
    assert assignment is not None
    return Schedule(assignment, instance.scale.rational(total))


def _greedy(instance: Instance) -> tuple[set[int], int, dict[int, int], dict[int, int]]:
    """The matroid greedy: the admitted ids, their total scaled weight,
    and for each rejected packet the first and the last slot of the
    tight interval that rejected it, which holds its window and as many
    admitted windows as it has slots, none of them lighter."""
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

    def latest_free(slot: int) -> int:
        """The latest free slot at or below slot; the pointers followed
        are pointed at it."""
        free = slot
        while free in free_below:
            free = free_below[free]
        while slot != free:
            free_below[slot], slot = free, free_below[slot]
        return free

    def augment(root: int) -> tuple[int, int] | None:
        """Admit root into the matching, or return the tight interval
        that shuts it out.  When root's window is full, [lo, hi] grows
        in rounds, each scanning the slots the last one added; the first
        free slot met lies in the window of the packet being scanned.
        lows and highs record each growth of lo (negated) and of hi, and
        low_slots and high_slots the slot whose packet made it: that
        packet can move into any slot the growth added, so each step of
        the walk back from the free slot is one bisection."""
        release = releases[root]
        deadline = deadlines[root]
        # latest_free(deadline), inline: most searches end here
        free = deadline
        while free in free_below:
            free = free_below[free]
        slot = deadline
        while slot != free:
            free_below[slot], slot = free, free_below[slot]
        if free >= release:
            match[free] = root
            free_below[free] = free - 1
            return None
        lo, hi = release, deadline
        lows: list[int] = []
        low_slots: list[int] = []
        highs: list[int] = []
        high_slots: list[int] = []
        # [scanned, past) is the part of the range already scanned
        scanned = past = deadline + 1
        # every slot in [lo, hi] is held, and free, the latest free slot
        # at or below hi, lies below lo
        while lo < scanned or past <= hi:
            new_lo, new_hi = lo, hi
            for slot in chain(range(lo, scanned), range(past, hi + 1)):
                pid = match[slot]  # scan
                low = releases[pid]
                if low < new_lo:
                    if low <= free:
                        break
                    new_lo = low
                    lows.append(-low)
                    low_slots.append(slot)
                high = deadlines[pid]
                if high > new_hi:
                    free = latest_free(high)
                    if free > new_hi:
                        break
                    new_hi = high
                    highs.append(high)
                    high_slots.append(slot)
            else:
                scanned, past = lo, hi + 1
                lo, hi = new_lo, new_hi
                continue
            match[free] = pid
            free_below[free] = free - 1
            # slot has lost its packet; the one that brought it into the range moves in
            while slot < release or slot > deadline:
                if slot < release:
                    moved = low_slots[bisect.bisect_left(lows, -slot)]
                else:
                    moved = high_slots[bisect.bisect_left(highs, slot)]
                match[slot] = match[moved]
                slot = moved
            match[slot] = root
            return None
        blocks.add(lo, hi)
        return lo, hi

    admitted: set[int] = set()
    # maps of ints, as above: a kept tuple per rejection would bring the
    # collector's passes sooner
    firsts: dict[int, int] = {}
    lasts: dict[int, int] = {}
    total = 0
    for p in order:
        tight = blocks.covers(p.release, p.deadline) or augment(p.id)
        if tight is None:
            admitted.add(p.id)
            total += weights[p.id].value
        else:
            firsts[p.id], lasts[p.id] = tight
    return admitted, total, firsts, lasts


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
