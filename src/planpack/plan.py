"""Plan maintenance: membership, slack profile, tight slots, segments,
minimum-weight thresholds, and substitute packets.

The plan at time t is the unique maximum-weight feasible subset of the
pending packets, where feasible means the subset can be transmitted one
packet per slot with every packet on time, and uniqueness comes from the
tie-broken total order on weights.  This module keeps that subset and
its derived structure current across the three events that can change
it (a packet arrives; a packet from the first segment is transmitted; a
packet from a later segment is transmitted) by applying the constant
size membership delta each event induces.  The delta is edited in place
into two lists: the plan members in deadline order and the non-plan
packets in weight order.  An event that changes a plan member or the
time then rebuilds the plan's derived structure (tight slots, each
segment's heaviest member, minwt prefix minima) in one walk over the
ordered members.  Nothing costs anything per empty slot,
however long the horizon.

Conceptually the pending set is padded with zero-weight packets, one
per slot, up to a horizon sentinel one past the largest deadline.  The
padding never displaces a real packet below the last real tight slot;
beyond it, the padding pins the weight threshold to zero and makes the
sentinel slot permanently tight.  The engine therefore stores real
packets only and answers queries as if the padding were present.  A
zero-weight packet is materialized, with a fresh sub-zero rank for its
tiebreak and the first slot of the relevant segment for its deadline,
only when a transmission actually swaps one into the plan.

Slot conventions, with t the current time: pslack(tau), the slack of
slot tau, counts the free slots in [t, tau] once plan packets with
deadlines there are placed; it is 0 at tau = t - 1 by convention.  A
slot is tight when its pslack is 0.  Tight slots cut the horizon into
segments; the first segment is the one that begins at t - 1.  The
engine keeps the tight slots only, not pslack itself; `SlackProfile`
gives the tight slots, the slack floor and the weight of any packets
in deadline order, such as the verifier's backup pools, in one pass.

refresh() finds the tight slots with one comparison per member.
Number the members from 0 in deadline order.  Member j and the j
members before it must all fit into the slots t .. d(j), so a feasible
plan has d(j) >= t + j, and a deadline below t + j overfills its slot.
Between deadlines pslack rises by one per slot, so it can only reach 0
at a member's deadline, where, counted after the last member with that
deadline, it is d(j) - t - j.  A member with d(j) = t + j is that last
member, because a next one with the same deadline would fall below
t + j + 1.  So member j closes a segment exactly when d(j) = t + j.

Weights are :class:`planpack.golden.TaggedWeight` values with integer
base values (weights times the instance's common denominator), so
every ordering decision here is an integer tuple comparison.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, Sequence

from .golden import TaggedWeight, TiebreakSource

__all__ = [
    "ZERO_WEIGHT",
    "OutOfRangeError",
    "PlanError",
    "NotInInitSegError",
    "InInitSegError",
    "PendingPacket",
    "SubstituteResult",
    "ArrivalOutcome",
    "LeapInfo",
    "SlackProfile",
    "PlanState",
    "compute_plan",
]

# Weight of the conceptual zero padding.  Its tiebreak sits below every
# rank a TiebreakSource can hand out, so any materialized or input
# packet outweighs it.
ZERO_WEIGHT = TaggedWeight(0, -(10**18))

_deadline = attrgetter("deadline")
_weight = attrgetter("weight")


class PlanError(ValueError):
    """A plan operation was applied in a state that does not admit it."""


class OutOfRangeError(PlanError):
    """Slot query outside [t - 1, sentinel]."""


class NotInInitSegError(PlanError):
    """First-segment transmission applied to a packet outside it."""


class InInitSegError(PlanError):
    """Later-segment transmission applied to a first-segment packet."""


@dataclass(slots=True)
class PendingPacket:
    """A released, unexpired, untransmitted packet.

    weight and deadline are the current (possibly adjusted) values;
    original_weight is the arrival weight, which the original gain
    counts.  Weights are integers in the run's scaled units.  Negative
    ids mark materialized zero-weight packets.
    """

    id: int
    original_weight: int
    weight: TaggedWeight
    deadline: int
    in_plan: bool = False


def _changed(
    p: PendingPacket, weight: TaggedWeight, deadline: int, in_plan: bool
) -> PendingPacket:
    """p with new current values.  The engine builds a new packet rather
    than edit p, which a snapshot may still hold."""
    return PendingPacket(p.id, p.original_weight, weight, deadline, in_plan)


@dataclass(frozen=True, slots=True)
class SubstituteResult:
    """What would replace a plan packet if it left the plan.

    packet is None when the substitute is a zero-weight packet that has
    not been materialized; deadline and weight are meaningful either
    way.
    """

    packet: PendingPacket | None
    deadline: int
    weight: TaggedWeight


@dataclass(frozen=True, slots=True)
class ArrivalOutcome:
    admitted: bool
    evicted_id: int | None


@dataclass(frozen=True, slots=True)
class LeapInfo:
    """Membership delta of a later-segment transmission.

    p_id was transmitted, ell_id left the plan, rho_id entered it.
    delta is the tight slot just before p's deadline, gamma the first
    tight slot at or after rho's deadline, both measured before the
    update.
    """

    p_id: int
    rho_id: int
    ell_id: int
    delta: int
    gamma: int
    rho_was_virtual: bool


def _nextts(tights: list[int], tau: int) -> int:
    """First tight slot at or after tau other than tights[0]; the last
    one, the sentinel, past them all."""
    i = bisect_left(tights, tau, 1)
    return tights[min(i, len(tights) - 1)]


def _prevts(tights: list[int], tau: int) -> int:
    """Last tight slot before tau; tights[0] when there is none."""
    i = bisect_left(tights, tau)
    return tights[max(i - 1, 0)]


class SlackProfile:
    """pslack over the slots [start - 1, sentinel] of packets in deadline order.

    pslack(tau) = (tau - start + 1) - #{packets with deadline <= tau}.
    Between two deadlines the profile rises by one per slot, so each such
    stretch has its minimum at its first slot and at most one zero; one
    pass over the packets, with no sort, gives the whole profile, and
    each query costs O(log n), whatever the horizon.

    A deadline below start counts against every slot, so an expired
    packet shows up as negative slack from slot start on.  A deadline
    past the sentinel counts against no slot.

    tights holds start - 1, every slot in [start, sentinel) with zero
    slack (after a negative stretch that need not be a deadline), and
    the sentinel.  floor is the minimum of 0 and every pslack(tau) for
    tau in [start, sentinel], with the first slot reaching it (start - 1
    when no slot is negative).  weight is the packets' total weight.
    """

    __slots__ = ("tights", "floor", "weight")

    def __init__(self, ordered: Iterable[PendingPacket], start: int, sentinel: int) -> None:
        tights = [start - 1]
        floor, floor_slot, weight = 0, start - 1, 0
        # the j-th packet, numbered from start, counts at a = max(d, start).
        # Once the packets sharing its deadline are counted, pslack(a) is
        # a - j, so a > j, the common case, leaves slack.  Otherwise pslack
        # climbs back to 0 at slot j, unless the next packet is due by then:
        # that one finds a <= j - 1 and takes the zero back.
        for j, p in enumerate(ordered, start):
            a = p.deadline
            weight += p.weight.value
            if a <= j:
                if a < start:
                    a = start
                if a < j:
                    if a <= tights[-1]:
                        tights.pop()
                    if a - j < floor and a <= sentinel:
                        floor, floor_slot = a - j, a
                if j < sentinel:
                    tights.append(j)
        tights.append(sentinel)
        self.tights = tights
        self.floor = (floor, floor_slot)
        self.weight = weight

    def nextts(self, tau: int) -> int:
        """First tight slot at or after tau, at least start; the sentinel past it."""
        return _nextts(self.tights, tau)

    def prevts(self, tau: int) -> int:
        """Last tight slot before tau; start - 1 when there is none."""
        return _prevts(self.tights, tau)


class PlanState:
    """Pending packets plus the plan structure at one instant.

    Membership changes only through apply_arrival, the two
    apply_schedule variants, and advance_idle.  The structure has two
    sides, and each event updates only what it invalidates:

    * the non-plan index, the packets outside the plan by decreasing
      weight with the running maximum of their deadlines, is edited in
      place: a rejected arrival or an eviction inserts one packet, a
      leap inserts ell and drops rho, and a transmission drops the
      non-plan packets whose deadline has passed.  Non-plan weights and
      deadlines never change, so the index never needs a sort;
    * the plan members, in deadline order, are edited in place too:
      an admitted arrival is inserted and its evictee removed, a
      transmitted packet is removed, and a leap removes ell and inserts
      rho.  The structure derived from them (tight slots, the
      heaviest member of each segment, minwt per segment) is
      rebuilt by refresh() in one pass after every event that
      changes a member or t.  A rejected arrival does not
      call it.

    No event edits a packet.  A packet whose weight, deadline or
    membership changes (an evictee, a leap's ell and rho, the members a
    leap's chain moves) is replaced by a new PendingPacket in packets,
    in the member list and in the non-plan index, so a snapshot() keeps
    answering for the state it was taken from across every event.  A
    leap's chain edits go through adjust_members(), which ends with
    refresh(); that re-sorts the members first, and a sort of an ordered
    list is one linear pass.  clone() builds both sides from the in_plan
    flags, the constructor from nothing.
    """

    def __init__(self, t: int, sentinel: int, source: TiebreakSource | None = None):
        if sentinel < t:
            raise PlanError(f"sentinel {sentinel} precedes t={t}")
        self.t = t
        self.sentinel = sentinel
        self.source = source if source is not None else TiebreakSource()
        self.packets: dict[int, PendingPacket] = {}
        self._members: list[PendingPacket] = []
        self._index_nonplan()
        self.refresh()

    # structure rebuild

    def refresh(self) -> None:
        """Rebuild the plan side from the members' current deadlines and weights.

        One walk over the members in deadline order: member j closes a
        segment exactly when its deadline is t + j, and a deadline below
        t + j overfills its slot.
        """
        t, H = self.t, self.sentinel
        members = self._members
        # ordered already, unless a leap has just moved chain deadlines
        members.sort(key=_deadline)
        if members and not (t <= members[0].deadline and members[-1].deadline < H):
            p = next(p for p in members if not t <= p.deadline < H)
            raise PlanError(f"plan packet {p.id} deadline {p.deadline} out of [{t}, {H})")

        tights = [t - 1]
        seg_max: list[PendingPacket | None] = [None]
        prefix: list[PendingPacket | None] = [None]
        low = high = running = None
        for close, p in enumerate(members, t):
            w = p.weight
            if low is None:
                low, low_w, high, high_w = p, w, p, w
            elif w < low_w:
                low, low_w = p, w
            elif w > high_w:
                high, high_w = p, w
            d = p.deadline
            if d <= close:
                if d < close:
                    slot = SlackProfile(members, t, H).floor[1]
                    raise PlanError(f"plan infeasible at slot {slot}")
                tights.append(d)
                seg_max.append(high)
                if running is None or low_w < running_w:
                    running, running_w = low, low_w
                prefix.append(running)
                low = high = None
        tights.append(H)
        seg_max.append(high)
        if low is not None and (running is None or low_w < running_w):
            running = low
        prefix.append(running)
        self.tights = tights
        self._seg_member_max = seg_max
        self._seg_prefix_min = prefix

    def _index_nonplan(self) -> None:
        """Build the non-plan index from scratch."""
        nonplan = [p for p in self.packets.values() if not p.in_plan]
        nonplan.sort(key=_weight, reverse=True)
        self._nonplan = nonplan
        self._nonplan_maxd = list(accumulate((p.deadline for p in nonplan), max))

    def _nonplan_insert(self, p: PendingPacket) -> None:
        """Insert p, which has just left the plan or been refused by it."""
        nonplan, maxd = self._nonplan, self._nonplan_maxd
        w = p.weight
        i, hi = 0, len(nonplan)
        while i < hi:
            mid = (i + hi) // 2
            if nonplan[mid].weight > w:
                i = mid + 1
            else:
                hi = mid
        nonplan.insert(i, p)
        d = p.deadline
        maxd.insert(i, max(maxd[i - 1], d) if i else d)
        # the running maxima after i rise to d where they were below it
        j = bisect_left(maxd, d, i + 1)
        maxd[i + 1:j] = [d] * (j - i - 1)

    # the member list; in_plan flags are the callers' to set

    def _insert_member(self, p: PendingPacket) -> None:
        insort(self._members, p, key=_deadline)

    def _member_index(self, p: PendingPacket) -> int:
        members = self._members
        i = bisect_left(members, p.deadline, key=_deadline)
        while members[i] is not p:
            i += 1
        return i

    def _remove_member(self, p: PendingPacket) -> None:
        del self._members[self._member_index(p)]

    def _leave_plan(self, p: PendingPacket) -> None:
        """Move member p out of the plan: a copy flagged out of it takes
        p's place in packets and joins the non-plan index."""
        self._remove_member(p)
        out = _changed(p, p.weight, p.deadline, False)
        self.packets[p.id] = out
        self._nonplan_insert(out)

    # slot queries

    def _check_slot(self, tau: int) -> None:
        if not self.t <= tau <= self.sentinel:
            raise OutOfRangeError(f"slot {tau} outside [{self.t}, {self.sentinel}]")

    def nextts(self, tau: int) -> int:
        """First tight slot at or after tau; the sentinel past it."""
        self._check_slot(tau)
        return _nextts(self.tights, tau)

    def prevts(self, tau: int) -> int:
        """Last tight slot before tau; t - 1 when there is none."""
        self._check_slot(tau)
        return _prevts(self.tights, tau)

    def _segment_of(self, tau: int) -> int:
        self._check_slot(tau)
        return bisect_left(self.tights, tau, 1)

    def _is_tail_segment(self, seg: int) -> bool:
        return seg == len(self.tights) - 1

    def minwt_packet(self, tau: int) -> PendingPacket | None:
        """The packet realizing minwt at tau, None in the zero-padded tail."""
        seg = self._segment_of(tau)
        if self._is_tail_segment(seg):
            return None
        return self._seg_prefix_min[seg]

    def minwt(self, tau: int) -> TaggedWeight:
        p = self.minwt_packet(tau)
        return ZERO_WEIGHT if p is None else p.weight

    # membership queries

    def plan_ids(self) -> set[int]:
        return {p.id for p in self._members}

    def plan_members(self) -> list[PendingPacket]:
        """The plan's members in deadline order."""
        return list(self._members)

    def iter_members(self) -> Sequence[PendingPacket]:
        """The plan's members in deadline order: the live list, not a
        copy, and the same object on every call; the plan must not change
        while it is read."""
        return self._members

    def lightest_initseg(self) -> PendingPacket | None:
        """Lightest plan packet in the first segment; None iff the plan is
        empty.  It is minwt's packet at the first segment's slots, since
        no segment comes before it."""
        return self._seg_prefix_min[1]

    def heaviest_member(self) -> PendingPacket | None:
        """Heaviest plan packet, the heaviest of the segment maxima; None
        iff the plan is empty.  It is also the heaviest pending packet,
        since that one alone always fits."""
        return max(filter(None, self._seg_member_max), key=_weight, default=None)

    def heaviest_in_window(self, lo: int, hi: int) -> PendingPacket | None:
        """Heaviest plan packet with deadline in (lo, hi], both tight slots."""
        best: PendingPacket | None = None
        i = bisect_right(self.tights, lo)
        while i < len(self.tights) and self.tights[i] <= hi:
            cand = self._seg_member_max[i]
            if cand is not None and (best is None or cand.weight > best.weight):
                best = cand
            i += 1
        return best

    def _nonplan_candidate(self, beta: int) -> PendingPacket | None:
        """Heaviest non-plan pending packet with deadline beyond slot beta."""
        i = bisect_right(self._nonplan_maxd, beta)
        return self._nonplan[i] if i < len(self._nonplan) else None

    def substitute(self, pid: int) -> SubstituteResult:
        """The replacement the plan would fall back on if pid left it."""
        p = self.packets[pid]
        if not p.in_plan:
            raise PlanError(f"packet {pid} is not in the plan")
        seg = self._segment_of(p.deadline)
        if seg == 1:
            ell = self.lightest_initseg()
            return SubstituteResult(ell, ell.deadline, ell.weight)
        beta = self.tights[seg - 1]
        cand = self._nonplan_candidate(beta)
        if cand is not None:
            return SubstituteResult(cand, cand.deadline, cand.weight)
        return SubstituteResult(None, beta + 1, ZERO_WEIGHT)

    def segment_entries(self) -> list[tuple[int, PendingPacket, SubstituteResult]]:
        """(segment index, heaviest member, shared substitute) per nonempty segment."""
        out = []
        for i in range(1, len(self.tights)):
            top = self._seg_member_max[i]
            if top is None:
                continue
            out.append((i, top, self.substitute(top.id)))
        return out

    # events

    def apply_arrival(self, pid: int, deadline: int, weight: TaggedWeight) -> ArrivalOutcome:
        if pid in self.packets:
            raise PlanError(f"packet id {pid} already pending")
        if not self.t <= deadline < self.sentinel:
            raise PlanError(f"arrival deadline {deadline} outside [{self.t}, {self.sentinel})")
        threshold = self.minwt_packet(deadline)
        admitted = threshold is None or weight > threshold.weight
        p = PendingPacket(pid, weight.value, weight, deadline, admitted)
        self.packets[pid] = p
        if not admitted:
            self._nonplan_insert(p)
            return ArrivalOutcome(False, None)
        if threshold is not None:
            self._leave_plan(threshold)
        self._insert_member(p)
        self.refresh()
        return ArrivalOutcome(True, None if threshold is None else threshold.id)

    def apply_schedule_initseg(self, pid: int) -> None:
        p = self.packets[pid]
        if not p.in_plan or self._segment_of(p.deadline) != 1:
            raise NotInInitSegError(f"packet {pid} is not a first-segment plan packet")
        del self.packets[pid]
        self._remove_member(p)
        self._advance_time()
        self.refresh()

    def apply_schedule_later(
        self, pid: int, sub: SubstituteResult | None = None, refresh: bool = True
    ) -> LeapInfo:
        p = self.packets[pid]
        if not p.in_plan:
            raise PlanError(f"packet {pid} is not in the plan")
        seg = self._segment_of(p.deadline)
        if seg == 1:
            raise InInitSegError(f"packet {pid} is in the first segment")
        if sub is None:
            sub = self.substitute(pid)
        ell = self.lightest_initseg()
        delta = self.tights[seg - 1]
        gamma = self.nextts(sub.deadline)
        del self.packets[pid]
        self._remove_member(p)
        self._leave_plan(ell)
        joined = sub.packet
        if joined is None:
            vid = self.source.sub_zero()
            rho = PendingPacket(vid, 0, TaggedWeight(0, vid), sub.deadline, True)
        else:
            rho = _changed(joined, joined.weight, joined.deadline, True)
        self.packets[rho.id] = rho
        self._insert_member(rho)
        self._advance_time(joined)
        if refresh:
            self.refresh()
        return LeapInfo(pid, rho.id, ell.id, delta, gamma, sub.packet is None)

    def adjust_members(self, changes: list[tuple[int, int, TaggedWeight]]) -> None:
        """Give plan members new deadlines and weights, as a leap's chain
        does, then refresh.  changes holds (id, deadline, weight) triples
        of distinct members; each member named is replaced by a new
        packet, in packets and at its place in the member list."""
        members = self._members
        places = [self._member_index(self.packets[pid]) for pid, _, _ in changes]
        for i, (pid, deadline, weight) in zip(places, changes):
            members[i] = self.packets[pid] = _changed(members[i], weight, deadline, True)
        self.refresh()

    def advance_idle(self, slots: int) -> None:
        """Move past `slots` slots in which nothing is pending, at most up
        to the sentinel."""
        if self.packets:
            raise PlanError("idle step with packets still pending")
        if slots < 1:
            raise PlanError(f"idle stretch of {slots} slots")
        if self.t + slots > self.sentinel:
            raise PlanError(
                f"idle stretch of {slots} slots from t={self.t} passes the sentinel {self.sentinel}"
            )
        self.t += slots
        self.refresh()

    def _advance_time(self, joined: PendingPacket | None = None) -> None:
        """Move to the next slot: the non-plan packets whose deadline has
        passed expire, and joined, a packet that has just entered the
        plan, leaves the non-plan index."""
        self.t = t = self.t + 1
        nonplan = self._nonplan
        expired = [p for p in nonplan if p.deadline < t]
        for p in expired:
            del self.packets[p.id]
        if expired or joined is not None:
            nonplan[:] = [p for p in nonplan if p.deadline >= t and p is not joined]
            self._nonplan_maxd[:] = accumulate((p.deadline for p in nonplan), max)

    def clone(self) -> "PlanState":
        dup = PlanState.__new__(PlanState)
        dup.t = self.t
        dup.sentinel = self.sentinel
        dup.source = self.source.clone()
        dup.packets = {
            pid: PendingPacket(p.id, p.original_weight, p.weight, p.deadline, p.in_plan)
            for pid, p in self.packets.items()
        }
        dup._members = [p for p in dup.packets.values() if p.in_plan]
        dup._index_nonplan()
        dup.refresh()
        return dup

    def snapshot(self) -> "PlanState":
        """A view of this state that stays valid across every later event.

        It holds its own packet dict, member list and non-plan index but
        shares the packets themselves and the structure derived from the
        members.  Neither is edited afterwards: refresh() replaces the
        structure, and an event replaces a packet it changes, so the
        view keeps answering for the state it was taken from.
        """
        dup = PlanState.__new__(PlanState)
        dup.t = self.t
        dup.sentinel = self.sentinel
        dup.source = self.source.clone()
        dup.packets = dict(self.packets)
        dup._members = list(self._members)
        dup._nonplan = list(self._nonplan)
        dup._nonplan_maxd = list(self._nonplan_maxd)
        dup.tights = self.tights
        dup._seg_member_max = self._seg_member_max
        dup._seg_prefix_min = self._seg_prefix_min
        return dup


def compute_plan(
    items: list[tuple[int, int, TaggedWeight]], t: int, sentinel: int
) -> set[int]:
    """Recompute plan membership from scratch.

    items are (id, deadline, weight) triples of the pending packets.
    Greedy admission in decreasing weight order, admitting a packet
    exactly when every slot from its deadline through the sentinel
    still has a free position.  Independent of the incremental engine;
    used as its cross-check.
    """
    order = sorted(items, key=lambda it: it[2], reverse=True)
    slack = [tau - t + 1 for tau in range(t, sentinel + 1)]
    chosen: set[int] = set()
    for pid, deadline, _ in order:
        lo = deadline - t
        if lo < 0 or deadline >= sentinel:
            raise PlanError(f"deadline {deadline} outside [{t}, {sentinel})")
        if min(slack[lo:]) >= 1:
            chosen.add(pid)
            for i in range(lo, len(slack)):
                slack[i] -= 1
    return chosen
