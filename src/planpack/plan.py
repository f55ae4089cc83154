"""Plan maintenance: membership, slack profile, tight slots, segments,
minimum-weight thresholds, and substitute packets.

The plan at time t is the unique maximum-weight feasible subset of the
pending packets, where feasible means the subset can be transmitted one
packet per slot with every packet on time, and uniqueness comes from the
tie-broken total order on weights.  This module keeps that subset and
its derived structure current across the three events that can change
it (a packet arrives; a packet from the first segment is transmitted; a
packet from a later segment is transmitted) by applying the constant
size membership delta each event induces and then rebuilding the slot
profile in one linear pass.

Conceptually the pending set is padded with zero-weight packets, one
per slot, up to a horizon sentinel one past the largest deadline.  The
padding never displaces a real packet below the last real tight slot;
beyond it, the padding pins the weight threshold to zero and makes the
sentinel slot permanently tight.  The engine therefore stores real
packets only and answers queries as if the padding were present.  A
zero-weight packet is materialized, with a fresh sub-zero rank for its
tiebreak and the first slot of the relevant segment for its deadline,
only when a transmission actually swaps one into the plan.

Slot conventions, with t the current time: pslack(tau) counts the free
slots in [t, tau] once plan packets with deadlines there are placed; it
is 0 at tau = t - 1 by convention.  A slot is tight when its pslack is
0.  Tight slots cut the horizon into segments; the first segment is the
one that begins at t - 1.

Weights are :class:`planpack.golden.TaggedWeight` values with integer
base values (weights times the instance's common denominator), so
every ordering decision here is an integer tuple comparison.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

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
    "PlanState",
    "compute_plan",
]

# Weight of the conceptual zero padding.  Its tiebreak sits below every
# rank a TiebreakSource can hand out, so any materialized or input
# packet outweighs it.
ZERO_WEIGHT = TaggedWeight(0, -(10**18))


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

    weight and deadline are the current (possibly adjusted) values; the
    original ones are kept for reporting.  Weights are integers in the
    run's scaled units.  Negative ids mark materialized zero-weight
    packets.
    """

    id: int
    release: int
    original_weight: int
    original_deadline: int
    weight: TaggedWeight
    deadline: int
    in_plan: bool = False

    @property
    def is_virtual(self) -> bool:
        return self.id < 0


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

    @property
    def is_virtual(self) -> bool:
        return self.packet is None


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


class PlanState:
    """Pending packets plus the plan structure at one instant.

    Membership changes only through apply_arrival, the two
    apply_schedule variants, and advance_idle.  Weight or deadline
    adjustments made between events must be followed by refresh().
    """

    def __init__(self, t: int, sentinel: int, source: TiebreakSource | None = None):
        if sentinel < t:
            raise PlanError(f"sentinel {sentinel} precedes t={t}")
        self.t = t
        self.sentinel = sentinel
        self.source = source if source is not None else TiebreakSource()
        self.packets: dict[int, PendingPacket] = {}
        self.refresh()

    # structure rebuild

    def refresh(self) -> None:
        t, base, H = self.t, self.t - 1, self.sentinel
        size = H - base + 1
        counts = [0] * size
        members = []
        nonplan = []
        for p in self.packets.values():
            if p.in_plan:
                if not t <= p.deadline < H:
                    raise PlanError(f"plan packet {p.id} deadline {p.deadline} out of [{t}, {H})")
                counts[p.deadline - base] += 1
                members.append(p)
            else:
                nonplan.append(p)

        pslack = [0] * size
        filled = 0
        for i in range(1, size):
            filled += counts[i]
            pslack[i] = i - filled
            if pslack[i] < 0:
                raise PlanError(f"plan infeasible at slot {base + i}")
        self._pslack = pslack

        tights = [base]
        for i in range(1, size - 1):
            if pslack[i] == 0:
                tights.append(base + i)
        tights.append(H)
        self.tights = tights

        nseg = len(tights) - 1
        seg_min: list[PendingPacket | None] = [None] * (nseg + 1)
        seg_max: list[PendingPacket | None] = [None] * (nseg + 1)
        for p in members:
            i = bisect_left(tights, p.deadline, 1)
            if seg_min[i] is None or p.weight < seg_min[i].weight:
                seg_min[i] = p
            if seg_max[i] is None or p.weight > seg_max[i].weight:
                seg_max[i] = p
        self._seg_member_min = seg_min
        self._seg_member_max = seg_max

        # prefix minima give minwt per segment; the final segment is the
        # zero-padded tail
        running: PendingPacket | None = None
        prefix: list[PendingPacket | None] = [None] * (nseg + 1)
        for i in range(1, nseg + 1):
            own = seg_min[i]
            if own is not None and (running is None or own.weight < running.weight):
                running = own
            prefix[i] = running
        self._seg_prefix_min = prefix

        nonplan.sort(key=lambda p: p.weight, reverse=True)
        self._nonplan = nonplan
        maxd = []
        top = -1
        for p in nonplan:
            top = max(top, p.deadline)
            maxd.append(top)
        self._nonplan_maxd = maxd

    # slot queries

    def _slot_index(self, tau: int, lo: int) -> int:
        if not lo <= tau <= self.sentinel:
            raise OutOfRangeError(f"slot {tau} outside [{lo}, {self.sentinel}]")
        return tau - (self.t - 1)

    def pslack(self, tau: int) -> int:
        return self._pslack[self._slot_index(tau, self.t - 1)]

    def tight_slots(self) -> list[int]:
        return list(self.tights)

    def segments(self) -> list[tuple[int, int]]:
        """Half-open-below intervals (lo, hi] between consecutive tight slots."""
        return [(self.tights[i - 1], self.tights[i]) for i in range(1, len(self.tights))]

    def nextts(self, tau: int) -> int:
        self._slot_index(tau, self.t)
        return self.tights[bisect_left(self.tights, tau)]

    def prevts(self, tau: int) -> int:
        self._slot_index(tau, self.t)
        return self.tights[bisect_left(self.tights, tau) - 1]

    def _segment_of(self, tau: int) -> int:
        self._slot_index(tau, self.t)
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
        return {p.id for p in self.packets.values() if p.in_plan}

    def plan_members(self) -> list[PendingPacket]:
        return [p for p in self.packets.values() if p.in_plan]

    def plan_weight(self) -> int:
        return sum(p.weight.value for p in self.plan_members())

    def lightest_initseg(self) -> PendingPacket | None:
        """Lightest plan packet in the first segment; None iff the plan is empty."""
        return self._seg_member_min[1]

    def initseg_ids(self) -> set[int]:
        lo, hi = self.tights[0], self.tights[1]
        return {p.id for p in self.plan_members() if lo < p.deadline <= hi}

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

    def apply_arrival(
        self, pid: int, release: int, deadline: int, weight: TaggedWeight
    ) -> ArrivalOutcome:
        if pid in self.packets:
            raise PlanError(f"packet id {pid} already pending")
        if not self.t <= deadline < self.sentinel:
            raise PlanError(f"arrival deadline {deadline} outside [{self.t}, {self.sentinel})")
        p = PendingPacket(pid, release, weight.value, deadline, weight, deadline)
        self.packets[pid] = p
        threshold = self.minwt_packet(deadline)
        if threshold is None:
            p.in_plan = True
            outcome = ArrivalOutcome(True, None)
        elif weight > threshold.weight:
            threshold.in_plan = False
            p.in_plan = True
            outcome = ArrivalOutcome(True, threshold.id)
        else:
            outcome = ArrivalOutcome(False, None)
        self.refresh()
        return outcome

    def apply_schedule_initseg(self, pid: int, refresh: bool = True) -> None:
        p = self.packets[pid]
        if not p.in_plan or self._segment_of(p.deadline) != 1:
            raise NotInInitSegError(f"packet {pid} is not a first-segment plan packet")
        del self.packets[pid]
        self._advance_time()
        if refresh:
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
        ell.in_plan = False
        if sub.packet is None:
            vid = self.source.sub_zero()
            rho = PendingPacket(
                vid, self.t, 0, sub.deadline, TaggedWeight(0, vid), sub.deadline, in_plan=True,
            )
            self.packets[vid] = rho
        else:
            rho = sub.packet
            rho.in_plan = True
        self._advance_time()
        if refresh:
            self.refresh()
        return LeapInfo(pid, rho.id, ell.id, delta, gamma, sub.packet is None)

    def advance_idle(self) -> None:
        if self.packets:
            raise PlanError("idle step with packets still pending")
        self.t += 1
        self.refresh()

    def _advance_time(self) -> None:
        self.t += 1
        expired = [
            pid for pid, p in self.packets.items()
            if not p.in_plan and p.deadline < self.t
        ]
        for pid in expired:
            del self.packets[pid]

    def clone(self) -> "PlanState":
        dup = PlanState.__new__(PlanState)
        dup.t = self.t
        dup.sentinel = self.sentinel
        dup.source = self.source.clone()
        dup.packets = {
            pid: PendingPacket(
                p.id, p.release, p.original_weight, p.original_deadline,
                p.weight, p.deadline, p.in_plan,
            )
            for pid, p in self.packets.items()
        }
        dup.refresh()
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
