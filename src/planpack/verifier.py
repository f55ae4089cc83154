"""Exact replay audit of a plan-based run against a comparison schedule.

The checker replays a recorded run event by event next to its own mirror
of the plan engine and maintains, in exact golden-field arithmetic, the
accounting that bounds the comparison schedule's total weight by phi
times the run's gain:

* a timetable of the comparison schedule's outstanding transmissions,
  one entry per slot, each either a live reference to a pending packet
  or a frozen placeholder weight;
* a pool of furloughed packets: pending packets outside the plan that
  stand in for plan packets still owed to the timetable;
* a potential, 1/phi times the total weight of the backup pool (the
  furloughs plus the plan members the timetable does not claim).

Every event is classified into one of a fixed set of cases, each with a
closed-form potential delta and a per-case inequality that is asserted
exactly via `golden_sign`.  A leap is audited as the proof charges it:
`_leap_first_segment` takes L.InSeg, the window goes at once (L.S.1,
L.I.1) or, cut by `_leap_partition`, group by group (L.S.2, L.I.2):
`_terminal_group` (T), `_middle_group` (M.i, M.ii), `_initial_group`
(I).  Structural invariants (timetable entries stay schedulable, the
backup pool stays feasible, and the potential matches a from-scratch
recomputation) are re-checked after every event.
Any failure raises a `VerifierError` subclass carrying enough context
to replay the event.

One routine, `_backup_pool`, lists every backup pool the audit reads in
deadline order, from a plan given as packets in deadline order: the
live plan, a snapshot's, the plan before an arrival, or a leap's
working plan.  The engine's `SlackProfile` walks a plan or a pool in
that order once, with no sort, for its slack floor, tight slots and
weight.

The module never trusts the trace: each op takes the recorded event,
recomputes it on the mirror and rejects it unless the two are equal in
full.  The replay has no clock of its own.  `verify_trace` only hands
over the recorded events in order; the `Verifier` checks that order from
its own state (the instance's next arrival, the mirror's time, the
horizon).  An idle stretch is one event, as in `schedulers.run`: its
audit costs per comparison slot inside it, not per slot.

All accounting runs on integers: weights, gains and the coefficients of
every golden number are in units of 1/D, D the instance's common weight
denominator.  The per-event reports keep those units, and
`VerificationResult.scale` turns them into the rationals they stand for;
the summary totals and error messages are converted to rationals.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Container, Iterable, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import NamedTuple, NoReturn

from .golden import (
    GoldenNumber,
    PHI,
    PHI_INV,
    PHI_INV2,
    ZERO,
    WeightScale,
    format_golden,
    golden_sign,
)
from .model import Instance, Packet, tagged_weight_map
from .offline import Schedule
from .plan import PendingPacket, PlanState, SlackProfile
from .schedulers import (
    ArrivalEvent,
    LeapRecord,
    RunTrace,
    ScheduleEvent,
    planm_step,
)
from .trace_io import format_event

__all__ = [
    "VerifierError",
    "InfeasibleComparison",
    "TraceMismatch",
    "InvariantViolation",
    "InequalityViolation",
    "GroupPartitionError",
    "RealEntry",
    "ShadowEntry",
    "AdversaryReport",
    "EventReport",
    "SummaryReport",
    "VerificationResult",
    "Verifier",
    "verify_trace",
]

_deadline = attrgetter("deadline")


class VerifierError(ValueError):
    """Base for every audit failure; carries replay context."""

    def __init__(
        self,
        message: str,
        *,
        event: int | None = None,
        time: int | None = None,
        case: str | None = None,
        lhs: GoldenNumber | None = None,
        rhs: GoldenNumber | None = None,
    ) -> None:
        parts = [message]
        if event is not None:
            parts.append(f"event={event}")
        if time is not None:
            parts.append(f"t={time}")
        if case is not None:
            parts.append(f"case={case}")
        if lhs is not None:
            parts.append(f"lhs={format_golden(lhs)}")
        if rhs is not None:
            parts.append(f"rhs={format_golden(rhs)}")
        super().__init__("; ".join(parts))
        self.event = event
        self.time = time
        self.case = case
        self.lhs = lhs
        self.rhs = rhs


class InfeasibleComparison(VerifierError):
    """The comparison schedule is not a feasible schedule of the instance."""


class TraceMismatch(VerifierError):
    """The trace disagrees with the mirrored recomputation of the run."""


class InvariantViolation(VerifierError):
    """A structural invariant failed after applying an event's case rules."""


class InequalityViolation(VerifierError):
    """A per-case or per-event exact inequality failed."""


class GroupPartitionError(VerifierError):
    """The long-leap window could not be split into valid groups."""


@dataclass(frozen=True, slots=True)
class RealEntry:
    """Timetable slot owed a live pending packet."""

    packet_id: int


@dataclass(frozen=True, slots=True)
class ShadowEntry:
    """Timetable slot owed a fixed weight (scaled); the packet reference is gone."""

    weight: int


TimetableEntry = RealEntry | ShadowEntry
Event = ArrivalEvent | ScheduleEvent


class _Stop(NamedTuple):
    """A stop of a leap's replacement chain, weights scaled: p at 0, the
    shifted packets at 1..k, the promoted substitute rho at k+1.  tau is
    the tight slot at or after the old deadline, floor the threshold
    there; new is the packet with its deadline and weight after the leap,
    None for p; rise sums the weight increases up to this stop."""

    id: int
    old_weight: int
    tau: int
    floor: int
    new: PendingPacket | None
    bumped: bool
    rise: int


class _Window(NamedTuple):
    """A long leap's window as its handlers see it: the plan before the leap,
    the leap, its chain, the working plan {id: packet}, the case."""

    pre: PlanState
    rec: LeapRecord
    stops: list[_Stop]
    working: dict[int, PendingPacket]
    case: str

    def plan(self) -> list[PendingPacket]:
        """The working plan in deadline order."""
        return sorted(self.working.values(), key=_deadline)


class _Group(NamedTuple):
    """Chain stops first..last of a long leap's window, charged as one
    terminal, middle or initial group; target is the terminal group's
    window target g, None for the others."""

    kind: str
    first: int
    last: int
    target: int | None


# a group handler's potential delta, credit and detail fragment
_Charge = tuple[GoldenNumber, int, str]


@dataclass(frozen=True, slots=True)
class AdversaryReport:
    """Outcome of consuming the timetable entry at the current slot, in
    scaled units."""

    case: str
    scheduled_weight: int
    dpsi: GoldenNumber


@dataclass(frozen=True, slots=True)
class EventReport:
    """The ledger rows of one event, one per slot from ``time`` on (several
    only for an idle run); weights and golden numbers in scaled units."""

    index: int
    time: int
    slots: int
    kind: str
    case: str
    detail: str
    advgain: int
    dweights: int
    dpsi_adv: GoldenNumber
    dpsi_initseg: GoldenNumber
    dpsi_window: GoldenNumber
    dpsi_total: GoldenNumber
    psi_after: GoldenNumber
    margin: GoldenNumber


@dataclass(frozen=True, slots=True)
class SummaryReport:
    """Totals of an audit, as rationals."""

    events: int
    advgain_total: Fraction
    comparison_weight: Fraction
    gain0: Fraction
    gain_current: Fraction
    weight_increase_total: Fraction
    psi_final: GoldenNumber
    bound_margin: GoldenNumber


@dataclass(frozen=True, slots=True)
class VerificationResult:
    """The ledger and totals of an audit.  The ledger rows are in
    scaled units, which ``scale`` maps to rationals; the summary is
    already rational."""

    algorithm: str
    reports: tuple[EventReport, ...]
    summary: SummaryReport
    scale: WeightScale


class Verifier:
    """Replays one run of the plan scheduler against a comparison schedule.

    Feed it the recorded events in order via `on_arrival`,
    `on_ordinary_step`, `on_leap_step` and `on_idle`, then call
    `finalize`.  Each op checks that its event is due, compares it in
    full with the mirror's recomputation, applies the case rules, and
    re-checks the invariants; `finalize` checks that the run reached the
    horizon, closes the books and returns the full `VerificationResult`.
    """

    def __init__(self, instance: Instance, comparison: Schedule) -> None:
        try:
            comparison.check_feasible(instance)
        except ValueError as exc:
            raise InfeasibleComparison(str(exc)) from exc
        self.instance = instance
        self.comparison = comparison
        self._scale = instance.scale
        self._comparison_weight = self._scale.scaled(comparison.weight0)
        self._slot_of = {pid: slot for slot, pid in comparison.assignment.items()}
        self._state = PlanState(0, max(instance.sentinel, 0))
        self._weights = tagged_weight_map(instance, self._state.source)
        self._timetable: dict[int, TimetableEntry] = {}
        self._furloughed: set[int] = set()
        self._potential = ZERO
        self._advgain_total = 0
        self._dweights_total = 0
        self._gain0 = 0
        self._gain_current = 0
        self._event_index = 0
        self._reports: list[EventReport] = []
        self._arrived = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # error helpers

    def _fail(
        self,
        cls: type[VerifierError],
        message: str,
        *,
        case: str | None = None,
        lhs: GoldenNumber | None = None,
        rhs: GoldenNumber | None = None,
    ) -> NoReturn:
        raise cls(
            message,
            event=self._event_index,
            time=self._state.t,
            case=case,
            lhs=None if lhs is None else self._scale.golden(lhs),
            rhs=None if rhs is None else self._scale.golden(rhs),
        )

    def _require_sign(self, value: GoldenNumber, case: str, what: str) -> None:
        if golden_sign(value) < 0:
            self._fail(
                InequalityViolation,
                f"{what} is negative",
                case=case,
                lhs=value,
                rhs=ZERO,
            )

    def _require_frac(self, ok: bool, case: str, what: str) -> None:
        if not ok:
            self._fail(InequalityViolation, what, case=case)

    # ------------------------------------------------------------------
    # event order

    def _describe(self, ev: Event) -> str:
        """An event's trace line, with the slots of an idle stretch."""
        line = format_event(ev, self._scale)
        if isinstance(ev, ScheduleEvent) and ev.kind == "idle":
            return f"{line} for slots {ev.t}..{ev.t + ev.slots - 1}"
        return line

    def _compare(self, recorded: Event, mirror: Event) -> None:
        if recorded != mirror:
            self._fail(
                TraceMismatch,
                "trace event diverges from the mirror: "
                f"{self._describe(recorded)} != {self._describe(mirror)}",
            )

    def _next_packet(self) -> Packet | None:
        """The instance's first packet not replayed yet."""
        packets = self.instance.packets
        return packets[self._arrived] if self._arrived < len(packets) else None

    def _begin_turn(self, event: ScheduleEvent) -> None:
        """A scheduling event is due after every arrival at t, up to the horizon."""
        if self._finalized:
            raise VerifierError("verifier already finalized")
        t = self._state.t
        due = self._next_packet()
        if t > self.instance.horizon or (due is not None and due.release == t):
            self._fail(
                TraceMismatch,
                f"no scheduling event is due at t={t}; trace has {self._describe(event)}",
            )

    # ------------------------------------------------------------------
    # set views

    def _real_entries(self) -> dict[int, int]:
        """Live timetable packets as {packet id: slot}."""
        out: dict[int, int] = {}
        for slot, entry in self._timetable.items():
            if isinstance(entry, RealEntry):
                if entry.packet_id in out:
                    self._fail(
                        InvariantViolation,
                        f"packet {entry.packet_id} holds two timetable slots",
                    )
                out[entry.packet_id] = slot
        return out

    def _backup_pool(
        self,
        packets: dict[int, PendingPacket],
        members: Iterable[PendingPacket],
        claimed: Container[int],
    ) -> list[PendingPacket]:
        """The backup pool in deadline order: the members outside claimed,
        with every furlough, looked up in packets and checked to be
        pending, inserted by deadline.

        members is a plan in deadline order: the live plan, a snapshot's,
        the plan before an arrival, or a leap's working plan.
        """
        pool = [p for p in members if p.id not in claimed]
        for fid in self._furloughed:
            pkt = packets.get(fid)
            if pkt is None:
                self._fail(InvariantViolation, f"furloughed packet {fid} not pending")
            insort(pool, pkt, key=_deadline)
        return pool

    def _first_furlough(
        self, packets: dict[int, PendingPacket], lo: int, hi: int
    ) -> int | None:
        """The furlough with the earliest deadline in (lo, hi], ties by id;
        every furlough must be pending in packets."""
        found = []
        for fid in self._furloughed:
            pkt = packets.get(fid)
            if pkt is None:
                self._fail(InvariantViolation, f"furloughed packet {fid} not pending")
            if lo < pkt.deadline <= hi:
                found.append((pkt.deadline, fid))
        return min(found)[1] if found else None

    def _earliest_furlough(
        self,
        reference: PlanState,
        lo: int,
        hi: int,
        case: str,
    ) -> tuple[int | None, int]:
        """Release the earliest-deadline furlough with deadline in (lo, hi].

        Falls back to consuming a zero-weight stand-in when the range
        runs to the horizon sentinel and holds no live furlough; a bare
        range short of the sentinel is a broken invariant.
        """
        fid = self._first_furlough(reference.packets, lo, hi)
        if fid is not None:
            self._furloughed.remove(fid)
            return fid, reference.packets[fid].weight.value
        if hi >= self._state.sentinel:
            return None, 0
        self._fail(
            InvariantViolation,
            f"no furlough with deadline in ({lo}, {hi}]",
            case=case,
        )

    def _cover_range(
        self,
        reference: PlanState,
        members: Sequence[PendingPacket],
        claimed: Container[int],
        deadline: int,
    ) -> tuple[int, int]:
        """The range (lo, hi] holding the furlough that backs a plan
        packet with this deadline: lo is the plan's last tight slot
        before it, hi the backup pool's first tight slot at or after it.
        members is the plan in deadline order; reference holds the
        pending packets and the time it belongs to.  When members is
        reference's own live list, reference's tight slots give lo.
        """
        t, sentinel = reference.t, reference.sentinel
        if members is reference.iter_members():
            lo = reference.prevts(deadline)
        else:
            lo = SlackProfile(members, t, sentinel).prevts(deadline)
        pool = self._backup_pool(reference.packets, members, claimed)
        return lo, SlackProfile(pool, t, sentinel).nextts(deadline)

    def _restore_backup(
        self,
        reference: PlanState,
        members: Sequence[PendingPacket],
        claimed: Container[int],
        g_deadline: int,
        case: str,
    ) -> tuple[int | None, int]:
        """Release the furlough that covered a claimed plan packet g, the
        earliest in the `_cover_range` of g's deadline; g leaves the
        plan's obligations."""
        lo, hi = self._cover_range(reference, members, claimed, g_deadline)
        return self._earliest_furlough(reference, lo, hi, case)

    # ------------------------------------------------------------------
    # invariant checks

    def _post_event_checks(self) -> None:
        """Re-check the structural invariants after an event.

        One walk over the timetable in slot order checks that each entry
        is at a usable slot, that a live entry's packet is a plan member
        that can still reach it and holds no other slot, and that a
        placeholder does not outweigh the plan threshold; it collects the
        claimed packets.  The backup pool is built from the engine's
        member list, no furlough may be a plan member, and its
        `SlackProfile` gives the pool's slack floor, which must not be
        negative, and its weight, which must match the running potential.
        """
        state = self._state
        t, horizon, packets = state.t, self.instance.horizon, state.packets
        claimed: set[int] = set()
        for slot, entry in sorted(self._timetable.items()):
            if slot < t or slot > horizon:
                self._fail(InvariantViolation, f"timetable entry at unusable slot {slot}")
            if isinstance(entry, RealEntry):
                pid = entry.packet_id
                pkt = packets.get(pid)
                if pkt is None or not pkt.in_plan:
                    self._fail(InvariantViolation, f"timetable packet {pid} is not a plan member")
                if pkt.deadline < slot:
                    self._fail(InvariantViolation, f"packet {pid} can no longer reach slot {slot}")
                if pid in claimed:
                    self._fail(InvariantViolation, f"packet {pid} holds two timetable slots")
                claimed.add(pid)
            else:
                limit = state.minwt(slot).value
                if entry.weight > limit:
                    self._fail(
                        InvariantViolation,
                        f"placeholder at slot {slot} outweighs the plan threshold",
                        lhs=GoldenNumber(entry.weight, 0),
                        rhs=GoldenNumber(limit, 0),
                    )
        pool = self._backup_pool(packets, state.iter_members(), claimed)
        for fid in self._furloughed:
            if packets[fid].in_plan:
                self._fail(InvariantViolation, f"furloughed packet {fid} is in the plan")
        profile = SlackProfile(pool, t, state.sentinel)
        slack, slot = profile.floor
        if slack < 0:
            self._fail(InvariantViolation, f"backup pool overfills slot {slot} by {-slack}")
        scratch = PHI_INV * profile.weight
        if golden_sign(self._potential - scratch) != 0:
            self._fail(
                InvariantViolation,
                "running potential drifted from its definition",
                lhs=self._potential,
                rhs=scratch,
            )

    # ------------------------------------------------------------------
    # reporting

    def _report(
        self,
        *,
        time: int,
        kind: str,
        case: str,
        detail: str = "",
        advgain: int = 0,
        dweights: int = 0,
        dpsi_adv: GoldenNumber = ZERO,
        dpsi_initseg: GoldenNumber = ZERO,
        dpsi_window: GoldenNumber = ZERO,
        margin: GoldenNumber = ZERO,
        slots: int = 1,
    ) -> EventReport:
        """Close an event: record its report, then re-check the invariants."""
        report = EventReport(
            index=self._event_index,
            time=time,
            slots=slots,
            kind=kind,
            case=case,
            detail=detail,
            advgain=advgain,
            dweights=dweights,
            dpsi_adv=dpsi_adv,
            dpsi_initseg=dpsi_initseg,
            dpsi_window=dpsi_window,
            dpsi_total=dpsi_adv + dpsi_initseg + dpsi_window,
            psi_after=self._potential,
            margin=margin,
        )
        self._reports.append(report)
        self._event_index += slots
        self._post_event_checks()
        return report

    # ------------------------------------------------------------------
    # arrivals

    def on_arrival(self, event: ArrivalEvent) -> EventReport:
        """Replay an arrival: the instance's next packet, at the mirror's t."""
        if self._finalized:
            raise VerifierError("verifier already finalized")
        state = self._state
        packet = self._next_packet()
        if packet is None or packet.release != state.t:
            self._fail(
                TraceMismatch,
                f"no arrival is due at t={state.t}; trace has {self._describe(event)}",
            )
        self._compare(event, ArrivalEvent(state.t, packet))
        self._arrived += 1
        outcome = state.apply_arrival(packet.id, packet.deadline, self._weights[packet.id])
        in_comparison = packet.id in self._slot_of
        w_j = self._weights[packet.id].value
        dpsi = ZERO
        detail_bits: list[str] = []

        if not outcome.admitted:
            case = "A.1"
            if in_comparison:
                slot = self._slot_of[packet.id]
                if slot in self._timetable:
                    self._fail(InvariantViolation, f"slot {slot} already owed")
                self._timetable[slot] = ShadowEntry(w_j)
                detail_bits.append(f"shadow@{slot}")
        else:
            u_id = outcome.evicted_id
            if u_id is not None:
                detail_bits.append(f"evicted={u_id}")
                u = state.packets[u_id]
            claimed = self._real_entries()
            if u_id is not None and u_id in claimed:
                u_slot = claimed[u_id]
                w_u = u.weight.value
                self._timetable[u_slot] = ShadowEntry(w_u)
                f_id, f_val = self._restore_backup(
                    state, _plan_before(state, packet.id, u), claimed, u.deadline, "A.2(i)"
                )
                self._require_frac(f_val <= w_u, "A.2(i)", "cover outweighs evictee")
                dpsi += PHI_INV * (w_u - f_val)
                detail_bits.append(f"unclaimed via {_cover(f_id)}")
            if in_comparison:
                case = "A.2.a"
                slot = self._slot_of[packet.id]
                if slot in self._timetable:
                    self._fail(InvariantViolation, f"slot {slot} already owed")
                self._timetable[slot] = RealEntry(packet.id)
                if u_id is not None:
                    self._furloughed.add(u_id)
            else:
                case = "A.2.b"
                if u_id is None:
                    dpsi += PHI_INV * w_j
                else:
                    lam, xi_b = self._cover_range(
                        state, _plan_before(state, packet.id, u), self._real_entries(),
                        packet.deadline,
                    )
                    if u.deadline <= xi_b:
                        dpsi += PHI_INV * (w_j - u.weight.value)
                        detail_bits.append("swap")
                    else:
                        f_id, f_val = self._earliest_furlough(
                            state, lam, xi_b, "A.2.b"
                        )
                        if f_id is None:
                            self._fail(
                                InvariantViolation,
                                "furlough swap fell back to a virtual cover",
                                case="A.2.b",
                            )
                        self._furloughed.add(u_id)
                        self._require_frac(
                            f_val <= u.weight.value <= w_j,
                            "A.2.b",
                            "furlough swap out of weight order",
                        )
                        dpsi += PHI_INV * (w_j - f_val)
                        detail_bits.append(f"furloughed {u_id}, released {f_id}")

        self._require_sign(dpsi, case, "arrival potential delta")
        self._potential += dpsi
        return self._report(
            time=packet.release,
            kind="arrival",
            case=case,
            detail=" ".join(detail_bits),
            dpsi_window=dpsi,
            margin=dpsi,
        )

    # ------------------------------------------------------------------
    # the comparison schedule's turn at the current slot

    def _adversary_substep(
        self,
        pre: PlanState,
        *,
        p_weight: int | None,
        sub_weight: int | None,
    ) -> AdversaryReport:
        """Consume the timetable entry at the current slot, if any.

        `p_weight` and `sub_weight` are the scheduled packet's weight
        and its substitute's weight (scaled), used to bound this
        substep's cost against the scheduled packet; both None at an
        idle slot, where only ``pre.t`` is read.
        """
        t = pre.t
        entry = self._timetable.pop(t, None)
        idle = p_weight is None
        if entry is None:
            report = AdversaryReport("ADV.0", 0, ZERO)
        elif isinstance(entry, ShadowEntry):
            limit = 0 if idle else pre.minwt(t).value
            if entry.weight > limit:
                self._fail(
                    InvariantViolation,
                    f"placeholder popped at slot {t} outweighs the plan threshold",
                    case="ADV.2",
                )
            report = AdversaryReport("ADV.2", entry.weight, ZERO)
        else:
            if idle:
                self._fail(
                    InvariantViolation,
                    f"live timetable packet {entry.packet_id} at an idle slot",
                    case="ADV.1",
                )
            pid = entry.packet_id
            pkt = pre.packets.get(pid)
            if pkt is None or not pkt.in_plan:
                self._fail(
                    InvariantViolation,
                    f"timetable packet {pid} is not a plan member",
                    case="ADV.1",
                )
            claimed = self._real_entries()
            claimed[pid] = t
            f_id, f_val = self._restore_backup(
                pre, pre.iter_members(), claimed, pkt.deadline, "ADV.1"
            )
            w_g = pkt.weight.value
            self._require_frac(f_val <= w_g, "ADV.1", "cover outweighs the entry")
            report = AdversaryReport("ADV.1", w_g, PHI_INV * (w_g - f_val))
        if not idle:
            bound = (
                report.dpsi
                - report.scheduled_weight
                + PHI_INV2 * p_weight
                + PHI_INV * sub_weight
            )
            self._require_sign(bound, report.case, "per-slot cost bound")
        self._advgain_total += report.scheduled_weight
        return report

    # ------------------------------------------------------------------
    # scheduling events

    def _mirror_step(
        self, event: ScheduleEvent, kinds: tuple[str, ...]
    ) -> tuple[PlanState, PendingPacket, ScheduleEvent]:
        """Replay a transmission of one of kinds on the mirror; returns the
        state before it, the packet sent and the mirror's (= recorded) event.

        The state before is a snapshot.  The engine replaces every packet
        an event changes rather than editing it, so the snapshot stays
        intact across an ordinary step and a leap alike."""
        self._begin_turn(event)
        state = self._state
        if event.kind not in kinds:
            self._fail(TraceMismatch, f"{self._describe(event)} is not {' or '.join(kinds)}")
        if not state.packets:
            self._fail(TraceMismatch, f"trace has {self._describe(event)} at an idle slot")
        pre = state.snapshot()
        scheduled, mirror = planm_step(state)
        self._compare(event, mirror)
        return pre, scheduled, mirror

    def on_ordinary_step(self, event: ScheduleEvent) -> EventReport:
        pre, scheduled, _ = self._mirror_step(event, ("ordinary",))
        t, p_id = event.t, event.p_id
        w_p = scheduled.weight.value
        w_ell = pre.minwt(t).value
        adv = self._adversary_substep(
            pre, p_weight=w_p, sub_weight=pre.substitute(p_id).weight.value
        )
        beta = pre.nextts(t)
        claimed = self._real_entries()
        anchors = {
            pid: slot
            for pid, slot in claimed.items()
            if pre.packets[pid].deadline <= beta
        }
        credit = 0
        detail_bits = [f"adv={adv.case}"]
        if not anchors:
            case = "O.1"
            dpsi_alg = -(PHI_INV * w_p)
        else:
            case = "O.2"
            if p_id in anchors:
                g_id = p_id
            else:
                g_id = max(anchors, key=lambda pid: (pre.packets[pid].deadline, pid))
            g_slot = anchors[g_id]
            w_g = pre.packets[g_id].weight.value
            f_id, f_val = self._earliest_furlough(pre, t - 1, self._state.sentinel, case)
            self._timetable[g_slot] = ShadowEntry(w_ell)
            credit = w_g - w_ell
            self._require_frac(f_val <= w_ell, case, "cover outweighs the plan minimum")
            self._require_frac(w_g <= w_p, case, "replaced entry outweighs the transmission")
            dpsi_alg = PHI_INV * (w_g - f_val - w_p)
            detail_bits.append(f"g={g_id}@{g_slot} f={_cover(f_id)}")
        self._advgain_total += credit
        advgain = adv.scheduled_weight + credit
        dpsi_total = adv.dpsi + dpsi_alg
        self._potential += dpsi_total
        margin = PHI * w_p + dpsi_total - advgain
        self._require_sign(margin, case, "scheduling inequality")
        self._gain0 += scheduled.original_weight
        self._gain_current += w_p
        return self._report(
            time=t,
            kind="ordinary",
            case=case,
            detail=" ".join(detail_bits),
            advgain=advgain,
            dpsi_adv=adv.dpsi,
            dpsi_window=dpsi_alg,
            margin=margin,
        )

    def on_idle(self, event: ScheduleEvent) -> list[EventReport]:
        """Replay an idle stretch, which must run from t to the next
        release, or past the horizon.

        Each slot in it that the timetable owes gets the comparison
        schedule's turn and a report of its own (ADV.2).  Each run of
        entry-free slots between them gets one ADV.0 report carrying its
        slot count, and one round of post-event checks.  That round
        stands for one per slot: inside the run nothing the checks read
        changes except t (no packet is pending, so the furloughs, the
        plan and the potential stay put) and the timetable holds no slot
        there, so a per-slot repeat of a passing round cannot fail.
        """
        self._begin_turn(event)
        state = self._state
        if state.packets:
            self._fail(TraceMismatch, f"trace has {self._describe(event)} with packets pending")
        due = self._next_packet()
        stop = self.instance.horizon + 1 if due is None else due.release
        self._compare(event, ScheduleEvent(state.t, None, "idle", None, {}, stop - state.t))
        reports = []
        for slot in sorted(s for s in self._timetable if s < stop) + [stop]:
            if slot > state.t:
                reports.append(self._idle_report(slot - state.t, "ADV.0", 0))
            if slot < stop:
                adv = self._adversary_substep(state, p_weight=None, sub_weight=None)
                reports.append(self._idle_report(1, adv.case, adv.scheduled_weight))
        return reports

    def _idle_report(self, slots: int, case: str, advgain: int) -> EventReport:
        time = self._state.t
        self._state.advance_idle(slots)
        return self._report(time=time, kind="idle", case=case, advgain=advgain, slots=slots)

    # ------------------------------------------------------------------
    # leap events

    def on_leap_step(self, event: ScheduleEvent) -> EventReport:
        """Replay a later-segment transmission, a simple or iterated leap.

        `_leap_chain` checks the engine's chain record, `_leap_first_segment`
        charges L.InSeg, and a window the timetable does not reach is
        charged at once (L.S.1, L.I.1).  Otherwise (L.S.2, L.I.2)
        `_leap_partition` cuts the chain into groups that `_leap_groups`
        charges via `_terminal_group` (T), `_middle_group` (M.i, M.ii)
        and `_initial_group` (I).  The working plan must end as the mirror's.
        """
        pre, scheduled, _ = self._mirror_step(event, ("simple-leap", "iterated-leap"))
        t, rec = event.t, event.leap
        stops = self._leap_chain(pre, scheduled, event)
        k = len(rec.chain)
        w_p = scheduled.weight.value
        rho_old = rec.rho_old_weight.value
        adv = self._adversary_substep(pre, p_weight=w_p, sub_weight=rho_old)
        dpsi_initseg, initseg_detail = self._leap_first_segment(pre, rec.ell_id)
        detail_bits = [f"adv={adv.case}", initseg_detail]

        # the plan after the first-segment stage, evolved group by group
        # into the plan after the leap
        working = {p.id: p for p in pre.iter_members() if p.id != rec.ell_id}
        claimed = self._real_entries()
        window_live = any(
            pid in working and rec.delta < working[pid].deadline <= rec.gamma for pid in claimed
        )
        short = not window_live and rec.rho_id not in self._furloughed
        case = ("L.S." if k == 0 else "L.I.") + ("1" if short else "2")
        window = _Window(pre, rec, stops, working, case)
        advgain_window = 0
        if short:
            dpsi_window = PHI_INV * (-w_p + rec.rho_new_weight.value + stops[k].rise)
            self._advance_working(window, 0, k)
        else:
            groups, anchors = self._leap_partition(window, claimed)
            dpsi_window, advgain_window, fragments = self._leap_groups(window, groups)
            detail_bits += fragments + [f"anchors={list(anchors)}"]
            self._advgain_total += advgain_window

        dweights_event = stops[-1].rise
        key2 = dpsi_window - PHI * dweights_event - advgain_window + w_p - rho_old
        self._require_sign(key2, case, "window inequality")
        fail = partial(self._fail, InvariantViolation, case=case)
        packets = self._state.packets
        if working.keys() != self._state.plan_ids():
            fail("working plan membership diverged from the mirror")
        for pid, entry in working.items():
            p = packets[pid]
            if (entry.deadline, entry.weight.value) != (p.deadline, p.weight.value):
                fail(f"working plan packet {pid} diverged from the mirror")
        dpsi_total = adv.dpsi + dpsi_initseg + dpsi_window
        self._potential += dpsi_total
        advgain = adv.scheduled_weight + advgain_window
        margin = PHI * w_p - PHI * dweights_event + dpsi_total - advgain
        self._require_sign(margin, case, "scheduling inequality")
        self._dweights_total += dweights_event
        self._gain0 += scheduled.original_weight
        self._gain_current += w_p
        return self._report(
            time=t, kind=event.kind, case=case, detail=" ".join(detail_bits), advgain=advgain,
            dweights=dweights_event, dpsi_adv=adv.dpsi, dpsi_initseg=dpsi_initseg,
            dpsi_window=dpsi_window, margin=margin,
        )

    def _leap_chain(
        self, pre: PlanState, scheduled: PendingPacket, event: ScheduleEvent
    ) -> list[_Stop]:
        """Check the engine's record of a leap's chain; returns stops 0..k+1.

        The substitute's recorded weight is the plan's, a simple leap
        promotes it to the threshold at p's deadline, no weight falls, a
        bump lifts a packet exactly to the floor of the stop before it,
        and the weight ledger sums the chain's rise over chain packets.
        """
        rec = event.leap
        fail = partial(self._fail, InvariantViolation, case="L.window")
        if pre.substitute(rec.p_id).weight.value != rec.rho_old_weight.value:
            fail("recorded substitute weight disagrees with the plan")
        floor = pre.minwt(scheduled.deadline).value
        rho_new = rec.rho_new_weight.value
        if not rec.chain and rho_new != floor:
            fail("promoted weight disagrees with the plan threshold")
        stops = [_Stop(rec.p_id, scheduled.weight.value, rec.tau0, floor, None, False, 0)]
        for link in rec.chain:
            old = link.old_weight.value
            step = link.new_weight.value - old
            self._require_frac(step >= 0, "L.window", "chain weight decreased")
            bumped = link.new_weight != link.old_weight
            if bumped and step != max(stops[-1].floor - old, 0):
                fail(f"chain bump for {link.h_id} is not its floor")
            h = pre.packets[link.h_id]
            new = replace(h, deadline=link.new_deadline, weight=link.new_weight)
            rise = stops[-1].rise + step
            stops.append(_Stop(link.h_id, old, link.tau, link.mu.value, new, bumped, rise))
        old = rec.rho_old_weight.value
        self._require_frac(rho_new >= old, "L.window", "promotion lowered the weight")
        # a virtual rho is pending only from the leap on
        rho = pre.packets.get(rec.rho_id) or self._state.packets[rec.rho_id]
        new = replace(rho, deadline=rec.rho_deadline, weight=rec.rho_new_weight)
        rise = stops[-1].rise + rho_new - old
        stops.append(_Stop(rec.rho_id, old, rec.gamma, rho_new, new, True, rise))
        recorded = 0
        for pid, tw in event.dweights.items():
            stop = next((s for s in stops[1:] if s.id == pid), None)
            if stop is None:
                fail(f"weight ledger names packet {pid} outside the chain")
            recorded += tw.value - stop.old_weight
        if recorded != stops[-1].rise:
            fail("weight ledger disagrees with the recorded changes")
        return stops

    def _leap_first_segment(self, pre: PlanState, ell_id: int) -> tuple[GoldenNumber, str]:
        """Charge the first segment's loss of its lightest packet ell;
        returns the potential delta and the detail fragment.

        A slot claiming ell keeps ell's weight as a placeholder and the
        furlough backing ell is released (L.InSeg(i)).  Then ell leaves
        the backup pool (L.InSeg.1), or is furloughed in place of the
        earliest furlough due in [t, d(ell)), which leaves (L.InSeg.2).
        """
        ell = pre.packets[ell_id]
        w_ell = ell.weight.value
        dpsi = ZERO
        detail_bits = []
        claimed = self._real_entries()
        if ell_id in claimed:
            self._timetable[claimed[ell_id]] = ShadowEntry(w_ell)
            f_id, f_val = self._restore_backup(
                pre, pre.iter_members(), claimed, ell.deadline, "L.InSeg(i)"
            )
            self._require_frac(f_val <= w_ell, "L.InSeg(i)", "cover outweighs evictee")
            dpsi += PHI_INV * (w_ell - f_val)
            detail_bits.append(f"ell-unclaimed via {_cover(f_id)}")
        f1_id = self._first_furlough(pre.packets, pre.t - 1, ell.deadline - 1)
        if f1_id is None:
            case = "L.InSeg.1"
            dpsi += -(PHI_INV * w_ell)
        else:
            case = "L.InSeg.2"
            self._furloughed.remove(f1_id)
            self._furloughed.add(ell_id)
            dpsi += -(PHI_INV * pre.packets[f1_id].weight.value)
        detail_bits.append(case)
        self._require_sign(dpsi + PHI_INV * w_ell, case, "first-segment delta bound")
        return dpsi, " ".join(detail_bits)

    def _leap_partition(
        self, window: _Window, claimed: dict[int, int]
    ) -> tuple[list[_Group], tuple[int, ...]]:
        """Cut a long leap's chain stops 0..k into groups in the order they
        are charged; returns them and the anchors, the claimed stops.

        g* is the claimed plan packet with the latest working deadline up
        to gamma.  An anchor whose (prevts(tau), tau] holds d(g*) must be
        the last: it is the window target g and heads the terminal group.
        Else g is g*, and the terminal group starts at the first stop
        whose tau reaches d(g*), past the last anchor.  Each other anchor
        heads a middle group; the stops below them form the initial group.

        The groups partition 0..k by construction: the terminal group ends
        at k, each later one just below the start of the one before, and
        the initial one starts at 0; the middle heads are distinct anchors
        below the terminal start, so no group is empty.
        """
        pre, rec, stops, working, case = window
        k = len(stops) - 2
        fail = partial(self._fail, GroupPartitionError, case=case)
        targets = [pid for pid in claimed if pid in working and working[pid].deadline <= rec.gamma]
        if not targets:
            fail("no claimed plan packet can absorb the replacement window")
        g_star = max(targets, key=lambda pid: (working[pid].deadline, pid))
        d_gstar = working[g_star].deadline
        anchors = tuple(i for i in range(k + 1) if stops[i].id in claimed)
        g_index = next(
            (i for i in anchors if pre.prevts(stops[i].tau) < d_gstar <= stops[i].tau), None
        )
        if g_index is not None:
            if g_index != anchors[-1]:
                fail(f"window target lands on chain index {g_index}, expected the last anchor")
            terminal = _Group("terminal", g_index, k, stops[g_index].id)
            heads = anchors[:-1]
        else:
            candidates = [i for i in range(k + 1) if stops[i].tau >= d_gstar]
            if not candidates:
                fail("no chain stop reaches the window target's deadline")
            start = min(candidates)
            if anchors and start <= anchors[-1]:
                fail("terminal group would swallow an unprocessed anchor")
            terminal = _Group("terminal", start, k, g_star)
            heads = anchors
        groups = [terminal]
        for head in reversed(heads):
            groups.append(_Group("middle", head, groups[-1].first - 1, None))
        if groups[-1].first > 0:
            groups.append(_Group("initial", 0, groups[-1].first - 1, None))
        return groups, anchors

    def _leap_groups(
        self, window: _Window, groups: list[_Group]
    ) -> tuple[GoldenNumber, int, list[str]]:
        """Charge a long leap's window group by group; returns the
        window's potential delta, its credit and the groups' fragments.

        No chain stop a..b+1 (up to k) but the head may hold a slot, and
        the handler's dpsi_g and credit must satisfy
        dpsi_g - phi*(rise of a+1..b+1) - credit + w_a - w_{b+1} >= 0.
        """
        stops, k = window.stops, len(window.stops) - 2
        handlers = {"terminal": self._terminal_group, "middle": self._middle_group,
                    "initial": self._initial_group}
        dpsi_window = ZERO
        advgain = 0
        fragments = []
        for group in groups:
            a, b = group.first, group.last
            claimed = self._real_entries()
            for stop in stops[a + (stops[a].id in claimed) : min(b + 1, k) + 1]:
                if stop.id in claimed:
                    self._fail(
                        GroupPartitionError,
                        f"chain packet {stop.id} in group [{a}, {b}] still holds a timetable slot",
                        case=window.case,
                    )
            dpsi_g, credit, fragment = handlers[group.kind](window, group, claimed)
            head, tail = stops[a], stops[b + 1]
            slack = dpsi_g - PHI * (tail.rise - head.rise) - credit
            slack += head.old_weight - tail.old_weight
            self._require_sign(slack, window.case, f"group [{a}, {b}] inequality")
            dpsi_window += dpsi_g
            advgain += credit
            fragments.append(fragment)
            self._advance_working(window, a, b)
        return dpsi_window, advgain, fragments

    def _terminal_group(self, window: _Window, group: _Group, claimed: dict[int, int]) -> _Charge:
        """T: the window target g's slot takes a placeholder at the plan
        threshold at g's deadline, credited against g's weight.  The
        substitute, if furloughed, or else the earliest furlough due
        after delta is released to cover g."""
        pre, rec, stops, working, case = window
        a, k, g_id = group.first, group.last, group.target
        if rec.rho_id in self._furloughed:
            f_id, f_val = rec.rho_id, stops[-1].old_weight
            self._furloughed.remove(rec.rho_id)
        else:
            f_id, f_val = self._earliest_furlough(pre, rec.delta, self._state.sentinel, case)
        g_slot = claimed.get(g_id)
        if g_slot is None:
            self._fail(
                InvariantViolation, f"window target {g_id} lost its timetable slot", case=case
            )
        w_g = working[g_id].weight.value
        shadow = pre.minwt(working[g_id].deadline).value
        self._timetable[g_slot] = ShadowEntry(shadow)
        w_a = stops[a].old_weight
        self._require_frac(w_g <= w_a, case, "window target outweighs group head")
        self._require_frac(f_val <= stops[-1].old_weight, case, "cover outweighs the substitute")
        self._require_frac(shadow >= stops[a].floor, case, "shadow below the group floor")
        credit = w_g - shadow
        self._require_frac(credit >= 0, case, "negative replacement credit")
        rise = stops[k].rise - stops[a].rise
        dpsi = PHI_INV * (w_g - f_val - w_a + rec.rho_new_weight.value + rise)
        return dpsi, credit, f"T[{a},{k}] g={g_id} f={_cover(f_id)}"

    def _middle_group(self, window: _Window, group: _Group, claimed: dict[int, int]) -> _Charge:
        """M: the group's head, an anchor, gives up its slot.  If a stop
        after it up to b+1 was bumped (M.i), the slot takes a placeholder
        at the head's floor and the furlough backing the head is
        released; otherwise (M.ii) the next stop takes the slot over."""
        pre, _, stops, working, case = window
        fail = partial(self._fail, case=case)
        a, b = group.first, group.last
        head, tail = stops[a], stops[b + 1]
        slot = claimed.get(head.id)
        if slot is None:
            fail(GroupPartitionError, f"middle group head {head.id} holds no timetable slot")
        if any(stop.bumped for stop in stops[a + 1 : b + 2]):
            self._timetable[slot] = ShadowEntry(head.floor)
            f_id, f_val = self._restore_backup(
                pre, window.plan(), claimed, working[head.id].deadline, case + ".M.i"
            )
            self._require_frac(f_val <= tail.old_weight, case, "cover outweighs the group tail")
            self._require_frac(head.floor <= head.old_weight, case, "floor outweighs group head")
            dpsi = PHI_INV * (tail.rise - head.rise + tail.old_weight - f_val)
            return dpsi, head.old_weight - head.floor, f"M.i[{a},{b}] f={_cover(f_id)}"
        successor = stops[a + 1]
        if successor.id in claimed:
            fail(InvariantViolation, f"chain packet {successor.id} already holds a slot")
        if successor.new.deadline < slot:
            fail(InvariantViolation, f"replacement {successor.id} cannot reach slot {slot}")
        self._timetable[slot] = RealEntry(successor.id)
        credit = head.old_weight - successor.old_weight
        self._require_frac(credit >= 0, case, "negative replacement credit")
        dpsi = PHI_INV * (tail.old_weight - successor.old_weight)
        return dpsi, credit, f"M.ii[{a},{b}] -> {successor.id}"

    def _initial_group(self, window: _Window, group: _Group, claimed: dict[int, int]) -> _Charge:
        """I: the stops from p below the lowest anchor hold no slot, as
        `_leap_groups` checks; p's weight leaves the backup pool and stop
        b+1's joins it."""
        a, b = group.first, group.last
        stops = window.stops
        tail = stops[b + 1]
        dpsi = PHI_INV * (tail.rise - stops[a].rise - stops[0].old_weight + tail.old_weight)
        return dpsi, 0, f"I[{a},{b}]"

    def _advance_working(self, window: _Window, a: int, b: int) -> None:
        """Move a leap's working plan past chain stops a..b: stop a leaves
        it, stops a+1..b+1 take their new deadlines and weights, and the
        backup pool over it must still fit from t+1 on."""
        working = window.working
        del working[window.stops[a].id]
        working.update((stop.id, stop.new) for stop in window.stops[a + 1 : b + 2])
        pre = window.pre
        pool = self._backup_pool(pre.packets, window.plan(), self._real_entries())
        slack, slot = SlackProfile(pool, pre.t + 1, pre.sentinel).floor
        if slack < 0:
            self._fail(
                InvariantViolation,
                f"backup pool overfills slot {slot} by {-slack}",
                case=window.case,
            )

    # ------------------------------------------------------------------

    def finalize(self) -> VerificationResult:
        if self._finalized:
            raise VerifierError("verifier already finalized")
        self._finalized = True
        if self._next_packet() is not None or self._state.t <= self.instance.horizon:
            self._fail(
                TraceMismatch,
                f"trace ends at t={self._state.t} with "
                f"{len(self.instance.packets) - self._arrived} arrivals left; "
                f"it must run past the horizon {self.instance.horizon}",
            )
        if self._timetable:
            self._fail(
                InvariantViolation,
                f"timetable still owes slots {sorted(self._timetable)}",
            )
        if self._furloughed:
            self._fail(
                InvariantViolation,
                f"furloughs {sorted(self._furloughed)} never released",
            )
        if golden_sign(self._potential) != 0:
            self._fail(
                InvariantViolation,
                "potential did not return to zero",
                lhs=self._potential,
                rhs=ZERO,
            )
        if self._advgain_total != self._comparison_weight:
            self._fail(
                InvariantViolation,
                f"credited total {self._scale.rational(self._advgain_total)} "
                f"!= comparison weight {self.comparison.weight0}",
            )
        if self._gain_current - self._dweights_total > self._gain0:
            self._fail(
                InvariantViolation,
                "transmitted weight exceeds original gain after discounting bumps",
            )
        bound_margin = PHI * self._gain0 - self._comparison_weight
        if golden_sign(bound_margin) < 0:
            self._fail(
                InequalityViolation,
                "competitive guarantee fails",
                lhs=PHI * self._gain0,
                rhs=GoldenNumber(self._comparison_weight, 0),
            )
        rational = self._scale.rational
        summary = SummaryReport(
            events=self._event_index,
            advgain_total=rational(self._advgain_total),
            comparison_weight=rational(self._comparison_weight),
            gain0=rational(self._gain0),
            gain_current=rational(self._gain_current),
            weight_increase_total=rational(self._dweights_total),
            psi_final=self._scale.golden(self._potential),
            bound_margin=self._scale.golden(bound_margin),
        )
        return VerificationResult(
            algorithm="planm",
            reports=tuple(self._reports),
            summary=summary,
            scale=self._scale,
        )


def _plan_before(state: PlanState, pid: int, evictee: PendingPacket) -> list[PendingPacket]:
    """The plan before the arrival of pid that evicted evictee, in
    deadline order: the live members without pid, with evictee back."""
    members = [p for p in state.iter_members() if p.id != pid]
    insort(members, evictee, key=_deadline)
    return members


def _cover(fid: int | None) -> str:
    """A released furlough's id, or virtual for the zero-weight stand-in."""
    return "virtual" if fid is None else str(fid)


def verify_trace(
    instance: Instance, trace: RunTrace, comparison: Schedule
) -> VerificationResult:
    """Replay a recorded run and audit it against a comparison schedule.

    The trace's weights are in the units of ``instance.scale``, as
    ``trace_io.parse_trace(text, scale=instance.scale)`` reads them.
    Raises a `VerifierError` subclass on the first divergence between
    the trace and the mirrored recomputation, on any invariant break,
    or on any failed inequality.
    """
    if trace.algorithm != "planm":
        raise TraceMismatch(f"cannot audit algorithm {trace.algorithm!r}")
    verifier = Verifier(instance, comparison)
    for ev in trace.events:
        if isinstance(ev, ArrivalEvent):
            verifier.on_arrival(ev)
        elif ev.kind == "idle":
            verifier.on_idle(ev)
        elif ev.kind == "ordinary":
            verifier.on_ordinary_step(ev)
        else:
            verifier.on_leap_step(ev)
    result = verifier.finalize()
    if trace.gain0 != result.summary.gain0:
        raise TraceMismatch(
            f"recorded gain {trace.gain0} != accumulated {result.summary.gain0}"
        )
    return result
