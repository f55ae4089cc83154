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
exactly via `golden_sign`.  Structural invariants (timetable entries
stay schedulable, the backup pool stays feasible, the potential matches
a from-scratch recomputation, and a counting identity relating plan and
backup slack) are re-checked after every event.  Any failure raises a
`VerifierError` subclass carrying enough context to replay the event.

The module never trusts the trace: the mirror recomputes every decision
and the replay driver `verify_trace` rejects the first divergence.

All accounting runs on integers: weights, gains and the coefficients of
every golden number are in units of 1/D, D the instance's common weight
denominator.  The per-event reports keep those units, and
`VerificationResult.scale` turns them into the rationals they stand for;
the summary totals, the public `Verifier.gain0`/`potential` and error
messages are converted to rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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
from .plan import PendingPacket, PlanState
from .schedulers import (
    ArrivalEvent,
    LeapRecord,
    RunTrace,
    ScheduleEvent,
    planm_step,
)
from .trace_io import format_event, format_leap

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
    "GroupDecomposition",
    "Verifier",
    "verify_trace",
]


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
    created_at: int


TimetableEntry = RealEntry | ShadowEntry


@dataclass(frozen=True, slots=True)
class AdversaryReport:
    """Outcome of consuming the timetable entry at the current slot, in
    scaled units."""

    case: str
    scheduled_weight: int
    dpsi: GoldenNumber
    removed_furlough: int | None


@dataclass(frozen=True, slots=True)
class GroupDecomposition:
    """How a long-leap window splits into per-group substeps.

    ``groups`` holds (first index, last index, kind) triples over the
    replacement chain, kind one of "terminal", "middle", "initial";
    ``anchors`` lists the chain indices whose packet had a live
    timetable entry when the window processing began.
    """

    anchors: tuple[int, ...]
    groups: tuple[tuple[int, int, str], ...]
    g_id: int
    g_index: int | None


@dataclass(frozen=True, slots=True)
class EventReport:
    """One ledger row; weights and golden numbers in scaled units."""

    index: int
    time: int
    kind: str
    case: str
    detail: str
    advgain: int
    dweights: int
    dpsi_adv: GoldenNumber
    dpsi_initseg: GoldenNumber
    dpsi_window: GoldenNumber
    dpsi_total: GoldenNumber
    advgain_window: int
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


def _pslack_floor(deadlines: Iterable[int], t: int, horizon_sentinel: int) -> tuple[int, int]:
    """Minimum packing slack over [t, sentinel] and its first slot.

    Counts members by deadline; a member with deadline below t still
    counts against every slot, so expired members surface as negative
    slack at slot t.
    """
    counts = [0] * (horizon_sentinel - t + 2)
    for d in deadlines:
        idx = min(max(d - t, 0), len(counts) - 1)
        counts[idx] += 1
    best = (0, t - 1)
    acc = 0
    for off, c in enumerate(counts[:-1]):
        acc += c
        slack = (off + 1) - acc
        if slack < best[0]:
            best = (slack, t + off)
    return best


def _tight_slots(deadlines: Iterable[int], t: int, horizon_sentinel: int) -> list[int]:
    """Slots in [t, sentinel) with zero slack, plus the sentinel itself."""
    counts = [0] * (horizon_sentinel - t + 1)
    for d in deadlines:
        idx = min(max(d - t, 0), len(counts) - 1)
        counts[idx] += 1
    out = []
    acc = 0
    for off in range(horizon_sentinel - t):
        acc += counts[off]
        if (off + 1) - acc == 0:
            out.append(t + off)
    out.append(horizon_sentinel)
    return out


def _next_tight(deadlines: Iterable[int], t: int, horizon_sentinel: int, tau: int) -> int:
    for slot in _tight_slots(deadlines, t, horizon_sentinel):
        if slot >= tau:
            return slot
    return horizon_sentinel


def _prev_tight(deadlines: Iterable[int], t: int, horizon_sentinel: int, tau: int) -> int:
    prev = t - 1
    for slot in _tight_slots(deadlines, t, horizon_sentinel):
        if slot >= tau:
            break
        prev = slot
    return prev


class Verifier:
    """Replays one run of the plan scheduler against a comparison schedule.

    Feed it the arrival stream and the scheduling events in recorded
    order via `on_arrival`, `on_ordinary_step`, `on_leap_step` and
    `on_idle`, then call `finalize`.  Each op validates the event
    against a mirrored recomputation, applies the case rules, and
    re-checks the invariants; `finalize` closes the books and returns
    the full `VerificationResult`.
    """

    def __init__(self, instance: Instance, comparison: Schedule) -> None:
        try:
            comparison.check_feasible(instance)
        except VerifierError:
            raise
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
        self.mirror_events: list[ScheduleEvent] = []
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
    ) -> None:
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

    def _backup_deadlines(
        self,
        plan: dict[int, int],
        claimed: set[int],
        reference: PlanState,
    ) -> list[int]:
        """Deadlines of the backup pool: furloughs plus unclaimed plan."""
        out = []
        for fid in self._furloughed:
            pkt = reference.packets.get(fid)
            if pkt is None:
                self._fail(InvariantViolation, f"furloughed packet {fid} not pending")
            out.append(pkt.deadline)
        for pid, deadline in plan.items():
            if pid not in claimed:
                out.append(deadline)
        return out

    def _earliest_furlough(
        self,
        reference: PlanState,
        lo: int,
        hi: int,
        case: str,
    ) -> tuple[int | None, int]:
        """Earliest-deadline furlough with deadline in (lo, hi], ties by id.

        Falls back to consuming a zero-weight stand-in when the range
        runs to the horizon sentinel and holds no live furlough; a bare
        range short of the sentinel is a broken invariant.
        """
        best: tuple[int, int] | None = None
        for fid in self._furloughed:
            pkt = reference.packets.get(fid)
            if pkt is None:
                self._fail(InvariantViolation, f"furloughed packet {fid} not pending")
            if lo < pkt.deadline <= hi:
                key = (pkt.deadline, fid)
                if best is None or key < best:
                    best = key
        if best is not None:
            fid = best[1]
            self._furloughed.remove(fid)
            return fid, reference.packets[fid].weight.value
        if hi >= self._state.sentinel:
            return None, 0
        self._fail(
            InvariantViolation,
            f"no furlough with deadline in ({lo}, {hi}]",
            case=case,
        )
        raise AssertionError("unreachable")

    def _restore_backup(
        self,
        reference: PlanState,
        plan: dict[int, int],
        claimed: set[int],
        g_deadline: int,
        case: str,
    ) -> tuple[int | None, int]:
        """Release the furlough that covered a claimed plan packet.

        The packet g leaves the plan's obligations; the furlough that
        backed it sits between the last tight slot before g's deadline
        and the backup pool's next tight slot at or after it.
        """
        t = reference.t
        sentinel = self._state.sentinel
        eta = _prev_tight(plan.values(), t, sentinel, g_deadline)
        backup = self._backup_deadlines(plan, claimed, reference)
        eta_prime = _next_tight(backup, t, sentinel, g_deadline)
        return self._earliest_furlough(reference, eta, eta_prime, case)

    # ------------------------------------------------------------------
    # invariant scans

    def _scan_timetable(self) -> None:
        state = self._state
        seen: set[int] = set()
        for slot, entry in sorted(self._timetable.items()):
            if slot < state.t or slot > self.instance.horizon:
                self._fail(
                    InvariantViolation,
                    f"timetable entry at unusable slot {slot}",
                )
            if isinstance(entry, RealEntry):
                pid = entry.packet_id
                if pid in seen:
                    self._fail(InvariantViolation, f"packet {pid} listed twice")
                seen.add(pid)
                pkt = state.packets.get(pid)
                if pkt is None or not pkt.in_plan:
                    self._fail(
                        InvariantViolation,
                        f"timetable packet {pid} is not a plan member",
                    )
                if pkt.deadline < slot:
                    self._fail(
                        InvariantViolation,
                        f"packet {pid} can no longer reach slot {slot}",
                    )
            else:
                limit = state.minwt(slot).value
                if entry.weight > limit:
                    self._fail(
                        InvariantViolation,
                        f"placeholder at slot {slot} outweighs the plan threshold",
                        lhs=GoldenNumber(entry.weight, 0),
                        rhs=GoldenNumber(limit, 0),
                    )

    def _scan_backup(self) -> None:
        state = self._state
        claimed = set(self._real_entries())
        for fid in self._furloughed:
            pkt = state.packets.get(fid)
            if pkt is None:
                self._fail(InvariantViolation, f"furloughed packet {fid} not pending")
            if pkt.in_plan:
                self._fail(InvariantViolation, f"furloughed packet {fid} is in the plan")
        plan = {pid: state.packets[pid].deadline for pid in state.plan_ids()}
        for pid in claimed:
            if pid not in plan:
                self._fail(InvariantViolation, f"claimed packet {pid} left the plan")
        deadlines = self._backup_deadlines(plan, claimed, state)
        slack, slot = _pslack_floor(deadlines, state.t, state.sentinel)
        if slack < 0:
            self._fail(
                InvariantViolation,
                f"backup pool overfills slot {slot} by {-slack}",
            )

    def _potential_scratch(self) -> GoldenNumber:
        state = self._state
        claimed = set(self._real_entries())
        total = 0
        for fid in self._furloughed:
            total += state.packets[fid].weight.value
        for pid in state.plan_ids():
            if pid not in claimed:
                total += state.packets[pid].weight.value
        return PHI_INV * total

    def _check_potential(self) -> None:
        scratch = self._potential_scratch()
        if golden_sign(self._potential - scratch) != 0:
            self._fail(
                InvariantViolation,
                "running potential drifted from its definition",
                lhs=self._potential,
                rhs=scratch,
            )

    def _check_counting_identity(self) -> None:
        """Spot-check the plan/backup slack identity on random slot pairs."""
        state = self._state
        t, sentinel = state.t, state.sentinel
        if sentinel < t:
            return
        claimed = self._real_entries()
        plan = {pid: state.packets[pid].deadline for pid in state.plan_ids()}
        backup = self._backup_deadlines(plan, set(claimed), state)
        fur_deadlines = sorted(
            state.packets[fid].deadline for fid in self._furloughed
        )
        claimed_deadlines = sorted(plan[pid] for pid in claimed)

        def pslack_backup(tau: int) -> int:
            return (tau - t + 1) - sum(1 for d in backup if d <= tau)

        rng = random.Random(self._event_index)
        for _ in range(3):
            eta = rng.randint(t, sentinel)
            eta_prime = rng.randint(eta, sentinel)
            left = (
                state.pslack(eta)
                - pslack_backup(eta)
                + sum(1 for d in fur_deadlines if eta < d <= eta_prime)
            )
            right = (
                state.pslack(eta_prime)
                - pslack_backup(eta_prime)
                + sum(1 for d in claimed_deadlines if eta < d <= eta_prime)
            )
            if left != right:
                self._fail(
                    InvariantViolation,
                    f"slack identity fails on ({eta}, {eta_prime}]: {left} != {right}",
                )

    def _post_event_checks(self) -> None:
        self._scan_timetable()
        self._scan_backup()
        self._check_potential()
        self._check_counting_identity()

    # ------------------------------------------------------------------
    # reporting

    def _report(
        self,
        *,
        time: int,
        kind: str,
        case: str,
        detail: str,
        advgain: int,
        dweights: int,
        dpsi_adv: GoldenNumber,
        dpsi_initseg: GoldenNumber,
        dpsi_window: GoldenNumber,
        advgain_window: int,
        margin: GoldenNumber,
    ) -> EventReport:
        report = EventReport(
            index=self._event_index,
            time=time,
            kind=kind,
            case=case,
            detail=detail,
            advgain=advgain,
            dweights=dweights,
            dpsi_adv=dpsi_adv,
            dpsi_initseg=dpsi_initseg,
            dpsi_window=dpsi_window,
            dpsi_total=dpsi_adv + dpsi_initseg + dpsi_window,
            advgain_window=advgain_window,
            psi_after=self._potential,
            margin=margin,
        )
        self._reports.append(report)
        self._event_index += 1
        return report

    # ------------------------------------------------------------------
    # arrivals

    def on_arrival(self, packet: Packet) -> EventReport:
        if self._finalized:
            raise VerifierError("verifier already finalized")
        state = self._state
        if packet.release != state.t:
            self._fail(
                TraceMismatch,
                f"arrival of {packet.id} recorded at t={state.t}, released {packet.release}",
            )
        if packet.id not in self._weights:
            self._fail(TraceMismatch, f"arrival of unknown packet {packet.id}")
        pre = state.clone()
        outcome = state.apply_arrival(
            packet.id, packet.release, packet.deadline, self._weights[packet.id]
        )
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
                self._timetable[slot] = ShadowEntry(w_j, self._event_index)
                detail_bits.append(f"shadow@{slot}")
        else:
            u_id = outcome.evicted_id
            if u_id is not None:
                detail_bits.append(f"evicted={u_id}")
            claimed = self._real_entries()
            if u_id is not None and u_id in claimed:
                u_slot = claimed[u_id]
                w_u = pre.packets[u_id].weight.value
                self._timetable[u_slot] = ShadowEntry(w_u, self._event_index)
                plan = {
                    pid: pre.packets[pid].deadline for pid in pre.plan_ids()
                }
                f_id, f_val = self._restore_backup(
                    pre, plan, set(claimed), pre.packets[u_id].deadline, "A.2(i)"
                )
                self._require_frac(f_val <= w_u, "A.2(i)", "cover outweighs evictee")
                dpsi += PHI_INV * (w_u - f_val)
                detail_bits.append(f"unclaimed via {f_id if f_id is not None else 'virtual'}")
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
                    u = pre.packets[u_id]
                    claimed_now = set(self._real_entries())
                    plan_pre = {
                        pid: pre.packets[pid].deadline for pid in pre.plan_ids()
                    }
                    backup = self._backup_deadlines(plan_pre, claimed_now, pre)
                    xi_b = _next_tight(
                        backup, pre.t, self._state.sentinel, packet.deadline
                    )
                    lam = pre.prevts(packet.deadline)
                    if u.deadline <= xi_b:
                        dpsi += PHI_INV * (w_j - u.weight.value)
                        detail_bits.append("swap")
                    else:
                        f_id, f_val = self._earliest_furlough(
                            pre, lam, xi_b, "A.2.b"
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
        report = self._report(
            time=packet.release,
            kind="arrival",
            case=case,
            detail=" ".join(detail_bits),
            advgain=0,
            dweights=0,
            dpsi_adv=ZERO,
            dpsi_initseg=ZERO,
            dpsi_window=dpsi,
            advgain_window=0,
            margin=dpsi,
        )
        self._post_event_checks()
        return report

    # ------------------------------------------------------------------
    # the comparison schedule's turn at the current slot

    def on_adversary_substep(
        self,
        pre: PlanState,
        *,
        p_weight: int | None,
        sub_weight: int | None,
    ) -> AdversaryReport:
        """Consume the timetable entry at the current slot, if any.

        Driven internally by the scheduling ops; exposed for tests.
        `p_weight` and `sub_weight` are the scheduled packet's weight
        and its substitute's weight (scaled), used to bound this
        substep's cost against the scheduled packet; both None at an
        idle slot.
        """
        t = pre.t
        entry = self._timetable.pop(t, None)
        idle = p_weight is None
        if entry is None:
            report = AdversaryReport("ADV.0", 0, ZERO, None)
        elif isinstance(entry, ShadowEntry):
            limit = 0 if idle else pre.minwt(t).value
            if entry.weight > limit:
                self._fail(
                    InvariantViolation,
                    f"placeholder popped at slot {t} outweighs the plan threshold",
                    case="ADV.2",
                )
            report = AdversaryReport("ADV.2", entry.weight, ZERO, None)
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
            plan = {q: pre.packets[q].deadline for q in pre.plan_ids()}
            claimed[pid] = t
            f_id, f_val = self._restore_backup(
                pre, plan, set(claimed), pkt.deadline, "ADV.1"
            )
            w_g = pkt.weight.value
            self._require_frac(f_val <= w_g, "ADV.1", "cover outweighs the entry")
            report = AdversaryReport(
                "ADV.1", w_g, PHI_INV * (w_g - f_val), f_id
            )
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

    def _mirror_step(self, t: int) -> tuple[PlanState, PendingPacket, ScheduleEvent]:
        state = self._state
        if t != state.t:
            self._fail(TraceMismatch, f"scheduling event for t={t} arrived at t={state.t}")
        if not state.packets:
            self._fail(TraceMismatch, "scheduling event at an idle slot")
        pre = state.clone()
        scheduled, event = planm_step(state)
        self.mirror_events.append(event)
        return pre, scheduled, event

    def on_ordinary_step(self, t: int, p_id: int) -> EventReport:
        if self._finalized:
            raise VerifierError("verifier already finalized")
        pre, scheduled, event = self._mirror_step(t)
        if event.kind != "ordinary":
            self._fail(TraceMismatch, f"recorded ordinary step, mirror chose {event.kind}")
        if event.p_id != p_id:
            self._fail(
                TraceMismatch,
                f"recorded packet {p_id}, mirror scheduled {event.p_id}",
            )
        w_p = scheduled.weight.value
        w_ell = pre.minwt(t).value
        adv = self.on_adversary_substep(
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
            self._timetable[g_slot] = ShadowEntry(w_ell, self._event_index)
            credit = w_g - w_ell
            self._require_frac(f_val <= w_ell, case, "cover outweighs the plan minimum")
            self._require_frac(w_g <= w_p, case, "replaced entry outweighs the transmission")
            dpsi_alg = PHI_INV * (w_g - f_val - w_p)
            detail_bits.append(
                f"g={g_id}@{g_slot} f={f_id if f_id is not None else 'virtual'}"
            )
        self._advgain_total += credit
        advgain = adv.scheduled_weight + credit
        dpsi_total = adv.dpsi + dpsi_alg
        self._potential += dpsi_total
        margin = PHI * w_p + dpsi_total - advgain
        self._require_sign(margin, case, "scheduling inequality")
        self._gain0 += scheduled.original_weight
        self._gain_current += w_p
        report = self._report(
            time=t,
            kind="ordinary",
            case=case,
            detail=" ".join(detail_bits),
            advgain=advgain,
            dweights=0,
            dpsi_adv=adv.dpsi,
            dpsi_initseg=ZERO,
            dpsi_window=dpsi_alg,
            advgain_window=credit,
            margin=margin,
        )
        self._post_event_checks()
        return report

    def on_idle(self, t: int) -> EventReport:
        if self._finalized:
            raise VerifierError("verifier already finalized")
        state = self._state
        if t != state.t:
            self._fail(TraceMismatch, f"idle event for t={t} arrived at t={state.t}")
        if state.packets:
            self._fail(TraceMismatch, "idle slot recorded while packets are pending")
        pre = state.clone()
        adv = self.on_adversary_substep(pre, p_weight=None, sub_weight=None)
        state.advance_idle()
        self.mirror_events.append(ScheduleEvent(t, None, "idle", None, {}))
        report = self._report(
            time=t,
            kind="idle",
            case=adv.case,
            detail="",
            advgain=adv.scheduled_weight,
            dweights=0,
            dpsi_adv=adv.dpsi,
            dpsi_initseg=ZERO,
            dpsi_window=ZERO,
            advgain_window=0,
            margin=ZERO,
        )
        self._post_event_checks()
        return report

    # ------------------------------------------------------------------
    # leap events

    def on_leap_step(self, t: int, leap: LeapRecord) -> EventReport:
        if self._finalized:
            raise VerifierError("verifier already finalized")
        pre, scheduled, event = self._mirror_step(t)
        if event.kind not in ("simple-leap", "iterated-leap"):
            self._fail(TraceMismatch, f"recorded leap step, mirror chose {event.kind}")
        if event.leap != leap:
            self._fail(
                TraceMismatch,
                "recorded leap record diverges from the mirror: "
                f"{format_leap(leap, self._scale)} != {format_leap(event.leap, self._scale)}",
            )
        rec = event.leap
        w_p = scheduled.weight.value
        sub_value = pre.substitute(rec.p_id).weight.value
        if sub_value != rec.rho_old_weight.value:
            self._fail(
                InvariantViolation,
                "recorded substitute weight disagrees with the plan",
                case="L.window",
            )
        adv = self.on_adversary_substep(pre, p_weight=w_p, sub_weight=sub_value)
        detail_bits = [f"adv={adv.case}"]

        # first-segment stage: the plan's lightest early packet leaves
        ell = pre.packets[rec.ell_id]
        w_ell = ell.weight.value
        dpsi_initseg = ZERO
        claimed = self._real_entries()
        if rec.ell_id in claimed:
            ell_slot = claimed[rec.ell_id]
            self._timetable[ell_slot] = ShadowEntry(w_ell, self._event_index)
            plan_full = {pid: pre.packets[pid].deadline for pid in pre.plan_ids()}
            f_id, f_val = self._restore_backup(
                pre, plan_full, set(claimed), ell.deadline, "L.InSeg(i)"
            )
            self._require_frac(f_val <= w_ell, "L.InSeg(i)", "cover outweighs evictee")
            dpsi_initseg += PHI_INV * (w_ell - f_val)
            detail_bits.append(f"ell-unclaimed via {f_id if f_id is not None else 'virtual'}")
        f1: tuple[int, int] | None = None
        for fid in self._furloughed:
            key = (pre.packets[fid].deadline, fid)
            if f1 is None or key < f1:
                f1 = key
        if f1 is None or f1[0] >= ell.deadline:
            initseg_case = "L.InSeg.1"
            dpsi_initseg += -(PHI_INV * w_ell)
        else:
            initseg_case = "L.InSeg.2"
            f1_id = f1[1]
            f1_val = pre.packets[f1_id].weight.value
            self._furloughed.remove(f1_id)
            self._furloughed.add(rec.ell_id)
            dpsi_initseg += -(PHI_INV * f1_val)
        detail_bits.append(initseg_case)
        self._require_sign(
            dpsi_initseg + PHI_INV * w_ell, initseg_case, "first-segment delta bound"
        )

        # replacement chain bookkeeping, indices 0..k for p and the chain,
        # k+1 for the promoted substitute
        k = len(rec.chain)
        h_ids = [rec.p_id] + [link.h_id for link in rec.chain]
        w_old = [w_p] + [link.old_weight.value for link in rec.chain]
        w_old.append(rec.rho_old_weight.value)
        taus = [rec.tau0] + [link.tau for link in rec.chain]
        mu0 = pre.minwt(scheduled.deadline).value
        rho_new = rec.rho_new_weight.value
        if k == 0 and rho_new != mu0:
            self._fail(
                InvariantViolation,
                "promoted weight disagrees with the plan threshold",
                case="L.window",
            )
        # floors[i] is the admission floor of the i-th window segment
        floors = [mu0] + [link.mu.value for link in rec.chain]
        dw = [0]
        for i, link in enumerate(rec.chain):
            step = link.new_weight.value - link.old_weight.value
            self._require_frac(step >= 0, "L.window", "chain weight decreased")
            if link.new_weight != link.old_weight and step != max(
                floors[i] - link.old_weight.value, 0
            ):
                self._fail(
                    InvariantViolation,
                    f"chain bump for {link.h_id} is not its floor",
                    case="L.window",
                )
            dw.append(step)
        dw_rho = rho_new - rec.rho_old_weight.value
        self._require_frac(dw_rho >= 0, "L.window", "promotion lowered the weight")
        dw.append(dw_rho)
        bumped = [False] + [
            link.new_weight != link.old_weight for link in rec.chain
        ] + [True]

        def dw_sum(first: int, last: int) -> int:
            return sum(dw[first : last + 1])

        dweights_event = dw_sum(1, k + 1)
        old_by_id = {rec.rho_id: rec.rho_old_weight.value}
        for link in rec.chain:
            old_by_id[link.h_id] = link.old_weight.value
        recorded = 0
        for pid, tw in event.dweights.items():
            if pid not in old_by_id:
                self._fail(
                    InvariantViolation,
                    f"weight ledger names packet {pid} outside the chain",
                    case="L.window",
                )
            recorded += tw.value - old_by_id[pid]
        if dweights_event != recorded:
            self._fail(
                InvariantViolation,
                "weight ledger disagrees with the recorded changes",
                case="L.window",
            )

        # working copy of the plan after the first-segment stage; values
        # are (deadline, weight) pairs evolved substep by substep
        working: dict[int, tuple[int, int]] = {
            pid: (pre.packets[pid].deadline, pre.packets[pid].weight.value)
            for pid in pre.plan_ids()
            if pid != rec.ell_id
        }

        new_dw: dict[int, tuple[int, int]] = {}
        for i, link in enumerate(rec.chain):
            new_dw[i + 1] = (link.new_deadline, link.new_weight.value)
        new_dw[k + 1] = (rec.rho_deadline, rec.rho_new_weight.value)

        def apply_updates(first: int, last: int) -> None:
            for m in range(first, last + 1):
                pid = h_ids[m] if m <= k else rec.rho_id
                working[pid] = new_dw[m]

        def working_backup_check(case: str) -> None:
            claimed_set = set(self._real_entries())
            deadlines = []
            for fid in self._furloughed:
                pkt = pre.packets.get(fid)
                if pkt is None:
                    self._fail(InvariantViolation, f"furloughed packet {fid} vanished")
                deadlines.append(pkt.deadline)
            for pid, (deadline, _) in working.items():
                if pid not in claimed_set:
                    deadlines.append(deadline)
            slack, slot = _pslack_floor(deadlines, t + 1, self._state.sentinel)
            if slack < 0:
                self._fail(
                    InvariantViolation,
                    f"working backup pool overfills slot {slot}",
                    case=case,
                )

        claimed = self._real_entries()
        window_live = [
            pid
            for pid in claimed
            if pid in working and rec.delta < working[pid][0] <= rec.gamma
        ]
        rho_furloughed = rec.rho_id in self._furloughed
        dpsi_window = ZERO
        advgain_window = 0
        decomposition: GroupDecomposition | None = None

        if not window_live and not rho_furloughed:
            case = "L.S.1" if k == 0 else "L.I.1"
            dpsi_window = PHI_INV * (-w_p + rho_new + dw_sum(1, k))
            del working[rec.p_id]
            apply_updates(1, k + 1)
            working_backup_check(case)
        else:
            case = "L.S.2" if k == 0 else "L.I.2"
            targets = [
                pid
                for pid in claimed
                if pid in working and working[pid][0] <= rec.gamma
            ]
            if not targets:
                self._fail(
                    GroupPartitionError,
                    "no claimed plan packet can absorb the replacement window",
                    case=case,
                )
            g_star = max(targets, key=lambda pid: (working[pid][0], pid))
            d_gstar = working[g_star][0]
            anchors = tuple(
                i for i in range(k + 1) if h_ids[i] in claimed
            )
            g_id = g_star
            g_index: int | None = None
            for i in range(k + 1):
                if pre.prevts(taus[i]) < d_gstar <= taus[i] and h_ids[i] in claimed:
                    g_id = h_ids[i]
                    g_index = i
                    break
            if g_index is not None and (not anchors or g_index != anchors[-1]):
                self._fail(
                    GroupPartitionError,
                    f"window target lands on chain index {g_index}, "
                    f"expected the last anchor",
                    case=case,
                )

            groups: list[tuple[int, int, str]] = []
            if anchors and g_index == anchors[-1]:
                terminal_start = anchors[-1]
            else:
                candidates = [i for i in range(k + 1) if taus[i] >= d_gstar]
                if not candidates:
                    self._fail(
                        GroupPartitionError,
                        "no chain stop reaches the window target's deadline",
                        case=case,
                    )
                terminal_start = min(candidates)
                if anchors and terminal_start <= anchors[-1]:
                    self._fail(
                        GroupPartitionError,
                        "terminal group would swallow an unprocessed anchor",
                        case=case,
                    )
                if anchors:
                    groups.append((anchors[-1], terminal_start - 1, "middle"))
            groups.append((terminal_start, k, "terminal"))
            for j in range(len(anchors) - 1):
                groups.append((anchors[j], anchors[j + 1] - 1, "middle"))
            first_covered = min(a for a, _, _ in groups)
            if first_covered > 0:
                groups.append((0, first_covered - 1, "initial"))
            groups.sort()
            covered: list[int] = []
            for a, b, _ in groups:
                covered.extend(range(a, b + 1))
            if covered != list(range(k + 1)):
                self._fail(
                    GroupPartitionError,
                    f"groups {groups} do not partition the chain",
                    case=case,
                )
            decomposition = GroupDecomposition(
                anchors=anchors,
                groups=tuple(groups),
                g_id=g_id,
                g_index=g_index,
            )

            for a, b, kind_g in sorted(groups, reverse=True):
                claimed_now = self._real_entries()
                head_claimed = kind_g == "middle" or (
                    kind_g == "terminal" and g_index == a
                )
                lo = a + 1 if head_claimed else a
                for m in range(lo, min(b + 1, k) + 1):
                    if h_ids[m] in claimed_now:
                        self._fail(
                            GroupPartitionError,
                            f"chain packet {h_ids[m]} in group [{a}, {b}] "
                            f"still holds a timetable slot",
                            case=case,
                        )
                w_a = w_old[a]
                w_next = w_old[b + 1]
                group_dw = dw_sum(a + 1, b + 1)
                if kind_g == "terminal":
                    target = g_id if b == k else None
                    if target is None:
                        self._fail(GroupPartitionError, "terminal group misplaced", case=case)
                    if rho_furloughed:
                        f_id: int | None = rec.rho_id
                        f_val = rec.rho_old_weight.value
                        self._furloughed.remove(rec.rho_id)
                    else:
                        f_id, f_val = self._earliest_furlough(
                            pre, rec.delta, self._state.sentinel, case
                        )
                    g_slot = claimed_now.get(g_id)
                    if g_slot is None:
                        self._fail(
                            InvariantViolation,
                            f"window target {g_id} lost its timetable slot",
                            case=case,
                        )
                    w_g = working[g_id][1]
                    shadow = pre.minwt(working[g_id][0]).value
                    self._timetable[g_slot] = ShadowEntry(shadow, self._event_index)
                    self._require_frac(w_g <= w_a, case, "window target outweighs group head")
                    self._require_frac(
                        f_val <= rec.rho_old_weight.value,
                        case,
                        "cover outweighs the substitute",
                    )
                    self._require_frac(shadow >= floors[a], case, "shadow below the group floor")
                    credit = w_g - shadow
                    self._require_frac(credit >= 0, case, "negative replacement credit")
                    advgain_window += credit
                    dpsi_g = PHI_INV * (w_g - f_val - w_a + rho_new + dw_sum(a + 1, k))
                    detail_bits.append(
                        f"T[{a},{k}] g={g_id} f={f_id if f_id is not None else 'virtual'}"
                    )
                elif kind_g == "middle":
                    if h_ids[a] not in claimed_now:
                        self._fail(
                            GroupPartitionError,
                            f"middle group head {h_ids[a]} holds no timetable slot",
                            case=case,
                        )
                    slot_a = claimed_now[h_ids[a]]
                    if any(bumped[m] for m in range(a + 1, b + 2)):
                        self._timetable[slot_a] = ShadowEntry(floors[a], self._event_index)
                        plan_now = {pid: d for pid, (d, _) in working.items()}
                        f_id, f_val = self._restore_backup(
                            pre,
                            plan_now,
                            set(claimed_now),
                            working[h_ids[a]][0],
                            case + ".M.i",
                        )
                        self._require_frac(
                            f_val <= w_next, case, "cover outweighs the group tail"
                        )
                        self._require_frac(floors[a] <= w_a, case, "floor outweighs group head")
                        credit = w_a - floors[a]
                        advgain_window += credit
                        dpsi_g = PHI_INV * (dw_sum(a + 1, b + 1) + w_next - f_val)
                        detail_bits.append(
                            f"M.i[{a},{b}] f={f_id if f_id is not None else 'virtual'}"
                        )
                    else:
                        successor = h_ids[a + 1]
                        if successor in claimed_now:
                            self._fail(
                                InvariantViolation,
                                f"chain packet {successor} already holds a slot",
                                case=case,
                            )
                        if new_dw[a + 1][0] < slot_a:
                            self._fail(
                                InvariantViolation,
                                f"replacement {successor} cannot reach slot {slot_a}",
                                case=case,
                            )
                        self._timetable[slot_a] = RealEntry(successor)
                        credit = w_a - w_old[a + 1]
                        self._require_frac(credit >= 0, case, "negative replacement credit")
                        advgain_window += credit
                        dpsi_g = PHI_INV * (-w_old[a + 1] + w_next)
                        detail_bits.append(f"M.ii[{a},{b}] -> {successor}")
                else:
                    if any(h_ids[m] in claimed_now for m in range(a, b + 1)):
                        self._fail(
                            GroupPartitionError,
                            "initial group contains a claimed packet",
                            case=case,
                        )
                    credit = 0
                    dpsi_g = PHI_INV * (dw_sum(a + 1, b + 1) - w_p + w_next)
                    detail_bits.append(f"I[{a},{b}]")
                self._require_sign(
                    dpsi_g - PHI * group_dw - credit + w_a - w_next,
                    case,
                    f"group [{a}, {b}] inequality",
                )
                dpsi_window += dpsi_g
                del working[h_ids[a]]
                apply_updates(a + 1, b + 1)
                working_backup_check(case)
            self._advgain_total += advgain_window

        key2 = dpsi_window - PHI * dweights_event - advgain_window + w_p - rec.rho_old_weight.value
        self._require_sign(key2, case, "window inequality")

        state = self._state
        if set(working) != state.plan_ids():
            self._fail(
                InvariantViolation,
                "working plan membership diverged from the mirror",
                case=case,
            )
        for pid, (deadline, value) in working.items():
            pkt = state.packets[pid]
            if pkt.deadline != deadline or pkt.weight.value != value:
                self._fail(
                    InvariantViolation,
                    f"working plan packet {pid} diverged from the mirror",
                    case=case,
                )

        dpsi_total = adv.dpsi + dpsi_initseg + dpsi_window
        self._potential += dpsi_total
        advgain = adv.scheduled_weight + advgain_window
        margin = PHI * w_p - PHI * dweights_event + dpsi_total - advgain
        self._require_sign(margin, case, "scheduling inequality")
        self._dweights_total += dweights_event
        self._gain0 += scheduled.original_weight
        self._gain_current += w_p
        if decomposition is not None:
            detail_bits.append(f"anchors={list(decomposition.anchors)}")
        report = self._report(
            time=t,
            kind=event.kind,
            case=case,
            detail=" ".join(detail_bits),
            advgain=advgain,
            dweights=dweights_event,
            dpsi_adv=adv.dpsi,
            dpsi_initseg=dpsi_initseg,
            dpsi_window=dpsi_window,
            advgain_window=advgain_window,
            margin=margin,
        )
        self._post_event_checks()
        return report

    # ------------------------------------------------------------------

    def finalize(self) -> VerificationResult:
        if self._finalized:
            raise VerifierError("verifier already finalized")
        self._finalized = True
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

    @property
    def potential(self) -> GoldenNumber:
        """The running potential."""
        return self._scale.golden(self._potential)

    @property
    def gain0(self) -> Fraction:
        """The original weight transmitted so far."""
        return self._scale.rational(self._gain0)


def verify_trace(
    instance: Instance, trace: RunTrace, comparison: Schedule
) -> VerificationResult:
    """Replay a recorded run and audit it against a comparison schedule.

    Raises a `VerifierError` subclass on the first divergence between
    the trace and the mirrored recomputation, on any invariant break,
    or on any failed inequality.
    """
    if trace.algorithm != "planm":
        raise TraceMismatch(f"cannot audit algorithm {trace.algorithm!r}")
    verifier = Verifier(instance, comparison)
    scale = instance.scale
    trace_denominator = trace.scale.denominator
    if trace_denominator != scale.denominator:
        raise TraceMismatch(
            f"trace weights have common denominator {trace_denominator}, "
            f"the instance's have {scale.denominator}"
        )
    events = list(trace.events)
    cursor = 0

    def next_event(expected: str):
        nonlocal cursor
        if cursor >= len(events):
            raise TraceMismatch(f"trace truncated; expected {expected}")
        ev = events[cursor]
        cursor += 1
        return ev

    arrivals = list(instance.packets)
    i = 0
    for t in range(0, instance.horizon + 1):
        while i < len(arrivals) and arrivals[i].release == t:
            packet = arrivals[i]
            ev = next_event(f"arrival of {packet.id} at t={t}")
            if not isinstance(ev, ArrivalEvent) or ev.t != t or ev.packet != packet:
                raise TraceMismatch(
                    f"expected arrival of {packet.id} at t={t}, "
                    f"trace has {format_event(ev, scale)}"
                )
            verifier.on_arrival(packet)
            i += 1
        ev = next_event(f"scheduling event at t={t}")
        if not isinstance(ev, ScheduleEvent) or ev.t != t:
            raise TraceMismatch(
                f"expected a scheduling event at t={t}, trace has {format_event(ev, scale)}"
            )
        if ev.kind == "idle":
            verifier.on_idle(t)
        elif ev.kind == "ordinary":
            if ev.p_id is None:
                raise TraceMismatch(f"ordinary event without a packet at t={t}")
            verifier.on_ordinary_step(t, ev.p_id)
        elif ev.kind in ("simple-leap", "iterated-leap"):
            if ev.leap is None:
                raise TraceMismatch(f"leap event without a record at t={t}")
            verifier.on_leap_step(t, ev.leap)
        else:
            raise TraceMismatch(f"cannot audit event kind {ev.kind!r}")
        mirror = verifier.mirror_events[-1]
        if mirror != ev:
            raise TraceMismatch(
                f"trace event at t={t} diverges from the mirror: "
                f"{format_event(ev, scale)} != {format_event(mirror, scale)}"
            )
    if cursor != len(events):
        raise TraceMismatch(f"{len(events) - cursor} trailing events in the trace")
    gain0 = verifier.gain0
    if trace.gain0 != gain0:
        raise TraceMismatch(f"recorded gain {trace.gain0} != accumulated {gain0}")
    return verifier.finalize()
