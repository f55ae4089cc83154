"""Online schedulers over the plan engine.

The main policy transmits the plan packet maximizing
current weight + phi * (weight of its substitute), in exact golden-field
arithmetic.  Transmitting outside the first segment triggers a leap:
the substitute's weight is raised to the threshold at its deadline, and
a chain of plan packets between the scheduled packet's segment and the
substitute's is shifted to earlier deadlines, each weight raised to the
threshold where it lands.  Every raise carries a fresh tiebreak, so
raised weights sit strictly above everything older at the same value.

The greedy baseline transmits the heaviest pending packet (always a
plan member) and adjusts no weights.  Both run through the same loop,
which feeds arrivals to the plan, asks the policy for one transmission
per busy slot, and logs a replayable trace.  That loop is the only
clock: when nothing is pending it jumps to the next release (or past
the horizon) and logs the whole idle stretch as one event, so a run
costs per packet, not per slot.  The audit replays these events with no
clock of its own.

Weights are integers over the instance's common denominator; gains are
summed as integers and turned into rationals once, for the result.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from numbers import Rational

from .golden import GoldenNumber, PHI2, TaggedWeight, WeightScale, format_tagged, golden
from .model import Instance, Packet, tagged_weight_map
from .plan import PendingPacket, PlanState, SubstituteResult

__all__ = [
    "ALGORITHMS",
    "ChainLink",
    "LeapRecord",
    "ArrivalEvent",
    "ScheduleEvent",
    "RunTrace",
    "SchedulerResult",
    "MonotonicityError",
    "planm_step",
    "greedy_step",
    "run",
]

ALGORITHMS = ("planm", "greedy")


class MonotonicityError(AssertionError):
    """A per-slot weight threshold decreased over time."""


@dataclass(frozen=True, slots=True)
class ChainLink:
    """One shifted packet of a leap: deadline moved back to the tight
    slot below its window, weight raised to the threshold there if it
    was lighter.  mu is the threshold at the packet's old deadline."""

    h_id: int
    tau: int
    old_deadline: int
    new_deadline: int
    old_weight: TaggedWeight
    new_weight: TaggedWeight
    mu: TaggedWeight


@dataclass(frozen=True, slots=True)
class LeapRecord:
    p_id: int
    rho_id: int
    ell_id: int
    delta: int
    gamma: int
    tau0: int
    rho_was_virtual: bool
    rho_deadline: int
    rho_old_weight: TaggedWeight
    rho_new_weight: TaggedWeight
    chain: tuple[ChainLink, ...]

    @property
    def kind(self) -> str:
        return "simple-leap" if not self.chain else "iterated-leap"


@dataclass(frozen=True, slots=True)
class ArrivalEvent:
    t: int
    packet: Packet


@dataclass(frozen=True, slots=True)
class ScheduleEvent:
    """One transmission slot, or with kind "idle" (p_id None) the slots
    [t, t + slots) in which nothing was pending.  dweights maps each
    weight-adjusted packet to its new weight; old values are in the leap record."""

    t: int
    p_id: int | None
    kind: str
    leap: LeapRecord | None
    dweights: dict[int, TaggedWeight]
    slots: int = 1


@dataclass(slots=True)
class RunTrace:
    """The events of one run and its gain in original weights.

    Event weights are in the units of ``scale``, the common denominator
    of the arrivals' weights, which is the instance's.
    """

    algorithm: str
    events: list
    gain0: Rational
    scale: WeightScale


@dataclass(frozen=True, slots=True)
class SchedulerResult:
    transmitted: tuple[tuple[int, int], ...]
    gain0: Rational
    gain_current: Rational


def _objective(top: PendingPacket, sub: SubstituteResult) -> GoldenNumber:
    return golden(top.weight.value, sub.weight.value)


def _choose_planm(state: PlanState):
    """argmax of weight + phi*substitute weight; ties by the packet's
    weight order, then id."""
    best = None
    for seg, top, sub in state.segment_entries():
        obj = _objective(top, sub)
        if best is None:
            best = (obj, top, sub, seg)
            continue
        diff = obj - best[0]
        s = diff.sign()
        if s > 0 or (s == 0 and (top.weight, -top.id) > (best[1].weight, -best[1].id)):
            best = (obj, top, sub, seg)
    return best


def planm_step(state: PlanState) -> tuple[PendingPacket, ScheduleEvent]:
    """Decide and apply one transmission.  The plan must be current and
    nonempty; arrival handling and idling live in the run loop."""
    t = state.t
    choice = _choose_planm(state)
    assert choice is not None, "planm_step on an empty plan"
    _, p, sub, seg = choice

    heavy = state.heaviest_member()
    assert (PHI2 * p.weight.value - heavy.weight.value).sign() >= 0, (
        f"scheduled weight below heaviest/phi^2 at t={t}"
    )

    if seg == 1:
        expected = state.plan_ids() - {p.id}
        state.apply_schedule_initseg(p.id)
        assert state.plan_ids() == expected
        return p, ScheduleEvent(t, p.id, "ordinary", None, {})

    delta = state.prevts(p.deadline)
    gamma = state.nextts(sub.deadline)
    tau0 = state.nextts(p.deadline)
    mu_rho = state.minwt(sub.deadline)

    raw_chain = []
    tau_prev = tau0
    while tau_prev < gamma:
        h = state.heaviest_in_window(tau_prev, gamma)
        assert h is not None, f"empty leap window ({tau_prev}, {gamma}]"
        tau_i = state.nextts(h.deadline)
        assert tau_prev < tau_i <= gamma
        floor = state.minwt(tau_prev)
        raw_chain.append((h, tau_i, tau_prev, floor, state.minwt(tau_i)))
        tau_prev = tau_i

    ell = state.lightest_initseg()
    expected = state.plan_ids() - {p.id, ell.id}
    if sub.packet is not None:
        expected.add(sub.packet.id)
    info = state.apply_schedule_later(p.id, sub=sub, refresh=False)
    assert info.ell_id == ell.id
    if info.rho_was_virtual:
        expected.add(info.rho_id)

    # rho and the chain packets h as they are before the leap's weight and
    # deadline changes: adjust_members replaces them rather than edit them
    rho = state.packets[info.rho_id]
    rho_new = TaggedWeight(mu_rho.value, state.source.fresh())
    assert rho_new > rho.weight
    dweights = {rho.id: rho_new}
    changes = [(rho.id, rho.deadline, rho_new)]

    links = []
    prev_weight = p.weight
    for h, tau_i, new_d, floor, mu_i in raw_chain:
        assert prev_weight > h.weight > rho.weight
        prev_weight = new_w = h.weight
        if floor > h.weight:
            new_w = dweights[h.id] = TaggedWeight(floor.value, state.source.fresh())
        changes.append((h.id, new_d, new_w))
        links.append(ChainLink(h.id, tau_i, h.deadline, new_d, h.weight, new_w, mu_i))
    state.adjust_members(changes)
    assert state.plan_ids() == expected

    leap = LeapRecord(
        p_id=p.id, rho_id=info.rho_id, ell_id=info.ell_id,
        delta=delta, gamma=gamma, tau0=tau0,
        rho_was_virtual=info.rho_was_virtual, rho_deadline=rho.deadline,
        rho_old_weight=rho.weight, rho_new_weight=rho_new,
        chain=tuple(links),
    )
    return p, ScheduleEvent(t, p.id, leap.kind, leap, dweights)


def greedy_step(state: PlanState) -> tuple[PendingPacket, ScheduleEvent]:
    t = state.t
    p = state.heaviest_member()
    assert p is not None, "greedy_step with nothing pending"
    if p.deadline <= state.tights[1]:
        state.apply_schedule_initseg(p.id)
    else:
        state.apply_schedule_later(p.id)
    return p, ScheduleEvent(t, p.id, "greedy", None, {})


class _MonotonicityMonitor:
    """Thresholds may only rise.  minwt is constant on each segment, so
    an observation is kept as each segment's first slot and weight.  It
    covers every slot the next one does (t only grows), so comparing two
    at every segment start of either compares them at every slot."""

    def __init__(self, scale: WeightScale) -> None:
        self.scale = scale
        self.starts: list[int] = []
        self.weights: list[TaggedWeight] = []

    def observe(self, state: PlanState, context: str) -> None:
        starts = [lo + 1 for lo in state.tights[:-1]]
        weights = [state.minwt(tau) for tau in starts]
        for tau in sorted(set(starts).union(s for s in self.starts if s >= state.t)):
            i = bisect_right(self.starts, tau) - 1      # -1 at the first observation
            now = weights[bisect_right(starts, tau) - 1]
            if i >= 0 and now < self.weights[i]:
                raise MonotonicityError(
                    f"minwt({tau}) fell from {format_tagged(self.weights[i], self.scale)} "
                    f"to {format_tagged(now, self.scale)} {context}"
                )
        self.starts = starts
        self.weights = weights


def run(
    algorithm: str,
    instance: Instance,
    check_monotonicity: bool = False,
) -> tuple[SchedulerResult, RunTrace]:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    step = planm_step if algorithm == "planm" else greedy_step

    state = PlanState(0, max(instance.sentinel, 0))
    weights = tagged_weight_map(instance, state.source)
    scale = instance.scale
    monitor = _MonotonicityMonitor(scale) if check_monotonicity else None

    events: list = []
    transmitted: list[tuple[int, int]] = []
    gain0 = 0
    gain_current = 0
    arrivals = instance.packets
    i = 0
    while state.t <= instance.horizon:
        t = state.t
        while i < len(arrivals) and arrivals[i].release == t:
            p = arrivals[i]
            state.apply_arrival(p.id, p.deadline, weights[p.id])
            events.append(ArrivalEvent(t, p))
            if monitor is not None:
                monitor.observe(state, f"after arrival of {p.id} at t={t}")
            i += 1
        if not state.packets:
            stop = arrivals[i].release if i < len(arrivals) else instance.horizon + 1
            state.advance_idle(stop - t)
            events.append(ScheduleEvent(t, None, "idle", None, {}, stop - t))
            continue
        scheduled, event = step(state)
        events.append(event)
        transmitted.append((t, event.p_id))
        gain0 += scheduled.original_weight
        gain_current += scheduled.weight.value
        if monitor is not None:
            monitor.observe(state, f"after step at t={t}")
    trace = RunTrace(algorithm, events, scale.rational(gain0), scale)
    result = SchedulerResult(tuple(transmitted), trace.gain0, scale.rational(gain_current))
    return result, trace
