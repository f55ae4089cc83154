"""Scheduler behavior on the worked examples, leap mechanics on
constructed states, and competitive-ratio properties on random
instances (exact signs throughout)."""

import random
from fractions import Fraction

import pytest

from planpack import schedulers
from planpack.golden import PHI, TaggedWeight, TiebreakSource, format_tagged, golden
from planpack.generators import GeneratorConfig, generate
from planpack.model import Packet, validate
from planpack.offline import optimal_schedule
from planpack.plan import PlanState
from planpack.schedulers import (
    ChainLink,
    LeapRecord,
    MonotonicityError,
    ScheduleEvent,
    planm_step,
    run,
)


def test_w1_planm_all_ordinary(w1):
    result, trace = run("planm", w1)
    assert result.transmitted == ((0, 1), (1, 2), (2, 4))
    assert result.gain0 == 12
    assert result.gain_current == 12
    steps = [ev for ev in trace.events if isinstance(ev, ScheduleEvent)]
    assert [ev.kind for ev in steps] == ["ordinary"] * 3
    assert all(ev.leap is None and not ev.dweights for ev in steps)


def test_w1_greedy_loses_first_slot_packet(w1):
    result, _ = run("greedy", w1)
    assert result.gain0 == 9
    assert result.transmitted == ((0, 2), (1, 4), (2, -5))


def test_w2_planm_simple_leap(w2):
    result, trace = run("planm", w2)
    assert result.transmitted == ((0, 2), (1, 3))
    assert result.gain0 == 14
    assert result.gain_current == 15
    leap_ev = trace.events[3]
    assert leap_ev.kind == "simple-leap"
    assert leap_ev.leap == LeapRecord(
        p_id=2, rho_id=3, ell_id=1, delta=0, gamma=1, tau0=1,
        rho_was_virtual=False, rho_deadline=1,
        rho_old_weight=TaggedWeight(Fraction(4), -3),
        rho_new_weight=TaggedWeight(Fraction(5), 1),
        chain=(),
    )
    assert leap_ev.dweights == {3: TaggedWeight(Fraction(5), 1)}


def test_w2_greedy_same_outcome(w2):
    result, _ = run("greedy", w2)
    assert result.transmitted == ((0, 2), (1, 3))
    assert result.gain0 == 14


def test_empty_instance():
    result, trace = run("planm", validate([]))
    assert result.gain0 == 0
    assert result.transmitted == ()
    assert trace.events == []


def test_idle_slot_between_bursts():
    inst = validate([Packet(1, 0, 0, Fraction(2)), Packet(2, 2, 2, Fraction(3))])
    result, trace = run("planm", inst)
    assert result.transmitted == ((0, 1), (2, 2))
    idle = trace.events[2]
    assert isinstance(idle, ScheduleEvent)
    assert (idle.t, idle.p_id, idle.kind) == (1, None, "idle")


def test_unknown_algorithm_rejected(w1):
    with pytest.raises(ValueError):
        run("newest", w1)


def build(entries, sentinel=None):
    """entries: (id, deadline, weight) all arriving at t=0."""
    H = (max(d for _, d, _ in entries) + 1) if sentinel is None else sentinel
    state = PlanState(0, H)
    for pid, d, w in entries:
        state.apply_arrival(pid, d, TaggedWeight(Fraction(w), state.source.sub_zero()))
    return state


def test_iterated_leap_without_chain_bump():
    state = build([(1, 0, 1), (2, 1, 100), (3, 2, 50), (4, 2, Fraction(1, 2))])
    assert state.plan_ids() == {1, 2, 3}
    p, ev = planm_step(state)
    assert p.id == 2
    assert ev.kind == "iterated-leap"
    leap = ev.leap
    assert (leap.rho_id, leap.ell_id) == (4, 1)
    assert (leap.delta, leap.tau0, leap.gamma) == (0, 1, 2)
    assert leap.chain == (
        ChainLink(
            h_id=3, tau=2, old_deadline=2, new_deadline=1,
            old_weight=TaggedWeight(Fraction(50), -3),
            new_weight=TaggedWeight(Fraction(50), -3),
            mu=TaggedWeight(Fraction(1), -1),
        ),
    )
    assert leap.rho_new_weight == TaggedWeight(Fraction(1), 1)
    assert ev.dweights == {4: TaggedWeight(Fraction(1), 1)}
    assert state.plan_ids() == {3, 4}
    assert state.packets[3].deadline == 1


def test_iterated_leap_with_chain_bump():
    state = build([(1, 0, 60), (2, 1, 100), (3, 2, 50), (4, 2, 40)])
    assert state.plan_ids() == {1, 2, 3}
    p, ev = planm_step(state)
    assert p.id == 2
    leap = ev.leap
    assert leap.kind == "iterated-leap"
    assert (leap.rho_id, leap.ell_id, leap.delta, leap.tau0, leap.gamma) == (4, 1, 0, 1, 2)
    link = leap.chain[0]
    assert (link.h_id, link.old_deadline, link.new_deadline) == (3, 2, 1)
    assert link.old_weight == TaggedWeight(Fraction(50), -3)
    assert link.new_weight == TaggedWeight(Fraction(60), 2)
    assert leap.rho_new_weight == TaggedWeight(Fraction(50), 1)
    assert ev.dweights == {
        4: TaggedWeight(Fraction(50), 1),
        3: TaggedWeight(Fraction(60), 2),
    }
    assert state.packets[3].weight == TaggedWeight(Fraction(60), 2)
    assert state.packets[4].weight == TaggedWeight(Fraction(50), 1)
    # thresholds rose at both touched slots
    assert state.minwt(1).value == 60
    assert state.minwt(2).value == 50


def test_leap_with_virtual_substitute_is_simple():
    state = build([(1, 0, 1), (2, 1, 100)])
    p, ev = planm_step(state)
    assert p.id == 2
    leap = ev.leap
    assert leap.kind == "simple-leap"
    assert leap.rho_was_virtual
    assert leap.rho_id == -3
    assert leap.rho_deadline == 1
    assert (leap.delta, leap.tau0, leap.gamma) == (0, 1, 1)
    assert leap.rho_old_weight == TaggedWeight(Fraction(0), -3)
    assert leap.rho_new_weight.value == 1


def test_greedy_trips_monotonicity_monitor(w1):
    with pytest.raises(MonotonicityError):
        run("greedy", w1, check_monotonicity=True)


class PerSlotMonitor:
    """The monitor's reference: minwt kept per absolute slot, every slot
    from t through the sentinel compared after each event."""

    def __init__(self, scale):
        self.scale = scale
        self.seen = {}

    def observe(self, state, context):
        for tau in range(state.t, state.sentinel + 1):
            now = state.minwt(tau)
            before = self.seen.get(tau)
            if before is not None and now < before:
                raise MonotonicityError(
                    f"minwt({tau}) fell from {format_tagged(before, self.scale)} "
                    f"to {format_tagged(now, self.scale)} {context}"
                )
            self.seen[tau] = now


@pytest.mark.parametrize("algorithm", ["planm", "greedy"])
def test_segment_monitor_matches_per_slot_reference(algorithm, monkeypatch):
    """Both monitors watch the same runs and must raise the same error at
    the same event, or none."""
    outcomes = []
    segment_monitor = schedulers._MonotonicityMonitor

    class Paired:
        def __init__(self, scale):
            self.monitors = (segment_monitor(scale), PerSlotMonitor(scale))

        def observe(self, state, context):
            errors = []
            for monitor in self.monitors:
                try:
                    monitor.observe(state, context)
                    errors.append(None)
                except MonotonicityError as exc:
                    errors.append(str(exc))
            assert errors[0] == errors[1], context
            outcomes.append(errors[0])
            if errors[0] is not None:
                raise MonotonicityError(errors[0])

    monkeypatch.setattr(schedulers, "_MonotonicityMonitor", Paired)
    rng = random.Random(271828)
    for _ in range(150):
        packets = []
        for pid in range(1, rng.randint(2, 14)):
            r = rng.randint(0, 12)
            packets.append(Packet(pid, r, r + rng.randint(0, 5), Fraction(rng.randint(1, 9))))
        try:
            run(algorithm, validate(packets), check_monotonicity=True)
        except MonotonicityError:
            pass
    trips = sum(error is not None for error in outcomes)
    assert len(outcomes) > 1000
    assert trips == 0 if algorithm == "planm" else trips > 10


def test_idle_stretch_is_one_event():
    inst = validate([Packet(1, 0, 0, Fraction(2)), Packet(2, 50, 53, Fraction(3))])
    result, trace = run("planm", inst, check_monotonicity=True)
    assert result.transmitted == ((0, 1), (50, 2))
    stretches = [ev for ev in trace.events if isinstance(ev, ScheduleEvent) and ev.p_id is None]
    assert [(ev.t, ev.kind, ev.slots) for ev in stretches] == [(1, "idle", 49), (51, "idle", 3)]


def test_planm_monotone_on_worked_examples(w1, w2, fig1):
    for inst in (w1, w2, fig1):
        run("planm", inst, check_monotonicity=True)


@pytest.mark.parametrize("kind", ["uniform-random", "s-bounded", "agreeable"])
def test_planm_monotone_on_generated_instances(kind):
    for seed in range(3):
        inst = generate(GeneratorConfig(kind=kind, steps=40, seed=seed))
        run("planm", inst, check_monotonicity=True)


def check_run_sanity(inst, result, trace):
    by_id = inst.by_id()
    slots = [slot for slot, _ in result.transmitted]
    assert slots == sorted(set(slots))
    seen = set()
    for slot, pid in result.transmitted:
        assert pid not in seen
        seen.add(pid)
        if pid >= 0:
            p = by_id[pid]
            assert p.release <= slot <= p.deadline
    assert result.gain_current >= result.gain0
    assert trace.gain0 == result.gain0


@pytest.mark.parametrize("seed", range(8))
def test_competitive_bounds_random_instances(seed):
    rng = random.Random(1000 + seed)
    packets = []
    pid = 1
    for t in range(rng.randint(1, 25)):
        for _ in range(rng.randint(0, 3)):
            d = t + rng.randint(0, 6)
            w = Fraction(rng.randint(0, 30), rng.choice([1, 2, 3]))
            packets.append(Packet(pid, t, d, w))
            pid += 1
    inst = validate(packets)
    opt = optimal_schedule(inst).weight0

    planm, planm_trace = run("planm", inst, check_monotonicity=True)
    check_run_sanity(inst, planm, planm_trace)
    assert (PHI * planm.gain0 - opt).sign() >= 0

    greedy, greedy_trace = run("greedy", inst)
    check_run_sanity(inst, greedy, greedy_trace)
    assert golden(2 * greedy.gain0 - opt).sign() >= 0


def test_phi_adversarial_ratios_direction():
    inst = generate(GeneratorConfig(kind="phi-adversarial", steps=8))
    opt = optimal_schedule(inst).weight0
    planm, _ = run("planm", inst, check_monotonicity=True)
    greedy, _ = run("greedy", inst)
    assert (PHI * planm.gain0 - opt).sign() >= 0
    assert greedy.gain0 < planm.gain0
