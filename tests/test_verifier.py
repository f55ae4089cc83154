"""Replay-audit tests.

The two hand-worked instances pin down every ledger entry (cases,
credited weights, potential deltas, margins) against values computed
by hand from the case formulas.  Rare cases found by randomized search
are frozen as regression fixtures.  Seeded sweeps then check that
clean traces verify against the exact optimum, random feasible
schedules, and the empty schedule, while a battery of trace and
comparison mutations must each be rejected.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import FAR, mk
from planpack.generators import GeneratorConfig, generate
from planpack.golden import PHI, ZERO, TaggedWeight, golden
from planpack.model import Packet, validate
from planpack.offline import Schedule, optimal_schedule
from planpack.plan import PendingPacket, SlackProfile
from planpack.schedulers import ArrivalEvent, RunTrace, ScheduleEvent, run
from planpack.trace_io import format_trace, parse_trace
from planpack import verifier as verifier_module
from planpack.verifier import (
    InfeasibleComparison,
    InvariantViolation,
    RealEntry,
    ShadowEntry,
    TraceMismatch,
    Verifier,
    VerifierError,
    verify_trace,
)


def random_feasible_schedule(instance, rng: random.Random) -> Schedule:
    """A random feasible schedule: random subset, slots assigned in
    deadline order to the earliest free slot inside each window."""
    ids = [p.id for p in instance.packets]
    rng.shuffle(ids)
    take = ids[: rng.randint(0, len(ids))]
    by_id = instance.by_id()
    used: set[int] = set()
    assignment: dict[int, int] = {}
    total = Fraction(0)
    for pid in sorted(take, key=lambda i: (by_id[i].deadline, i)):
        p = by_id[pid]
        for slot in range(p.release, p.deadline + 1):
            if slot not in used:
                used.add(slot)
                assignment[slot] = pid
                total += p.weight
                break
    return Schedule(assignment=assignment, weight0=total)


# hand-worked ledgers


class TestW2Ledgers:
    """Both comparisons of the 3-packet instance, checked entry by entry."""

    def test_non_optimal_comparison(self, w2):
        _, trace = run("planm", w2)
        comparison = Schedule(assignment={0: 2, 1: 3}, weight0=Fraction(14))
        result = verify_trace(w2, trace, comparison)
        assert result.algorithm == "planm"
        cases = [r.case for r in result.reports]
        assert cases == ["A.2.b", "A.2.a", "A.1", "L.S.1", "O.1"]
        leap = result.reports[3]
        assert leap.advgain == 14 - 4
        assert leap.dweights == 1
        assert leap.margin == golden(-10, 9)
        last = result.reports[4]
        assert last.advgain == 4
        assert last.margin == golden(1, 0)
        assert last.psi_after == ZERO
        s = result.summary
        assert s.advgain_total == 14
        assert s.gain0 == 14
        assert s.gain_current == 15
        assert s.weight_increase_total == 1
        assert s.bound_margin == golden(-14, 14)

    def test_optimal_comparison_till_equality(self, w2):
        _, trace = run("planm", w2)
        result = verify_trace(w2, trace, optimal_schedule(w2))
        cases = [r.case for r in result.reports]
        assert cases == ["A.2.a", "A.2.a", "A.1", "L.S.2", "O.1"]
        leap = result.reports[3]
        assert "T[0,0] g=2 f=virtual" in leap.detail
        assert leap.advgain == 10
        assert leap.margin == golden(-15, 14)
        # the final step's inequality is exactly tight
        assert result.reports[4].margin == ZERO
        s = result.summary
        assert s.comparison_weight == 15
        assert s.advgain_total == 15
        assert s.psi_final == ZERO
        assert s.bound_margin == golden(-15, 14)


class TestW1Ledgers:
    def test_optimal_comparison(self, w1):
        _, trace = run("planm", w1)
        result = verify_trace(w1, trace, optimal_schedule(w1))
        cases = [r.case for r in result.reports]
        assert cases == ["A.2.a", "A.2.a", "A.1", "A.2.a", "O.1", "O.1", "O.1"]
        assert [r.margin for r in result.reports[4:]] == [
            golden(-3, 3),
            golden(-5, 5),
            golden(-4, 4),
        ]
        assert result.summary.advgain_total == 12
        assert result.summary.bound_margin == golden(-12, 12)

    def test_eviction_swaps_backup_membership(self, w1):
        """A fifth packet evicts the slot-0 packet; the pool swaps the
        newcomer for the evictee without touching the furloughs."""
        inst = validate(list(w1.packets) + [mk(5, 0, 1, 6)])
        _, trace = run("planm", inst)
        comparison = Schedule(assignment={0: 2, 1: 4}, weight0=Fraction(9))
        result = verify_trace(inst, trace, comparison)
        evict = result.reports[4]
        assert evict.case == "A.2.b"
        assert "swap" in evict.detail
        assert evict.margin == golden(-3, 3)
        assert [r.case for r in result.reports[5:]] == ["O.1", "O.1", "O.1"]
        assert result.reports[7].case == "O.1"
        assert result.reports[7].advgain == 0
        assert result.summary.advgain_total == 9
        assert result.summary.gain0 == 15


class TestLonePacket:
    def test_claimed_transmission_and_idle_tail(self):
        inst = validate([mk(1, 0, 2, 10)])
        _, trace = run("planm", inst)
        comparison = Schedule(assignment={2: 1}, weight0=Fraction(10))
        result = verify_trace(inst, trace, comparison)
        cases = [(r.kind, r.case) for r in result.reports]
        assert cases == [
            ("arrival", "A.2.a"),
            ("ordinary", "O.2"),
            ("idle", "ADV.0"),
            ("idle", "ADV.2"),
        ]
        step = result.reports[1]
        assert "g=1@2 f=virtual" in step.detail
        assert step.advgain == 10
        assert step.margin == golden(-10, 10)
        assert result.summary.advgain_total == 10

    def test_empty_instance(self):
        inst = validate([])
        _, trace = run("planm", inst)
        result = verify_trace(inst, trace, Schedule())
        assert result.reports == ()
        assert result.summary.advgain_total == 0
        assert result.summary.bound_margin == ZERO


# idle stretches: one event in memory, one line per slot in the file


def gap_run():
    """Two packets, idle slots 2..9, two more packets, idle slots 12..15."""
    inst = validate([mk(1, 0, 0, 5), mk(2, 0, 1, 3), mk(3, 10, 15, 4), mk(4, 10, 10, 2)])
    _, trace = run("planm", inst)
    return inst, trace, optimal_schedule(inst)


def with_events(trace, events):
    return RunTrace(trace.algorithm, events, trace.gain0, trace.scale)


def idle(t, slots):
    return ScheduleEvent(t, None, "idle", None, {}, slots)


class TestIdleStretches:
    def test_stretches_are_single_events(self):
        inst, trace, opt = gap_run()
        assert [(ev.t, ev.slots) for ev in trace.events if getattr(ev, "kind", "") == "idle"] == [
            (2, 8), (12, 4),
        ]
        result = verify_trace(inst, trace, opt)
        assert [(r.time, r.slots, r.case) for r in result.reports if r.kind == "idle"] == [
            (2, 8, "ADV.0"), (12, 4, "ADV.0"),
        ]
        assert result.summary.events == 4 + 16

    def test_owed_slot_splits_the_stretch(self):
        inst = validate([mk(1, 0, 5, 10)])
        _, trace = run("planm", inst)
        comparison = Schedule(assignment={4: 1}, weight0=Fraction(10))
        result = verify_trace(inst, trace, comparison)
        assert [(r.kind, r.time, r.slots, r.case) for r in result.reports] == [
            ("arrival", 0, 1, "A.2.a"),
            ("ordinary", 0, 1, "O.2"),
            ("idle", 1, 3, "ADV.0"),
            ("idle", 4, 1, "ADV.2"),
            ("idle", 5, 1, "ADV.0"),
        ]
        assert [r.index for r in result.reports] == [0, 1, 2, 5, 6]
        assert result.summary.events == 7

    @pytest.mark.parametrize("check_monotonicity", [False, True])
    def test_far_horizon_costs_per_packet(self, far, check_monotonicity):
        _, trace = run("planm", far, check_monotonicity=check_monotonicity)
        assert [(ev.t, ev.slots) for ev in trace.events if getattr(ev, "kind", "") == "idle"] == [
            (1, FAR - 1),
        ]
        result = verify_trace(far, trace, optimal_schedule(far))
        assert len(result.reports) == 10
        assert result.summary.events == far.horizon + 1 + len(far.packets)
        assert result.summary.advgain_total == 11

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("S,5,-,idle,-,-\n", ""), "slots 2..4 != .* slots 2..9"),
        (lambda text: text.replace("S,15,-,idle,-,-\n", ""), "slots 12..14 != .* slots 12..15"),
        (lambda text: text.replace("G,", "S,16,-,idle,-,-\nG,"), "slots 12..16 != .* slots 12..15"),
    ], ids=["line-dropped-mid-stretch", "last-line-dropped", "line-past-horizon"])
    def test_edited_trace_files(self, edit, message):
        inst, trace, opt = gap_run()
        text = format_trace(trace)
        mutant = edit(text)
        assert mutant != text
        with pytest.raises(TraceMismatch, match=message):
            verify_trace(inst, parse_trace(mutant, scale=inst.scale), opt)

    @pytest.mark.parametrize("stretch, message", [
        ([idle(2, 9)], "slots 2..10 != .* slots 2..9"),
        ([idle(2, 7)], "slots 2..8 != .* slots 2..9"),
        ([idle(2, 3), idle(5, 5)], "slots 2..4 != .* slots 2..9"),
    ], ids=["one-slot-long", "one-slot-short", "split"])
    def test_edited_stretches(self, stretch, message):
        inst, trace, opt = gap_run()
        events = list(trace.events)
        assert events[4] == idle(2, 8)
        with pytest.raises(TraceMismatch, match=message):
            verify_trace(inst, with_events(trace, events[:4] + stretch + events[5:]), opt)


class TestEventOrder:
    """The verifier takes the order of events from its own state: each
    arrival when it is due, a scheduling event only after them, up to the
    horizon, and nothing left over at the end."""

    def test_step_before_an_arrival_at_its_slot(self):
        inst, trace, opt = gap_run()
        events = list(trace.events)
        assert [type(ev).__name__ for ev in events[5:8]] == ["ArrivalEvent"] * 2 + ["ScheduleEvent"]
        swapped = events[:6] + [events[7], events[6]] + events[8:]
        with pytest.raises(TraceMismatch, match="no scheduling event is due at t=10"):
            verify_trace(inst, with_events(trace, swapped), opt)

    def test_idle_past_the_horizon(self, w2):
        _, trace = run("planm", w2)
        padded = with_events(trace, trace.events + [idle(w2.horizon + 1, 1)])
        with pytest.raises(TraceMismatch, match="no scheduling event is due at t=2"):
            verify_trace(w2, padded, optimal_schedule(w2))

    def test_arrival_after_the_last(self):
        inst, trace, opt = gap_run()
        extra = ArrivalEvent(16, mk(9, 16, 16, 1))
        with pytest.raises(TraceMismatch, match="no arrival is due at t=16"):
            verify_trace(inst, with_events(trace, trace.events + [extra]), opt)

    def test_trace_stopping_short(self):
        inst, trace, opt = gap_run()
        with pytest.raises(TraceMismatch, match="trace ends at t=12 with 0 arrivals left"):
            verify_trace(inst, with_events(trace, trace.events[:-1]), opt)
        with pytest.raises(TraceMismatch, match="trace ends at t=2 with 2 arrivals left"):
            verify_trace(inst, with_events(trace, trace.events[:4]), opt)


# frozen rare cases from randomized search


def frozen_audit(rows, assignment, marker, index):
    inst = validate([mk(*row) for row in rows])
    by_id = inst.by_id()
    weight0 = sum((by_id[p].weight for p in assignment.values()), Fraction(0))
    _, trace = run("planm", inst)
    result = verify_trace(inst, trace, Schedule(assignment=assignment, weight0=weight0))
    report = result.reports[index]
    assert marker in report.detail, report
    return result


def test_initial_group():
    frozen_audit(
        [
            (1, 0, 2, 11), (2, 0, 3, 1), (3, 0, 2, 12), (4, 0, 1, 2),
            (5, 0, 0, 4), (6, 1, 1, 1), (7, 1, 3, 10), (8, 2, 4, 9),
        ],
        {0: 5, 1: 1, 2: 3, 3: 7, 4: 8},
        "I[0,0]",
        8,
    )


def test_furlough_release_on_eviction():
    result = frozen_audit(
        [
            (1, 0, 2, 9), (2, 0, 1, 9), (3, 0, 1, 6), (4, 1, 3, 9),
            (5, 1, 2, 12), (6, 1, 1, 10), (7, 2, 2, 11),
        ],
        {0: 1, 1: 5, 2: 7, 3: 4},
        "furloughed 1, released 3",
        6,
    )
    assert result.reports[6].case == "A.2.b"


def test_middle_group_with_bump():
    frozen_audit(
        [
            (1, 0, 0, 9), (2, 0, 0, 11), (3, 1, 1, 4), (4, 1, 2, 11),
            (5, 1, 3, 3), (6, 1, 3, 3), (7, 2, 3, 8), (8, 2, 2, 3),
        ],
        {0: 1, 1: 3, 2: 4, 3: 5},
        "M.i[0,0]",
        7,
    )


def test_middle_group_without_bump():
    frozen_audit(
        [
            (1, 0, 1, 2), (2, 0, 2, 3), (3, 1, 1, 6), (4, 3, 4, 2),
            (5, 3, 3, 8), (6, 3, 5, 10), (7, 4, 6, 8), (8, 4, 6, 1),
            (9, 5, 5, 9),
        ],
        {0: 2, 3: 5, 4: 4, 5: 6, 6: 7},
        "M.ii[0,0] -> 7",
        12,
    )


# seeded sweeps


def small_instance(rng: random.Random):
    n = rng.randint(1, 9)
    horizon = rng.randint(2, 7)
    packets = []
    for i in range(1, n + 1):
        r = rng.randint(0, horizon - 1)
        d = rng.randint(r, min(horizon, r + rng.choice((1, 2, horizon))))
        packets.append(mk(i, r, d, rng.randint(1, 12)))
    return validate(packets)


@pytest.mark.parametrize("seed", range(12))
def test_sweep_against_assorted_comparisons(seed):
    rng = random.Random(5000 + seed)
    for _ in range(25):
        inst = small_instance(rng)
        _, trace = run("planm", inst)
        for comparison in (
            optimal_schedule(inst),
            random_feasible_schedule(inst, rng),
            Schedule(),
        ):
            result = verify_trace(inst, trace, comparison)
            assert result.summary.advgain_total == comparison.weight0
            assert result.summary.psi_final == ZERO


def test_fractional_weights_sweep():
    rng = random.Random(424242)
    for _ in range(40):
        n = rng.randint(2, 7)
        packets = []
        for i in range(1, n + 1):
            r = rng.randint(0, 4)
            d = rng.randint(r, r + rng.randint(0, 3))
            w = Fraction(rng.randint(1, 60), rng.randint(1, 7))
            packets.append(Packet(i, r, d, w))
        inst = validate(packets)
        _, trace = run("planm", inst)
        for comparison in (optimal_schedule(inst), random_feasible_schedule(inst, rng)):
            summary = verify_trace(inst, trace, comparison).summary
            assert summary.advgain_total == comparison.weight0
            assert summary.comparison_weight == comparison.weight0
            assert summary.gain0 == trace.gain0
            assert summary.psi_final == ZERO
            assert summary.bound_margin == PHI * trace.gain0 - comparison.weight0


# the audit's slack profiles against the pool rebuilt as a list and
# recounted from the definition


def pslack_def(pool, start: int, tau: int) -> int:
    """pslack of slot tau counted from slot start; a packet due before
    start counts against every slot."""
    return (tau - start + 1) - sum(1 for p in pool if p.deadline <= tau)


def tights_def(pool, start: int, sentinel: int) -> list[int]:
    real = [tau for tau in range(start, sentinel) if pslack_def(pool, start, tau) == 0]
    return [start - 1] + real + [sentinel]


def rebuilt_floor(furloughs, members, claimed, start, sentinel) -> tuple[int, int, int]:
    """The backup pool listed without the audit's builder: every
    furlough, then every member no timetable entry claims.  Returns its
    slack floor from slot start, recounted slot by slot, the first slot
    reaching it (start - 1 when none is negative) and its weight."""
    pool = list(furloughs) + [p for p in members if p.id not in claimed]
    slacks = [pslack_def(pool, start, tau) for tau in range(start, sentinel + 1)]
    floor = min([0] + slacks)
    slot = start - 1 if floor == 0 else start + slacks.index(floor)
    return floor, slot, sum(p.weight.value for p in pool)


def walked(profile: SlackProfile) -> tuple[int, int, int]:
    """A profile's floor, floor slot and weight."""
    return (*profile.floor, profile.weight)


def rebuilt_pool(verifier: Verifier) -> tuple[int, int, int]:
    """The live backup pool's floor, floor slot and weight, rebuilt."""
    state = verifier._state
    claimed = {e.packet_id for e in verifier._timetable.values() if isinstance(e, RealEntry)}
    furloughs = [state.packets[fid] for fid in verifier._furloughed]
    return rebuilt_floor(furloughs, state.plan_members(), claimed, state.t, state.sentinel)


def walked_pool(verifier: Verifier) -> tuple[int, int, int]:
    """The live backup pool's floor, floor slot and weight, walked."""
    state = verifier._state
    pool = verifier._backup_pool(state.packets, state.iter_members(), verifier._real_entries())
    return walked(SlackProfile(pool, state.t, state.sentinel))


def sampled_audits(seed: int, rng: random.Random):
    """The pinned instance whose leap charges an M.i group and 30 small
    instances per seed, each audited against the optimum and a random
    feasible schedule; yields (instance number, instance, trace,
    comparison)."""
    instances = [generate(GeneratorConfig(
        "s-bounded", 20, seed=7, packets_per_step=4, weight_max=20, span=4
    ))]
    for n in range(30):
        if n % 3:
            instances.append(small_instance(rng))
        else:
            instances.append(generate(GeneratorConfig(
                "s-bounded", 12, seed=100 * seed + n, packets_per_step=3, weight_max=20, span=4
            )))
    for n, inst in enumerate(instances):
        _, trace = run("planm", inst)
        for comparison in (optimal_schedule(inst), random_feasible_schedule(inst, rng)):
            yield n, inst, trace, comparison


def spare_packets(verifier: Verifier, packets) -> list[int]:
    """Pending packets outside the plan that are not furloughed."""
    return [
        pid for pid, p in packets.items() if not p.in_plan and pid not in verifier._furloughed
    ]


@pytest.mark.parametrize("seed", range(4))
def test_pool_walk_matches_the_rebuilt_pool(seed, monkeypatch):
    """After every event of a seeded sample of audits, the walk's floor,
    floor slot and weight are the rebuilt pool's.  In half of the audits
    each event also gets a few pending non-plan packets furloughed for
    the comparison alone, which often overfills the pool."""
    rng = random.Random(8100 + seed)
    seen: Counter = Counter()
    inject = False
    post_event_checks = Verifier._post_event_checks

    def checked(verifier):
        post_event_checks(verifier)
        assert walked_pool(verifier) == rebuilt_pool(verifier)
        seen["furloughs"] += bool(verifier._furloughed)
        spare = spare_packets(verifier, verifier._state.packets)
        if inject and spare:
            extra = rng.sample(spare, rng.randint(1, len(spare)))
            verifier._furloughed.update(extra)
            walk = walked_pool(verifier)
            assert walk == rebuilt_pool(verifier)
            verifier._furloughed.difference_update(extra)
            seen["injected"] += 1
            seen["overfull"] += walk[0] < 0

    monkeypatch.setattr(Verifier, "_post_event_checks", checked)
    for n, inst, trace, comparison in sampled_audits(seed, rng):
        inject = n % 2 == 1
        verify_trace(inst, trace, comparison)
    assert min(seen["furloughs"], seen["injected"], seen["overfull"]) > 0, seen


@pytest.mark.parametrize("seed", range(4))
def test_working_pool_walk_matches_the_rebuilt_pool(seed, monkeypatch):
    """At every advance of a leap's working plan, the floor the audit
    walked from t+1 is the rebuilt pool's.  In half of the audits a few
    of the pending non-plan packets before the leap are then furloughed
    for the comparison alone; those due at t count at t+1."""
    rng = random.Random(8200 + seed)
    seen: Counter = Counter()
    inject = False
    profiles = []
    advance_working = Verifier._advance_working

    def recorded_profile(pool, start, sentinel):
        profiles.append(SlackProfile(pool, start, sentinel))
        return profiles[-1]

    def checked(verifier, window, a, b):
        advance_working(verifier, window, a, b)
        pre, claimed = window.pre, verifier._real_entries()
        members = list(window.working.values())
        furloughs = [pre.packets[fid] for fid in verifier._furloughed]
        expected = rebuilt_floor(furloughs, members, claimed, pre.t + 1, pre.sentinel)
        assert walked(profiles[-1]) == expected
        seen["advances"] += 1
        seen["furloughs"] += bool(furloughs)
        spare = spare_packets(verifier, pre.packets)
        if inject and spare:
            extra = rng.sample(spare, rng.randint(1, len(spare)))
            verifier._furloughed.update(extra)
            pool = verifier._backup_pool(pre.packets, window.plan(), claimed)
            walk = walked(SlackProfile(pool, pre.t + 1, pre.sentinel))
            furloughs += [pre.packets[fid] for fid in extra]
            assert walk == rebuilt_floor(furloughs, members, claimed, pre.t + 1, pre.sentinel)
            verifier._furloughed.difference_update(extra)
            seen["injected"] += 1
            seen["due at t"] += any(pre.packets[fid].deadline == pre.t for fid in extra)
            seen["overfull"] += walk[0] < 0

    monkeypatch.setattr(verifier_module, "SlackProfile", recorded_profile)
    monkeypatch.setattr(Verifier, "_advance_working", checked)
    for n, inst, trace, comparison in sampled_audits(seed, rng):
        inject = n % 2 == 1
        verify_trace(inst, trace, comparison)
    assert min(seen.values()) > 0 and len(seen) == 5, seen


@pytest.mark.parametrize("seed", range(4))
def test_cover_ranges_match_the_rebuilt_pool(seed, monkeypatch):
    """Every range a furlough is released from, by _restore_backup (eta,
    eta') and by A.2.b (lam, xi_b), is the one profiles of the plan and
    of the rebuilt pool give.  The plan is the one before the arrival on
    an arrival, the plan before the transmission at an adversary step
    or in a leap's first segment, and the working plan in a middle
    group.  The expected ranges come from the tight slots of the plan
    and of the rebuilt pool, recounted from the definition."""
    rng = random.Random(8300 + seed)
    seen: Counter = Counter()
    context = {}
    cover_range = Verifier._cover_range

    def checked(verifier, reference, members, claimed, deadline):
        t, sentinel = reference.t, reference.sentinel
        furloughs = [reference.packets[fid] for fid in verifier._furloughed]
        pool = furloughs + [p for p in members if p.id not in claimed]
        expected = (
            max(s for s in tights_def(members, t, sentinel) if s < deadline),
            min(s for s in tights_def(pool, t, sentinel)[1:] if s >= deadline),
        )
        deadlines = [p.deadline for p in members]
        assert deadlines == sorted(deadlines)
        kind = context.get("kind", "snapshot")
        if kind == "arrival":
            assert {p.id: p.deadline for p in members} == context["plan"]
        elif kind == "snapshot":
            assert members == reference.plan_members()
        seen[kind] += 1
        assert cover_range(verifier, reference, members, claimed, deadline) == expected
        return expected

    def within(name, kind):
        method = getattr(Verifier, name)

        def wrapped(verifier, *args):
            state = verifier._state
            context.update(kind=kind, plan={p.id: p.deadline for p in state.plan_members()})
            try:
                return method(verifier, *args)
            finally:
                context.clear()

        monkeypatch.setattr(Verifier, name, wrapped)

    monkeypatch.setattr(Verifier, "_cover_range", checked)
    within("on_arrival", "arrival")
    within("_middle_group", "working")
    for _, inst, trace, comparison in sampled_audits(seed, rng):
        verify_trace(inst, trace, comparison)
    assert min(seen["arrival"], seen["snapshot"], seen["working"]) > 0, seen


# the shared slack profile against a brute-force recount

SENTINEL = 13
members = st.lists(st.integers(min_value=-2, max_value=SENTINEL + 3), max_size=8)


@given(members, st.integers(min_value=0, max_value=SENTINEL))
@example([-2, -2], 0)                                   # zero at slot 1, no deadline
@example([SENTINEL, SENTINEL + 2], 0)                   # counted at the sentinel only
@example([SENTINEL] * 2, SENTINEL - 1)                  # zero at the sentinel
@example([SENTINEL] * 5 + [SENTINEL + 1], SENTINEL - 3)  # sentinel overfilled
def test_slack_helpers_match_recount(deadlines, t):
    sentinel = SENTINEL

    def counted(tau):
        return sum(1 for d in deadlines if d <= tau)

    ordered = [
        PendingPacket(i, 1, TaggedWeight(2**i, i), d) for i, d in enumerate(sorted(deadlines))
    ]
    profile = SlackProfile(ordered, t, sentinel)
    direct = [(tau - t + 1) - counted(tau) for tau in range(t, sentinel + 1)]

    slack, slot = profile.floor
    assert slack == min([0] + direct)
    if slack < 0:
        assert (slot - t + 1) - counted(slot) == slack
        assert all(x > slack for x in direct[: slot - t])
    else:
        assert slot == t - 1

    assert profile.weight == 2 ** len(ordered) - 1

    tights = profile.tights
    expected = [
        tau for tau in range(t, sentinel) if (tau - t + 1) - counted(tau) == 0
    ]
    assert tights == [t - 1] + expected + [sentinel]

    for tau in range(t - 2, sentinel + 3):
        assert profile.nextts(tau) == min(
            [s for s in tights[1:] if s >= tau], default=sentinel
        )
        assert profile.prevts(tau) == max(
            [s for s in tights[1:] if s < tau], default=t - 1
        )


# rejection paths


class TestRejection:
    @pytest.fixture
    def audited(self, w2):
        _, trace = run("planm", w2)
        return w2, trace, optimal_schedule(w2)

    def test_greedy_traces_are_not_auditable(self, w2):
        _, trace = run("greedy", w2)
        with pytest.raises(TraceMismatch):
            verify_trace(w2, trace, optimal_schedule(w2))

    def test_infeasible_comparisons(self, audited):
        inst, trace, opt = audited
        bad = [
            Schedule(assignment=opt.assignment, weight0=opt.weight0 + 1),
            Schedule(assignment={0: 99}, weight0=Fraction(1)),
            Schedule(assignment={0: 1, 1: 1}, weight0=Fraction(10)),
            Schedule(assignment={1: 1}, weight0=Fraction(5)),
        ]
        for comparison in bad:
            with pytest.raises(InfeasibleComparison):
                verify_trace(inst, trace, comparison)

    def test_truncated_and_padded_traces(self, audited):
        inst, trace, opt = audited
        shorter = RunTrace(trace.algorithm, trace.events[:-1], trace.gain0, trace.scale)
        with pytest.raises(TraceMismatch):
            verify_trace(inst, shorter, opt)
        padded = RunTrace(
            trace.algorithm,
            trace.events + [ScheduleEvent(2, None, "idle", None, {})],
            trace.gain0,
            trace.scale,
        )
        with pytest.raises(TraceMismatch):
            verify_trace(inst, padded, opt)

    def test_gain_footer_tamper(self, audited):
        inst, trace, opt = audited
        bad = RunTrace(trace.algorithm, trace.events, trace.gain0 + 1, trace.scale)
        with pytest.raises(TraceMismatch):
            verify_trace(inst, bad, opt)

    def test_ops_rejected_after_finalize(self, w2):
        _, trace = run("planm", w2)
        verifier = Verifier(w2, optimal_schedule(w2))
        for ev in trace.events:
            if isinstance(ev, ArrivalEvent):
                verifier.on_arrival(ev)
            elif ev.kind == "ordinary":
                verifier.on_ordinary_step(ev)
            else:
                verifier.on_leap_step(ev)
        verifier.finalize()
        with pytest.raises(VerifierError):
            verifier.finalize()
        with pytest.raises(VerifierError):
            verifier.on_idle(ScheduleEvent(2, None, "idle", None, {}))

    def test_trace_weights_over_another_denominator(self):
        inst = validate([mk(1, 0, 0, Fraction(1, 3)), mk(2, 0, 1, 2)])
        _, trace = run("planm", inst)
        arrival = 'A,0,{"id":1,"r":0,"d":0,"w":"1/3"}\n'
        text = format_trace(trace)
        assert arrival in text
        mutant = parse_trace(
            text.replace(arrival, arrival.replace("1/3", "1/6")), scale=inst.scale
        )
        with pytest.raises(TraceMismatch, match='"w":"1/6"} != A,0,.*"w":"1/3"}; event=0'):
            verify_trace(inst, mutant, optimal_schedule(inst))

    def test_overfull_backup_pool(self, w2):
        verifier = Verifier(w2, Schedule(assignment={}, weight0=Fraction(0)))
        for packet in w2.packets:
            verifier.on_arrival(ArrivalEvent(packet.release, packet))
        assert 3 not in verifier._state.plan_ids()
        verifier._furloughed.add(3)
        with pytest.raises(InvariantViolation, match="overfills slot 1 by 1"):
            verifier._post_event_checks()

    @pytest.fixture
    def one_claim(self):
        """A verifier after the arrivals of an instance whose one claimed
        packet, 1, could still reach slot 2."""
        inst = validate([mk(1, 0, 3, 5), mk(2, 0, 3, 1)])
        verifier = Verifier(inst, Schedule(assignment={0: 1}, weight0=Fraction(5)))
        for packet in inst.packets:
            verifier.on_arrival(ArrivalEvent(packet.release, packet))
        assert verifier._timetable == {0: RealEntry(1)}
        return verifier

    def test_furlough_not_pending(self, one_claim):
        one_claim._furloughed.add(9)
        with pytest.raises(InvariantViolation, match="furloughed packet 9 not pending"):
            one_claim._post_event_checks()

    def test_furlough_search_finds_a_furlough_not_pending(self, one_claim):
        one_claim._furloughed.add(9)
        with pytest.raises(InvariantViolation, match="furloughed packet 9 not pending"):
            one_claim._first_furlough(one_claim._state.packets, -1, 9)

    def test_furlough_in_the_plan(self, one_claim):
        assert 2 in one_claim._state.plan_ids()
        one_claim._furloughed.add(2)
        with pytest.raises(InvariantViolation, match="furloughed packet 2 is in the plan"):
            one_claim._post_event_checks()

    def test_packet_holding_two_slots(self, one_claim):
        one_claim._timetable[2] = RealEntry(1)
        with pytest.raises(InvariantViolation, match="packet 1 holds two timetable slots"):
            one_claim._post_event_checks()

    def test_drifted_potential(self, one_claim):
        one_claim._potential += golden(0, 1)
        with pytest.raises(InvariantViolation, match="running potential drifted"):
            one_claim._post_event_checks()

    def test_arrival_at_wrong_time(self, w2):
        verifier = Verifier(w2, optimal_schedule(w2))
        with pytest.raises(TraceMismatch):
            verifier.on_arrival(ArrivalEvent(1, mk(1, 1, 1, 5)))

    def test_unknown_packet_arrival(self, w2):
        verifier = Verifier(w2, optimal_schedule(w2))
        with pytest.raises(TraceMismatch):
            verifier.on_arrival(ArrivalEvent(0, mk(9, 0, 1, 5)))


def mutate_trace(trace, inst, rng: random.Random):
    """One random structural mutation of a trace; returns (name, trace)."""
    events = list(trace.events)
    arr = [i for i, e in enumerate(events) if isinstance(e, ArrivalEvent)]
    ords = [
        i
        for i, e in enumerate(events)
        if isinstance(e, ScheduleEvent) and e.kind == "ordinary"
    ]
    leaps = [
        i
        for i, e in enumerate(events)
        if isinstance(e, ScheduleEvent) and e.kind.endswith("-leap")
    ]

    def rebuild(evs, gain0=None):
        return RunTrace(
            trace.algorithm, list(evs), trace.gain0 if gain0 is None else gain0, trace.scale
        )

    choices = ["footer", "truncate", "pad"]
    if arr:
        choices += ["arr-drop", "arr-dup", "arr-weight", "arr-deadline"]
    if ords:
        choices += ["pid", "kind"]
    if leaps:
        choices += ["leap-ell", "leap-promote", "dweights"]
    name = rng.choice(choices)
    if name == "footer":
        return name, rebuild(events, trace.gain0 + Fraction(1, 3))
    if name == "truncate":
        return name, rebuild(events[:-1])
    if name == "pad":
        extra = ScheduleEvent(inst.horizon + 1, None, "idle", None, {})
        return name, rebuild(events + [extra])
    if name.startswith("arr"):
        j = rng.choice(arr)
        ev = events[j]
        p = ev.packet
        if name == "arr-drop":
            return name, rebuild(events[:j] + events[j + 1 :])
        if name == "arr-dup":
            return name, rebuild(events[:j] + [ev] + events[j:])
        if name == "arr-weight":
            bad = Packet(p.id, p.release, p.deadline, p.weight + 1)
        else:
            bad = Packet(p.id, p.release, p.deadline + 1, p.weight)
        return name, rebuild(
            events[:j] + [ArrivalEvent(ev.t, bad)] + events[j + 1 :]
        )
    if name in ("pid", "kind"):
        j = rng.choice(ords)
        ev = events[j]
        if name == "pid":
            mutant = dataclasses.replace(ev, p_id=ev.p_id + 1)
        else:
            mutant = dataclasses.replace(ev, kind="idle", p_id=None)
        return name, rebuild(events[:j] + [mutant] + events[j + 1 :])
    j = rng.choice(leaps)
    ev = events[j]
    rec = ev.leap
    if name == "leap-ell":
        mutant = dataclasses.replace(ev, leap=dataclasses.replace(rec, ell_id=rec.p_id))
    elif name == "leap-promote":
        bumped = TaggedWeight(
            rec.rho_new_weight.value + 1, rec.rho_new_weight.tiebreak
        )
        mutant = dataclasses.replace(
            ev,
            leap=dataclasses.replace(rec, rho_new_weight=bumped),
            dweights={**ev.dweights, rec.rho_id: bumped},
        )
    else:
        mutant = dataclasses.replace(ev, dweights={})
    return name, rebuild(events[:j] + [mutant] + events[j + 1 :])


def test_mutation_battery_is_always_detected():
    rng = random.Random(314159)
    detected = 0
    while detected < 60:
        inst = small_instance(rng)
        _, trace = run("planm", inst)
        if not trace.events:
            continue
        opt = optimal_schedule(inst)
        name, mutant = mutate_trace(trace, inst, rng)
        if mutant == trace:
            continue
        with pytest.raises(VerifierError):
            verify_trace(inst, mutant, opt)
        detected += 1


# work counts


def test_audit_snapshots_the_plan_and_never_clones(fig1, plan_calls):
    """The engine replaces every packet an event changes, so the audit
    keeps the state before an ordinary step and a leap alike as a
    snapshot and never builds a full clone."""
    _, trace = run("planm", fig1)
    kinds = Counter(getattr(ev, "kind", "arrival") for ev in trace.events)
    assert kinds == {"arrival": 8, "ordinary": 5, "simple-leap": 3}
    plan_calls.clear()
    verify_trace(fig1, trace, optimal_schedule(fig1))
    # one refresh for the empty start, one per arrival (all admitted at
    # t = 0), one per ordinary step and one per leap
    assert plan_calls == Counter({"clone": 0, "snapshot": 8, "refresh": 1 + 8 + 5 + 3})


# report surfaces


def test_reports_expose_exact_arithmetic(w2):
    _, trace = run("planm", w2)
    result = verify_trace(w2, trace, optimal_schedule(w2))
    for rep in result.reports:
        assert rep.dpsi_total == rep.dpsi_adv + rep.dpsi_initseg + rep.dpsi_window
        assert isinstance(rep.advgain, int)
        assert isinstance(result.scale.rational(rep.advgain), Fraction)
    assert result.summary.events == len(result.reports)


def test_timetable_entry_types_are_distinct():
    real = RealEntry(3)
    shadow = ShadowEntry(Fraction(5))
    assert real != shadow
    assert shadow.weight == 5
