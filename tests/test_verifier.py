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
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import mk
from planpack.golden import PHI, ZERO, TaggedWeight, golden
from planpack.model import Packet, validate
from planpack.offline import Schedule, optimal_schedule
from planpack.schedulers import ArrivalEvent, RunTrace, ScheduleEvent, run
from planpack.trace_io import format_trace, parse_trace
from planpack.verifier import (
    GroupDecomposition,
    InfeasibleComparison,
    InvariantViolation,
    RealEntry,
    ShadowEntry,
    TraceMismatch,
    Verifier,
    VerifierError,
    _next_tight,
    _prev_tight,
    _pslack_floor,
    _tight_slots,
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


# slack helpers against a brute-force recount

members = st.lists(st.integers(min_value=-2, max_value=12), max_size=8)


@given(members, st.integers(min_value=0, max_value=4))
def test_slack_helpers_match_recount(deadlines, t):
    sentinel = 13

    def counted(tau):
        return sum(1 for d in deadlines if d <= tau)

    slack, slot = _pslack_floor(deadlines, t, sentinel)
    direct = [(tau - t + 1) - counted(tau) for tau in range(t, sentinel + 1)]
    assert slack == min([0] + direct)
    if slack < 0:
        assert (slot - t + 1) - counted(slot) == slack
        assert all(x > slack for x in direct[: slot - t])

    tights = _tight_slots(deadlines, t, sentinel)
    expected = [
        tau for tau in range(t, sentinel) if (tau - t + 1) - counted(tau) == 0
    ]
    assert tights == expected + [sentinel]

    for tau in range(t, sentinel + 1):
        assert _next_tight(deadlines, t, sentinel, tau) == min(
            [s for s in tights if s >= tau], default=sentinel
        )
        assert _prev_tight(deadlines, t, sentinel, tau) == max(
            [s for s in tights if s < tau], default=t - 1
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
                verifier.on_arrival(ev.packet)
            elif ev.kind == "ordinary":
                verifier.on_ordinary_step(ev.t, ev.p_id)
            else:
                verifier.on_leap_step(ev.t, ev.leap)
        verifier.finalize()
        with pytest.raises(VerifierError):
            verifier.finalize()
        with pytest.raises(VerifierError):
            verifier.on_idle(2)

    def test_trace_weights_over_another_denominator(self):
        inst = validate([mk(1, 0, 0, Fraction(1, 3)), mk(2, 0, 1, 2)])
        _, trace = run("planm", inst)
        arrival = 'A,0,{"id":1,"r":0,"d":0,"w":"1/3"}\n'
        text = format_trace(trace)
        assert arrival in text
        mutant = parse_trace(text.replace(arrival, arrival.replace("1/3", "1/6")))
        with pytest.raises(TraceMismatch, match="common denominator"):
            verify_trace(inst, mutant, optimal_schedule(inst))

    def test_arrival_at_wrong_time(self, w2):
        verifier = Verifier(w2, optimal_schedule(w2))
        with pytest.raises(TraceMismatch):
            verifier.on_arrival(mk(1, 1, 1, 5))

    def test_unknown_packet_arrival(self, w2):
        verifier = Verifier(w2, optimal_schedule(w2))
        with pytest.raises(TraceMismatch):
            verifier.on_arrival(mk(9, 0, 1, 5))


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
    shadow = ShadowEntry(Fraction(5), 0)
    assert real != shadow
    assert shadow.weight == 5
    decomposition = GroupDecomposition(
        anchors=(0,), groups=((0, 0, "terminal"),), g_id=2, g_index=0
    )
    assert decomposition.groups[0][2] == "terminal"
