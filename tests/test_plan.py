"""Plan engine tests.

Two independent routes check the incremental engine: compute_plan (a
from-scratch greedy over the same weight order) and, for small pending
sets, an exhaustive search for the feasible subset whose sorted weight
vector is lexicographically largest.  Slot queries are checked against
direct recomputations from the definitions, and against a clone, which
rebuilds every structure the events update in place.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planpack.golden import TaggedWeight, TiebreakSource
from planpack.model import tagged_weight_map
from planpack.schedulers import planm_step
from planpack.plan import (
    ZERO_WEIGHT,
    InInitSegError,
    NotInInitSegError,
    OutOfRangeError,
    PlanError,
    PlanState,
    SlackProfile,
    compute_plan,
)

# independent oracles


def feasible(deadlines: list[int], t: int) -> bool:
    """One packet per slot starting at t, all on time."""
    return all(d >= t + i for i, d in enumerate(sorted(deadlines)))


def lexmax_feasible_subset(items, t):
    """Exhaustive reference for plan membership (items small).

    items: (id, deadline, TaggedWeight).  Among feasible subsets,
    maximizes the descending weight vector lexicographically; a longer
    vector beats its own prefix.
    """
    best_ids, best_key = set(), []
    for mask in range(1 << len(items)):
        sub = [items[i] for i in range(len(items)) if mask >> i & 1]
        if not feasible([d for _, d, _ in sub], t):
            continue
        key = sorted((w for _, _, w in sub), reverse=True)
        if key > best_key:
            best_key = key
            best_ids = {pid for pid, _, _ in sub}
    return best_ids


def pslack_def(members, t: int, tau: int) -> int:
    return (tau - t + 1) - sum(1 for p in members if t <= p.deadline <= tau)


def tights_def(members, t: int, sentinel: int) -> list[int]:
    real = [tau for tau in range(t, sentinel) if pslack_def(members, t, tau) == 0]
    return [t - 1] + real + [sentinel]


def minwt_def(members, t: int, sentinel: int, tau: int) -> TaggedWeight:
    nt = min(s for s in tights_def(members, t, sentinel) if s >= tau)
    if nt == sentinel:
        return ZERO_WEIGHT
    return min(p.weight for p in members if p.deadline <= nt)


def items_of(state: PlanState):
    return [(p.id, p.deadline, p.weight) for p in state.packets.values()]


def check_against_oracles(state: PlanState, exhaustive: bool = True) -> None:
    members = state.plan_members()
    assert state.plan_ids() == compute_plan(items_of(state), state.t, state.sentinel)
    if exhaustive and len(state.packets) <= 10:
        assert state.plan_ids() == lexmax_feasible_subset(items_of(state), state.t)

    t, H = state.t, state.sentinel
    assert state.tights == tights_def(members, t, H)
    for tau in range(t, H + 1):
        assert state.minwt(tau) == minwt_def(members, t, H, tau)
        nt = state.nextts(tau)
        assert nt >= tau and nt in state.tights
        pt = state.prevts(tau)
        assert pt < tau and pt in state.tights

    # substitutes: first-segment packets fall back on the lightest one
    # there; others on the heaviest outsider alive past the previous
    # tight slot, with the zero padding as last resort
    nonplan = [p for p in state.packets.values() if not p.in_plan]
    for p in nonplan:
        assert p.weight < state.minwt(p.deadline)
    first_hi = state.tights[1]
    for p in members:
        sub = state.substitute(p.id)
        if p.deadline <= first_hi:
            ell = state.lightest_initseg()
            assert sub.packet is ell
        else:
            beta = state.prevts(p.deadline)
            outside = [q for q in nonplan if q.deadline > beta]
            if outside:
                assert sub.packet is max(outside, key=lambda q: q.weight)
            else:
                assert sub.packet is None
                assert sub.deadline == beta + 1
                assert sub.weight == ZERO_WEIGHT


# fixture states


def state_from(instance, t=0, sentinel=None) -> PlanState:
    src = TiebreakSource()
    weights = tagged_weight_map(instance, src)
    state = PlanState(t, instance.sentinel if sentinel is None else sentinel, src)
    for p in instance.packets:
        state.apply_arrival(p.id, p.deadline, weights[p.id])
    return state


def test_w1_structure(w1):
    state = state_from(w1)
    assert state.plan_ids() == {1, 2, 4}
    assert sum(state.packets[pid].weight.value for pid in state.plan_ids()) == 12
    assert state.tights == [-1, 0, 1, 2, 3]
    assert [pslack_def(state.plan_members(), 0, tau) for tau in range(-1, 4)] == [0, 0, 0, 0, 1]
    for tau in (0, 1, 2):
        assert state.minwt(tau).value == 3
        assert state.minwt_packet(tau).id == 1
    assert state.minwt(3) == ZERO_WEIGHT
    assert state.minwt_packet(3) is None
    check_against_oracles(state)


def test_w1_substitutes(w1):
    state = state_from(w1)
    assert state.substitute(1).packet.id == 1      # a backs itself up
    assert state.substitute(2).packet.id == 3      # c steps in for b
    sub_e = state.substitute(4)                    # nothing left for e
    assert sub_e.packet is None
    assert sub_e.deadline == 2
    assert sub_e.weight == ZERO_WEIGHT
    entries = state.segment_entries()
    assert [(seg, p.id) for seg, p, _ in entries] == [(1, 1), (2, 2), (3, 4)]


def test_w1_arrival_outcomes(w1):
    src = TiebreakSource()
    weights = tagged_weight_map(w1, src)
    state = PlanState(0, w1.sentinel, src)
    outcomes = [
        state.apply_arrival(p.id, p.deadline, weights[p.id])
        for p in w1.packets
    ]
    assert [(o.admitted, o.evicted_id) for o in outcomes] == [
        (True, None), (True, None), (False, None), (True, None),
    ]


def test_rejected_arrival_makes_no_refresh(w1, plan_calls):
    """A rejected arrival leaves every plan member where it was, so it
    only enters the non-plan index."""
    src = TiebreakSource()
    weights = tagged_weight_map(w1, src)
    state = PlanState(0, w1.sentinel, src)
    work = []
    for p in w1.packets:
        plan_calls.clear()
        out = state.apply_arrival(p.id, p.deadline, weights[p.id])
        work.append((out.admitted, plan_calls["refresh"]))
    assert work == [(True, 1), (True, 1), (False, 0), (True, 1)]
    assert [q.id for q in state._nonplan] == [3]
    check_against_oracles(state)


def test_w1_heavier_arrival_evicts_threshold_packet(w1):
    state = state_from(w1)
    out = state.apply_arrival(9, 1, TaggedWeight(Fraction(6), -9))
    assert out.admitted and out.evicted_id == 1
    assert state.plan_ids() == {9, 2, 4}
    assert sum(state.packets[pid].weight.value for pid in state.plan_ids()) == 15
    check_against_oracles(state)


def test_w1_light_arrival_rejected(w1):
    state = state_from(w1)
    out = state.apply_arrival(9, 1, TaggedWeight(Fraction(1, 2), -9))
    assert not out.admitted
    assert state.plan_ids() == {1, 2, 4}
    check_against_oracles(state)


def test_w1_initseg_transmission(w1):
    state = state_from(w1)
    state.apply_schedule_initseg(1)
    assert state.t == 1
    assert state.plan_ids() == {2, 4}
    assert state.tights == [0, 1, 2, 3]
    check_against_oracles(state)


def test_w2_structure(w2):
    state = state_from(w2)
    assert state.plan_ids() == {1, 2}
    assert state.tights == [-1, 0, 1, 2]
    assert state.nextts(0) == 0
    assert state.prevts(1) == 0
    assert state.minwt(0).value == 5
    assert state.minwt(1).value == 5
    assert state.substitute(1).packet.id == 1
    assert state.substitute(2).packet.id == 3
    check_against_oracles(state)


def test_w2_later_transmission_swaps_in_substitute(w2):
    state = state_from(w2)
    info = state.apply_schedule_later(2)
    assert (info.p_id, info.rho_id, info.ell_id) == (2, 3, 1)
    assert (info.delta, info.gamma) == (0, 1)
    assert not info.rho_was_virtual
    assert state.t == 1
    assert state.plan_ids() == {3}
    assert set(state.packets) == {3}               # the evicted packet expired
    check_against_oracles(state)


def test_fig1_structure(fig1):
    state = state_from(fig1, t=1)
    assert state.plan_ids() == {1, 2, 3, 4, 5, 6, 7}
    assert 8 not in state.plan_ids()
    assert state.packets[8].weight > state.packets[7].weight
    assert state.tights == [0, 3, 4, 7, 8]
    assert list(zip(state.tights, state.tights[1:])) == [(0, 3), (3, 4), (4, 7), (7, 8)]
    for tau in (1, 2, 3, 4):
        assert fig1.scale.rational(state.minwt(tau).value) == Fraction(1, 2)
    for tau in (5, 6, 7):
        assert fig1.scale.rational(state.minwt(tau).value) == Fraction(1, 10)
    assert state.minwt(8) == ZERO_WEIGHT
    assert state.nextts(5) == 7
    assert state.prevts(5) == 4
    slack = [pslack_def(state.plan_members(), 1, tau) for tau in range(0, 9)]
    assert slack == [0, 1, 1, 0, 0, 1, 1, 0, 1]
    check_against_oracles(state, exhaustive=False)


def test_fig1_substitutes_shared_within_segment(fig1):
    state = state_from(fig1, t=1)
    ell = state.lightest_initseg()
    assert ell.id == 3
    for pid in (1, 2, 3):
        assert state.substitute(pid).packet is ell
    sub_k = state.substitute(4)
    assert sub_k.packet is None and sub_k.deadline == 4
    for pid in (5, 6, 7):
        sub = state.substitute(pid)
        assert sub.packet is None and sub.deadline == 5
    assert state.heaviest_in_window(0, 3).id == 2
    assert state.heaviest_in_window(3, 7).id == 4
    assert state.heaviest_in_window(4, 7).id == 5


def test_fig1_membership_ignores_arrival_order(fig1):
    rng = random.Random(7)
    packets = list(fig1.packets)
    reference = None
    for _ in range(6):
        rng.shuffle(packets)
        state = PlanState(1, fig1.sentinel, TiebreakSource())
        for p in packets:
            state.apply_arrival(p.id, p.deadline, TaggedWeight(p.weight, -p.id))
        if reference is None:
            reference = state.plan_ids()
        assert state.plan_ids() == reference == {1, 2, 3, 4, 5, 6, 7}


def build(entries, t=0, sentinel=None):
    """entries: (id, deadline, weight) arriving at time t in order."""
    H = (max(d for _, d, _ in entries) + 1) if sentinel is None else sentinel
    state = PlanState(t, H, TiebreakSource())
    for pid, d, w in entries:
        state.apply_arrival(pid, d, TaggedWeight(Fraction(w), -pid))
    return state


def test_arrival_splits_segment_with_new_tight_slot():
    state = build([(1, 1, 1), (2, 1, 5)])
    assert state.tights == [-1, 1, 2]
    out = state.apply_arrival(3, 0, TaggedWeight(Fraction(3), -3))
    assert out.admitted and out.evicted_id == 1
    assert state.tights == [-1, 0, 1, 2]
    check_against_oracles(state)


def test_arrival_into_slack_tail_is_pure_add():
    state = build([(1, 2, 4), (2, 2, 6)])
    out = state.apply_arrival(3, 0, TaggedWeight(Fraction(5), -3))
    assert out.admitted and out.evicted_id is None
    assert state.plan_ids() == {1, 2, 3}
    assert 0 in state.tights
    check_against_oracles(state)


def test_later_transmission_merges_segments():
    state = build([(1, 0, 9), (2, 1, 8), (3, 2, 7), (4, 2, 5)])
    assert state.plan_ids() == {1, 2, 3}
    sub = state.substitute(2)
    assert sub.packet.id == 4
    info = state.apply_schedule_later(2)
    assert (info.rho_id, info.ell_id, info.delta, info.gamma) == (4, 1, 0, 2)
    assert state.plan_ids() == {3, 4}
    assert state.tights == [0, 2, 3]
    check_against_oracles(state)


def test_later_transmission_substitute_before_p():
    state = build([(1, 0, 9), (2, 2, 2), (3, 2, 7), (4, 1, 1)])
    assert state.plan_ids() == {1, 2, 3}
    sub = state.substitute(3)
    assert sub.packet.id == 4 and sub.deadline == 1
    info = state.apply_schedule_later(3)
    assert (info.rho_id, info.ell_id, info.delta, info.gamma) == (4, 1, 0, 2)
    assert state.plan_ids() == {2, 4}
    assert state.tights == [0, 1, 2, 3]
    check_against_oracles(state)


def test_later_transmission_materializes_virtual_substitute():
    state = build([(1, 0, 9), (2, 1, 8)])
    info = state.apply_schedule_later(2)
    assert info.rho_was_virtual
    assert info.rho_id == -1
    assert (info.ell_id, info.delta, info.gamma) == (1, 0, 1)
    rho = state.packets[-1]
    assert rho.id < 0 and rho.in_plan
    assert rho.weight == TaggedWeight(Fraction(0), -1)
    assert rho.deadline == 1
    check_against_oracles(state)


def test_plan_packet_at_current_slot_never_expires():
    state = build([(1, 0, 5), (2, 0, 3)])
    assert state.plan_ids() == {1}
    state.apply_schedule_initseg(1)
    assert state.packets == {}                     # loser expired with its slot
    with pytest.raises(PlanError, match="passes the sentinel 1"):
        state.advance_idle(1)
    assert state.t == 1


def test_idle_stretch_advances_in_one_step():
    state = PlanState(0, 10)
    state.advance_idle(7)
    assert state.t == 7
    assert state.tights == [6, 10]
    for slots in (0, -1):
        with pytest.raises(PlanError):
            state.advance_idle(slots)
    assert state.t == 7


def test_errors():
    state = build([(1, 0, 9), (2, 1, 8), (3, 2, 7)])
    with pytest.raises(NotInInitSegError):
        state.apply_schedule_initseg(2)
    with pytest.raises(InInitSegError):
        state.apply_schedule_later(1)
    with pytest.raises(OutOfRangeError):
        state.prevts(state.t - 1)
    with pytest.raises(OutOfRangeError):
        state.minwt(-1)
    with pytest.raises(OutOfRangeError):
        state.nextts(state.sentinel + 1)
    with pytest.raises(PlanError):
        state.apply_arrival(1, 1, TaggedWeight(Fraction(1), -9))
    with pytest.raises(PlanError):
        state.apply_arrival(9, state.sentinel, TaggedWeight(Fraction(1), -9))
    with pytest.raises(PlanError):
        state.advance_idle(1)


def test_overfull_plan_names_the_slot(fig1):
    state = state_from(fig1, t=1)
    state.packets[8].in_plan = True                # x joins a full first segment
    with pytest.raises(PlanError, match="plan infeasible at slot 3"):
        state.clone()                              # rebuilds from the flags


def test_empty_state():
    state = PlanState(0, 5)
    assert state.plan_ids() == set()
    assert state.lightest_initseg() is None
    assert state.tights == [-1, 5]
    assert state.minwt(3) == ZERO_WEIGHT
    assert pslack_def(state.plan_members(), 0, 5) == 6
    state.advance_idle(1)
    assert state.t == 1


def test_clone_is_independent(w1):
    state = state_from(w1)
    dup = state.clone()
    state.apply_schedule_initseg(1)
    assert dup.t == 0
    assert dup.plan_ids() == {1, 2, 4}
    assert state.plan_ids() == {2, 4}


def test_compute_plan_direct(w1, w2, fig1):
    def items(inst):
        return [(p.id, p.deadline, TaggedWeight(p.weight, -p.id)) for p in inst.packets]

    assert compute_plan(items(w1), 0, w1.sentinel) == {1, 2, 4}
    assert compute_plan(items(w2), 0, w2.sentinel) == {1, 2}
    assert compute_plan(items(fig1), 1, fig1.sentinel) == {1, 2, 3, 4, 5, 6, 7}
    assert compute_plan([], 4, 9) == set()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_event_sequences_match_oracles(seed):
    """Arrivals and transmissions of arbitrary plan packets, with the
    full oracle battery run after every event."""
    rng = random.Random(seed)
    src = TiebreakSource()
    H = 30
    state = PlanState(0, H, src)
    next_id = 1
    minwt_before = None
    for _ in range(220):
        if state.t >= H - 1:
            break
        plan = sorted(state.plan_ids())
        if rng.random() < 0.6 or not plan:
            d = min(state.t + rng.randint(0, 7), H - 1)
            w = Fraction(rng.randint(0, 12), rng.choice([1, 2, 3]))
            minwt_before = [state.minwt(tau) for tau in range(state.t, H + 1)]
            state.apply_arrival(next_id, d, TaggedWeight(w, src.sub_zero()))
            minwt_after = [state.minwt(tau) for tau in range(state.t, H + 1)]
            assert all(a >= b for a, b in zip(minwt_after, minwt_before))
            next_id += 1
        else:
            pid = rng.choice(plan)
            if state.tights[0] < state.packets[pid].deadline <= state.tights[1]:
                state.apply_schedule_initseg(pid)
            else:
                state.apply_schedule_later(pid)
        check_against_oracles(state)


# incremental updates against a from-scratch rebuild


def answers(state: PlanState) -> dict:
    """Every public query at every slot, the slack recounted over the
    members, and the non-plan index, with packets named by id so that a
    clone's answers compare equal."""
    def sub(r):
        return (None if r.packet is None else r.packet.id, r.deadline, r.weight)

    t, H = state.t, state.sentinel
    tights = state.tights
    light = state.lightest_initseg()
    return {
        "t": t,
        "tights": tights,
        "pslack": [pslack_def(state.plan_members(), t, tau) for tau in range(t - 1, H + 1)],
        "minwt": [state.minwt(tau) for tau in range(t, H + 1)],
        "nextts": [state.nextts(tau) for tau in range(t, H + 1)],
        "prevts": [state.prevts(tau) for tau in range(t, H + 1)],
        "lightest": None if light is None else light.id,
        "substitute": {pid: sub(state.substitute(pid)) for pid in sorted(state.plan_ids())},
        "entries": [(i, top.id, sub(s)) for i, top, s in state.segment_entries()],
        "heaviest": {
            (lo, hi): getattr(state.heaviest_in_window(lo, hi), "id", None)
            for lo in tights for hi in tights if lo < hi
        },
        "nonplan": [p.id for p in state._nonplan],
        "nonplan_maxd": list(state._nonplan_maxd),
    }


def check_member_list(state: PlanState) -> None:
    """The ordered member list holds exactly the flagged packets, by
    identity and in deadline order, and its tight slots are those of
    the general slack profile over the members' deadlines."""
    members = state._members
    flagged = [p for p in state.packets.values() if p.in_plan]
    assert len(members) == len(flagged)
    assert {id(p) for p in members} == {id(p) for p in flagged}
    deadlines = [p.deadline for p in members]
    assert deadlines == sorted(deadlines)
    assert state.tights == SlackProfile(members, state.t, state.sentinel).tights


def replay(ops, sentinel: int = 24) -> Counter:
    """Apply ops to a fresh state, checking after every event that the
    incrementally kept structure answers as a clone does, and that a
    snapshot taken before the event, of any kind, still answers for the
    state before it: the clone taken then answers alike, and no packet
    the snapshot holds has a changed weight, deadline or flag.  The
    ordered member list is checked against the in_plan flags, neither
    the clone nor the snapshot may share it, and the heaviest pending
    packet is the plan's heaviest member, the heaviest segment maximum.
    Returns how often each kind of event occurred.

    Each op is (kind, a, b): an arrival with deadline t + a and base
    value b % 4 (so zero weights and equal base values are common), or
    a transmission of the a-th first-segment or later-segment member, or
    a planm_step.  An op that does not apply is skipped.
    """
    src = TiebreakSource()
    state = PlanState(0, sentinel, src)
    seen: Counter = Counter()
    for pid, (kind, a, b) in enumerate(ops, start=1):
        if state.t >= sentinel - 1:
            break
        before = state.clone()
        snap = state.snapshot()
        held = [(p, p.weight, p.deadline, p.in_plan) for p in snap.packets.values()]
        members = sorted(state.plan_members(), key=lambda p: (p.deadline, p.id))
        first = [p for p in members if p.deadline <= state.tights[1]]
        later = [p for p in members if p.deadline > state.tights[1]]
        pending = set(state.packets)
        sent = None
        if kind == "arrive":
            d = min(state.t + a, sentinel - 1)
            out = state.apply_arrival(pid, d, TaggedWeight(b % 4, src.sub_zero()))
            seen["evicted" if out.evicted_id is not None else
                 "admitted" if out.admitted else "rejected"] += 1
        elif kind == "initseg" and first:
            sent = first[a % len(first)].id
            state.apply_schedule_initseg(sent)
            seen["initseg"] += 1
        elif kind == "later" and later:
            sent = later[a % len(later)].id
            info = state.apply_schedule_later(sent)
            seen["virtual" if info.rho_was_virtual else "later"] += 1
        elif kind == "planm" and members:
            _, event = planm_step(state)
            sent = event.p_id
            seen[event.kind] += 1
            if event.leap is not None:
                seen["virtual"] += event.leap.rho_was_virtual
                seen["chain bump"] += len(event.dweights) - 1
        if sent is not None:
            seen["expired"] += len(pending - set(state.packets) - {sent})
        assert all(p.deadline >= state.t for p in state.packets.values())
        check_member_list(state)
        check_member_list(before)
        assert before._members is not state._members
        assert snap._members is not state._members
        assert answers(state) == answers(state.clone())
        assert answers(snap) == answers(before)
        assert all((p.weight, p.deadline, p.in_plan) == (w, d, f) for p, w, d, f in held)
        assert state.heaviest_member() is max(
            state.packets.values(), key=lambda p: p.weight, default=None
        )
    return seen


# the scheduler's own mix, which builds the segment structure that
# chain bumps need, and one that also transmits arbitrary plan members
OP_MIXES = (["arrive"] * 3 + ["planm"], ["arrive"] * 4 + ["planm"] * 2 + ["initseg", "later"])
ops = st.sampled_from(OP_MIXES).flatmap(
    lambda mix: st.lists(
        st.tuples(st.sampled_from(mix), st.integers(0, 11), st.integers(0, 11)),
        max_size=80,
    )
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ops)
def test_incremental_structure_matches_rebuild(ops):
    replay(ops)


def test_incremental_replay_reaches_every_event_kind():
    """Seeded op sequences through the same check, long enough that
    every kind of update the engine makes in place occurs."""
    rng = random.Random(11)
    seen: Counter = Counter()
    for mix in OP_MIXES:
        for _ in range(40):
            seen += replay([
                (rng.choice(mix), rng.randrange(12), rng.randrange(12)) for _ in range(80)
            ])
    for kind in ("rejected", "evicted", "admitted", "expired", "initseg", "later",
                 "virtual", "ordinary", "simple-leap", "iterated-leap", "chain bump"):
        assert seen[kind] > 0, kind
