"""Offline optimum: matched against brute force and hand-worked values."""

import random
from fractions import Fraction

import pytest

from planpack.generators import GeneratorConfig, generate
from planpack.golden import TiebreakSource
from planpack.model import Packet, tagged_weight_map, validate
from planpack.offline import (
    BRUTE_FORCE_LIMIT,
    Schedule,
    ScheduleSyntaxError,
    TightBlocks,
    TooLargeError,
    brute_force_opt,
    canonical_assignment,
    format_schedule,
    optimal_schedule,
    parse_schedule,
)
from conftest import FAR, mk


def test_empty_instance():
    sched = optimal_schedule(validate([]))
    assert sched.assignment == {} and sched.weight0 == 0
    brute = brute_force_opt(validate([]))
    assert brute.assignment == {} and brute.weight0 == 0


def test_deep_augmenting_path(chain):
    sched = optimal_schedule(chain)
    assert sched.weight0 == 2401
    assert sorted(sched.assignment) == list(range(1201))


def test_single_packet():
    inst = validate([mk(1, 0, 0, 7)])
    assert optimal_schedule(inst).weight0 == 7
    assert brute_force_opt(inst).assignment == {0: 1}


def test_two_packets_one_slot_takes_heavier():
    inst = validate([mk(1, 0, 0, 3), mk(2, 0, 0, 8)])
    for sched in (optimal_schedule(inst), brute_force_opt(inst)):
        assert sched.assignment == {0: 2}
        assert sched.weight0 == 8


def test_w2_value_and_assignment(w2):
    sched = optimal_schedule(w2)
    assert sched.assignment == {0: 1, 1: 2}
    assert sched.weight0 == 15
    assert brute_force_opt(w2).weight0 == 15


def test_w1_value_and_assignment(w1):
    sched = optimal_schedule(w1)
    assert sched.assignment == {0: 1, 1: 2, 2: 4}
    assert sched.weight0 == 12
    assert brute_force_opt(w1).weight0 == 12


def test_fig1_all_packets_fit(fig1):
    sched = optimal_schedule(fig1)
    assert set(sched.assignment.values()) == set(range(1, 9))
    assert sched.weight0 == Fraction(46, 5)


def test_release_gap_leaves_slot_empty():
    inst = validate([mk(1, 0, 0, 2), mk(2, 2, 2, 3)])
    sched = optimal_schedule(inst)
    assert sched.assignment == {0: 1, 2: 2}


def test_augmenting_path_displaces_flexible_packet():
    inst = validate([mk(1, 0, 1, 10), mk(2, 0, 0, 9), mk(3, 0, 1, 8)])
    sched = optimal_schedule(inst)
    assert sched.weight0 == 19
    assert sched.assignment == {0: 2, 1: 1}


def test_release_forces_order():
    inst = validate([mk(1, 1, 1, 5), mk(2, 0, 1, 4)])
    sched = optimal_schedule(inst)
    assert sched.assignment == {0: 2, 1: 1}
    assert sched.weight0 == 9


def test_equal_weights_resolved_by_arrival_rank():
    """Two equal-weight packets, one slot: the earlier-validated one wins."""
    inst = validate([mk(1, 0, 0, 5), mk(2, 0, 0, 5)])
    assert optimal_schedule(inst).assignment == {0: 1}


def test_phi_adversarial_all_packets_schedulable():
    inst = generate(GeneratorConfig(kind="phi-adversarial", steps=12))
    sched = optimal_schedule(inst)
    assert set(sched.assignment.values()) == {p.id for p in inst.packets}


def test_brute_force_too_large():
    inst = validate([mk(i, 0, i, 1) for i in range(1, 14)])
    with pytest.raises(TooLargeError):
        brute_force_opt(inst)


def test_canonical_assignment_reports_infeasible_sets(w2):
    assert canonical_assignment(w2, {1, 2, 3}) is None
    assert canonical_assignment(w2, {2, 3}) is not None


def test_differential_small_instances():
    rng = random.Random(20260822)
    for _ in range(200):
        n = rng.randint(0, 9)
        packets = []
        for pid in range(1, n + 1):
            r = rng.randint(0, 5)
            d = r + rng.randint(0, 4)
            w = Fraction(rng.randint(0, 20), rng.choice([1, 2]))
            packets.append(Packet(pid, r, d, w))
        inst = validate(packets)
        fast = optimal_schedule(inst)
        slow = brute_force_opt(inst)
        assert fast.weight0 == slow.weight0
        fast.check_feasible(inst)
        slow.check_feasible(inst)


def test_schedule_round_trip(w2):
    sched = optimal_schedule(w2)
    text = format_schedule(sched)
    assert text == "0,1\n1,2\nW,15/1\n"
    assert parse_schedule(text) == Schedule({0: 1, 1: 2}, Fraction(15))


def test_schedule_parse_errors():
    with pytest.raises(ScheduleSyntaxError):
        parse_schedule("0,1\n")                    # no footer
    with pytest.raises(ScheduleSyntaxError):
        parse_schedule("0,1\nW,3/1\n4,2\n")        # content after footer
    with pytest.raises(ScheduleSyntaxError):
        parse_schedule("0,x\nW,3/1\n")
    with pytest.raises(ScheduleSyntaxError):
        parse_schedule("0,1\n0,2\nW,3/1\n")        # slot reused


def test_check_feasible_rejects_bad_schedules(w2):
    with pytest.raises(ValueError):
        Schedule({5: 1}, Fraction(5)).check_feasible(w2)
    with pytest.raises(ValueError):
        Schedule({0: 1, 1: 1}, Fraction(10)).check_feasible(w2)
    with pytest.raises(ValueError):
        Schedule({0: 1}, Fraction(99)).check_feasible(w2)
    with pytest.raises(ValueError):
        Schedule({0: 77}, Fraction(5)).check_feasible(w2)


def plain_optimal_schedule(instance):
    """The augmenting-path greedy without tight-block pruning, and its
    slot-by-slot canonical assignment: the reference for the pruned
    search and the heap pass."""
    weights = tagged_weight_map(instance, TiebreakSource())
    order = sorted(instance.packets, key=lambda p: weights[p.id], reverse=True)
    match = {}
    slots = {p.id: range(p.deadline, p.release - 1, -1) for p in instance.packets}

    def augment(root):
        visited = set()
        pids = [root]
        untried = [iter(slots[root])]
        path = []
        while untried:
            for slot in untried[-1]:
                if slot in visited:
                    continue
                visited.add(slot)
                path.append(slot)
                occupant = match.get(slot)
                if occupant is None:
                    match.update(zip(path, pids))
                    return True
                pids.append(occupant)
                untried.append(iter(slots[occupant]))
                break
            else:
                untried.pop()
                pids.pop()
                if path:
                    path.pop()
        return False

    admitted = {p.id for p in order if augment(p.id)}
    total = sum(weights[pid].value for pid in admitted)
    return Schedule(slot_scan_assignment(instance, admitted), instance.scale.rational(total))


def slot_scan_assignment(instance, ids):
    """Every slot up to the last deadline, each taking the available
    packet with the smallest (deadline, id)."""
    by_id = instance.by_id()
    chosen = sorted(ids, key=lambda pid: (by_id[pid].deadline, pid))
    assignment = {}
    placed = set()
    if not chosen:
        return assignment
    for slot in range(0, max(by_id[pid].deadline for pid in chosen) + 1):
        for pid in chosen:
            if pid not in placed and by_id[pid].release <= slot <= by_id[pid].deadline:
                assignment[slot] = pid
                placed.add(pid)
                break
    return assignment if len(placed) == len(chosen) else None


CROWDED_SHAPES = [
    dict(kind="uniform-random", packets_per_step=4),
    dict(kind="uniform-random", packets_per_step=5),
    dict(kind="s-bounded", packets_per_step=5, span=1),
    dict(kind="s-bounded", packets_per_step=5, span=2),
    dict(kind="s-bounded", packets_per_step=5, span=3),
    dict(kind="agreeable", packets_per_step=5),
]


@pytest.mark.parametrize("shape", CROWDED_SHAPES, ids=lambda s: "-".join(map(str, s.values())))
def test_pruned_search_matches_plain_search(shape):
    """Crowded shapes, where most admission searches fail; brute force
    on the small ones."""
    for seed in range(60):
        steps = 20 + (seed * 37) % 101
        inst = generate(GeneratorConfig(seed=seed, steps=steps, weight_max=20, **shape))
        assert optimal_schedule(inst) == plain_optimal_schedule(inst), seed
        small = generate(GeneratorConfig(seed=seed, steps=2 + seed % 3, weight_max=20, **shape))
        sched = optimal_schedule(small)
        assert sched == plain_optimal_schedule(small), seed
        if len(small.packets) <= BRUTE_FORCE_LIMIT:
            assert sched.weight0 == brute_force_opt(small).weight0, seed


@pytest.mark.parametrize("packets, assignment", [
    # [1, 1] fails through packets with windows [0, 2], so the block is
    # [0, 2]; [0, 0] inside it is rejected, [2, 3] across its edge is not,
    # and [3, 3] then fails through slot 3 alone into the block.
    ([(0, 2, 10), (0, 2, 9), (0, 2, 8), (1, 1, 7), (0, 0, 6), (2, 3, 5), (3, 3, 4)],
     {0: 1, 1: 2, 2: 3, 3: 6}),
    # blocks [0, 1] and [2, 3] merge into [0, 3]; [1, 2] lies inside
    # neither, and [0, 4] still fits at 4
    ([(0, 1, 10), (0, 1, 9), (0, 1, 8), (2, 3, 7), (2, 3, 6), (2, 3, 5), (1, 2, 4),
      (0, 4, 3)],
     {0: 1, 1: 2, 2: 4, 3: 5, 4: 8}),
    # blocks [0, 1] and [3, 4] do not touch: [1, 3] fits at 2
    ([(0, 1, 10), (0, 1, 9), (0, 1, 8), (3, 4, 7), (3, 4, 6), (3, 4, 5), (1, 3, 4)],
     {0: 1, 1: 2, 2: 7, 3: 4, 4: 5}),
    # block [2, 3]: [1, 3] reaches free slot 1 past it; the search for
    # the second [0, 1] then visits only slots 0 and 1, but it reached [1, 3],
    # so the block becomes [0, 3], [1, 2] is rejected and [3, 4] fits at 4
    ([(2, 3, 10), (2, 3, 9), (3, 3, 8), (1, 3, 7), (0, 1, 6), (0, 1, 5), (1, 2, 4),
      (3, 4, 3)],
     {0: 5, 1: 4, 2: 1, 3: 2, 4: 8}),
])
def test_tight_block_cases(packets, assignment):
    inst = validate([mk(pid, r, d, w) for pid, (r, d, w) in enumerate(packets, start=1)])
    sched = optimal_schedule(inst)
    assert sched.assignment == assignment
    assert sched == plain_optimal_schedule(inst) and sched.weight0 == brute_force_opt(inst).weight0


def test_tight_blocks_merge_only_touching_intervals():
    blocks = TightBlocks()
    blocks.add(0, 1)
    blocks.add(3, 4)
    assert (blocks.starts, blocks.ends) == ([0, 3], [1, 4])
    assert not blocks.covers(1, 3) and blocks.covers(3, 4) and not blocks.covers(4, 5)
    blocks.add(2, 2)
    assert (blocks.starts, blocks.ends) == ([0], [4])
    assert blocks.covers(1, 3) and blocks.slots == {0, 1, 2, 3, 4}
    blocks.add(7, 9)
    blocks.add(6, 6)
    blocks.add(12, 12)
    assert (blocks.starts, blocks.ends) == ([0, 6, 12], [4, 9, 12])
    blocks.add(5, 11)
    assert (blocks.starts, blocks.ends) == ([0], [12])
    assert blocks.covers(0, 12) and not blocks.covers(-1, 0) and not blocks.covers(12, 13)


def test_canonical_assignment_matches_slot_scan():
    rng = random.Random(5)
    for _ in range(150):
        inst = generate(GeneratorConfig(
            rng.choice(["uniform-random", "s-bounded", "agreeable"]),
            steps=rng.randint(1, 25), seed=rng.randrange(10**6),
            packets_per_step=rng.randint(1, 4), span=rng.randint(0, 4)))
        ids = [p.id for p in inst.packets]
        for _ in range(4):
            subset = set(rng.sample(ids, rng.randint(0, len(ids))))
            assert canonical_assignment(inst, subset) == slot_scan_assignment(inst, subset)
        best = set(optimal_schedule(inst).assignment.values())
        assert canonical_assignment(inst, best) == slot_scan_assignment(inst, best) is not None


def test_far_releases_cost_nothing_per_slot(far):
    sched = optimal_schedule(far)
    assert sched.assignment == {0: 5, FAR: 2, FAR + 1: 4, FAR + 2: 1}
    assert sched.weight0 == 11
    assert canonical_assignment(far, {1, 2, 3, 4}) is None
