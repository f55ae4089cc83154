"""Offline optimum: matched against brute force and hand-worked values."""

import inspect
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from planpack import offline
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
from conftest import CHAIN_LENGTH, FAR, mk

# the statement of the augmenting search that marks a slot tried
TRIED_STATEMENT = "tried[slot] = slot - 1"


def search_cost(instance):
    """optimal_schedule(instance) run under a tracer, and its cost:
    "searches" counts calls of the augmenting search, "slots" the slots
    they try, and "lines" the lines executed in offline.py outside
    canonical_assignment.  The counts are deterministic."""
    source = inspect.getsource(offline).splitlines()
    marks = [n for n, text in enumerate(source, start=1) if text.strip() == TRIED_STATEMENT]
    assert len(marks) == 1, marks
    cost = Counter()

    def line(frame, event, arg):
        if event == "line":
            cost["lines"] += 1
            cost["slots"] += frame.f_lineno == marks[0]
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename != offline.__file__ or code.co_name == "canonical_assignment":
            return None
        cost["searches"] += code.co_name == "augment"
        return line

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        schedule = optimal_schedule(instance)
    finally:
        sys.settrace(previous)
    return schedule, cost


def test_empty_instance():
    sched = optimal_schedule(validate([]))
    assert sched.assignment == {} and sched.weight0 == 0
    brute = brute_force_opt(validate([]))
    assert brute.assignment == {} and brute.weight0 == 0


def test_deep_augmenting_path(chain):
    """Every chain packet's window is full but p_0's, so the last search
    tries the slot of each chain packet in turn: a path 1200 deep, which
    no look for a free slot shortens, at a cost linear in its length."""
    sched, cost = search_cost(chain)
    assert sched.weight0 == 2401
    assert sorted(sched.assignment) == list(range(1201))
    assert cost["searches"] == CHAIN_LENGTH + 1
    assert cost["slots"] == CHAIN_LENGTH
    assert cost["lines"] <= 90_000


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


@pytest.mark.parametrize("text, lineno", [
    ("1_0,3\nW,3/1\n", 1),
    ("0,1\n +2 , 3\nW,3/1\n", 2),
    ("0,1\n\u0663,\u0664\nW,3/1\n", 2),
    ("0,1\nW,1_5/1\n", 2),
    ("0,1\nW,3/-1\n", 2),
], ids=["underscore", "sign-and-blanks", "arabic-indic-digits", "footer-underscore",
        "footer-negative-denominator"])
def test_schedule_integers_take_only_the_written_form(text, lineno):
    """int() would read each of these as a schedule of canonical cells."""
    with pytest.raises(ScheduleSyntaxError, match=f"^line {lineno}: "):
        parse_schedule(text)


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


def idle_gaps(inst, seed):
    """The instance with an idle gap of 1 to 10 slots after about one
    step in four; a window stretches over the gaps inside it."""
    rng = random.Random(seed)
    at = {}
    shift = 0
    for t in range(max((p.deadline for p in inst.packets), default=0) + 1):
        at[t] = t + shift
        if rng.random() < 0.25:
            shift += rng.randint(1, 10)
    return validate([Packet(p.id, at[p.release], at[p.deadline], p.weight)
                     for p in inst.packets])


def half_to_horizon(inst, seed):
    """The instance with every odd packet's deadline moved to the last
    deadline of all."""
    horizon = max((p.deadline for p in inst.packets), default=0)
    return validate([Packet(p.id, p.release, horizon if p.id % 2 else p.deadline, p.weight)
                     for p in inst.packets])


SEARCH_SHAPES = CROWDED_SHAPES + [
    dict(kind="uniform-random", packets_per_step=2),
    dict(kind="s-bounded", packets_per_step=5, span=6, reshape=idle_gaps),
    dict(kind="uniform-random", packets_per_step=3, reshape=half_to_horizon),
]


def shape_id(shape):
    return "-".join(getattr(v, "__name__", str(v)) for v in shape.values())


@pytest.mark.parametrize("shape", SEARCH_SHAPES, ids=shape_id)
def test_pruned_search_matches_plain_search(shape):
    """Crowded shapes, where most admission searches fail; a sparse one,
    where searches succeed after long paths; idle gaps the free-slot
    pointer crosses; and windows that reach the horizon.  Brute force
    on the small ones."""
    shape = dict(shape)
    reshape = shape.pop("reshape", lambda inst, seed: inst)
    for seed in range(60):
        steps = 20 + (seed * 37) % 101
        inst = generate(GeneratorConfig(seed=seed, steps=steps, weight_max=20, **shape))
        inst = reshape(inst, seed)
        assert optimal_schedule(inst) == plain_optimal_schedule(inst), seed
        small = generate(GeneratorConfig(seed=seed, steps=2 + seed % 3, weight_max=20, **shape))
        small = reshape(small, seed)
        sched = optimal_schedule(small)
        assert sched == plain_optimal_schedule(small), seed
        if len(small.packets) <= BRUTE_FORCE_LIMIT:
            assert sched.weight0 == brute_force_opt(small).weight0, seed


# counts of search_cost on two pinned crowded instances: windows that
# reach the horizon, and windows of at most 9 slots
SEARCH_COSTS = {
    "uniform-random": (GeneratorConfig("uniform-random", steps=100, weight_max=100),
                       dict(searches=102, slots=1320, lines=88057)),
    "s-bounded": (GeneratorConfig("s-bounded", steps=300, weight_max=100, span=8),
                  dict(searches=340, slots=668, lines=55949)),
}


@pytest.mark.parametrize("name", SEARCH_COSTS)
def test_search_cost_is_bounded(name):
    """The search's work stays within a tenth of its pinned counts.
    Variants that stay exact but work more go over the bound: no
    dead-end test, a block recorded from the root's window only, no
    look for a free slot, and no path compression of either pointer."""
    config, counts = SEARCH_COSTS[name]
    inst = generate(config)
    sched, cost = search_cost(inst)
    assert sched == plain_optimal_schedule(inst)
    for key, count in counts.items():
        assert cost[key] <= count * 11 // 10, (key, cost[key], count)


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
    assert blocks.covers(1, 3) and set(blocks.below) == {0, 1, 2, 3, 4}
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
