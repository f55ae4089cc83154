"""Offline optimum: matched against brute force and hand-worked values."""

import random
from fractions import Fraction

import pytest

from planpack.generators import GeneratorConfig, generate
from planpack.model import Packet, validate
from planpack.offline import (
    Schedule,
    ScheduleSyntaxError,
    TooLargeError,
    brute_force_opt,
    canonical_assignment,
    format_schedule,
    optimal_schedule,
    parse_schedule,
)
from conftest import mk


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
    assert sched.packet_ids() == set(range(1, 9))
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
    assert sched.packet_ids() == {p.id for p in inst.packets}


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
