"""Shared fixtures: the two hand-worked instances and the segment-structure
pending set used across plan, scheduler, and verifier tests."""

from fractions import Fraction

import pytest

from planpack.model import Instance, Packet, validate


def mk(pid: int, r: int, d: int, w) -> Packet:
    return Packet(pid, r, d, Fraction(w))


# ids: a=1, b=2, c=3, e=4
W1_NAMES = {1: "a", 2: "b", 3: "c", 4: "e"}


@pytest.fixture
def w1() -> Instance:
    return validate([mk(1, 0, 0, 3), mk(2, 0, 1, 5), mk(3, 0, 1, 1), mk(4, 0, 2, 4)])


# ids: b=1, y=2, c=3
W2_NAMES = {1: "b", 2: "y", 3: "c"}


@pytest.fixture
def w2() -> Instance:
    return validate([mk(1, 0, 0, 5), mk(2, 0, 1, 10), mk(3, 0, 1, 4)])


# A pending set observed at time 1 with three filled segments (0,3],
# (3,4], (4,7]: f,a,b | k | z,p,q in the plan, x pending but excluded
# even though x outweighs q.  ids follow the listing order.
FIG1_NAMES = {1: "f", 2: "a", 3: "b", 4: "k", 5: "z", 6: "p", 7: "q", 8: "x"}

FIG1_PACKETS = [
    mk(1, 0, 2, Fraction(3, 2)),    # f
    mk(2, 0, 3, 2),                 # a
    mk(3, 0, 3, Fraction(1, 2)),    # b
    mk(4, 0, 4, 3),                 # k
    mk(5, 0, 6, 1),                 # z
    mk(6, 0, 7, Fraction(4, 5)),    # p
    mk(7, 0, 7, Fraction(1, 10)),   # q
    mk(8, 0, 3, Fraction(3, 10)),   # x
]


@pytest.fixture
def fig1() -> Instance:
    return validate(FIG1_PACKETS)


CHAIN_LENGTH = 1200


@pytest.fixture
def chain() -> Instance:
    """Packets 0..1199 with windows [i, i+1] and weight 2, then one
    weight-1 packet at [1200, 1200].  Admitting the last packet moves
    every chain packet one slot earlier: an augmenting path 1200 deep."""
    n = CHAIN_LENGTH
    return validate([mk(i, i, i + 1, 2) for i in range(n)] + [mk(n, n, n, 1)])
