"""Shared fixtures: the two hand-worked instances and the segment-structure
pending set used across plan, scheduler, and verifier tests, a counter
of plan-engine refreshes, clones and snapshots, plus a helper that runs
the command line in a child process."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import planpack
from planpack.model import Instance, Packet, validate
from planpack.plan import PlanState

CLI_TIMEOUT_S = 60


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run `python -m planpack.cli ARGS` in a child process.

    The timeout makes a command that has fallen back to per-slot work
    on a far horizon fail the test instead of hanging the suite.
    """
    src = str(Path(planpack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "planpack.cli", *args],
        capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S, check=False,
    )


@pytest.fixture
def plan_calls(monkeypatch) -> Counter:
    """Counts calls of PlanState.refresh, clone and snapshot, by name."""
    calls: Counter = Counter()

    def counted(name):
        method = getattr(PlanState, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for name in ("refresh", "clone", "snapshot"):
        monkeypatch.setattr(PlanState, name, counted(name))
    return calls


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


@pytest.fixture
def leap_chain() -> Instance:
    """Four packets at slot 0 whose first step is an iterated leap with
    a chain of one link."""
    return validate([mk(1, 0, 0, 1), mk(2, 0, 1, 100), mk(3, 0, 2, 50),
                     mk(4, 0, 2, Fraction(1, 2))])


# Edits of leap_chain's planm trace that a lenient reader would take for
# the unedited run: an extra key, a third rho_w weight, an eighth cell
# in a chain link.
LOOSE_LEAP_EDITS = {
    "leap-extra-key": ('"rho_d":2,', '"rho_d":2,"x":1,'),
    "rho-w-three-weights": ('"1/1(+1)"],', '"1/1(+1)","1/1(+1)"],'),
    "chain-link-eight-cells": ('"1/1(-1)"]]', '"1/1(-1)",0]]'),
}

# Edits of the W2 instance file and of W2's planm trace that repeat a
# JSON key.  json keeps the last of a repeated key, so a reader without
# a check takes each edited file for the unedited one.
REPEATED_KEY_EDITS = {
    "instance-packet": ("instance", '{"id":1,"r":0', '{"id":2,"id":1,"r":0'),
    "arrival-cell": ("trace", 'A,0,{"id":1,"r":0', 'A,0,{"id":2,"id":1,"r":0'),
    "leap-cell": ("trace", '{"p":2,"rho":3', '{"p":9,"p":2,"rho":3'),
    "dweights-cell": ("trace", '{"3":"5/1(+1)"}', '{"3":"9/1(+1)","3":"5/1(+1)"}'),
}

# Edits of the W2 instance file and of W2's planm trace that leave text
# after packet 2's cell, or leave an arrival line without its time or
# cell.  json's raw decoder stops at the end of a value, so a reader that
# does not check the end of the cell takes each file with text after the
# cell for the unedited one.
_W2_PACKET_2 = '{"id":2,"r":0,"d":1,"w":"10/1"}'
INSTANCE_END_EDITS = {
    "text-after": (_W2_PACKET_2, _W2_PACKET_2 + " 1"),
    "object-after": (_W2_PACKET_2, _W2_PACKET_2 + "{}"),
}
ARRIVAL_END_EDITS = {
    **INSTANCE_END_EDITS,
    "dash-cell": ("A,0," + _W2_PACKET_2, "A,0,-"),
    "empty-time": ("A,0," + _W2_PACKET_2, "A,," + _W2_PACKET_2),
    "no-time": ("A,0," + _W2_PACKET_2, "A," + _W2_PACKET_2),
}


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
    every chain packet one slot earlier: its search's range grows one
    slot per round for 1200 rounds, and its augmenting path is 1200 deep."""
    n = CHAIN_LENGTH
    return validate([mk(i, i, i + 1, 2) for i in range(n)] + [mk(n, n, n, 1)])


FAR = 10**9


@pytest.fixture
def far() -> Instance:
    """Four packets released around 10**9 and one at slot 0: a pass
    over every slot of the horizon would take 10**9 steps."""
    return validate([mk(1, FAR, FAR + 2, 3), mk(2, FAR, FAR, 5), mk(3, FAR + 1, FAR + 1, 1),
                     mk(4, FAR + 1, FAR + 1, 2), mk(5, 0, 0, 1)])
