"""Trace files: golden content for the worked examples, round-trips on
generated runs, and syntax error reporting."""

import random

import pytest

from planpack.generators import GeneratorConfig, generate
from planpack.model import Packet, validate
from planpack.schedulers import run
from planpack.trace_io import TraceSyntaxError, format_trace, parse_trace

from fractions import Fraction


W2_TRACE = """\
H,1,planm
A,0,{"id":1,"r":0,"d":0,"w":"5/1"}
A,0,{"id":2,"r":0,"d":1,"w":"10/1"}
A,0,{"id":3,"r":0,"d":1,"w":"4/1"}
S,0,2,simple-leap,{"p":2,"rho":3,"ell":1,"delta":0,"gamma":1,"tau0":1,"rho_virtual":false,"rho_d":1,"rho_w":["4/1(-3)","5/1(+1)"],"chain":[]},{"3":"5/1(+1)"}
S,1,3,ordinary,-,-
G,14/1
"""


def test_w2_trace_golden(w2):
    _, trace = run("planm", w2)
    assert format_trace(trace) == W2_TRACE


def test_w2_trace_round_trip(w2):
    _, trace = run("planm", w2)
    parsed = parse_trace(format_trace(trace))
    assert parsed == trace


def test_idle_line():
    inst = validate([Packet(1, 0, 0, Fraction(2)), Packet(2, 2, 2, Fraction(3))])
    _, trace = run("planm", inst)
    text = format_trace(trace)
    assert "S,1,-,idle,-,-" in text.splitlines()
    assert parse_trace(text) == trace


@pytest.mark.parametrize("algorithm", ["planm", "greedy"])
@pytest.mark.parametrize("kind", ["uniform-random", "s-bounded", "agreeable"])
def test_round_trip_generated_runs(algorithm, kind):
    rng = random.Random(hash((algorithm, kind)) & 0xFFFF)
    for _ in range(4):
        inst = generate(
            GeneratorConfig(kind=kind, steps=rng.randint(5, 35), seed=rng.randint(0, 999))
        )
        _, trace = run(algorithm, inst)
        assert parse_trace(format_trace(trace)) == trace


def test_fractional_weights_round_trip():
    inst = validate([Packet(1, 0, 1, Fraction(7, 3)), Packet(2, 0, 1, Fraction(22, 7))])
    _, trace = run("planm", inst)
    assert parse_trace(format_trace(trace)) == trace


def test_parse_errors():
    with pytest.raises(TraceSyntaxError):
        parse_trace("")
    with pytest.raises(TraceSyntaxError):
        parse_trace("A,0,{}\n")                     # header missing
    with pytest.raises(TraceSyntaxError):
        parse_trace("H,9,planm\nG,0/1\n")           # unknown version
    with pytest.raises(TraceSyntaxError):
        parse_trace("H,1,planm\n")                  # no footer
    with pytest.raises(TraceSyntaxError):
        parse_trace("H,1,planm\nG,0/1\nS,0,-,idle,-,-\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace("H,1,planm\nS,0,1,warp,-,-\nG,0/1\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace("H,1,planm\nS,0,1,ordinary,-\nG,0/1\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace("H,1,planm\nS,0,1,ordinary,{bad,-\nG,0/1\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace('H,1,planm\nA,0,{"id":1,"r":0}\nG,0/1\n')
    with pytest.raises(TraceSyntaxError):
        parse_trace("H,1,planm\nX,0\nG,0/1\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace("H,1,planm\nS,0,1,ordinary,-,[1]\nG,0/1\n")   # dweights not a map
    with pytest.raises(TraceSyntaxError):                            # 1/7 is not over D = 1
        parse_trace('H,1,planm\nS,0,1,ordinary,-,{"3":"1/7(+1)"}\nG,0/1\n')


def test_error_carries_line_number():
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace("H,1,planm\nS,0,1,warp,-,-\nG,0/1\n")
    assert exc.value.line == 2
