"""Trace files: golden content for the worked examples, round-trips on
generated runs, and syntax error reporting."""

import random

import pytest

from planpack.generators import GeneratorConfig, generate
from planpack.model import Packet, validate
from planpack.schedulers import run
from planpack.trace_io import TraceSyntaxError, format_trace, parse_trace

from fractions import Fraction

from conftest import ARRIVAL_END_EDITS, LOOSE_LEAP_EDITS, REPEATED_KEY_EDITS


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


def test_idle_stretch_is_one_line_per_slot():
    inst = validate([Packet(1, 0, 0, Fraction(2)), Packet(2, 5, 5, Fraction(3))])
    _, trace = run("planm", inst)
    assert [(ev.t, ev.slots) for ev in trace.events if getattr(ev, "kind", "") == "idle"] == [
        (1, 4),
    ]
    text = format_trace(trace)
    idle_lines = [line for line in text.splitlines() if ",idle," in line]
    assert idle_lines == [f"S,{t},-,idle,-,-" for t in range(1, 5)]
    assert parse_trace(text) == trace


def test_parse_folds_only_contiguous_plain_idle_lines():
    def stretches(*lines):
        trace = parse_trace("\n".join(["H,1,planm", *lines, "G,0/1"]))
        return [(ev.t, ev.p_id, ev.slots) for ev in trace.events]

    assert stretches("S,3,-,idle,-,-", "S,4,-,idle,-,{}", "S,5,-,idle,-,-") == [(3, None, 3)]
    assert stretches("S,3,-,idle,-,-", "S,5,-,idle,-,-") == [(3, None, 1), (5, None, 1)]
    assert stretches("S,3,-,idle,-,-", "S,3,-,idle,-,-") == [(3, None, 1), (3, None, 1)]
    assert stretches("S,3,-,idle,-,-", "S,4,7,idle,-,-", "S,5,-,idle,-,-") == [
        (3, None, 1), (4, 7, 1), (5, None, 1),
    ]


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
    for weight in ("5", "null", "[1]"):                              # weight not a string
        with pytest.raises(TraceSyntaxError):
            parse_trace(f'H,1,planm\nA,0,{{"id":1,"r":0,"d":1,"w":{weight}}}\nG,0/1\n')
    with pytest.raises(TraceSyntaxError):
        parse_trace("H,1,planm\nS,0,1,ordinary,-,[1]\nG,0/1\n")   # dweights not a map
    with pytest.raises(TraceSyntaxError):                            # 1/7 is not over D = 1
        parse_trace('H,1,planm\nS,0,1,ordinary,-,{"3":"1/7(+1)"}\nG,0/1\n')
    deep = "[" * 100_000 + "]" * 100_000                             # past the recursion limit
    huge = "9" * 5000                                                # past the digit limit
    for line in (f"A,0,{deep}", f"S,0,1,ordinary,{deep},-", f"S,0,1,ordinary,-,{deep}",
                 f"A,0,{huge}", f"S,0,1,ordinary,{huge},-"):
        with pytest.raises(TraceSyntaxError, match="trace line 2: bad JSON cell"):
            parse_trace(f"H,1,planm\n{line}\nG,0/1\n")


@pytest.mark.parametrize("canonical, lenient", [
    ('{"id":1,"r":0', '{"id":1.0,"r":0'),
    ('"d":1,"w":"10/1"', '"d":true,"w":"10/1"'),
    ("S,1,3,", "S, +1,3,"),
    ('A,0,{"id":3', 'A, +0,{"id":3'),
    ("S,1,3,", "S,1,0_3,"),
    ('{"3":"5/1(+1)"}', '{" 3":"5/1(+1)"}'),
    ('"delta":0,', '"delta":0.0,'),
    ('"rho_virtual":false', '"rho_virtual":0'),
    ('"rho_w":["4/1(-3)"', '"rho_w":["\\u0664/1(-3)"'),
    ('{"3":"5/1(+1)"}', '{"3":"5/1(+1)\\n"}'),
    ("G,14/1", "G, +14/1"),
], ids=[
    "arrival-float-id", "arrival-bool-deadline", "time-sign-and-blank",
    "arrival-time-sign-and-blank", "pid-underscore",
    "dweights-key-blank", "leap-float-delta", "leap-int-rho-virtual",
    "tagged-arabic-indic", "tagged-newline", "gain-sign-and-blank",
])
def test_numbers_off_the_grammar_rejected(canonical, lenient):
    """Read with int() and JSON's loose number types, each of these texts
    is the W2 run, which only W2_TRACE may describe."""
    assert W2_TRACE.count(canonical) == 1
    text = W2_TRACE.replace(canonical, lenient)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if lenient in line)
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace(text)
    assert exc.value.line == lineno


@pytest.mark.parametrize("canonical, lenient", LOOSE_LEAP_EDITS.values(),
                         ids=LOOSE_LEAP_EDITS.keys())
def test_loose_leap_record_rejected(leap_chain, canonical, lenient):
    """Read without checking the leap record's keys and lengths, each of
    these texts is the run of leap_chain."""
    _, trace = run("planm", leap_chain)
    text = format_trace(trace)
    assert text.count(canonical) == 1
    assert parse_trace(text) == trace
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace(text.replace(canonical, lenient))
    assert exc.value.line == 6


TRACE_KEY_EDITS = {k: v[1:] for k, v in REPEATED_KEY_EDITS.items() if v[0] == "trace"}


@pytest.mark.parametrize("canonical, repeated", TRACE_KEY_EDITS.values(),
                         ids=TRACE_KEY_EDITS.keys())
def test_repeated_json_key_rejected(canonical, repeated):
    """Read keeping the last of each key, each of these texts is the W2
    run: an arrival cell, a leap cell and a dweights cell."""
    assert W2_TRACE.count(canonical) == 1
    text = W2_TRACE.replace(canonical, repeated)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if repeated in line)
    with pytest.raises(TraceSyntaxError, match="a key repeats") as exc:
        parse_trace(text)
    assert exc.value.line == lineno


@pytest.mark.parametrize("canonical, edited", ARRIVAL_END_EDITS.values(),
                         ids=ARRIVAL_END_EDITS.keys())
def test_arrival_cell_must_end_the_line(canonical, edited):
    """Text after packet 2's cell, or an arrival line without its time
    or cell, is refused at that line."""
    assert W2_TRACE.count(canonical) == 1
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace(W2_TRACE.replace(canonical, edited))
    assert exc.value.line == 3


def test_error_carries_line_number():
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace("H,1,planm\nS,0,1,warp,-,-\nG,0/1\n")
    assert exc.value.line == 2
