"""Fuzzing the file parsers: any text either parses or fails with the
parser's typed error, never with another exception; the number grammar
they share takes exactly its strings; and every writer's output reads
back as what was written."""

import json
import re
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from planpack import model
from planpack.generators import GeneratorConfig, KINDS as GENERATOR_KINDS, generate
from planpack.golden import (
    GoldenNumber,
    TaggedWeight,
    WeightScale,
    format_golden,
    format_rational,
    format_tagged,
    parse_golden,
    parse_integer,
    parse_rational,
    parse_tagged,
)
from planpack.model import (
    Instance,
    InstanceError,
    InstanceSyntaxError,
    Packet,
    packet_from_json,
    parse_instance,
    serialize_instance,
    serialize_packet,
    validate,
)
from planpack.offline import Schedule, format_schedule, optimal_schedule, parse_schedule
from planpack.schedulers import RunTrace, ScheduleEvent, run
from planpack.trace_io import KINDS, TraceSyntaxError, format_trace, parse_trace

DEEP = "[" * 100_000 + "]" * 100_000
HUGE = "9" * 5000       # an integer past Python's int-from-text digit limit

FUZZ = settings(max_examples=300, deadline=None)

# numbers and strings that sit on the parsers' edges; the placeholder
# "<huge>" becomes HUGE, unquoted, once a value is written as JSON
edge_ints = st.one_of(st.integers(-3, 12), st.integers(), st.just(10**18))
rationals = st.builds(lambda n, d: f"{n}/{d}", edge_ints, edge_ints)
tagged = st.builds(lambda r, tb: f"{r}({tb:+d})", rationals, edge_ints)
scalars = st.one_of(
    st.none(), st.booleans(), edge_ints, st.floats(), st.text(max_size=8),
    rationals, tagged, st.just("<huge>"),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)
packet_keys = st.sampled_from(["id", "r", "d", "w", "x"])
packets = st.dictionaries(packet_keys, json_values, max_size=5) | st.fixed_dictionaries(
    {"id": edge_ints, "r": edge_ints, "d": edge_ints, "w": rationals}
)


def _dumps(value) -> str:
    return json.dumps(value).replace('"<huge>"', HUGE)


leap_keys = st.sampled_from(
    ["p", "rho", "ell", "delta", "gamma", "tau0", "rho_virtual", "rho_d", "rho_w", "chain"]
)
cells = st.one_of(
    st.just("-"),
    st.builds(_dumps, json_values),
    st.builds(_dumps, st.dictionaries(leap_keys, json_values, max_size=10)),
    st.builds(_dumps, st.dictionaries(st.builds(str, edge_ints), tagged, max_size=3)),
    st.text(max_size=12),
)


def _line(*fields) -> str:
    return ",".join(str(f) for f in fields)


times = st.one_of(edge_ints, st.just(HUGE))
instance_lines = st.one_of(st.builds(_dumps, packets), st.text(max_size=40))
trace_lines = st.one_of(
    st.just("H,1,planm"),
    st.builds(_line, st.just("H"), st.text(max_size=3), st.text(max_size=6)),
    st.builds(_line, st.just("A"), times, st.builds(_dumps, packets)),
    st.builds(
        _line, st.just("S"), times, st.one_of(st.just("-"), edge_ints),
        st.sampled_from(KINDS + ("warp",)), cells, cells,
    ),
    st.builds(_line, st.just("G"), rationals),
    st.text(max_size=40),
)


@FUZZ
@given(st.one_of(
    st.builds("\n".join, st.lists(instance_lines, max_size=6)),
    st.text(),
))
@example(DEEP)
@example('{"id": 1, "r": 0, "d": %s, "w": "1/1"}' % HUGE)
def test_parse_instance_returns_instance_or_instance_error(text):
    try:
        result = parse_instance(text)
    except InstanceError:
        return
    assert isinstance(result, Instance)


@FUZZ
@given(st.one_of(
    st.builds(
        lambda body: "\n".join(["H,1,planm", *body, "G,0/1"]),
        st.lists(trace_lines, max_size=6),
    ),
    st.builds("\n".join, st.lists(trace_lines, max_size=6)),
    st.text(),
))
@example(f"H,1,planm\nA,0,{DEEP}\nG,0/1\n")
@example(f"H,1,planm\nS,0,1,ordinary,{DEEP},-\nG,0/1\n")
@example(f"H,1,planm\nS,0,1,ordinary,-,{DEEP}\nG,0/1\n")
def test_parse_trace_returns_trace_or_trace_syntax_error(text):
    try:
        result = parse_trace(text, scale=WeightScale([]))
    except TraceSyntaxError:
        return
    assert isinstance(result, RunTrace)


# -- the number grammar --------------------------------------------------

DIGITS = "0123456789"


def is_digits(text: str) -> bool:
    return text != "" and all(c in DIGITS for c in text)


def is_integer(text: str) -> bool:
    """The grammar's integer, ``-?[0-9]+``, decided without a regex."""
    return is_digits(text[1:] if text.startswith("-") else text)


def is_rational(text: str) -> bool:
    """The grammar's rational: an integer, "/", and nonzero unsigned digits."""
    num, sep, den = text.partition("/")
    return bool(sep) and is_integer(num) and is_digits(den) and int(den) != 0


# texts near the grammar: the characters int() also takes, and any text
near_numbers = st.text(alphabet=DIGITS + "-+/_ \n\t\u0663\uff11", max_size=8) | st.text(max_size=8)


@FUZZ
@given(near_numbers)
@example("-0")
@example("007")
@example("-")
@example("1_0")
@example(" +3")
def test_parse_integer_takes_exactly_the_grammar(text):
    try:
        value = parse_integer(text)
    except ValueError:
        assert not is_integer(text)
    else:
        assert is_integer(text)
        assert value == int(text)


@FUZZ
@given(near_numbers)
@example("2/4")
@example("-007/010")
@example("3/0")
@example("3/-1")
@example("1_5/1")
def test_parse_rational_takes_exactly_the_grammar(text):
    try:
        value = parse_rational(text)
    except ValueError:
        assert not is_rational(text)
    else:
        assert is_rational(text)
        num, _, den = text.partition("/")
        assert value == Fraction(int(num), int(den))


# -- every writer's output reads back ------------------------------------

big_ints = st.integers(-(10**30), 10**30)
fractions = st.builds(Fraction, big_ints, st.integers(1, 10**12))
weights = st.builds(Fraction, st.integers(0, 10**30), st.integers(1, 10**6))


@FUZZ
@given(fractions, fractions, st.lists(weights, max_size=4), st.integers())
def test_golden_writers_read_back(a, b, scale_weights, tiebreak):
    assert parse_rational(format_rational(a)) == a
    assert parse_golden(format_golden(GoldenNumber(a, b))) == GoldenNumber(a, b)
    scale = WeightScale([*scale_weights, abs(a)])
    w = TaggedWeight(scale.scaled(abs(a)), tiebreak)
    assert parse_tagged(format_tagged(w, scale), scale) == w


@FUZZ
@given(st.builds(Packet, st.integers(0), st.integers(0), st.integers(0), weights))
def test_serialize_packet_reads_back(packet):
    assert packet_from_json(json.loads(serialize_packet(packet))) == packet


@FUZZ
@given(st.dictionaries(st.integers(), st.integers(), max_size=6), fractions)
def test_format_schedule_reads_back(assignment, weight0):
    schedule = Schedule(assignment, weight0)
    assert parse_schedule(format_schedule(schedule)) == schedule


@FUZZ
@given(
    st.sampled_from([k for k in GENERATOR_KINDS if k != "phi-adversarial"]),
    st.integers(1, 20),
    st.integers(0, 10**6),
    st.integers(1, 12),
)
def test_generated_files_read_back(kind, steps, seed, denominator):
    """Instance, trace and schedule files of a run with leaps, with
    weights over a common denominator."""
    config = GeneratorConfig(kind, steps, seed, packets_per_step=3, weight_max=30)
    instance = validate(
        Packet(p.id, p.release, p.deadline, p.weight / denominator)
        for p in generate(config).packets
    )
    _, trace = run("planm", instance)
    assume(any(isinstance(ev, ScheduleEvent) and ev.leap for ev in trace.events))
    assert parse_instance(serialize_instance(instance)) == instance
    assert parse_trace(format_trace(trace), scale=trace.scale) == trace
    schedule = optimal_schedule(instance)
    assert parse_schedule(format_schedule(schedule)) == schedule


# -- forms no writer emits but every reader accepts -----------------------

def _read_alike(w2, edits) -> None:
    """Each file of the W2 run, edited, reads as the file itself."""
    readers = (parse_instance, lambda text: parse_trace(text, scale=w2.scale), parse_schedule)
    files = (
        serialize_instance(w2),
        format_trace(run("planm", w2)[1]),
        format_schedule(optimal_schedule(w2)),
    )
    for reader, text, file_edits in zip(readers, files, edits):
        edited = text
        for canonical, other in file_edits:
            assert edited.count(canonical) == 1
            edited = edited.replace(canonical, other)
        assert reader(edited) == reader(text)


def test_leading_zeros_are_read_in_every_file(w2):
    _read_alike(w2, (
        [('"w":"10/1"', '"w":"010/01"')],
        [("S,1,3,", "S,01,003,"), ('{"3":"5/1(+1)"}', '{"03":"05/01(+01)"}'),
         ("G,14/1", "G,014/001")],
        [("1,2\n", "01,002\n"), ("W,15/1", "W,015/01")],
    ))


def test_unreduced_fractions_are_read_in_every_file(w2):
    _read_alike(w2, (
        [('"w":"10/1"', '"w":"20/2"')],
        [('"rho_w":["4/1(-3)","5/1(+1)"]', '"rho_w":["8/2(-3)","15/3(+1)"]'),
         ('{"3":"5/1(+1)"}', '{"3":"10/2(+1)"}'), ("G,14/1", "G,28/2")],
        [("W,15/1", "W,45/3")],
    ))


# -- the canonical-line lane ---------------------------------------------
#
# parse_instance and parse_trace read a line in the form serialize_packet
# writes without JSON.  On any line, canonical or not, they must do what
# the JSON path alone does: the same packet, or the same error type and
# message.  The JSON path alone is the reader with its lane pattern
# replaced by one that never matches.

NEVER = re.compile(r"(?!)")

FIELDS = ("id", "r", "d")
OVER_LIMIT = "9" * 4301     # past Python's int-from-text digit limit


def _set_value(line: str, key: str, value: str) -> str:
    """line with key's first value replaced (a weight keeps its quotes)."""
    if key == "w":
        return re.sub(r'"w":"[^"]*"', lambda _: f'"w":"{value}"', line, count=1)
    return re.sub(rf'"{key}":[^,}}]*', lambda _: f'"{key}":{value}', line, count=1)


def _value(line: str, key: str) -> str:
    """key's first value, "" once an earlier mutation hid the key."""
    m = re.search(rf'"{key}":"?([^,}}"]*)', line)
    return "" if m is None else m.group(1)


def _pairs(line: str, k: int) -> list[str]:
    """The line's comma-separated pairs, rotated by k."""
    pairs = line[1:-1].split(",")
    k %= len(pairs)
    return pairs[k:] + pairs[:k]


# each mutation maps (line, k) to a line; k picks a field or a position
MUTATIONS = {
    "leading zero": lambda line, k: _set_value(
        line, FIELDS[k % 3], re.sub(r"^(-?)", r"\g<1>0", _value(line, FIELDS[k % 3]))),
    "minus zero": lambda line, k: _set_value(line, FIELDS[k % 3], "-0"),
    "weight leading zero": lambda line, k: _set_value(
        line, "w", "0" + _value(line, "w") if k % 2 else _value(line, "w").replace("/", "/0")),
    "zero denominator": lambda line, k: _set_value(
        line, "w", _value(line, "w").partition("/")[0] + "/0"),
    "over the digit limit": lambda line, k: (
        _set_value(line, FIELDS[k % 3], OVER_LIMIT) if k % 5 < 3
        else _set_value(line, "w", f"{OVER_LIMIT}/1" if k % 5 == 3 else f"1/{OVER_LIMIT}")),
    "blank": lambda line, k: line[: k % (len(line) + 1)] + " " + line[k % (len(line) + 1):],
    "crlf": lambda line, k: line + "\r\n",
    "carriage return inside": lambda line, k: line[: k % len(line)] + "\r" + line[k % len(line):],
    "line separator": lambda line, k: (
        line[: k % (len(line) + 1)] + "\u2028" + line[k % (len(line) + 1):]),
    "keys reordered": lambda line, k: "{%s}" % ",".join(_pairs(line, k)),
    "key repeated": lambda line, k: line[:-1] + "," + _pairs(line, k)[0] + "}",
    "float": lambda line, k: _set_value(
        line, FIELDS[k % 3], _value(line, FIELDS[k % 3]) + ".0"),
    "true": lambda line, k: _set_value(line, FIELDS[k % 3], "true"),
    "trailing comma": lambda line, k: line[:-1] + ",}",
}

# the time in front of an arrival cell, as written and mutated
ARRIVAL_TIMES = st.one_of(
    st.builds(str, st.integers(-3, 10**6)),
    st.sampled_from(["007", "-0", " 1", "+1", "1.0", OVER_LIMIT]),
)


@st.composite
def lane_lines(draw):
    """A canonical packet line, then a few mutations of it."""
    ints = st.integers(-3, 10**9)
    line = (
        f'{{"id":{draw(ints)},"r":{draw(ints)},"d":{draw(ints)},'
        f'"w":"{draw(st.integers(-3, 10**30))}/{draw(st.integers(1, 10**6))}"}}'
    )
    for name in draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3)):
        line = MUTATIONS[name](line, draw(st.integers(0, 100)))
    return line


def _outcome(read, text):
    try:
        return "read", read(text)
    except Exception as exc:        # the JSON path's own type and message
        return type(exc), str(exc)


@FUZZ
@given(lane_lines(), st.one_of(ARRIVAL_TIMES, st.none()))
@example('{"id":01,"r":0,"d":0,"w":"1/1"}', "0")
@example('{"id":-0,"r":0,"d":0,"w":"007/01"}', "-0")
@example('{"id":1,"r":0,"d":0,"w":" 1/1"}', "0")
@example('{"id":1,"r":0,"d":0,"w":"1/0"}', "0")
@example('{"id":%s,"r":0,"d":0,"w":"1/1"}' % OVER_LIMIT, "0")
@example('{"id":1,"r":0,"d":0,"w":"%s/1"}' % OVER_LIMIT, OVER_LIMIT)
@example('{"id":1,"r":0,"d":0,"w":"1/1","id":2}', "0")
@example('{"id":1.0,"r":0,"d":true,"w":"1/1"}', "0")
def test_lane_reads_every_line_as_the_json_path(line, t):
    """Instance line `line`, and trace line A,<t>,<line> (A,<line> for
    t None): each reader gives what its JSON path gives."""
    arrival = "A," if t is None else f"A,{t},"
    trace = f"H,1,planm\n{arrival}{line}\nG,0/1\n"
    scale = WeightScale([])

    def read_trace(text):
        return parse_trace(text, scale=scale)

    with_lane = _outcome(parse_instance, line), _outcome(read_trace, trace)
    with patch.object(model, "_PACKET_CELL", NEVER):
        assert with_lane == (_outcome(parse_instance, line), _outcome(read_trace, trace))
    if with_lane[0][0] == "read":
        assert with_lane[0][1] == validate([packet_from_json(json.loads(line.strip()))])


@FUZZ
@given(lane_lines())
@example('{"id":01,"r":0,"d":0,"w":"1/1"}')
@example('{"id":-0,"r":0,"d":0,"w":"007/01"}')
@example('{"id":1,"r":0,"d":0,"w":" 1/1"}')
@example('{"id":1,"r":0,"d":0,"w":"1/0"}')
@example('{"id":%s,"r":0,"d":0,"w":"1/1"}' % OVER_LIMIT)
@example('{"id":1,"r":0,"d":0,"w":"%s/1"}' % OVER_LIMIT)
@example('{"id":1,"r":0,"d":0,"w":"1/1","id":2}')
@example('{"id":1.0,"r":0,"d":true,"w":"1/1"}')
@example('{"id":1,"r":0,"d":0,"w":"1/1"} 1')
def test_one_cell_one_answer(line):
    """A cell read as an instance line and as the trace line A,0,<cell>
    gives the same packet, or the same message after the line prefix."""
    cell = line.strip()            # what the instance reader reads
    assume(len(cell.splitlines()) == 1)
    try:
        text = f"H,1,planm\nA,0,{cell}\nG,0/1\n"
        packet = parse_trace(text, scale=WeightScale([])).events[0].packet
    except TraceSyntaxError as exc:
        with pytest.raises(InstanceSyntaxError) as from_instance:
            parse_instance(cell)
        assert (from_instance.value.line, exc.line) == (1, 2)
        assert str(from_instance.value)[len("line 1: "):] == str(exc)[len("trace line 2: "):]
    else:
        assert _outcome(parse_instance, cell) == _outcome(validate, [packet])


# -- every writer emits the lane's form ----------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_writers_emit_the_canonical_line(kind, seed):
    """Every line serialize_instance writes and every A line's cell
    format_trace writes fully matches the one packet pattern, so no
    writer's output falls back to JSON."""
    instance = generate(GeneratorConfig(kind, 12, seed, packets_per_step=3, weight_max=30))
    lines = serialize_instance(instance).splitlines()
    assert len(lines) == len(instance.packets)
    assert all(model._PACKET_CELL.fullmatch(line) for line in lines)
    for algorithm in ("planm", "greedy"):
        arrivals = [
            line.split(",", 2)[1:]
            for line in format_trace(run(algorithm, instance)[1]).splitlines()
            if line.startswith("A,")
        ]
        assert len(arrivals) == len(instance.packets)
        for t, cell in arrivals:
            parse_integer(t)
            assert model._PACKET_CELL.fullmatch(cell)
