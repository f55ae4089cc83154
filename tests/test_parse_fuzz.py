"""Fuzzing the file parsers: any text either parses or fails with the
parser's typed error, never with another exception; the number grammar
they share takes exactly its strings; and every writer's output reads
back as what was written."""

import json
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

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
        result = parse_trace(text)
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
    assert parse_trace(format_trace(trace)) == trace
    schedule = optimal_schedule(instance)
    assert parse_schedule(format_schedule(schedule)) == schedule


# -- forms no writer emits but every reader accepts -----------------------

def _read_alike(w2, edits) -> None:
    """Each file of the W2 run, edited, reads as the file itself."""
    readers = (parse_instance, parse_trace, parse_schedule)
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
