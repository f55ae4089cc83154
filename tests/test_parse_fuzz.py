"""Fuzzing the instance and trace parsers: any text either parses or
fails with the parser's typed error, never with another exception."""

import json

from hypothesis import example, given, settings, strategies as st

from planpack.model import Instance, InstanceError, parse_instance
from planpack.schedulers import RunTrace
from planpack.trace_io import KINDS, TraceSyntaxError, parse_trace

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
