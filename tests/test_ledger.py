"""The audit ledger writer: byte-equal to a plain Fraction + csv.writer
loop, exact text for every scaled value, and no state kept between
calls."""

import csv
import io
import math
from fractions import Fraction

from hypothesis import given, strategies as st

from planpack.cli import LEDGER_COLUMNS, _display, _integral, write_ledger
from planpack.generators import GeneratorConfig, generate
from planpack.golden import (
    WeightScale,
    format_golden,
    format_rational,
    parse_golden,
)
from planpack.model import Packet, validate
from planpack.offline import Schedule, optimal_schedule
from planpack.schedulers import run
from planpack.verifier import verify_trace


def reference_ledger(result) -> str:
    """The ledger as every cell through Fraction and csv.writer."""
    rational = result.scale.rational

    def golden_text(x):
        return format_golden(result.scale.golden(x))

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LEDGER_COLUMNS)
    for rep in result.reports:
        cells = (
            rep.kind, rep.case, rep.detail,
            _display(rational(rep.advgain)), _display(rational(rep.dweights)),
            golden_text(rep.dpsi_adv), golden_text(rep.dpsi_initseg),
            golden_text(rep.dpsi_window), golden_text(rep.dpsi_total),
            golden_text(rep.psi_after), golden_text(rep.margin),
        )
        writer.writerows((rep.index + k, rep.time + k) + cells for k in range(rep.slots))
    return out.getvalue()


def ledger(result) -> str:
    out = io.StringIO()
    write_ledger(result, out)
    return out.getvalue()


def audit(instance, comparison=None):
    _, trace = run("planm", instance)
    return verify_trace(instance, trace, comparison or optimal_schedule(instance))


def mixed_instance(seed: int):
    """s-bounded weights divided by 6, 35 or 11: common denominator 2310."""
    base = generate(GeneratorConfig("s-bounded", 60, seed=seed, span=8))
    return validate(
        Packet(p.id, p.release, p.deadline, p.weight / (6, 35, 11)[p.id % 3])
        for p in base.packets
    )


def phi_instance(epochs: int = 60):
    """Weights (987/610)**i: a common denominator of 168 digits at 60 epochs."""
    return generate(GeneratorConfig("phi-adversarial", epochs))


def leap_instance(steps: int, seed: int):
    """Small s-bounded runs whose leap details hold commas."""
    return generate(GeneratorConfig(
        "s-bounded", steps, seed=seed, packets_per_step=4, weight_max=20, span=4
    ))


GAP = 10**4


def gap_audits():
    """Ten thousand idle slots, audited against the optimum and against a
    comparison that sends packet 2 in the middle of the gap."""
    instance = validate([
        Packet(1, 0, 0, Fraction(5, 3)),
        Packet(2, 0, GAP, Fraction(3, 7)),
        Packet(3, 1, 1, Fraction(2)),
        Packet(4, GAP + 3, GAP + 5, Fraction(4)),
        Packet(5, GAP + 3, GAP + 3, Fraction(1)),
    ])
    middle = Schedule(
        assignment={0: 1, 1: 3, GAP // 2: 2, GAP + 3: 5, GAP + 4: 4},
        weight0=sum(p.weight for p in instance.packets),
    )
    return audit(instance), audit(instance, middle)


def test_mixed_denominators_match_reference():
    for seed in (2, 3, 5):
        result = audit(mixed_instance(seed))
        assert result.scale.denominator == 2310
        assert ledger(result) == reference_ledger(result)


def test_big_denominator_matches_reference():
    result = audit(phi_instance())
    assert len(str(result.scale.denominator)) > 100
    assert ledger(result) == reference_ledger(result)


def test_leap_details_with_commas_match_reference():
    quoted = 0
    for steps, seed in ((20, 7), (40, 58), (40, 158), (20, 13)):
        result = audit(leap_instance(steps, seed))
        text = ledger(result)
        assert text == reference_ledger(result)
        quoted += text.count(',"')
    # "anchors=[0, 1]" holds a comma, so csv must quote the detail cell
    assert quoted > 0


def test_long_idle_stretch_matches_reference():
    for result in gap_audits():
        assert any(rep.slots > GAP // 4 for rep in result.reports)
        text = ledger(result)
        assert text == reference_ledger(result)
        assert text.count("\n") == 1 + sum(rep.slots for rep in result.reports)


def test_no_state_between_calls():
    """The same instance with its weights divided by 7 holds the same
    scaled integers over a 7 times larger D, so a cache kept from one
    call would print the other scale's text."""
    base = mixed_instance(2)
    seventh = validate(
        Packet(p.id, p.release, p.deadline, p.weight / 7) for p in base.packets
    )
    first, second = audit(base), audit(seventh)
    assert second.scale.denominator == 7 * first.scale.denominator
    assert [rep.psi_after for rep in second.reports] == [rep.psi_after for rep in first.reports]
    for result in (first, second, first, second):
        assert ledger(result) == reference_ledger(result)
    assert ledger(first) != ledger(second)


def test_golden_cells_parse_back():
    result = audit(phi_instance(30))
    rows = csv.reader(io.StringIO(ledger(result)))
    assert tuple(next(rows)) == LEDGER_COLUMNS
    scale = result.scale
    for rep in result.reports:
        for _ in range(rep.slots):
            cells = dict(zip(LEDGER_COLUMNS, next(rows)))
            for name in LEDGER_COLUMNS[7:]:
                assert parse_golden(cells[name]) == scale.golden(getattr(rep, name))
            assert Fraction(cells["advgain"]) == scale.rational(rep.advgain)
            assert Fraction(cells["dweights"]) == scale.rational(rep.dweights)
    assert next(rows, None) is None


# denominators: 1, small ones, and products with hundreds of digits
denominators = st.one_of(
    st.integers(1, 50),
    st.lists(st.integers(2, 10**6), min_size=1, max_size=60).map(math.prod),
)


@st.composite
def scale_and_value(draw):
    """A scale over weights with the drawn denominators, and a scaled
    value: 0, an input weight, a multiple of D, or any integer."""
    dens = draw(st.lists(denominators, min_size=1, max_size=4))
    weights = [Fraction(draw(st.integers(0, 10**9)), d) for d in dens]
    scale = WeightScale(weights)
    d = scale.denominator
    x = draw(st.one_of(
        st.just(0),
        st.sampled_from([scale.scaled(w) for w in weights]),
        st.integers(-10**6, 10**6).map(lambda k: k * d),
        st.integers(-(d**2), d**2),
        st.integers(),
    ))
    return scale, x


@given(scale_and_value())
def test_text_is_the_reduced_rational(case):
    scale, x = case
    text = scale.text(x)
    q = scale.rational(x)
    assert q == Fraction(x, scale.denominator)
    assert text == format_rational(q)
    assert _integral(text) == _display(q)


def test_text_edge_values():
    unit = WeightScale([Fraction(3), Fraction(0)])
    assert unit.denominator == 1
    assert [unit.text(x) for x in (0, -4, 7)] == ["0/1", "-4/1", "7/1"]
    big = WeightScale([Fraction(1, 610**60), Fraction(987, 610)])
    d = big.denominator
    assert big.text(0) == "0/1"
    assert big.text(-3 * d) == "-3/1"
    assert big.text(d // 2) == "1/2"
    assert big.text(-1) == f"-1/{d}"
    assert big.text(big.scaled(Fraction(987, 610))) == "987/610"
