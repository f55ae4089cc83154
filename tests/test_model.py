"""Instance model: validation, JSONL round-trips, and the generator families."""

import random
from fractions import Fraction

import pytest

from planpack.golden import TaggedWeight, TiebreakSource
from planpack.generators import (
    GeneratorConfig,
    InvalidConfigError,
    KINDS,
    PHI_APPROX,
    generate,
)
from planpack.model import (
    DeadlineBeforeReleaseError,
    DuplicateIdError,
    InstanceError,
    InstanceSyntaxError,
    NegativeWeightError,
    Packet,
    parse_instance,
    serialize_instance,
    serialize_packet,
    tagged_weight_map,
    validate,
)
from conftest import INSTANCE_END_EDITS, REPEATED_KEY_EDITS, mk


def test_w2_validates(w2):
    assert w2.horizon == 1
    assert w2.sentinel == 2
    assert [p.id for p in w2.packets] == [1, 2, 3]


def test_w1_packets_sorted_by_release_then_id(w1):
    assert [(p.release, p.id) for p in w1.packets] == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_empty_instance():
    inst = validate([])
    assert inst.horizon == -1
    assert inst.sentinel == 0
    assert inst.packets == ()


def test_deadline_before_release_rejected():
    with pytest.raises(DeadlineBeforeReleaseError):
        validate([mk(1, 3, 2, 1)])


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateIdError):
        validate([mk(1, 0, 1, 1), mk(1, 0, 2, 2)])


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeightError):
        validate([mk(1, 0, 1, -1)])


def test_negative_release_rejected():
    with pytest.raises(InstanceError):
        validate([mk(1, -1, 1, 1)])


def test_negative_id_rejected():
    """Negative ids are reserved for virtual packets."""
    with pytest.raises(InstanceError):
        validate([mk(-1, 0, 1, 1)])


def test_zero_weight_allowed():
    inst = validate([mk(1, 0, 0, 0)])
    assert inst.packets[0].weight == 0


def test_parse_single_line():
    inst = parse_instance('{"id": 1, "r": 0, "d": 0, "w": "5/1"}\n')
    assert inst.packets == (Packet(1, 0, 0, Fraction(5)),)


def test_parse_reports_line_number():
    text = '{"id": 1, "r": 0, "d": 1, "w": "2/1"}\n{"id": 2, "r": 0, "d": 1, "w": "5/0"}\n'
    with pytest.raises(InstanceSyntaxError) as exc:
        parse_instance(text)
    assert exc.value.line == 2


def test_parse_rejects_missing_key():
    with pytest.raises(InstanceSyntaxError):
        parse_instance('{"id": 1, "r": 0, "d": 1}\n')


def test_parse_rejects_extra_key():
    with pytest.raises(InstanceSyntaxError):
        parse_instance('{"id": 1, "r": 0, "d": 1, "w": "1/1", "x": 0}\n')


def test_parse_rejects_non_integer_fields():
    with pytest.raises(InstanceSyntaxError):
        parse_instance('{"id": 1, "r": 0.5, "d": 1, "w": "1/1"}\n')


@pytest.mark.parametrize("weight", ["5", "null", "[1]", "1.5"])
def test_parse_rejects_non_string_weight(weight):
    with pytest.raises(InstanceSyntaxError):
        parse_instance(f'{{"id": 1, "r": 0, "d": 1, "w": {weight}}}\n')


@pytest.mark.parametrize("weight", ["1_5/1", " +3/1", "\u0663/1", "-3/-1"],
                         ids=["underscore", "sign-and-blank", "arabic-indic", "negative-denominator"])
def test_parse_rejects_weights_off_the_grammar(weight):
    """Each reads, through int(), as a weight that a canonical line also writes."""
    with pytest.raises(InstanceSyntaxError, match="line 1: bad weight"):
        parse_instance(f'{{"id": 1, "r": 0, "d": 1, "w": "{weight}"}}\n')


def test_parse_rejects_repeated_key(w2):
    """Read keeping the last of each key, the edited line is packet 1."""
    _, canonical, repeated = REPEATED_KEY_EDITS["instance-packet"]
    text = serialize_instance(w2)
    assert text.count(canonical) == 1
    with pytest.raises(InstanceSyntaxError, match="line 1: a key repeats"):
        parse_instance(text.replace(canonical, repeated))


@pytest.mark.parametrize("canonical, edited", INSTANCE_END_EDITS.values(),
                         ids=INSTANCE_END_EDITS.keys())
def test_parse_rejects_text_after_the_packet(w2, canonical, edited):
    text = serialize_instance(w2)
    assert text.count(canonical) == 1
    with pytest.raises(InstanceSyntaxError) as exc:
        parse_instance(text.replace(canonical, edited))
    assert exc.value.line == 2


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("line", [
    DEEP_JSON,                                      # nesting past the recursion limit
    '{"id": 1, "r": 0, "d": %s, "w": "1/1"}' % ("9" * 5000),   # past the digit limit
], ids=["deep-nesting", "huge-integer"])
def test_parse_rejects_unreadable_json(line):
    with pytest.raises(InstanceSyntaxError, match="line 1: bad JSON"):
        parse_instance(line + "\n")


def test_parse_keeps_validation_error_types():
    with pytest.raises(DuplicateIdError):
        parse_instance(
            '{"id": 7, "r": 0, "d": 1, "w": "1/1"}\n{"id": 7, "r": 0, "d": 2, "w": "1/1"}\n'
        )


def test_serialize_packet_shape():
    line = serialize_packet(mk(3, 1, 4, Fraction(7, 2)))
    assert line == '{"id":3,"r":1,"d":4,"w":"7/2"}'


def test_blank_lines_ignored(w2):
    text = serialize_instance(w2)
    assert parse_instance(text + "\n\n") == w2


def random_instance(rng: random.Random):
    n = rng.randint(0, 30)
    packets = []
    for pid in range(1, n + 1):
        r = rng.randint(0, 20)
        d = r + rng.randint(0, 10)
        w = Fraction(rng.randint(0, 10**6), rng.randint(1, 1000))
        packets.append(Packet(pid, r, d, w))
    return validate(packets)


def test_round_trip_random_instances():
    rng = random.Random(20260822)
    for _ in range(1000):
        inst = random_instance(rng)
        assert parse_instance(serialize_instance(inst)) == inst


def test_horizon_cap_enforced(monkeypatch):
    monkeypatch.setenv("SCHED_HORIZON_CAP", "10")
    with pytest.raises(InstanceError):
        validate([mk(1, 0, 10, 1)])
    validate([mk(1, 0, 9, 1)])


def test_horizon_cap_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("SCHED_HORIZON_CAP", "abc")
    with pytest.raises(InstanceError, match="SCHED_HORIZON_CAP must be an integer, got 'abc'"):
        validate([mk(1, 0, 9, 1)])


def test_horizon_cap_absent_by_default(monkeypatch):
    monkeypatch.delenv("SCHED_HORIZON_CAP", raising=False)
    validate([mk(1, 0, 10**6, 1)])


def test_tagged_weight_map_ranks_by_validation_order(w1):
    src = TiebreakSource()
    weights = tagged_weight_map(w1, src)
    assert weights[1] == TaggedWeight(Fraction(3), -1)
    assert weights[2] == TaggedWeight(Fraction(5), -2)
    assert weights[3] == TaggedWeight(Fraction(1), -3)
    assert weights[4] == TaggedWeight(Fraction(4), -4)
    # later sub-zero draws rank below every input packet
    assert src.sub_zero() == -5


def test_tagged_weight_map_breaks_weight_ties():
    """Equal base weights stay distinct: earlier packets rank higher."""
    inst = validate([mk(1, 0, 1, 5), mk(2, 0, 2, 5)])
    weights = tagged_weight_map(inst, TiebreakSource())
    assert weights[1] > weights[2]
    assert weights[1].value == weights[2].value


# generators


def test_unknown_kind_rejected():
    with pytest.raises(InvalidConfigError):
        GeneratorConfig(kind="nope", steps=4).check()


def test_bad_steps_rejected():
    with pytest.raises(InvalidConfigError):
        GeneratorConfig(kind="uniform-random", steps=-1).check()


@pytest.mark.parametrize("kind", KINDS)
def test_generators_deterministic(kind):
    a = generate(GeneratorConfig(kind=kind, steps=9, seed=42))
    b = generate(GeneratorConfig(kind=kind, steps=9, seed=42))
    assert serialize_instance(a) == serialize_instance(b)


@pytest.mark.parametrize("kind", KINDS)
def test_generators_validate_and_fit_horizon(kind):
    for seed in range(5):
        inst = generate(GeneratorConfig(kind=kind, steps=11, seed=seed))
        validate(list(inst.packets))
        for p in inst.packets:
            assert 0 <= p.release <= p.deadline


@pytest.mark.parametrize("kind", KINDS)
def test_generators_empty_when_no_steps(kind):
    assert generate(GeneratorConfig(kind=kind, steps=0)).packets == ()


def test_uniform_random_deadlines_within_run():
    inst = generate(GeneratorConfig(kind="uniform-random", steps=14, seed=3))
    assert inst.packets
    assert all(p.deadline <= 13 for p in inst.packets)


def test_seed_changes_output():
    a = generate(GeneratorConfig(kind="uniform-random", steps=12, seed=1))
    b = generate(GeneratorConfig(kind="uniform-random", steps=12, seed=2))
    assert serialize_instance(a) != serialize_instance(b)


def test_s_bounded_span():
    cfg = GeneratorConfig(kind="s-bounded", steps=20, seed=7, span=2)
    inst = generate(cfg)
    assert inst.packets
    assert all(p.deadline - p.release <= 2 for p in inst.packets)
    assert any(p.deadline - p.release == 2 for p in inst.packets)


def test_agreeable_deadlines_follow_releases():
    """Sorted by (release, id), deadlines never decrease."""
    for seed in range(4):
        inst = generate(GeneratorConfig(kind="agreeable", steps=25, seed=seed))
        deadlines = [p.deadline for p in inst.packets]
        assert deadlines == sorted(deadlines)


def test_phi_adversarial_structure():
    inst = generate(GeneratorConfig(kind="phi-adversarial", steps=12))
    r = PHI_APPROX
    assert len(inst.packets) == 24
    for i in range(12):
        tight, flex = inst.packets[2 * i], inst.packets[2 * i + 1]
        assert (tight.release, tight.deadline) == (2 * i, 2 * i)
        assert (flex.release, flex.deadline) == (2 * i, 2 * i + 1)
        assert tight.weight == r**i
        assert flex.weight == r ** (i + 1)


def test_phi_adversarial_ignores_seed():
    a = generate(GeneratorConfig(kind="phi-adversarial", steps=6, seed=1))
    b = generate(GeneratorConfig(kind="phi-adversarial", steps=6, seed=99))
    assert serialize_instance(a) == serialize_instance(b)
