"""Exact Q[phi] arithmetic against an independent high-precision oracle."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from planpack.golden import (
    GoldenNumber,
    ONE,
    PHI,
    PHI2,
    PHI_INV,
    PHI_INV2,
    PHI_INV3,
    TaggedWeight,
    TiebreakSource,
    WeightScale,
    ZERO,
    format_golden,
    format_rational,
    format_tagged,
    golden,
    golden_mul,
    golden_sign,
    parse_golden,
    parse_integer,
    parse_rational,
    parse_tagged,
)

mpmath.mp.dps = 80


def mp_sign(x: GoldenNumber) -> int:
    """Oracle: evaluate a + b*phi at 80 decimal digits and take the sign.

    For |a|, |b| <= 10**6 a nonzero value is bounded away from zero by
    far more than the working precision, so the float sign is trustworthy.
    """
    phi = (1 + mpmath.sqrt(5)) / 2
    val = (
        mpmath.mpf(x.a.numerator) / x.a.denominator
        + (mpmath.mpf(x.b.numerator) / x.b.denominator) * phi
    )
    if val > mpmath.mpf("1e-40"):
        return 1
    if val < mpmath.mpf("-1e-40"):
        return -1
    return 0


def test_sign_zero():
    assert golden_sign(golden(0, 0)) == 0


def test_sign_phi_squared_positive():
    assert golden_sign(golden(1, 1)) == 1


def test_sign_dominance_example():
    # -8 + 5*phi: s = 2*(-8)+5 = -11, b = 5 disagree; 5*5**2 = 125 beats
    # (-11)**2 = 121, so the sqrt-5 term wins and the sign is +1.
    x = golden(-8, 5)
    assert 5 * 5**2 == 125
    assert (2 * -8 + 5) ** 2 == 121
    assert golden_sign(x) == 1
    assert golden_sign(-x) == -1


def test_sign_agrees_with_float_oracle():
    rng = random.Random(20260822)
    for _ in range(10_000):
        a = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000))
        b = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000))
        x = GoldenNumber(a, b)
        assert golden_sign(x) == mp_sign(x), f"disagree at {x}"


def squaring_sign(x: GoldenNumber) -> int:
    """Reference: the sign of a + b*phi = (s + b*sqrt5)/2 from s**2 vs
    5*b**2 alone, with no bracket in front."""
    a, b = x.a, x.b
    if b == 0:
        return (a > 0) - (a < 0)
    s = 2 * a + b
    sb = (b > 0) - (b < 0)
    ss = (s > 0) - (s < 0)
    if ss == 0 or ss == sb:
        return sb
    return ss if s * s > 5 * b * b else sb


def from_sb(s, b) -> GoldenNumber:
    """The golden number (s + b*sqrt5)/2, that is a = (s - b)/2."""
    a = Fraction(s - b, 2)
    return GoldenNumber(int(a) if a.denominator == 1 else a, b)


# the two Lucas/Fibonacci ratios golden_sign brackets sqrt5 with
L40, F40 = 228826127, 102334155
L41, F41 = 370248451, 165580141


def lucas_fibonacci(count: int):
    """(n, L_n, F_n) for n = 0 .. count - 1."""
    f0, f1 = 0, 1                   # F_n, F_(n+1)
    for n in range(count):
        yield n, 2 * f1 - f0, f0
        f0, f1 = f1, f0 + f1


def test_sqrt5_bracket_identities():
    """L_n**2 - 5*F_n**2 = 4*(-1)**n puts L_40/F_40 above sqrt5 and
    L_41/F_41 below it."""
    assert L40**2 - 5 * F40**2 == 4
    assert L41**2 - 5 * F41**2 == -4
    assert L41 * F40 < L40 * F41
    seq = {n: (l, f) for n, l, f in lucas_fibonacci(200)}
    assert seq[40] == (L40, F40) and seq[41] == (L41, F41)
    assert all(l * l - 5 * f * f == 4 * (-1) ** n for n, (l, f) in seq.items())


# every n up to 300, then a sample of both parities up to about 6,000
# bits (F_n has about 0.694*n bits)
HARD_N = 8650
HARD_NS = {*range(300), *range(300, HARD_N, 97), HARD_N - 2, HARD_N - 1}


def test_sign_on_lucas_fibonacci_pairs():
    """|s|/|b| = L_n/F_n and (L_n +- 1)/F_n are the closest ratios to
    sqrt5 of their size; from n = 90 on they lie strictly inside the
    bracket, so golden_sign decides them by squaring."""
    for n, l, f in lucas_fibonacci(HARD_N):
        if f == 0 or n not in HARD_NS:
            continue
        for s_abs, b_abs, s_wins in (
            (l, f, n % 2 == 0),
            (3 * l, 3 * f, n % 2 == 0),
            ((2**61 - 1) * l, (2**61 - 1) * f, n % 2 == 0),
            (l + 1, f, n > 1),
            (l - 1, f, False),
        ):
            if n >= 90:
                assert s_abs * F40 < b_abs * L40 and s_abs * F41 > b_abs * L41
            for ss, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                x = from_sb(ss * s_abs, sb * b_abs)
                want = sb if ss == sb or s_abs == 0 else (ss if s_wins else sb)
                assert golden_sign(x) == squaring_sign(x) == want, (n, s_abs, ss, sb)
    assert (2**61 - 1) * l > 2**6000


def test_sign_at_zero_parts():
    for k in (1, 2, 7, 2**5000 + 1, Fraction(1, 3), Fraction(-(2**4000), 7)):
        for v in (k, -k):
            want = (v > 0) - (v < 0)
            for x in (golden(0, v), golden(v, 0), golden(-v, 2 * v), golden(Fraction(-v, 2), v)):
                assert golden_sign(x) == squaring_sign(x)
            assert golden_sign(golden(0, v)) == want           # a = 0
            assert golden_sign(golden(v, 0)) == want           # b = 0
            assert golden_sign(golden(-v, 2 * v)) == want      # s = 0
    assert golden_sign(golden(0, 0)) == squaring_sign(golden(0, 0)) == 0


big_ints = st.integers(min_value=-(2**5000), max_value=2**5000)
big_fractions = st.builds(Fraction, big_ints, st.integers(min_value=1, max_value=2**300))


@st.composite
def near_sqrt5(draw, scalars):
    """(s, b) with |s| within a few units of |b|*sqrt5 and opposite signs,
    times a common scalar: the pairs the bracket cannot decide."""
    b = draw(st.integers(min_value=1, max_value=2**5000))
    s = math.isqrt(5 * b * b) + draw(st.integers(min_value=-3, max_value=3))
    sign = draw(st.sampled_from((1, -1)))
    k = draw(scalars)
    return from_sb(sign * s * k, -sign * b * k)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(GoldenNumber, big_ints, big_ints),
    st.builds(GoldenNumber, big_fractions, big_fractions),
    near_sqrt5(st.integers(min_value=1, max_value=2**64)),
    near_sqrt5(st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)),
))
def test_sign_agrees_with_squaring(x):
    assert golden_sign(x) == squaring_sign(x)


def test_mul_defining_identity():
    assert golden_mul(PHI, PHI) == PHI2 == golden(1, 1)


def test_mul_conjugate_identity():
    assert golden_mul(PHI, PHI - ONE) == ONE


def test_mul_schoolbook():
    assert golden_mul(golden(2, 1), golden(3, 0)) == golden(6, 3)


def test_inverse_power_constants():
    assert golden_mul(PHI, PHI_INV) == ONE
    assert golden_mul(PHI_INV, PHI_INV) == PHI_INV2
    assert golden_mul(PHI_INV2, PHI_INV) == PHI_INV3
    assert PHI_INV == PHI - ONE
    assert PHI_INV2 == golden(2) - PHI
    assert PHI_INV3 == 2 * PHI - golden(3)


small_rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
goldens = st.builds(GoldenNumber, small_rationals, small_rationals)


@given(goldens, goldens, goldens)
def test_ring_axioms(x, y, z):
    assert golden_mul(x, y) == golden_mul(y, x)
    assert golden_mul(golden_mul(x, y), z) == golden_mul(x, golden_mul(y, z))
    assert golden_mul(x, y + z) == golden_mul(x, y) + golden_mul(x, z)
    assert (x + y) + z == x + (y + z)
    assert x - x == ZERO


@given(goldens, goldens)
def test_order_consistent_with_difference(x, y):
    s = golden_sign(x - y)
    assert (x < y) == (s < 0)
    assert (x > y) == (s > 0)
    assert (x <= y) == (s <= 0)


def test_tagged_weight_lexicographic_order():
    assert TaggedWeight(Fraction(3), -1) < TaggedWeight(Fraction(4), -9)
    assert TaggedWeight(Fraction(3), -2) < TaggedWeight(Fraction(3), -1)
    assert TaggedWeight(Fraction(3), -1) < TaggedWeight(Fraction(3), 1)


def test_bumped_weight_sits_above_minwt_realizer():
    src = TiebreakSource()
    realizer = TaggedWeight(Fraction(5), src.sub_zero())
    bumped = TaggedWeight(realizer.value, src.fresh())
    assert bumped > realizer
    assert bumped.value == realizer.value


def test_weight_scale_round_trip():
    scale = WeightScale([Fraction(1, 6), Fraction(3, 35), Fraction(2), Fraction(5, 11)])
    assert scale.denominator == 2310
    assert scale.scaled(Fraction(1, 6)) == 385
    for w in (Fraction(1, 6), Fraction(3, 35), Fraction(0), Fraction(7, 2310), Fraction(13, 6)):
        assert scale.rational(scale.scaled(w)) == w
    with pytest.raises(ValueError):
        scale.scaled(Fraction(1, 4))
    assert WeightScale([Fraction(3), Fraction(0)]).denominator == 1
    assert WeightScale([Fraction(1, 2)]) == WeightScale([Fraction(3, 2), Fraction(7)])
    assert WeightScale([Fraction(1, 2)]) != WeightScale([Fraction(1, 3)])


# n*f/(d*f): a weight written unreduced, which Fraction reduces to n/d
unreduced = st.builds(
    lambda n, d, f: Fraction(n * f, d * f),
    st.integers(0, 10**40), st.sampled_from([1, 2, 3, 6, 7, 10, 12, 610, 372100, 2**61 - 1]),
    st.integers(1, 50),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(unreduced, max_size=12), st.randoms(use_true_random=False), unreduced)
def test_weight_scale_is_the_lcm_in_any_order(weights, rnd, probe):
    weights = weights + weights[: len(weights) // 2]      # duplicates
    rnd.shuffle(weights)
    scale = WeightScale(weights)
    d = math.lcm(*(w.denominator for w in weights))
    assert scale.denominator == d
    for w in weights + weights:                           # each twice, any order
        assert scale.scaled(w) == w * d
    # a weight off the 1/D grid fails alike every time: no factor is kept
    if d % probe.denominator:
        errors = []
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                scale.scaled(probe)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
    else:
        assert scale.scaled(probe) == scale.scaled(probe) == probe * d


def test_tiebreak_counters():
    src = TiebreakSource()
    assert src.fresh() == 1
    assert src.fresh() == 2
    assert src.sub_zero() == -1
    assert src.sub_zero() == -2
    # the two directions never collide
    assert src.fresh() > 0 > src.sub_zero()


def test_rational_serialization():
    assert format_rational(Fraction(-8, 2)) == "-4/1"
    assert parse_rational("7/2") == Fraction(7, 2)
    with pytest.raises(ValueError):
        parse_rational("5/0")
    with pytest.raises(ValueError):
        parse_rational("5")
    with pytest.raises(ValueError):
        parse_rational("a/b")


ARABIC_THREE = "\u0663"


@pytest.mark.parametrize("parse, text", [
    (parse_integer, " +0"),
    (parse_integer, "1_0"),
    (parse_integer, ARABIC_THREE),
    (parse_integer, "3\n"),
    (parse_rational, "1_5/1"),
    (parse_rational, " +3/1"),
    (parse_rational, f"{ARABIC_THREE}/1"),
    (parse_rational, "3/-1"),
    (parse_rational, "3/1\n"),
    (parse_golden, "1/1+3/-1*phi"),
    (parse_golden, "1/1+1/1*phi\n"),
    (lambda text: parse_tagged(text, WeightScale([])), f"{ARABIC_THREE}/1(+0)"),
    (lambda text: parse_tagged(text, WeightScale([])), "3/-1(+0)"),
    (lambda text: parse_tagged(text, WeightScale([])), "3/1(+0)\n"),
], ids=[
    "int-sign-and-blank", "int-underscore", "int-arabic-indic", "int-newline",
    "rational-underscore", "rational-sign-and-blank", "rational-arabic-indic",
    "rational-negative-denominator", "rational-newline",
    "golden-negative-denominator", "golden-newline",
    "tagged-arabic-indic", "tagged-negative-denominator", "tagged-newline",
])
def test_number_grammar_rejects_what_int_would_read(parse, text):
    """int() reads each of these, so without the grammar two distinct
    texts would stand for one number."""
    with pytest.raises(ValueError):
        parse(text)


def test_golden_serialization_round_trip():
    x = golden(Fraction(-8), Fraction(5))
    assert format_golden(x) == "-8/1+5/1*phi"
    assert parse_golden("-8/1+5/1*phi") == x
    assert parse_golden("-8/1+-5/1*phi") == golden(-8, -5)
    with pytest.raises(ValueError):
        parse_golden("3/1")


def test_tagged_serialization_round_trip():
    scale = WeightScale([Fraction(5), Fraction(7, 2)])
    w = TaggedWeight(10, -3)
    assert format_tagged(w, scale) == "5/1(-3)"
    assert parse_tagged("5/1(-3)", scale) == w
    assert parse_tagged("7/2(+11)", scale) == TaggedWeight(7, 11)
    assert format_tagged(TaggedWeight(7, 11), scale) == "7/2(+11)"
    with pytest.raises(ValueError):
        parse_tagged("7/2(3)", scale)
    with pytest.raises(ValueError):
        parse_tagged("1/3(+1)", scale)


@given(small_rationals, small_rationals)
def test_golden_format_parse_identity(a, b):
    x = GoldenNumber(a, b)
    assert parse_golden(format_golden(x)) == x
