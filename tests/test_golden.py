"""Exact Q[phi] arithmetic against an independent high-precision oracle."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

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
