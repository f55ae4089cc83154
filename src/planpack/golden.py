"""Exact arithmetic over the golden-ratio field Q[phi], and exact weights.

Every quantity the analysis machinery compares has the form a + b*phi
with rational a, b, where phi = (1 + sqrt 5)/2.  Signs of such numbers
are decided by rational arithmetic alone, so each inequality check in
the verifier is a binary, tolerance-free verdict.

Inside a run the rationals are integers: every weight a run holds is an
input weight or 0, and every other quantity is a sum of weights, so
multiplying all of them by the instance's common denominator D (see
:class:`WeightScale`) makes every weight an int and every golden number
a pair of ints in units of 1/D.  Comparisons are then integer
comparisons.  Rationals reappear only where values are read from or
written to text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

Q = Fraction

Scalar = Union[int, Fraction]


def _sign(q: Fraction | int) -> int:
    return (q > 0) - (q < 0)


@dataclass(frozen=True, slots=True)
class GoldenNumber:
    """Element a + b*phi of Q[phi], normalized via phi**2 = phi + 1.

    The coefficients are ints or Fractions.  Inside a run they are ints
    in units of 1/D, the run's common weight denominator, so the
    arithmetic stays in integers; :meth:`WeightScale.golden` turns such
    a number back into the rational one it stands for.

    Closed under +, -, * and division by a rational scalar.  Ordering
    dunders compare exactly through :func:`golden_sign`.
    """

    a: Scalar
    b: Scalar

    @staticmethod
    def _coerce(other: "GoldenNumber | Scalar") -> "GoldenNumber":
        if isinstance(other, GoldenNumber):
            return other
        return GoldenNumber(other, 0)

    def __add__(self, other: "GoldenNumber | Scalar") -> "GoldenNumber":
        o = self._coerce(other)
        return GoldenNumber(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: "GoldenNumber | Scalar") -> "GoldenNumber":
        o = self._coerce(other)
        return GoldenNumber(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: "GoldenNumber | Scalar") -> "GoldenNumber":
        o = self._coerce(other)
        return GoldenNumber(o.a - self.a, o.b - self.b)

    def __neg__(self) -> "GoldenNumber":
        return GoldenNumber(-self.a, -self.b)

    def __mul__(self, other: "GoldenNumber | Scalar") -> "GoldenNumber":
        if isinstance(other, GoldenNumber):
            return golden_mul(self, other)
        return GoldenNumber(self.a * other, self.b * other)

    def __rmul__(self, other: Scalar) -> "GoldenNumber":
        return GoldenNumber(self.a * other, self.b * other)

    def __truediv__(self, other: Scalar) -> "GoldenNumber":
        q = Fraction(other)
        return GoldenNumber(self.a / q, self.b / q)

    def sign(self) -> int:
        return golden_sign(self)

    def __lt__(self, other: "GoldenNumber") -> bool:
        return golden_sign(self - other) < 0

    def __le__(self, other: "GoldenNumber") -> bool:
        return golden_sign(self - other) <= 0

    def __gt__(self, other: "GoldenNumber") -> bool:
        return golden_sign(self - other) > 0

    def __ge__(self, other: "GoldenNumber") -> bool:
        return golden_sign(self - other) >= 0

    def __str__(self) -> str:
        return format_golden(self)


def golden(a: Scalar = 0, b: Scalar = 0) -> GoldenNumber:
    return GoldenNumber(a, b)


ZERO = golden(0)
ONE = golden(1)
PHI = golden(0, 1)
PHI2 = golden(1, 1)          # phi**2 = phi + 1
PHI_INV = golden(-1, 1)      # 1/phi = phi - 1
PHI_INV2 = golden(2, -1)     # 1/phi**2 = 2 - phi
PHI_INV3 = golden(-3, 2)     # 1/phi**3 = 2*phi - 3


def golden_sign(x: GoldenNumber) -> int:
    """Exact sign of a + b*phi.

    Writing a + b*phi = (s + b*sqrt5)/2 with s = 2a + b: when b = 0 the
    sign is sign(a); when s and b do not disagree in sign, that shared
    sign wins (s = 0 leaves b*sqrt5 alone).  Otherwise the two terms
    compete and |s| vs |b|*sqrt5 is settled by comparing s**2 with
    5*b**2; equality is impossible for b != 0 since sqrt5 is irrational.
    """
    a, b = x.a, x.b
    if b == 0:
        return _sign(a)
    s = 2 * a + b
    sb = _sign(b)
    ss = _sign(s)
    if ss == 0 or ss == sb:
        return sb
    if s * s > 5 * b * b:
        return ss
    return sb


def golden_mul(x: GoldenNumber, y: GoldenNumber) -> GoldenNumber:
    # (a1 + b1 phi)(a2 + b2 phi) with phi**2 = phi + 1
    a1, b1, a2, b2 = x.a, x.b, y.a, y.b
    return GoldenNumber(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)


class TaggedWeight(NamedTuple):
    """A packet weight: integer base value plus an order-only tiebreak.

    The base value is the weight times the run's common denominator D
    (see :class:`WeightScale`), so it is an int, and the total order is
    the tuple order (value, tiebreak).  Tiebreaks make all live weights
    distinct but carry no measure, so every reported gain sums base
    values only.  Every base value a run holds is an input weight or 0:
    a bump copies an existing threshold, and virtual packets weigh 0.
    """

    value: int
    tiebreak: int


class WeightScale:
    """The common denominator D of a collection of rational weights.

    D is the lcm of the weights' denominators, 1 when they are all
    integers.  ``scaled`` maps a rational w to the int w*D and
    ``rational`` maps such an int back.  An input weight comes back
    from a table built on first use; anything else, such as a sum, is
    reduced from x/D.
    """

    __slots__ = ("denominator", "_weights", "_rationals")

    def __init__(self, weights: Iterable[Fraction]) -> None:
        self._weights = tuple(weights)
        self._rationals: dict[int, Fraction] | None = None
        self.denominator = math.lcm(*{w.denominator for w in self._weights})

    def __eq__(self, other: object) -> bool:
        # the table only caches x/D, so D alone fixes what a scale means
        if not isinstance(other, WeightScale):
            return NotImplemented
        return self.denominator == other.denominator

    def __hash__(self) -> int:
        return hash(self.denominator)

    def scaled(self, w: Scalar) -> int:
        """w*D; ValueError unless w is a multiple of 1/D."""
        k, r = divmod(self.denominator, w.denominator)
        if r:
            raise ValueError(
                f"weight {format_rational(w)} is not a multiple of 1/{self.denominator}"
            )
        return w.numerator * k

    def rational(self, x: int) -> Fraction:
        """The exact rational x/D."""
        if self.denominator == 1:
            return Fraction(x)
        if self._rationals is None:
            self._rationals = {self.scaled(w): w for w in self._weights}
        q = self._rationals.get(x)
        return Fraction(x, self.denominator) if q is None else q

    def golden(self, x: GoldenNumber) -> GoldenNumber:
        """The golden number with rational coefficients that x stands for."""
        return GoldenNumber(self.rational(x.a), self.rational(x.b))


class TiebreakSource:
    """Per-run monotone counters behind the infinitesimal perturbations.

    fresh() counts 1, 2, ... and is used for weight bumps: a bumped
    weight (v, fresh) sits strictly above every pre-existing weight of
    base value v.  sub_zero() counts -1, -2, ... downward and ranks
    input packets (in validation order, so the earliest packet is the
    heaviest among equal base values) and, further down, materialized
    zero-weight virtual packets.
    """

    def __init__(self) -> None:
        self._up = 0
        self._down = 0

    def fresh(self) -> int:
        self._up += 1
        return self._up

    def sub_zero(self) -> int:
        self._down -= 1
        return self._down

    def clone(self) -> "TiebreakSource":
        dup = TiebreakSource()
        dup._up = self._up
        dup._down = self._down
        return dup


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    if not sep:
        raise ValueError(f"rational must look like num/den: {text!r}")
    try:
        n = int(num)
        d = int(den)
    except ValueError as exc:
        raise ValueError(f"bad rational {text!r}") from exc
    if d == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(n, d)


def format_golden(x: GoldenNumber) -> str:
    return f"{format_rational(x.a)}+{format_rational(x.b)}*phi"


_GOLDEN_RE = re.compile(r"^(-?\d+/-?\d+)\+(-?\d+/-?\d+)\*phi$")


def parse_golden(text: str) -> GoldenNumber:
    m = _GOLDEN_RE.match(text)
    if m is None:
        raise ValueError(f"bad golden number {text!r}")
    return GoldenNumber(parse_rational(m.group(1)), parse_rational(m.group(2)))


def format_tagged(w: TaggedWeight, scale: WeightScale) -> str:
    """Text form of w, whose value is in scale's units."""
    return f"{format_rational(scale.rational(w.value))}({w.tiebreak:+d})"


_TAGGED_RE = re.compile(r"^(-?\d+/-?\d+)\(([+-]\d+)\)$")


def parse_tagged(text: str, scale: WeightScale) -> TaggedWeight:
    """Inverse of format_tagged; ValueError unless the value is a
    multiple of 1/D."""
    m = _TAGGED_RE.match(text)
    if m is None:
        raise ValueError(f"bad tagged weight {text!r}")
    return TaggedWeight(scale.scaled(parse_rational(m.group(1))), int(m.group(2)))
