"""Text form for exact rationals (`p/q` notation)."""

from __future__ import annotations

from fractions import Fraction


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}" if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
