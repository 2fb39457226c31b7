"""Cantor pairing on N x N, the index arithmetic everything else rides on.

pair is a bijection N^2 -> N; unpair inverts it exactly with integer sqrt.
pair_run packs an arithmetic run of second arguments with one pair call.
"""

from itertools import accumulate
from math import isqrt


def pair(a: int, b: int) -> int:
    """Diagonal enumeration of N^2: pair(a, b) = (a+b)(a+b+1)/2 + b."""
    if a < 0 or b < 0:
        raise ValueError(f"pair needs nonnegative arguments, got ({a}, {b})")
    s = a + b
    return s * (s + 1) // 2 + b


def pair_run(a: int, b: int, step: int, n: int) -> list[int]:
    """[pair(a, b + k * step) for k in range(n)] for a nonzero step, as one
    pair and one accumulate: pair(a, b + d) - pair(a, b) = d(a + b) +
    d(d + 3)/2, growing by d^2 a term.  A negative argument raises as in pair."""
    if n <= 0 or a < 0 or b < 0 or b + (n - 1) * step < 0:
        return [pair(a, b + k * step) for k in range(n)]  # empty, or raises as pair
    grow = step * step
    first = step * (a + b) + step * (step + 3) // 2
    return list(accumulate(range(first, first + (n - 1) * grow, grow), initial=pair(a, b)))


def unpair(n: int) -> tuple[int, int]:
    """Inverse of pair. Exact for arbitrarily large n (integer sqrt)."""
    if n < 0:
        raise ValueError(f"unpair needs a nonnegative argument, got {n}")
    # Largest s with s(s+1)/2 <= n.
    s = (isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b
