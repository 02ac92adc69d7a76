"""Exact integer number theory on the small integers the package meets.

Primality is deterministic Miller-Rabin with the bases 2, 3, 5, 7, which
is exact for every m < 3,215,031,751 (Pomerance, Selfridge and Wagstaff
1980; Jaeschke 1993).  Factorization is trial division.
"""

from __future__ import annotations

MILLER_RABIN_BOUND = 3_215_031_751  # the least strong pseudoprime to bases 2, 3, 5, 7
_BASES = (2, 3, 5, 7)


def is_prime(m: int) -> bool:
    """Is m prime?  Exact for m < MILLER_RABIN_BOUND; raises ValueError above it."""
    if m < 2:
        return False
    for q in _BASES:
        if m % q == 0:
            return m == q
    if m >= MILLER_RABIN_BOUND:
        raise ValueError(f"Miller-Rabin with bases {_BASES} is exact only below {MILLER_RABIN_BOUND}")
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of m >= 1, by trial division.

    Trip count: at most sqrt(m)/2 + 1 trial divisors, since the odd
    divisors stop once their square exceeds what is left of m.
    """
    if m < 1:
        raise ValueError(f"factorize needs m >= 1, got {m}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out
