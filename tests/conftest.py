from functools import lru_cache

import pytest

from skewrank.fields import ExtensionContext

BIG_P = 2**31 - 1  # the largest accepted prime; 3 mod 4, so x^2 + 1 is irreducible
# x^3 + x^2 + x + 3 has no root mod BIG_P and is dense, so every
# accumulation sums several full-size products.  Explicit moduli skip the
# O(p) modulus search.
BIG_MODULI = {2: (1, 0, 1), 3: (3, 1, 1, 1)}


@lru_cache(maxsize=None)
def _ctx(p: int, n: int) -> ExtensionContext:
    return ExtensionContext(p, n)


@pytest.fixture
def ctx():
    """Cached context factory: ctx(p, n) with the default modulus."""
    return _ctx


def element_order(c: ExtensionContext, b) -> int:
    """Multiplicative order of b != 0, from sympy's factorization of p^n - 1."""
    import sympy

    e = c.order - 1
    for r in sorted(sympy.factorint(e)):
        while e % r == 0 and b ** (e // r) == c.one():
            e //= r
    return e


def first_generator(c: ExtensionContext):
    """First element in counting order generating the unit group."""
    return next(b for b in c.elements() if element_order(c, b) == c.order - 1)


def block_lengths(monkeypatch, owner, name: str, arg: int) -> list[int]:
    """Replace owner.name by a wrapper that appends len() of its
    positional argument `arg` to the returned list at every call."""
    lengths: list[int] = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        lengths.append(len(args[arg]))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return lengths
