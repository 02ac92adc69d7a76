import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import skewrank
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


def power_basis(c: ExtensionContext) -> list:
    """1, theta, ..., theta^(n-1): the unit coordinate vectors."""
    return [c.element(row) for row in np.eye(c.n, dtype=np.int64)]


def elements(c: ExtensionContext, include_zero: bool = False):
    """Every element of c, the nonzero ones unless include_zero, in counting order."""
    return (c.from_index(v) for v in range(0 if include_zero else 1, c.order))


def trace(c: ExtensionContext, b, sub: int = 1):
    """Trace of b down to GF(p^sub), sub | n: the sum of its n/sub
    conjugates sigma^(sub*j)(b)."""
    conjugates = [c.frobenius_power(b, sub * j) for j in range(c.n // sub)]
    return sum(conjugates[1:], conjugates[0])


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
    return next(b for b in elements(c) if element_order(c, b) == c.order - 1)


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


def rescale_to(monkeypatch, form: tuple[int, int, int]) -> None:
    """Make cyclotomic.diagonalize_ternary return its true diagonalization
    with squarefree_form replaced by `form`, so that verify_section6
    certifies `form` in place of (1, 1, -6)."""
    import dataclasses

    from skewrank import cyclotomic

    real = cyclotomic.diagonalize_ternary
    monkeypatch.setattr(cyclotomic, "diagonalize_ternary",
                        lambda q: dataclasses.replace(real(q), squarefree_form=form))


def child_env() -> dict:
    """The environment of a child interpreter that finds the package where this process found it."""
    src = str(Path(skewrank.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


# A process's ru_maxrss starts at the resident set of the process that
# forked it (Linux keeps the high-water mark of the image it replaces at
# exec), and the test process grows over a run.  So the code runs in a
# grandchild forked by this bare interpreter, which reports its peak.
PEAK_OF_GRANDCHILD = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-c", sys.argv[1]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def child_peak_mib(code: str) -> float:
    """Peak resident set, in MiB, of a fresh interpreter that runs `code`
    with the package on its path: its own ru_maxrss, by os.wait4 in the
    small interpreter that started it.  A child that exits nonzero fails
    the calling test."""
    proc = subprocess.run([sys.executable, "-c", PEAK_OF_GRANDCHILD, code], env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024
