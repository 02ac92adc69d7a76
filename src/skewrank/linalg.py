"""Exact dense linear algebra over GF(p).

Matrices are int64 numpy arrays of residues mod p, p < 2^31.  Every
contraction of residues goes through contract_mod, the one place that
decides how it stays below 2^63: in one pass when the sum of its
products fits, else in two passes over 16-bit limbs of the left factor.
No floating point anywhere.
"""

from __future__ import annotations

import numpy as np

_INT64_LIMIT = 2**63
_LIMB = 16  # bits of the low limb in contract_mod
STACK_BYTES = 2**17  # batched kernels take rows in blocks sized by this (block_rows)


def block_rows(n: int) -> int:
    """Rows per block of a batched kernel: one (B, n, n) int64 stack fits
    STACK_BYTES, but at least STACK_BYTES / 2^11 rows (64, the block at
    n = 16), so large n still amortises each block's scalar spot check."""
    return max(1, STACK_BYTES >> 11, STACK_BYTES // (8 * n * n))


def contract_mod(product, a: np.ndarray, b: np.ndarray, p: int, terms: int) -> np.ndarray:
    """Exact product(a, b) % p for a bilinear integer product of residue
    arrays whose every entry sums at most `terms` products a_j * b_k.

    One int64 pass when terms * (p-1)^2 < 2^63.  Otherwise the left factor
    splits into limbs a = lo + 2^16 * hi, a limb times a residue is below
    2^47, and two passes recombine mod p (as in FFLAS/FFPACK, Dumas, Giorgi
    and Pernet, ACM TOMS 35(3), 2008): exact for p < 2^31, terms <= 2^15.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if terms * (p - 1) ** 2 < _INT64_LIMIT:
        out = product(a, b)
        out %= p
        return out
    hi = product(a >> _LIMB, b) % p
    lo = product(a & ((1 << _LIMB) - 1), b)
    return (hi * ((1 << _LIMB) % p) + lo) % p


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p; inputs must already be reduced mod p."""
    return contract_mod(np.matmul, a, b, p, a.shape[-1])


def rank_mod_batch(stack: np.ndarray, p: int) -> np.ndarray:
    """Row ranks over GF(p) of every matrix in a (B, R, C) stack.

    Fraction-free elimination, one column c at a time across the whole
    stack: each matrix takes as pivot its first row with an entry in c
    that is nonzero mod p, and every row r becomes pivot * r - r[c] *
    pivot_row.  That step leaves the pivot row itself = 0 mod p right of
    c, so no later column picks it again.  Columns up to c are never
    read again, so the step runs in place on the columns right of c,
    and matrices without a pivot in c scale by 1 instead.  Stops once
    every matrix has a full set of pivots.  The stack is held
    column-major, (C, B, R), so the columns right of c are one
    contiguous block.

    Reduction mod p is delayed (Dumas, Giorgi and Pernet, FFLAS/FFPACK,
    ACM TOMS 35(3), 2008): a step reduces only column c and the pivot
    rows, so with trailing entries bounded by `bound` in absolute value
    it leaves them bounded by (p-1)*bound + (p-1)^2.  The whole trailing
    block is reduced only when that would reach 2^63.
    """
    m = np.array(np.transpose(stack, (2, 0, 1)), dtype=np.int64, order="C")
    m %= p
    cols, count, rows = m.shape
    full = min(rows, cols)
    ranks = np.zeros(count, dtype=np.int64)
    every = np.arange(count)
    bound = p - 1
    for c in range(cols):
        if (ranks == full).all():
            break
        rest = m[c + 1 :]
        if (p - 1) * bound + (p - 1) ** 2 >= _INT64_LIMIT:
            rest %= p
            bound = p - 1
        col = m[c] % p
        cand = col != 0
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        prow = m[c:, every, piv] % p  # (C - c, B): each matrix's pivot row from column c on
        ranks += has
        rest *= np.where(has, prow[0], 1)[None, :, None]
        rest -= prow[1:, :, None] * col[None]
        bound = (p - 1) * bound + (p - 1) ** 2
    return ranks


def rref(m: np.ndarray, inverse, reduce) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list over an exact field.

    Gauss-Jordan elimination, vectorised one column at a time.  The field
    enters through `inverse` (of one nonzero entry) and `reduce` (of an
    array): x -> pow(x, -1, p) and a % p for GF(p); x -> 1 / Fraction(x)
    and the identity for Q on object arrays of Fractions.  Each pivot is
    the first nonzero entry at or below the current row, so the
    elimination path is deterministic (the RREF itself is unique).
    """
    m = reduce(np.array(m, copy=True))
    rows, cols = m.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nonzero = np.flatnonzero(m[r:, c])
        if not nonzero.size:
            continue
        piv = r + nonzero[0]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = reduce(m[r] * inverse(m[r, c]))
        col = m[:, c].copy()
        col[r] = 0
        m = reduce(m - np.outer(col, m[r]))
        pivots.append(c)
    return m, pivots


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p) and the pivot column list."""
    return rref(a, lambda x: pow(int(x), -1, p), lambda m: m % p)


def rank_mod(a: np.ndarray, p: int) -> int:
    """Row rank over GF(p): the number of RREF pivots."""
    return len(rref_mod(a, p)[1])


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel of a over GF(p), one vector per row.

    Derived from the RREF: each free column yields the vector with 1 in
    the free position and the negated pivot-row entries elsewhere.
    Free columns are taken in increasing order, so the basis is
    deterministic.
    """
    m, pivots = rref_mod(a, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=m.dtype)
    basis[:, free] = np.eye(len(free), dtype=m.dtype)
    basis[:, pivots] = (-m[: len(pivots), free]).T % p
    return basis
