"""Exact dense linear algebra over GF(p).

Matrices are numpy arrays of nonnegative integers reduced mod p.  The
int64 dtype is used whenever accumulated products provably fit in 64
bits; otherwise arrays fall back to Python-integer (object) dtype, so
results are exact for any modulus.  No floating point anywhere.
"""

from __future__ import annotations

import numpy as np

_INT64_LIMIT = 2**63
STACK_BYTES = 2**17  # batched kernels take rows in blocks whose int64 matrix stack fits this


def dtype_for_bound(bound: int, max_terms: int):
    """Dtype whose accumulators hold `max_terms` products of integers of
    absolute value at most `bound`."""
    if max_terms * bound**2 < _INT64_LIMIT:
        return np.int64
    return object


def dtype_for(p: int, max_terms: int):
    """Dtype whose accumulators hold `max_terms` products of residues mod p."""
    return dtype_for_bound(p - 1, max_terms)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p; inputs must already be reduced mod p."""
    inner = a.shape[-1]
    dt = dtype_for(p, inner)
    return (a.astype(dt, copy=False) @ b.astype(dt, copy=False)) % p


def rank_mod_batch(stack: np.ndarray, p: int) -> np.ndarray:
    """Row ranks over GF(p) of every matrix in a (B, R, C) stack.

    Fraction-free elimination, one column c at a time across the whole
    stack: each matrix takes as pivot its first not-yet-used row with a
    nonzero entry in c, and every row r becomes pivot * r - r[c] *
    pivot_row.  Pivot rows and columns up to c are never read again, so
    the step runs in place on the columns right of c, and matrices
    without a pivot in c scale by 1 instead.  Stops once every matrix
    has a full set of pivots.  The stack is held column-major, (C, B, R),
    so the columns right of c are one contiguous block.

    Reduction mod p is delayed (Dumas, Giorgi and Pernet, FFLAS/FFPACK,
    ACM TOMS 35(3), 2008): a step reduces only column c and the pivot
    rows, so with trailing entries bounded by `bound` in absolute value
    it leaves them bounded by (p-1)*bound + (p-1)^2.  The whole trailing
    block is reduced only when that would reach 2^63.
    """
    m = np.array(np.transpose(stack, (2, 0, 1)), dtype=dtype_for(p, 2), order="C")
    m %= p
    cols, count, rows = m.shape
    full = min(rows, cols)
    used = np.zeros((count, rows), dtype=bool)
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
        cand = (col != 0) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        prow = m[c:, every, piv] % p  # (C - c, B): each matrix's pivot row from column c on
        used[every[has], piv[has]] = True
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
    for row, f in enumerate(free):
        basis[row, f] = 1
        for j, pc in enumerate(pivots):
            basis[row, pc] = (-m[j, f]) % p
    return basis
