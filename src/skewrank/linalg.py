"""Exact dense linear algebra over GF(p).

Matrices are numpy arrays of nonnegative integers reduced mod p.  The
int64 dtype is used whenever accumulated products provably fit in 64
bits; otherwise arrays fall back to Python-integer (object) dtype, so
results are exact for any modulus.  No floating point anywhere.
"""

from __future__ import annotations

import numpy as np

_INT64_LIMIT = 2**63


def dtype_for(p: int, max_terms: int):
    """Dtype whose accumulators hold `max_terms` products of residues mod p."""
    if max_terms * (p - 1) ** 2 < _INT64_LIMIT:
        return np.int64
    return object


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
    pivot_row.  Both products are residues, so a step needs headroom for
    two of them and no modular inverse.  Pivot rows and columns up to c
    are never read again, so the step runs in place on the columns
    right of c, and matrices without a pivot in c scale by 1 instead.
    Stops once every matrix has a full set of pivots.
    """
    m = np.array(stack, dtype=dtype_for(p, 2))
    m %= p
    count, rows, cols = m.shape
    full = min(rows, cols)
    used = np.zeros((count, rows), dtype=bool)
    ranks = np.zeros(count, dtype=np.int64)
    every = np.arange(count)
    for c in range(cols):
        if (ranks == full).all():
            break
        col = m[:, :, c]
        cand = (col != 0) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        prow = m[every, piv, c:]
        used[every[has], piv[has]] = True
        ranks += has
        rest = m[:, :, c + 1 :]
        rest *= np.where(has, prow[:, 0], 1)[:, None, None]
        rest -= col[:, :, None] * prow[:, None, 1:]
        rest %= p
    return ranks


def rank_mod(a: np.ndarray, p: int) -> int:
    """Row rank over GF(p) by Gaussian elimination.

    Pivots are chosen as the first nonzero entry in column-major scan
    order, so the elimination path is deterministic.
    """
    m = np.array(a, copy=True) % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        below = m[r + 1 :, c] != 0
        if below.any():
            m[r + 1 :][below] = (m[r + 1 :][below] - np.outer(m[r + 1 :, c][below], m[r])) % p
        r += 1
        if r == rows:
            break
    return r


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p) and the pivot column list."""
    m = np.array(a, copy=True) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


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
