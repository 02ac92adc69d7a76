"""Exact arithmetic in the extension tower GF(p) <= GF(p^n).

Elements live in L = GF(p)[x]/(modulus) and are stored as length-n int64
coefficient vectors in the power basis {1, theta, ..., theta^(n-1)},
theta a root of the monic irreducible modulus; their products are
linalg.contract_mod contractions, exact for every p < 2^31.  The map
x -> x^p is cached as an n x n matrix over GF(p), so automorphism
powers, traces and norms reduce to exact matrix-vector work.  Every
modulus, supplied or found by the search, must pass Rabin's
irreducibility test in its column form: x^(p^k) is that matrix applied
k times to the x column, so x^(p^n) = x and the unit conditions on
x^(p^(n/r)) - x are decided by matrix-vector steps in the same
arithmetic.  The search tests each candidate on a bare quotient ring
and hands the accepted tables to ExtensionContext, which builds them
once.

Determinism contract: the modulus defaults to the lexicographically
smallest monic irreducible polynomial (coefficients compared from the
constant term up), and every element search scans in counting order
(index v has coefficients equal to the base-p digits of v, constant
term least significant), so identical parameters always reproduce
identical bytes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .arith import factorize, is_prime
from .errors import (
    ContextMismatch,
    DivisionByZero,
    InvalidDegree,
    InvalidModulus,
    InvalidPrime,
    InvalidSubfield,
)
from .linalg import contract_mod, matmul_mod, rank_mod_batch, rref_mod

MAX_PRIME = 2**31  # residue products must fit 64-bit intermediates


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over GF(p).

    Candidate lower coefficient tuples (c0, ..., c_{n-1}) are compared
    from the constant term up; the first one that passes Rabin's test is
    returned.  Raises InvalidDegree for n < 2 (degree-1 moduli are handled
    internally by ExtensionContext for the prime field itself) and
    InvalidPrime for a p that ExtensionContext rejects.
    """
    if n < 2:
        raise InvalidDegree(f"extension degree must be >= 2, got {n}")
    _check_prime(p)
    return _lex_irreducible(p, n)[0]


def _check_prime(p: int) -> None:
    if p >= MAX_PRIME:  # before the primality test, which is exact only below the bound
        raise InvalidPrime(f"p must be < 2**31, got {p}")
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    if p == 2:
        raise InvalidPrime("characteristic two is not supported")


@lru_cache(maxsize=None)
def _lex_irreducible(p: int, n: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(modulus, reduction matrix, Frobenius matrix) of find_irreducible's
    modulus, without the degree check; the modulus is x for n = 1.

    Each candidate is tested on a _QuotientRing, which holds only its
    reduction matrix, and Rabin's test builds only x^p, the Frobenius
    columns and the images of x.  ExtensionContext takes the accepted
    ring's tables (read-only, shared by every context of (p, n)) and
    does not test the modulus again.

    Trip bound: the odometer visits each monic candidate with nonzero
    constant term at most once, so it tests at most (p - 1) * p^(n-1)
    rings.  It stops well before: GF(p) has irreducibles of every
    degree, about p^n / n of them, and the search tries 45 candidates
    at (3, 64) and 247 at (11, 64).
    """
    if n == 1:
        return _tables_if_irreducible(_QuotientRing(p, 1, (0, 1)))
    # Odometer over (c0, ..., c_{n-1}) with the last coefficient moving
    # fastest == increasing lexicographic order compared from c0.  Every
    # candidate with c0 = 0 is divisible by x, so the scan starts at c0 = 1.
    lower = [0] * n
    lower[0] = 1
    while True:
        try:
            return _tables_if_irreducible(_QuotientRing(p, n, tuple(lower) + (1,)))
        except InvalidModulus:
            pass
        i = n - 1
        while i >= 1 and lower[i] == p - 1:
            lower[i] = 0
            i -= 1
        if i == 0 and lower[0] == p - 1:
            raise InvalidModulus(f"no irreducible of degree {n} over GF({p})")  # unreachable
        lower[i] += 1


def _tables_if_irreducible(ring: "_QuotientRing") -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The ring's modulus, reduction matrix and Frobenius matrix, made
    read-only, once the modulus passes Rabin's test."""
    frobenius = ring._frobenius_if_irreducible()
    for table in (ring._reduce_matrix, frobenius):
        table.flags.writeable = False
    return ring.modulus, ring._reduce_matrix, frobenius


class FieldElement:
    """Element of GF(p^n) as a coefficient vector in the power basis."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "ExtensionContext", coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- helpers -----------------------------------------------------------

    def _peer(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatch(
                f"elements of GF({self.ctx.p}^{self.ctx.n}) and "
                f"GF({other.ctx.p}^{other.ctx.n}) with different moduli"
            )
        return other

    def vector(self) -> np.ndarray:
        """Coefficient vector as a fresh numpy array."""
        return np.array(self.coeffs, dtype=np.int64)

    def index(self) -> int:
        """Integer encoding: sum of coeffs[i] * p^i."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.ctx.p + c
        return v

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._peer(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._peer(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._peer(other)
        return self.ctx._wrap(self.ctx._vmul(self.vector(), other.vector()))

    def __truediv__(self, other):
        other = self._peer(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        return self.ctx._wrap(self.ctx._vpow(self.vector(), e))

    def inverse(self) -> "FieldElement":
        if not self:
            raise DivisionByZero("inverse of zero")
        return self.ctx._wrap(self.ctx._vinv(self.vector()))

    # -- prime field ---------------------------------------------------------

    def in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def scalar(self) -> int:
        """Value in GF(p) of a prime-field element."""
        if not self.in_prime_field():
            raise ValueError(f"{self} is not in the prime field")
        return self.coeffs[0]

    # -- dunder plumbing ------------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.n, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "t" if i == 1 else f"t^{i}"
                terms.append(base if c == 1 else f"{c}*{base}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} in GF({self.ctx.p}^{self.ctx.n})>"


class _QuotientRing:
    """R = GF(p)[x]/(modulus) for a monic modulus of degree n >= 1: the
    reduction matrix and the arithmetic that needs nothing else.

    The modulus search tests each candidate on one of these;
    ExtensionContext is the ring of an irreducible modulus with the
    Galois data on top.  A reduction matrix the search already built may
    be passed in.
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...], reduce_matrix: np.ndarray | None = None):
        self.p = p
        self.n = n
        self.modulus = modulus
        if reduce_matrix is None:
            # coeffs of a degree-(2n-2) poly -> reduced vector
            reduce_matrix = self._theta_powers(2 * n - 1).T.copy()
        self._reduce_matrix = reduce_matrix

    def _theta_powers(self, count: int) -> np.ndarray:
        """theta^0 .. theta^(count-1) in the power basis, one per row."""
        p, n = self.p, self.n
        pows = np.zeros((count, n), dtype=np.int64)
        pows[0, 0] = 1
        mod_low = np.array(self.modulus[:n], dtype=np.int64)
        for t in range(1, count):
            # shift up one place, then fold theta^n = -(c_0 + ... + c_(n-1) theta^(n-1))
            pows[t, 1:] = pows[t - 1, :-1]
            pows[t] = (pows[t] - pows[t - 1, n - 1] * mod_low) % p
        return pows

    def _frobenius_if_irreducible(self) -> np.ndarray:
        """F, the matrix of y -> y^p on R, once the modulus passes Rabin's
        test (Rabin 1980): for n >= 2 it is irreducible iff x^(p^n) = x
        in R and x^(p^(n/r)) - x is a unit of R for every prime r | n.

        y -> y^p is a GF(p)-linear ring endomorphism of R for any monic
        modulus, so x^(p^k) is F^k times the x column, one matrix-vector
        step per k.  The root filter comes first: x^p - x must be a unit,
        else the modulus has a root in GF(p); only then are the other
        columns of F built.  Raises InvalidModulus naming the modulus and
        the condition that fails.
        """
        p, n = self.p, self.n
        if n == 1:
            return np.eye(1, dtype=np.int64)
        x = np.eye(n, dtype=np.int64)[1]
        fp = self._vpow(x, p)  # x^p
        self._require_unit(fp - x, f"it has a root in GF({p})")
        cols = [np.eye(n, dtype=np.int64)[0]]
        for _ in range(1, n):
            cols.append(self._vmul(cols[-1], fp))
        frobenius = np.stack(cols, axis=1)
        images = [x, fp]  # images[k] = x^(p^k)
        for _ in range(1, n):
            images.append(matmul_mod(frobenius, images[-1], p))
        if not np.array_equal(images[n], x):
            raise self._reducible(f"x^({p}^{n}) != x")
        for r in factorize(n):
            self._require_unit(images[n // r] - x, f"it shares a factor with x^({p}^{n // r}) - x")
        return frobenius

    def _reducible(self, why: str) -> InvalidModulus:
        return InvalidModulus(f"modulus {self.modulus} is reducible over GF({self.p}): {why}")

    def _require_unit(self, a: np.ndarray, why: str) -> None:
        """Raise InvalidModulus unless a is a unit of R, i.e. M_a has rank n."""
        if rank_mod_batch(self._mul_matrix(a)[None], self.p)[0] < self.n:
            raise self._reducible(why)

    # -- vector-level arithmetic (internal fast path) -------------------------

    def _vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        conv = contract_mod(np.convolve, a, b, self.p, self.n)
        return matmul_mod(self._reduce_matrix, conv, self.p)

    def _mul_matrix(self, a: np.ndarray) -> np.ndarray:
        """M_a, the matrix of y -> a * y: the reduction matrix times the
        Toeplitz (multiply-by-a) matrix.  a is a unit iff M_a has rank n."""
        n = self.n
        toeplitz = np.zeros((2 * n - 1, n), dtype=np.int64)
        for j in range(n):
            toeplitz[j : j + n, j] = a % self.p
        return matmul_mod(self._reduce_matrix, toeplitz, self.p)

    def _vinv(self, a: np.ndarray) -> np.ndarray:
        """Solve a * x = 1 as the linear system M_a x = e_0."""
        n = self.n
        system = np.hstack([self._mul_matrix(a), np.eye(n, 1, dtype=np.int64)])  # [M_a | e_0]
        m, pivots = rref_mod(system, self.p)
        if pivots != list(range(n)):
            raise DivisionByZero("inverse of zero")
        return m[:, n]

    def _vpow(self, a: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            a = self._vinv(a)
            e = -e
        result = np.eye(self.n, dtype=np.int64)[0]
        base = a % self.p
        while e:
            if e & 1:
                result = self._vmul(result, base)
            base = self._vmul(base, base)
            e >>= 1
        return result


class ExtensionContext(_QuotientRing):
    """Immutable ambient data of L = GF(p^n) over K = GF(p).

    Construction precomputes the Frobenius matrix and the reduction
    matrix; everything downstream is a pure function of this object, so
    it is safe to share across threads.  Without a modulus it takes both
    tables from the modulus search, which has already tested them; a
    supplied modulus gets the whole of Rabin's test.  n = 1 is accepted
    and denotes the prime field itself.
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...] | None = None):
        _check_prime(p)
        if n < 1:
            raise InvalidDegree(f"extension degree must be >= 1, got {n}")
        if modulus is None:
            modulus, reduce_matrix, frobenius = _lex_irreducible(p, n)
            super().__init__(p, n, modulus, reduce_matrix)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise InvalidModulus(f"modulus must be monic of degree {n}")
            super().__init__(p, n, modulus)
            frobenius = self._frobenius_if_irreducible()
        self.order = p**n
        self._frob_powers: dict[int, np.ndarray] = {0: np.eye(n, dtype=np.int64), 1: frobenius}
        self._trace_maps: dict[int, np.ndarray] = {}
        self._tp_table: np.ndarray | None = None
        self._basis_grams: dict[int, np.ndarray] = {}

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExtensionContext):
            return NotImplemented
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"ExtensionContext(p={self.p}, n={self.n}, modulus={self.modulus})"

    # -- stacked arithmetic: (B, n) arrays, one element per row ----------------

    def mul_stack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise products: outer products scatter-added into (B, 2n-1)
        convolutions, then the reduction matrix."""
        n = self.n

        def convolve(a, b):
            conv = np.zeros((a.shape[0], 2 * n - 1), dtype=np.int64)
            for k in range(n):
                conv[:, k : k + n] += a[:, k, None] * b
            return conv

        return matmul_mod(contract_mod(convolve, a, b, self.p, n), self._reduce_matrix.T, self.p)

    def frobenius_stack(self, a: np.ndarray, i: int) -> np.ndarray:
        """Row-wise sigma^i: the rows times the transposed Frobenius power."""
        return matmul_mod(a, self.sigma_power_matrix(i).T, self.p)

    def _wrap(self, vec: np.ndarray) -> FieldElement:
        return FieldElement(self, tuple(int(c) for c in vec))

    # -- element constructors --------------------------------------------------

    def element(self, coeffs) -> FieldElement:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.n:
            raise ValueError(f"need {self.n} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.n)

    def one(self) -> FieldElement:
        return self.scalar(1)

    def scalar(self, c: int) -> FieldElement:
        return FieldElement(self, (c % self.p,) + (0,) * (self.n - 1))

    def theta(self) -> FieldElement:
        if self.n == 1:
            raise InvalidDegree("prime field has no generator theta")
        return FieldElement(self, (0, 1) + (0,) * (self.n - 2))

    def power_basis(self) -> list[FieldElement]:
        return [FieldElement(self, tuple(int(c) for c in row)) for row in self._theta_powers(self.n)]

    def from_index(self, v: int) -> FieldElement:
        """Element with coefficients the base-p digits of v (c0 least significant)."""
        if not 0 <= v < self.order:
            raise ValueError(f"index out of range: {v}")
        coeffs = []
        for _ in range(self.n):
            v, d = divmod(v, self.p)
            coeffs.append(d)
        return FieldElement(self, tuple(coeffs))

    def elements(self, include_zero: bool = False):
        """All field elements in counting order (deterministic)."""
        start = 0 if include_zero else 1
        for v in range(start, self.order):
            yield self.from_index(v)

    # -- Galois operations -------------------------------------------------------

    def sigma_power_matrix(self, i: int) -> np.ndarray:
        """Matrix of x -> x^(p^i) in the power basis; cached per context."""
        i %= self.n
        mat = self._frob_powers.get(i)
        if mat is None:
            mat = matmul_mod(self.sigma_power_matrix(i - 1), self._frob_powers[1], self.p)
            self._frob_powers[i] = mat
        return mat

    def frobenius_power(self, b: FieldElement, i: int) -> FieldElement:
        """sigma^i(b) = b^(p^i), applied as a linear map."""
        if i < 0:
            raise ValueError(f"automorphism power must be >= 0, got {i}")
        self._own(b)
        vec = matmul_mod(self.sigma_power_matrix(i), b.vector(), self.p)
        return self._wrap(vec)

    def _trace_map(self, sub: int) -> np.ndarray:
        mat = self._trace_maps.get(sub)
        if mat is None:
            powers = (self.sigma_power_matrix(sub * j) for j in range(self.n // sub))
            self._trace_maps[sub] = mat = sum(powers) % self.p
        return mat

    def _check_sub(self, sub: int) -> None:
        if sub < 1 or self.n % sub != 0:
            raise InvalidSubfield(f"{sub} does not divide the degree {self.n}")

    def trace(self, b: FieldElement, sub: int = 1) -> FieldElement:
        """Trace of b down to the index-`sub` subfield GF(p^sub)."""
        self._own(b)
        self._check_sub(sub)
        return self._wrap(matmul_mod(self._trace_map(sub), b.vector(), self.p))

    def norm(self, b: FieldElement, sub: int = 1) -> FieldElement:
        """Norm of b down to GF(p^sub): product of sigma^(sub*j) images."""
        self._own(b)
        self._check_sub(sub)
        step = self.sigma_power_matrix(sub)
        acc = b.vector()
        cur = acc.copy()
        for _ in range(self.n // sub - 1):
            cur = matmul_mod(step, cur, self.p)
            acc = self._vmul(acc, cur)
        return self._wrap(acc)

    def _own(self, b: FieldElement) -> None:
        if b.ctx != self:
            raise ContextMismatch("element belongs to a different context")

    # -- trace-of-power table used by the Gram fast path ------------------------

    def trace_power_table(self) -> np.ndarray:
        """tp[u] = tr(theta^u) in GF(p), for u = 0..3n-3."""
        if self._tp_table is None:
            tau = self._trace_map(1)[0]  # trace lands in K = span{1}
            self._tp_table = matmul_mod(self._theta_powers(3 * self.n - 2), tau, self.p)
        return self._tp_table
