"""Exact arithmetic in the extension tower GF(p) <= GF(p^n).

Elements live in L = GF(p)[x]/(modulus), each one read-only length-n
int64 row of coefficients in the power basis {1, theta, ..., theta^(n-1)},
theta a root of the monic irreducible modulus: the rows the stacked
kernels take.  Sums are (a +- b) % p, products linalg.contract_mod
contractions, exact for every p < 2^31.
ExtensionContext builds its tables once, read-only: the n powers of
x -> x^p as n x n matrices over GF(p) and the traces tr(theta^u), so
automorphism powers, traces, norms and Gram matrices reduce to exact
matrix work and a context never changes after construction.  Every
modulus, found by the search or supplied, passes Rabin's
irreducibility test in the constructor, in its column form: x^(p^k) is
that matrix applied k times to the x column, so x^(p^n) = x and the
unit conditions on x^(p^(n/r)) - x are decided by matrix-vector steps
in the same arithmetic.  The search runs the same test on a bare
quotient ring per candidate and returns only the modulus.

Determinism contract: the modulus defaults to the lexicographically
smallest monic irreducible polynomial (coefficients compared from the
constant term up), and every element search scans in counting order
(index v has coefficients equal to the base-p digits of v, constant
term least significant: _digits), so identical parameters always
reproduce identical bytes.
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


def _check_prime(p: int) -> None:
    if p >= MAX_PRIME:  # before the primality test, which is exact only below the bound
        raise InvalidPrime(f"p must be < 2**31, got {p}")
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    if p == 2:
        raise InvalidPrime("characteristic two is not supported")


def _digits(v: int, p: int, n: int) -> np.ndarray:
    """The n base-p digits of v, least significant first: the counting order of every scan."""
    digits = np.empty(n, dtype=np.int64)
    for k in range(n):
        v, digits[k] = divmod(v, p)
    return digits


@lru_cache(maxsize=None)
def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over GF(p).

    Candidate lower coefficient tuples (c0, ..., c_{n-1}) are compared
    from the constant term up; the first one that passes Rabin's test is
    returned.  Raises InvalidDegree for n < 2 and InvalidPrime for a p
    that ExtensionContext rejects.  The result is cached, so the scan
    runs once per (p, n) per process.

    Each candidate is tested on a bare _QuotientRing, which holds only
    its reduction matrix, and Rabin's test builds only x^p, the
    Frobenius columns and the images of x.

    Trip bound: the scan visits each monic candidate with nonzero
    constant term at most once, so it tests at most (p - 1) * p^(n-1)
    rings.  It stops well before: GF(p) has irreducibles of every
    degree, about p^n / n of them, and the search tries 45 candidates
    at (3, 64) and 247 at (11, 64).
    """
    if n < 2:
        raise InvalidDegree(f"extension degree must be >= 2, got {n}")
    _check_prime(p)
    # Candidate v has the base-p digits (c0, ..., c_{n-1}) of v, c0 most
    # significant (_digits reversed), so increasing v is increasing
    # lexicographic order compared from c0.  Every candidate with c0 = 0 is
    # divisible by x, so the scan starts at v = p^(n-1), where c0 = 1.
    for v in range(p ** (n - 1), p**n):
        modulus = tuple(_digits(v, p, n)[::-1].tolist()) + (1,)
        try:
            _QuotientRing(p, n, modulus)._frobenius_if_irreducible()
            return modulus
        except InvalidModulus:
            pass


class FieldElement:
    """Element of GF(p^n): coeffs, its row of residues in [0, p) in the power
    basis, is read-only.  The constructor freezes the array it is given, so
    it takes only arrays that nothing else writes to: kernel outputs or copies."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "ExtensionContext", coeffs: np.ndarray):
        coeffs.flags.writeable = False
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
        """The coefficient row itself, read-only: copy it to write."""
        return self.coeffs

    def index(self) -> int:
        """Integer encoding: sum of coeffs[i] * p^i, the inverse of from_index."""
        v = 0
        for c in reversed(self.coeffs.tolist()):
            v = v * self.ctx.p + c
        return v

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return FieldElement(self.ctx, (self.coeffs + self._peer(other).coeffs) % self.ctx.p)

    def __sub__(self, other):
        return FieldElement(self.ctx, (self.coeffs - self._peer(other).coeffs) % self.ctx.p)

    def __neg__(self):
        return FieldElement(self.ctx, -self.coeffs % self.ctx.p)

    def __mul__(self, other):
        return FieldElement(self.ctx, self.ctx._vmul(self.coeffs, self._peer(other).coeffs))

    def __truediv__(self, other):
        return self * self._peer(other).inverse()

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx._vpow(self.coeffs, e))

    def inverse(self) -> "FieldElement":
        if not self:
            raise DivisionByZero("inverse of zero")
        return FieldElement(self.ctx, self.ctx._vinv(self.coeffs))

    # -- prime field ---------------------------------------------------------

    def in_prime_field(self) -> bool:
        return not self.coeffs[1:].any()

    def scalar(self) -> int:
        """Value in GF(p) of a prime-field element."""
        if not self.in_prime_field():
            raise ValueError(f"{self} is not in the prime field")
        return int(self.coeffs[0])

    # -- dunder plumbing ------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs.any())

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx == other.ctx and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.n, self.coeffs.tobytes()))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs.tolist()):
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
    """R = GF(p)[x]/(modulus) for a monic modulus of degree n >= 2: the
    reduction matrix and the arithmetic that needs nothing else.

    The modulus search tests each candidate on one of these;
    ExtensionContext is the ring of an irreducible modulus with the
    Galois data on top.
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus
        # coeffs of a degree-(2n-2) poly -> reduced vector
        self._reduce_matrix = self._theta_powers(2 * n - 1).T.copy()
        self._reduce_matrix.flags.writeable = False

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
        test (Rabin 1980): it is irreducible iff x^(p^n) = x in R and
        x^(p^(n/r)) - x is a unit of R for every prime r | n.

        y -> y^p is a GF(p)-linear ring endomorphism of R for any monic
        modulus, so x^(p^k) is F^k times the x column, one matrix-vector
        step per k.  The root filter comes first: x^p - x must be a unit,
        else the modulus has a root in GF(p); only then are the other
        columns of F built.  Raises InvalidModulus naming the modulus and
        the condition that fails.
        """
        p, n = self.p, self.n
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

    Construction builds every table the context holds, all read-only:
    the reduction matrix, the (n, n, n) stack of Frobenius powers
    sigma^0 .. sigma^(n-1) and the trace table tr(theta^(k+t)) for
    k < n, t < 2n-1.  Nothing is filled in later, so everything
    downstream is a pure function of this object and it is safe to
    share across threads.  n is at least 2; the modulus defaults to
    find_irreducible(p, n), and every modulus, found or supplied, gets
    the monic check and the whole of Rabin's test, whose Frobenius
    matrix the tables are built from.
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...] | None = None):
        _check_prime(p)
        if n < 2:
            raise InvalidDegree(f"extension degree must be >= 2, got {n}")
        if modulus is None:
            modulus = find_irreducible(p, n)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise InvalidModulus(f"modulus must be monic of degree {n}")
        super().__init__(p, n, modulus)
        frobenius = self._frobenius_if_irreducible()
        self.order = p**n
        sigma = np.empty((n, n, n), dtype=np.int64)
        sigma[0] = np.eye(n, dtype=np.int64)
        for k in range(1, n):
            sigma[k] = matmul_mod(sigma[k - 1], frobenius, p)
        # row 0 of the trace map, the sum of the sigma^i: the trace lands in K = span{1}
        tau = sigma[:, 0].sum(axis=0) % p
        tp = matmul_mod(self._theta_powers(3 * n - 2), tau, p)  # tp[u] = tr(theta^u)
        # _trace_table[k][t] = tr(theta^(k+t)) for k < n, t < 2n-1
        self._sigma_powers = sigma
        self._trace_table = tp[np.arange(n)[:, None] + np.arange(2 * n - 1)]
        for table in (self._sigma_powers, self._trace_table):
            table.flags.writeable = False

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

    # -- element constructors --------------------------------------------------

    def element(self, coeffs) -> FieldElement:
        """Element of the n coefficients, reduced mod p into a fresh row,
        so the caller may go on writing to its own."""
        row = (np.array(coeffs, dtype=object) % self.p).astype(np.int64)  # any Python or numpy ints
        if row.shape != (self.n,):
            raise ValueError(f"need a row of {self.n} coefficients, got shape {row.shape}")
        return FieldElement(self, row)

    def zero(self) -> FieldElement:
        return FieldElement(self, np.zeros(self.n, dtype=np.int64))

    def one(self) -> FieldElement:
        return self.scalar(1)

    def scalar(self, c: int) -> FieldElement:
        return FieldElement(self, np.eye(1, self.n, dtype=np.int64)[0] * (c % self.p))

    def theta(self) -> FieldElement:
        return FieldElement(self, np.eye(1, self.n, 1, dtype=np.int64)[0])

    def from_index(self, v: int) -> FieldElement:
        """Element with coefficients the base-p digits of v (c0 least significant)."""
        if not 0 <= v < self.order:
            raise ValueError(f"index out of range: {v}")
        return FieldElement(self, _digits(v, self.p, self.n))

    # -- Galois operations -------------------------------------------------------

    def sigma_power_matrix(self, i: int) -> np.ndarray:
        """Matrix of x -> x^(p^i) in the power basis (read-only)."""
        return self._sigma_powers[i % self.n]

    def frobenius_power(self, b: FieldElement, i: int) -> FieldElement:
        """sigma^i(b) = b^(p^i), applied as a linear map."""
        if i < 0:
            raise ValueError(f"automorphism power must be >= 0, got {i}")
        self._own(b)
        return FieldElement(self, matmul_mod(self.sigma_power_matrix(i), b.coeffs, self.p))

    def norm(self, b: FieldElement, sub: int = 1) -> FieldElement:
        """Norm of b down to GF(p^sub): product of sigma^(sub*j) images."""
        self._own(b)
        if sub < 1 or self.n % sub != 0:
            raise InvalidSubfield(f"{sub} does not divide the degree {self.n}")
        step = self.sigma_power_matrix(sub)
        acc = cur = b.coeffs
        for _ in range(self.n // sub - 1):
            cur = matmul_mod(step, cur, self.p)
            acc = self._vmul(acc, cur)
        return FieldElement(self, acc)

    def _own(self, b: FieldElement) -> None:
        if b.ctx != self:
            raise ContextMismatch("element belongs to a different context")
