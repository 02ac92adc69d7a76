"""Exact arithmetic in the extension tower GF(p) <= GF(p^n).

Elements live in L = GF(p)[x]/(modulus) and are stored as length-n
coefficient vectors in the power basis {1, theta, ..., theta^(n-1)},
theta a root of the monic irreducible modulus.  The map x -> x^p is
cached as an n x n matrix over GF(p), so automorphism powers, traces
and norms reduce to exact matrix-vector work.

Determinism contract: the modulus defaults to the lexicographically
smallest monic irreducible polynomial (coefficients compared from the
constant term up) and the multiplicative generator is the first
suitable element in counting order (index v has coefficients equal to
the base-p digits of v, constant term least significant), so identical
parameters always reproduce identical bytes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import sympy

from .errors import (
    ContextMismatch,
    DivisionByZero,
    InternalCheckError,
    InvalidDegree,
    InvalidModulus,
    InvalidPrime,
    InvalidSubfield,
    ZeroElement,
)
from .linalg import dtype_for, matmul_mod

_MAX_PRIME = 2**31  # residue products must fit 64-bit intermediates


# ---------------------------------------------------------------------------
# dense polynomials over GF(p): tuples of ints, constant term first
# ---------------------------------------------------------------------------

def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _pmod(f: list[int], m: list[int], p: int) -> list[int]:
    f = _ptrim(list(f))
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(f) - 1 >= dm:
        coef = (f[-1] * inv_lead) % p
        shift = len(f) - 1 - dm
        for i, c in enumerate(m):
            f[shift + i] = (f[shift + i] - coef * c) % p
        _ptrim(f)
    return f


def _pgcd(f: list[int], g: list[int], p: int) -> list[int]:
    f, g = _ptrim(list(f)), _ptrim(list(g))
    while g:
        f, g = g, _pmod(f, g, p)
    return f


def _pdivmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    rem = _ptrim(list(f))
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    q = [0] * max(len(rem) - dg, 0)
    while rem and len(rem) - 1 >= dg:
        shift = len(rem) - 1 - dg
        coef = (rem[-1] * inv_lead) % p
        q[shift] = coef
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - coef * c) % p
        _ptrim(rem)
    return _ptrim(q), rem


def _psub(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def _ppow_mod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _poly_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin test: x^(p^n) = x mod f and gcd(x^(p^(n/r)) - x, f) = 1."""
    n = len(f) - 1
    if n < 1:
        return False
    fl = list(f)
    if n == 1:
        return True
    checkpoints = {n // r for r in sympy.primefactors(n)}
    h = [0, 1]
    for j in range(1, n + 1):
        h = _ppow_mod(h, p, fl, p)
        if j in checkpoints:
            diff = list(h)
            while len(diff) < 2:
                diff.append(0)
            diff[1] = (diff[1] - 1) % p
            g = _pgcd(fl, diff, p)
            if len(g) != 1:
                return False
    return h == [0, 1]


def _has_root(f: tuple[int, ...], p: int) -> bool:
    """Does f have a root in GF(p)?  The roots are those of
    gcd(x^p - x, f), so this is O(n^2 log p) rather than O(p)."""
    fl = list(f)
    h = _ppow_mod([0, 1], p, fl, p) + [0, 0]
    h[1] = (h[1] - 1) % p
    return len(_pgcd(fl, h, p)) != 1


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over GF(p).

    Candidate lower coefficient tuples (c0, ..., c_{n-1}) are compared
    from the constant term up.  Raises InvalidPrime / InvalidDegree on
    bad input; n >= 2 is required (degree-1 moduli are handled
    internally by ExtensionContext for the prime field itself).
    """
    if not sympy.isprime(p):
        raise InvalidPrime(f"{p} is not prime")
    if n < 2:
        raise InvalidDegree(f"extension degree must be >= 2, got {n}")
    return _lex_irreducible(p, n)


@lru_cache(maxsize=None)
def _lex_irreducible(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)
    # Odometer over (c0, ..., c_{n-1}) with the last coefficient moving
    # fastest == increasing lexicographic order compared from c0.  Every
    # candidate with c0 = 0 is divisible by x, so the scan starts at c0 = 1.
    lower = [0] * n
    lower[0] = 1
    while True:
        cand = tuple(lower) + (1,)
        if not _has_root(cand, p) and _poly_is_irreducible(cand, p):
            return cand
        i = n - 1
        while i >= 1 and lower[i] == p - 1:
            lower[i] = 0
            i -= 1
        if i == 0 and lower[0] == p - 1:
            raise InvalidModulus(f"no irreducible of degree {n} over GF({p})")  # unreachable
        lower[i] += 1


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
        return np.array(self.coeffs, dtype=self.ctx._dtype)

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

    # -- Galois machinery ----------------------------------------------------

    def frobenius(self, i: int = 1) -> "FieldElement":
        return self.ctx.frobenius_power(self, i)

    def trace(self, sub: int = 1) -> "FieldElement":
        return self.ctx.trace(self, sub)

    def norm(self, sub: int = 1) -> "FieldElement":
        return self.ctx.norm(self, sub)

    def order(self) -> int:
        return self.ctx.element_order(self)

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


class ExtensionContext:
    """Immutable ambient data of L = GF(p^n) over K = GF(p).

    Construction precomputes the Frobenius matrix, the reduction table
    of theta powers and the trace functional; everything downstream is
    a pure function of this object, so it is safe to share across
    threads.  n = 1 is accepted and denotes the prime field itself.
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...] | None = None):
        if not sympy.isprime(p):
            raise InvalidPrime(f"{p} is not prime")
        if p == 2:
            raise InvalidPrime("characteristic two is not supported")
        if p >= _MAX_PRIME:
            raise InvalidPrime(f"p must be < 2**31, got {p}")
        if n < 1:
            raise InvalidDegree(f"extension degree must be >= 1, got {n}")
        self.p = p
        self.n = n
        self.order = p**n
        if modulus is None:
            modulus = _lex_irreducible(p, n)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise InvalidModulus(f"modulus must be monic of degree {n}")
        if not _poly_is_irreducible(modulus, p):
            raise InvalidModulus(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus

        # 2n-1 terms feed reduction; 3n-2 feed the trace-of-power table.
        self._dtype = dtype_for(p, max_terms=max(2 * n - 1, 1))
        self._build_tables()
        self._frob_powers: dict[int, np.ndarray] = {0: np.eye(n, dtype=self._dtype)}
        self._frob_powers[1] = self._build_frobenius()
        self._check_frobenius_order()
        self._trace_maps: dict[int, np.ndarray] = {}
        self._tp_table: np.ndarray | None = None
        self._generator: FieldElement | None = None
        self._unit_factorization: dict[int, int] | None = None
        self._nondegenerate_cache: dict[int, FieldElement] = {}
        self._basis_grams: dict[int, np.ndarray] = {}

    # -- construction helpers -------------------------------------------------

    def _build_tables(self) -> None:
        p, n = self.p, self.n
        count = max(3 * n - 2, 1)
        pows = np.zeros((count, n), dtype=self._dtype)
        pows[0, 0] = 1
        mod_low = np.array(self.modulus[:n], dtype=self._dtype)
        for t in range(1, count):
            prev = pows[t - 1]
            cur = np.zeros(n, dtype=self._dtype)
            cur[1:] = prev[:-1]
            top = prev[n - 1]
            if top:
                cur = (cur - top * mod_low) % p
            pows[t] = cur
        self._theta_pows = pows
        # reduction matrix: coeffs of degree-(2n-2) poly -> reduced vector
        self._reduce_matrix = pows[: 2 * n - 1].T.copy()

    def _build_frobenius(self) -> np.ndarray:
        n = self.n
        theta = np.zeros(n, dtype=self._dtype)
        if n == 1:
            return np.eye(1, dtype=self._dtype)
        theta[1] = 1
        fp = self._vpow(theta, self.p)  # theta^p
        cols = [np.zeros(n, dtype=self._dtype)]
        cols[0][0] = 1
        for _ in range(1, n):
            cols.append(self._vmul(cols[-1], fp))
        return np.stack(cols, axis=1)

    def _check_frobenius_order(self) -> None:
        n = self.n
        ident = np.eye(n, dtype=self._dtype)
        nth = matmul_mod(self.sigma_power_matrix(n - 1), self._frob_powers[1], self.p)
        if not np.array_equal(nth % self.p, ident):
            raise InvalidModulus("Frobenius matrix does not have order dividing n")
        for r in sympy.primefactors(n):
            if np.array_equal(self.sigma_power_matrix(n // r), ident):
                raise InvalidModulus("Frobenius matrix has order smaller than n")

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExtensionContext):
            return NotImplemented
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"ExtensionContext(p={self.p}, n={self.n}, modulus={self.modulus})"

    @property
    def frobenius_matrix(self) -> np.ndarray:
        return self._frob_powers[1]

    # -- vector-level arithmetic (internal fast path) -------------------------

    def _convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.convolve(a, b)

    def _vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.n == 1:
            return (a * b) % self.p
        conv = self._convolve(a, b) % self.p
        return matmul_mod(self._reduce_matrix, conv, self.p)

    def _vinv(self, a: np.ndarray) -> np.ndarray:
        p, n = self.p, self.n
        if n == 1:
            out = np.zeros(1, dtype=self._dtype)
            out[0] = pow(int(a[0]), -1, p)
            return out
        # extended Euclid in GF(p)[x]; s tracks the coefficient of a.
        r0, r1 = list(self.modulus), _ptrim([int(c) for c in a])
        s0, s1 = [], [1]
        while r1:
            q, rem = _pdivmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        # r0 = gcd, constant since the modulus is irreducible; s0*a = r0 mod modulus
        scale = pow(r0[0], -1, p)
        inv = _pmod([(c * scale) % p for c in s0], list(self.modulus), p)
        out = np.zeros(n, dtype=self._dtype)
        out[: len(inv)] = inv
        return out

    def _vpow(self, a: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            a = self._vinv(a)
            e = -e
        result = np.zeros(self.n, dtype=self._dtype)
        result[0] = 1
        base = a % self.p
        while e:
            if e & 1:
                result = self._vmul(result, base)
            base = self._vmul(base, base)
            e >>= 1
        return result

    # -- stacked arithmetic: (B, n) arrays, one element per row ----------------

    def mul_stack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise products: outer products scatter-added into (B, 2n-1)
        convolutions, then the reduction matrix."""
        p, n = self.p, self.n
        dt = dtype_for(p, n)
        a, b = a.astype(dt, copy=False), b.astype(dt, copy=False)
        conv = np.zeros((a.shape[0], 2 * n - 1), dtype=dt)
        for k in range(n):
            conv[:, k : k + n] += a[:, k, None] * b
        return matmul_mod(conv % p, self._reduce_matrix.T, p)

    def pow_stack(self, a: np.ndarray, e: int) -> np.ndarray:
        """Row-wise a^e for e >= 0 by square-and-multiply."""
        result = np.zeros(a.shape, dtype=self._dtype)
        result[:, 0] = 1
        base = a % self.p
        while e:
            if e & 1:
                result = self.mul_stack(result, base)
            base = self.mul_stack(base, base)
            e >>= 1
        return result

    def inverse_stack(self, a: np.ndarray) -> np.ndarray:
        """Row-wise inverses a^(q-2), each certified by a * a^-1 = 1."""
        if not (a % self.p != 0).any(axis=1).all():
            raise DivisionByZero("inverse of zero")
        inv = self.pow_stack(a, self.order - 2)
        bad = ~self.is_one_stack(self.mul_stack(a, inv))
        if bad.any():
            row = self._wrap(a[bad.argmax()])
            raise InternalCheckError(f"stacked inverse of {row} is wrong")
        return inv

    def frobenius_stack(self, a: np.ndarray, i: int) -> np.ndarray:
        """Row-wise sigma^i: the rows times the transposed Frobenius power."""
        return matmul_mod(a, self.sigma_power_matrix(i).T, self.p)

    def norm_stack(self, a: np.ndarray, sub: int = 1) -> np.ndarray:
        """Row-wise norms down to GF(p^sub): products of the conjugates."""
        self._check_sub(sub)
        acc = cur = a
        for _ in range(self.n // sub - 1):
            cur = self.frobenius_stack(cur, sub)
            acc = self.mul_stack(acc, cur)
        return acc

    def is_one_stack(self, a: np.ndarray) -> np.ndarray:
        """Boolean per row: the row is the unit element."""
        return (a[:, 0] == 1) & ~(a[:, 1:] != 0).any(axis=1)

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
        return [FieldElement(self, tuple(int(c) for c in self._theta_pows[t])) for t in range(self.n)]

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
            acc = np.zeros((self.n, self.n), dtype=self._dtype)
            for j in range(self.n // sub):
                acc = (acc + self.sigma_power_matrix(sub * j)) % self.p
            self._trace_maps[sub] = mat = acc
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

    # -- multiplicative structure ---------------------------------------------

    def unit_group_factorization(self) -> dict[int, int]:
        if self._unit_factorization is None:
            self._unit_factorization = {int(r): int(m) for r, m in sympy.factorint(self.order - 1).items()}
        return self._unit_factorization

    def element_order(self, b: FieldElement) -> int:
        """Multiplicative order of b != 0."""
        self._own(b)
        if not b:
            raise ZeroElement("order of zero is undefined")
        e = self.order - 1
        one = self.one()
        for r in sorted(self.unit_group_factorization()):
            while e % r == 0 and b ** (e // r) == one:
                e //= r
        return e

    def multiplicative_generator(self) -> FieldElement:
        """First element in counting order generating the unit group.

        Order is certified by checking g^((p^n-1)/r) != 1 for every
        prime r dividing p^n - 1.
        """
        if self._generator is None:
            card = self.order - 1
            primes = sorted(self.unit_group_factorization())
            one = self.one()
            for v in range(1, self.order):
                g = self.from_index(v)
                if all(g ** (card // r) != one for r in primes):
                    self._generator = g
                    break
        assert self._generator is not None  # a cyclic unit group always has one
        return self._generator

    def _own(self, b: FieldElement) -> None:
        if b.ctx != self:
            raise ContextMismatch("element belongs to a different context")

    # -- trace-of-power table used by the Gram fast path ------------------------

    def trace_power_table(self) -> np.ndarray:
        """tp[u] = tr(theta^u) in GF(p), for u = 0..3n-3."""
        if self._tp_table is None:
            tau = self._trace_map(1)[0]  # trace lands in K = span{1}
            self._tp_table = matmul_mod(self._theta_pows, tau, self.p)
        return self._tp_table
