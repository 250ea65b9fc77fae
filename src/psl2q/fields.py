"""Exact arithmetic in GF(q) and GF(q^2) for odd prime powers q, plus
multiplicative characters and Gauss sums.

Elements of GF(q) are plain integers 0..q-1 encoding the coefficient vector
of the polynomial basis in base p (the integer n < p is the embedded prime
field element n).  Elements of GF(q^2) are integers 0..q^2-1 encoding
u + q*v for u + v*t, with t a root of a degree-2 irreducible over GF(q);
the embedded copy of GF(q) is exactly the indices below q.  GF(q)* is
generated by gen2^(q+1), so exp2[0..q] holds one representative per coset
of GF(q)* in GF(q^2)*.  A character value is a root of unity zeta_m^j:
character sums (`gauss_sum`, and those in `charsums`) count each exponent
j in an integer vector and build one `CycNum`.  Tables are built in full,
so q <= MAX_Q.

Each table is computed once, as a numpy array; `FieldCtx.arrays` keeps
those the vectorised passes of the other modules read.  The scalar
operations read Python lists made by `.tolist()` from the same arrays and
return Python ints.  The multiplication table of GF(q) comes from the base-p digit
vectors and the reductions of x^k mod f for k < 2e - 1.  All structural
choices are deterministic, so every table and test vector is reproducible:
- the modulus f of GF(q) is the first monic degree-e candidate, in
  (c_(e-1), ..., c_0) order, whose table has no zero divisor among the
  nonzero elements (the quotient ring is a field exactly when f is
  irreducible);
- the modulus t^2 + c1 t + c0 of GF(q^2) is the first, in (c1, c0) order,
  whose discriminant c1^2 - 4 c0 is a nonsquare;
- each generator, of GF(q)* and of GF(q^2)*, is the smallest x with
  x^(n/l) != 1 for every prime l dividing the group order n, every
  candidate powered at once; exp2 is built by doubling with `q2_mul_array`;
- the absolute trace of GF(q) and the trace and norm of GF(q^2) over GF(q)
  come from one Frobenius array x -> x^p of GF(q^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .cyclotomic import CycNum
from .errors import BudgetExceededError, DomainMismatchError, IdentityViolationError, NotOddPrimeError

MAX_Q = 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class MultCharFq:
    """Multiplicative character of GF(q)*: gen^j -> zeta_(q-1)^(j*exponent).

    Extended by zero at 0.  The trivial character has exponent 0 and the
    quadratic character has exponent (q-1)/2.
    """

    exponent: int
    modulus: int  # q - 1

    def conj(self) -> "MultCharFq":
        return MultCharFq((-self.exponent) % self.modulus, self.modulus)

    def order(self) -> int:
        return self.modulus // math.gcd(self.exponent, self.modulus)

    def is_trivial(self) -> bool:
        return self.exponent == 0


@dataclass(frozen=True)
class MultCharB:
    """Character of F_(q^2)*/F_q*: gen2^j -> zeta_(q+1)^(j*exponent).

    Trivial on GF(q)* because GF(q)* is generated by gen2^(q+1).
    """

    exponent: int
    modulus: int  # q + 1

    def conj(self) -> "MultCharB":
        return MultCharB((-self.exponent) % self.modulus, self.modulus)

    def order(self) -> int:
        return self.modulus // math.gcd(self.exponent, self.modulus)

    def sign_at_i(self) -> int:
        """beta(i) = (-1)^exponent, with i = gen2^((q+1)/2)."""
        return -1 if self.exponent % 2 else 1


@dataclass(frozen=True)
class FieldArrays:
    """The field tables, the one store the scalar lists of `FieldCtx` are
    read from.  Indexed by element of GF(q): add and mul (q x q), neg, inv,
    log, square (the mask of nonzero squares) and phi (the quadratic
    character).  Indexed by element of GF(q^2): log2, trace2 and norm2
    (both in GF(q)); exp2[j] is gen2^j.  The undefined entries inv[0],
    log[0] and log2[0] are 0.  The GF(q^2) tables are None only while
    `FieldCtx` builds them with `q2_mul_array`, which reads the others."""

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray
    log: np.ndarray
    square: np.ndarray
    phi: np.ndarray
    log2: np.ndarray | None = None
    exp2: np.ndarray | None = None
    trace2: np.ndarray | None = None
    norm2: np.ndarray | None = None


def _generator(order: int, mul) -> int:
    """The smallest x in 1..order with x^(order/l) != 1 for every prime l
    dividing order, over the elementwise product `mul` of a cyclic group of
    that order: every candidate is powered at once."""
    x = np.arange(1, order + 1)
    primitive = np.ones(order, dtype=bool)
    for ell in _prime_factors(order):
        n, base, acc = order // ell, x, np.ones_like(x)
        while n:
            if n & 1:
                acc = mul(acc, base)
            base, n = mul(base, base), n >> 1
        primitive &= acc != 1
    return int(np.argmax(primitive)) + 1


def _powers(g: int, n: int, mul) -> np.ndarray:
    """[g^0, ..., g^(n-1)] by doubling: each pass multiplies the powers so far
    by g^(their count)."""
    out = np.ones(1, dtype=np.int64)
    while len(out) < n:
        out = np.concatenate([out, mul(out, mul(out[-1], g))])
    return out[:n]


class FieldCtx:
    """GF(q) and GF(q^2) with full lookup tables (desk scale: q <= MAX_Q)."""

    def __init__(self, p: int, e: int):
        if not _is_prime(p) or p == 2:
            raise NotOddPrimeError(f"characteristic must be an odd prime, got {p}")
        if e < 1:
            raise ValueError("exponent must be >= 1")
        q = p**e
        if q < 3:
            raise ValueError("q must be at least 3")
        if q > MAX_Q:
            raise BudgetExceededError(f"q = {q} exceeds the budget {MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        # base-p digit vectors, constant coefficient first, and their values
        place = p ** np.arange(e)
        digits = np.arange(q)[:, None] // place % p
        add = (digits[:, None] + digits) % p @ place
        neg = -digits % p @ place
        self.modulus, mul = self._first_field_modulus(digits, place)
        self.generator = _generator(q - 1, lambda a, b: mul[a, b])
        exp = _powers(self.generator, q - 1, lambda a, b: mul[a, b])
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        phi = np.where(log % 2, -1, 1)
        phi[0] = 0
        square = phi == 1
        inv = exp[-log % (q - 1)]
        inv[0] = 0
        # t^2 + c1 t + c0, ordered by (c1, c0), is irreducible iff its
        # discriminant c1^2 - 4 c0 is a nonsquare
        c = np.arange(q)
        disc = add[mul[c, c][:, None], neg[mul[4 % p, c]]]
        c1, c0 = divmod(int(np.argmax(phi[disc] == -1)), q)
        self.modulus2 = (c0, c1)
        self.arrays = FieldArrays(add, mul, neg, inv, log, square, phi)
        self.generator2 = _generator(q * q - 1, self.q2_mul_array)
        exp2 = _powers(self.generator2, q * q - 1, self.q2_mul_array)
        log2 = np.zeros(q * q, dtype=np.int64)
        log2[exp2] = np.arange(q * q - 1)
        # x -> x^p on GF(q^2); on the embedded GF(q) (indices below q) it is
        # the Frobenius of GF(q) as well
        frob = exp2[log2 * p % (q * q - 1)]
        frob[0] = 0
        trace = power = np.arange(q)
        for _ in range(e - 1):
            power = frob[power]
            trace = add[trace, power]
        if not (trace < p).all():
            raise IdentityViolationError("a trace of GF(q) is not in the prime field")
        x = conj = np.arange(q * q)
        for _ in range(e):
            conj = frob[conj]  # x -> x^q
        trace2 = add[x % q, conj % q] + q * add[x // q, conj // q]
        norm2 = self.q2_mul_array(x, conj)
        if not (trace2 < q).all():
            raise IdentityViolationError("a GF(q^2) trace is not in GF(q)")
        if not (norm2 < q).all():
            raise IdentityViolationError("a GF(q^2) norm is not in GF(q)")
        self.arrays = replace(self.arrays, log2=log2, exp2=exp2, trace2=trace2, norm2=norm2)
        self.add_table, self.mul_table, self.neg_table = add.tolist(), mul.tolist(), neg.tolist()
        self.inv_table = [None] + inv[1:].tolist()
        self.exp, self.log = exp.tolist(), [None] + log[1:].tolist()
        self.trace_table = trace.tolist()
        self.exp2, self.log2 = exp2.tolist(), [None] + log2[1:].tolist()
        self.trace2_table, self.norm2_table = trace2.tolist(), norm2.tolist()
        self.i_elem = self.exp2[(q + 1) // 2]
        if not (self.q2_mul(self.i_elem, self.i_elem) < q and self.i_elem >= q):
            raise IdentityViolationError("i = g^((q+1)/2) must lie outside GF(q) with i^2 in GF(q)")

    def _first_field_modulus(self, digits: np.ndarray, place: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        """The first monic f of degree e, in (c_(e-1), ..., c_0) order, whose
        multiplication table mod f has no zero divisor among the nonzero
        elements (the quotient ring is a field exactly when f is
        irreducible), with that table."""
        p, e = self.p, self.e
        for low in product(range(p), repeat=e):
            modulus = tuple(reversed(low)) + (1,)
            # rows[k] = the digits of x^k mod f, for k < 2e - 1
            rows = np.zeros((2 * e - 1, e), dtype=np.int64)
            rows[:e] = np.eye(e)
            for k in range(e, 2 * e - 1):
                rows[k, 1:] = rows[k - 1, :-1]
                rows[k] = (rows[k] - rows[k - 1, -1] * np.array(modulus[:e])) % p
            # x^i x^j = x^(i+j): sum the digit products into the reduced rows
            reduce = rows[np.add.outer(np.arange(e), np.arange(e))]
            mul = np.einsum("xi,yj,ijk->xyk", digits, digits, reduce) % p @ place
            if mul[1:, 1:].all():
                return modulus, mul
        raise AssertionError("no irreducible polynomial found")

    # -- GF(q) operations ----------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def sub(self, x: int, y: int) -> int:
        return self.add_table[x][self.neg_table[y]]

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def mul(self, x: int, y: int) -> int:
        return self.mul_table[x][y]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self.inv_table[x]

    def embed_int(self, n: int) -> int:
        """The field element 1 + 1 + ... (n times), i.e. n mod p."""
        return n % self.p

    def elements(self) -> range:
        return range(self.q)

    def is_square(self, x: int) -> bool:
        return x != 0 and self.log[x] % 2 == 0

    def sqrt(self, x: int) -> int:
        if x == 0:
            return 0
        j = self.log[x]
        if j % 2:
            raise ValueError("element is not a square")
        return self.exp[j // 2]

    def phi_int(self, x: int) -> int:
        """Quadratic character as an integer in {-1, 0, 1}."""
        if x == 0:
            return 0
        return -1 if self.log[x] % 2 else 1

    # -- GF(q^2) operations --------------------------------------------------

    def q2_add(self, a: int, b: int) -> int:
        q = self.q
        return self.add(a % q, b % q) + q * self.add(a // q, b // q)

    def q2_mul(self, a: int, b: int) -> int:
        """Product in GF(q^2) over the scalar GF(q) tables, with
        t^2 = -c1*t - c0."""
        q = self.q
        c0, c1 = self.modulus2
        u1, v1, u2, v2 = a % q, a // q, b % q, b // q
        vv = self.mul(v1, v2)
        u = self.sub(self.mul(u1, u2), self.mul(vv, c0))
        v = self.sub(self.add(self.mul(u1, v2), self.mul(u2, v1)), self.mul(vv, c1))
        return u + q * v

    def q2_mul_array(self, a, b) -> np.ndarray:
        """`q2_mul` elementwise over integer arrays (broadcast together), in
        one numpy pass over the GF(q) tables, with t^2 = -c1*t - c0."""
        q = self.q
        add, mul, neg = self.arrays.add, self.arrays.mul, self.arrays.neg
        c0, c1 = self.modulus2
        u1, v1, u2, v2 = a % q, a // q, b % q, b // q
        vv = mul[v1, v2]
        u = add[mul[u1, u2], neg[mul[vv, c0]]]
        v = add[add[mul[u1, v2], mul[u2, v1]], neg[mul[vv, c1]]]
        return u + q * v

    def q2_inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q^2)")
        return self.exp2[(-self.log2[a]) % (self.q * self.q - 1)]

    def q2_trace(self, a: int) -> int:
        return self.trace2_table[a]

    def q2_norm(self, a: int) -> int:
        return self.norm2_table[a]

    # -- characters ----------------------------------------------------------

    def trivial_char(self) -> MultCharFq:
        return MultCharFq(0, self.q - 1)

    def quadratic_char(self) -> MultCharFq:
        return MultCharFq((self.q - 1) // 2, self.q - 1)

    def fq_char(self, exponent: int) -> MultCharFq:
        return MultCharFq(exponent % (self.q - 1), self.q - 1)

    def gamma_set(self) -> list[MultCharFq]:
        """Characters of GF(q)* of order > 2, one per inversion pair {k, q-1-k}."""
        if self.q < 5:
            raise ValueError("gamma_set requires q >= 5")
        return [MultCharFq(k, self.q - 1) for k in range(1, (self.q - 1) // 2)]

    def beta_set(self) -> list[MultCharB]:
        """Characters of F_(q^2)*/F_q* of order > 2, one per inversion pair."""
        if self.q < 3:
            raise ValueError("beta_set requires q >= 3")
        return [MultCharB(k, self.q + 1) for k in range(1, (self.q + 1) // 2)]

    def check_char(self, char) -> None:
        """Raise DomainMismatchError unless char is a character of this field:
        a MultCharFq of modulus q-1 or a MultCharB of modulus q+1."""
        if isinstance(char, MultCharFq):
            modulus = self.q - 1
        elif isinstance(char, MultCharB):
            modulus = self.q + 1
        else:
            raise TypeError(f"not a multiplicative character: {char!r}")
        if char.modulus != modulus:
            raise DomainMismatchError(
                f"{type(char).__name__} of modulus {char.modulus} is not a character of this field (q = {self.q})"
            )

    def check_element(self, x: int, order: int | None = None) -> None:
        """Raise DomainMismatchError unless 0 <= x < order (default q)."""
        order = order or self.q
        if not 0 <= x < order:
            raise DomainMismatchError(f"{x!r} is not an element of GF({order}), i.e. not in 0..{order - 1}")

    def char_eval(self, char, x: int) -> CycNum:
        """Evaluate a multiplicative character, with the zero-at-0 convention:
        a MultCharFq at an element of GF(q), a MultCharB at one of GF(q^2)."""
        self.check_char(char)
        self.check_element(x, self.q if isinstance(char, MultCharFq) else self.q * self.q)
        if x == 0:
            return CycNum.zero()
        if isinstance(char, MultCharFq):
            return CycNum.root_of_unity(self.q - 1, char.exponent * self.log[x])
        return CycNum.root_of_unity(self.q + 1, char.exponent * self.log2[x])

    # -- Gauss sums ------------------------------------------------------------

    def gauss_sum(self, char: MultCharFq, additive_index: int = 1) -> CycNum:
        """g(char) = sum over x of char(x) * theta(x) with theta(x) = zeta_p^Tr(c*x).

        The additive character index c must be a nonzero field element; the
        default is c = 1.  The value lives in Q(zeta_lcm(p, q-1)).
        """
        if not isinstance(char, MultCharFq):
            raise TypeError(f"not a character of GF(q)*: {char!r}")
        self.check_char(char)
        self.check_element(additive_index)
        if additive_index == 0:
            raise ValueError("additive character must be nontrivial")
        q, p = self.q, self.p
        m = math.lcm(p, q - 1)
        mult_step = m // (q - 1)
        add_step = m // p
        vec = [0] * m
        for x in range(1, q):
            j = (char.exponent * self.log[x]) % (q - 1)
            tr = self.trace_table[self.mul(additive_index, x)]
            vec[(mult_step * j + add_step * tr) % m] += 1
        return CycNum.from_zeta_powers(m, vec)


_CTX_CACHE: dict[tuple[int, int], FieldCtx] = {}


def field_ctx_for_q(q: int) -> FieldCtx:
    """Context for an odd prime power written multiplicatively (9 -> GF(3^2))."""
    pe = factor_prime_power(q)
    if pe is None:
        raise NotOddPrimeError(f"{q} is not an odd prime power")
    key = pe
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(*pe)
        _CTX_CACHE[key] = ctx
    return ctx


def factor_prime_power(q: int):
    """(p, e) with q = p^e and p an odd prime, else None."""
    if q < 3:
        return None
    fac = _prime_factors(q)
    if len(fac) != 1 or fac[0] == 2:
        return None
    p = fac[0]
    e = 0
    while q > 1:
        q //= p
        e += 1
    return (p, e)
