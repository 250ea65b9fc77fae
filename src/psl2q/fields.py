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
so q <= MAX_Q.  The scalar operations read Python lists and return Python
ints; `FieldCtx.arrays` holds numpy copies of the same tables, built once,
for the vectorised passes of the other modules.

All structural choices are deterministic: the modulus polynomials and the
multiplicative generators are the lexicographically smallest valid
candidates, so every table and test vector is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """numpy copies of the GF(q) tables, indexed by field element: add and
    mul (q x q), neg, inv, log, square and phi (q), and the GF(q^2) log
    (q^2).  The undefined entries inv[0], log[0] and log2[0] are 0; square
    is the mask of nonzero squares and phi the quadratic character."""

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray
    log: np.ndarray
    log2: np.ndarray
    square: np.ndarray
    phi: np.ndarray


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
        self.modulus = self._smallest_irreducible()
        self._build_base_tables()
        self.modulus2 = self._smallest_quadratic_irreducible()
        self._build_ext_tables()
        self.arrays = FieldArrays(
            add=np.array(self.add_table),
            mul=np.array(self.mul_table),
            neg=np.array(self.neg_table),
            inv=np.array([0] + self.inv_table[1:]),
            log=np.array([0] + self.log[1:]),
            log2=np.array([0] + self.log2[1:]),
            square=np.array([self.is_square(x) for x in range(q)]),
            phi=np.array([self.phi_int(x) for x in range(q)]),
        )
        self.i_elem = self.exp2[(q + 1) // 2]
        if not (self.q2_mul(self.i_elem, self.i_elem) < q and self.i_elem >= q):
            raise IdentityViolationError("i = g^((q+1)/2) must lie outside GF(q) with i^2 in GF(q)")

    # -- construction ------------------------------------------------------

    def _poly_mod_p(self, a: list[int], b: list[int]) -> list[int]:
        p = self.p
        res = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    res[i + j] = (res[i + j] + x * y) % p
        return res

    def _poly_rem(self, num: list[int], den: list[int]) -> list[int]:
        p = self.p
        num = list(num)
        dd = len(den) - 1
        inv_lead = pow(den[-1], p - 2, p)
        for k in range(len(num) - 1, dd - 1, -1):
            c = num[k]
            if c:
                f = (c * inv_lead) % p
                for i in range(dd + 1):
                    num[k - dd + i] = (num[k - dd + i] - f * den[i]) % p
        return num[:dd]

    def _smallest_irreducible(self) -> tuple[int, ...]:
        p, e = self.p, self.e
        if e == 1:
            return (0, 1)
        # candidates ordered by (c_(e-1), ..., c_0); exhaustive trial division
        lows = range(p)
        from itertools import product

        for digits in product(lows, repeat=e):
            cand = list(reversed(digits)) + [1]
            if cand[0] == 0:
                continue
            if self._is_irreducible(cand):
                return tuple(cand)
        raise AssertionError("no irreducible polynomial found")

    def _is_irreducible(self, poly: list[int]) -> bool:
        p = self.p
        deg = len(poly) - 1
        from itertools import product

        for d in range(1, deg // 2 + 1):
            for digits in product(range(p), repeat=d):
                div = list(digits) + [1]
                if all(c == 0 for c in self._poly_rem(poly, div)):
                    return False
        return True

    def _build_base_tables(self):
        p, e, q = self.p, self.e, self.q

        def digits(x):
            out = []
            for _ in range(e):
                out.append(x % p)
                x //= p
            return out

        def undigits(ds):
            x = 0
            for d in reversed(ds):
                x = x * p + d
            return x

        self.add_table = [
            [undigits([(a + b) % p for a, b in zip(digits(x), digits(y))]) for y in range(q)]
            for x in range(q)
        ]
        self.neg_table = [undigits([(-a) % p for a in digits(x)]) for x in range(q)]
        mod = list(self.modulus)
        mul_table = []
        for x in range(q):
            row = []
            dx = digits(x)
            for y in range(q):
                prod = self._poly_mod_p(dx, digits(y))
                row.append(undigits(self._poly_rem(prod + [0] * e, mod)[:e] if e > 1 else [prod[0] % p]))
            mul_table.append(row)
        self.mul_table = mul_table

        self.generator = self._find_generator(q - 1, lambda a, b: mul_table[a][b], range(1, q))
        self.exp = [0] * (q - 1)
        self.log = [None] * q
        acc = 1
        for j in range(q - 1):
            self.exp[j] = acc
            self.log[acc] = j
            acc = mul_table[acc][self.generator]
        self.inv_table = [None] + [self.exp[(-(self.log[x])) % (q - 1)] for x in range(1, q)]
        # absolute trace to the prime field
        self.trace_table = []
        for x in range(q):
            acc_t = x
            t = x
            for _ in range(e - 1):
                t = self.pow(t, p)
                acc_t = self.add_table[acc_t][t]
            if acc_t >= p:
                raise IdentityViolationError(f"trace of {x} is not in the prime field")
            self.trace_table.append(acc_t)

    def _find_generator(self, order: int, mul, candidates) -> int:
        primes = _prime_factors(order)

        def elem_pow(x, n):
            r = None
            b = x
            while n:
                if n & 1:
                    r = b if r is None else mul(r, b)
                b = mul(b, b)
                n >>= 1
            return r

        for x in candidates:
            if all(elem_pow(x, order // ell) != 1 for ell in primes):
                return x
        raise AssertionError("no generator found")

    def _smallest_quadratic_irreducible(self) -> tuple[int, int]:
        # t^2 + c1*t + c0 over GF(q), ordered by (c1, c0); irreducible iff
        # the discriminant c1^2 - 4*c0 is a nonsquare
        for c1 in range(self.q):
            for c0 in range(self.q):
                disc = self.sub(self.mul(c1, c1), self.mul(self.embed_int(4), c0))
                if disc != 0 and not self.is_square(disc):
                    return (c0, c1)
        raise AssertionError("no quadratic irreducible found")

    def _build_ext_tables(self):
        q = self.q
        c0, c1 = self.modulus2

        def mul2(a, b):
            u1, v1 = a % q, a // q
            u2, v2 = b % q, b // q
            uu = self.mul(u1, u2)
            vv = self.mul(v1, v2)
            mid = self.add(self.mul(u1, v2), self.mul(u2, v1))
            # t^2 = -c1*t - c0
            u = self.sub(uu, self.mul(vv, c0))
            v = self.sub(mid, self.mul(vv, c1))
            return u + q * v

        self._mul2 = mul2
        self.generator2 = self._find_generator(q * q - 1, mul2, range(1, q * q))
        self.exp2 = [0] * (q * q - 1)
        self.log2 = [None] * (q * q)
        acc = 1
        for j in range(q * q - 1):
            self.exp2[j] = acc
            self.log2[acc] = j
            acc = mul2(acc, self.generator2)
        frob = [0] + [self.exp2[(self.log2[x] * q) % (q * q - 1)] for x in range(1, q * q)]  # x -> x^q
        self.trace2_table = [self.q2_add(x, frob[x]) for x in range(q * q)]
        self.norm2_table = [mul2(x, frob[x]) for x in range(q * q)]
        if not all(t < q for t in self.trace2_table):
            raise IdentityViolationError("a GF(q^2) trace is not in GF(q)")
        if not all(n < q for n in self.norm2_table):
            raise IdentityViolationError("a GF(q^2) norm is not in GF(q)")

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

    def pow(self, x: int, n: int) -> int:
        if x == 0:
            return 0 if n else 1
        return self.exp[(self.log[x] * n) % (self.q - 1)]

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
        return self._mul2(a, b)

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

    def q2_units(self) -> range:
        return range(1, self.q * self.q)

    # -- characters ----------------------------------------------------------

    def trivial_char(self) -> MultCharFq:
        return MultCharFq(0, self.q - 1)

    def quadratic_char(self) -> MultCharFq:
        return MultCharFq((self.q - 1) // 2, self.q - 1)

    def fq_char(self, exponent: int) -> MultCharFq:
        return MultCharFq(exponent % (self.q - 1), self.q - 1)

    def b_char(self, exponent: int) -> MultCharB:
        return MultCharB(exponent % (self.q + 1), self.q + 1)

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
