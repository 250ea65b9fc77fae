"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is stored as its canonical representative in the power basis
1, x, ..., x^(phi(m)-1) of Q[x]/(Phi_m(x)), where x stands for the primitive
m-th root of unity exp(2*pi*i/m) and Phi_m is the m-th cyclotomic polynomial.
The representative is kept as a tuple of integer numerators over one
positive integer denominator, in lowest terms (gcd(den, *nums) == 1), so
equal values have equal (nums, den) and equality, in particular equality to
zero, is a plain tuple comparison.  Values with different conductors are
combined by lifting both to the least common multiple conductor; the lift
zeta_m -> zeta_M^(M/m) is a field embedding, so canonical representatives of
equal values agree after lifting.

A product is the integer convolution of the two numerator vectors, which
skips zero coefficients (most factors in the character sums are single
powers of zeta), reduced mod Phi_m with precomputed rows x^(phi(m)+k) mod
Phi_m, stored as their nonzero (index, coefficient) pairs because
cyclotomic polynomials are sparse.

Many products at once, row i of A times row i of B for integer matrices of
reduced numerators, go through `row_products`: a numpy convolution over the
columns, then one matrix product with the dense reduction rows R (row k is
x^(phi(m)+k) mod Phi_m).  Every entry and partial sum is at most
deg * max|A| * max|B| * (1 + the largest column sum of |R|), so the work runs
in int64 exactly when that bound is below 2^63, and in Python integers
(dtype=object) otherwise.

Many sums of roots of unity at once, row i of an integer matrix C with m
columns standing for sum_j C[i, j] zeta_m^j, go through
`reduce_zeta_counts`, the batched `CycNum.from_zeta_powers`: column j >= phi(m)
is added into the columns of the reduction row x^j mod Phi_m, one vector
operation per nonzero coefficient of those rows.  The rows are sparse (about
16 of 480 coefficients at m = 1860), so this does far less work than a dense
matrix product with them.  Every entry and partial sum is at most max|C|
times (1 + the largest column sum of |rows|), which chooses int64 or Python
integers by the same rule.

Phi_m is built from its squarefree kernel r = rad(m): Phi_(pn)(x) =
Phi_n(x^p) / Phi_n(x) for a prime p not dividing n takes Phi_1 = x - 1 to
Phi_r in one exact division per prime factor, and Phi_m(x) = Phi_r(x^(m/r)).
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import IdentityViolationError

_PHI_CACHE: dict[int, list[int]] = {}
# m -> rows of (index, coefficient) pairs; row k holds the nonzero
# coefficients of x^(phi(m)+k) reduced mod Phi_m
_ROW_CACHE: dict[int, list[list[tuple[int, int]]]] = {}
# m -> (rows 0..deg-2 of _ROW_CACHE[m] as a dense int64 matrix, the largest
# column sum of its absolute values)
_DENSE_CACHE: dict[int, tuple[np.ndarray, int]] = {}


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials exactly (coefficients ascending)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        if c % lead:
            raise IdentityViolationError("inexact cyclotomic division")
        f = c // lead
        quot[k - dd] = f
        for i, d in enumerate(den):
            num[k - dd + i] -= f * d
    if any(num):
        raise IdentityViolationError("inexact cyclotomic division")
    return quot


def _stretch(poly: list[int], k: int) -> list[int]:
    """The coefficients of poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


def cyclotomic_polynomial(m: int) -> list[int]:
    """Integer coefficients of Phi_m, ascending; Phi_1 = x - 1."""
    if m < 1:
        raise ValueError("conductor must be positive")
    poly = _PHI_CACHE.get(m)
    if poly is None:
        poly, radical, rest, p = [-1, 1], 1, m, 2
        while rest > 1:
            if rest % p == 0:  # p is the least prime factor of rest
                poly = _poly_div_exact(_stretch(poly, p), poly)
                radical *= p
                while rest % p == 0:
                    rest //= p
            p += 1
        poly = _PHI_CACHE[m] = _stretch(poly, m // radical)
    return poly


def _degree(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


def _reduction_rows(m: int) -> list[list[tuple[int, int]]]:
    rows = _ROW_CACHE.get(m)
    if rows is None:
        phi_poly = cyclotomic_polynomial(m)
        deg = len(phi_poly) - 1
        top = max(m - 1, 2 * deg - 2)
        rows = []
        if deg >= 1 and top >= deg:
            cur = [-c for c in phi_poly[:deg]]  # x^deg mod Phi_m
            for _ in range(deg, top + 1):
                rows.append([(i, c) for i, c in enumerate(cur) if c])
                head = cur[-1]
                cur = [0] + cur[:-1]
                if head:
                    for i, c in rows[0]:
                        cur[i] += head * c
        _ROW_CACHE[m] = rows
    return rows


def _dense_reduction(m: int) -> tuple[np.ndarray, int]:
    hit = _DENSE_CACHE.get(m)
    if hit is None:
        deg = _degree(m)
        dense = np.zeros((deg - 1, deg), dtype=np.int64)
        for k, row in enumerate(_reduction_rows(m)[: deg - 1]):
            for i, c in row:
                dense[k, i] = c
        hit = _DENSE_CACHE[m] = (dense, max_abs(np.abs(dense).sum(axis=0)))
    return hit


def max_abs(mat: np.ndarray) -> int:
    """The largest absolute value of an integer array (0 if it is empty)."""
    return int(np.abs(mat).max()) if mat.size else 0


def exact_dtype(bound: int):
    """int64 if every value and partial sum of a computation is at most bound
    in absolute value and bound < 2^63, else Python integers."""
    return np.int64 if bound < 2**63 else object


def row_products(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i holds the reduced numerators of a[i] * b[i] in Q(zeta_m), where a
    and b are integer matrices of reduced numerators, phi(m) columns each."""
    deg = _degree(m)
    dense, col = _dense_reduction(m)
    dtype = exact_dtype(deg * max_abs(a) * max_abs(b) * (1 + col))
    a, b = a.astype(dtype), b.astype(dtype)
    conv = np.zeros((a.shape[0], 2 * deg - 1), dtype=dtype)
    for i in range(deg):
        conv[:, i : i + deg] += a[:, i : i + 1] * b
    return conv[:, :deg] + conv[:, deg:] @ dense.astype(dtype)


def reduce_zeta_counts(m: int, counts: np.ndarray) -> np.ndarray:
    """Row i holds the reduced numerators of sum_j counts[i, j] * zeta_m^j in
    Q(zeta_m), for an integer matrix with m columns: row by row the
    numerators of `CycNum.from_zeta_powers(m, counts[i])`."""
    if counts.ndim != 2 or counts.shape[1] != m:
        raise ValueError(f"expected a matrix with {m} columns, got shape {counts.shape}")
    deg = _degree(m)
    rows = _reduction_rows(m)[: m - deg]  # row k is x^(deg+k) mod Phi_m
    column_sums = [0] * deg
    for row in rows:
        for i, c in row:
            column_sums[i] += abs(c)
    dtype = exact_dtype(max_abs(counts) * (1 + max(column_sums)))
    # one row per power of zeta, so each step below is a contiguous row operation
    out = np.array(counts[:, :deg].T, dtype=dtype, order="C")
    tail = np.array(counts[:, deg:].T, dtype=dtype, order="C")
    for power, row in zip(tail, rows):
        for i, c in row:
            out[i] += c * power
    return out.T


def _reduce_int_poly(vec: list[int], m: int, deg: int) -> tuple[int, ...]:
    """Reduce an integer polynomial (ascending, any length) mod Phi_m."""
    head = vec[:deg]
    if len(head) < deg:
        head += [0] * (deg - len(head))
    elif len(vec) > deg:
        rows = _reduction_rows(m)
        if len(vec) - deg > len(rows):
            raise ValueError(f"polynomial of degree {len(vec) - 1} is too long to reduce mod Phi_{m}")
        for c, row in zip(vec[deg:], rows):
            if c:
                for i, r in row:
                    head[i] += c * r
    return tuple(head)


def _convolve(a, b) -> list[int]:
    """Coefficients of the product of two integer polynomials (ascending)."""
    conv = [0] * (len(a) + len(b) - 1)
    terms_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms_b:
                conv[i + j] += x * y
    return conv


def _canonical(m: int, nums: tuple[int, ...], den: int) -> "CycNum":
    """The value nums/den (den > 0) in lowest terms."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = tuple([c // g for c in nums])
        den //= g
    return CycNum(m, nums, den)


def _combine(a: "CycNum", b: "CycNum", op) -> "CycNum":
    """a op b for op in {add, sub}; both have the same conductor."""
    g = math.gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    return _canonical(a.m, tuple([op(x * fa, y * fb) for x, y in zip(a.nums, b.nums)]), a.den * fa)


class CycNum:
    """An element of Q(zeta_m), reduced mod Phi_m: sum_j nums[j] zeta_m^j / den."""

    __slots__ = ("m", "nums", "den")

    def __init__(self, m: int, nums: tuple[int, ...], den: int = 1):
        self.m = m
        self.nums = nums
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value) -> "CycNum":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return cls(1, (value.numerator,), value.denominator)

    @classmethod
    def zero(cls) -> "CycNum":
        return cls(1, (0,), 1)

    @classmethod
    def root_of_unity(cls, m: int, j: int) -> "CycNum":
        """zeta_m^j as a canonical element of Q(zeta_m)."""
        j %= m
        vec = [0] * (j + 1)
        vec[j] = 1
        return cls(m, _reduce_int_poly(vec, m, _degree(m)))

    @classmethod
    def from_zeta_powers(cls, m: int, powers: list[int], scale: Fraction = Fraction(1)) -> "CycNum":
        """sum_j powers[j] * zeta_m^j, times a rational scale."""
        head = _reduce_int_poly(list(powers), m, _degree(m))
        return _canonical(m, tuple([c * scale.numerator for c in head]), scale.denominator)

    # -- structure ---------------------------------------------------------

    def lift(self, target: int) -> "CycNum":
        """Re-express the value in Q(zeta_target); target must be a multiple of m."""
        if target == self.m:
            return self
        if target % self.m:
            raise ValueError("conductor lift requires a multiple")
        step = target // self.m
        vec = [0] * ((len(self.nums) - 1) * step + 1)
        vec[::step] = self.nums
        return CycNum(target, _reduce_int_poly(vec, target, _degree(target)), self.den)

    def _pair(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        if self.m == other.m:
            return self, other
        m = math.lcm(self.m, other.m)
        return self.lift(m), other.lift(m)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.nums[0], self.den)

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta_m -> zeta_m^(m-1)."""
        m = self.m
        vec = [0] * m
        vec[0] = self.nums[0]
        vec[m - len(self.nums) + 1 :] = self.nums[:0:-1]
        return CycNum(m, _reduce_int_poly(vec, m, len(self.nums)), self.den)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def __complex__(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.m)
        den = self.den
        total = 0j
        power = 1 + 0j
        for c in self.nums:
            if c:
                total += (c / den) * power
            power *= z
        return total

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(*self._pair(other), operator.add)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.m, tuple([-c for c in self.nums]), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(*self._pair(other), operator.sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scaled(self, num: int, den: int) -> "CycNum":
        return _canonical(self.m, tuple([c * num for c in self.nums]), self.den * den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return CycNum.zero()
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return CycNum.zero()
        a, b = self._pair(other)
        conv = _convolve(a.nums, b.nums)
        return _canonical(a.m, _reduce_int_poly(conv, a.m, len(a.nums)), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.nums == b.nums

    __hash__ = None  # cross-conductor equality makes hashing unreliable

    # -- rendering ---------------------------------------------------------

    def coeff_string(self) -> str:
        """Exact rendering "c0,c1,.../m" of the reduced coefficient vector."""
        den = self.den
        return ",".join(str(Fraction(c, den)) for c in self.nums) + "/" + str(self.m)

    def approx_string(self, digits: int = 12) -> str:
        z = complex(self)
        re = format(z.real, f".{digits}g")
        im = format(z.imag, f".{digits}g")
        return f"{re}{'+' if z.imag >= 0 else ''}{im}j"

    def __repr__(self):
        den = self.den
        if self.is_rational():
            return f"CycNum({Fraction(self.nums[0], den)})"
        return f"CycNum(m={self.m}, {[Fraction(c, den) for c in self.nums]})"


def _coerce(value):
    if isinstance(value, CycNum):
        return value
    if isinstance(value, (int, Fraction)):
        return CycNum.rational(value)
    return NotImplemented
