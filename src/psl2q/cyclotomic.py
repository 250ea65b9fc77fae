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

Every reduction follows one rule: fold the exponents by x^m = 1, then
replace x^j, phi(m) <= j < m, by its row x^j mod Phi_m.  A product is the
integer convolution of the two numerator vectors, which skips zero
coefficients (most factors in the character sums are single powers of
zeta), reduced so.  `_reduction(m)` holds the m - phi(m) rows of one
conductor as their nonzero (index, coefficient) pairs (cyclotomic
polynomials are sparse), with phi(m) and the largest column sum of |rows|.

Many products at once, row i of A times row i of B for integer matrices of
reduced numerators, go through `row_products`: one convolution per row,
folded when 2 phi(m) - 1 > m (odd m), then one matrix product with the rows
R it reaches, a float64 matrix built on the conductor's first product.  A
folded count sums at most phi(m) products, so every entry and partial sum
is at most B = deg * max|A| * max|B| * (1 + the largest column sum of |R|),
which picks the arithmetic.  Below 2^53 it is float64, and the product with
R is a BLAS call: every value it or `np.convolve` (a direct sum, never an
FFT) forms is an integer of size at most B, which float64 holds exactly, so
no operation rounds, in whatever order BLAS sums and with or without fused
multiply-adds.  Below 2^63 the same steps run in int64, and past that in
Python integers (dtype=object), which `np.convolve` and the matrix product
handle exactly too; R reaches both cast through int64.

Many sums of roots of unity at once, row i of an integer matrix C with m
columns standing for sum_j C[i, j] zeta_m^j, go through
`reduce_zeta_counts`, the batched `CycNum.from_zeta_powers`: column j >= phi(m)
is added into the columns of the reduction row x^j mod Phi_m, one vector
operation per nonzero coefficient of those rows, for each power j that some
count reaches.  The rows are sparse (about 16 of 480 coefficients at
m = 1860), so this does far less work than a dense matrix product with
them, and nearly every coefficient is +-1, which adds or subtracts a row
with no product.  Counts built power-major (the transpose of
a C-ordered (m, rows) array, as `hermitian_form` builds them) are read in
place, with no copy of the columns j >= phi(m).  Every entry and partial sum
is at most max|C| times (1 + the largest column sum of |rows|), which chooses
int64 or Python integers by the same rule.

Every weighted Hermitian form of the verifier is one kernel,
`hermitian_form`: the row and column orthogonality of the character table,
the Gram matrices of the characters of GF(q)* and of GF(q^2)*/GF(q)*, and
the form of functions on F_q in `charsums`.  It computes
G[a, b] = sum over s of w[s] * X[a, s] * conj(Y[b, s]) for matrices X and Y
over Q(zeta_m) given by their terms (row, s, exponent, coefficient), as
`zeta_terms` lists them.  Each side becomes an integer matrix with one row
per s and one column per distinct (row, exponent), and one matrix product
of the weighted X columns with the Y columns sums over s.  The product of
column (a, i) and column (b, j) counts at zeta_m^(i - j) in entry (a, b),
the minus sign being the conjugation of Y, and one `np.add.at` scatter puts
every nonzero product there.  One `reduce_zeta_counts` per block of X rows,
each block at most GRAM_BLOCK counts and GRAM_BLOCK products, gives the
reduced numerators.  A count sums at most min(the most columns of one X
row, of one Y row) products, each at most sum|w| * max|X| * max|Y|, and
that bound picks the arithmetic by the rule of `row_products`: float64 (a
BLAS product) below 2^53, int64 below 2^63, else Python integers.  Callers
reach it as `cyclotomic.hermitian_form`, looked up at each call, so one
definition serves every form.

Phi_m is built from its squarefree kernel r = rad(m): Phi_(pn)(x) =
Phi_n(x^p) / Phi_n(x) for a prime p not dividing n takes Phi_1 = x - 1 to
Phi_r in one exact division per prime factor, and Phi_m(x) = Phi_r(x^(m/r)).
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import IdentityViolationError

GRAM_BLOCK = 2**20  # counts, and column products, per block of rows of `hermitian_form`
ROW_BLOCK = 2**16  # entries per block of rows that `_reduction` scans at once


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder (len(den) - 1 coefficients) of integer polynomials, ascending."""
    dd = len(den) - 1
    num = list(num) + [0] * (dd - len(num))
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
    return quot, num[:dd]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials exactly (coefficients ascending)."""
    quot, rem = _poly_divmod(num, den)
    if any(rem):
        raise IdentityViolationError("inexact cyclotomic division")
    return quot


def _stretch(poly, k: int) -> list[int]:
    """The coefficients of poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


@functools.cache
def cyclotomic_polynomial(m: int) -> list[int]:
    """Integer coefficients of Phi_m, ascending; Phi_1 = x - 1 (one shared list: read only)."""
    if m < 1:
        raise ValueError("conductor must be positive")
    poly, radical, rest, p = [-1, 1], 1, m, 2
    while rest > 1:
        if rest % p == 0:  # p is the least prime factor of rest
            poly = _poly_div_exact(_stretch(poly, p), poly)
            radical *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return _stretch(poly, m // radical)


class Reduction(NamedTuple):  # the reduction data of Q(zeta_m), built once per m by `_reduction`
    deg: int  # phi(m)
    rows: list[list[tuple[int, int]]]  # row k < m - deg: the nonzero (index, coefficient) pairs of x^(deg+k) mod Phi_m
    count_col: int  # the largest column sum of |rows|, which bounds `reduce_zeta_counts`


@functools.cache
def _reduction(m: int) -> Reduction:
    """Row k+1 is row k shifted up one power plus its top coefficient times
    row 0, one int64 step per row, in blocks of rows that are then scanned
    at once for their nonzero entries, column sums and largest entry
    (height).  A step adds at most height * max|row 0| to entries of at
    most height, so rows * height * (1 + max|row 0|) < 2^63 keeps every step
    and column sum exact."""
    first = -np.array(cyclotomic_polynomial(m)[:-1], dtype=np.int64)  # x^deg mod Phi_m
    deg = len(first)
    count, step = m - deg, max(1, ROW_BLOCK // deg)
    rows, height, cur, sums = [], 0, first, np.zeros(deg, dtype=np.int64)
    for start in range(0, count, step):
        block = np.empty((min(step, count - start), deg), dtype=np.int64)
        for row in block:
            row[:] = cur
            cur = np.concatenate(([0], cur[:-1])) + cur[-1] * first
        height = max(height, max_abs(block))
        sums += np.abs(block).sum(axis=0)
        r, i = np.nonzero(block)
        pairs = list(zip(i.tolist(), block[r, i].tolist()))
        ends = np.cumsum(np.bincount(r, minlength=len(block))).tolist()
        rows += [pairs[a:b] for a, b in zip([0, *ends], ends)]
    if count * height * (1 + max_abs(first)) >= 2**63:
        raise IdentityViolationError(f"the reduction rows of Phi_{m} pass the int64 range")
    return Reduction(deg, rows, max_abs(sums))


def max_abs(mat: np.ndarray) -> int:
    """The largest absolute value of an integer array (0 if it is empty);
    exact at the int64 minimum, which np.abs leaves negative."""
    return max(int(mat.max()), -int(mat.min())) if mat.size else 0


def exact_dtype(bound: int):
    """int64 if every value and partial sum of a computation is at most bound
    in absolute value and bound < 2^63, else Python integers."""
    return np.int64 if bound < 2**63 else object


def exact_product(a: np.ndarray, b: np.ndarray, extra: int = 0) -> np.ndarray:
    """a @ b for integer arrays in the dtype `exact_dtype` picks for the bound
    (largest row sum of |a|) * max|b| + extra, extra for constants added later."""
    dtype = exact_dtype(max_abs(np.abs(a).sum(axis=-1)) * max_abs(b) + extra)
    return a.astype(dtype) @ b.astype(dtype)


def _arithmetic(bound: int):
    """float64 if bound < 2^53, where it holds every integer up to bound
    exactly, so no sum or product of such integers rounds, in whatever order
    BLAS sums and with or without fused multiply-adds; else `exact_dtype`."""
    return np.float64 if bound < 2**53 else exact_dtype(bound)


@functools.cache
def _product_rows(m: int) -> tuple[np.ndarray, int]:
    """The `_reduction(m)` rows a folded product reaches, as float64, and their largest column sum."""
    deg, rows = _reduction(m)[:2]
    dense = np.zeros((min(deg - 1, m - deg), deg))
    for k, row in enumerate(rows[: len(dense)]):
        dense[k, [i for i, _ in row]] = [c for _, c in row]
    col = max_abs(np.abs(dense).sum(axis=0))
    if col >= 2**53:
        raise IdentityViolationError(f"the product rows of Phi_{m} pass the float64 range")
    return dense, col


def row_products(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i holds the reduced numerators of a[i] * b[i] in Q(zeta_m), where a
    and b are integer matrices of reduced numerators, phi(m) columns each;
    the bound B on every value formed picks the arithmetic (`_arithmetic`)."""
    reduction, col = _product_rows(m)
    deg = reduction.shape[1]
    dtype = _arithmetic(deg * max_abs(a) * max_abs(b) * (1 + col))
    if dtype is not np.float64:  # through int64, since float64 cast to object holds floats
        reduction = reduction.astype(np.int64).astype(dtype, copy=False)
    a, b = a.astype(dtype), b.astype(dtype)
    conv = np.array([np.convolve(x, y) for x, y in zip(a, b)], dtype=dtype).reshape(-1, 2 * deg - 1)
    conv[:, : max(0, 2 * deg - 1 - m)] += conv[:, m:]  # x^m = 1 folds powers m..2deg-2 (odd m)
    out = conv[:, :deg] + conv[:, deg : deg + len(reduction)] @ reduction
    return out.astype(np.int64) if dtype is np.float64 else out


def reduce_zeta_counts(m: int, counts: np.ndarray) -> np.ndarray:
    """Row i holds the reduced numerators of sum_j counts[i, j] * zeta_m^j in
    Q(zeta_m), for an integer-valued matrix with m columns (int64, float64 or
    Python integers): row by row the numerators of
    `CycNum.from_zeta_powers(m, counts[i])`."""
    if counts.ndim != 2 or counts.shape[1] != m:
        raise ValueError(f"expected a matrix with {m} columns, got shape {counts.shape}")
    red = _reduction(m)
    deg = red.deg
    dtype = exact_dtype(max_abs(counts) * (1 + red.count_col))
    # one row per power of zeta, so each step below is a contiguous row operation
    out = np.array(counts[:, :deg].T, dtype=dtype, order="C")
    tail = np.asarray(counts[:, deg:].T, dtype=dtype, order="C")  # read only: no copy of a power-major input
    for k in np.flatnonzero(tail.any(axis=1)):  # a power no count reaches adds nothing
        power = tail[k]
        for i, c in red.rows[k]:  # x^(deg+k) mod Phi_m
            if c == 1:  # most coefficients of cyclotomic polynomials are +-1
                out[i] += power
            elif c == -1:
                out[i] -= power
            else:
                out[i] += c * power
    return out.T


def conjugate_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """Row i holds the reduced numerators of the complex conjugate of rows[i]
    in Q(zeta_m): one `reduce_zeta_counts` of numerator j counted at
    zeta_m^(-j), laid out power-major so that it reads the counts in place."""
    negated = np.zeros((m, len(rows)), dtype=rows.dtype)
    negated[-np.arange(rows.shape[1]) % m] = rows.T
    return reduce_zeta_counts(m, negated.T)


def zeta_terms(rows: list[list["CycNum"]], m: int) -> tuple[tuple[np.ndarray, ...], list[int]]:
    """The terms of a matrix over Q(zeta_m), m a multiple of every conductor,
    and the lcm d[r] of the denominators of each row r.  The terms are arrays
    (row, column, exponent, coefficient), one entry per nonzero numerator:
    rows[r][c] is d[r]^-1 times the sum of coefficient * zeta_m^exponent over
    its terms."""
    dens = [math.lcm(*(v.den for v in row)) for row in rows]
    by_conductor: dict[int, list] = {}  # the numerators of one conductor have one length
    for r, (row, d) in enumerate(zip(rows, dens)):
        for c, v in enumerate(row):
            if m % v.m:
                raise ValueError(f"conductor {v.m} does not divide {m}")
            by_conductor.setdefault(v.m, []).append((r, c, d // v.den, v.nums))
    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0, dtype=object),)]
    for conductor, values in by_conductor.items():
        row, column, scale, nums = zip(*values)
        coef = np.array(nums, dtype=object) * np.array(scale, dtype=object)[:, None]
        value, j = np.nonzero(coef)
        parts.append((np.array(row)[value], np.array(column)[value], j * (m // conductor), coef[value, j]))
    row, column, exponent, coef = (np.concatenate(part) for part in zip(*parts))
    index = tuple(a.astype(np.int64) for a in (row, column, exponent))
    return (*index, coef.astype(exact_dtype(max_abs(coef)))), dens


def _columns(terms: tuple[np.ndarray, ...], m: int, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One column per distinct (row, exponent mod m) of a matrix's terms,
    ordered by row: the row and the exponent of each column, and the
    (points, columns) matrix of the coefficients."""
    row, summed, exponent, coef = terms
    keys, column = np.unique(row * m + exponent % m, return_inverse=True)
    dense = np.zeros((points, len(keys)), dtype=coef.dtype)
    np.add.at(dense, (summed, column), coef)
    return keys // m, keys % m, dense


def hermitian_form(m: int, weight: np.ndarray, x: tuple, x_rows: int, y: tuple, y_rows: int) -> np.ndarray:
    """G[a, b] = sum over s of weight[s] * X[a, s] * conj(Y[b, s]) for an
    x_rows-row matrix X and a y_rows-row matrix Y over Q(zeta_m), each given
    by its terms (row, s, exponent, coefficient): the reduced numerators of G
    as an (x_rows, y_rows, phi(m)) integer array, built in blocks of X rows
    of at most GRAM_BLOCK counts and GRAM_BLOCK column products each."""
    x_row, x_exp, a = _columns(x, m, len(weight))
    y_row, y_exp, b = _columns(y, m, len(weight))
    x_width, y_width = (int(np.bincount(r, minlength=1).max()) for r in (x_row, y_row))  # columns per row
    # count (a, b, d) takes at most one column of Y row b per column of X row a
    dtype = _arithmetic(sum(map(abs, weight.tolist())) * max_abs(a) * max_abs(b) * min(x_width, y_width))
    a = a.astype(dtype) * weight.astype(dtype)[:, None]
    b = b.astype(dtype, copy=False)
    exact = np.int64 if dtype is np.float64 else dtype  # the counts, which the reduction reads in place
    out = np.zeros((x_rows, y_rows, _reduction(m).deg), dtype=np.int64)
    step = max(1, GRAM_BLOCK // max(y_rows * m, x_width * len(y_exp)))  # counts and column products
    counts = np.zeros(m * min(step, x_rows) * y_rows, dtype=exact)  # one buffer for every block
    for start in range(0, x_rows, step):
        stop = min(start + step, x_rows)
        lo, hi = np.searchsorted(x_row, [start, stop])
        size = (stop - start) * y_rows
        products = a[:, lo:hi].T @ b
        i, j = np.nonzero(products)  # column pairs that share no s add nothing
        # power-major counts [power, a - start, b] through a flat index: column i
        # of X times column j of Y counts at power e_i - e_j mod m, the minus
        # sign being the conjugation of Y
        left = x_exp[lo:hi] * size + (x_row[lo:hi] - start) * y_rows
        flat = (left[i] + (m - y_exp[j]) * size + y_row[j]) % (m * size)
        part = counts[: m * size]
        part[:] = 0
        np.add.at(part, flat, products[i, j].astype(exact, copy=False))
        block = reduce_zeta_counts(m, part.reshape(m, -1).T)
        if block.dtype == object:  # a block past 2^63; later blocks may be int64 again
            out = out.astype(object)
        out[start:stop] = block.reshape(stop - start, y_rows, -1)
    return out


def is_rational_diagonal(gram: np.ndarray, diagonal) -> bool:
    """gram[a, b] (numerators in Q(zeta_m)) is the rational diagonal[a] when
    a == b and 0 otherwise, for every a and b."""
    constant = gram[..., 0].tolist()
    return not gram[..., 1:].any() and all(
        value == (diagonal[a] if a == b else 0)
        for a, line in enumerate(constant)
        for b, value in enumerate(line)
    )


def _reduce_int_poly(vec: list[int], m: int) -> tuple[int, ...]:
    """Reduce an integer polynomial (ascending, any length) mod Phi_m."""
    deg, rows = _reduction(m)[:2]
    if len(vec) > m:
        vec = [sum(vec[j::m]) for j in range(m)]  # x^m = 1
    head = vec[:deg] + [0] * (deg - len(vec))
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
        """An exact rational: an int, a Fraction or a numpy integer (stored
        as Python ints); a float or a string raises TypeError, as it does in
        arithmetic."""
        if not isinstance(value, (int, Fraction)):
            if not isinstance(value, numbers.Rational):
                raise TypeError(f"not an exact rational: {value!r}")
            value = Fraction(int(value.numerator), int(value.denominator))
        return cls(1, (value.numerator,), value.denominator)

    @classmethod
    def zero(cls) -> "CycNum":
        return cls(1, (0,), 1)

    @classmethod
    def root_of_unity(cls, m: int, j: int) -> "CycNum":
        """zeta_m^j as a canonical element of Q(zeta_m)."""
        return cls(m, _reduce_int_poly([0] * (j % m) + [1], m))

    @classmethod
    def from_zeta_powers(cls, m: int, powers: list[int], scale: Fraction = Fraction(1)) -> "CycNum":
        """sum_j powers[j] * zeta_m^j, times a rational scale."""
        head = _reduce_int_poly(list(powers), m)
        return _canonical(m, tuple([c * scale.numerator for c in head]), scale.denominator)

    # -- structure ---------------------------------------------------------

    def lift(self, target: int) -> "CycNum":
        """Re-express the value in Q(zeta_target); target must be a multiple of m."""
        if target == self.m:
            return self
        if target % self.m:
            raise ValueError("conductor lift requires a multiple")
        return CycNum(target, _reduce_int_poly(_stretch(self.nums, target // self.m), target), self.den)

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
        return CycNum(m, _reduce_int_poly(vec, m), self.den)

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
        return _canonical(a.m, _reduce_int_poly(conv, a.m), a.den * b.den)

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
