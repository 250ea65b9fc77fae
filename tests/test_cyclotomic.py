"""Tests for exact cyclotomic arithmetic."""

import cmath
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2q.cyclotomic import CycNum, _convolve, cyclotomic_polynomial, reduce_zeta_counts, row_products


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    # degree is Euler phi
    assert len(cyclotomic_polynomial(84)) - 1 == 24


@functools.cache
def _phi_by_divisors(m):
    """The oracle: x^m - 1 divided exactly by Phi_d for every proper divisor d."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = _phi_by_divisors(d)
            quot = [0] * (len(poly) - len(den) + 1)
            for k in range(len(quot) - 1, -1, -1):
                quot[k] = poly[k + len(den) - 1] // den[-1]
                for i, c in enumerate(den):
                    poly[k + i] -= quot[k] * c
            assert not any(poly)
            poly = quot
    return poly


def test_cyclotomic_polynomials_match_the_divisor_quotients():
    # 1860 and 3660 are the conductors lcm(q-1, q+1) and (q-1)p at q = 61
    for m in [*range(1, 300), 1860, 3660]:
        assert cyclotomic_polynomial(m) == _phi_by_divisors(m), m


def test_roots_of_unity_basic_relations():
    z3 = CycNum.root_of_unity(3, 1)
    assert z3 + CycNum.root_of_unity(3, 2) == -1
    assert z3 * z3 * z3 == 1
    z8 = CycNum.root_of_unity(8, 1)
    assert z8 * z8 == CycNum.root_of_unity(4, 1)
    assert CycNum.root_of_unity(2, 1) == -1


def test_conjugation_and_rationality():
    z = CycNum.root_of_unity(12, 5)
    assert z.conjugate() * z == 1
    assert not z.is_rational()
    val = z + z.conjugate()
    assert val.is_real()
    r = CycNum.rational(Fraction(7, 3))
    assert r.is_rational() and r.as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        z.as_fraction()


def test_cross_conductor_equality():
    assert CycNum.root_of_unity(4, 2) == CycNum.root_of_unity(6, 3)  # both -1
    assert CycNum.root_of_unity(6, 0) == 1
    a = CycNum.root_of_unity(3, 1)
    b = a.lift(12)
    assert a == b and b.m == 12


def test_complex_embedding():
    for m in (5, 7, 12):
        for j in range(m):
            z = complex(CycNum.root_of_unity(m, j))
            assert abs(z - cmath.exp(2j * cmath.pi * j / m)) < 1e-12


def test_zeta_power_accumulator():
    # 1 + zeta_5 + ... + zeta_5^4 = 0, scaled arbitrarily
    total = CycNum.from_zeta_powers(5, [1, 1, 1, 1, 1], Fraction(3, 7))
    assert total.is_zero()


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def cyc_numbers(draw):
    m = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    j = draw(st.integers(min_value=0, max_value=m - 1))
    scale = draw(small_rationals)
    shift = draw(small_rationals)
    return CycNum.root_of_unity(m, j) * scale + shift


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), cyc_numbers())
def test_embedding_is_multiplicative(a, b):
    assert abs(complex(a * b) - complex(a) * complex(b)) < 1e-9
    prod = a * a.conjugate()
    assert abs(complex(prod).imag) < 1e-9


@settings(max_examples=60, deadline=None)
@given(cyc_numbers())
def test_exact_equality_matches_embedding(a):
    assert abs(complex(a - a)) == 0
    assert a == a
    if not a.is_zero():
        assert abs(complex(a)) > 1e-9 or a.is_zero()


# -- an independent reference implementation ---------------------------------
#
# RefCyc is the dense Fraction algorithm: coefficients are a tuple of
# Fraction, products are schoolbook convolutions, and reduction mod Phi_m
# applies dense rows x^(phi(m)+k) mod Phi_m obtained by long division.  It
# follows the same conductor rules as CycNum (sums and products live in the
# lcm conductor; a product with a zero factor, or a scaling by 0, is the
# conductor-1 zero), so the two must agree on the conductor as well as on
# the coefficients.

_REF_ROWS: dict[int, list[list[int]]] = {}


def _ref_rows(m):
    if m not in _REF_ROWS:
        phi = cyclotomic_polynomial(m)
        deg = len(phi) - 1
        rows = []
        for k in range(deg, max(m, 2 * deg - 1)):
            rem = [0] * k + [1]
            for top in range(k, deg - 1, -1):  # Phi_m is monic
                c = rem[top]
                if c:
                    for i, p in enumerate(phi):
                        rem[top - deg + i] -= c * p
            rows.append(rem[:deg])
        _REF_ROWS[m] = rows
    return _REF_ROWS[m]


def _ref_reduce(m, vec):
    deg = len(cyclotomic_polynomial(m)) - 1
    head = [Fraction(c) for c in vec[:deg]] + [Fraction(0)] * (deg - len(vec))
    for k in range(deg, len(vec)):
        row = _ref_rows(m)[k - deg]
        for i in range(deg):
            head[i] += vec[k] * row[i]
    return tuple(head)


def _schoolbook(a, b):
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return conv


class RefCyc:
    def __init__(self, m, coeffs):
        self.m = m
        self.coeffs = coeffs

    @classmethod
    def from_powers(cls, m, powers):
        return cls(m, _ref_reduce(m, powers))

    def is_zero(self):
        return not any(self.coeffs)

    def lift(self, target):
        step = target // self.m
        vec = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            vec[j * step] += c
        return RefCyc(target, _ref_reduce(target, vec))

    def pair(self, other):
        m = math.lcm(self.m, other.m)
        return self.lift(m), other.lift(m)

    def conjugate(self):
        vec = [Fraction(0)] * self.m
        for j, c in enumerate(self.coeffs):
            vec[-j % self.m] += c
        return RefCyc(self.m, _ref_reduce(self.m, vec))

    def add(self, other, sign=1):
        a, b = self.pair(other)
        return RefCyc(a.m, tuple(x + sign * y for x, y in zip(a.coeffs, b.coeffs)))

    def mul(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return RefCyc(1, (Fraction(0),))
            return RefCyc(self.m, tuple(c * other for c in self.coeffs))
        a, b = self.pair(other)
        if a.is_zero() or b.is_zero():
            return RefCyc(1, (Fraction(0),))
        return RefCyc(a.m, _ref_reduce(a.m, _schoolbook(a.coeffs, b.coeffs)))

    def eq(self, other):
        a, b = self.pair(other)
        return a.coeffs == b.coeffs


def _agrees(x: CycNum, ref: RefCyc) -> bool:
    """x is in lowest terms over a positive denominator and equals ref exactly."""
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    assert len(x.nums) == len(cyclotomic_polynomial(x.m)) - 1
    return x.m == ref.m and tuple(Fraction(c, x.den) for c in x.nums) == ref.coeffs


# Ambient conductors of the two operands: each operand's conductor divides
# one of these, so every lcm the arithmetic lifts to is at most 342.
# 180 = lcm(18, 20) and 342 = lcm(18, 19) are the character-table and
# Gauss-sum conductors at q = 19.
AMBIENT_CONDUCTORS = [12, 36, 180, 342]

coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-(2**70), max_value=2**70),
)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def oracle_pair(draw, ambient):
    """(CycNum, RefCyc) built from the same sparse zeta-power vector, with a
    conductor that divides ambient."""
    m = draw(st.sampled_from(_divisors(ambient)))
    powers = [0] * m
    for j, c in draw(st.lists(st.tuples(st.integers(0, m - 1), coefficients), max_size=min(m, 16))):
        powers[j] += c
    den = draw(st.integers(min_value=1, max_value=12))
    x = CycNum.from_zeta_powers(m, powers, Fraction(1, den))
    ref = RefCyc.from_powers(m, [Fraction(c, den) for c in powers])
    return x, ref


@st.composite
def oracle_operands(draw, ambients=AMBIENT_CONDUCTORS):
    ambient = draw(st.sampled_from(ambients))
    return ambient, draw(oracle_pair(ambient)), draw(oracle_pair(ambient))


def test_x_to_the_m_minus_1_is_the_product_of_the_phi_d():
    for m in sorted(set(_divisors(180) + _divisors(342))):
        prod = [1]
        for d in _divisors(m):
            prod = _schoolbook(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (m - 1) + [1]


@settings(max_examples=150, deadline=None)
@given(oracle_operands())
def test_arithmetic_matches_the_fraction_oracle(operands):
    ambient, (a, ra), (b, rb) = operands
    assert _agrees(a, ra) and _agrees(b, rb)
    assert _agrees(a + b, ra.add(rb))
    assert _agrees(a - b, ra.add(rb, -1))
    assert _agrees(a * b, ra.mul(rb))
    assert _agrees(-a, ra.mul(-1))
    assert _agrees(a * Fraction(-3, 4), ra.mul(Fraction(-3, 4)))
    assert _agrees(a * 0, ra.mul(0))
    assert _agrees(a.conjugate(), ra.conjugate())
    assert _agrees(a.lift(ambient), ra.lift(ambient))
    assert (a == b) == ra.eq(rb)
    assert a == a.lift(ambient) and a - a == 0
    assert a.is_zero() == ra.is_zero()


@settings(max_examples=30, deadline=None)
@given(oracle_operands([180, 342]))
def test_dense_products_at_the_q19_conductors_match_the_fraction_oracle(operands):
    _, (a, ra), (b, rb) = operands
    a2, ra2 = a * a.conjugate() + b, ra.mul(ra.conjugate()).add(rb)  # a dense operand
    assert _agrees(a2, ra2)
    assert _agrees(a2 * b, ra2.mul(rb))
    assert _agrees(a2 * a2, ra2.mul(ra2))


PRODUCT_CASES = [
    ([3], [5]),
    ([-3], [5]),
    ([0], [0]),
    ([0, 0, 0], [1, -1]),
    ([2**70, -5], [0]),
    ([1, -2, 3, -4], [-5, 6, -7]),
    ([0, 0, 4], [-1] * 30),
    ([2**64, -(2**64) - 1, 3], [2**65 + 7, -1]),
    ([-(2**100), 0, 2**99], [2**64, 2**64, -(2**63)]),
]


@pytest.mark.parametrize("a, b", PRODUCT_CASES)
def test_convolution_matches_schoolbook(a, b):
    assert _convolve(a, b) == _schoolbook(a, b)


# conductors of degree 1, small ones, and those of the Gauss sums at q = 9, 19,
# 25 and 27 (lcm(p, q-1) = 24, 342, 120, 78)
ROW_CONDUCTORS = [1, 2, 3, 12, 24, 78, 120, 342]


@pytest.mark.parametrize("m", ROW_CONDUCTORS)
@pytest.mark.parametrize("scale, dtype", [(1, np.int64), (2**31 + 1, object)], ids=["int64", "object"])
def test_row_products_match_cycnum_products(m, scale, dtype):
    # int64 operands above 2^31 have products past the int64 bound: the
    # helper must switch to Python integers from the values, not the dtype
    rng = random.Random(m)
    deg = len(cyclotomic_polynomial(m)) - 1
    a = [[rng.randrange(-50, 51) * scale for _ in range(deg)] for _ in range(5)]
    b = [[rng.randrange(-50, 51) * scale for _ in range(deg)] for _ in range(5)]
    a[0] = [scale] + [0] * (deg - 1)  # a rational row
    got = row_products(m, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert got.dtype == dtype
    for ra, rb, rg in zip(a, b, got):
        assert CycNum(m, tuple(rg.tolist())) == CycNum(m, tuple(ra)) * CycNum(m, tuple(rb))


# conductors of degree 1, small ones, and the character tables' L = lcm(q-1, q+1)
# at q = 9, 13 and 31
ZETA_CONDUCTORS = [1, 2, 3, 12, 40, 84, 480]


@pytest.mark.parametrize("m", ZETA_CONDUCTORS)
@pytest.mark.parametrize("scale", [1, 2**57, 2**70], ids=["int64", "past-the-bound", "object-input"])
def test_reduce_zeta_counts_matches_from_zeta_powers(m, scale):
    # 40 * 2^57 fits int64 but, for m > 1, the reduced sums need not: the
    # helper must switch to Python integers from the values; 2^70 arrives
    # as an object array
    rng = random.Random(m)
    rows = [[rng.randrange(-40, 41) * scale for _ in range(m)] for _ in range(6)]
    rows[0] = [scale] * m  # the sum of all m-th roots of unity, times scale
    counts = np.array(rows, dtype=np.int64 if scale < 2**63 else object)
    got = reduce_zeta_counts(m, counts)
    assert got.dtype == (np.int64 if scale == 1 or (scale < 2**63 and m == 1) else object)
    for row, reduced in zip(rows, got):
        assert tuple(reduced.tolist()) == CycNum.from_zeta_powers(m, row).nums


def test_reduce_zeta_counts_rejects_the_wrong_width():
    with pytest.raises(ValueError):
        reduce_zeta_counts(12, np.zeros((2, 11), dtype=np.int64))
