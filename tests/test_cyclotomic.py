"""Tests for exact cyclotomic arithmetic."""

import cmath
import functools
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2q import cyclotomic
from psl2q.cyclotomic import (
    CycNum,
    _convolve,
    _product_rows,
    _reduction,
    conjugate_rows,
    cyclotomic_polynomial,
    hermitian_form,
    reduce_zeta_counts,
    row_products,
    zeta_terms,
)
from psl2q.fields import factor_prime_power


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


def test_rational_accepts_only_exact_rationals():
    assert CycNum.rational(np.int64(3)) == 3 and type(CycNum.rational(np.int64(3)).nums[0]) is int
    assert CycNum.rational(Fraction(-1, 4)).as_fraction() == Fraction(-1, 4)
    for value in (0.1, 2.0, "1/3", complex(1, 0)):
        with pytest.raises(TypeError):
            CycNum.rational(value)
        with pytest.raises(TypeError):
            CycNum.root_of_unity(4, 1) + value


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
        terms = [(i, p) for i, p in enumerate(phi) if p]
        rows = []
        for k in range(deg, max(m, 2 * deg - 1)):
            rem = [0] * k + [1]
            for top in range(k, deg - 1, -1):  # Phi_m is monic
                c = rem[top]
                if c:
                    for i, p in terms:
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


@settings(max_examples=60, deadline=None)
@given(oracle_operands([5, 9, 25]))
def test_folded_products_at_odd_conductors_match_the_fraction_oracle(operands):
    # 2 deg - 1 > m: the convolution of two reduced values passes x^(m-1)
    _, (a, ra), (b, rb) = operands
    a2, ra2 = a * a.conjugate() + b, ra.mul(ra.conjugate()).add(rb)  # a dense operand
    assert _agrees(a2 * b, ra2.mul(rb))
    assert _agrees(a2 * a2, ra2.mul(ra2))


# -- the reduction record -------------------------------------------------------


def _dense_rows(record):
    """The record's sparse rows, scattered back into dense lists."""
    out = []
    for row in record.rows:
        dense = [0] * record.deg
        for i, c in row:
            dense[i] = c
        out.append(dense)
    return out


def test_reduction_rows_match_the_long_division_oracle():
    for m in range(1, 401):
        record = _reduction(m)
        assert record.deg == len(cyclotomic_polynomial(m)) - 1
        assert len(record.rows) == m - record.deg
        assert _dense_rows(record) == _ref_rows(m)[: m - record.deg], m
        assert all(c and type(i) is int and type(c) is int for row in record.rows for i, c in row)


def _column_bound(rows):
    return max((sum(abs(c) for c in column) for column in zip(*rows)), default=0)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 12, 25, 105, 342, 385, 930, 1860])
def test_product_rows_and_bounds_match_a_brute_recomputation(m):
    # 105 and 385 are the least conductors whose Phi_m has a coefficient -2;
    # 5, 9 and 25 are odd, so a product's convolution folds by x^m = 1 and
    # reaches only m - deg < deg - 1 rows
    record = _reduction(m)
    deg, rows = record.deg, _dense_rows(record)
    dense, col = _product_rows(m)
    assert _reduction(m) is record and _product_rows(m)[0] is dense
    reached = min(2 * deg - 1, m) - deg
    assert dense.dtype == np.float64 and dense.shape == (reached, deg) and dense.tolist() == rows[:reached]
    assert col == _column_bound(rows[:reached])
    assert record.count_col == _column_bound(rows)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_reduction_records_do_not_depend_on_the_block_size(monkeypatch, block):
    # blocks of one row, blocks that end mid-record, and primes, whose
    # record has fewer rows than deg - 1
    monkeypatch.setattr(cyclotomic, "ROW_BLOCK", block)
    for m in (1, 2, 3, 12, 13, 97, 105, 210):
        assert _reduction.__wrapped__(m) == _reduction(m), m


def reduction_digest(record):
    """The sparse rows, the first deg - 1 of them as a dense int64 matrix, its
    column bound and the record's: every pinned conductor is even, so the
    record has those rows."""
    dense = np.array(_dense_rows(record)[: record.deg - 1], dtype=np.int64).reshape(record.deg - 1, record.deg)
    h = hashlib.sha256()
    h.update(repr([[(int(i), int(c)) for i, c in row] for row in record.rows]).encode())
    h.update(repr((dense.shape, str(dense.dtype))).encode())
    h.update(np.ascontiguousarray(dense).tobytes())
    h.update(repr((_column_bound(dense.tolist()), int(record.count_col))).encode())
    return h.hexdigest()


# SHA-256 of the sparse rows, the dense int64 prefix and the two column bounds
# of every conductor q - 1, q + 1, lcm(q - 1, q + 1) and lcm(p, q - 1) of the
# odd prime powers q <= 64, recorded from the pure-Python row recurrence
REDUCTION_DIGESTS = {
    2: "ad84df82266a29929c19a0331b709d215d62a91143722ebd2de9524ae3de91aa",
    4: "154a7e209c4cb1991bcdd4a59d3c05aae55da025e6e82fa953d3fe4d22bd5233",
    6: "433939253cbd9ebd295983ed1b7277dc217072edbd9cb26e72b28a3e3d0830af",
    8: "34ed5263cf44647f4756c2d42e4b80eef6234be671e7c05ae8bafac669b0aaf8",
    10: "808993a620699476aabe2e36a9d16177fae06580009d52892d3cec905b172ff9",
    12: "3d3786167c947182159e59753061eca91c55be1fccee8bcbc4b12502a41f931d",
    14: "4a1b0025e6cf2043e244ee890c6f0a860cc0ff14edb38fc40818977d76367a48",
    16: "5b0770e03d07f9014d1caa14b0c09aeb3c7d22e8347d5185282020b3966a356e",
    18: "07836cc8f6afc7640fdf1cddbf7a5b05a2aebbddd24bd6b49dd140537f357be3",
    20: "a52ec48ba4dc6458ff9123a0f727288de038e1dfa68fa875675b410ed2490b09",
    22: "af33a6bd123dc33089e5187ca6fd880b10a4c3019abb2b018f4136df2e6d8672",
    24: "9f6f6bdd1f1ccd9ba514f11fb9bafd2687706a413870de6e5f812e592140c3d8",
    26: "b7196ae9abb26f969b1c4bf5180170e5b72fe8df013adff7f0ba43b80b3f09fc",
    28: "cd4038b2ff3c91c58375bdbd5f40e9ae99c5ed444474639a3c2c8bb6c7c0dc5e",
    30: "dc519e0de98cb3108382562204f67659dd2851fd314607095c77db843f9734fd",
    32: "a0464ac575bb390e1e2c792efbe31355cb3d24122af18ea97e058cda04fc026a",
    36: "c5800c53af90b31698e24127d1e4464511280da73c8c223412af447b53b47d7f",
    38: "a7f2091968c8dd8bda1cc1166d47c9537339e4870816c8f74026d053260a91e2",
    40: "4abb5706b9c64d517794f03030cb98e1da858c09424e3dd7d33c2bf2dd025f6a",
    42: "60e04cc31fe8a523a4b0917ac90870f9524c05e7dc2bebdd4e022b079c05573c",
    44: "ea7a68991a5e7b19113f4222a4df8c7ce85a9a9604725dee91fb1eafc3c20bda",
    46: "557d24fde9e865ebfc78249026a835ea7027cc239e9fba5fc09ace335c24543d",
    48: "545fc88ce3612024a6238c8f3051f65d6f646da19db396c8a6d4855f75a4a30d",
    50: "687550352e46ae246881df899c1e07611daa25f934a8b39faab2c7350ed6afd6",
    52: "83aa1cf4a2044c8e9f35f64b1f9107c8387eabed0782113a32012da56334eded",
    54: "cd5ec824d3c0def096a726dd58ba14468548fa6559ae3a07b4c757db013efa3f",
    58: "909188cdb39ab79baf6c09b234c2f645cf7736b798aec9e77e10e979a8a1e320",
    60: "b7738e68d0e4a6361949e6f0eee1a817db99a28002d8bfe8ceeb4575a398686c",
    62: "793acd823f858ce30cb5a03cdbf7d41b87fe82d8c451d4aaf6ae5d1c2a08d8f9",
    78: "3cc079ac2e5f796efd21c97c42479390832db9274faeba3938d6d05471a0db8a",
    84: "75a90a999c461610dc2030694c46d0b51d9a5e00f9b8bbb6b90947626d8ee5e0",
    110: "de0419c15fadf762a068e86217119852f5038bcbc81a6df5b3ae9056df3b8153",
    120: "51015384bd04b356d1e6128bc6e3a3bd0c30fad64e9ef27f1eeda485e7e9f3d5",
    144: "63408d8f9660cad21db5dda3205c15b5451482ce67948b737c54ae0504638101",
    156: "a335e9bd96398d879d9d4548cf39b89290a98c9714a47a8afa8e986c11bf61d6",
    180: "7a49f53f14f9fb2589bd3f759c18b4fe2e1e2a1558df55a726172ddfb88590fe",
    264: "b582de8feb2201464f7bcd02e3f023f46267405dc8f43ec719b781b536f4ad75",
    272: "408fd65b02119e82b8ea277eb3936954040025b81afd48765f823d850cb53806",
    312: "dd829850672abc8ea18f88bf6538dedac444e94a5e26ab7c51f57d098ecffd29",
    336: "3f70b1b9f29cfbf708ec7b6c27070a3fe9ac86cdc18e7d9cf52469639b2de1b7",
    342: "b1511f44ce3368e9df5b611ebff63b73ee81d6368b3a9545debf1f638e49c27c",
    364: "c06c42af7310ac4e7737f40a898ce0b26545684651524a7004d0cd397952bd0e",
    420: "0256bbd032d4d662e53e4aeee10f842959dcec866d11de46cf334d4d482158de",
    480: "1b87a70c6f8539d318c5ed0b6cc7905617df0461e48b11291aa42e23be6bf960",
    506: "470b727a5d2c2ef38714bb6d006c2669a9e13c9afac2d2e8e832f1989b2ec3d9",
    684: "7ac94270b8446d4943dd67b2b86479396ad80543a37d0998021dd66eaf7494bd",
    812: "4e5c5b8d6fe0155b37f94b4bdd5ff167cd0d233d992e2a2914bba9073ec7e729",
    840: "ba4e32bdb19b2f43fe7396b4baaa14cf80e7e4152bd62ca307dfc8dfef75086b",
    924: "f68109f55229e902180d476104ffe79e8584c5405553adb1b17a7c35f5fac0c1",
    930: "9a673b1ffa83597119a765359303d41809dbfd78162c2324cf28fc9974d3a5bd",
    1104: "57305e1d1169cfbb2db030d2d84df013fb7c7a3aba8fda406ccaddeea8d335dd",
    1200: "d0fbf08bc71965c35403718902ed64638835d72af4a22bc8f87f77fb11672f49",
    1332: "4320b2cf05cf5ebe6e2c549a7404e83bb0df4a72c7463d1545a26f628d6d03e6",
    1404: "75c495f3dcf03d3c7317296c96ca4cfdc41c882a7da86b474ccbd252737f8fa8",
    1640: "ed21f3db2001274b383c395f519229e7374d7eaac58355ddd92c77dee8a75a81",
    1740: "0ab1528542f4cb3018926a32b79463e2d8ec16adae05400acce01623e313899c",
    1806: "22310042252df2c93d0c344e37e579c1e42ce69e7bdebfdca8d5ccbbaf0507b8",
    1860: "f94f5ddc8e8d9f5b3860bc2df98d03663a623939790f3234feda056be8bd4917",
    2162: "0bd7e8a857a0e1a4277e89a6bd1e455569e9c648555a0a9bf70a46c07a8d68c0",
    2756: "9a19f54ac29f20b41cfccb0f5e3cf3f8c2fa3db74fba57303b470dd4fc387768",
    3422: "8849d7ad1748cfa72047e656373443f47c6ccc4d1b96f9dd23dbf8e12918c07d",
    3660: "51c78893e06e1567d894c22f1d6b880f0ec298b3478e4d8931d2deebfecde32c",
}


def test_every_reduction_record_matches_its_recorded_digest():
    conductors = set()
    for q in range(3, 65, 2):
        if factor_prime_power(q):
            p = factor_prime_power(q)[0]
            conductors |= {q - 1, q + 1, math.lcm(q - 1, q + 1), math.lcm(p, q - 1)}
    assert conductors == set(REDUCTION_DIGESTS)
    for m in sorted(conductors):
        assert reduction_digest(_reduction(m)) == REDUCTION_DIGESTS[m], m


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


# conductors of degree 1, small ones, odd ones whose products fold by
# x^m = 1 (5, 9, 25), and those of the Gauss sums at q = 9, 17, 19, 25, 27
# and 31 (lcm(p, q-1) = 24, 272, 342, 120, 78, 930)
ROW_CONDUCTORS = [1, 2, 3, 5, 9, 12, 24, 25, 78, 120, 272, 342, 930]

# regime -> (the largest |entry| of the operands given deg * (1 + col), the
# range [low, high) of the exactness bound, the result's dtype): the float64
# path well inside and just under its 2^53 bound, the int64 path past 2^53,
# and Python integers past 2^63 (entries above 2^31 whose products pass the
# int64 bound, so the dtype must follow the values, not the input dtype)
ROW_REGIMES = {
    "int64": (lambda scale: 50, 0, 2**53, np.int64),
    "under-2^53": (lambda scale: math.isqrt((2**53 - 1) // scale), 2**52, 2**53, np.int64),
    "past-2^53": (lambda scale: math.isqrt(2**62 // scale), 2**53, 2**63, np.int64),
    "object": (lambda scale: 50 * (2**31 + 1), 2**63, math.inf, object),
}


@functools.cache
def _bound_scale(m):
    """deg * (1 + col), col the largest column sum of |x^(deg+k) mod Phi_m|
    over the k < min(deg - 1, m - deg) that a folded convolution reaches,
    from `CycNum.root_of_unity`: the exactness bound of a row product is
    this times max|a| * max|b|."""
    deg = len(cyclotomic_polynomial(m)) - 1
    rows = [CycNum.root_of_unity(m, deg + k).nums for k in range(min(deg - 1, m - deg))]
    return deg * (1 + _column_bound(rows))


@pytest.mark.parametrize("m", ROW_CONDUCTORS)
@pytest.mark.parametrize("regime", list(ROW_REGIMES))
def test_row_products_match_cycnum_products(m, regime):
    top_for, low, high, dtype = ROW_REGIMES[regime]
    scale = _bound_scale(m)
    top = top_for(scale)
    assert low <= scale * top * top < high
    rng = random.Random(m)
    deg = len(cyclotomic_polynomial(m)) - 1
    a = [[rng.randrange(-top, top + 1) for _ in range(deg)] for _ in range(5)]
    b = [[rng.randrange(-top, top + 1) for _ in range(deg)] for _ in range(5)]
    a[0] = [top] + [0] * (deg - 1)  # a rational row
    b[1][0] = -top  # both operands reach the bound's max|entry|
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
    # the even powers reach no row, so their reduction rows are skipped
    sparse = counts.copy()
    sparse[:, ::2] = 0
    for row, reduced in zip(sparse.tolist(), reduce_zeta_counts(m, sparse)):
        assert tuple(reduced.tolist()) == CycNum.from_zeta_powers(m, row).nums


@pytest.mark.parametrize("m", ZETA_CONDUCTORS + [3660])
def test_conjugate_rows_match_cycnum_conjugates(m):
    # 3660 = lcm(61, 60) is the conductor of the Gauss sums at q = 61
    rng = random.Random(m)
    deg = len(cyclotomic_polynomial(m)) - 1
    rows = np.array([[rng.randrange(-40, 41) for _ in range(deg)] for _ in range(5)], dtype=np.int64)
    got = conjugate_rows(m, rows)
    for row, conjugate in zip(rows.tolist(), got.tolist()):
        assert tuple(conjugate) == CycNum(m, tuple(row)).conjugate().nums


def test_reduce_zeta_counts_rejects_the_wrong_width():
    with pytest.raises(ValueError):
        reduce_zeta_counts(12, np.zeros((2, 11), dtype=np.int64))


# -- the Hermitian form kernel ---------------------------------------------------


def _random_matrix(rng, m, rows, cols, dens=(1,)):
    """A matrix over Q(zeta_m), some entries zero, each a sum of a few
    roots of unity of conductors dividing m over a denominator from dens."""
    conductors = [d for d in range(1, m + 1) if m % d == 0]

    def value():
        terms = []
        for _ in range(rng.randrange(3)):
            c = rng.choice(conductors)
            terms.append(CycNum.root_of_unity(c, rng.randrange(c)) * Fraction(rng.randrange(-3, 4), rng.choice(dens)))
        return sum(terms, CycNum.zero())

    return [[value() for _ in range(cols)] for _ in range(rows)]


def _form_oracle(X, Y, weight, a, b):
    return sum((X[a][s] * Y[b][s].conjugate() * w for s, w in enumerate(weight)), CycNum.zero())


@pytest.mark.parametrize(
    "m, weight_scale", [(12, 1), (40, 1), (12, 2**45), (12, 2**58)], ids=["m12", "m40", "int64", "object"]
)
def test_hermitian_form_on_a_non_real_matrix(m, weight_scale):
    # the character table is real, so a kernel that forgets to conjugate
    # passes both orthogonality checks; a non-real matrix tells them apart.
    # The scaled weights put the kernel's bound past 2^53 (int64) and past
    # 2^63 (Python integers)
    rng = random.Random(m * 7 + 1)
    n, cols = 4, 5
    X = [[v.lift(m) for v in row] for row in _random_matrix(rng, m, n, cols)]
    weight = [rng.randrange(1, 9) * weight_scale for _ in range(cols)]
    terms = [(a, s, j, x) for a, line in enumerate(X) for s, v in enumerate(line) for j, x in enumerate(v.nums) if x]
    terms = tuple(np.array(t, dtype=np.int64) for t in zip(*terms))
    got = hermitian_form(m, np.array(weight, dtype=np.int64), terms, n, terms, n)
    assert got.dtype == (object if weight_scale > 2**45 else np.int64)
    non_real = 0
    for a in range(n):
        for b in range(n):
            expect = _form_oracle(X, X, weight, a, b)
            non_real += not expect.is_real()
            assert got[a, b].tolist() == list(expect.lift(m).nums)
    assert non_real


@pytest.mark.parametrize("m", [12, 40, 84])
def test_hermitian_form_of_two_matrices(m):
    # X != Y with different row counts, denominators, values of smaller
    # conductors, a zero column, a zero row of Y and weights of both signs,
    # both sides through zeta_terms
    rng = random.Random(m)
    cols = 6
    X = _random_matrix(rng, m, 3, cols, dens=(1, 2, 3))
    Y = _random_matrix(rng, m, 5, cols, dens=(1, 5))
    Y[4] = [CycNum.zero()] * cols
    for row in (*X, *Y):
        row[2] = CycNum.zero()
    weight = [rng.choice([-2, -1, 1, 3, 7]) for _ in range(cols)]
    (x, x_dens), (y, y_dens) = zeta_terms(X, m), zeta_terms(Y, m)
    got = hermitian_form(m, np.array(weight, dtype=np.int64), x, len(X), y, len(Y))
    assert got.shape == (len(X), len(Y), len(cyclotomic_polynomial(m)) - 1)
    non_real = 0
    for a in range(len(X)):
        for b in range(len(Y)):
            expect = _form_oracle(X, Y, weight, a, b)
            non_real += not expect.is_real()
            assert CycNum(m, tuple(got[a, b].tolist())) * Fraction(1, x_dens[a] * y_dens[b]) == expect, (a, b)
    assert non_real and not got[:, 4].any()


def test_zeta_terms_rebuild_every_value_over_its_row_denominator():
    rng = random.Random(5)
    m = 60
    rows = _random_matrix(rng, m, 4, 7, dens=(1, 2, 7))
    (row, column, exponent, coef), dens = zeta_terms(rows, m)
    for r, line in enumerate(rows):
        for c, v in enumerate(line):
            at = (row == r) & (column == c)
            counts = np.zeros(m, dtype=np.int64)
            np.add.at(counts, exponent[at], coef[at])
            assert CycNum.from_zeta_powers(m, counts.tolist(), Fraction(1, dens[r])) == v
    with pytest.raises(ValueError):
        zeta_terms([[CycNum.root_of_unity(7, 1)]], m)
