"""Tests for Legendre and Soto-Andrade sums and hypergeometric identities."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from psl2q import cyclotomic
from psl2q.charsums import CharacterSums
from psl2q.chartable import build_table
from psl2q.cyclotomic import CycNum, _canonical, cyclotomic_polynomial
from psl2q.errors import (
    ArityMismatchError,
    DomainMismatchError,
    NotIntegralParametersError,
    TrivialCharacterError,
)
from psl2q.fields import MultCharB, field_ctx_for_q
from psl2q.groups import PGL2


def b_char(ctx, exponent):
    """The character of GF(q^2)*/GF(q)* with the given exponent mod q+1."""
    return MultCharB(exponent % (ctx.q + 1), ctx.q + 1)


@pytest.fixture(scope="module")
def sums():
    return {q: CharacterSums(field_ctx_for_q(q)) for q in (5, 7, 9, 11, 13, 25, 27)}


def test_measure(sums):
    for q in (5, 7, 9):
        S = sums[q]
        ctx = S.ctx
        assert S.measure(1) == q + 1
        assert S.measure(ctx.neg(1)) == q + 1
        assert sum(S.measure(x) for x in range(q)) == 3 * q
        with pytest.raises(DomainMismatchError):
            S.l2_inner([CycNum.zero()] * (q - 1), [CycNum.zero()] * q)
        # field arguments outside 0..q-1: no wrap-around through negative
        # indexing, no bare IndexError, and nothing cached under the bad key
        gamma, beta = ctx.fq_char(1), b_char(ctx, 1)
        phi, eps = ctx.quadratic_char(), ctx.trivial_char()
        for bad in (-1, q, q + 1):
            with pytest.raises(DomainMismatchError):
                S.legendre_sum(gamma, bad)
            with pytest.raises(DomainMismatchError):
                S.soto_andrade_sum(beta, bad)
            with pytest.raises(DomainMismatchError):
                S.greene_2f1(phi, phi, eps, bad)
            with pytest.raises(DomainMismatchError):
                S.greene_nfn([gamma, gamma.conj(), phi], [eps, eps], bad)
            assert (gamma.exponent, bad) not in S._legendre_cache
            assert (beta.exponent, bad) not in S._soto_cache


def _entry_points(S, ctx):
    """Each public entry point that takes a character, called with one."""
    phi, eps = ctx.quadratic_char(), ctx.trivial_char()
    return {
        "legendre_sum": lambda: S.legendre_sum(ctx.fq_char(1), 2),
        "soto_andrade_sum": lambda: S.soto_andrade_sum(b_char(ctx, 1), 2),
        "greene_2f1": lambda: S.greene_2f1(ctx.fq_char(1), phi, eps, 2),
        "greene_nfn": lambda: S.greene_nfn([ctx.fq_char(1), phi, phi], [eps, eps], 2),
        "greene_table": lambda: S.greene_table([ctx.fq_char(1), phi, phi], [eps, eps])[0].tolist(),
    }


@pytest.mark.parametrize("entry", ["legendre_sum", "soto_andrade_sum", "greene_2f1", "greene_nfn", "greene_table"])
def test_characters_of_another_field_are_rejected(entry):
    # GF(5) and GF(7) characters share exponents, so each cache is first filled
    # under the same exponents by a GF(5) call; the GF(7) call must still raise
    S = CharacterSums(field_ctx_for_q(5))
    own = _entry_points(S, S.ctx)[entry]()
    tables = dict(S._greene_tables)
    with pytest.raises(DomainMismatchError, match="modulus"):
        _entry_points(S, field_ctx_for_q(7))[entry]()
    assert _entry_points(S, S.ctx)[entry]() == own
    assert S._greene_tables.keys() == tables.keys()


def _legendre_oracle(S, gamma, a):
    """P_gamma(a) summed one x at a time with scalar field operations."""
    ctx, q = S.ctx, S.q
    two_a = ctx.add(a, a)
    vec = [0] * (q - 1)
    for x in range(1, q):
        s = ctx.phi_int(ctx.add(ctx.sub(ctx.mul(x, x), ctx.mul(two_a, x)), 1))
        vec[(gamma.exponent * ctx.log[x]) % (q - 1)] += s
    return CycNum.from_zeta_powers(q - 1, vec, Fraction(1, q))


def _soto_andrade_oracle(S, beta, a):
    """R_beta(a) summed one coset representative gen2^j at a time."""
    ctx, q = S.ctx, S.q
    factor = ctx.mul(ctx.embed_int(2), ctx.add(a, 1))
    vec = [0] * (q + 1)
    for j in range(q + 1):
        r = ctx.exp2[j]
        tr = ctx.q2_trace(r)
        s = ctx.phi_int(ctx.sub(ctx.mul(tr, tr), ctx.mul(factor, ctx.q2_norm(r))))
        vec[(beta.exponent * j) % (q + 1)] += s
    return CycNum.from_zeta_powers(q + 1, vec, Fraction(1, q))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27, 31])
def test_sum_tables_match_the_scalar_loops(sums, q):
    S = sums[q] if q in sums else CharacterSums(field_ctx_for_q(q))
    ctx = S.ctx
    assert S.legendre_table().shape[:2] == (q - 1, q)
    assert S.soto_andrade_table().shape[:2] == (q + 1, q)
    for a in range(q):
        for k in range(q - 1):
            got, expected = S.legendre_sum(ctx.fq_char(k), a), _legendre_oracle(S, ctx.fq_char(k), a)
            assert (got.m, got.nums, got.den) == (expected.m, expected.nums, expected.den), (k, a)
        for k in range(q + 1):
            got, expected = S.soto_andrade_sum(b_char(ctx, k), a), _soto_andrade_oracle(S, b_char(ctx, k), a)
            assert (got.m, got.nums, got.den) == (expected.m, expected.nums, expected.den), (k, a)
    assert S.legendre_table() is S.legendre_table() and S.soto_andrade_table() is S.soto_andrade_table()


def test_legendre_phi_at_zero_q5(sums):
    # oracle: direct summation over GF(5)* gives contributions -1, 0, 0, -1
    assert sums[5].legendre_phi(0) == Fraction(-2, 5)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_trivial_legendre_closed_form(sums, q):
    S = sums[q]
    eps = S.ctx.trivial_char()
    minus_one = S.ctx.neg(1)
    for a in range(q):
        expected = Fraction(q - 2, q) if a in (1, minus_one) else Fraction(-2, q)
        assert S.legendre_sum(eps, a) == expected


@pytest.mark.parametrize("q", [5, 7, 9])
def test_boundary_values(sums, q):
    S = sums[q]
    ctx = S.ctx
    minus_one = ctx.neg(1)
    for gamma in ctx.gamma_set():
        assert S.legendre_sum(gamma, 1) == Fraction(-1, q)
        gamma_m1 = -1 if gamma.exponent % 2 else 1
        assert S.legendre_sum(gamma, minus_one) == Fraction(-gamma_m1, q)
    for beta in ctx.beta_set():
        assert S.soto_andrade_sum(beta, 1) == Fraction(1, q)
        assert S.soto_andrade_sum(beta, minus_one) == Fraction(-beta.sign_at_i(), q)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_real_and_inversion_symmetric(sums, q):
    S = sums[q]
    ctx = S.ctx
    for gamma in ctx.gamma_set():
        for a in range(q):
            v = S.legendre_sum(gamma, a)
            assert v.is_real()
            assert S.legendre_sum(gamma.conj(), a) == v
    for beta in ctx.beta_set():
        for a in range(q):
            v = S.soto_andrade_sum(beta, a)
            assert v.is_real()
            assert S.soto_andrade_sum(beta.conj(), a) == v


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_soto_andrade_against_double_loop_oracle(sums, q):
    # independent oracle: direct summation over all q^2 - 1 units of
    # GF(q^2), using r^q by repeated multiplication and generic
    # multiplication instead of the trace and norm tables and the coset
    # representatives
    S = sums[q]
    ctx = S.ctx
    frob = {}
    for r in range(1, q * q):
        frob[r] = 1
        for _ in range(q):
            frob[r] = ctx.q2_mul(frob[r], r)
    for beta in ctx.beta_set():
        for a in range(q):
            total = CycNum.zero()
            factor = ctx.mul(ctx.embed_int(2), ctx.add(a, 1))
            for r in range(1, q * q):
                tr = ctx.q2_add(r, frob[r])
                nm = ctx.q2_mul(r, frob[r])
                arg = ctx.sub(ctx.mul(tr, tr), ctx.mul(factor, nm))
                total = total + ctx.char_eval(beta, r) * ctx.phi_int(arg)
            assert S.soto_andrade_sum(beta, a) == total * Fraction(1, q * (q - 1))


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_orthogonal_basis(sums, q):
    S = sums[q]
    basis = S.orthogonal_basis()
    assert len(basis) == q  # 2 + (q-3)/2 + (q-1)/2
    expected_norms = {
        "P_eps_shifted": Fraction(q * q - 1, q),
        "P_phi": Fraction(q * q - 1, q * q),
    }
    for name, vec, norm_sq in basis:
        expect = expected_norms.get(
            name, Fraction(q - 1, q) if name.startswith("P_gamma") else Fraction(q + 1, q)
        )
        assert norm_sq == expect
        assert S.l2_inner(vec, vec) == norm_sq
    for i, (_, v1, _) in enumerate(basis):
        for _, v2, _ in basis[i + 1 :]:
            assert S.l2_inner(v1, v2).is_zero()


def test_greene_2f1_zero_argument(sums):
    S = sums[5]
    ctx = S.ctx
    phi, eps = ctx.quadratic_char(), ctx.trivial_char()
    assert S.greene_2f1(phi, phi, eps, 0).is_zero()


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_2f1_reflection(sums, q):
    S = sums[q]
    ctx = S.ctx
    phi, eps = ctx.quadratic_char(), ctx.trivial_char()
    for x in range(1, q):
        assert S.greene_2f1(phi, phi, eps, x) == S.greene_2f1(
            phi, phi, eps, ctx.inv(x)
        ) * ctx.phi_int(x)


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_legendre_equals_2f1(sums, q):
    S = sums[q]
    ctx = S.ctx
    eps = ctx.trivial_char()
    half = ctx.inv(ctx.embed_int(2))
    minus_one = ctx.neg(1)
    for k in range(1, q - 1):
        gamma = ctx.fq_char(k)
        for a in range(q):
            if a in (1, minus_one):
                continue
            arg = ctx.mul(ctx.sub(1, a), half)
            assert S.legendre_sum(gamma, a) == S.greene_2f1(gamma, gamma.conj(), eps, arg)


def test_nfn_base_case_matches_2f1(sums):
    import random

    S = sums[7]
    ctx = S.ctx
    rng = random.Random(4)
    for _ in range(20):
        g0, g1, g2 = (ctx.fq_char(rng.randrange(6)) for _ in range(3))
        x = rng.randrange(7)
        assert S.greene_nfn([g0, g1], [g2], x) == S.greene_2f1(g0, g1, g2, x)


def _greene_nfn_reference(S, upper, lower):
    """Greene's (n+1)Fn at every x by the recursion over CycNum values:
    each (t, y) term is a full product with zeta_(q-1)^e."""
    ctx = S.ctx
    q = S.q
    table = [S.greene_2f1(upper[0], upper[1], lower[0], t) for t in range(q)]
    for level in range(2, len(upper)):
        ka, kb = upper[level].exponent, lower[level - 1].exponent
        sign = -1 if (ka + kb) * ((q - 1) // 2) % (q - 1) else 1
        new = []
        for t in range(q):
            acc = CycNum.zero()
            for y in range(1, q):
                one_minus_y = ctx.sub(1, y)
                if one_minus_y == 0:
                    continue
                e = (ka * ctx.log[y] + (kb - ka) * ctx.log[one_minus_y]) % (q - 1)
                acc = acc + table[ctx.mul(t, y)] * CycNum.root_of_unity(q - 1, e)
            new.append(acc * Fraction(sign, q))
        table = new
    return table


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27])
def test_nfn_against_cycnum_recursion(sums, q):
    import random

    S = sums[q]
    ctx = S.ctx
    rng = random.Random(q)
    phi, eps = ctx.quadratic_char(), ctx.trivial_char()
    cases = []
    for gamma in ctx.gamma_set():  # the 4F3 of the deviation bound
        cases.append(([gamma, gamma.conj(), phi, phi], [eps, eps, eps]))
    for depth in (3, 4):
        for _ in range(4):
            chars = [ctx.fq_char(rng.randrange(q - 1)) for _ in range(2 * depth - 1)]
            cases.append((chars[:depth], chars[depth:]))
    for upper, lower in cases:
        expected = _greene_nfn_reference(S, upper, lower)
        for x in range(q):
            assert S.greene_nfn(upper, lower, x) == expected[x], (upper, lower, x)


def _2f1_counts(ctx, k0, k1, k2, x):
    """Counts of each zeta_(q-1) power in the sum over y of
    g1(y) (g2/g1)(1-y) g0^(-1)(1-xy), one field lookup per y; all zero at
    x = 0, where eps(x) vanishes."""
    q = ctx.q
    vec = [0] * (q - 1)
    if x == 0:
        return vec
    for y in range(q):
        one_minus_y = ctx.sub(1, y)
        one_minus_xy = ctx.sub(1, ctx.mul(x, y))
        if y == 0 or one_minus_y == 0 or one_minus_xy == 0:
            continue
        e = (k1 * ctx.log[y] + (k2 - k1) * ctx.log[one_minus_y] - k0 * ctx.log[one_minus_xy]) % (q - 1)
        vec[e] += 1
    return vec


def _2f1_triples(q):
    n = q - 1
    if q in (5, 7):
        return [(k0, k1, k2) for k0 in range(n) for k1 in range(n) for k2 in range(n)]
    rng = random.Random(q)
    return [tuple(rng.randrange(n) for _ in range(3)) for _ in range(12)]


@pytest.mark.parametrize("q", [5, 7, 9, 25, 27])
def test_2f1_against_the_pointwise_loop(sums, q):
    # (g1 g2)(-1) = (-1)^(k1 + k2), since g(-1) = zeta_(q-1)^(k (q-1)/2)
    S = sums[q]
    ctx = S.ctx
    for k0, k1, k2 in _2f1_triples(q):
        g0, g1, g2 = ctx.fq_char(k0), ctx.fq_char(k1), ctx.fq_char(k2)
        scale = Fraction((-1) ** (k1 + k2), q)
        for x in range(q):
            want = CycNum.from_zeta_powers(q - 1, _2f1_counts(ctx, k0, k1, k2, x), scale)
            got = S.greene_2f1(g0, g1, g2, x)
            assert (got.m, got.nums, got.den) == (want.m, want.nums, want.den), (k0, k1, k2, x)


def test_nfn_arity_checks(sums):
    S = sums[5]
    ctx = S.ctx
    eps = ctx.trivial_char()
    with pytest.raises(ArityMismatchError):
        S.greene_nfn([eps], [], 1)
    with pytest.raises(ArityMismatchError):
        S.greene_nfn([eps] * 3, [eps], 1)
    with pytest.raises(ArityMismatchError):
        S.greene_nfn([eps] * 5, [eps] * 4, 1)


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_4f3_product_identity(sums, q):
    S = sums[q]
    ctx = S.ctx
    phi, eps = ctx.quadratic_char(), ctx.trivial_char()
    for k in range(1, q - 1):
        gamma = ctx.fq_char(k)
        lhs = S.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1) * q
        rhs = CycNum.zero()
        for z in range(1, q):
            rhs = rhs + (
                S.greene_2f1(phi, phi, eps, z)
                * S.greene_2f1(gamma, gamma.conj(), eps, z)
                * ctx.phi_int(z)
            )
        assert lhs == rhs


def test_deviation_bound_q13():
    S = CharacterSums(field_ctx_for_q(13))
    dev, bound, ok = S.f43_deviation_bound(4)
    assert bound == 4 * 13**3
    assert ok and dev <= bound
    # |z| <= 2 * 13^(3/2) = 93.77...
    assert float(dev) ** 0.5 <= 2 * 13**1.5


@pytest.mark.parametrize(
    "q,ns", [(5, (2, 4)), (7, (2, 3, 6)), (9, (2, 4)), (13, (2, 3, 4, 6))]
)
def test_deviation_bound_all_orders(sums, q, ns):
    S = sums[q]
    for n in ns:
        dev, bound, ok = S.f43_deviation_bound(n)
        assert ok, (q, n, dev)
    with pytest.raises(ValueError):
        S.f43_deviation_bound(5 if (q - 1) % 5 else 11)


@pytest.mark.parametrize("n,q", [(2, 5), (3, 7), (4, 13)])
def test_katz_conversion(n, q):
    S = CharacterSums(field_ctx_for_q(q))
    ctx = S.ctx
    phi, eps = ctx.quadratic_char(), ctx.trivial_char()
    gamma = ctx.fq_char((q - 1) // n)
    assert gamma.order() == n
    f43 = S.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1)
    alpha = [Fraction(1, n), Fraction(n - 1, n), Fraction(1, 2), Fraction(1, 2)]
    beta = [Fraction(1)] * 4
    assert f43 * (-(q**3)) == S.katz_h(alpha, beta, 1)


def test_katz_generator_independence():
    import math

    q = 13
    S = CharacterSums(field_ctx_for_q(q))
    alpha = [Fraction(1, 4), Fraction(3, 4), Fraction(1, 2), Fraction(1, 2)]
    beta = [Fraction(1)] * 4
    base = S.katz_h(alpha, beta, 1)
    for s in range(2, q - 1):
        if math.gcd(s, q - 1) == 1:
            assert S.katz_h(alpha, beta, 1, omega_exponent=s) == base


def test_katz_parameter_validation():
    S = CharacterSums(field_ctx_for_q(5))
    with pytest.raises(NotIntegralParametersError):
        S.katz_h([Fraction(1, 3)] * 2, [Fraction(1)] * 2, 1)
    with pytest.raises(ArityMismatchError):
        S.katz_h([Fraction(1, 2)], [Fraction(1)] * 2, 1)
    with pytest.raises(ArityMismatchError):
        S.katz_h([], [], 1)


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_f_norm_and_expansion(sums, q):
    S = sums[q]
    f = S.f_vector()
    assert f[1].is_zero()  # phi(0) = 0
    expected = 1 - Fraction(1, q) - Fraction(2, q * q)
    assert S.f_norm_squared() == expected
    total = CycNum.zero()
    for _, sq in S.orthonormal_coefficient_squares():
        total = total + sq
    assert total == expected


def test_f_norm_q5_value(sums):
    assert sums[5].f_norm_squared() == Fraction(18, 25)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_f_coefficient_identity(sums, q):
    S = sums[q]
    ctx = S.ctx
    for k in range(1, q - 1):
        lhs, rhs = S.f_coefficient_identity(ctx.fq_char(k))
        assert lhs == rhs
    with pytest.raises(TrivialCharacterError):
        S.f_coefficient_identity(ctx.trivial_char())


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27])
def test_f_forms_match_l2_inner(sums, q):
    # every row of both tables, so every basis function but the shifted
    # trivial sum and the conjugate of each, against the general form; the
    # coefficient squares against that form on `orthogonal_basis`
    S = sums[q]
    f = S.f_vector()
    for table in (S.legendre_table(), S.soto_andrade_table()):
        m = len(table)
        forms = S.f_forms(table, range(m))
        for k in range(m):
            g = [_canonical(m, tuple(row.tolist()), q) for row in table[k]]
            assert _canonical(m, tuple(forms[k].tolist()), q * q) == S.l2_inner(f, g), (m, k)
    assert S.f_norm_squared() == S.l2_inner(f, f).as_fraction()
    expected = []
    for name, vec, norm in S.orthogonal_basis():
        c = S.l2_inner(f, vec)
        expected.append((name, c * c * (1 / norm)))
    assert S.orthonormal_coefficient_squares() == expected


@pytest.mark.parametrize("q", [5, 7, 9])
def test_trace_square_double_sum(sums, q):
    # sum over x != 0 of phi((x + 1/x)^2 - 4d) = -2 + q * P_phi(2d - 1)
    S = sums[q]
    ctx = S.ctx
    for d in range(2, q):
        four_d = ctx.mul(ctx.embed_int(4), d)
        total = 0
        for x in range(1, q):
            t = ctx.add(x, ctx.inv(x))
            total += ctx.phi_int(ctx.sub(ctx.mul(t, t), four_d))
        assert Fraction(total) == -2 + q * S.legendre_phi(ctx.sub(ctx.add(d, d), 1))


def _l2_inner_oracle(S, f1, f2):
    """The Hermitian form as a pointwise CycNum loop."""
    acc = CycNum.zero()
    for x in range(S.q):
        acc = acc + f1[x] * f2[x].conjugate() * S.measure(x)
    return acc


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_l2_inner_conjugates_its_second_argument(sums, q):
    # characters gamma, gamma' as functions on F_q are not real-valued:
    # <gamma, gamma'> = (q-1)[gamma = gamma'] + q(1 + (gamma/gamma')(-1))
    S = sums[q]
    ctx = S.ctx
    chars = [[ctx.char_eval(ctx.fq_char(k), x) for x in range(q)] for k in range(q - 1)]
    for k1 in range(q - 1):
        for k2 in range(q - 1):
            ratio_at_minus_one = ctx.char_eval(ctx.fq_char(k1 - k2), ctx.neg(1))
            expected = (q - 1 if k1 == k2 else 0) + q * (1 + ratio_at_minus_one)
            assert S.l2_inner(chars[k1], chars[k2]) == expected


def test_l2_inner_matches_the_pointwise_oracle():
    # mixed conductors, zeros, rationals and numerators past 2^63 (the Python
    # integer path); the value and its representation agree with the loop
    q = 7
    S = CharacterSums(field_ctx_for_q(q))
    rng = random.Random(q)

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return CycNum.zero()
        scale = Fraction(rng.randrange(-5, 6) * (2**70 if kind == 3 else 1), rng.randrange(1, 7))
        if kind == 1:
            return CycNum.rational(scale)
        m = rng.choice([3, 4, 6, 8, 12])
        return CycNum.root_of_unity(m, rng.randrange(m)) * scale + Fraction(1, rng.randrange(1, 4))

    for _ in range(40):
        f1 = [value() for _ in range(q)]
        f2 = [value() for _ in range(q)]
        got, want = S.l2_inner(f1, f2), _l2_inner_oracle(S, f1, f2)
        assert (got.m, got.nums, got.den) == (want.m, want.nums, want.den)


def _gram_entries(gram):
    """The value of every entry of `gram`'s (L, numerators, denominators)."""
    m, nums, dens = gram
    assert nums.shape == (*dens.shape, len(cyclotomic_polynomial(m)) - 1)
    return [
        [_canonical(m, tuple(int(c) for c in nums[i, j]), int(dens[i, j])) for j in range(dens.shape[1])]
        for i in range(dens.shape[0])
    ]


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27])
def test_gram_matches_pairwise_l2_inner_on_the_basis(sums, q):
    S = sums[q]
    functions = [vec for _, vec, _ in S.orthogonal_basis()]
    gram = _gram_entries(S.gram(functions))
    assert len(gram) == len(functions) == q
    for i, f1 in enumerate(functions):
        assert len(gram[i]) == q
        for j, f2 in enumerate(functions):
            assert gram[i][j] == S.l2_inner(f1, f2), (i, j)


def test_gram_matches_pairwise_l2_inner_and_the_oracle():
    # whole functions of zeros, zeros at some points, rationals, mixed
    # conductors and numerators past 2^63 (the Python integer path)
    q = 7
    S = CharacterSums(field_ctx_for_q(q))
    rng = random.Random(2 * q)

    def value(kind):
        if kind == 0:
            return CycNum.zero()
        scale = Fraction(rng.randrange(-5, 6) * (2**70 if kind == 3 else 1), rng.randrange(1, 7))
        if kind == 1:
            return CycNum.rational(scale)
        m = rng.choice([3, 4, 6, 8, 12])
        return CycNum.root_of_unity(m, rng.randrange(m)) * scale + Fraction(1, rng.randrange(1, 4))

    for kinds in ([0, 1, 2], [0, 1, 2, 3]):
        functions = [[CycNum.zero()] * q]
        for _ in range(8):
            functions.append([value(rng.choice(kinds)) for _ in range(q)])
        gram = _gram_entries(S.gram(functions))
        for i, f1 in enumerate(functions):
            for j, f2 in enumerate(functions):
                assert gram[i][j] == S.l2_inner(f1, f2), (kinds, i, j)
                assert gram[i][j] == _l2_inner_oracle(S, f1, f2), (kinds, i, j)
    with pytest.raises(DomainMismatchError):
        S.gram([[CycNum.zero()] * q, [CycNum.zero()] * (q + 1)])


def _block_caps(terms, n, m):
    """(rows per block, GRAM_BLOCK) pairs that give `hermitian_form` of an
    n-row X with itself blocks of one row, of two rows (the last one shorter
    when n is odd) and of all n rows: a row of X takes n * m counts, and its
    columns times every column of products."""
    row, _, exponent, _ = terms
    columns = Counter(r for r, _ in set(zip(row.tolist(), (exponent % m).tolist())))
    unit = max(n * m, max(columns.values()) * sum(columns.values()))
    return [(1, 1), (2, 2 * unit), (n, n * unit)]


def _same_in_every_block_size(monkeypatch, caps, n, build, want):
    """build() equals want, dtype included, under every cap, and each cap
    reduces the blocks of rows it names."""
    reduce, sizes = cyclotomic.reduce_zeta_counts, []

    def spy(m, counts):
        sizes.append(len(counts))
        return reduce(m, counts)

    monkeypatch.setattr(cyclotomic, "reduce_zeta_counts", spy)
    for rows, cap in caps:
        sizes.clear()
        monkeypatch.setattr(cyclotomic, "GRAM_BLOCK", cap)
        got = build()
        assert sizes == [min(rows, n - start) * n for start in range(0, n, rows)], rows
        assert got.dtype == want.dtype and (got == want).all(), rows
    monkeypatch.undo()


@pytest.mark.parametrize("q", [7, 13])
def test_gram_is_the_same_in_any_block_size(q, monkeypatch):
    # one row per block, blocks of two rows with a shorter last block, and
    # one block; on the basis, then on a function past 2^63 at x = 0 only,
    # whose row reduces in Python integers and the rows after it in int64;
    # then the character table's row and column Grams through the same kernel
    S = CharacterSums(field_ctx_for_q(q))
    rng = random.Random(q)
    big = [CycNum.root_of_unity(4, 1) * 2**70] + [CycNum.zero()] * (q - 1)
    small = [[CycNum.zero()] + [CycNum.root_of_unity(4, rng.randrange(4)) for _ in range(q - 1)] for _ in range(3)]
    for functions in ([vec for _, vec, _ in S.orthogonal_basis()], [big] + small):
        m, nums, dens = S.gram(functions)
        entries = _gram_entries((m, nums, dens))
        for i, f1 in enumerate(functions):
            for j, f2 in enumerate(functions):
                assert entries[i][j] == _l2_inner_oracle(S, f1, f2), (i, j)
        n = len(functions)
        caps = _block_caps(cyclotomic.zeta_terms(functions, m)[0], n, m)
        _same_in_every_block_size(monkeypatch, caps, n, lambda: S.gram(functions)[1], nums)
    assert nums.dtype == object and any(isinstance(c, int) and abs(c) >= 2**63 for c in nums.ravel())
    T = build_table(PGL2(S.ctx))
    n, m = len(T.classes), T.conductor
    row, cls, exponent, coef = T.zeta_terms()
    for build, terms in ((T.row_gram, (row, cls, exponent, coef)), (T.column_gram, (cls, row, exponent, coef))):
        _same_in_every_block_size(monkeypatch, _block_caps(terms, n, m), n, build, build())


@pytest.mark.parametrize("q", [7, 9])
def test_katz_rejects_lambda_outside_the_field(q):
    S = CharacterSums(field_ctx_for_q(q))
    for bad in (-1, q, q + 1):
        with pytest.raises(DomainMismatchError):
            S.katz_h([Fraction(1, 2)] * 2, [Fraction(1)] * 2, bad)


def _katz_oracle(S, alpha, beta, lam, omega_exponent):
    """H_q(alpha, beta; lam) as the sum over k of per-k CycNum Gauss-sum products."""
    ctx, q = S.ctx, S.q
    n = q - 1

    def g(j):
        return ctx.gauss_sum(ctx.fq_char(j * omega_exponent))

    def g_inv(j):
        return CycNum.rational(-1) if j % n == 0 else g(j).conjugate() * Fraction(1, q)

    a_exps = [int(a * n) for a in alpha]
    b_exps = [int(b * n) for b in beta]
    twist = lam if len(alpha) % 2 == 0 else ctx.neg(lam)
    total = CycNum.zero()
    for k in range(n):
        term = CycNum.rational(1)
        for ae in a_exps:
            term = term * g(k + ae) * g_inv(ae)
        for be in b_exps:
            term = term * g(-k - be) * g_inv(-be)
        total = total + term * CycNum.root_of_unity(n, omega_exponent * k * ctx.log[twist])
    return total * Fraction(1, 1 - q)


# (17, 4) runs at conductor 272, the one the sums benchmark runs at q = 17
KATZ_CASES = [(q, n) for q in (5, 7, 9, 11, 13, 25, 27) for n in (2, 3, 4, 6) if (q - 1) % n == 0] + [(17, 4)]


@pytest.mark.parametrize("q,n", KATZ_CASES, ids=[f"q{q}-n{n}" for q, n in KATZ_CASES])
def test_katz_matches_the_per_k_product_oracle(q, n):
    # prime powers 9, 25, 27 put the Gauss sums in conductor lcm(p, q-1)
    S = CharacterSums(field_ctx_for_q(q))
    second = next(s for s in range(2, q - 1) if math.gcd(s, q - 1) == 1)
    cases = [
        ([Fraction(1, n), Fraction(n - 1, n), Fraction(1, 2), Fraction(1, 2)], [Fraction(1)] * 4, 1),
        ([Fraction(1, n), Fraction(1, 2), Fraction(n - 1, n)], [Fraction(1), Fraction(1, 2), Fraction(1)], 2),
    ]
    for alpha, beta, lam in cases:
        for omega_exponent in (1, second):
            assert S.katz_h(alpha, beta, lam, omega_exponent) == _katz_oracle(S, alpha, beta, lam, omega_exponent)
