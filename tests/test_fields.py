"""Tests for GF(q), GF(q^2), characters and Gauss sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2q.cyclotomic import CycNum
from psl2q.errors import BudgetExceededError, DomainMismatchError, NotOddPrimeError
from psl2q.fields import MAX_Q, FieldCtx, factor_prime_power, field_ctx_for_q


def q2_pow(ctx, a, n):
    """a^n in GF(q^2) by square-and-multiply over `q2_mul`, without the
    logarithm tables."""
    out = 1
    while n:
        if n & 1:
            out = ctx.q2_mul(out, a)
        a, n = ctx.q2_mul(a, a), n >> 1
    return out


def frobenius(ctx, a):
    """a -> a^q, the oracle for the trace and norm tables."""
    return q2_pow(ctx, a, ctx.q)


def order_by_powering(ctx, x):
    n, acc = 1, x
    while acc != 1:
        acc = ctx.mul(acc, x)
        n += 1
    return n


def test_gf5_generator_is_two():
    # oracle: 2 is the smallest element of multiplicative order 4 mod 5
    ctx = FieldCtx(5, 1)
    assert order_by_powering(ctx, 2) == 4
    assert ctx.generator == 2


def test_gf9_modulus_is_t_squared_plus_one():
    # oracle: t^2 + 1 has no root mod 3 and is the first monic irreducible
    assert all((x * x + 1) % 3 != 0 for x in range(3))
    ctx = FieldCtx(3, 2)
    assert ctx.modulus == (1, 0, 1)
    t = 3  # coefficient vector (0, 1)
    assert ctx.mul(t, t) == 2


def test_even_characteristic_rejected():
    with pytest.raises(NotOddPrimeError):
        FieldCtx(2, 1)
    with pytest.raises(NotOddPrimeError):
        FieldCtx(9, 1)  # not prime


def test_budget():
    # the budget is fixed at MAX_Q = 64: 61 builds, 67 and 81 do not
    assert MAX_Q == 64
    assert FieldCtx(61, 1).q == 61
    with pytest.raises(BudgetExceededError):
        FieldCtx(67, 1)
    with pytest.raises(BudgetExceededError):
        field_ctx_for_q(81)


def test_prime_power_parsing():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(13) == (13, 1)
    assert factor_prime_power(4) is None
    assert factor_prime_power(15) is None
    assert field_ctx_for_q(9).q == 9


def test_basic_arithmetic_examples():
    ctx = FieldCtx(5, 1)
    assert ctx.mul(3, 4) == 2
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    ctx9 = FieldCtx(3, 2)
    for x in range(1, 9):
        assert ctx9.mul(x, ctx9.inv(x)) == 1


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_field_axioms_exhaustive(q):
    ctx = field_ctx_for_q(q)
    for x in ctx.elements():
        assert ctx.add(x, 0) == x
        assert ctx.mul(x, 1) == x
        assert ctx.add(x, ctx.neg(x)) == 0
    # associativity and distributivity on a grid
    els = list(ctx.elements())[: min(q, 8)]
    for x in els:
        for y in els:
            assert ctx.mul(x, y) == ctx.mul(y, x)
            for z in els:
                assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))


@pytest.mark.parametrize("q", [5, 9, 13])
def test_frobenius(q):
    ctx = field_ctx_for_q(q)
    frob = [frobenius(ctx, r) for r in range(q * q)]
    assert frob[:q] == list(range(q))  # fixes the embedded base field
    assert sum(1 for r, f in enumerate(frob) if f == r) == q
    for r, f in enumerate(frob):
        assert frob[f] == r
        assert ctx.q2_trace(r) == ctx.q2_add(r, f)
        assert ctx.q2_norm(r) == ctx.q2_mul(r, f)
        assert ctx.q2_norm(r) < q  # norms land in the base field
    g2 = ctx.generator2
    assert frob[g2] == ctx.exp2[q]  # the logarithm tables agree with the powering


@pytest.mark.parametrize("q", [5, 7, 9])
def test_i_element(q):
    ctx = field_ctx_for_q(q)
    i = ctx.i_elem
    assert i >= q  # not in the embedded base field
    assert ctx.q2_mul(i, i) < q  # square lands in the base field
    assert ctx.q2_mul(i, i) != 0


@pytest.mark.parametrize("q,count", [(5, 1), (7, 2), (9, 3)])
def test_gamma_set_sizes(q, count):
    ctx = field_ctx_for_q(q)
    gammas = ctx.gamma_set()
    assert len(gammas) == count == (q - 3) // 2
    assert all(g.order() > 2 for g in gammas)
    exps = {g.exponent for g in gammas}
    assert all((q - 1 - g.exponent) not in exps for g in gammas)  # one per inversion pair


@pytest.mark.parametrize("q,count", [(3, 1), (5, 2), (7, 3)])
def test_beta_set_sizes(q, count):
    ctx = field_ctx_for_q(q)
    betas = ctx.beta_set()
    assert len(betas) == count == (q - 1) // 2
    assert all(b.order() > 2 for b in betas)


def test_beta_trivial_on_base_and_sign_at_i():
    ctx = field_ctx_for_q(7)
    for beta in ctx.beta_set():
        for x in range(1, 7):
            assert ctx.char_eval(beta, x) == 1
        assert ctx.char_eval(beta, ctx.i_elem) == beta.sign_at_i()


def test_char_eval_conventions():
    ctx = FieldCtx(5, 1)
    phi = ctx.quadratic_char()
    assert ctx.char_eval(phi, 2) == -1
    assert ctx.char_eval(ctx.trivial_char(), 0).is_zero()
    # phi(-1) = 1 exactly when q = 1 mod 4
    for q in (5, 7, 9, 13):
        c = field_ctx_for_q(q)
        assert c.phi_int(c.neg(1)) == (1 if q % 4 == 1 else -1)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_char_multiplicativity(q):
    ctx = field_ctx_for_q(q)
    for k in range(q - 1):
        chi = ctx.fq_char(k)
        for x in range(1, q):
            for y in range(1, q):
                assert ctx.char_eval(chi, ctx.mul(x, y)) == ctx.char_eval(chi, x) * ctx.char_eval(chi, y)
            assert ctx.char_eval(chi, x) * ctx.char_eval(chi, ctx.inv(x)) == 1
        assert ctx.char_eval(chi.conj(), 2) == ctx.char_eval(chi, 2).conjugate()


@pytest.mark.parametrize("q", [5, 7, 9])
def test_char_orthogonality(q):
    ctx = field_ctx_for_q(q)
    for k1 in range(q - 1):
        for k2 in range(q - 1):
            total = CycNum.zero()
            c1, c2 = ctx.fq_char(k1), ctx.fq_char(k2)
            for x in range(1, q):
                total = total + ctx.char_eval(c1, x) * ctx.char_eval(c2, x).conjugate()
            assert total == (q - 1 if k1 == k2 else 0)


def test_gauss_sums():
    ctx = FieldCtx(5, 1)
    assert ctx.gauss_sum(ctx.trivial_char()) == -1
    g_phi = ctx.gauss_sum(ctx.quadratic_char())
    assert g_phi * g_phi.conjugate() == 5
    ctx7 = FieldCtx(7, 1)
    gam = ctx7.fq_char(1)
    assert gam.order() == 6
    prod = ctx7.gauss_sum(gam) * ctx7.gauss_sum(gam.conj())
    assert prod == ctx7.char_eval(gam, ctx7.neg(1)) * 7


def test_gauss_sum_additive_character_dependence():
    # the individual sum moves with the additive character, the modulus does not
    ctx = FieldCtx(7, 1)
    chi = ctx.fq_char(2)
    g1 = ctx.gauss_sum(chi, additive_index=1)
    g3 = ctx.gauss_sum(chi, additive_index=3)
    assert g1 != g3
    assert g1 * g1.conjugate() == g3 * g3.conjugate() == 7


def test_characters_of_another_field_are_rejected():
    # the same exponents over GF(7): moduli 6 and 8 instead of 4 and 6
    ctx5, ctx7 = field_ctx_for_q(5), field_ctx_for_q(7)
    for x in (0, 2):
        with pytest.raises(DomainMismatchError, match="modulus"):
            ctx5.char_eval(ctx7.fq_char(1), x)
        with pytest.raises(DomainMismatchError, match="modulus"):
            ctx5.char_eval(ctx7.b_char(1), x)
    with pytest.raises(DomainMismatchError, match="modulus"):
        ctx5.gauss_sum(ctx7.fq_char(1))
    with pytest.raises(TypeError):
        ctx5.gauss_sum(ctx5.b_char(1))
    assert ctx5.char_eval(ctx5.fq_char(1), 2) == CycNum.root_of_unity(4, 1)


@pytest.mark.parametrize("q", [7, 9])
def test_arguments_outside_the_field_are_rejected(q):
    # -1 used to read element q-1 and q to raise IndexError
    ctx = field_ctx_for_q(q)
    for x in (-1, q):
        with pytest.raises(DomainMismatchError, match="not an element"):
            ctx.char_eval(ctx.fq_char(1), x)
        with pytest.raises(DomainMismatchError, match="not an element"):
            ctx.gauss_sum(ctx.fq_char(1), x)
    # a beta character is evaluated on GF(q^2)
    for x in (-1, q * q):
        with pytest.raises(DomainMismatchError, match="not an element"):
            ctx.char_eval(ctx.b_char(1), x)
    assert ctx.char_eval(ctx.fq_char(1), ctx.neg(1)) == -1
    assert ctx.char_eval(ctx.b_char(1), ctx.i_elem) == ctx.b_char(1).sign_at_i()
    assert ctx.gauss_sum(ctx.fq_char(1), q - 1) * ctx.gauss_sum(ctx.fq_char(1), q - 1).conjugate() == q


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_gf9_addition_commutes_hypothesis(x, y):
    ctx = FieldCtx(3, 2)
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.sub(ctx.add(x, y), y) == x


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_q2_mul_array_matches_q2_mul(q):
    ctx = field_ctx_for_q(q)
    a = np.arange(q * q)
    got = ctx.q2_mul_array(a[:, None], a[None, :])
    assert got.tolist() == [[ctx.q2_mul(x, y) for y in range(q * q)] for x in range(q * q)]
