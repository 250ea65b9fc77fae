"""Tests for GF(q), GF(q^2), characters and Gauss sums."""

import dataclasses
import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2q.cyclotomic import CycNum
from psl2q.errors import BudgetExceededError, DomainMismatchError, NotOddPrimeError
from psl2q.fields import MAX_Q, FieldCtx, MultCharB, factor_prime_power, field_ctx_for_q


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


def poly_rem(num, den, p):
    """num mod den over GF(p), coefficient lists from the constant term up."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for k in range(len(num) - 1, dd - 1, -1):
        f = num[k] * inv_lead % p
        if f:
            for i in range(dd + 1):
                num[k - dd + i] = (num[k - dd + i] - f * den[i]) % p
    return num[:dd]


def is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    return all(
        any(poly_rem(poly, list(low) + [1], p)) for d in range(1, deg // 2 + 1) for low in product(range(p), repeat=d)
    )


def modulus_candidates(p, e):
    """Monic degree-e polynomials in (c_(e-1), ..., c_0) order."""
    for digits in product(range(p), repeat=e):
        yield tuple(reversed(digits)) + (1,)


ODD_PRIME_POWERS = [q for q in range(3, MAX_Q + 1) if factor_prime_power(q)]

# SHA-256 of every table of FieldCtx(p, e), recorded from the trial-division
# construction; any change to a modulus, generator, table entry, dtype or
# element type changes the digest
TABLE_DIGESTS = {
    3: "d5605b195882aa88d743884997aa6f1f111dcbc0c6b69c068abb5ffb8aa09025",
    5: "3c5c67172c7b9f8a07af8250ac51ff8d9cd9ae54e17e5c8e522bc2c190322c5e",
    7: "cd472ef82ea8c6aa157f059c8eae4d3b3cd9cfb6c5ad485d45cc5cbd68ebd9fc",
    9: "39706fb80b18c6107a4f4923fa1a2c7347f82f64b09860c90c7bf42cdefe0884",
    11: "70955579e370dddab33e007f0113cada9e34342be45d2acdc01a71612e533df1",
    13: "19f8f0691ab546da640a0126129663f31a55f39cb36fd32e687341dc2e6288fe",
    17: "886342dbdc6e2d7e2268f459ae0549fc232554a7728a58eb1ec2aaf28407cb77",
    19: "b9bfb91e4e6b6f2f01a17b1c9bd0972c5360bcd796a746efd79af404f6b3952e",
    23: "905a8abdcdd5a042c6cfa021549c2303a0858bc6c48aa968df6b45bfab6d0519",
    25: "18a64809302101109e2bfd456f76ad2e6a48a7a3203c7806113ed7c3530ff21c",
    27: "d873b484c094b8cde1d72626c99d89a4968f2725bcb9866ab411417cf0dc6be2",
    29: "3c1a931ed33ebf0bdb8e931cdb3c78405389cdb7f7b86716ab216199c1dd939f",
    31: "d4e5a28f432cb805e308c27ec3524b2c292a6097b8637aea84e68a10fb0ece2d",
    37: "29666e83c9056c02c72363f7296f90fef24bc54e887934e672e793eb1ea58e1e",
    41: "ecd8a37afc22fcb9894e37b65d026bb3f5b26561d23e31da905812df60603213",
    43: "75a8f12c444016fd3e6ec11e571505db4f2bad9660adae382663d8b0824fe5f8",
    47: "a1a886e8f1c523e5e366de69cf944a90254091160a8ab4424f97e787f763d870",
    49: "187e6db22aa203dbe804bce995927d9191cd76f801ca0b9c2aa89858550e2084",
    53: "75aa558d127a5cd484a6c9382cfc4627e7a87f66b8ce7defb873f908ddb74e30",
    59: "62658d9a89948a644e8fbe800ede8acba816108574abb2675ee0fda5b3b832e4",
    61: "beee34bf9ccc288b6c33ff271230e19997511d541a61b788fde5fb2462e8eb51",
}


def table_digest(ctx):
    names = ("add", "mul", "neg", "inv", "log", "log2", "square", "phi")  # the FieldArrays fields when recorded
    arrays = [(name, getattr(ctx.arrays, name)) for name in names]
    record = (
        (ctx.modulus, ctx.modulus2, ctx.generator, ctx.generator2, ctx.i_elem),
        (ctx.add_table, ctx.mul_table, ctx.neg_table, ctx.inv_table, ctx.exp, ctx.log, ctx.trace_table),
        (ctx.exp2, ctx.log2, ctx.trace2_table, ctx.norm2_table),
        [(name, str(a.dtype), a.tolist()) for name, a in arrays],
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_every_table_matches_its_recorded_digest(q):
    assert table_digest(FieldCtx(*factor_prime_power(q))) == TABLE_DIGESTS[q]


@pytest.mark.parametrize("q", [5, 9, 27, 49])
def test_every_array_mirrors_its_scalar_table(q):
    ctx = field_ctx_for_q(q)
    scalar = {
        "add": ctx.add_table,
        "mul": ctx.mul_table,
        "neg": ctx.neg_table,
        "inv": [0] + ctx.inv_table[1:],
        "log": [0] + ctx.log[1:],
        "log2": [0] + ctx.log2[1:],
        "exp2": ctx.exp2,
        "trace2": ctx.trace2_table,
        "norm2": ctx.norm2_table,
        "square": [ctx.is_square(x) for x in range(q)],
        "phi": [ctx.phi_int(x) for x in range(q)],
    }
    names = [f.name for f in dataclasses.fields(ctx.arrays)]
    assert set(names) <= set(scalar)
    for name in names:
        assert getattr(ctx.arrays, name).tolist() == scalar[name], name


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_modulus_is_the_first_irreducible_candidate(q):
    p, e = factor_prime_power(q)
    ctx = field_ctx_for_q(q)
    for cand in modulus_candidates(p, e):
        if cand == ctx.modulus:
            break
        assert not is_irreducible(cand, p), cand
    assert is_irreducible(ctx.modulus, p)


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_generator_is_the_first_primitive_element(q):
    ctx = field_ctx_for_q(q)
    assert order_by_powering(ctx, ctx.generator) == q - 1
    assert all(order_by_powering(ctx, x) < q - 1 for x in range(1, ctx.generator))


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


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27, 49])
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


@pytest.mark.parametrize("q", [5, 9, 13, 25, 27, 49])
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
            ctx5.char_eval(MultCharB(1, 8), x)
    with pytest.raises(DomainMismatchError, match="modulus"):
        ctx5.gauss_sum(ctx7.fq_char(1))
    with pytest.raises(TypeError):
        ctx5.gauss_sum(MultCharB(1, 6))
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
            ctx.char_eval(MultCharB(1, q + 1), x)
    assert ctx.char_eval(ctx.fq_char(1), ctx.neg(1)) == -1
    assert ctx.char_eval(MultCharB(1, q + 1), ctx.i_elem) == MultCharB(1, q + 1).sign_at_i()
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
