"""The sums suite's array checks against the per-point CycNum loops they
replaced: each pair must give the same verdict, on the real tables and on
tables with one planted numerator off by one."""

from fractions import Fraction

import pytest

from psl2q.charsums import CharacterSums
from psl2q.cyclotomic import CycNum
from psl2q.fields import field_ctx_for_q
from psl2q.verify import (
    basis_gram_is_diagonal,
    character_grams_are_scalar,
    f32_matches_2f1_recursion,
    f43_product_identity_holds,
    legendre_matches_2f1,
    sum_tables_real_and_symmetric,
)

QS = [5, 7, 9, 11, 13, 25, 27]


def _real_and_symmetric_oracle(S):
    ctx, q = S.ctx, S.q
    ok = True
    for gamma in ctx.gamma_set():
        for a in range(q):
            v = S.legendre_sum(gamma, a)
            ok = ok and v.is_real() and S.legendre_sum(gamma.conj(), a) == v
    for beta in ctx.beta_set():
        for a in range(q):
            v = S.soto_andrade_sum(beta, a)
            ok = ok and v.is_real() and S.soto_andrade_sum(beta.conj(), a) == v
    return ok


def _l2_inner_oracle(S, f1, f2):
    acc = CycNum.zero()
    for x in range(S.q):
        acc = acc + f1[x] * f2[x].conjugate() * S.measure(x)
    return acc


def _basis_gram_oracle(S):
    basis = S.orthogonal_basis()
    ok = len(basis) == S.q
    for i, (_, f1, norm) in enumerate(basis):
        for j, (_, f2, _) in enumerate(basis):
            ok = ok and _l2_inner_oracle(S, f1, f2) == (norm if i == j else 0)
    return ok


def _character_orthogonality_oracle(S):
    ctx, q = S.ctx, S.q
    ok = True
    for d in range(q - 1):
        total = CycNum.zero()
        for x in range(1, q):
            total = total + CycNum.root_of_unity(q - 1, d * ctx.log[x])
        ok = ok and total == (q - 1 if d == 0 else 0)
    return ok


def _legendre_2f1_oracle(S):
    ctx, q = S.ctx, S.q
    eps = ctx.trivial_char()
    half = ctx.inv(ctx.embed_int(2))
    ok = True
    for k in range(1, q - 1):
        gamma = ctx.fq_char(k)
        for a in range(q):
            if a in (1, ctx.neg(1)):
                continue
            arg = ctx.mul(ctx.sub(1, a), half)
            ok = ok and S.legendre_sum(gamma, a) == S.greene_2f1(gamma, gamma.conj(), eps, arg)
    return ok


def _f43_oracle(S):
    ctx, q = S.ctx, S.q
    phi, eps = ctx.quadratic_char(), ctx.trivial_char()
    phi_2f1 = [S.greene_2f1(phi, phi, eps, z) * ctx.phi_int(z) for z in range(1, q)]
    ok = True
    for k in range(1, q - 1):
        gamma = ctx.fq_char(k)
        lhs = S.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1) * q
        rhs = CycNum.zero()
        for z, weight in enumerate(phi_2f1, start=1):
            rhs = rhs + weight * S.greene_2f1(gamma, gamma.conj(), eps, z)
        ok = ok and lhs == rhs
    return ok


def _f32_oracle(S):
    ctx, q = S.ctx, S.q
    eps, gamma = ctx.trivial_char(), ctx.fq_char(1)
    minus_one = ctx.neg(1)
    base = [S.greene_2f1(gamma, gamma, eps, t) for t in range(q)]
    sign = ctx.char_eval(gamma, minus_one) * ctx.char_eval(eps, minus_one) * Fraction(1, q)
    ok = True
    for x in range(q):
        rhs = CycNum.zero()
        for y in range(1, q):
            weight = ctx.char_eval(gamma, y) * ctx.char_eval(gamma.conj(), ctx.sub(1, y))
            rhs = rhs + weight * base[ctx.mul(x, y)]
        ok = ok and S.greene_nfn([gamma] * 3, [eps] * 2, x) == rhs * sign
    return ok


def _plant_sum_table(S, conductor, index):
    """The Legendre (conductor q-1) or Soto-Andrade (q+1) table of S with the
    numerator at index one off."""
    table = (S.legendre_table() if conductor == S.q - 1 else S.soto_andrade_table()).copy()
    table[index] += 1
    S._tables[conductor] = table


def _plant_greene_table(S, upper, lower, index):
    """The cached Greene count table of these exponents one off at index."""
    table, scale = S._greene_table(upper, lower)
    table = table.copy()
    table[index] += 1
    S._greene_tables[(upper, lower)] = (table, scale)


# check name -> (array check, oracle, fault planted into fresh sums)
CHECKS = {
    "values_real_and_inversion_symmetric": (
        sum_tables_real_and_symmetric,
        _real_and_symmetric_oracle,
        lambda S: _plant_sum_table(S, S.q + 1, (1, 2, 0)),
    ),
    "orthogonal_basis_gram_matrix": (
        lambda S: basis_gram_is_diagonal(S, S.orthogonal_basis()),
        _basis_gram_oracle,
        lambda S: _plant_sum_table(S, S.q + 1, (1, 2, 0)),
    ),
    "legendre_equals_2f1": (
        legendre_matches_2f1,
        _legendre_2f1_oracle,
        lambda S: _plant_sum_table(S, S.q - 1, (1, 0, 0)),  # a = 0 is not +-1
    ),
    "4f3_product_identity": (
        f43_product_identity_holds,
        _f43_oracle,
        # the phi 2F1 at z = 2 enters every right-hand side and no 4F3
        lambda S: _plant_greene_table(S, ((S.q - 1) // 2,) * 2, (0,), (2, 0)),
    ),
    "3f2_matches_2f1_recursion": (
        f32_matches_2f1_recursion,
        _f32_oracle,
        lambda S: _plant_greene_table(S, (1, 1, 1), (0, 0), (3, 0)),
    ),
}


@pytest.mark.parametrize("q", QS)
def test_array_checks_agree_with_the_loops_on_the_real_tables(q):
    S = CharacterSums(field_ctx_for_q(q))
    for name, (check, oracle, _) in CHECKS.items():
        assert (check(S), oracle(S)) == (True, True), name
    assert (character_grams_are_scalar(S.ctx), _character_orthogonality_oracle(S)) == (True, True)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("name", list(CHECKS))
def test_array_checks_agree_with_the_loops_on_a_planted_fault(q, name):
    check, oracle, plant = CHECKS[name]
    S = CharacterSums(field_ctx_for_q(q))
    plant(S)
    assert (check(S), oracle(S)) == (False, False)
