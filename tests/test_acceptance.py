"""Acceptance criteria, one test per criterion.

Every assertion here is exact (integer or cyclotomic equality); a criterion
passes only at zero tolerance.  Each test prints a single summary line so a
verbose run reads as a checklist.
"""

import time
from fractions import Fraction

import pytest

from psl2q.chartable import build_table
from psl2q.charsums import CharacterSums
from psl2q.cyclotomic import CycNum
from psl2q.derangement import DerangementModel
from psl2q.ekr import classify_family, max_intersecting_families
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2
from psl2q.intrank import bareiss_rank

RANK_QS = (5, 7, 9, 11, 13)
GRAM_QS = (5, 7, 9, 13)


@pytest.fixture(scope="module")
def models():
    cache = {}

    def get(q):
        if q not in cache:
            cache[q] = DerangementModel(build_table(PGL2(field_ctx_for_q(q))))
        return cache[q]

    return get


@pytest.fixture(scope="module")
def sums():
    cache = {}

    def get(q):
        if q not in cache:
            cache[q] = CharacterSums(field_ctx_for_q(q))
        return cache[q]

    return get


def _announce(number, name, started, detail=""):
    elapsed = time.time() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s{suffix}")


def test_criterion_1_rank(models):
    started = time.time()
    expected = {5: 20, 7: 42, 9: 72, 11: 110, 13: 156}
    got = {}
    for q in RANK_QS:
        got[q] = bareiss_rank(models(q).build_m().tolist())
        assert got[q] == expected[q] == q * (q - 1)
    _announce(1, "derangement matrix rank", started, f"ranks {got}")


def test_criterion_2_gram_closed_form(models):
    started = time.time()
    for q in (5, 7, 9, 11):
        model = models(q)
        assert (model.gram_bruteforce() == model.gram_closed()).all()
    _announce(2, "Gram matrix closed form, entrywise", started)


def test_criterion_3_orthogonal_basis(sums):
    started = time.time()
    for q in GRAM_QS:
        S = sums(q)
        basis = S.orthogonal_basis()
        assert len(basis) == q
        for i, (name, v1, norm_sq) in enumerate(basis):
            if name == "P_eps_shifted":
                assert norm_sq == Fraction(q * q - 1, q)
            elif name == "P_phi":
                assert norm_sq == Fraction(q * q - 1, q * q)
            elif name.startswith("P_gamma"):
                assert norm_sq == Fraction(q - 1, q)
            else:
                assert norm_sq == Fraction(q + 1, q)
            for j, (_, v2, _) in enumerate(basis):
                assert S.l2_inner(v1, v2) == (norm_sq if i == j else 0)
    _announce(3, "orthogonal basis Gram diagonal", started)


def test_criterion_4_restricted_sums(models):
    started = time.time()
    for q in (5, 7, 9):
        model = models(q)
        ctx = model.ctx
        inf = model.group.infinity
        swap = ((0, inf), (inf, 0))
        closed_forms = model.restricted_closed_forms()
        for chi in model.target_characters():
            if chi.kind == "lambda1":
                continue
            # row 0: the swap; row d - 1: 0 -> inf with 1 -> d
            m = q + 1 if chi.kind == "eta" else q - 1
            closed = [CycNum.from_zeta_powers(m, row.tolist()) for row in closed_forms[chi]]
            assert model.restricted_char_sum(chi, swap) == closed[0]
            if chi.kind == "psi_minus1":
                assert closed[0] == ctx.phi_int(ctx.neg(1)) * (q - 1)
            for d in range(2, q):
                assert model.restricted_char_sum(chi, ((0, inf), (1, d))) == closed[d - 1]
    _announce(4, "restricted character sums dual path", started)


def test_criterion_5_character_sums(models):
    started = time.time()
    for q in RANK_QS:
        model = models(q)
        lam1 = model.table.chars[0]
        t_lam1 = model.character_sum_direct(lam1)
        assert t_lam1 == Fraction((q - 1) * (q + 1) * (q - 1) ** 2, 4)
        if q == 5:
            assert t_lam1 == 96
        assert not t_lam1.is_zero()
        for chi in model.target_characters():
            if chi.kind == "lambda1":
                continue
            direct = model.character_sum_direct(chi)
            assembled = model.character_sum_assembled(chi)
            closed = model.character_sum_closed_form(chi)
            assert direct == assembled
            assert assembled == closed
            assert not direct.is_zero()
    _announce(5, "character moments: triple equality and nonvanishing", started)


def test_criterion_6_hypergeometric_identities(sums):
    started = time.time()
    for q in GRAM_QS:
        S = sums(q)
        ctx = S.ctx
        eps, phi = ctx.trivial_char(), ctx.quadratic_char()
        half = ctx.inv(ctx.embed_int(2))
        minus_one = ctx.neg(1)
        for x in range(1, q):
            assert S.greene_2f1(phi, phi, eps, x) == S.greene_2f1(
                phi, phi, eps, ctx.inv(x)
            ) * ctx.phi_int(x)
        for k in range(1, q - 1):
            gamma = ctx.fq_char(k)
            for a in range(q):
                if a in (1, minus_one):
                    continue
                arg = ctx.mul(ctx.sub(1, a), half)
                assert S.legendre_sum(gamma, a) == S.greene_2f1(gamma, gamma.conj(), eps, arg)
            lhs = S.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1) * q
            rhs = CycNum.zero()
            for z in range(1, q):
                rhs = rhs + (
                    S.greene_2f1(phi, phi, eps, z)
                    * S.greene_2f1(gamma, gamma.conj(), eps, z)
                    * ctx.phi_int(z)
                )
            assert lhs == rhs
    _announce(6, "hypergeometric identities", started)


def test_criterion_7_deviation_bound_and_katz(sums):
    started = time.time()
    checked = []
    for q in GRAM_QS:
        S = sums(q)
        for n in (2, 3, 4, 6):
            if (q - 1) % n:
                continue
            deviation_sq, bound, ok = S.f43_deviation_bound(n)
            assert ok and deviation_sq <= bound == 4 * q**3
            checked.append((n, q))
    for n, q in ((4, 13), (3, 7), (2, 5)):
        S = sums(q)
        ctx = S.ctx
        eps, phi = ctx.trivial_char(), ctx.quadratic_char()
        gamma = ctx.fq_char((q - 1) // n)
        f43 = S.greene_nfn([gamma, gamma.conj(), phi, phi], [eps, eps, eps], 1)
        alpha = [Fraction(1, n), Fraction(n - 1, n), Fraction(1, 2), Fraction(1, 2)]
        beta = [Fraction(1)] * 4
        assert f43 * (-(q**3)) == S.katz_h(alpha, beta, 1)
    _announce(7, "central value bound and Katz conversion", started, f"pairs {checked}")


def test_criterion_8_extremal_families():
    started = time.time()
    for q in (5, 7):
        group = PGL2(field_ctx_for_q(q))
        size, families = max_intersecting_families(group)
        assert size == q * (q - 1) // 2
        assert all(classify_family(group, fam).kind == "stabilizer_coset" for fam in families)
    group3 = PGL2(field_ctx_for_q(3))
    size3, families3 = max_intersecting_families(group3)
    assert size3 == 3
    kinds = [classify_family(group3, fam).kind for fam in families3]
    assert "other" in kinds
    _announce(8, "maximum families are stabilizer cosets (except q = 3)", started)


def test_criterion_9_f_expansion(sums):
    started = time.time()
    for q in GRAM_QS:
        S = sums(q)
        expected = 1 - Fraction(1, q) - Fraction(2, q * q)
        assert S.f_norm_squared() == expected
        total = CycNum.zero()
        for _, square in S.orthonormal_coefficient_squares():
            total = total + square
        assert total == expected
    _announce(9, "norm of f and its orthonormal expansion", started)
