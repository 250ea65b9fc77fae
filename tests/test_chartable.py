"""Tests for the character table of PGL(2,q)."""

from fractions import Fraction

import numpy as np
import pytest

from psl2q.chartable import build_table
from psl2q.cyclotomic import CycNum
from psl2q.errors import IdentityViolationError
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2


@pytest.fixture(scope="module")
def tables():
    return {q: build_table(PGL2(field_ctx_for_q(q))) for q in (5, 7, 9)}


def test_requires_q_at_least_5():
    with pytest.raises(ValueError):
        build_table(PGL2(field_ctx_for_q(3)))


@pytest.mark.parametrize("q", [5, 7, 9])
def test_shape_and_degrees(tables, q):
    T = tables[q]
    assert len(T.chars) == len(T.classes) == q + 2
    degrees = sorted(c.degree for c in T.chars)
    assert degrees.count(1) == 2 and degrees.count(q) == 2
    assert degrees.count(q - 1) == (q - 1) // 2
    assert degrees.count(q + 1) == (q - 3) // 2
    assert sum(d * d for d in degrees) == q**3 - q


def test_degree_sum_q5(tables):
    # 1 + 1 + 25 + 25 + 2*16 + 36 = 120
    assert sum(c.degree**2 for c in tables[5].chars) == 120


@pytest.mark.parametrize("q", [5, 7, 9])
def test_row_orthogonality(tables, q):
    T = tables[q]
    for i, u in enumerate(T.values):
        for j, v in enumerate(T.values):
            assert T.inner_product(u, v) == (1 if i == j else 0)


@pytest.mark.parametrize("q", [5, 7])
def test_column_orthogonality(tables, q):
    T = tables[q]
    n = len(T.classes)
    for a in range(n):
        for b in range(n):
            s = CycNum.zero()
            for row in T.values:
                s = s + row[a] * row[b].conjugate()
            assert s == (Fraction(q**3 - q, T.sizes[a]) if a == b else 0)


def test_special_values(tables):
    T = tables[5]
    G = T.group
    psi1 = T.chars[2]
    u = G.make(1, 1, 0, 1)
    assert T.char_value(psi1, u) == 0
    assert T.char_value(T.chars[0], u) == 1
    # eta at the i-class is -2 * beta(i)
    i_label = next(lab for lab in T.classes if lab.kind == "nonsplit_i")
    for chi in T.chars:
        if chi.kind == "eta":
            assert T.value_on_class(chi, i_label) == -2 * chi.param.sign_at_i()
    # nu vanishes on derangement classes
    for chi in T.chars:
        if chi.kind == "nu":
            for lab in T.classes:
                if lab.kind in ("nonsplit", "nonsplit_i"):
                    assert T.value_on_class(chi, lab).is_zero()


@pytest.mark.parametrize("q", [5, 7, 9])
def test_psi1_is_fixed_points_minus_one(tables, q):
    T = tables[q]
    G = T.group
    psi1 = T.chars[2]
    for g in G.elements("pgl"):
        assert T.char_value(psi1, g) == len(G.fixed_points(g)) - 1


@pytest.mark.parametrize("q", [5, 7, 9])
def test_sign_character_is_psl_indicator(tables, q):
    T = tables[q]
    G = T.group
    lam_m1 = T.chars[1]
    for g in G.elements("pgl"):
        assert (T.char_value(lam_m1, g) == 1) == G.in_psl(g)
        assert T.char_value(lam_m1, g) in (1, -1)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_psi_minus1_is_twist(tables, q):
    T = tables[q]
    psi1, psi_m1, lam_m1 = T.chars[2], T.chars[3], T.chars[1]
    for col in range(len(T.classes)):
        assert T.values[3][col] == T.values[2][col] * T.values[1][col]


@pytest.mark.parametrize("q", [5, 7, 9])
def test_pair_module_decomposition(tables, q):
    T = tables[q]
    pi = T.permutation_character()
    assert pi[0] == q * (q + 1)
    assert pi[1].is_zero()
    dec = T.decompose(pi)
    for chi in T.chars:
        expected = {"psi1": 2, "lambda_minus1": 0}.get(chi.kind, 1)
        assert dec[chi.name()] == expected
    # inner product with psi1 is the multiplicity 2
    assert T.inner_product(pi, T.values[2]) == 2


@pytest.mark.parametrize("q", [5, 7])
def test_permutation_character_matches_brute_force(tables, q):
    T = tables[q]
    G = T.group
    pi = T.permutation_character()
    for label, rep, value in zip(T.classes, T.representatives, pi):
        fixed = G.fixed_points(rep)
        count = len(fixed) * (len(fixed) - 1)
        assert value == count, label


@pytest.mark.parametrize("q", [5, 7, 9])
def test_char_index_matches_list_index(tables, q):
    T = tables[q]
    for chi in T.chars:
        assert T.char_index(chi) == T.chars.index(chi)
    with pytest.raises(ValueError):
        build_table(PGL2(field_ctx_for_q(7 if q != 7 else 5))).char_index(T.chars[-1])


# -- the orthogonality kernel ------------------------------------------------


GRAM_QS = [5, 7, 9, 11, 13, 25]


@pytest.fixture(scope="module")
def gram_tables():
    return {q: build_table(PGL2(field_ctx_for_q(q))) for q in GRAM_QS}


def _numerators(value: CycNum, m: int) -> list[int]:
    return list(value.lift(m).nums)


@pytest.mark.parametrize("q", [5, 9, 13])
def test_zeta_terms_rebuild_every_value(gram_tables, q):
    T = gram_tables[q]
    L = T.conductor
    counts = np.zeros((len(T.chars), len(T.classes), L), dtype=np.int64)
    row, cls, exponent, coef = T.zeta_terms()
    np.add.at(counts, (row, cls, exponent), coef)
    for i, values in enumerate(T.values):
        for c, v in enumerate(values):
            assert CycNum.from_zeta_powers(L, counts[i, c].tolist()) == v


def test_zeta_terms_reject_a_value_with_a_denominator():
    T = build_table(PGL2(field_ctx_for_q(5)))
    T.values[4][3] = CycNum.rational(Fraction(1, 2))
    with pytest.raises(IdentityViolationError):
        T.zeta_terms()


@pytest.mark.parametrize("q", GRAM_QS)
def test_row_gram_matches_inner_product(gram_tables, q):
    T = gram_tables[q]
    gram = T.row_gram()
    for i, u in enumerate(T.values):
        for j, v in enumerate(T.values):
            assert gram[i, j].tolist() == _numerators(T.inner_product(u, v) * T.order, T.conductor)


@pytest.mark.parametrize("q", GRAM_QS)
def test_column_gram_matches_the_column_loop(gram_tables, q):
    T = gram_tables[q]
    gram = T.column_gram()
    n = len(T.classes)
    for a in range(n):
        for b in range(n):
            s = CycNum.zero()
            for row in T.values:
                s = s + row[a] * row[b].conjugate()
            assert gram[a, b].tolist() == _numerators(s, T.conductor)
