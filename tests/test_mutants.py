"""Each test plants one fault in the program and checks that the sums suite
reports it: the named check fails at q = 5 and 7."""

import numpy as np
import pytest

from psl2q import charsums, verify
from psl2q.charsums import CharacterSums
from psl2q.cyclotomic import reduce_zeta_counts
from psl2q.verify import run_suite


def _failed(q):
    return {c["name"] for c in run_suite("sums", q)["checks"] if not c["pass"]}


def _level_rotated_forward(below, mul, e):
    """`charsums._greene_level` rotating row t*y by +e instead of -e."""
    n = below.shape[1]
    y = np.arange(2, len(below))
    columns = (np.arange(n)[None, :] + e[:, None]) % n
    return below[mul[:, y][:, :, None], columns[None, :, :]].sum(axis=1)


def _one_numerator_off(conductor, index):
    """`CharacterSums._zeta_table` with the numerator at index one off in the
    table of conductor(q): q - 1 for Legendre, q + 1 for Soto-Andrade."""
    zeta_table = CharacterSums._zeta_table

    def perturbed(self, m, logs, args):
        table = zeta_table(self, m, logs, args)
        if m == conductor(self.q):
            table = table.copy()
            table[index] += 1
        return table

    return perturbed


def _unconjugated_gram(m, index, summed, exponent, coef, weight, n):
    """`chartable.hermitian_gram` without the conjugation: each pair of terms
    of a group counts at the sum of their exponents, not the difference."""
    counts = np.zeros((n * n, m), dtype=np.int64)
    for s in np.unique(summed):
        terms = np.flatnonzero(summed == s)
        for t in terms:
            for u in terms:
                counts[index[t] * n + index[u], (exponent[t] + exponent[u]) % m] += weight[s] * coef[t] * coef[u]
    return reduce_zeta_counts(m, counts).reshape(n, n, -1)


@pytest.mark.parametrize("q", [5, 7])
def test_greene_level_rotated_the_wrong_way(monkeypatch, q):
    monkeypatch.setattr(charsums, "_greene_level", _level_rotated_forward)
    assert "3f2_matches_2f1_recursion" in _failed(q)


@pytest.mark.parametrize("q", [5, 7])
def test_soto_andrade_numerator_off_by_one(monkeypatch, q):
    monkeypatch.setattr(CharacterSums, "_zeta_table", _one_numerator_off(lambda q: q + 1, (1, 2, 0)))
    assert {"orthogonal_basis_gram_matrix", "values_real_and_inversion_symmetric"} <= _failed(q)


@pytest.mark.parametrize("q", [5, 7])
def test_legendre_numerator_off_by_one(monkeypatch, q):
    # a = 0 is neither 1 nor -1
    monkeypatch.setattr(CharacterSums, "_zeta_table", _one_numerator_off(lambda q: q - 1, (1, 0, 0)))
    assert "legendre_equals_2f1" in _failed(q)


@pytest.mark.parametrize("q", [5, 7])
def test_hermitian_gram_without_conjugation(monkeypatch, q):
    monkeypatch.setattr(verify, "hermitian_gram", _unconjugated_gram)
    assert "multiplicative_character_orthogonality" in _failed(q)
