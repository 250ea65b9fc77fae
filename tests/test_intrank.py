"""Tests for exact integer rank: fraction-free Bareiss elimination and rank
over F_p."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2q import intrank
from psl2q.intrank import PRIMES, bareiss_rank, modular_rank

P, P2 = PRIMES


def rational_rank(matrix):
    """Independent oracle: textbook row reduction over Fraction."""
    rows = [[Fraction(v) for v in r] for r in matrix]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_simple_cases():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[1, 0], [0, 1]]) == 2
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[2, 0, 0], [0, 3, 0]]) == 2
    assert bareiss_rank([[1], [2], [3]]) == 1


def test_rank_deficient_with_cancellation():
    a = [[3, 1, 4], [1, 5, 9], [4, 6, 13]]  # row3 = row1 + row2
    assert bareiss_rank(a) == 2


def test_against_oracle_random():
    rng = random.Random(7)
    for _ in range(400):
        m = rng.randrange(1, 8)
        n = rng.randrange(1, 8)
        mat = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        if m >= 3 and rng.random() < 0.5:
            mat[-1] = [a + b for a, b in zip(mat[0], mat[1])]
        assert bareiss_rank(mat) == rational_rank(mat)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_against_oracle_hypothesis(mat):
    assert bareiss_rank(mat) == rational_rank(mat)


def test_numpy_rows_accepted():
    import numpy as np

    a = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.int64)
    assert bareiss_rank(a.tolist()) == 2


# Up to 6 x 6 with entries in [-9, 9], every minor is below the Hadamard bound
# (9 * sqrt(6))^6 < 1.2e8 < p, so a nonzero minor stays nonzero mod p and the
# rank over F_p must equal the rational rank.
small_entries = st.integers(min_value=-9, max_value=9)
small_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=1, max_size=6)
)
# Entries at and beyond p, and beyond int64, where reduction and overflow matter.
wide_entries = st.one_of(
    small_entries, st.sampled_from([P - 1, P, P + 3, -P, 2 * P, 2**62, -(2**63), 2**70])
)


def _low_rank(gen, n_rows, n_cols, rank):
    """A random integer matrix B [I | X] of rank <= `rank`, with the columns
    shuffled."""
    x = gen.integers(-4, 5, size=(rank, n_cols - rank))
    b = gen.integers(-3, 4, size=(n_rows, rank))
    rows = np.hstack([np.eye(rank, dtype=np.int64), x])
    return (b @ rows)[:, gen.permutation(n_cols)].tolist()


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_modular_rank_against_oracles_hypothesis(mat):
    expected = rational_rank(mat)
    assert bareiss_rank(mat) == expected
    assert modular_rank(mat) == modular_rank(mat, P2) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(wide_entries, min_size=n, max_size=n), min_size=1, max_size=5)
    )
)
def test_wide_entries_hypothesis(mat):
    expected = rational_rank(mat)
    assert bareiss_rank(mat) == expected
    # rank over F_p never exceeds the rational rank, and reducing mod p first changes nothing
    reduced = [[v % P for v in row] for row in mat]
    assert modular_rank(mat) == modular_rank(reduced) <= expected
    assert modular_rank([[-v for v in row] for row in mat]) == modular_rank(mat)


def test_modular_path_against_oracles_random():
    # rank-deficient matrices, some with a column of multiples of p
    gen = np.random.default_rng(11)
    for _ in range(150):
        n_rows, n_cols = gen.integers(1, 9), gen.integers(2, 9)
        rank = gen.integers(1, min(n_rows, n_cols) + 1)
        mat = _low_rank(gen, n_rows, n_cols, rank)
        if gen.random() < 0.3:
            mat = [row + [row[0] * P] for row in mat]
        expected = rational_rank(mat)
        assert bareiss_rank(mat) == expected
        assert modular_rank(mat) == modular_rank(mat, P2) == expected


def test_modular_rank_simple_cases():
    assert modular_rank([]) == 0
    assert modular_rank([[0, 0], [0, 0]]) == 0
    assert modular_rank([[1, 2], [2, 4]]) == 1
    assert modular_rank([[P, 0], [0, 1]]) == 1  # p is zero in F_p
    assert modular_rank([[P, 0], [0, 1]], P2) == 2
    # a rank drop mod both primes: rank 1 over F_p, 2 over Q
    assert modular_rank([[1, 0], [0, P * P2]]) == modular_rank([[1, 0], [0, P * P2]], P2) == 1
    assert modular_rank(P * np.eye(4, dtype=np.int64)) == 0
    assert modular_rank(P * np.eye(4, dtype=np.int64), P2) == 4
    with pytest.raises(ValueError):
        modular_rank([[1]], 2**31 + 11)


def test_modular_rank_leaves_its_input_unchanged():
    # an int64 input is read in place, so the reduction mod p must go to a copy
    for a in (np.array([[P + 1, -3, 0], [2, 2 * P, 5]]), np.array([[2**70, 1], [-3, 4]], dtype=object)):
        before = a.copy()
        assert modular_rank(a) == modular_rank(a, P2) == 2
        assert a.dtype == before.dtype and (a == before).all()
    int64 = np.arange(6, dtype=np.int64).reshape(2, 3)
    assert intrank._integer_array(int64) is int64
