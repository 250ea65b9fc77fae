"""Exact rank of integer matrices.

`bareiss_rank` is one-step fraction-free Bareiss elimination: at every step
the update (p * a[i][j] - a[i][c] * p_row[j]) is exactly divisible by the
previous pivot, so all intermediate entries stay integers (they are minors
of the input matrix).  Rows are swapped to pick the nonzero pivot of
smallest magnitude, which keeps the minors small; row swaps do not affect
exactness.  The result is the rank over the rationals, hence over any field
of characteristic zero.

`modular_rank` is the rank over F_p, by vectorised Gaussian elimination over
a word-size prime field.  It is a lower bound on the rational rank, because
a minor that is nonzero mod p is a nonzero integer.  A caller that also
holds an upper bound, such as the columns less the dimension of a kernel it
has witnessed exactly, certifies the rational rank when the two meet.
`DerangementModel.kernel_witnessed` eliminates only its 2q kernel
witnesses this way; `rank_of_m` eliminates nothing and leaves the rank
undecided when its Schur certificate fails.  The tests use both
eliminations of N as the independent oracle of the rank.
"""

from __future__ import annotations

import numpy as np

# The two largest primes below 2^31: products of reduced entries stay below
# 2^62, so one multiply-subtract fits in int64 before it is reduced.
PRIMES = (2147483629, 2147483587)


def bareiss_rank(matrix) -> int:
    rows = [list(map(int, r)) for r in matrix]
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot_row = -1
        pivot_abs = None
        for i in range(rank, n_rows):
            v = rows[i][col]
            if v and (pivot_abs is None or abs(v) < pivot_abs):
                pivot_row, pivot_abs = i, abs(v)
        if pivot_row < 0:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for i in range(rank + 1, n_rows):
            row = rows[i]
            f = row[col]
            if f:
                for j in range(col + 1, n_cols):
                    row[j] = (p * row[j] - f * prow[j]) // prev
                row[col] = 0
            elif prev != 1 or p != 1:
                for j in range(col + 1, n_cols):
                    row[j] = (p * row[j]) // prev
        prev = p
        rank += 1
    return rank


def _integer_array(matrix) -> np.ndarray:
    """A 2-d integer array: int64 when every entry fits, object dtype
    otherwise.  An int64 array is read as it is, not copied."""
    try:
        arr = np.asarray(matrix, dtype=np.int64)
    except OverflowError:
        arr = np.array(matrix, dtype=object)
    if arr.size and arr.ndim != 2:
        raise ValueError(f"expected a 2-d integer matrix, got shape {arr.shape}")
    return arr


def modular_rank(matrix, p: int = PRIMES[0]) -> int:
    """Rank over F_p of an integer matrix, for a prime p < 2^31."""
    if not 2 <= p < 2**31:
        raise ValueError(f"modulus {p} is outside [2, 2^31)")
    a = _integer_array(matrix)
    if a.size == 0:
        return 0
    a = (a % p).astype(np.int64, copy=False)
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        prow = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
        a[rank, col:] = prow
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, col])
        if below.size:
            a[below, col:] = (a[below, col:] - a[below, col, None] * prow) % p
        rank += 1
    return rank
