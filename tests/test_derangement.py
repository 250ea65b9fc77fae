"""Tests for the derangement matrix, Gram matrix, kernel and character sums."""

import random

import numpy as np
import pytest

from psl2q.chartable import build_table
from psl2q.cyclotomic import CycNum
from psl2q.derangement import DerangementModel
from psl2q.errors import NotInOmegaError, UnsupportedCharacterError
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2
from psl2q.intrank import PRIMES, bareiss_rank, rank_with_kernel


@pytest.fixture(scope="module")
def models():
    return {q: DerangementModel(build_table(PGL2(field_ctx_for_q(q)))) for q in (5, 7, 9)}


@pytest.mark.parametrize("q,shape", [(5, (20, 30)), (7, (63, 56)), (9, (144, 90))])
def test_matrix_shape_and_sums(models, q, shape):
    D = models[q]
    m = D.build_m()
    assert m.shape == shape
    assert (m.sum(axis=1) == q + 1).all()
    assert (m.sum(axis=0) == (q - 1) ** 2 // 4).all()


@pytest.mark.parametrize("q", [5, 7, 9])
def test_gram_is_transpose_product(models, q):
    D = models[q]
    m = D.build_m()
    gram = D.gram_bruteforce()
    assert (gram == m.T @ m).all()
    assert (gram == gram.T).all()
    assert (np.diag(gram) == (q - 1) ** 2 // 4).all()


def test_gram_special_entries(models):
    for q in (5, 7, 9):
        D = models[q]
        G = D.group
        gram = D.gram_bruteforce()
        zi = D.omega_index[(0, G.infinity)]
        swap = D.omega_index[(G.infinity, 0)]
        one_zero = D.omega_index[(1, 0)]
        assert gram[zi, swap] == (0 if q % 4 == 1 else (q - 1) // 2)
        assert gram[zi, one_zero] == ((q - 1) // 4 if q % 4 == 1 else (q - 3) // 4)
        mixed = D.omega_index[(0, 2)]  # same source as (0, inf), different target
        assert gram[zi, mixed] == 0


@pytest.mark.parametrize("q", [5, 7, 9])
def test_gram_closed_form_matches(models, q):
    D = models[q]
    assert (D.gram_bruteforce() == D.gram_closed()).all()


def test_gram_entry_closed_validation(models):
    D = models[5]
    with pytest.raises(NotInOmegaError):
        D.gram_entry_closed((0, 0), (1, 2))
    with pytest.raises(NotInOmegaError):
        D.gram_entry_closed((0, 1), (7, 2))


@pytest.mark.parametrize("q", [5, 7])
def test_gram_relabeling_invariance(models, q):
    D = models[q]
    G = D.group
    gram = D.gram_bruteforce()
    rng = random.Random(5)
    els = G.elements("pgl")
    for _ in range(200):
        r_pair, c_pair = rng.choice(D.omega), rng.choice(D.omega)
        g = rng.choice(els)
        moved_r = (G.act(r_pair[0], g), G.act(r_pair[1], g))
        moved_c = (G.act(c_pair[0], g), G.act(c_pair[1], g))
        assert (
            gram[D.omega_index[r_pair], D.omega_index[c_pair]]
            == gram[D.omega_index[moved_r], D.omega_index[moved_c]]
        )


@pytest.mark.parametrize("q", [5, 7, 9])
def test_kernel_vectors(models, q):
    D = models[q]
    G = D.group
    m = D.build_m()
    left, right = D.kernel_vectors()
    for v in left.values():
        assert not (m @ v).any()
    for v in right.values():
        assert not (m @ v).any()
    stack = [left[(0, b)] for b in G.points if b != 0]
    stack += [right[(0, b)] for b in G.points if b != 0]
    assert bareiss_rank(np.array(stack).tolist()) == 2 * q
    assert bareiss_rank(np.array(stack[: q]).tolist()) == q
    # difference relation within one family
    assert (left[(0, 1)] - left[(0, 2)] == left[(2, 1)]).all()
    assert not (D.gram_bruteforce() @ left[(0, 1)]).any()


@pytest.mark.parametrize("q,rank", [(5, 20), (7, 42), (9, 72)])
def test_rank(models, q, rank):
    D = models[q]
    assert bareiss_rank(D.build_m().tolist()) == rank
    assert bareiss_rank(D.gram_bruteforce().tolist()) == rank
    assert rank + 2 * q <= q * (q + 1)
    # the kernel-witnessed modular rank agrees with Bareiss without falling back
    kernel = D.kernel_basis()
    assert kernel.shape == (2 * q, q * (q + 1))
    method = f"mod {PRIMES[0]}, kernel bound {rank}"
    assert D.rank_of_m() == (rank, method)
    assert D.rank_of_m() is D.rank_of_m()
    assert rank_with_kernel(D.gram_bruteforce(), kernel) == (rank, method)


@pytest.mark.parametrize("q", [5, 7])
def test_gram_commutes_with_pair_action(models, q):
    # N represents a module endomorphism: it commutes with every pair
    # permutation induced by the group action
    D = models[q]
    G = D.group
    gram = D.gram_bruteforce()
    n = len(D.omega)
    rng = random.Random(6)
    for _ in range(10):
        g = rng.choice(G.elements("pgl"))
        perm = np.zeros((n, n), dtype=np.int64)
        for idx, (a, b) in enumerate(D.omega):
            perm[idx, D.omega_index[(G.act(a, g), G.act(b, g))]] = 1
        assert (perm @ gram == gram @ perm).all()


def _coordinates_in_basis(basis_rows, vector):
    """Exact coordinates of vector in the row span, or None."""
    from fractions import Fraction

    k = len(basis_rows)
    n = len(vector)
    aug = [[Fraction(int(row[j])) for row in basis_rows] + [Fraction(int(vector[j]))] for j in range(n)]
    coords = [Fraction(0)] * k
    rank = 0
    pivots = []
    for col in range(k):
        pivot = next((i for i in range(rank, n) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for i in range(n):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    if any(aug[i][k] for i in range(rank, n)):
        return None
    for r, col in enumerate(pivots):
        coords[col] = aug[r][k]
    return coords


@pytest.mark.parametrize("q", [5, 7])
def test_kernel_affords_doubled_standard_character(models, q):
    # the 2q-dimensional witnessed kernel is two copies of the standard
    # module: the trace of every class representative on it equals twice
    # (fixed points - 1)
    D = models[q]
    G = D.group
    T = D.table
    left, right = D.kernel_vectors()
    basis_keys = [("l", b) for b in G.points if b != 0] + [("r", b) for b in G.points if b != 0]
    basis = [left[(0, b)] if side == "l" else right[(0, b)] for side, b in basis_keys]
    psi1 = T.chars[2]
    for label, rep in zip(T.classes, T.representatives):
        trace = 0
        for (side, b), vec in zip(basis_keys, basis):
            a_img, b_img = G.act(0, rep), G.act(b, rep)
            image = left[(a_img, b_img)] if side == "l" else right[(a_img, b_img)]
            coords = _coordinates_in_basis(basis, image)
            assert coords is not None  # the kernel is invariant
            trace += coords[basis_keys.index((side, b))]
        assert trace == 2 * T.value_on_class(psi1, label).as_fraction(), label


@pytest.mark.parametrize("q", [5, 7])
def test_restricted_sums_match_closed_forms(models, q):
    D = models[q]
    G = D.group
    inf = G.infinity
    swap = ((0, inf), (inf, 0))
    targets = [chi for chi in D.target_characters() if chi.kind != "lambda1"]
    for chi in targets:
        brute = D.restricted_char_sum(chi, swap)
        assert brute == D.restricted_sum_closed_form(chi, swap)
        assert brute == D.restricted_char_sum(chi, swap, inverse=False)
        for d in range(2, q):
            constraint = ((0, inf), (1, d))
            brute = D.restricted_char_sum(chi, constraint)
            assert brute == D.restricted_sum_closed_form(chi, constraint)
            assert brute == D.restricted_char_sum(chi, constraint, inverse=False)


def test_restricted_swap_example_q5(models):
    # psi_minus1 over the swap constraint: phi(-1) * (q - 1) = 4 at q = 5
    D = models[5]
    psi_m1 = D.table.chars[3]
    assert D.restricted_char_sum(psi_m1, ((0, D.group.infinity), (D.group.infinity, 0))) == 4


def test_restricted_closed_form_validation(models):
    D = models[5]
    psi_m1 = D.table.chars[3]
    with pytest.raises(NotInOmegaError):
        D.restricted_sum_closed_form(psi_m1, ((0, D.group.infinity), (1, 0)))
    psi1 = D.table.chars[2]
    with pytest.raises(UnsupportedCharacterError):
        D.restricted_char_sum(psi1, ((0, D.group.infinity), (D.group.infinity, 0)))


@pytest.mark.parametrize("q", [5, 7, 9])
def test_character_sums_triple_equality(models, q):
    D = models[q]
    gram = D.gram_bruteforce()
    lam1 = D.table.chars[0]
    assert D.character_sum_direct(lam1, gram) == D.lambda1_value()
    for chi in D.target_characters():
        if chi.kind == "lambda1":
            continue
        direct = D.character_sum_direct(chi, gram)
        assembled = D.character_sum_assembled(chi)
        closed = D.character_sum_closed_form(chi)
        assert direct == assembled == closed, chi.name()
        assert not direct.is_zero()


def test_lambda1_value_q5(models):
    assert models[5].lambda1_value() == 96


def test_unsupported_characters(models):
    D = models[5]
    psi1, lam_m1 = D.table.chars[2], D.table.chars[1]
    with pytest.raises(UnsupportedCharacterError):
        D.character_sum_direct(psi1)
    with pytest.raises(UnsupportedCharacterError):
        D.character_sum_closed_form(lam_m1)
    lam1 = D.table.chars[0]
    with pytest.raises(UnsupportedCharacterError):
        D.character_sum_assembled(lam1)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_dimension_ledger(models, q):
    D = models[q]
    assert D.dimension_ledger() == q * (q - 1)


@pytest.mark.parametrize("q", [5, 7])
def test_rank_certificate(models, q):
    report = models[q].rank_certificate()
    assert report["pass"]
    assert report["rank"] == report["expected_rank"] == q * (q - 1)
    assert report["rank_method"] == f"mod {PRIMES[0]}, kernel bound {q * (q - 1)}"
    assert all(c["nonzero"] for c in report["characters"])
    kinds = [c["kind"] for c in report["characters"]]
    assert kinds.count("eta") == (q - 1) // 2
    assert kinds.count("nu") == (q - 3) // 2
    assert kinds.count("lambda1") == kinds.count("psi_minus1") == 1


def _char_sum_per_element(D, chi, pairs, inverse=True):
    """The oracle: chi(g^(-1)) (or chi(g)) added one element at a time."""
    G, T = D.group, D.table
    acc = CycNum.zero()
    for g in G.elements_with_constraints(pairs):
        acc = acc + T.char_value(chi, G.inv(g) if inverse else g)
    return acc


@pytest.mark.parametrize("q", [5, 7, 9])
def test_class_sum_of_class_counts_matches_per_element_sums(models, q):
    D = models[q]
    G = D.group
    inf = G.infinity
    rng = random.Random(q)
    constraints = [((0, 0),), ((0, inf),), ((inf, 1),), ((0, 0), (inf, inf)), ((0, inf), (inf, 0))]
    constraints += [((0, inf), (1, d)) for d in range(2, q)]
    for _ in range(4):
        sources = rng.sample(range(q + 1), 3)
        targets = rng.sample(range(q + 1), 3)
        constraints.append(tuple(zip(sources, targets)))
    for pairs in constraints:
        for inverse in (True, False):
            counts = D.class_counts(pairs, inverse)
            assert sum(counts) == len(G.elements_with_constraints(pairs))
            for chi in D.table.chars:
                expected = _char_sum_per_element(D, chi, pairs, inverse)
                assert D.table.class_sum(chi, counts) == expected, (pairs, inverse, chi.name())


def test_class_sum_needs_one_count_per_class(models):
    T = models[5].table
    with pytest.raises(ValueError):
        T.class_sum(T.chars[0], [1] * (len(T.classes) - 1))


def test_frobenius_side_conditions(models):
    D = models[5]
    G = D.group
    T = D.table
    inf = G.infinity

    for chi in D.target_characters():
        if chi.kind == "lambda1":
            continue
        both = T.class_sum(chi, D.class_counts(((0, 0), (inf, inf))))
        assert both == 4  # q - 1
        s_both, s0, s_inf = CycNum.zero(), CycNum.zero(), CycNum.zero()
        for g in G.elements("pgl"):
            if G.act(0, g) == 0 and G.act(inf, g) == inf:
                s_both = s_both + T.char_value(chi, G.inv(g))
            if G.act(0, g) == 0:
                s0 = s0 + T.char_value(chi, G.inv(g))
            if G.act(0, g) == inf:
                s_inf = s_inf + T.char_value(chi, G.inv(g))
        assert s_both == both
        assert T.class_sum(chi, D.class_counts([(0, 0)])) == s0
        assert T.class_sum(chi, D.class_counts([(0, inf)])) == s_inf
        assert s0.is_zero() and s_inf.is_zero()
