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
from psl2q import intrank
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
    assert m.dtype == np.int8
    assert (gram == m.astype(np.int64).T @ m).all()
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


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25])
def test_gram_closed_form_matches(models, q):
    D = models[q] if q in models else _fresh_model(q)
    gram = D.gram_bruteforce()
    assert (gram == D.gram_closed()).all()
    rng = random.Random(q)
    for _ in range(30):
        row, col = rng.choice(D.omega), rng.choice(D.omega)
        assert D.gram_entry_closed(row, col) == gram[D.omega_index[row], D.omega_index[col]]


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


def _fresh_model(q):
    return DerangementModel(build_table(PGL2(field_ctx_for_q(q))))


@pytest.mark.parametrize("q", [5, 7])
def test_rank_of_m_follows_n_to_bareiss_when_n_falls_short(monkeypatch, q):
    # a rank of N mod p below the bound must not decide: Bareiss does, for N
    # and so for M, and Bareiss on M itself is the oracle
    D = _fresh_model(q)
    n_cols = q * (q + 1)
    true_modular_rank = intrank.modular_rank

    def short_on_n(matrix, p=PRIMES[0]):
        rank = true_modular_rank(matrix, p)
        return rank - 1 if np.shape(matrix) == (n_cols, n_cols) else rank

    monkeypatch.setattr(intrank, "modular_rank", short_on_n)
    expected = (q * (q - 1), "Bareiss")
    assert D.rank_of_m() == D.rank_of_gram() == expected == (bareiss_rank(D.build_m().tolist()), "Bareiss")


def test_rank_of_m_reads_n_without_eliminating_m(monkeypatch):
    D = _fresh_model(7)
    shapes = []
    true_modular_rank = intrank.modular_rank

    def recording(matrix, p=PRIMES[0]):
        shapes.append(np.shape(matrix))
        return true_modular_rank(matrix, p)

    monkeypatch.setattr(intrank, "modular_rank", recording)
    assert D.rank_of_m() == D.rank_of_gram() == (42, f"mod {PRIMES[0]}, kernel bound 42")
    assert D.build_m().shape not in shapes


def test_unannihilated_kernel_sends_both_ranks_to_bareiss(monkeypatch):
    D = _fresh_model(5)
    kernel = D.kernel_basis().copy()
    kernel[0, 0] += 1
    monkeypatch.setattr(D, "kernel_basis", lambda: kernel)
    assert D.rank_of_gram() == (20, "Bareiss")
    assert D.rank_of_m() == (20, "Bareiss")


@pytest.mark.parametrize("q", [5, 7])
def test_annihilates_matches_the_matrix_product(models, q):
    D = models[q]
    m = D.build_m().astype(np.int64)
    rng = np.random.default_rng(q)
    left, right = D.kernel_vectors()
    witnesses = np.array([*left.values(), *right.values()])
    assert D.annihilates(witnesses)
    assert not (m @ witnesses.T).any()
    for scale in (1, 2**40):
        vectors = witnesses * scale
        vectors[rng.integers(len(vectors))] += rng.integers(-1, 2, size=m.shape[1])
        assert D.annihilates(vectors) == (not (m.astype(object) @ vectors.astype(object).T).any())
        assert D.annihilates(vectors.astype(object) * 2**40) == D.annihilates(vectors)
    assert all(D.annihilates(v) for v in left.values())


def test_kernel_vectors_match_the_pointwise_definition(models):
    D = models[5]
    points = D.group.points
    left, right = D.kernel_vectors()
    assert list(left) == list(right) == D.omega
    for a, b in D.omega:
        lv = np.zeros(len(D.omega), dtype=np.int64)
        rv = np.zeros(len(D.omega), dtype=np.int64)
        for p in points:
            if p not in (a, b):
                lv[D.omega_index[(a, p)]] += 1
                lv[D.omega_index[(b, p)]] -= 1
                rv[D.omega_index[(p, a)]] += 1
                rv[D.omega_index[(p, b)]] -= 1
        lv[D.omega_index[(a, b)]] += 1
        lv[D.omega_index[(b, a)]] -= 1
        rv[D.omega_index[(b, a)]] += 1
        rv[D.omega_index[(a, b)]] -= 1
        assert (left[(a, b)] == lv).all() and (right[(a, b)] == rv).all()
    assert D.kernel_vectors() is D.kernel_vectors()


@pytest.mark.parametrize("q", [5, 9])
def test_build_m_against_the_action(models, q):
    D = models[q]
    G = D.group
    expected = np.zeros((len(G.derangements()), len(D.omega)), dtype=np.int64)
    for i, g in enumerate(G.derangements()):
        for a in G.points:
            expected[i, D.omega_index[(a, G.act(a, g))]] = 1
    assert (D.build_m() == expected).all()


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
    # the per-element fact behind the rank suite's "g and g^(-1) sums agree"
    assert (D.classes_by_position(True) == D.classes_by_position(False)).all()


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


@pytest.mark.parametrize("q", [5, 7, 9])
def test_classes_by_position_match_classify(models, q):
    D = models[q]
    G, where = D.group, D.table.class_index
    elements = G.elements("pgl")
    assert D.classes_by_position(False).tolist() == [where[G.classify(g)] for g in elements]
    assert D.classes_by_position(True).tolist() == [where[G.classify(G.inv(g))] for g in elements]


def test_inverse_classes_are_classified_separately(monkeypatch):
    # the rank suite's "g and g^(-1) sums agree" compares two lists; the
    # inverse one must come from the inverse matrices, not be the other list
    D = _fresh_model(5)
    G = D.group
    class_array = G.class_array
    seen = []
    monkeypatch.setattr(G, "class_array", lambda elements: seen.append(elements) or class_array(elements))
    D.classes_by_position(False)
    D.classes_by_position(True)
    assert len(seen) == 2
    inverses = [G.normalize(tuple(row)) for row in np.asarray(seen[1]).tolist()]
    assert inverses == [G.inv(g) for g in G.elements("pgl")]


def _direct_counts_per_element(D, gram):
    """The oracle: the direct sum's class counts, with one class lookup and
    one dict lookup per element of PGL(2,q)."""
    G, where = D.group, D.table.class_index
    row = gram[D.zero_inf].tolist()
    counts = [0] * len(D.table.classes)
    for g in G.elements("pgl"):
        counts[where[G.classify(G.inv(g))]] += row[D.omega_index[G.act(0, g), G.act(G.infinity, g)]]
    return counts


@pytest.mark.parametrize("q", [5, 7, 9, 25])
def test_character_sum_direct_matches_the_per_element_loop(models, q):
    D = models[q] if q in models else _fresh_model(q)
    gram = D.gram_bruteforce()
    # any integer row, not only the Gram row, weighs every element the same way
    rng = np.random.default_rng(q)
    scrambled = gram.copy()
    scrambled[D.zero_inf] = rng.integers(-50, 50, size=len(D.omega))
    for matrix in (gram, scrambled):
        counts = _direct_counts_per_element(D, matrix)
        for chi in D.target_characters():
            assert D.character_sum_direct(chi, matrix) == D.table.class_sum(chi, counts), chi.name()
