"""Tests for the derangement matrix, Gram matrix, kernel and character sums."""

import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from psl2q.chartable import build_table
from psl2q.charsums import CharacterSums
from psl2q.cyclotomic import CycNum
from psl2q.derangement import DerangementModel
from psl2q.errors import UnsupportedCharacterError
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2
from psl2q import intrank
from psl2q.intrank import PRIMES, bareiss_rank, modular_rank
from psl2q.verify import run_suite


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
    # no entry passes rows * (q+1)^2, which is below 2^31 here: N is int32
    assert len(m) * (q + 1) ** 2 < 2**31 and gram.dtype == np.int32
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


def _entry_oracle(D, c, d):
    """N[(0, inf), (c, d)] from the case analysis of the entry counts, one
    entry at a time with scalar field operations."""
    q, ctx, inf = D.q, D.ctx, D.group.infinity
    if (c, d) == (0, inf):
        return (q - 1) ** 2 // 4
    if c == 0 or d == inf:
        return 0
    if (c, d) == (inf, 0):
        return 0 if q % 4 == 1 else (q - 1) // 2
    if c == inf or d == 0:
        return (q - 1) // 4 if q % 4 == 1 else (q - 3) // 4
    dd = ctx.mul(d, ctx.inv(c))
    val = (
        Fraction(q - 1, 4)
        - Fraction(ctx.phi_int(ctx.sub(1, dd)), 2)
        - Fraction(q, 4) * D.sums.legendre_phi(ctx.sub(ctx.add(dd, dd), 1))
    )
    assert val.denominator == 1
    return int(val)


def _gram_entry_closed(D, row_pair, col_pair):
    """The oracle for one N entry: an element g sending row_pair to (0, inf),
    found by constraint and applied by `act`, carries the entry to the
    closed-form row (0, inf) at the images of col_pair."""
    G = D.group
    a, b = row_pair
    g = G.elements_with_constraints([(a, 0), (b, G.infinity)])[0]
    return _entry_oracle(D, G.act(col_pair[0], g), G.act(col_pair[1], g))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25])
def test_gram_closed_form_matches(models, q, monkeypatch):
    D = models[q] if q in models else _fresh_model(q)
    gram = D.gram_bruteforce()
    assert (gram == D.gram_closed()).all()
    assert D.gram_row_zero_inf_closed().tolist() == [_entry_oracle(D, c, d) for c, d in D.omega]
    # the suites read N only through its counted row and block-counted entries
    assert (D.gram_row_zero_inf() == gram[D.zero_inf]).all()
    rng = random.Random(q)
    pairs = [(rng.choice(D.omega), rng.choice(D.omega)) for _ in range(30)]
    for row, col in pairs:
        assert _gram_entry_closed(D, row, col) == gram[D.omega_index[row], D.omega_index[col]]
    if q <= 9:
        rows, cols = np.divmod(np.arange(gram.size), len(D.omega))
    else:
        rows, cols = np.array([(D.omega_index[r], D.omega_index[c]) for r, c in pairs]).T
    assert (D.gram_entries(rows, cols) == gram[rows, cols]).all()
    # blocks of 7 entries, the last one short
    monkeypatch.setattr(D, "ENTRY_BLOCK", 7 * len(D.columns()))
    assert (D.gram_entries(rows, cols) == gram[rows, cols]).all()


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


def _witnesses(D):
    """l[a,b] = first[a] - first[b] and r[a,b] = second[a] - second[b] for
    every pair (a, b), in omega order, from the indicator rows."""
    first, second = D.kernel_vectors()
    left = {(a, b): first[a] - first[b] for a, b in D.omega}
    right = {(a, b): second[a] - second[b] for a, b in D.omega}
    return left, right


def _pointwise_witnesses(D):
    """l[a,b] and r[a,b] from their definition: +1 on (a, p) and -1 on
    (b, p) for p outside {a, b}, +1 on (a, b) and -1 on (b, a); r mirrored."""
    left, right = {}, {}
    for a, b in D.omega:
        lv = np.zeros(len(D.omega), dtype=np.int64)
        rv = np.zeros(len(D.omega), dtype=np.int64)
        for p in D.group.points:
            if p not in (a, b):
                lv[D.omega_index[(a, p)]] += 1
                lv[D.omega_index[(b, p)]] -= 1
                rv[D.omega_index[(p, a)]] += 1
                rv[D.omega_index[(p, b)]] -= 1
        lv[D.omega_index[(a, b)]] += 1
        lv[D.omega_index[(b, a)]] -= 1
        rv[D.omega_index[(b, a)]] += 1
        rv[D.omega_index[(a, b)]] -= 1
        left[(a, b)], right[(a, b)] = lv, rv
    return left, right


@pytest.mark.parametrize("q", [5, 7, 9])
def test_kernel_vectors(models, q):
    D = models[q]
    G = D.group
    m = D.build_m()
    left, right = _witnesses(D)
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
    # the kernel M witnesses is one of N too, and the Schur bound on N meets
    # it, in agreement with Bareiss
    kernel = D.kernel_basis()
    assert kernel.shape == (2 * q, q * (q + 1))
    assert modular_rank(kernel) == 2 * q and not (D.gram_bruteforce() @ kernel.T).any()
    assert D.kernel_witnessed() and D.schur_bound() == rank
    assert D.rank_of_m() == (rank, f"Schur, kernel bound {rank}")
    assert D.schur_hypotheses() is D.schur_hypotheses()


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17, 19, 23, 25])
def test_elimination_of_n_agrees_with_the_schur_rank(q):
    # elimination is the independent oracle of the rank the Schur bound decides
    D = _fresh_model(q)
    rank, method = D.rank_of_m()
    assert method == f"Schur, kernel bound {q * (q - 1)}"
    assert all(modular_rank(D.gram_bruteforce(), p) == rank for p in PRIMES)


def _fresh_model(q):
    return DerangementModel(build_table(PGL2(field_ctx_for_q(q))))


def _zero_scalar(monkeypatch, D):
    """Break a Schur hypothesis: the model reads t(psi_minus1) from N as 0."""
    direct = D.direct_sums()
    psi = next(chi for chi in direct if chi.kind == "psi_minus1")
    monkeypatch.setattr(D, "direct_sums", lambda: {**direct, psi: CycNum.zero()})
    assert not D.schur_hypotheses()["scalars_nonzero"] and D.schur_bound() == 0


@pytest.mark.parametrize("q", [5, 7, 9, 25])
def test_pair_counts_match_the_permutation_character(q):
    # the action's fixed pairs, summed per class, against |C| pi(C) from the
    # table's closed form; pi decomposes with every target once
    D = _fresh_model(q)
    pi = D.table.permutation_character()
    assert D.pair_counts().tolist() == [size * v.as_fraction() for size, v in zip(D.table.sizes, pi)]
    multiplicities = D.table.decompose(pi)
    assert all(multiplicities[chi.name()] == 1 for chi in D.target_characters())
    assert D.targets_occur_once()


@pytest.mark.parametrize("q", [5, 7, 9])
def test_schur_hypotheses_hold(models, q):
    D = models[q]
    assert D.schur_hypotheses() == dict.fromkeys(
        ["whole_pgl_classes", "targets_occur_once", "scalars_nonzero", "dimension_ledger", "table_orthogonality"],
        True,
    )
    assert D.schur_bound() == D.dimension_ledger() == q * (q - 1)


@pytest.mark.parametrize("q", [5, 7, 9, 25])
def test_images_of_zero_one_infinity_fix_an_element(q):
    # the key `whole_classes` sorts is injective on all of PGL (sharp
    # 3-transitivity), so it repeats exactly when a row of M does
    G = _fresh_model(q).group
    pgl = G.element_array("pgl")
    triples = {tuple(row) for row in G.image_array(pgl, [0, 1, G.infinity]).tolist()}
    assert len(triples) == len({tuple(row) for row in G.image_array(pgl).tolist()}) == (q + 1) * q * (q - 1)


def _repeated_row(monkeypatch, D):
    """Replace a derangement by another of its class: every class count is
    kept, but one row of M repeats."""
    ders = D.group.derangement_array().copy()
    classes = D.group.class_array(ders)
    ders[np.flatnonzero(classes == classes[0])[1]] = ders[0]
    monkeypatch.setattr(D.group, "derangement_array", lambda: ders)


def test_a_repeated_row_is_not_a_union_of_classes(monkeypatch):
    # only the repeated row of M shows that D is no longer conjugation-invariant
    D = _fresh_model(7)
    counts = np.bincount(D.group.class_array(D.group.derangement_array())).tolist()
    _repeated_row(monkeypatch, D)
    assert np.bincount(D.group.class_array(D.group.derangement_array())).tolist() == counts
    assert not D.whole_classes() and D.schur_bound() == 0


def _recording_modular_rank(monkeypatch):
    """Log the shape and prime of every `modular_rank` call made through any
    psl2q module."""
    calls = []
    true_modular_rank = intrank.modular_rank

    def recording(matrix, p=PRIMES[0]):
        calls.append((np.shape(matrix), p))
        return true_modular_rank(matrix, p)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "psl2q"]:
        if getattr(module, "modular_rank", None) is true_modular_rank:
            monkeypatch.setattr(module, "modular_rank", recording)
    return calls


@pytest.mark.parametrize("q", [11, 13])
def test_rank_suite_eliminates_only_the_kernel_witnesses(monkeypatch, q):
    # the Schur bound decides, and the kernel check reads the model's one
    # witness: K, once, is the only matrix eliminated
    calls = _recording_modular_rank(monkeypatch)
    report = run_suite("rank", q)
    assert report["pass"] is True
    assert report["certificate"]["rank_method"] == f"Schur, kernel bound {q * (q - 1)}"
    assert calls == [((2 * q, q * (q + 1)), PRIMES[0])]


def _extra_one_in_first(monkeypatch, D):
    """One extra 1 in first[0], at the pair (1, 2): M first[0] is 2 on every
    derangement sending 1 to 2, so M witnesses no kernel."""
    first, second = (v.copy() for v in D.kernel_vectors())
    first[0, D.omega_index[(1, 2)]] += 1
    monkeypatch.setattr(D, "kernel_vectors", lambda: (first, second))


def _dependent_kernel(monkeypatch, D):
    """l[0,1] twice: M still kills every row of K, but the rows span 2q - 1
    dimensions, so the bound q(q+1) - 2q is not witnessed."""
    kernel = D.kernel_basis().copy()
    kernel[1] = kernel[0]
    monkeypatch.setattr(D, "kernel_basis", lambda: kernel)


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize(
    "breaks,schur,witnessed",
    [
        (_zero_scalar, False, True),
        (_extra_one_in_first, True, False),
        (_dependent_kernel, True, False),
        (_repeated_row, False, True),
    ],
    ids=["zero_scalar", "extra_one_in_first", "dependent_kernel", "repeated_row"],
)
def test_a_broken_certificate_leaves_the_rank_undecided(monkeypatch, q, breaks, schur, witnessed):
    # the rank is reported as undecided, naming both bounds, and no matrix the
    # size of N is eliminated on the way
    calls = _recording_modular_rank(monkeypatch)
    D = _fresh_model(q)
    breaks(monkeypatch, D)
    bound = q * (q - 1)
    schur_bound, kernel_bound = bound if schur else 0, bound if witnessed else None
    assert D.rank_of_m() == (None, f"undecided (Schur bound {schur_bound}, kernel bound {kernel_bound})")
    certificate = D.rank_certificate()
    assert certificate["rank"] is None and certificate["pass"] is False
    assert all(shape != (q * (q + 1), q * (q + 1)) for shape, _ in calls)


@pytest.mark.parametrize("q", [5, 7])
def test_m_times_matches_the_matrix_product(models, q):
    D = models[q]
    m = D.build_m().astype(np.int64)
    rng = np.random.default_rng(q)
    first, second = D.kernel_vectors()
    indicators = np.vstack([first, second])
    assert (D.m_times(indicators) == 1).all() and (m @ indicators.T == 1).all()
    left, right = _witnesses(D)
    witnesses = np.array([*left.values(), *right.values()])
    assert not D.m_times(witnesses).any()
    assert not (m @ witnesses.T).any()
    for scale in (1, 2**40):
        vectors = witnesses * scale
        vectors[rng.integers(len(vectors))] += rng.integers(-1, 2, size=m.shape[1])
        expected = m.astype(object) @ vectors.astype(object).T
        assert (D.m_times(vectors) == expected).all()
        assert (D.m_times(vectors.astype(object) * 2**40) == expected * 2**40).all()
    assert D.m_times(first[0]).shape == (len(m),)
    assert all(not D.m_times(v).any() for v in left.values())


def test_kernel_vectors_match_the_pointwise_definition(models):
    D = models[5]
    first, second = D.kernel_vectors()
    assert first.shape == second.shape == (D.q + 1, len(D.omega))
    for x in D.group.points:
        assert (first[x] == [a == x for a, _ in D.omega]).all()
        assert (second[x] == [b == x for _, b in D.omega]).all()
    left, right = _witnesses(D)
    pointwise_left, pointwise_right = _pointwise_witnesses(D)
    for pair in D.omega:
        assert (left[pair] == pointwise_left[pair]).all() and (right[pair] == pointwise_right[pair]).all()
    others = [b for b in D.group.points if b != 0]
    assert (D.kernel_basis() == [left[(0, b)] for b in others] + [right[(0, b)] for b in others]).all()
    assert D.kernel_vectors() is D.kernel_vectors()


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_indicator_premise_agrees_with_every_witness(q):
    # the dense M, exactly, against all 2q(q+1) witnesses built pointwise:
    # they are killed exactly when M first[x] = M second[x] = 1 for all x
    D = _fresh_model(q)
    m = D.build_m().astype(object)
    left, right = _pointwise_witnesses(D)
    witnesses = np.array([*left.values(), *right.values()], dtype=object)
    assert len(witnesses) == 2 * q * (q + 1)
    assert not (m @ witnesses.T).any()
    first, second = D.kernel_vectors()
    assert (D.m_times(np.vstack([first, second])) == 1).all()


@pytest.mark.parametrize("compensate", [False, True])
def test_a_repeated_column_fails_the_shape_and_kernel_checks(monkeypatch, compensate):
    # one derangement's row names a pair twice and drops another, so the 0/1
    # matrix has a row sum of q and M first[x] is 2 at one point; with
    # compensate, a second row trades the pairs back and every column sum holds
    columns = DerangementModel.columns

    def repeated(self):
        fresh = self._m_columns is None
        out = columns(self)
        if fresh:
            kept, dropped = out[0, 0], out[0, 1]
            out[0, 1] = kept
            if compensate:
                j = next(j for j in range(1, len(out)) if kept in out[j] and dropped not in out[j])
                out[j][out[j] == kept] = dropped
        return out

    monkeypatch.setattr(DerangementModel, "columns", repeated)
    D = _fresh_model(5)
    assert not (D.m_times(np.vstack(D.kernel_vectors())) == 1).all()
    if compensate:
        assert (np.bincount(D.columns().ravel()) == 4).all()
    report = run_suite("rank", 5)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert {"derangement_matrix_shape", "kernel_witness"} <= failed and report["pass"] is False


def test_rank_suite_builds_neither_m_nor_a_dense_n(monkeypatch):
    # N is read through its counted (0, inf) row and block-counted entries
    def refuse(self):
        raise AssertionError("the rank suite built M or a dense N")

    for name in ("build_m", "gram_bruteforce", "gram_closed"):
        monkeypatch.setattr(DerangementModel, name, refuse)
    assert run_suite("rank", 7)["pass"] is True


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
    left, right = _witnesses(D)
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


def _restricted_closed_form(D, chi, constraint):
    """The closed form of chi's restricted sum over one constraint: row 0 of
    `restricted_closed_forms` for the swap 0 <-> infinity, row d - 1 for
    0 -> infinity with 1 -> d."""
    inf = D.group.infinity
    rows = {((0, inf), (inf, 0)): 0, **{((0, inf), (1, d)): d - 1 for d in range(2, D.q)}}
    m = D.q + 1 if chi.kind == "eta" else D.q - 1
    return CycNum.from_zeta_powers(m, D.restricted_closed_forms()[chi][rows[constraint]].tolist())


@pytest.mark.parametrize("q", [5, 7])
def test_restricted_sums_match_closed_forms(models, q):
    D = models[q]
    G = D.group
    inf = G.infinity
    swap = ((0, inf), (inf, 0))
    targets = [chi for chi in D.target_characters() if chi.kind != "lambda1"]
    for chi in targets:
        brute = D.restricted_char_sum(chi, swap)
        assert brute == _restricted_closed_form(D, chi, swap)
        assert brute == D.restricted_char_sum(chi, swap, inverse=False)
        for d in range(2, q):
            constraint = ((0, inf), (1, d))
            brute = D.restricted_char_sum(chi, constraint)
            assert brute == _restricted_closed_form(D, chi, constraint)
            assert brute == D.restricted_char_sum(chi, constraint, inverse=False)
    # the per-element fact behind the rank suite's "g and g^(-1) sums agree"
    assert (D.classes_by_position(True) == D.classes_by_position(False)).all()


def test_restricted_swap_example_q5(models):
    # psi_minus1 over the swap constraint: phi(-1) * (q - 1) = 4 at q = 5
    D = models[5]
    psi_m1 = D.table.chars[3]
    assert D.restricted_char_sum(psi_m1, ((0, D.group.infinity), (D.group.infinity, 0))) == 4


def test_restricted_sum_rejects_unsupported_characters(models):
    D = models[5]
    psi1 = D.table.chars[2]
    with pytest.raises(UnsupportedCharacterError):
        D.restricted_char_sum(psi1, ((0, D.group.infinity), (D.group.infinity, 0)))


@pytest.mark.parametrize("q", [5, 7, 9])
def test_character_sums_triple_equality(models, q):
    D = models[q]
    lam1 = D.table.chars[0]
    assert D.character_sum_direct(lam1) == D.lambda1_value()
    for chi in D.target_characters():
        if chi.kind == "lambda1":
            continue
        direct = D.character_sum_direct(chi)
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
    assert report["rank_method"] == f"Schur, kernel bound {q * (q - 1)}"
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


def _direct_counts_per_element(D, row):
    """The oracle: the direct sum's class counts over the (0, inf) row of N,
    with one class lookup and one dict lookup per element of PGL(2,q)."""
    G, where = D.group, D.table.class_index
    row = row.tolist()
    counts = [0] * len(D.table.classes)
    for g in G.elements("pgl"):
        counts[where[G.classify(G.inv(g))]] += row[D.omega_index[G.act(0, g), G.act(G.infinity, g)]]
    return counts


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25])
def test_character_sum_direct_matches_the_per_element_loop(models, q, monkeypatch):
    D = models[q] if q in models else _fresh_model(q)
    # any integer row, not only the Gram row, weighs every element the same way
    rng = np.random.default_rng(q)
    for row in (D.gram_bruteforce()[D.zero_inf], rng.integers(-50, 50, size=len(D.omega))):
        monkeypatch.setattr(D, "gram_row_zero_inf", lambda: row)
        counts = _direct_counts_per_element(D, row)
        for chi in D.target_characters():
            assert D.character_sum_direct(chi) == D.table.class_sum(chi, counts), chi.name()


def _assembled_oracle(D, chi):
    """t(chi) assembled one constraint at a time: per-element restricted sums
    against the scalar closed-form Gram entries, branching on q mod 4."""
    q, G = D.q, D.group
    inf = G.infinity
    h = G.swap_one_infinity()
    swap = _char_sum_per_element(D, chi, ((0, inf), (inf, 0)))
    total = CycNum.rational(Fraction((q - 1) ** 3, 4))
    total = total - swap * Fraction(q - 1, 2) if q % 4 == 1 else total + swap
    for b in range(2, q):
        inner = _char_sum_per_element(D, chi, ((0, inf), (1, G.act(b, h))))
        total = total + inner * ((q - 1) * _entry_oracle(D, 1, b))
    return total


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25])
def test_batched_sums_match_the_per_element_loops(models, q):
    D = models[q] if q in models else _fresh_model(q)
    inf = D.group.infinity
    constraints = [((0, inf), (inf, 0))] + [((0, inf), (1, d)) for d in range(2, q)]
    brute, closed = D.restricted_sums(), D.restricted_closed_forms()
    targets = [chi for chi in D.target_characters() if chi.kind != "lambda1"]
    assert set(brute) == set(closed) == set(targets)
    for chi in targets:
        m = q + 1 if chi.kind == "eta" else q - 1
        assert brute[chi].shape == closed[chi].shape == (q - 1, len(CycNum.root_of_unity(m, 1).nums))
        for r, pairs in enumerate(constraints):
            expected = _char_sum_per_element(D, chi, pairs)
            assert CycNum.from_zeta_powers(m, brute[chi][r].tolist()) == expected, (chi.name(), pairs)
            assert _restricted_closed_form(D, chi, pairs) == expected, (chi.name(), pairs)
        assert D.character_sum_assembled(chi) == _assembled_oracle(D, chi), chi.name()


def _failed_checks(report):
    return {c["name"] for c in report["checks"] if not c["pass"]}


def test_an_off_by_one_legendre_entry_fails_the_rank_suite(monkeypatch):
    # at q = 7 the entry q P_gamma(0) of nu[1] enters only the restricted
    # closed form at d = 4 (2d - 1 = 0): the cross sum of t(nu[1]) weighs it
    # by q P_phi(2b - 1) at b = 6, the b with b^h = 4, and that is 0
    legendre_table = CharacterSums.legendre_table

    def off_by_one(self):
        table = legendre_table(self).copy()
        table[1, 0, 0] += 1
        return table

    monkeypatch.setattr(CharacterSums, "legendre_table", off_by_one)
    report = run_suite("rank", 7)
    assert "restricted_sums_match_closed_forms" in _failed_checks(report)
    assert report["pass"] is False


def test_a_shifted_class_count_row_fails_the_rank_suite(monkeypatch):
    restricted_counts = DerangementModel.restricted_counts

    def shifted(self):
        counts = restricted_counts(self).copy()
        counts[2] = np.roll(counts[2], 1)
        return counts

    monkeypatch.setattr(DerangementModel, "restricted_counts", shifted)
    report = run_suite("rank", 7)
    failed = _failed_checks(report)
    assert {"restricted_sums_match_closed_forms", "character_sums_triple_equality"} <= failed
    assert report["pass"] is False
