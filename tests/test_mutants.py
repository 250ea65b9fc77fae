"""Each test plants one fault in the program and checks that the sums, the
rank or the ekr suite reports it: the named check fails at q = 5 and 7, and
for the faults in the Schur certificate of the rank also at q = 9, 11, 13
and 25, where the rank is reported as undecided; a closed (0, inf) row of N
one off fails exactly the closed-form check of N at q = 5, 7 and 25; a
doubled Gauss sum fails its two checks at q = 9 and 13; a reduction row one
off fails the sampled cyclotomic arithmetic at q = 5 and 7; the two faults
in the clique search fail at q = 3 too; a form of f one off fails the
expansion of f at q = 5 and 7 and makes the rank suite's closed forms raise.
One more checks that every caller of the Hermitian form reaches the kernel
the fault is planted in.

Not planted, because it is equivalent at q >= 5: dropping one branch of the
clique search together with its class.  Every class of the identity's
neighbours fixes a point, so each remaining branch finds the stabilizers of
its representative's fixed points, and conjugation carries them to every
stabilizer; the reports stay byte-identical at q = 5 to 13 for each branch
dropped.  At q = 3 the one branch is the unipotent class, and dropping it is
the skipped search below."""

import functools

import numpy as np
import pytest

from psl2q import charsums, cyclotomic, ekr
from psl2q.charsums import CharacterSums
from psl2q.chartable import build_table
from psl2q.cyclotomic import CycNum
from psl2q.derangement import DerangementModel
from psl2q.ekr import IntersectionGraph
from psl2q.errors import IdentityViolationError
from psl2q.fields import FieldCtx, field_ctx_for_q
from psl2q.groups import PGL2
from psl2q.verify import run_suite


def _failed(q, suite="sums"):
    return _failed_checks(run_suite(suite, q))


def _failed_checks(report):
    return {c["name"] for c in report["checks"] if not c["pass"]}


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


_reduction = cyclotomic._reduction
_families = DerangementModel.families
_gram_row_zero_inf_closed = DerangementModel.gram_row_zero_inf_closed
_kernel_vectors = DerangementModel.kernel_vectors
_direct_sums = DerangementModel.direct_sums
_pair_counts = DerangementModel.pair_counts
_derangement_array = PGL2.derangement_array
_maximum_cliques = ekr._maximum_cliques
_f_forms = CharacterSums.f_forms
SCHUR_QS = [5, 7, 9, 11, 13, 25]


def _nu_numerator_off_by_one(self):
    """`DerangementModel.families` with one numerator of the first nu row one
    off on the first split class."""
    out = dict(_families(self))
    chars, values = out[self.q - 1]
    row = next(i for i, chi in enumerate(chars) if chi.kind == "nu")
    split = next(j for j, label in enumerate(self.table.classes) if label.kind == "split")
    values = values.copy()
    values[row, split, 0] += 1
    out[self.q - 1] = chars, values
    return out


def _closed_row_off_by_one(self):
    """`DerangementModel.gram_row_zero_inf_closed` one more at the pair
    (1, 0)."""
    row = _gram_row_zero_inf_closed(self).copy()
    row[self.omega_index[(1, 0)]] += 1
    return row


def _kernel_indicator_off(self):
    """`DerangementModel.kernel_vectors` with one extra 1 in first[0], at the
    pair (1, 2)."""
    first, second = _kernel_vectors(self)
    first = first.copy()
    first[0, self.omega_index[(1, 2)]] += 1
    return first, second


def _row_zero_off_by_one(conductor):
    """`cyclotomic._reduction` with the first coefficient of row 0,
    x^phi(m) mod Phi_m, one more at the given conductor."""

    def planted(m):
        record = _reduction(m)
        if m != conductor:
            return record
        (i, c), *rest = record.rows[0]
        return record._replace(rows=[[(i, c + 1), *rest], *record.rows[1:]])

    return planted


def _psi_minus1_scalar_zero(self):
    """`DerangementModel.direct_sums` with t(psi_minus1) read as 0."""
    out = _direct_sums(self)
    psi = next(chi for chi in out if chi.kind == "psi_minus1")
    return {**out, psi: CycNum.zero()}


def _one_nonsplit_derangement_dropped(self):
    """`PGL2.derangement_array` without its first element of a nonsplit class."""
    ders = _derangement_array(self)
    labels = self.class_labels()
    i = next(i for i, c in enumerate(self.class_array(ders)) if labels[c].kind == "nonsplit")
    return np.delete(ders, i, axis=0)


def _pi_off_by_one_on_a_split_class(self):
    """`DerangementModel.pair_counts` with pi one more on the first split
    class: |C| more pairs fixed there."""
    counts = _pair_counts(self).copy()
    c = next(j for j, label in enumerate(self.table.classes) if label.kind == "split")
    counts[c] += self.table.sizes[c]
    return counts


def _unconjugated_form(calls):
    """`cyclotomic.hermitian_form` without the conjugation: Y's exponents are
    negated first, so each product counts at the sum of the exponents, not
    their difference.  Each call appends its conductor to calls."""
    form = cyclotomic.hermitian_form

    def planted(m, weight, x, x_rows, y, y_rows):
        calls.append(m)
        row, summed, exponent, coef = y
        return form(m, weight, x, x_rows, (row, summed, -exponent % m, coef), y_rows)

    return planted


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
    monkeypatch.setattr(cyclotomic, "hermitian_form", _unconjugated_form([]))
    assert "multiplicative_character_orthogonality" in _failed(q)


@pytest.mark.parametrize("q", [9, 13])
def test_a_doubled_gauss_sum_fails_as_reported_checks(monkeypatch, q):
    # g(omega_1) doubled fails its row's verdict; the Katz sums invert only
    # the rows of their parameters, never row 1 at q = 9 and 13 (at q = 5
    # and 7 a 1/(q-1) parameter inverts it, and katz_h raises), so they
    # report a wrong value instead of raising
    gauss_sum = FieldCtx.gauss_sum

    def doubled(self, char, additive_index=1):
        return gauss_sum(self, char, additive_index) * (2 if char.exponent == 1 else 1)

    monkeypatch.setattr(FieldCtx, "gauss_sum", doubled)
    assert _failed(q) == {"gauss_sum_properties", "katz_conversion_and_generator_independence"}


@pytest.mark.parametrize("q", [5, 7])
def test_reduction_row_off_by_one(monkeypatch, q):
    # the sampled products' oracle divides by Phi_(q-1) and reads no row; a
    # fresh matrix cache keeps no planted product matrix past the test
    monkeypatch.setattr(cyclotomic, "_reduction", _row_zero_off_by_one(q - 1))
    monkeypatch.setattr(cyclotomic, "_product_rows", functools.cache(cyclotomic._product_rows.__wrapped__))
    assert "cyclotomic_arithmetic_sample" in _failed(q)


def _f_form_one_off(self, table, ks, extra=0):
    """`CharacterSums.f_forms` with the first numerator of its first row one
    more: a rational more in one <f, .> value of each call."""
    forms = _f_forms(self, table, ks, extra).copy()
    forms[0, 0] += 1
    return forms


@pytest.mark.parametrize("q", [5, 7])
def test_an_f_form_one_off_fails_the_expansion(monkeypatch, q):
    # the squares no longer sum to ||f||^2; the rank suite's closed forms
    # read the same product and raise before its margins are checked
    monkeypatch.setattr(CharacterSums, "f_forms", _f_form_one_off)
    assert _failed(q) == {"f_norm_and_expansion"}
    with pytest.raises(IdentityViolationError, match="closed forms disagree"):
        run_suite("rank", q)


@pytest.mark.parametrize("q", [5, 7])
def test_nu_value_off_by_one(monkeypatch, q):
    monkeypatch.setattr(DerangementModel, "families", _nu_numerator_off_by_one)
    assert {"restricted_sums_match_closed_forms", "character_sums_triple_equality"} <= _failed(q, "rank")


@pytest.mark.parametrize("q", [5, 7, 25])
def test_closed_row_off_by_one(monkeypatch, q):
    # the counted row of N no longer meets its closed form; no other check
    # reads the closed row at (1, 0): the assembled sums read it at (1, b), b >= 2
    monkeypatch.setattr(DerangementModel, "gram_row_zero_inf_closed", _closed_row_off_by_one)
    assert _failed(q, "rank") == {"gram_equals_closed_form"}


@pytest.mark.parametrize("q", [5, 7])
def test_kernel_indicator_off_by_one(monkeypatch, q):
    monkeypatch.setattr(DerangementModel, "kernel_vectors", _kernel_indicator_off)
    report = run_suite("rank", q)
    assert {"kernel_witness", "rank_of_m", "rank_certificate"} <= _failed_checks(report)
    assert (report["certificate"]["rank"], report["certificate"]["rank_method"]) == (
        None, f"undecided (Schur bound {q * (q - 1)}, kernel bound None)"
    )


def _assert_undecided(report, q):
    """The Schur bound is 0 and the witnessed kernel bound stands, so the rank
    is undecided: rank_of_m and the certificate fail, with rank null."""
    assert {"rank_of_m", "rank_certificate"} <= _failed_checks(report) and report["pass"] is False
    assert (report["certificate"]["rank"], report["certificate"]["rank_method"]) == (
        None, f"undecided (Schur bound 0, kernel bound {q * (q - 1)})"
    )


@pytest.mark.parametrize("q", SCHUR_QS)
def test_a_zero_scalar_fails_the_schur_certificate(monkeypatch, q):
    # the certificate no longer decides, and the rank is left undecided
    monkeypatch.setattr(DerangementModel, "direct_sums", _psi_minus1_scalar_zero)
    report = run_suite("rank", q)
    assert {"schur_scalars_nonzero", "rank_of_gram_matches"} <= _failed_checks(report)
    _assert_undecided(report, q)


@pytest.mark.parametrize("q", SCHUR_QS)
def test_a_missing_derangement_fails_the_class_union_check(monkeypatch, q):
    monkeypatch.setattr(PGL2, "derangement_array", _one_nonsplit_derangement_dropped)
    report = run_suite("rank", q)
    assert {"schur_whole_pgl_classes", "gram_equals_closed_form", "rank_of_gram_matches"} <= _failed_checks(report)
    _assert_undecided(report, q)


@pytest.mark.parametrize("q", SCHUR_QS)
def test_pi_off_by_one_fails_the_multiplicity_check(monkeypatch, q):
    monkeypatch.setattr(DerangementModel, "pair_counts", _pi_off_by_one_on_a_split_class)
    report = run_suite("rank", q)
    assert {"schur_targets_occur_once", "rank_of_gram_matches"} <= _failed_checks(report)
    _assert_undecided(report, q)


def test_every_form_reaches_the_planted_kernel(monkeypatch):
    # the character table and the sums basis are real, so only a non-real
    # l2_inner shows the fault by value; the call log shows the rest
    ctx = field_ctx_for_q(7)
    S, T = CharacterSums(ctx), build_table(PGL2(ctx))
    chi = [ctx.char_eval(ctx.fq_char(1), x) for x in range(7)]
    honest = S.l2_inner(chi, chi)
    calls = []
    monkeypatch.setattr(cyclotomic, "hermitian_form", _unconjugated_form(calls))
    assert S.l2_inner(chi, chi) != honest and calls
    for form in (T.row_gram, T.column_gram, lambda: S.gram([chi, chi])):
        before = len(calls)
        form()
        assert len(calls) > before, form


def _first_search_skipped():
    """`ekr._maximum_cliques` finding nothing on its first call: the first
    class branch is skipped, and its class is still left out of the later
    branches."""
    calls = []

    def planted(adj, cand, floor=0):
        calls.append(cand)
        return (floor, []) if len(calls) == 1 else _maximum_cliques(adj, cand, floor)

    return planted


@pytest.mark.parametrize("q", [3, 5, 7])
def test_a_skipped_class_branch_fails_the_size_check(monkeypatch, q):
    # every maximum family through the identity holds an element of the
    # first class, the unipotent one
    monkeypatch.setattr(ekr, "_maximum_cliques", _first_search_skipped())
    assert {"maximum_family_size", "stabilizer_cosets_are_maximum_families"} <= _failed(q, "ekr")


@pytest.mark.parametrize("q", [3, 5, 7])
def test_translation_in_place_of_conjugation_misses_cosets(monkeypatch, q):
    # the stabilizers found translate only to the cosets {x -> y} of their own points x
    monkeypatch.setattr(IntersectionGraph, "conjugates", IntersectionGraph.translates)
    failed = _failed(q, "ekr")
    assert "stabilizer_cosets_are_maximum_families" in failed
    assert ("all_maximum_families_are_cosets" in failed) == (q != 3)
