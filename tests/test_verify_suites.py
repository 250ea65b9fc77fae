"""Tests for the verification suite runners."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from psl2q import charsums, cyclotomic, verify
from psl2q.charsums import CharacterSums
from psl2q.cyclotomic import CycNum
from psl2q.derangement import DerangementModel
from psl2q.errors import IdentityViolationError
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2
from psl2q.verify import _pair_reach, _rng, base_coset_log_shifts, run_suite


@pytest.mark.parametrize("suite", ["table", "sums", "rank"])
def test_suites_pass_q5(suite):
    report = run_suite(suite, 5)
    assert report["pass"] is True
    assert report["schema"] == "1"
    assert report["q"] == 5 and report["suite"] == suite
    assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize("q", [5, 11, 13])
def test_rank_suite_reads_no_element_list(monkeypatch, q):
    # the rank suite reads the element arrays; the tuple lists are for samples and dumps
    calls = []
    elements = PGL2.elements
    monkeypatch.setattr(PGL2, "elements", lambda self, which="pgl": calls.append(which) or elements(self, which))
    assert run_suite("rank", q)["pass"] is True
    assert calls == []


def test_only_the_sums_suite_builds_product_matrices(monkeypatch):
    # from a cleared cache, the table, rank and ekr suites multiply no rows
    # of numerators; the sums suite builds one matrix for each conductor it
    # multiplies rows in, on the first product there
    built, multiplied = [], set()
    product_rows, row_products = cyclotomic._product_rows.__wrapped__, cyclotomic.row_products
    monkeypatch.setattr(cyclotomic, "_product_rows", functools.cache(lambda m: built.append(m) or product_rows(m)))
    for suite in ("table", "rank", "ekr"):
        assert run_suite(suite, 9)["pass"] is True
    assert built == []
    for module in (charsums, verify):
        monkeypatch.setattr(module, "row_products", lambda m, a, b: multiplied.add(m) or row_products(m, a, b))
    assert run_suite("sums", 9)["pass"] is True
    assert built and sorted(built) == sorted(multiplied)


@pytest.mark.parametrize("q", [25, 27])
def test_sums_suite_passes_past_the_cli_cap(q):
    # prime powers above the command line's cap, where the Greene tables are largest
    report = run_suite("sums", q)
    assert report["pass"] is True
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []


@pytest.mark.parametrize("q", [25, 27])
def test_table_suite_passes_past_the_cli_cap(q):
    # prime powers above the command line's cap: the Gram scatter at
    # L = lcm(q-1, q+1), class and image arrays at p = 5 and 3
    report = run_suite("table", q)
    assert report["pass"] is True
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []


@pytest.mark.parametrize("q", [25])
def test_rank_suite_passes_past_the_cli_cap(q):
    # a prime power above the command line's cap: class arrays, the Gram
    # gather and the scatter-add direct sums at p = 5
    report = run_suite("rank", q)
    assert report["pass"] is True
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []


def test_ekr_suite_q3():
    report = run_suite("ekr", 3)
    assert report["pass"] is True
    assert report["max_size"] == 3
    assert report["all_cosets"] is False


def test_ekr_suite_q5():
    report = run_suite("ekr", 5)
    assert report["pass"] is True
    assert report["family_count"] == 36
    assert report["all_cosets"] is True
    assert report["counterexamples"] == []


def test_rank_suite_carries_certificate():
    report = run_suite("rank", 7)
    cert = report["certificate"]
    assert cert["rank"] == 42 and cert["pass"] is True
    assert len(cert["characters"]) == 2 + 3 + 2  # lambda1, psi_minus1, etas, nus


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("seed", [0, 1])
def test_relabeling_sample_draws_are_pinned(monkeypatch, q, seed):
    # the sample passes whether or not a draw changes, so the goldens cannot
    # see one: the entries it reads must be those of the draws, in order, row
    # pair, column pair, then an element of PGL that `act` moves both by
    calls = []
    gram_entries = DerangementModel.gram_entries
    monkeypatch.setattr(
        DerangementModel,
        "gram_entries",
        lambda self, rows, cols: calls.append((rows.tolist(), cols.tolist())) or gram_entries(self, rows, cols),
    )
    assert run_suite("rank", q, seed=seed)["pass"] is True
    G = PGL2(field_ctx_for_q(q))
    omega = [(a, b) for a in G.points for b in G.points if a != b]
    index, pgl = {pair: i for i, pair in enumerate(omega)}, G.elements("pgl")
    rng = _rng(seed, q, "rank")
    sampled, moved = [], []
    for _ in range(200):
        r_pair, c_pair = rng.choice(omega), rng.choice(omega)
        g = pgl[rng.randrange(len(pgl))]
        sampled.append((index[r_pair], index[c_pair]))
        moved.append(tuple(index[tuple(G.act(x, g) for x in pair)] for pair in (r_pair, c_pair)))
    rows, cols = zip(*(sampled + moved))
    assert calls == [(list(rows), list(cols))]


def test_rank_and_sums_suites_read_f_through_the_table_product(monkeypatch):
    # every <f, .> value of both suites is one `CharacterSums.f_forms`
    # product: no pointwise form of f runs
    def no_pointwise_form(self, f, functions):
        raise RuntimeError("CharacterSums._forms called")

    monkeypatch.setattr(CharacterSums, "_forms", no_pointwise_form)
    assert run_suite("rank", 7)["pass"] is True
    assert run_suite("sums", 7)["pass"] is True


def test_seeded_reports_stable():
    a = run_suite("table", 5, seed=123)
    b = run_suite("table", 5, seed=123)
    assert a == b


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus", 5)


def _non_real(self):
    raise IdentityViolationError("coefficient <f, R_beta[1]> is not real")


@pytest.mark.parametrize(
    "squares",
    [
        _non_real,
        # a term above 1 cannot sum to ||f||^2 < 1
        lambda self: [("R_beta[1]", CycNum.rational(Fraction(3, 2)))],
    ],
    ids=["non_real", "wrong_sum"],
)
def test_margin_fails_without_the_norm_bound(monkeypatch, squares):
    monkeypatch.setattr(CharacterSums, "orthonormal_coefficient_squares", squares)
    report = run_suite("rank", 5)
    margins = next(c for c in report["checks"] if c["name"] == "nonvanishing_margins")
    assert margins["pass"] is False and report["pass"] is False


@pytest.mark.parametrize("q", [5, 7])
def test_pair_reach_matches_the_constraint_solver(q):
    G = PGL2(field_ctx_for_q(q))
    pairs = [(a, b) for a in G.points for b in G.points if a != b]
    psl = G.elements("psl")
    reach = _pair_reach(G, G.element_array("psl"), pairs)
    for s in pairs:
        for t in pairs:
            solved = any(G.act(s[0], g) == t[0] and G.act(s[1], g) == t[1] for g in psl)
            assert reach[s][t[0] * (q + 1) + t[1]] == solved


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
@pytest.mark.parametrize("step", [1, 3])
def test_pair_reach_matches_the_whole_image_array(q, step):
    # every source pair, then every third
    G = PGL2(field_ctx_for_q(q))
    psl = G.element_array("psl")
    columns, n = G.image_array(psl).T, q + 1
    sources = [(a, b) for a in G.points for b in G.points if a != b][::step]
    reach = _pair_reach(G, psl, sources)
    assert sorted(reach) == sources
    for s0, s1 in sources:
        expected = np.zeros(n * n, dtype=bool)
        expected[columns[s0] * n + columns[s1]] = True
        assert (reach[s0, s1] == expected).all()


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_base_coset_log_shifts_match_the_product_loop(q):
    ctx = field_ctx_for_q(q)
    oracle = {
        (ctx.log2[ctx.q2_mul(r, u)] - ctx.log2[r]) % (q + 1) for r in range(1, q * q) for u in range(1, q)
    }
    assert base_coset_log_shifts(ctx) == oracle
