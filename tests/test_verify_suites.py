"""Tests for the verification suite runners."""

from fractions import Fraction

import pytest

from psl2q.charsums import CharacterSums
from psl2q.cyclotomic import CycNum
from psl2q.errors import IdentityViolationError
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2
from psl2q.verify import _pair_reach, base_coset_log_shifts, run_suite


@pytest.mark.parametrize("suite", ["table", "sums", "rank"])
def test_suites_pass_q5(suite):
    report = run_suite(suite, 5)
    assert report["pass"] is True
    assert report["schema"] == "1"
    assert report["q"] == 5 and report["suite"] == suite
    assert all(c["pass"] for c in report["checks"])


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
    reach = _pair_reach(G.image_array(psl), pairs)
    for s in pairs:
        for t in pairs:
            solved = any(G.act(s[0], g) == t[0] and G.act(s[1], g) == t[1] for g in psl)
            assert reach[s][t[0] * (q + 1) + t[1]] == solved


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_base_coset_log_shifts_match_the_product_loop(q):
    ctx = field_ctx_for_q(q)
    oracle = {
        (ctx.log2[ctx.q2_mul(r, u)] - ctx.log2[r]) % (q + 1) for r in ctx.q2_units() for u in range(1, q)
    }
    assert base_coset_log_shifts(ctx) == oracle
