"""Identities the computations rely on are checked by raised errors, not by
`assert`, so they hold under `python -O` as well."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import psl2q
from psl2q.chartable import build_table
from psl2q.charsums import CharacterSums
from psl2q.cyclotomic import _poly_div_exact
from psl2q.derangement import DerangementModel
from psl2q.errors import IdentityViolationError
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2
from psl2q.verify import run_suite


@pytest.fixture
def model():
    return DerangementModel(build_table(PGL2(field_ctx_for_q(5))))


def test_non_integral_gram_entry_raises(model, monkeypatch):
    # q P_phi one off everywhere makes 4 N odd at every generic entry
    table = model.sums.legendre_table().copy()
    table[(model.q - 1) // 2, :, 0] += 1
    monkeypatch.setattr(model.sums, "legendre_table", lambda: table)
    with pytest.raises(IdentityViolationError, match="not an integer"):
        model.gram_row_zero_inf_closed()


def test_disagreeing_closed_forms_raise(model, monkeypatch):
    # f one off at x = 1, where no P_gamma or R_beta vanishes, moves the
    # <f, .> form of every t(chi) and leaves the cross sums as they are
    f_vector = model.sums.f_vector
    monkeypatch.setattr(model.sums, "f_vector", lambda: [v + 1 if x == 1 else v for x, v in enumerate(f_vector())])
    chi = next(c for c in model.target_characters() if c.kind == "eta")
    with pytest.raises(IdentityViolationError, match="closed forms disagree"):
        model.character_sum_closed_form(chi)


def test_wrong_gauss_sum_inverse_raises(monkeypatch):
    ctx = field_ctx_for_q(5)
    gauss_sum = ctx.gauss_sum
    monkeypatch.setattr(ctx, "gauss_sum", lambda char: gauss_sum(char) * 2)
    half = [Fraction(1, 2)] * 4
    with pytest.raises(IdentityViolationError, match="Gauss sum"):
        CharacterSums(ctx).katz_h(half, [Fraction(1)] * 4, 1)


def test_non_real_coefficient_raises(monkeypatch):
    # every form read as zeta, a primitive 4th or 6th root of unity at q = 5
    sums = CharacterSums(field_ctx_for_q(5))
    monkeypatch.setattr(sums, "f_forms", lambda table, ks, extra=0: np.tile([0, 1], (len(ks), 1)))
    with pytest.raises(IdentityViolationError, match="not real"):
        sums.orthonormal_coefficient_squares()


def test_wrong_gram_entry_fails_the_basis_check(monkeypatch):
    gram = CharacterSums.gram

    def perturbed(self, functions):
        m, nums, dens = gram(self, functions)
        nums = nums.copy()
        nums[0, 1, 0] += 1
        return m, nums, dens

    monkeypatch.setattr(CharacterSums, "gram", perturbed)
    report = run_suite("sums", 5)
    check = next(c for c in report["checks"] if c["name"] == "orthogonal_basis_gram_matrix")
    assert check["pass"] is False and report["pass"] is False
    assert all(c["pass"] for c in report["checks"] if c is not check)


def test_optimized_interpreter_writes_the_same_report(tmp_path):
    src = str(Path(psl2q.__file__).resolve().parents[1])
    reports = []
    for flags in ([], ["-O"]):
        out = tmp_path / ("optimized" if flags else "plain")
        cmd = [sys.executable, *flags, "-m", "psl2q.cli", "verify", "--q", "5", "--suite", "rank"]
        subprocess.run(
            cmd + ["--out", str(out)], env={"PYTHONPATH": src}, check=True, capture_output=True, timeout=120
        )
        reports.append((out / "verify_q5_rank.json").read_bytes())
    assert reports[0] == reports[1]
    assert b'"pass": true' in reports[0]


def test_inexact_cyclotomic_division_raises():
    with pytest.raises(IdentityViolationError, match="inexact"):
        _poly_div_exact([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2
    with pytest.raises(IdentityViolationError, match="inexact"):
        _poly_div_exact([1, 1], [0, 2])  # leading coefficient 1 is not divisible by 2


def test_wrong_class_sizes_raise(monkeypatch):
    group = PGL2(field_ctx_for_q(5))
    class_size = group.class_size
    monkeypatch.setattr(group, "class_size", lambda label: class_size(label) + 1)
    with pytest.raises(IdentityViolationError, match="class sizes"):
        build_table(group)


def test_no_assert_statements_remain():
    """Every claim in the package is a raised error, which python -O keeps."""
    package = Path(psl2q.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
