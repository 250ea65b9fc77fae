"""Tests for the command-line front end."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import psl2q
from psl2q.cli import main
from psl2q.derangement import DerangementModel


def test_invalid_q_exits_2(tmp_path, capsys):
    assert main(["verify", "--q", "4"]) == 2
    assert "not an odd prime power" in capsys.readouterr().err
    assert main(["verify", "--q", "15"]) == 2
    assert main(["verify", "--q", ""]) == 2
    assert main(["verify", "--q", "5", "--suite", "bogus"]) == 2
    capsys.readouterr()
    out = str(tmp_path)
    for argv in (
        ["verify", "--q", "5", "--suite", "rank", "--approx-digits", "-3", "--out", out],
        ["dump", "table", "--q", "5", "--approx-digits", "-1", "--out", out],
    ):
        assert main(argv) == 2
        assert "invalid configuration" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_budget_validation(tmp_path, capsys):
    assert main(["verify", "--q", "23"]) == 2
    assert main(["verify", "--q", "23", "--suite", "ekr"]) == 2
    assert main(["verify", "--q", "3", "--suite", "rank"]) == 2
    capsys.readouterr()
    out = str(tmp_path)
    for budget in ("-1", "nan", "inf", "-inf"):
        argv = ["verify", "--q", "5", "--suite", "table", f"--budget-seconds={budget}", "--out", out]
        assert main(argv) == 2
        assert "invalid configuration" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_verify_rank_q5(tmp_path, capsys):
    code = main(["verify", "--q", "5", "--suite", "rank", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    report = json.loads((tmp_path / "verify_q5_rank.json").read_text())
    assert report["schema"] == "1"
    assert report["pass"] is True
    assert report["certificate"]["rank"] == 20
    assert report["certificate"]["expected_rank"] == 20
    for entry in report["certificate"]["characters"]:
        assert entry["nonzero"] is True
        assert "t_value_exact" in entry and "t_value_approx" in entry


def test_an_undecided_rank_fails_the_run(tmp_path, capsys, monkeypatch):
    # with no Schur bound the rank is left undecided: null in the report, exit 1
    monkeypatch.setattr(DerangementModel, "schur_bound", lambda self: 0)
    assert main(["verify", "--q", "5", "--suite", "rank", "--out", str(tmp_path)]) == 1
    assert "first failing check: q=5 rank/rank_of_m" in capsys.readouterr().err
    report = json.loads((tmp_path / "verify_q5_rank.json").read_text())
    assert report["pass"] is False
    assert report["certificate"]["rank"] is None and report["certificate"]["pass"] is False


def test_verify_q3_runs_ekr_only(tmp_path):
    code = main(["verify", "--q", "3", "--out", str(tmp_path)])
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["verify_q3_ekr.json"]
    report = json.loads((tmp_path / "verify_q3_ekr.json").read_text())
    assert report["max_size"] == 3
    assert report["all_cosets"] is False
    assert report["counterexamples"]


def test_verify_all_q5(tmp_path):
    code = main(["verify", "--q", "5", "--out", str(tmp_path)])
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "verify_q5_ekr.json",
        "verify_q5_rank.json",
        "verify_q5_sums.json",
        "verify_q5_table.json",
    ]


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--q", "5", "--suite", "sums", "--out", str(out1)]) == 0
    assert main(["verify", "--q", "5", "--suite", "sums", "--out", str(out2)]) == 0
    f1 = (out1 / "verify_q5_sums.json").read_bytes()
    f2 = (out2 / "verify_q5_sums.json").read_bytes()
    assert f1 == f2


def test_budget_abort(tmp_path, capsys):
    code = main(
        ["verify", "--q", "5,7", "--suite", "rank", "--out", str(tmp_path), "--budget-seconds", "0"]
    )
    assert code == 1
    assert "budget" in capsys.readouterr().err


def _read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def test_dump_table_q5(tmp_path):
    assert main(["dump", "table", "--q", "5", "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "table_q5.csv")
    assert len(rows) - 1 == 7  # 4 + |B| + |Gamma| irreducibles at q = 5
    assert rows[1][0] == "lambda1"


def test_dump_matrix_n_q5(tmp_path):
    assert main(["dump", "matrixN", "--q", "5", "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "matrixN_q5.csv")
    assert len(rows) - 1 == 30
    for i in range(1, 31):
        assert rows[i][i] == "4"


def test_dump_matrix_m_q5(tmp_path):
    assert main(["dump", "matrixM", "--q", "5", "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "matrixM_q5.csv")
    assert len(rows) - 1 == 20
    for row in rows[1:]:
        assert sum(int(v) for v in row[1:]) == 6  # q + 1 ones per derangement


def test_dump_legendre_q7(tmp_path):
    assert main(["dump", "legendre", "--q", "7", "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "legendre_q7.csv")
    assert len(rows) - 1 == 7  # one row per field element
    assert (len(rows[0]) - 1) // 2 == 7  # basis has q elements


def test_dump_invalid_target(capsys):
    assert main(["dump", "bogus", "--q", "5"]) == 2
    assert main(["dump", "table", "--q", "3"]) == 2
    capsys.readouterr()


def test_matrix_dumps_reject_q3_before_any_work(tmp_path, capsys):
    # the character table behind both matrices needs q >= 5
    for what in ("matrixM", "matrixN"):
        assert main(["dump", what, "--q", "3", "--out", str(tmp_path)]) == 2
        assert main(["dump", what, "--q", "5,3", "--out", str(tmp_path)]) == 2
        assert "requires q >= 5" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_dumps_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["dump", "table", "--q", "5", "--out", str(out1)]) == 0
    assert main(["dump", "table", "--q", "5", "--out", str(out2)]) == 0
    assert (out1 / "table_q5.csv").read_bytes() == (out2 / "table_q5.csv").read_bytes()


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = str(Path(psl2q.__file__).resolve().parents[1])
    cmd = [sys.executable, "-m", "psl2q", "verify", "--q", "5", "--suite", "sums", "--out", str(tmp_path)]
    done = subprocess.run(cmd, env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "verify_q5_sums.json").read_text())["pass"] is True
