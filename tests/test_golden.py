"""The `verify` reports and the `dump` CSVs are byte-identical to the files
recorded in tests/golden (q = 5, 7, 9; q = 3 for ekr; q = 11 and 13 for table,
sums and rank; q = 17 and 19 for sums and rank; q = 5 and 7 for the matrixM
and matrixN dumps), with and without `python -O`."""

import subprocess
import sys
from pathlib import Path

import pytest

import psl2q

GOLDEN = Path(__file__).parent / "golden"
QS = "5,7,9"
TABLE_QS = "5,7,9,11,13"
EKR_QS = "3,5,7,9"
RANK_QS = "5,7,9,11,13,17,19"
SUMS_QS = "5,7,9,11,13,17,19"
MATRIX_QS = "5,7"


def _run(flags, args, out, qs=QS):
    src = str(Path(psl2q.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, *flags, "-m", "psl2q.cli", *args, "--q", qs, "--out", str(out)],
        env={"PYTHONPATH": src}, check=True, capture_output=True, timeout=300,
    )


@pytest.fixture(scope="module", params=[[], ["-O"]], ids=["plain", "optimized"])
def regenerated(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    _run(request.param, ["verify", "--suite", "table"], out, TABLE_QS)
    _run(request.param, ["verify", "--suite", "rank"], out, RANK_QS)
    _run(request.param, ["verify", "--suite", "sums"], out, SUMS_QS)
    _run(request.param, ["verify", "--suite", "ekr"], out, EKR_QS)
    for what in ("table", "legendre"):
        _run(request.param, ["dump", what], out)
    for what in ("matrixM", "matrixN"):
        _run(request.param, ["dump", what], out, MATRIX_QS)
    return out


def _golden_names():
    return sorted(p.name for p in GOLDEN.iterdir())


def test_golden_set_is_complete():
    expected = {f"verify_q{q}_{s}.json" for q in (5, 7, 9) for s in ("table", "sums", "rank")}
    expected |= {f"verify_q{q}_ekr.json" for q in (3, 5, 7, 9)}
    expected |= {f"verify_q{q}_{s}.json" for q in (11, 13) for s in ("table", "sums", "rank")}
    expected |= {f"verify_q{q}_{s}.json" for q in (17, 19) for s in ("sums", "rank")}
    expected |= {f"{w}_q{q}.csv" for q in (5, 7, 9) for w in ("table", "legendre")}
    expected |= {f"{w}_q{q}.csv" for q in (5, 7) for w in ("matrixM", "matrixN")}
    assert set(_golden_names()) == expected


@pytest.mark.parametrize("name", _golden_names())
def test_output_matches_golden_bytes(regenerated, name):
    assert (regenerated / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_nothing_beyond_the_golden_files(regenerated):
    assert sorted(p.name for p in regenerated.iterdir()) == _golden_names()
