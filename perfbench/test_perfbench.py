"""Tests of the benchmark itself: the correctness gate and the tracing.

    python3 -m pytest -q perfbench

Run from the root of the checkout; the traced test runs run.py twice on the
rank workload (about half a minute).
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import gate
import run

ROOT = Path(__file__).resolve().parents[1]


def _seed_report(q: int, suite: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from psl2q.verify import run_suite

    return run_suite(suite, q, seed=0)


def test_gate_counts_each_edited_report_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = run.Runner("rank", seed=0)
    runner.plan = [(11, "rank")]
    report = _seed_report(11, "rank")

    changed_t = copy.deepcopy(report)
    changed_t["certificate"]["characters"][3]["t_value_exact"] = "401,0,0,0/12"
    dropped_check = copy.deepcopy(report)
    dropped_check["checks"] = [c for c in report["checks"] if c["name"] != "kernel_witness"]
    renamed_detail = copy.deepcopy(report)
    renamed_detail["checks"][3]["detail"] = "rank 110 by a different method"

    failed = []
    for i, candidate in enumerate([report, changed_t, dropped_check, renamed_detail]):
        reports = tmp_path / f"r{i}"
        reports.mkdir()
        (reports / "verify_q11_rank.json").write_text(json.dumps(candidate))
        out = {"failed": 0, "problems": []}
        pair = {"q": 11, "suite": "rank", "seconds": 1.0, "exit": 0, "error": None}
        runner._gate([pair], reports, out)
        failed.append(out["failed"])
    assert failed == [0, 1, 1, 0]


def test_gate_checks_the_paper_invariants():
    reference = gate.load_reference()
    report = _seed_report(5, "ekr")
    assert gate.report_problems(report, 5, "ekr", 0, reference) == []
    bad = dict(report, family_count=35)
    problems = gate.report_problems(bad, 5, "ekr", 0, {"q5_ekr": {"checks": []}})
    assert problems == ["family_count 35 is not (q+1)^2 = 36"]


def test_every_binding_is_wrapped():
    probe = """
import sys, tracing
tracing.install(tracing.Tracer())
import psl2q.cli
from psl2q import cyclotomic, derangement, ekr, verify
modules = [m for n, m in sys.modules.items() if n.startswith("psl2q")]
originals = set()
for module_name, attr, _ in tracing.FUNCTIONS:
    originals.add(getattr(sys.modules[module_name], attr).__wrapped__)
for module_name, cls, method, _ in tracing.METHODS:
    originals.add(getattr(sys.modules[module_name], cls).__dict__[method].__wrapped__)
holders = [vars(m) for m in modules]
holders += [vars(v) for m in modules for v in vars(m).values() if isinstance(v, type)]
assert not [k for h in holders for k, v in h.items() if any(v is o for o in originals)]
assert derangement.exact_rank is verify.bareiss_rank is derangement.bareiss_rank
assert hasattr(verify.bareiss_rank, "__wrapped__") and hasattr(verify.is_intersecting, "__wrapped__")
assert cyclotomic.CycNum.__rmul__ is cyclotomic.CycNum.__mul__
assert hasattr(cyclotomic.CycNum.__radd__, "__wrapped__")
"""
    env = {"PYTHONPATH": f"{ROOT / 'perfbench'}:{ROOT / 'src'}", "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120)


def _traced_rank() -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def test_traced_rank_counts_repeat_exactly():
    first, second = _traced_rank(), _traced_rank()
    assert first["intrank.bareiss_rank.calls"]["value"] == 8  # 4 per q
    assert first["intrank.bareiss_rank.unique_ratio"]["value"] == 0.75
    counts = [name for name, m in first.items() if m["unit"] in ("count", "ratio") and name != "trace.overhead_frac"]
    assert len(counts) > 20
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
