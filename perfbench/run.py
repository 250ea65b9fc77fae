"""The psl2q benchmark: wall time of fixed `psl2q verify` plans.

    python3 perfbench/run.py --workload rank --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from src/.
psl2q is a batch verifier, so the load is one closed-loop client that runs
one repetition of the workload's plan at a time, each in a fresh interpreter
(child.py), until --seconds have passed; at least one repetition always runs.
--seed goes to `verify --seed` and picks the sampled spot checks.

Every report a repetition writes is read back and checked by gate.py.  The
last line of standard output is one JSON object with "correct", "attempted",
"failed" and "metrics"; the lines before it give each metric's median,
quartiles and sample count, and the environment.  With --trace 0 the metrics
are the end-to-end ones.  With --trace 1 the loop alternates untraced and
traced repetitions and the metrics are the per-layer ones, including the
tracing overhead.  A wrong report makes "correct" false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate

# Each plan is an explicit list of (q, suite), never `--suite all`, so a
# change to what `all` selects cannot change a workload.
WORKLOADS = {
    # Integer Bareiss rank dominates; q = 17 (about 50 s) is too slow to repeat.
    "rank": [(11, "rank"), (13, "rank")],
    # Exact cyclotomic arithmetic dominates; no rank call, barely any group work.
    "sums": [(17, "sums"), (19, "sums")],
    # Every suite at small q: ekr and groups work, and per-call costs of
    # intrank and cyclotomic on small inputs.
    "sweep": [(3, "ekr")]
    + [(q, suite) for q in (5, 7, 9) for suite in ("table", "sums", "rank", "ekr")],
}
SUITES = ("table", "sums", "rank", "ekr")

SETUP_PROBES = 6  # extra launches that only set up, so setup_s has enough samples
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUNS_DIR = Path(".perfbench_runs")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env(nproc: int) -> tuple[dict, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    caps = {}
    for var in THREAD_VARS:
        current = env.get(var, "")
        caps[var] = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(caps[var])
    return env, caps


def _git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _load_average() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


class Runner:
    """Launches repetitions of one plan and gates their reports."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.plan = WORKLOADS[workload]
        self.seed = seed
        self.reference = gate.load_reference()
        self.env, self.thread_caps = _child_env(_nproc())
        self.child = str(Path(__file__).with_name("child.py"))
        self.tmp = RUNS_DIR / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.spans_path = RUNS_DIR / f"spans-{workload}-seed{seed}.json"
        self.numpy_version = None

    def repetition(self, trace: bool = False, setup_only: bool = False) -> dict:
        """One fresh process; returns setup_s, per-pair times and failures."""
        work = Path(tempfile.mkdtemp(dir=self.tmp))
        try:
            spec = {
                "plan": self.plan,
                "seed": self.seed,
                "out": str(work / "reports"),
                "result": str(work / "result.json"),
                "trace": trace,
                "spans": str(self.spans_path),
                "setup_only": setup_only,
            }
            launched = time.monotonic()
            proc = subprocess.run(
                [sys.executable, self.child, json.dumps(spec)],
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                return {"failed": len(self.plan), "problems": [f"child exited {proc.returncode}: {tail[0]}"]}
            result = json.loads((work / "result.json").read_text())
            self.numpy_version = result["numpy"]
            out = {
                "setup_s": result["ready"] - launched,
                "peak_rss_mb": result["peak_rss_mb"],
                "layers": result.get("layers"),
                "failed": 0,
                "problems": [],
            }
            if not setup_only:
                self._gate(result["pairs"], work / "reports", out)
            return out
        except subprocess.TimeoutExpired:
            return {"failed": len(self.plan), "problems": [f"repetition exceeded {CHILD_TIMEOUT_S} s"]}
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _gate(self, pairs: list[dict], reports: Path, out: dict):
        suite_s = dict.fromkeys(SUITES, 0.0)
        for pair in pairs:
            q, suite = pair["q"], pair["suite"]
            suite_s[suite] += pair["seconds"]
            problems = []
            if pair["error"] is not None or pair["exit"] != 0:
                problems.append(f"exit {pair['exit']} {pair['error'] or ''}".strip())
            try:
                report = json.loads((reports / f"verify_q{q}_{suite}.json").read_text())
                problems += gate.report_problems(report, q, suite, self.seed, self.reference)
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable report: {exc}")
            if problems:
                out["failed"] += 1
                out["problems"] += [f"q={q} {suite}: {p}" for p in problems]
        if len(pairs) != len(self.plan):
            out["failed"] += len(self.plan) - len(pairs)
            out["problems"].append("the plan did not run to the end")
        out["wall_s"] = sum(pair["seconds"] for pair in pairs)
        out["suite_s"] = suite_s


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The closed loop; returns the result object printed last and the
    samples behind each printed series."""
    untraced, traced = [], []
    start = time.monotonic()
    probes = [] if trace else [runner.repetition(setup_only=True) for _ in range(SETUP_PROBES)]
    durations = []
    # A repetition starts only if one of median length still fits, so a run
    # ends near --seconds; the first repetition (of each kind) always runs.
    while not untraced or (trace and not traced) or (
        time.monotonic() - start + statistics.median(durations) <= seconds
    ):
        want_traced = trace and len(traced) < len(untraced)
        began = time.monotonic()
        (traced if want_traced else untraced).append(runner.repetition(trace=want_traced))
        durations.append(time.monotonic() - began)

    reps = untraced + traced
    attempted = len(runner.plan) * len(reps)
    failed = sum(rep["failed"] for rep in reps)
    problems = [p for rep in probes + reps for p in rep["problems"]]
    good = [rep for rep in untraced if "wall_s" in rep]
    series = {}  # name -> (unit, values), each printed with median, quartiles and count
    if good:
        series["wall_s"] = ("s", [rep["wall_s"] for rep in good])
        for suite in SUITES:
            if any(s == suite for _, s in runner.plan):
                series[f"suite_s.{suite}"] = ("s", [rep["suite_s"][suite] for rep in good])
        if not trace:
            series["setup_s"] = ("s", [rep["setup_s"] for rep in probes + good if "setup_s" in rep])
            series["peak_rss_mb"] = ("MB", [rep["peak_rss_mb"] for rep in good])

    metrics = {}
    if not trace:
        metrics = {name: {"value": _summary(series[name][1])[0], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name in series}
    elif good:
        metrics, layer_problems = _layer_metrics(good, [rep for rep in traced if "layers" in rep])
        problems += layer_problems

    print(f"workload {runner.workload}: {len(reps)} repetitions, {attempted} (q, suite) runs, "
          f"{failed} failed, failed_frac {failed / attempted:.6g}")
    for name, (unit, values) in series.items():
        median, q1, q3 = _summary(values)
        print(f"  {name:42s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(values)}  [{unit}]")
    if trace:
        for name, metric in metrics.items():
            print(f"  {name:42s} {metric['value']:<14.6g} [{metric['unit']}]")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    correct = not problems and len(metrics) > 0
    samples = {name: values for name, (_, values) in series.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, samples


def _layer_metrics(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions: counts and ratios must
    repeat exactly, times are medians.  suite_s.* come from the untraced
    repetitions; trace.overhead_frac compares the two kinds."""
    import tracing

    metrics, problems = {}, []
    if not traced:
        return metrics, problems
    for name, (unit, _, _) in tracing.LAYER_METRICS.items():
        values = [rep["layers"][name] for rep in traced if name in rep["layers"]]
        if not values:
            continue  # the cache it reads is gone from the program
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
        metrics[name] = {"value": value, "unit": unit}
    for suite in SUITES:
        metrics[f"suite_s.{suite}"] = {
            "value": statistics.median(rep["suite_s"][suite] for rep in untraced), "unit": "s"}
    wall = statistics.median(rep["wall_s"] for rep in untraced)
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    metrics["trace.overhead_frac"] = {"value": (traced_wall - wall) / wall, "unit": "ratio"}
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not Path("src/psl2q/__init__.py").is_file():
        print("perfbench: run from the root of a psl2q checkout (src/psl2q not found)", file=sys.stderr)
        return 2

    load = _load_average()
    runner = Runner(args.workload, args.seed)
    result, samples = measure(runner, args.seconds, bool(args.trace))
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": runner.numpy_version, "nproc": _nproc(),
        "git_sha": _git_sha(), "loadavg_1min_at_start": load, "child_thread_caps": runner.thread_caps,
    }
    print("environment " + json.dumps(environment, sort_keys=True))
    record = {"environment": environment, "samples": samples, **result}
    (RUNS_DIR / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
