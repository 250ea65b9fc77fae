"""Command-line front end.

`psl2q verify` runs the named verification suites for a list of field sizes
and writes one JSON report per (q, suite); the exit code is 0 only when
every selected check passes.  `psl2q dump` writes CSV artifacts (character
table, Legendre and Soto-Andrade value grid, the derangement matrix and its
Gram matrix).  Re-running a command with the same configuration reproduces
the output files byte for byte.

Exit codes: 0 success, 1 verification failure or budget abort, 2 invalid
configuration.  Invalid configurations are rejected before any suite runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from .chartable import build_table
from .charsums import CharacterSums
from .derangement import DerangementModel
from .fields import factor_prime_power, field_ctx_for_q
from .groups import PGL2
from .verify import SUITES, run_suite

# The ekr clique search stops at ekr.MAX_Q = 19, where it takes about 4 s on
# a 2-core machine; every other suite takes under 0.5 s there.  Larger q is
# neither budgeted nor timed.
MAX_VERIFY_Q = 19


def _parse_q_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse q list {text!r}")
    if not values:
        raise ValueError("empty q list")
    for q in values:
        if factor_prime_power(q) is None:
            raise ValueError(f"q = {q} is not an odd prime power")
    return values


def _suites_for(q: int, requested: str) -> list[str]:
    """Applicable suites for one q, validating explicit requests."""
    if requested == "all":
        return ["table", "sums", "rank", "ekr"] if q >= 5 else ["ekr"]
    if requested != "ekr" and q < 5:
        raise ValueError(f"suite {requested!r} requires q >= 5; q = 3 only supports ekr")
    return [requested]


def _check_approx_digits(digits: int):
    if digits < 0:
        raise ValueError(f"--approx-digits must be >= 0, not {digits}")


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_verify(args) -> int:
    try:
        q_values = _parse_q_list(args.q)
        if args.suite not in SUITES + ("all",):
            raise ValueError(f"unknown suite {args.suite!r}")
        for q in q_values:
            if q > MAX_VERIFY_Q:
                raise ValueError(f"q = {q} exceeds the verification budget {MAX_VERIFY_Q}")
        _check_approx_digits(args.approx_digits)
        budget = args.budget_seconds
        if budget is not None and not (math.isfinite(budget) and budget >= 0):
            raise ValueError(f"--budget-seconds must be a finite number >= 0, not {budget}")
        plan = [(q, suite) for q in q_values for suite in _suites_for(q, args.suite)]
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    started = time.monotonic()
    all_pass = True
    first_failure = None
    for q, suite in plan:
        if args.budget_seconds is not None and time.monotonic() - started > args.budget_seconds:
            print(f"budget of {args.budget_seconds}s exceeded, aborting", file=sys.stderr)
            return 1
        report = run_suite(suite, q, seed=args.seed, approx_digits=args.approx_digits)
        _write_json(out_dir / f"verify_q{q}_{suite}.json", report)
        for check in report["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"q={q} {suite}: {status} {check['name']}")
            if not check["pass"] and first_failure is None:
                first_failure = f"q={q} {suite}/{check['name']}"
        all_pass = all_pass and report["pass"]
    if not all_pass:
        print(f"verification failed, first failing check: {first_failure}", file=sys.stderr)
        return 1
    return 0


def _dump_table(q: int, out_dir: Path, digits: int) -> Path:
    table = build_table(PGL2(field_ctx_for_q(q)))
    target = table.conductor
    path = out_dir / f"table_q{q}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["character", "degree"]
        for label, size in zip(table.classes, table.sizes):
            name = label.kind if label.param is None else f"{label.kind}[{label.param}]"
            header += [f"{name}(size {size}) exact", f"{name} approx"]
        writer.writerow(header)
        for chi, row in zip(table.chars, table.values):
            out = [chi.name(), chi.degree]
            for value in row:
                lifted = value.lift(target)
                out += [lifted.coeff_string(), lifted.approx_string(digits)]
            writer.writerow(out)
    return path


def _dump_legendre(q: int, out_dir: Path, digits: int) -> Path:
    sums = CharacterSums(field_ctx_for_q(q))
    basis = sums.orthogonal_basis()
    path = out_dir / f"legendre_q{q}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["a"]
        for name, _, _ in basis:
            header += [f"{name} exact", f"{name} approx"]
        writer.writerow(header)
        for a in range(q):
            row = [a]
            for _, vec, _ in basis:
                row += [vec[a].coeff_string(), vec[a].approx_string(digits)]
            writer.writerow(row)
    return path


def _pair_name(pair, q: int) -> str:
    a, b = pair
    fmt = lambda p: "inf" if p == q else str(p)
    return f"({fmt(a)},{fmt(b)})"


def _dump_matrix(q: int, which: str, out_dir: Path) -> Path:
    model = DerangementModel(build_table(PGL2(field_ctx_for_q(q))))
    path = out_dir / f"matrix{which}_q{q}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        pair_names = [_pair_name(p, q) for p in model.omega]
        if which == "M":
            writer.writerow(["derangement"] + pair_names)
            m = model.build_m()
            for g, row in zip(model.group.derangements(), m):
                writer.writerow([";".join(map(str, g))] + [int(v) for v in row])
        else:
            writer.writerow(["pair"] + pair_names)
            gram = model.gram_bruteforce()
            for name, row in zip(pair_names, gram):
                writer.writerow([name] + [int(v) for v in row])
    return path


def cmd_dump(args) -> int:
    try:
        q_values = _parse_q_list(args.q)
        if args.what not in ("table", "legendre", "matrixM", "matrixN"):
            raise ValueError(f"unknown dump target {args.what!r}")
        for q in q_values:
            if q > MAX_VERIFY_Q:
                raise ValueError(f"q = {q} exceeds the budget {MAX_VERIFY_Q}")
            if q < 5:
                raise ValueError(f"{args.what} dump requires q >= 5")
        _check_approx_digits(args.approx_digits)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for q in q_values:
        if args.what == "table":
            path = _dump_table(q, out_dir, args.approx_digits)
        elif args.what == "legendre":
            path = _dump_legendre(q, out_dir, args.approx_digits)
        else:
            path = _dump_matrix(q, args.what[-1], out_dir)
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psl2q",
        description="Exact verification toolkit for intersecting families in PSL(2,q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites and write JSON reports")
    p_verify.add_argument("--q", required=True, help="comma-separated odd prime powers, e.g. 5,7,9")
    p_verify.add_argument("--suite", default="all", help="table | sums | rank | ekr | all")
    p_verify.add_argument("--out", default="reports", help="output directory for JSON reports")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for sampled spot checks")
    p_verify.add_argument("--budget-seconds", type=float, default=None, help="wall-clock cap")
    p_verify.add_argument("--approx-digits", type=int, default=12)
    p_verify.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump", help="write CSV artifacts")
    p_dump.add_argument("what", help="table | legendre | matrixM | matrixN")
    p_dump.add_argument("--q", required=True, help="comma-separated odd prime powers")
    p_dump.add_argument("--out", default="dumps", help="output directory")
    p_dump.add_argument("--approx-digits", type=int, default=12)
    p_dump.set_defaults(func=cmd_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
