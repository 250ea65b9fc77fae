"""Rebuild reference.json from the program in src/.

    PYTHONPATH=src python3 perfbench/record_reference.py

The shipped reference was recorded from the commit that introduced this
benchmark.  Run this only at that commit: recording from a later commit
would make the gate accept whatever that commit computes.
"""

import json

import gate
from run import WORKLOADS

from psl2q.verify import run_suite


def main():
    pairs = sorted({pair for plan in WORKLOADS.values() for pair in plan})
    reference = {}
    for q, suite in pairs:
        report = run_suite(suite, q, seed=0, allow_q9=(q == 9))
        if not report["pass"]:
            raise SystemExit(f"q={q} {suite} does not pass; no reference recorded")
        reference[gate.reference_key(q, suite)] = gate.exact_results(report)
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
