"""One repetition of a benchmark plan, in a fresh interpreter.

run.py starts this script once per repetition, as every `psl2q verify` user
starts a cold interpreter with cold module caches.  Set-up is the interval
from launch (stamped by run.py) to the end of `import psl2q` and of
`field_ctx_for_q` for every q of the plan, both clocks being
CLOCK_MONOTONIC.  Then each (q, suite) of the plan runs through
`psl2q.cli.main(["verify", ...])` and is timed on its own.

The one argument is a JSON object: plan, seed, out (report directory),
result (file this script writes), trace, spans (file for the trace spans,
used when trace is set) and setup_only.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
tracer = None
if spec["trace"]:
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)

import psl2q.cli  # noqa: E402  (the import is part of the timed set-up)
from psl2q.fields import field_ctx_for_q  # noqa: E402

for q in sorted({q for q, _ in spec["plan"]}):
    field_ctx_for_q(q)
ready = time.monotonic()


def _accepts(flag: str) -> bool:
    _, unknown = psl2q.cli.build_parser().parse_known_args(["verify", "--q", "9", flag])
    return not unknown


pairs = []
if not spec["setup_only"]:
    # q = 9 ekr needs the opt-in while the command line still has it.
    ekr_q9 = ["--ekr-q9"] if _accepts("--ekr-q9") else []
    for q, suite in spec["plan"]:
        argv = ["verify", "--q", str(q), "--suite", suite, "--out", spec["out"], "--seed", str(spec["seed"])]
        if suite == "ekr" and q == 9:
            argv += ekr_q9
        error = None
        start = time.perf_counter()
        try:
            code = psl2q.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed run, reported to run.py
            code, error = None, repr(exc)
        seconds = time.perf_counter() - start
        pairs.append({"q": q, "suite": suite, "seconds": seconds, "exit": code, "error": error})

import resource  # noqa: E402
import numpy  # noqa: E402

result = {
    "ready": ready,
    "pairs": pairs,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "numpy": numpy.__version__,
}
if tracer is not None:
    result["layers"] = tracer.metrics()
    tracer.write_spans(spec["spans"])
with open(spec["result"], "w") as fh:
    json.dump(result, fh)
