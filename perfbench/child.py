"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py CPU WORKLOAD SEED TRACE
    python3 perfbench/child.py CPU --import-only

Run by run.py, never imported.  A fresh process per repetition means the
lru caches inside t0kit start cold every time, so a memoising change
cannot win on repeats.  The process pins itself to one CPU (CPU < 0
leaves it free).  The first thing timed is ``import t0kit.cli``, which
every command-line invocation pays.  Prints one JSON object.
"""

import json
import os
import resource
import sys
import time

if int(sys.argv[1]) >= 0:
    os.sched_setaffinity(0, {int(sys.argv[1])})
t0 = time.perf_counter()
import t0kit.cli  # noqa: E402,F401
setup_s = time.perf_counter() - t0

# Caps as shipped; a leaked override would change what is measured.
SEED_CAPS = {"carrier_cap": 16, "product_cap": 4096, "owf_opens_cap": 12,
             "enum_cap": 6, "maps_cap": 1_000_000, "truncate_cap": 256}


def main(argv: list[str]) -> int:
    workload = argv[0]
    if workload == "--import-only":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    seed, trace = int(argv[1]), argv[2] == "1"

    import random

    from t0kit.caps import caps_summary

    if os.environ.get("T0KIT_CAP"):
        raise SystemExit("T0KIT_CAP is set; the benchmark measures default caps only")
    summary = caps_summary()
    leaked = {k: v for k, v in summary.items() if k in SEED_CAPS and v != SEED_CAPS[k]}
    if leaked or not {"carrier_cap", "product_cap", "owf_opens_cap", "enum_cap"} <= set(summary):
        raise SystemExit(f"caps differ from the defaults: {summary}")

    from tracer import Tracer
    from workloads import Session, run_workload

    tracer = Tracer() if trace else None
    session = Session(tracer)
    rng = random.Random(f"{workload}:{seed}")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run_workload(workload, rng, session, root)
    out = {
        "setup_s": setup_s,
        "wall_s": session.wall_s,
        "latencies_s": session.latencies,
        "failed": session.failed,
        "refused": session.refused,
        "wrong": session.wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.collect()
        out["edges"] = tracer.edge_list()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))
