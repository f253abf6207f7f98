"""The t0kit benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload shapes --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh
single-threaded child interpreter (child.py) with PYTHONHASHSEED fixed,
so t0kit's memo caches start cold every time.  Repetitions follow one
another until --seconds have passed (at least one; with --trace 1 at
least one untraced and one traced), and all of them draw the same inputs
from (workload, seed).  Each operation's time is its best over the
repetitions.  Load is a closed loop: one caller, one operation in flight.

With --trace 0 the last line of stdout carries the end-to-end metrics,
with --trace 1 the per-layer metrics; the lines above it are a readable
table.  Span aggregates of a traced run are written under .perfbench/.
Exits 1 when the program cannot be found or a repetition fails, without
printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("shapes", "sweep", "maps", "cli")
IMPORT_SAMPLES = 2  # import-only children after each repetition, for setup_s
DEADLINE_S = 170  # a run ends within 180 s whatever --seconds says

# Per-layer metrics that must read nonzero calls on the workload that the
# metric is expected to move.
MAPPED = {
    "shapes": ["properties.is_sober", "properties.is_co_sober", "properties.is_strong_d",
               "properties.is_k_bounded_sober", "properties.is_open_well_filtered",
               "finite_space.is_directed", "finite_space.irreducible_closed_sets"],
    "sweep": ["finite_space.all_opens", "caps.caps_summary", "constructions.product",
              "constructions.canonical_embedding"],
    "maps": ["constructions.compose", "reflection_lab.is_reflection",
             "finite_space.FiniteSpace.__eq__", "enumeration.continuous_maps_list"],
    "cli": ["symbolic.check_owf", "symbolic.check_cosober_alexandrov",
            "symbolic.check_kbs_holds", "symbolic.check_johnstone_claims",
            "spacefile.parse_document", "spacefile.print_space",
            "report.render_text", "report.render_json", "report.render_dot"],
}


class RunFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cpus() -> list[int]:
    """CPUs that repetitions take turns on.  Another tenant slowing one
    CPU then slows only some repetitions of an operation, and the best
    of them still reads the program's own time."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity control on this platform
        return [-1]


def spawn(args: list[str], cpu: int, deadline: float) -> dict:
    """Run one child to completion and return its JSON result."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(cpu), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"child {args} passed the {DEADLINE_S}s deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"child {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build(deadline: float) -> None:
    """Compile t0kit's bytecode once, so import times measure loading
    cached bytecode, as an installed package does."""
    if not (ROOT / "src" / "t0kit" / "__init__.py").is_file():
        raise RunFailed(f"no t0kit sources under {ROOT / 'src'}")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RunFailed(f"compileall failed:\n{proc.stdout}{proc.stderr}")


def speed_probe() -> float:
    """A fixed pure-Python loop: context for reading a run, never used to
    normalise a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile; the maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def best_of(reps: list[dict]) -> list[float]:
    """Each operation's latency, best of the repetitions.  Every
    repetition runs the same operations on the same inputs, each with cold
    caches, so the minimum discards the time another tenant of the
    machine took from one of them, not work the program did."""
    counts = {len(r["latencies_s"]) for r in reps}
    if len(counts) != 1:
        raise RunFailed(f"repetitions ran different operation counts: {sorted(counts)}")
    return [min(col) for col in zip(*(r["latencies_s"] for r in reps))]


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, dict, dict]:
    best = best_of(reps)
    ops = len(best)
    attempted = ops * len(reps)
    failed = sum(r["failed"] for r in reps)
    wall = min(r["wall_s"] for r in reps)
    tail_s, tail_pct = tail(best)
    metrics = {
        "wall_s": (sum(best), "s"),
        "ops_per_s": (ops / sum(best), "1/s"),
        "op_p50_ms": (1000 * statistics.median(best), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    context = {
        "rep_wall_s": (wall, "s", "wall of the fastest whole repetition"),
        "rep_wall_median_s": (statistics.median(r["wall_s"] for r in reps), "s",
                              "median wall of a whole repetition"),
    }
    notes = {
        "wall_s": f"sum over operations of each one's best of {len(reps)}",
        "ops_per_s": f"{ops} operations per repetition",
        "op_p50_ms": f"median over operations, each best of {len(reps)}",
        "op_tail_ms": f"p{tail_pct:.2f} of {ops} operations, each best of {len(reps)}",
        "setup_s": f"best of {len(setups)} imports of t0kit.cli",
        "ok_ratio": f"fail_ratio {failed / attempted:.4g} "
                    f"({failed} of {attempted} failed or refused)",
    }
    return metrics, notes, context


def per_layer(workload: str, traced: list[dict], plain: list[dict]) -> dict:
    metrics = {}
    units = dict(metric_names())
    for name, unit in units.items():
        if name == "trace.overhead_ratio":
            value = min(r["wall_s"] for r in traced) / min(r["wall_s"] for r in plain)
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = (value, unit)
    silent = [m for m in MAPPED[workload] if metrics[f"{m}.calls"][0] == 0]
    if silent:
        raise RunFailed(f"mapped layers read 0 calls on {workload}: {', '.join(silent)}")
    return metrics


def run(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    build(deadline)
    probe_s = speed_probe()
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    turns = cpus()
    rep = 0
    while True:
        cpu = turns[rep % len(turns)]
        rep += 1
        plain.append(spawn([args.workload, str(args.seed), "0"], cpu, deadline))
        if args.trace:
            traced.append(spawn([args.workload, str(args.seed), "1"], cpu, deadline))
        setups += [spawn(["--import-only"], turns[i % len(turns)], deadline)["setup_s"]
                   for i in range(IMPORT_SAMPLES)]
        if time.monotonic() - started >= args.seconds:
            break
    reps = traced if args.trace else plain
    setups += [r["setup_s"] for r in plain]
    wrong = [e for r in plain + traced for e in r["wrong"]]
    refused = [e for r in plain + traced for e in r["refused"]]
    metrics, notes, context = end_to_end(plain, setups)
    context["probe_s"] = (probe_s, "s", "machine-speed probe, never used to normalise")

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(plain)}"
          f"{f' (+{len(traced)} traced)' if traced else ''}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:>12.6g} {unit:<6} {notes.get(name, '')}")
    for name, (value, unit, note) in context.items():
        print(f"  {name:<18} {value:>12.6g} {unit:<6} {note}")
    for e in wrong[:10]:
        print(f"  wrong: {e}")
    for e in refused[:10]:
        print(f"  refused: {e}")
    attempted = sum(len(r["latencies_s"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        layers = per_layer(args.workload, traced, plain)
        for name, (value, unit) in layers.items():
            print(f"  {name:<58} {value:>12.6g} {unit}")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps([r["edges"] for r in traced], indent=1))
        print(f"  span aggregates written to {spans.relative_to(ROOT)}")
        chosen = layers
    else:
        chosen = metrics
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
