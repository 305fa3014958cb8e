"""boxspin benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,settings,reach,selftest} \
        --seed N --seconds S --trace {0,1}

Runs the workload against the package in ./src for about S seconds and
prints, as the last line of stdout, {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run is split into an untraced and a traced half (same
operations in the same order) and the metrics are the per-layer ones
read from spans, which are also written to .bench_out/.  Progress and
errors go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# setup_s is the median of this many set-ups in one run.
SETUP_REPEATS = 3


def measure(workload, seconds: float, min_ops: int = 1, ops: int | None = None, tracer=None) -> dict:
    """Run ``ops`` ops, or at least ``min_ops`` and then stop before one would pass ``seconds``."""
    latencies = []
    done = attempted = failed = 0
    while True:
        if tracer is not None:
            tracer.op = len(latencies) + 1
        dt, units, checks, bad = workload.op()
        if tracer is not None:
            tracer.op = None
        latencies.append(dt)
        done += units
        attempted += checks
        failed += bad
        spent = sum(latencies)
        if ops is not None:
            if len(latencies) == ops:
                break
        elif len(latencies) >= min_ops and spent + spent / len(latencies) > seconds:
            break
    return {"latencies": latencies, "done": done, "attempted": attempted, "failed": failed,
            "seconds": sum(latencies)}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_untraced(workload, seconds: float) -> tuple[dict, dict]:
    setups = [workload.setup_once() for _ in range(SETUP_REPEATS)]
    stats = measure(workload, seconds, workload.min_ops)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": stats["done"] / stats["seconds"],
        "op_p50_ms": 1000.0 * statistics.median(getattr(workload, "unit_latencies", None)
                                                 or stats["latencies"]),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    print(f"{stats['done']} {workload.unit}s in {len(stats['latencies'])} ops, "
          f"setups {[round(s, 3) for s in setups]}", file=sys.stderr)
    return stats, {name: _metric(values[name], unit) for name, unit in _declared("end_to_end").items()}


def run_traced(workload, seconds: float, out_dir: Path, tag: str) -> tuple[dict, dict]:
    from tracing import Tracer, per_layer

    workload.setup_once()
    # One unmeasured op first, so one-time costs (lazy imports inside the
    # package) fall on neither half.  Its outputs are still checked.
    _, _, warm_attempted, warm_failed = workload.op()
    workload.rewind()
    plain = measure(workload, seconds / 2.0)
    workload.rewind()
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    traced = measure(workload, seconds / 2.0, ops=len(plain["latencies"]), tracer=tracer)
    workload.traced_extras()
    tracer.spans = [s for s in tracer.spans if s[5] is not None]

    layers = per_layer(tracer)
    layers.update(workload.layer_metrics())
    layers.update(workload.accuracy.metrics())
    layers["trace.overhead_share"] = traced["seconds"] / plain["seconds"] - 1.0
    # Every traced run reports every declared per-layer metric; a layer
    # the workload does not reach reads 0.
    declared = _declared("per_layer")
    unknown = set(layers) - set(declared)
    if unknown:
        raise RuntimeError(f"per-layer metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {name: _metric(layers.get(name, 0), unit) for name, unit in declared.items()}

    out_dir.mkdir(exist_ok=True)
    report = {
        "workload": workload.__class__.__name__.lower(),
        "metrics": metrics,
        "absent_hooks": tracer.absent,
        "reach_probes": getattr(workload, "probed", []),
        **tracer.to_json(),
    }
    (out_dir / f"trace-{tag}.json").write_text(json.dumps(report) + "\n")
    stats = {"attempted": warm_attempted + plain["attempted"] + traced["attempted"],
             "failed": warm_failed + plain["failed"] + traced["failed"]}
    return stats, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="boxspin benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "boxspin" / "__init__.py").is_file():
        print(f"error: no boxspin package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])

    import boxspin

    if Path(boxspin.__file__).resolve().parent != (SRC / "boxspin").resolve():
        print(f"error: imported boxspin from {boxspin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, env)
    try:
        if args.trace:
            stats, metrics = run_traced(workload, args.seconds, ROOT / ".bench_out",
                                        f"{args.workload}-seed{args.seed}")
        else:
            stats, metrics = run_untraced(workload, args.seconds)
    finally:
        workload.close()
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            print(f"error: metric {name} is not finite", file=sys.stderr)
            return 1
    result = {
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"wall {time.perf_counter() - start:.1f} s", file=sys.stderr)
    sys.exit(code)
