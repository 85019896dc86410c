"""One workload process, started by run.py with qring's source on PYTHONPATH.

Roles:
  prepare  write the inputs that are made before set-up is timed, then exit;
  setup    import, build the inputs, run the untimed warm-up, print READY, exit;
  run      the same set-up, READY, then the timed list of operations, each
           output checked outside the timed region, and one JSON result line.
           Latency percentiles cover the operations that completed; ops_per_s
           is completed operations over the time of all timed operations.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import numpy as np

from spans import Tracer
from workloads import LAYER_METRICS, WORKLOADS

MAX_REPORTED_FAILURES = 3


def load_qring(root: str):
    import qring

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(qring.__file__).startswith(src + os.sep):
        raise SystemExit(f"qring was imported from {qring.__file__}, not from {src}")


def time_ops(wl, ops, tracer=None, span="op"):
    """Run and check every operation; return (seconds of each completed
    operation, seconds of all operations, failed count, unexpected failures).

    An operation fails when it raises or its check fails.  That is expected
    of a witness (op["witness"]: a fixed input showing a known fault); a
    failure of any other operation is unexpected and makes the run incorrect.
    """
    latencies, total_s, failed, wrong = [], 0.0, 0, []
    gc.freeze()  # set-up objects stay out of the collections the timed operations trigger
    for i, op in enumerate(ops):
        out, why = None, None
        gc.collect()  # the previous check's garbage is not charged to this operation
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span(span):
                    out = wl.run(op)
            else:
                out = wl.run(op)
        except Exception as exc:
            why = f"raised {type(exc).__name__}: {str(exc)[-200:]}"
        dt = time.perf_counter() - t0
        total_s += dt
        if why is None:
            why = wl.check(i, op, out)
        if why is None:
            latencies.append(dt)
            continue
        failed += 1
        if not op.get("witness"):
            wrong.append(f"operation {i} ({op.get('kind', op.get('category'))}): {why}")
    gc.unfreeze()
    return latencies, total_s, failed, wrong


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=("prepare", "setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--inputs", required=True, help="JSON file of prepared inputs")
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)

    load_qring(args.root)
    wl = WORKLOADS[args.workload](args.root, args.seed, args.seconds)
    if args.role == "prepare":
        prepared = wl.prepare(os.path.dirname(args.inputs))
        with open(args.inputs, "w", encoding="utf-8") as fh:
            json.dump(prepared, fh)
        return 0

    with open(args.inputs, "r", encoding="utf-8") as fh:
        prepared = json.load(fh)
    ops = wl.build(prepared)
    wl.run(wl.warm)  # untimed warm-up on a fixed input
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        wl.instrument(tracer)
    latencies, total_s, failed, wrong = time_ops(wl, ops, tracer, f"op:{args.workload}")
    for line in wrong[:MAX_REPORTED_FAILURES]:
        print("unexpected failure: " + line, file=sys.stderr)
    if not latencies:
        raise SystemExit("no operation completed")

    lat_ms = np.array(latencies) * 1e3
    if tracer:
        tracer.unwrap()
        layer = dict.fromkeys(LAYER_METRICS, 0.0)
        layer.update(wl.layer_metrics(tracer.reduce(), tracer.counts))
        metrics = {k: {"value": float(v), "unit": LAYER_METRICS[k]} for k, v in layer.items()}
        if args.trace_file:
            tracer.write(args.trace_file, {
                "workload": args.workload, "seed": args.seed, "operations": len(ops),
                "traced_latency_p50_ms": float(np.percentile(lat_ms, 50)),
                "metrics": layer,
            })
        print(f"traced latency p50 {np.percentile(lat_ms, 50):.4f} ms over {len(ops)} operations", file=sys.stderr)
    else:
        metrics = {
            "ops_per_s": {"value": len(latencies) / total_s, "unit": "1/s"},
            "latency_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
            "latency_p90_ms": {"value": float(np.percentile(lat_ms, 90)), "unit": "ms"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
