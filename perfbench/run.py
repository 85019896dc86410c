"""qring benchmark: run one workload on one seed and print one JSON result line.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 8 --trace 0

Run from the root of a qring checkout.  The workload runs in a child process
with src/ on PYTHONPATH and one BLAS/OpenMP thread.  With --trace 0 the
result holds the end-to-end metrics; set-up time is the median over three
fresh processes (two that stop after set-up, then the measured one).  With
--trace 1 the same operations run with spans around the calls into qring and
the result holds the per-layer metrics; the spans go to perfbench/out/.
Exits non-zero, printing no result, when the checkout has no qring source
or a workload process fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("forward", "pair", "invert", "cli")
PREPARED = ("pair", "invert", "cli")  # workloads whose inputs are made before set-up is timed
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Failure(Exception):
    pass


def spawn(role: str, args, inputs: str, deadline: float, trace_file: str | None = None):
    """Start worker.py in ``role``; return (seconds until READY or exit, stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--inputs", inputs]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    t0 = time.perf_counter()
    # a session of its own, so a timeout also ends the qring.cli processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise Failure(f"{role} process exited with {code}")
    return ready, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qring", "__init__.py")):
        print(f"no qring source under {ROOT}/src; run from a qring checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir)
    inputs = os.path.join(workdir, "inputs.json")
    try:
        if args.workload in PREPARED:
            spawn("prepare", args, inputs, deadline)
        else:
            with open(inputs, "w", encoding="utf-8") as fh:
                fh.write("null")
        if args.trace:
            trace_file = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz")
            _, lines = spawn("run", args, inputs, deadline, trace_file)
            result = json.loads(lines[-1])
        else:
            setups = [spawn("setup", args, inputs, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
            ready, lines = spawn("run", args, inputs, deadline)
            setups.append(ready)
            result = json.loads(lines[-1])
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (Failure, IndexError, ValueError, TypeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
