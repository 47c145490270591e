"""Benchmark of diracosc. Run it from the repository root:

    python3 perfbench/run.py --workload lattice-sweep --seed 1 --seconds 40 --trace 0

It imports the package from src/, attempts whole rounds of the workload's
operations until --seconds have passed, checks every output against the
oracle in oracle.py and prints one JSON object as the last line of standard
output. With --trace 0 it reports the end-to-end metrics; with --trace 1 it
wraps the package's layers (layers.py) and reports the per-layer ones. Result
and trace files go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import selftest
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 9
SETUP_ROUNDS = 4  # rounds of inputs a set-up generates


def _ref_loop(n: int) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def host_ref_loop() -> float:
    """Median time of a fixed pure-Python loop that never calls the program;
    it moves only when the host does."""
    return statistics.median(_ref_loop(1_500_000) for _ in range(3))


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from spawning the process to
    the package being imported and the workload's inputs generated."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed),
             str(SETUP_ROUNDS)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        times.append(t1 - t0)
    return statistics.median(times)


def run_rounds(stream, pkg, seconds: float):
    """Attempt whole rounds until `seconds` have passed. Returns a log of
    (label, latency, succeeded) per op, the failures, and the rounds run."""
    log: list = []
    failures: list[str] = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in stream.ops(pkg, stream.points()):
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op
                log.append((op.label, time.perf_counter() - t0, False))
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            try:
                op.check(out)
            except Exception as exc:  # a wrong or unreadable output fails the op
                log.append((op.label, dt, False))
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            log.append((op.label, dt, True))
        rounds += 1
    return log, failures, rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diracosc", "__init__.py")):
        print(f"perfbench: no diracosc package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    selftest.run()
    setup_s = measure_setup(args.workload, args.seed)
    ref_s = host_ref_loop()

    sys.path.insert(0, SRC)
    import diracosc

    tracer = None
    if args.trace:
        from layers import TARGETS, Tracer
        tracer = Tracer()
        tracer.install(diracosc)

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RESULTS, f"tmp-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        stream = workloads.WORKLOADS[args.workload](args.seed, workdir)
        log, failures, rounds = run_rounds(stream, diracosc, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok_times = [t for _, t, ok in log if ok]
    op_time = sum(t for _, t, _ in log)
    attempted, failed = len(log), len(log) - len(ok_times)

    for line in failures:
        print(f"perfbench: failed op {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{attempted} ops, {failed} failed, op time per round "
          f"{op_time / rounds:.4f} s, host.ref_loop_s {ref_s:.4f}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(ok_times) / op_time if op_time > 0 else 0.0,
                          "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(ok_times) if ok_times else 0.0,
                         "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(rounds)
        metrics["host.ref_loop_s"] = {"value": ref_s, "unit": "s"}
        tracer.write(os.path.join(RESULTS, f"trace-{tag}.jsonl"))
        absent = sorted(set(TARGETS) - tracer.installed)
        if absent:
            print(f"perfbench: no binding left to trace for {absent}", file=sys.stderr)

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "rounds": rounds, "host.ref_loop_s": ref_s,
                   "ops": log}, fh, indent=1)
    print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
