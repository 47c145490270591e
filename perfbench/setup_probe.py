"""One set-up of the benchmark in a fresh process: import the package and
generate a workload's inputs, then print `ready`. run.py times each probe
from spawning it to that line.

    python3 perfbench/setup_probe.py <workload> <seed> <rounds>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import diracosc  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    stream = workloads.WORKLOADS[name](seed)
    for _ in range(rounds):
        stream.ops(diracosc, stream.points())
    print("ready", flush=True)


if __name__ == "__main__":
    main()
