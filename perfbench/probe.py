"""Set-up probe: import monoref and build one workload's inputs, then exit.

run.py starts this in a fresh interpreter several times per run; the
median wall time of those starts is the `setup_s` metric. The last line
of output is JSON with the milliseconds `import monoref.cli` took.

    python3 perfbench/probe.py --workload compile --seed 1
"""

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

started = time.perf_counter()
import monoref.cli  # noqa: E402,F401  (timed: the CLI's own import cost)
import_ms = 1e3 * (time.perf_counter() - started)

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.WORKLOADS[args.workload](args.seed, BENCH / ".work")
    print(json.dumps({"import_ms": import_ms}))


if __name__ == "__main__":
    main()
