"""Benchmark of monoref: one workload, one seed, one run.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Workloads: `compile` (generated programs and the corpus through the
front end), `static-loop` (cast-free loop kernels) and `lattice` (every
static/dyn configuration of a ref-passing loop). Run from a monoref
checkout; monoref is imported from its `src/`. Detail lines start with
`# `; the last line is the JSON result. With `--trace 0` its metrics are
the end-to-end ones, measured untraced; with `--trace 1` they are the
per-layer ones from a run whose traced rounds alternate with untraced
ones. Exits 2 without a result when no checkout surrounds this directory.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import ROOT, WORKLOADS


def positive(raw: str) -> float:
    value = float(raw)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monoref" / "__init__.py").is_file() \
            or not (ROOT / "corpus").is_dir():
        print(f"perfbench: {ROOT} holds no monoref checkout "
              "(src/monoref and corpus/ are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    result, report = harness.measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    for line in report:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
