"""Benchmark entry point: one workload, one seed, one timed run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: estimate, batch, phonesthemes, hyperopt (BENCHMARK.json says why
each was chosen, workloads.py what each runs). The program is run from ``src/`` of the
checkout; without it the run exits with status 2 and prints no result.
"""

import argparse
import os
import sys
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "signform" / "__init__.py").is_file():
        print(f"perfbench: no signform sources under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS before anything imports numpy; operation processes inherit it.
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args, PINNED)


if __name__ == "__main__":
    sys.exit(main())
