"""Benchmark entry point.

    python3 perfbench/run.py --workload readme_smoke --seed 0 --seconds 32 --trace 0

Runs from the root of an isoprobe checkout and imports the package from
its ``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; see README.md in
this directory.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed offset")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "isoprobe" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no isoprobe sources at {package.parent}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ISOPROBE_WORKERS", None)

    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # a run that printed its result exits 0; the result says whether the
    # outputs were correct
    run(WORKLOADS[args.workload], root=ROOT, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
