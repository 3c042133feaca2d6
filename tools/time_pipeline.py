"""Time the paper-scale pipeline, one stage at a time.

    python3 tools/time_pipeline.py --work /tmp/paper_scale

Runs synth, train, embed, analyze, verify, a noise eval (sigma 0 and
0.05) and a context-length eval (4 and 16) at the CLI defaults (seed 0,
vocab 512, dim 64, rank 16, 5000 steps, all 10 datasets, 20 sweep
seeds), each stage in a fresh ``python -m isoprobe.cli`` process with
``--workers 1`` and every BLAS and OpenMP thread pool pinned to 1.  The
package is imported from the ``src/`` of the checkout this file sits in.
Configs, outputs and each stage's log go under ``--work``, which must
not exist yet.  The last line of standard output is one JSON object: per
stage its wall time (the process from start to exit, interpreter
start-up included) and exit code, plus the total.  The exit code is 1 if
any stage failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))
from perfbench import THREAD_VARS  # noqa: E402  (the benchmark pins the same variables)


def stage_configs(work):
    """(run name, command, config) per stage: the CLI defaults plus the
    upstream runs each stage reads and the two sweeps' variable and values."""
    upstream = {"model": str(work / "train"), "data": str(work / "synth")}
    return [
        ("synth", "synth", {}),
        ("train", "train", {"data": str(work / "synth")}),
        ("embed", "embed", upstream),
        ("analyze", "analyze", {"embeddings": str(work / "embed")}),
        ("verify", "verify", upstream),
        ("eval_noise", "eval", {**upstream, "variable": "noise_sigma", "values": [0.0, 0.05]}),
        ("eval_context", "eval", {**upstream, "variable": "context_length", "values": [4, 16]}),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True, help="new directory for all outputs")
    args = parser.parse_args(argv)

    work = args.work.resolve()
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), **{var: "1" for var in THREAD_VARS})
    stages = {}
    for name, command, config in stage_configs(work):
        cfg = work / f"{name}.cfg"
        config = {"out": str(work / name), **config}
        cfg.write_text("".join(f"{key} = {json.dumps(value)}\n" for key, value in config.items()))
        argv = [sys.executable, "-m", "isoprobe.cli", command, "--config", str(cfg),
                "--workers", "1"]
        with open(work / f"{name}.log", "w") as log:
            started = time.perf_counter()
            code = subprocess.run(argv, env=env, stdout=log, stderr=subprocess.STDOUT).returncode
            wall = time.perf_counter() - started
        stages[name] = {"wall_s": round(wall, 3), "exit_code": code}
        print(f"{name}: {wall:.2f} s, exit {code}", file=sys.stderr)
    total = round(sum(stage["wall_s"] for stage in stages.values()), 3)
    print(json.dumps({"src": str(SRC), "stages": stages, "total_s": total}))
    return 1 if any(stage["exit_code"] for stage in stages.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
