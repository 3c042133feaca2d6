"""The benchmark's workloads: which CLI stages run, with which configs.

Each workload is one caller in a closed loop.  Its ``stages`` are the
timed sequence, repeated until the run's time is used up.  Configs are written
verbatim as flat ``key = value`` files; a non-zero seed offset shifts
the ``seed`` of every stage that reads one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Stage:
    command: str
    config: dict
    seeded: bool = False

    def config_text(self, seed_offset):
        cfg = dict(self.config)
        if self.seeded and seed_offset:
            cfg["seed"] = cfg.get("seed", 0) + seed_offset
        return "".join(f"{key} = {json.dumps(value)}\n" for key, value in cfg.items())


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple
    # stages that take about a second or more get a timing of their own;
    # the rest count only in wall_s
    timed_stages: tuple


SMOKE_DATA = ["seasonality_2"]

# The README smoke pipeline, which every user runs first: forecast
# decoding and many small clusterings (n=512, D=16).  Its eval is cut
# from 20 to 2 sweep seeds so that a run holds several repetitions, and
# its verify stage is left out: verify's small_score_approximation check
# fails on some seeds (about 7% of its random instances), and a workload
# must be one on which no stage fails.  Every other value is the README's.
README_SMOKE = Workload(
    name="readme_smoke",
    stages=(
        Stage("synth", {"out": "run_synth", "seed": 11, "length": 256, "mode": "table"}, True),
        Stage(
            "train",
            {
                "out": "run_train",
                "data": "run_synth",
                "datasets": SMOKE_DATA,
                "vocab_size": 64,
                "dim": 16,
                "rank": 8,
                "layers": 2,
                "steps": 200,
                "learning_rate": 0.3,
                "batch_size": 16,
                "context_length": 16,
                "horizon": 4,
                "stride": 2,
                "seed": 3,
            },
            True,
        ),
        Stage(
            "embed",
            {
                "out": "run_embed",
                "model": "run_train",
                "data": "run_synth",
                "datasets": SMOKE_DATA,
                "stride": 8,
                "max_windows": 24,
            },
        ),
        Stage(
            "analyze",
            {"out": "run_analyze", "embeddings": "run_embed", "k_min": 2, "k_max": 4},
            True,
        ),
        Stage(
            "eval",
            {
                "out": "run_eval",
                "model": "run_train",
                "data": "run_synth",
                "datasets": SMOKE_DATA,
                "variable": "noise_sigma",
                "values": [0.0, 0.05],
                "seeds": 2,
            },
            True,
        ),
        Stage(
            "report",
            {
                "out": "run_report",
                "runs": [
                    "run_synth",
                    "run_train",
                    "run_embed",
                    "run_analyze",
                    "run_eval",
                ],
            },
        ),
    ),
    timed_stages=("train", "eval"),
)

# The paper's model shape end to end: GP sampling (8 dense 1024x1024
# Cholesky factorizations), SGD at V512/D64/m16 over all 10 datasets, then
# isotropy analysis of a few large D=64 matrices, the opposite use of the
# layers readme_smoke calls on many small ones.  No forecasting or theory
# checks.  Cut from the paper-scale plan so that a run holds several
# repetitions: 200 training steps, not 500; 12 windows per dataset, not 16
# (1920 records per layer); k 2..3, not 2..10.
PAPER_SHAPE = Workload(
    name="paper_shape",
    stages=(
        Stage("synth", {"out": "run_synth", "seed": 0, "length": 1024, "mode": "table"}, True),
        Stage(
            "train",
            {
                "out": "run_train",
                "data": "run_synth",
                "vocab_size": 512,
                "dim": 64,
                "rank": 16,
                "layers": 2,
                "steps": 200,
                "batch_size": 32,
                "stride": 1,
                "seed": 0,
            },
            True,
        ),
        Stage(
            "embed",
            {"out": "run_embed", "model": "run_train", "data": "run_synth", "stride": 4, "max_windows": 12},
        ),
        Stage(
            "analyze",
            {
                "out": "run_analyze",
                "embeddings": "run_embed",
                "k_min": 2,
                "k_max": 3,
                "pair_budget": 10000,
            },
            True,
        ),
    ),
    timed_stages=("synth", "train", "analyze"),
)

WORKLOADS = {w.name: w for w in (README_SMOKE, PAPER_SHAPE)}
