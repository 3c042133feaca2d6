"""Tests of the benchmark itself, on shrunken copies of its workloads."""

import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness, tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

SHRINK = {
    "readme_smoke": {
        "train": {"steps": 5},
        "embed": {"max_windows": 2},
        "analyze": {"k_max": 3},
        "eval": {"seeds": 1, "windows": 2, "sample_count": 2, "k_max": 3},
    },
    "paper_shape": {
        "synth": {"length": 64},
        "train": {"steps": 3},
        "embed": {"max_windows": 2},
        "analyze": {"k_max": 3},
    },
}


def shrunk(name):
    """The workload with a few steps and windows, through the same stages."""
    workload = WORKLOADS[name]

    def apply(stages):
        return tuple(replace(s, config={**s.config, **SHRINK[name].get(s.command, {})}) for s in stages)

    return replace(workload, stages=apply(workload.stages))


def shrunk_run(name, trace=False, after_stage=None, seed=0):
    out = io.StringIO()
    result = harness.run(
        shrunk(name),
        root=ROOT,
        seed=seed,
        seconds=0,
        trace=trace,
        out=out,
        after_stage=after_stage,
    )
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shrunken_workload_prints_every_metric(name):
    result, lines = shrunk_run(name, seed=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    stages = {f"{command}_s" for command in WORKLOADS[name].timed_stages}
    assert printed == set(harness.END_TO_END) | stages | {"failed_frac"}


def test_traced_run_reports_every_layer_and_matches_untraced_outputs():
    result, lines = shrunk_run("readme_smoke", trace=True)
    # a traced repetition whose hashes differed from the untraced one
    # would count as failed
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.metric_units()
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert not any("not traced" in line for line in lines)
    assert values["model.forecast.calls"] > 0  # reached through evalharness' binding
    assert values["model.forward.calls"] > 0  # reached through model's own global
    assert values["dumps.EmbeddingDump.read.calls"] == 1
    assert all(values[f"cli.{stage}.self_s"] > 0 for stage in tracing.STAGES)


def test_uninstall_restores_every_binding():
    import isoprobe.cli
    import isoprobe.dumps
    import isoprobe.evalharness
    import isoprobe.model

    before = (isoprobe.evalharness.forecast, isoprobe.model.forward, isoprobe.cli.train,
              isoprobe.dumps.EmbeddingDump.__dict__["read"], isoprobe.cli.cli.commands["eval"].callback)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert isoprobe.evalharness.forecast is isoprobe.model.forecast is not before[0]
        assert isoprobe.cli.train is isoprobe.model.train is not before[2]
    finally:
        tracer.uninstall()
    after = (isoprobe.evalharness.forecast, isoprobe.model.forward, isoprobe.cli.train,
             isoprobe.dumps.EmbeddingDump.__dict__["read"], isoprobe.cli.cli.commands["eval"].callback)
    assert all(a is b for a, b in zip(before, after))
    assert tracer.missing == []


def test_flipped_dump_byte_is_counted_not_raised():
    def flip(stage, workdir):
        if stage.command == "embed":
            path = Path(workdir) / stage.config["out"] / "embeddings.isoemb"
            data = bytearray(path.read_bytes())
            data[-1] ^= 0x01
            path.write_bytes(bytes(data))

    result, lines = shrunk_run("paper_shape", after_stage=flip)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any(line.startswith("metric failed_frac 0.25") for line in lines)


def test_seed_offset_shifts_only_seeded_configs():
    stages = {s.command: s for s in WORKLOADS["readme_smoke"].stages}
    assert "seed =" not in stages["eval"].config_text(0)
    assert "seed = 2\n" in stages["eval"].config_text(2)
    assert "seed = 13\n" in stages["synth"].config_text(2)
    assert "seed" not in stages["embed"].config_text(2)


def test_summary_reports_percentile_only_with_ten_samples_beyond():
    assert harness.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3, "samples": [3.0, 1.0, 2.0]}
    summary = harness.summarize([float(i) for i in range(100)])
    assert summary["n"] == 100 and summary["p90"] == 89.0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme_smoke", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
