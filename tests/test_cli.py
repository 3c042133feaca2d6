"""End-to-end pipeline tests: artifacts, manifests, determinism, exits."""

import csv
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprobe import cli, theory
from isoprobe.cli import main
from isoprobe.dumps import EmbeddingDump
from isoprobe.errors import IsoprobeError, NotPositiveSemidefiniteError
from isoprobe.kernels import default_bank, sample_kernel_tree
from isoprobe.manifest import RunManifest, parse_config, sha256_file
from isoprobe.model import load_checkpoint, save_checkpoint
from isoprobe.numerics import RngStream

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "isoprobe" / "report_schema.json"


def run_cli(*args):
    try:
        main([str(a) for a in args])
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def write_config(path, **kv):
    lines = []
    for key, value in kv.items():
        lines.append(f"{key} = {json.dumps(value)}")
    Path(path).write_text("\n".join(lines) + "\n")
    return path


def write_float_config(path, out, line):
    """A config whose third line is `line`, setting train's scalar
    learning_rate or an element of eval's values; returns the command."""
    command = "eval" if line.startswith("values") else "train"
    rest = 'model = "m"\nvariable = "noise_sigma"\n' if command == "eval" else ""
    Path(path).write_text(f'out = "{out}"\ndata = "d"\n{line}\n{rest}')
    return command


def build_pipeline(root, seed=11):
    """Run synth -> train -> embed -> analyze -> verify -> eval -> report
    with a smoke-scale config; returns the per-stage run dirs."""
    root = Path(root)
    dirs = {name: root / name for name in
            ("synth", "train", "embed", "analyze", "verify", "eval", "report")}
    cfgs = root / "cfg"
    cfgs.mkdir(parents=True)

    synth_cfg = write_config(
        cfgs / "synth.cfg", out=str(dirs["synth"]), seed=seed, length=256, mode="table"
    )
    assert run_cli("synth", "--config", synth_cfg) == 0

    train_cfg = write_config(
        cfgs / "train.cfg",
        out=str(dirs["train"]),
        data=str(dirs["synth"]),
        datasets=["seasonality_2"],
        vocab_size=64,
        dim=16,
        rank=8,
        layers=2,
        steps=200,
        learning_rate=0.3,
        batch_size=16,
        context_length=16,
        horizon=4,
        stride=2,
        seed=3,
    )
    assert run_cli("train", "--config", train_cfg) == 0

    embed_cfg = write_config(
        cfgs / "embed.cfg",
        out=str(dirs["embed"]),
        model=str(dirs["train"]),
        data=str(dirs["synth"]),
        datasets=["seasonality_2"],
        stride=8,
        max_windows=24,
        seed=5,
    )
    assert run_cli("embed", "--config", embed_cfg) == 0

    analyze_cfg = write_config(
        cfgs / "analyze.cfg",
        out=str(dirs["analyze"]),
        embeddings=str(dirs["embed"]),
        pair_budget=500,
        k_min=2,
        k_max=4,
        seed=7,
    )
    assert run_cli("analyze", "--config", analyze_cfg) == 0

    verify_cfg = write_config(
        cfgs / "verify.cfg",
        out=str(dirs["verify"]),
        model=str(dirs["train"]),
        data=str(dirs["synth"]),
        datasets=["seasonality_2"],
        heads=8,
        bound_instances=25,
        score_matrix_instances=10,
        descent_starts=4,
        descent_iters=120,
        trace_windows=6,
        seed=9,
    )
    assert run_cli("verify", "--config", verify_cfg) == 0

    eval_cfg = write_config(
        cfgs / "eval.cfg",
        out=str(dirs["eval"]),
        model=str(dirs["train"]),
        data=str(dirs["synth"]),
        datasets=["seasonality_2"],
        variable="noise_sigma",
        values=[0.0, 0.05],
        seeds=2,
        windows=6,
        sample_count=4,
        k_max=3,
        seed=0,
    )
    assert run_cli("eval", "--config", eval_cfg) == 0

    report_cfg = write_config(
        cfgs / "report.cfg",
        out=str(dirs["report"]),
        runs=[str(dirs[n]) for n in ("synth", "train", "embed", "analyze", "verify", "eval")],
    )
    assert run_cli("report", "--config", report_cfg) == 0
    return dirs


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    started = time.time()
    dirs = build_pipeline(root)
    return dirs, time.time() - started


class TestSynth:
    def test_default_table_has_ten_datasets(self, pipeline):
        dirs, _ = pipeline
        csvs = sorted((dirs["synth"] / "datasets").glob("*.csv"))
        assert len(csvs) == 10
        names = {p.stem for p in csvs}
        assert {"linear_1", "seasonality_2", "trend_1", "nonlinear_2", "stochastic_1"} <= names
        for csv in csvs:
            assert json.loads(csv.with_suffix(".json").read_text())["name"] == csv.stem

    def test_seed_repetition_reproduces_hashes(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.cfg", out=str(tmp_path / "a"), seed=4, length=64)
        cfg_b = write_config(tmp_path / "b.cfg", out=str(tmp_path / "b"), seed=4, length=64)
        assert run_cli("synth", "--config", cfg_a) == 0
        assert run_cli("synth", "--config", cfg_b) == 0
        ma = RunManifest.read(tmp_path / "a")
        mb = RunManifest.read(tmp_path / "b")
        assert ma.outputs == mb.outputs

    def test_workers_do_not_change_outputs(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.cfg", out=str(tmp_path / "a"), seed=6, length=64)
        cfg_b = write_config(tmp_path / "b.cfg", out=str(tmp_path / "b"), seed=6, length=64)
        assert run_cli("synth", "--config", cfg_a, "--workers", 1) == 0
        assert run_cli("synth", "--config", cfg_b, "--workers", 2) == 0
        assert RunManifest.read(tmp_path / "a").outputs == RunManifest.read(tmp_path / "b").outputs

    def test_smoke_config_is_fast(self, tmp_path):
        cfg = write_config(tmp_path / "s.cfg", out=str(tmp_path / "s"), seed=1, length=16)
        started = time.time()
        assert run_cli("synth", "--config", cfg) == 0
        assert time.time() - started < 1.0

    def test_kernelsynth_mode(self, tmp_path):
        cfg = write_config(
            tmp_path / "k.cfg",
            out=str(tmp_path / "k"),
            seed=2,
            length=64,
            mode="kernelsynth",
            count=3,
            max_kernels=3,
        )
        assert run_cli("synth", "--config", cfg) == 0
        assert len(list((tmp_path / "k" / "datasets").glob("*.csv"))) == 3

    @pytest.mark.parametrize("mode", ["table", "kernelsynth"])
    def test_generation_failure_names_dataset_seed_and_stream(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        def refuse(_):
            raise NotPositiveSemidefiniteError("forced refusal")

        monkeypatch.setattr("isoprobe.kernels.cholesky_psd", refuse)
        if mode == "table":
            index, name, count = 0, "linear_1", {}
        else:  # the first tree with a dense Gram matrix is the first to fail
            index = next(
                i for i in itertools.count()
                if not sample_kernel_tree(default_bank(), 5, RngStream(7, i)).is_diagonal
            )
            name, count = f"synth_{index:03d}", {"count": index + 1}
        cfg = write_config(tmp_path / "s.cfg", out=str(tmp_path / "s"), seed=7, length=64,
                           mode=mode, **count)
        assert run_cli("synth", "--config", cfg) == 5
        err = capsys.readouterr().err
        assert f"dataset {name} (seed 7, stream id {index}): " in err
        assert "forced refusal" in err

    def test_gram_too_large_to_allocate_exits_5_naming_length_and_bytes(
        self, tmp_path, capsys, monkeypatch
    ):
        length = 1_000_000
        zeros = np.zeros

        def refuse_gram(shape, *args, **kwargs):
            if shape == (length, length):
                raise MemoryError("forced: no 8 TB here")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", refuse_gram)
        cfg = write_config(tmp_path / "s.cfg", out=str(tmp_path / "s"), seed=7, length=length)
        assert run_cli("synth", "--config", cfg) == 5
        err = capsys.readouterr().err
        assert "dataset linear_1 (seed 7, stream id 0): " in err
        assert f"Gram matrix of length {length}: {8 * length**2} bytes" in err
        assert "Traceback" not in err

    def test_bad_mode_exits_2_with_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", out=str(tmp_path / "x"), mode="nope")
        assert run_cli("synth", "--config", cfg) == 2
        assert "mode" in capsys.readouterr().err


class TestPipelineArtifacts:
    def test_runtime_under_a_minute(self, pipeline):
        _, elapsed = pipeline
        assert elapsed < 60.0

    def test_train_outputs(self, pipeline):
        dirs, _ = pipeline
        assert (dirs["train"] / "model.isop").exists()
        assert (dirs["train"] / "model.isop.json").exists()
        with (dirs["train"] / "loss_curve.csv").open(newline="") as handle:
            assert handle.readline() == "step,loss\n"
            rows = list(csv.reader(handle))
        # one numeric row per TrainConfig.log_every (50) of the 200 steps
        assert [int(step) for step, _ in rows] == [0, 50, 100, 150]
        assert all(math.isfinite(float(loss)) for _, loss in rows)

    def test_embed_dump_readable(self, pipeline):
        dirs, _ = pipeline
        dump = EmbeddingDump.read(dirs["embed"] / "embeddings.isoemb")
        assert dump.record_count > 0
        assert dump.layer_ids() == [1, 2]

    def test_analyze_report_and_plot(self, pipeline):
        dirs, _ = pipeline
        doc = json.loads((dirs["analyze"] / "isotropy_report.json").read_text())
        assert doc["kind"] == "isotropy_report"
        assert len(doc["layers"]) == 2
        for layer in doc["layers"]:
            assert -1.0 <= layer["zeta_prime_cos"] <= 1.0
        plot = (dirs["analyze"] / "pca_plot.csv").read_text().splitlines()
        assert plot[0] == "layer,pc1,pc2,pc3,cluster_id,token_id"
        assert len(plot) > 1

    def test_verify_failure_exits_4_and_keeps_report(self, pipeline, tmp_path, monkeypatch):
        dirs, _ = pipeline
        real = theory.small_score_approximation
        # reversed, the rows stop shrinking from one rho to the next: the check fails
        monkeypatch.setattr(theory, "small_score_approximation", lambda *args: real(*args)[::-1])
        out = tmp_path / "v"
        cfg = write_config(
            tmp_path / "v.cfg",
            out=str(out),
            model=str(dirs["train"]),
            data=str(dirs["synth"]),
            datasets=["seasonality_2"],
            heads=2,
            bound_instances=2,
            score_matrix_instances=1,
            descent_starts=1,
            descent_iters=5,
            trace_windows=1,
        )
        assert run_cli("verify", "--config", cfg) == 4
        report = out / "verification_report.json"
        doc = json.loads(report.read_text())
        assert doc["all_passed"] is False
        failing = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failing == ["small_score_approximation"]
        assert RunManifest.read(out).outputs == {report.name: sha256_file(report)}

    def test_verify_tokenizes_only_the_windows_it_keeps(self, pipeline, tmp_path, monkeypatch):
        dirs, _ = pipeline
        real = cli.tokenize_windows
        reports, tokenized = [], []

        def counted(*args):
            windows = real(*args)
            tokenized.append(len(windows))
            return windows

        def unlimited(values, cfg, context_length, horizon, stride, limit):
            return real(values, cfg, context_length, horizon, stride)

        # no datasets key: every synth dataset, so the slice crosses datasets
        for name, tokenizer in (("limited", counted), ("unlimited", unlimited)):
            monkeypatch.setattr(cli, "tokenize_windows", tokenizer)
            out = tmp_path / name
            cfg = write_config(
                tmp_path / f"{name}.cfg",
                out=str(out),
                model=str(dirs["train"]),
                data=str(dirs["synth"]),
                heads=2,
                bound_instances=2,
                score_matrix_instances=1,
                descent_starts=1,
                descent_iters=5,
                trace_windows=6,
            )
            assert run_cli("verify", "--config", cfg) == 0
            reports.append((out / "verification_report.json").read_bytes())
        assert reports[0] == reports[1]
        assert tokenized == [6] * 10

    def test_verify_windows_follow_the_model(self, pipeline, tmp_path, monkeypatch):
        dirs, _ = pipeline
        train_cfg = write_config(
            tmp_path / "t.cfg", out=str(tmp_path / "t"), data=str(dirs["synth"]),
            datasets=["seasonality_2"], vocab_size=16, dim=4, rank=2, layers=1, steps=5,
            batch_size=8, context_length=8, horizon=2,
        )
        assert run_cli("train", "--config", train_cfg) == 0
        real = cli.tokenize_windows
        spans = []

        def recorded(values, cfg, context_length, horizon, *args):
            spans.append((context_length, horizon))
            return real(values, cfg, context_length, horizon, *args)

        monkeypatch.setattr(cli, "tokenize_windows", recorded)
        cfg = write_config(
            tmp_path / "v.cfg", out=str(tmp_path / "v"), model=str(tmp_path / "t"),
            data=str(dirs["synth"]), datasets=["seasonality_2"], heads=2, bound_instances=2,
            score_matrix_instances=1, descent_starts=1, descent_iters=5, trace_windows=2,
        )
        assert run_cli("verify", "--config", cfg) == 0
        # the model's context 8 and horizon 2
        assert spans == [(8, 2)]

    def test_verify_report_all_passed(self, pipeline):
        dirs, _ = pipeline
        doc = json.loads((dirs["verify"] / "verification_report.json").read_text())
        assert doc["all_passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {
            "shift_attack",
            "softmax_shift_invariance",
            "jacobian_bound",
            "optimal_score_matrix",
            "small_score_approximation",
        } <= names

    def test_eval_outputs(self, pipeline):
        dirs, _ = pipeline
        sweep = (dirs["eval"] / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "sweep_var,value,dataset,seed,nmse,zeta_prime,d08,iso_I"
        assert len(sweep) == 1 + 4  # 2 values x 1 dataset x 2 seeds
        verdicts = json.loads((dirs["eval"] / "sweep_verdicts.json").read_text())
        assert verdicts["kind"] == "sweep_verdicts"
        assert "anisotropy_increase_fraction" in verdicts["verdicts"]

    def test_report_validates_against_schema(self, pipeline):
        dirs, _ = pipeline
        doc = json.loads((dirs["report"] / "report.json").read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(doc, schema)
        assert set(doc["sections"]) == {"synth", "train", "embed", "analyze", "verify", "eval"}

    def test_report_carries_sections_verbatim(self, pipeline):
        dirs, _ = pipeline
        doc = json.loads((dirs["report"] / "report.json").read_text())
        verify_doc = json.loads((dirs["verify"] / "verification_report.json").read_text())
        assert doc["sections"]["verify"]["verification_report"] == verify_doc
        manifest_doc = json.loads((dirs["synth"] / "manifest.json").read_text())
        assert doc["sections"]["synth"]["manifest"] == manifest_doc


class TestDeterminismAndErrors:
    def test_full_pipeline_rerun_reproduces_hashes(self, pipeline, tmp_path):
        dirs, _ = pipeline
        rerun = build_pipeline(tmp_path / "again")
        for stage in ("synth", "train", "embed", "analyze", "verify", "eval"):
            first = RunManifest.read(dirs[stage])
            second = RunManifest.read(rerun[stage])
            assert first.outputs == second.outputs, f"stage {stage} diverged"

    def test_report_merge_idempotent(self, pipeline, tmp_path):
        dirs, _ = pipeline
        cfg = write_config(
            tmp_path / "r.cfg",
            out=str(tmp_path / "r"),
            runs=[str(dirs["verify"]), str(dirs["analyze"])],
        )
        cfg2 = write_config(
            tmp_path / "r2.cfg",
            out=str(tmp_path / "r2"),
            runs=[str(dirs["verify"]), str(dirs["analyze"])],
        )
        assert run_cli("report", "--config", cfg) == 0
        assert run_cli("report", "--config", cfg2) == 0
        assert (tmp_path / "r" / "report.json").read_text() == (
            tmp_path / "r2" / "report.json"
        ).read_text()

    def test_stale_artifact_exits_3(self, pipeline, tmp_path, capsys):
        dirs, _ = pipeline
        victim = dirs["synth"] / "datasets" / "seasonality_2.csv"
        original = victim.read_text()
        try:
            victim.write_text(original + "999,0.0\n")
            cfg = write_config(
                tmp_path / "t.cfg",
                out=str(tmp_path / "t"),
                data=str(dirs["synth"]),
                datasets=["seasonality_2"],
                vocab_size=16,
                dim=4,
                rank=2,
                layers=1,
                steps=5,
                context_length=4,
                horizon=2,
            )
            assert run_cli("train", "--config", cfg) == 3
            assert "stale" in capsys.readouterr().err
        finally:
            victim.write_text(original)

    def test_inputs_record_verified_hashes_and_hash_undeclared_files(
        self, pipeline, tmp_path, monkeypatch
    ):
        # every file is hashed once: an input by its upstream check, and a
        # CSV the synth manifest does not declare when it is recorded
        dirs, _ = pipeline
        hashed = []

        def counted(path):
            hashed.append(Path(path).resolve())
            return sha256_file(path)

        monkeypatch.setattr("isoprobe.manifest.sha256_file", counted)
        synth = tmp_path / "s"
        shutil.copytree(dirs["synth"], synth)
        extra = synth / "datasets" / "extra.csv"
        shutil.copy(synth / "datasets" / "seasonality_2.csv", extra)
        cfg = write_config(
            tmp_path / "t.cfg",
            out=str(tmp_path / "t"),
            data=str(synth),
            datasets=["seasonality_2", "extra"],
            vocab_size=16,
            dim=4,
            rank=2,
            layers=1,
            steps=5,
            context_length=4,
            horizon=2,
        )
        assert run_cli("train", "--config", cfg) == 0
        assert len(hashed) == len(set(hashed))
        declared = json.loads((synth / "manifest.json").read_text())["outputs"]
        inputs = json.loads((tmp_path / "t" / "manifest.json").read_text())["inputs"]
        assert "datasets/extra.csv" not in declared
        csvs = {name: synth / "datasets" / f"{name}.csv" for name in ("extra", "seasonality_2")}
        assert inputs == {path.resolve().as_posix(): sha256_file(path) for path in csvs.values()}
        assert inputs[csvs["seasonality_2"].resolve().as_posix()] == (
            declared["datasets/seasonality_2.csv"]
        )

    def test_missing_input_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path / "t.cfg",
            out=str(tmp_path / "t"),
            data=str(tmp_path / "nowhere"),
        )
        assert run_cli("train", "--config", cfg) == 3

    def test_missing_config_exits_2(self, tmp_path):
        assert run_cli("train", "--config", tmp_path / "absent.cfg") == 2

    def test_missing_required_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", out=str(tmp_path / "t"))
        assert run_cli("eval", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "model" in err

    def test_int_sweep_values_read_as_floats(self, pipeline, tmp_path):
        # each row's stream is keyed by its value: [4, 8] must draw what
        # [4.0, 8.0] draws
        dirs, _ = pipeline
        sweeps = []
        for name, values in (("ints", [4, 8]), ("floats", [4.0, 8.0])):
            cfg = write_config(
                tmp_path / f"{name}.cfg",
                out=str(tmp_path / name),
                model=str(dirs["train"]),
                data=str(dirs["synth"]),
                datasets=["seasonality_2"],
                variable="context_length",
                values=values,
                seeds=1,
                windows=6,
                sample_count=4,
                k_max=3,
            )
            assert run_cli("eval", "--config", cfg) == 0
            sweeps.append((tmp_path / name / "sweep.csv").read_bytes())
        assert sweeps[0] == sweeps[1]

    def test_repeated_sweep_value_exits_2_before_any_point(self, pipeline, tmp_path, capsys):
        dirs, _ = pipeline
        out = tmp_path / "e"
        cfg = write_config(
            tmp_path / "e.cfg",
            out=str(out),
            model=str(dirs["train"]),
            data=str(dirs["synth"]),
            datasets=["seasonality_2"],
            variable="noise_sigma",
            values=[0.05, 0.05],
            seeds=2,
        )
        assert run_cli("eval", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "config field values: element 0.05 is repeated" in err and "Traceback" not in err
        assert not (out / "sweep.csv").exists()

    def test_schema_version_conflict_refused(self, pipeline, tmp_path, capsys):
        dirs, _ = pipeline
        clone = tmp_path / "clone"
        clone.mkdir()
        doc = json.loads((dirs["verify"] / "manifest.json").read_text())
        doc["schema_version"] = 99
        (clone / "manifest.json").write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path / "r.cfg", out=str(tmp_path / "r"), runs=[str(clone)]
        )
        assert run_cli("report", "--config", cfg) == 2
        assert "schema version" in capsys.readouterr().err


class TestConfigErrors:
    @pytest.mark.parametrize(
        "command", ["synth", "train", "embed", "analyze", "verify", "eval", "report"]
    )
    def test_unknown_key_exits_2_naming_command_and_key(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.cfg", out=str(tmp_path / "o"), lenght=64)
        assert run_cli(command, "--config", cfg) == 2
        assert f"{command}: unknown config key lenght" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "embed"])
    def test_stride_below_one_exits_2_naming_key(self, pipeline, tmp_path, capsys, command):
        dirs, _ = pipeline
        upstream = {"data": str(dirs["synth"]), "datasets": ["seasonality_2"]}
        if command == "embed":
            upstream["model"] = str(dirs["train"])
        cfg = write_config(tmp_path / "c.cfg", out=str(tmp_path / "o"), stride=0, **upstream)
        assert run_cli(command, "--config", cfg) == 2
        assert "config field stride" in capsys.readouterr().err

    # keys whose value is the library's default or the trained model's own
    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("synth", "standardize", True),
            ("train", "clip_low", -15.0),
            ("train", "clip_high", 15.0),
            ("train", "log_every", 50),
            pytest.param("analyze", "eps", [0.8, 0.9], id="analyze-eps"),
            ("embed", "context_length", 16),
            ("verify", "context_length", 16),
            ("verify", "horizon", 4),
            ("eval", "context_length", 16),
            ("eval", "horizon", 4),
        ],
    )
    def test_key_no_stage_declares_exits_2_naming_it(
        self, tmp_path, capsys, command, key, value
    ):
        cfg = write_config(tmp_path / "c.cfg", out=str(tmp_path / "o"), **{key: value})
        assert run_cli(command, "--config", cfg) == 2
        assert f"{command}: unknown config key {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["embed", "verify"])
    def test_data_shorter_than_the_model_window_exits_2(
        self, pipeline, tmp_path, capsys, command
    ):
        dirs, _ = pipeline
        short = tmp_path / "short"
        synth_cfg = write_config(tmp_path / "s.cfg", out=str(short), length=8)
        assert run_cli("synth", "--config", synth_cfg) == 0
        cfg = write_config(
            tmp_path / "c.cfg", out=str(tmp_path / "o"), model=str(dirs["train"]),
            data=str(short), datasets=["seasonality_2", "trend_1"],
        )
        assert run_cli(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        # 8 values against the model's context of 16
        assert "model context_length 16: none of the datasets [seasonality_2, trend_1]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("analyze", "pair_budget", 0),
            ("analyze", "k_min", 1),
            ("analyze", "k_max", 3),  # below k_min = 4
            ("eval", "pair_budget", 0),  # an unknown key: the pair cosines are exact
            ("eval", "windows", 0),
            ("eval", "sample_count", 0),
            ("eval", "seeds", 0),
            ("eval", "k_max", 1),
            ("verify", "heads", 0),
            ("verify", "bound_instances", 0),
            ("verify", "score_matrix_instances", 0),
            ("verify", "descent_starts", 0),
            ("verify", "descent_iters", 0),
            ("verify", "trace_windows", 0),
            ("synth", "length", 1),
            ("synth", "count", 0),
            ("synth", "max_kernels", 0),
            ("train", "vocab_size", 1),
            ("train", "context_length", 1),
            ("train", "steps", 0),
            ("train", "batch_size", 0),
            ("train", "horizon", 0),
            ("train", "dim", 0),
            ("train", "rank", 0),
            ("train", "layers", 0),
            ("train", "rank", 65),  # above the default dim 64
            ("embed", "max_windows", 0),
            pytest.param("embed", "layers", [], id="embed-layers-empty"),
            pytest.param("embed", "layers", [1, 1], id="embed-layers-repeated"),
            pytest.param("train", "datasets", [], id="train-datasets-empty"),
            ("train", "context_length", 4096),  # longer than every series
            # a key the chosen mode does not read
            ("synth", "count", 3),  # table mode
            ("synth", "max_kernels", 3),
            pytest.param("report", "runs", [], id="report-runs-empty"),
            # a list-valued key holds each element once
            pytest.param("train", "datasets", ["seasonality_2"] * 2, id="train-datasets-repeated"),
            pytest.param("report", "runs", ["{synth}", "{synth}"], id="report-runs-repeated"),
            pytest.param("report", "runs", ["{synth}", "{synth}/"], id="report-runs-alias"),
            # a list-valued key checks its elements' type
            pytest.param("embed", "layers", [1.5], id="embed-layers-float"),
            pytest.param("embed", "layers", ["a"], id="embed-layers-str"),
            pytest.param("embed", "layers", [True], id="embed-layers-bool"),
            pytest.param("eval", "values", ["a", 2], id="eval-values-str"),
            pytest.param("eval", "values", [False, 0.05], id="eval-values-bool"),
            pytest.param("train", "datasets", [1], id="train-datasets-int"),
            pytest.param("report", "runs", [3], id="report-runs-int"),
        ],
    )
    def test_out_of_range_value_exits_2_naming_key(
        self, pipeline, tmp_path, capsys, command, key, value
    ):
        dirs, _ = pipeline
        data = {"data": str(dirs["synth"]), "datasets": ["seasonality_2"]}
        upstream = {
            "synth": {},
            "train": data,
            "analyze": {"embeddings": str(dirs["embed"]), "k_min": 4},
            "eval": {"model": str(dirs["train"]), **data, "variable": "context_length",
                     "values": [4, 8], "seeds": 1},
            "report": {},
        }.get(command, {"model": str(dirs["train"]), **data})
        if key == "runs":  # {stage} stands for that stage's run directory
            value = [v.format_map(dirs) if isinstance(v, str) else v for v in value]
        cfg = write_config(tmp_path / "c.cfg", out=str(tmp_path / "o"), **{**upstream, key: value})
        assert run_cli(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        named = f"config field {key}" in err or f"{command}: unknown config key {key}" in err
        assert named and "Traceback" not in err

    @pytest.mark.parametrize(
        "line", ["learning_rate = NaN", "learning_rate = Infinity", "learning_rate = -Infinity",
                 "learning_rate = 1e999", "values = [0.0, -Infinity]"],
    )
    def test_non_finite_number_exits_2_naming_line_and_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "t.cfg"
        command = write_float_config(cfg, tmp_path / "o", line)
        assert run_cli(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert f"{cfg}:3" in err and f"'{key}'" in err and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line", ["learning_rate = 1" + "0" * 400, "values = [0.0, -1" + "0" * 400 + "]"]
    )
    def test_integer_too_large_for_a_float_exits_2_naming_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "t.cfg"
        command = write_float_config(cfg, tmp_path / "o", line)
        assert run_cli(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert f"config field {key}" in err and "too large for a float" in err
        assert "Traceback" not in err

    def test_integer_past_the_digit_limit_exits_2_naming_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f'out = "{tmp_path / "o"}"\ndata = "d"\nsteps = 1{"0" * 5000}\n')
        assert run_cli("train", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3" in err and "'steps'" in err and "Traceback" not in err

    def test_duplicate_key_exits_2_naming_key_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(f'out = "{tmp_path / "o"}"\nlength = 64\nlength = 32\n')
        assert run_cli("synth", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert "'length'" in err and f"{cfg}:3" in err

    def test_config_read_from_a_pipe(self, tmp_path):
        # as a shell's `--config <(printf 'length = 64\n')` hands one over
        fifo = tmp_path / "cfg.fifo"
        os.mkfifo(fifo)
        out = tmp_path / "s"

        def feed():
            try:
                with open(fifo, "w") as pipe:
                    pipe.write(f'out = "{out}"\nlength = 64\n')
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            assert run_cli("synth", "--config", fifo) == 0
        finally:
            # a reader that never came would leave the writer blocked in open
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert (out / "manifest.json").is_file()

    def test_directory_config_exits_2_naming_it(self, tmp_path, capsys):
        assert run_cli("synth", "--config", tmp_path) == 2
        err = capsys.readouterr().err
        assert f"config path is a directory: {tmp_path}" in err and "not found" not in err

    def test_missing_config_says_not_found(self, tmp_path, capsys):
        assert run_cli("synth", "--config", tmp_path / "absent.cfg") == 2
        assert f"config file not found: {tmp_path / 'absent.cfg'}" in capsys.readouterr().err

    def test_undecodable_config_exits_2_naming_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xffseed = 1\n")
        assert run_cli("analyze", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "Traceback" not in err

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(raw=st.binary(max_size=64) | st.binary(max_size=32).map(lambda b: b"seed = 1\n" + b))
    def test_arbitrary_bytes_parse_or_raise_typed(self, tmp_path_factory, raw):
        cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        cfg.write_bytes(raw)
        try:
            parse_config(cfg)
        except IsoprobeError as exc:
            assert str(cfg) in str(exc)

    def test_deeply_nested_value_exits_2_naming_line(self, tmp_path, capsys):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("seed = 1\nout = " + "[" * 100_000 + "\n")
        assert run_cli("synth", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "Traceback" not in err

    def test_non_integer_workers_env_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ISOPROBE_WORKERS", "abc")
        cfg = write_config(tmp_path / "s.cfg", out=str(tmp_path / "s"), length=16)
        assert run_cli("synth", "--config", cfg) == 2
        assert "ISOPROBE_WORKERS" in capsys.readouterr().err

    def test_workers_flag_below_1_exits_2(self, tmp_path, capsys):
        # checked before the upstream runs, which would exit 3 here
        out = tmp_path / "r"
        cfg = write_config(tmp_path / "r.cfg", out=str(out), runs=[str(tmp_path / "missing")])
        assert run_cli("report", "--config", cfg, "--workers", -3) == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "-3" in err and "Traceback" not in err
        assert not out.exists()

    def test_workers_env_below_1_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ISOPROBE_WORKERS", "0")
        cfg = write_config(tmp_path / "s.cfg", out=str(tmp_path / "s"), length=16)
        assert run_cli("synth", "--config", cfg) == 2
        assert "ISOPROBE_WORKERS" in capsys.readouterr().err

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # ordered_map imports ProcessPoolExecutor only when it forks a pool
        src = Path(cli.__file__).resolve().parents[1]
        probe = "import sys, isoprobe.cli; print('concurrent.futures.process' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"


def forge_run(run_dir, files):
    """A run directory holding `files` (relative path -> bytes or text)
    under a manifest whose hashes match them; a `manifest.json` entry
    replaces that manifest."""
    manifest = RunManifest(command="forged", config={}, seed=0)
    for rel, data in files.items():
        path = run_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        if rel != "manifest.json":
            manifest.record_output(run_dir, path)
    if "manifest.json" not in files:
        manifest.write(run_dir)
    return run_dir


def forge_model_run(root, params, meta):
    """A train run directory holding `params` and the sidecar `meta` as
    save_checkpoint writes them, under a manifest whose hashes match."""
    root.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command="forged", config={}, seed=0)
    for path in save_checkpoint(params, root / "model.isop", meta):
        manifest.record_output(root, path)
    manifest.write(root)
    return root


SERIES = "index,value\n0,0.5\n1,-0.5\n2,0.25\n"


class TestMalformedArtifacts:
    """A malformed upstream artifact exits 2 naming its file.  run_cli
    returns only if main handled the error, so no traceback was printed."""

    @pytest.mark.parametrize(
        "files, culprit",
        [
            ({"manifest.json": "{not json"}, "manifest.json"),
            ({"manifest.json": '{"command": "synth", "config": {}}'}, "manifest.json"),
            ({"datasets/x.csv": SERIES + "3\n"}, "datasets/x.csv:5"),
            ({"datasets/x.csv": SERIES + "3,abc\n"}, "datasets/x.csv:5"),
            ({"datasets/x.csv": SERIES + "3,nan\n"}, "datasets/x.csv:5"),
            ({"datasets/x.csv": SERIES + "3,-inf\n"}, "datasets/x.csv:5"),
            ({"datasets/x.csv": SERIES + "3,1.0,junk\n"}, "datasets/x.csv:5"),
            ({"datasets/x.csv": SERIES + "5,2.0\n"}, "datasets/x.csv:5"),
            ({"datasets/x.csv": SERIES + "0,3.0\n"}, "datasets/x.csv:5"),
            ({"datasets/x.json": "{oops"}, "datasets/x.json"),
            ({"datasets/x.csv": b"\xff" + SERIES.encode()}, "datasets/x.csv"),
        ],
        ids=["unparsable_manifest", "manifest_without_seed", "row_without_value",
             "non_numeric_value", "nan_value", "infinite_value", "extra_field", "skipped_index",
             "repeated_index", "unparsable_dataset_sidecar", "undecodable_dataset"],
    )
    def test_malformed_data_run_exits_2(self, tmp_path, capsys, files, culprit):
        data_dir = forge_run(tmp_path / "d", {"datasets/x.csv": SERIES, **files})
        cfg = write_config(
            tmp_path / "t.cfg", out=str(tmp_path / "t"), data=str(data_dir), datasets=["x"],
            vocab_size=8, dim=2, rank=1, layers=1, steps=1, batch_size=1,
            context_length=2, horizon=1,
        )
        assert run_cli("train", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert str(data_dir / culprit) in err and "Traceback" not in err

    def test_deeply_nested_manifest_exits_2_naming_file(self, tmp_path, capsys):
        run_dir = tmp_path / "deep"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text("[" * 100_000)
        cfg = write_config(tmp_path / "r.cfg", out=str(tmp_path / "r"), runs=[str(run_dir)])
        assert run_cli("report", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert str(run_dir / "manifest.json") in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda meta: meta.pop("tokenizer"), "tokenizer"),
            (lambda meta: meta.pop("context_length"), "context_length"),
            (lambda meta: meta.pop("horizon"), "horizon"),
            (lambda meta: meta["tokenizer"].pop("low"), "tokenizer.low"),
            (lambda meta: meta["tokenizer"].update(vocab_size=64.0), "tokenizer.vocab_size"),
            (lambda meta: meta["tokenizer"].update(high="15"), "tokenizer.high"),
            (lambda meta: meta.update(tokenizer=[64, -15, 15]), "tokenizer"),
            (lambda meta: meta.update(context_length="16"), "context_length"),
            (lambda meta: meta.update(horizon=True), "horizon"),
        ],
        ids=["tokenizer", "context_length", "horizon", "tokenizer_without_low",
             "float_vocab_size", "string_high", "list_tokenizer", "string_context_length",
             "bool_horizon"],
    )
    def test_model_sidecar_without_key_exits_2(self, pipeline, tmp_path, capsys, edit, field):
        dirs, _ = pipeline
        model = (dirs["train"] / "model.isop").read_bytes()
        meta = json.loads((dirs["train"] / "model.isop.json").read_text())
        edit(meta)
        model_dir = forge_run(
            tmp_path / "m", {"model.isop": model, "model.isop.json": json.dumps(meta)}
        )
        cfg = write_config(
            tmp_path / "e.cfg", out=str(tmp_path / "e"), model=str(model_dir),
            data=str(dirs["synth"]), datasets=["seasonality_2"],
        )
        assert run_cli("embed", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"{model_dir / 'model.isop.json'}: model sidecar" in err and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sidecar", ["5", "[]", '"tokenizer"'])
    def test_model_sidecar_not_an_object_exits_2(self, pipeline, tmp_path, capsys, sidecar):
        dirs, _ = pipeline
        model = (dirs["train"] / "model.isop").read_bytes()
        model_dir = forge_run(tmp_path / "m", {"model.isop": model, "model.isop.json": sidecar})
        cfg = write_config(
            tmp_path / "e.cfg", out=str(tmp_path / "e"), model=str(model_dir),
            data=str(dirs["synth"]), datasets=["seasonality_2"],
        )
        assert run_cli("embed", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"{model_dir / 'model.isop.json'}: model sidecar: expected a JSON object" in err
        assert "Traceback" not in err

    def test_unparsable_model_sidecar_exits_2(self, pipeline, tmp_path, capsys):
        dirs, _ = pipeline
        model = (dirs["train"] / "model.isop").read_bytes()
        model_dir = forge_run(tmp_path / "m", {"model.isop": model, "model.isop.json": "{oops"})
        cfg = write_config(
            tmp_path / "e.cfg", out=str(tmp_path / "e"), model=str(model_dir),
            data=str(dirs["synth"]), datasets=["seasonality_2"],
        )
        assert run_cli("embed", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert str(model_dir / "model.isop.json") in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, upstream, artifact, version_offset",
        [("analyze", "embed", "embeddings.isoemb", 7), ("embed", "train", "model.isop", 4)],
        ids=["dump", "checkpoint"],
    )
    def test_unsupported_version_exits_2_naming_file(
        self, pipeline, tmp_path, capsys, command, upstream, artifact, version_offset
    ):
        dirs, _ = pipeline
        raw = bytearray((dirs[upstream] / artifact).read_bytes())
        raw[version_offset : version_offset + 4] = (7).to_bytes(4, "little")
        files = {artifact: bytes(raw)}
        if upstream == "train":
            files["model.isop.json"] = (dirs["train"] / "model.isop.json").read_text()
            keys = dict(model=str(tmp_path / "up"), data=str(dirs["synth"]),
                        datasets=["seasonality_2"])
        else:
            keys = dict(embeddings=str(tmp_path / "up"))
        forge_run(tmp_path / "up", files)
        cfg = write_config(tmp_path / "c.cfg", out=str(tmp_path / "out"), **keys)
        assert run_cli(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'up' / artifact}: unsupported" in err and "version 7" in err
        assert "Traceback" not in err

    def test_non_finite_dump_vector_exits_2_naming_record(self, pipeline, tmp_path, capsys):
        dirs, _ = pipeline
        dump = EmbeddingDump.read(dirs["embed"] / "embeddings.isoemb")
        dump.vectors[5, 3] = math.nan
        up = tmp_path / "up"
        forge_run(up, {"embeddings.isoemb": dump.write(tmp_path / "x.isoemb").read_bytes()})
        cfg = write_config(tmp_path / "c.cfg", out=str(tmp_path / "out"), embeddings=str(up))
        assert run_cli("analyze", "--config", cfg) == 2
        err = capsys.readouterr().err
        dump_path = up / "embeddings.isoemb"
        assert f"{dump_path}: layer {dump.layers[5]} record 5 holds nan at coordinate 3" in err
        assert "Traceback" not in err

    def test_zero_width_dump_exits_2_naming_file(self, pipeline, tmp_path, capsys):
        dirs, _ = pipeline
        dump = EmbeddingDump.read(dirs["embed"] / "embeddings.isoemb")
        flat = EmbeddingDump(
            dim=0, layers=dump.layers, token_ids=dump.token_ids,
            context_ids=dump.context_ids, vectors=dump.vectors[:, :0],
        )
        up = tmp_path / "up"
        forge_run(up, {"embeddings.isoemb": flat.write(tmp_path / "x.isoemb").read_bytes()})
        cfg = write_config(tmp_path / "c.cfg", out=str(tmp_path / "out"), embeddings=str(up))
        assert run_cli("analyze", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"{up / 'embeddings.isoemb'}: header declares dim 0" in err
        assert "Traceback" not in err


class TestForgedModels:
    """A model that loads but cannot run ends in a typed error and its exit
    code, never in a traceback."""

    def eval_exit(self, pipeline, tmp_path, capsys, edit):
        dirs, _ = pipeline
        params, meta = load_checkpoint(dirs["train"] / "model.isop")
        edit(params)
        model_dir = forge_model_run(tmp_path / "m", params, meta)
        cfg = write_config(
            tmp_path / "e.cfg", out=str(tmp_path / "e"), model=str(model_dir),
            data=str(dirs["synth"]), datasets=["seasonality_2"], variable="noise_sigma",
            values=[0.0, 0.05], seeds=1, windows=6, sample_count=4, k_max=3, seed=0,
        )
        code = run_cli("eval", "--config", cfg)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err, model_dir

    def test_non_finite_weight_exits_2_naming_file_and_tensor(self, pipeline, tmp_path, capsys):
        def poison(params):
            params.embed[3, 2] = math.nan

        code, err, model_dir = self.eval_exit(pipeline, tmp_path, capsys, poison)
        assert code == 2
        assert f"{model_dir / 'model.isop'}: tensor embed holds nan at (3, 2)" in err

    def test_overflowing_head_exits_5_naming_the_sweep_row(self, pipeline, tmp_path, capsys):
        # finite weights whose head logits overflow to inf - inf
        def overflow(params):
            params.embed *= 1e160
            for layer in params.layers:
                layer.w_q *= 1e-200
                layer.w_k *= 1e-200

        code, err, _ = self.eval_exit(pipeline, tmp_path, capsys, overflow)
        assert code == 5
        assert "noise_sigma = 0.0, dataset seasonality_2, seed 0: head probabilities" in err
