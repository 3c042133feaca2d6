"""Command-line pipeline: synth, train, embed, analyze, verify, eval, report.

Each command is one entry of the stage table ``STAGES``: the config keys
it reads, the upstream runs it consumes, and a body that writes its
outputs.  One runner does the rest for every stage: it reads the flat
key=value config file (flags win over config values), rejects keys the
stage does not declare, verifies the hashes of upstream artifacts
through their manifests, and records a manifest of the stage's own.
Exit codes: 0 success, 2 config error, 3 missing/stale input, 4 check
failure, 5 numeric failure.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import __version__
from .dumps import EmbeddingDump
from .errors import (
    CheckFailureError, ConfigError, GenerationFailureError, InvalidArgumentError, IsoprobeError,
    MergeRefusedError, MissingInputError,
)
from .evalharness import SweepConfig, run_sweep, sweep_rows_to_csv, sweep_verdicts
from .isotropy import layer_report, pca_plot_rows
from .kernels import (
    default_bank,
    kernelsynth_sample,
    load_series,
    save_series,
    single_kernel_series,
    table_dataset_specs,
)
from .manifest import (
    SCHEMA_VERSION,
    RunManifest,
    atomic_write_text,
    canonical_json,
    parse_config,
    read_json,
    take_config,
    verify_outputs,
)
from .model import TrainConfig, dump_embeddings, load_checkpoint, save_checkpoint, train
from .numerics import RngStream, ordered_map
from .theory import run_checks
from .tokenizer import TokenizerConfig, tokenize_windows

# A stage declares each config key it reads as (type, default) or
# (type, default, minimum); a key whose default is REQUIRED must be set,
# and a list[T] key holds distinct elements of type T, its minimum bounding its length.
REQUIRED = object()
# the config keys each kind of upstream run adds to a stage that reads it
UPSTREAM_KEYS = {
    "model": {"model": (str, REQUIRED)},
    "data": {"data": (str, REQUIRED), "datasets": (list[str], None, 1)},
    "embeddings": {"embeddings": (str, REQUIRED)},
}
# the model sidecar fields that embed, verify and eval read, with their types
SIDECAR_FIELDS = {"tokenizer": dict, "context_length": int, "horizon": int}
TOKENIZER_FIELDS = {"vocab_size": int, "low": float, "high": float}


@dataclass
class Run:
    """What the runner hands a stage body: typed options, the output
    directory and the upstream artifacts the stage declared."""

    opts: dict
    out_dir: Path
    workers: int
    inputs: dict = field(default_factory=dict)  # upstream file -> its verified hash, or None
    series: dict = None
    params: object = None
    tok_cfg: TokenizerConfig = None
    meta: dict = None
    dump: EmbeddingDump = None
    failure: IsoprobeError = None  # raised once the manifest is written

    @property
    def seed(self):
        return self.opts["seed"]

    def windows(self, tok_cfg, context_length, horizon=0, stride=1, limit=None):
        """Tokenized windows of every loaded dataset, in name order, as
        one (windows, context_length + horizon) array; no window at all
        is a config error naming context_length (the config's, or the
        model's once a model is loaded) and the datasets."""
        # the empty block keeps the shape when no dataset is loaded
        blocks = [np.empty((0, context_length + horizon), dtype=np.int64)]
        blocks.extend(
            tokenize_windows(series.values, tok_cfg, context_length, horizon, stride, limit)
            for _, series in sorted(self.series.items())
        )
        windows = np.concatenate(blocks)
        if not len(windows):
            source = "config field" if self.meta is None else "model"
            raise ConfigError(
                f"{source} context_length {context_length}: none of the datasets "
                f"[{', '.join(sorted(self.series))}] holds a window of "
                f"{context_length + horizon} values"
            )
        return windows

    def write_doc(self, filename, kind, **fields):
        """Write a versioned JSON document into the output directory."""
        path = self.out_dir / filename
        doc = {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}
        atomic_write_text(path, canonical_json(doc))
        return path


@dataclass(frozen=True)
class Stage:
    """One subcommand: its config keys, upstream runs and body.

    The body takes a ``Run`` and returns the paths it wrote; its
    docstring is the command's help."""

    name: str
    body: Callable
    keys: dict
    inputs: tuple = ()
    manifest: bool = True


def _worker_count(workers):
    """The pool size from --workers, else ISOPROBE_WORKERS, else 1; a
    count below 1 is a config error naming its source."""
    source = "--workers"
    if workers is None:
        source = "ISOPROBE_WORKERS"
        env = os.environ.get(source)
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"{source} must be an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigError(f"{source}: expected >= 1, got {workers}")
    return workers


def _load_upstream(run, kind):
    """Verify an upstream run's hashes, then load what the stage reads from it."""
    run_dir = Path(run.opts[kind])
    verified = verify_outputs(RunManifest.read(run_dir), run_dir)
    if kind == "model":
        path = run_dir / "model.isop"
        run.params, run.meta = load_checkpoint(path)
        try:
            if not isinstance(run.meta, dict):
                raise InvalidArgumentError(f"expected a JSON object, got {type(run.meta).__name__}")
            for key, type_ in SIDECAR_FIELDS.items():
                take_config(run.meta, key, required=True, kind=type_)
            tok = {f"tokenizer.{key}": value for key, value in run.meta["tokenizer"].items()}
            run.tok_cfg = TokenizerConfig(*(
                take_config(tok, f"tokenizer.{key}", required=True, kind=type_)
                for key, type_ in TOKENIZER_FIELDS.items()
            ))
        except IsoprobeError as exc:
            raise exc.add_context(f"{path}.json: model sidecar")
        run.inputs[path] = verified.get(path)
    elif kind == "embeddings":
        path = run_dir / "embeddings.isoemb"
        run.dump = EmbeddingDump.read(path)
        run.inputs[path] = verified.get(path)
    else:
        ds_dir = run_dir / "datasets"
        if not ds_dir.is_dir():
            raise MissingInputError(f"no datasets directory under {run_dir}")
        names = run.opts["datasets"] or sorted(p.stem for p in ds_dir.glob("*.csv"))
        run.series = {}
        for name in names:
            path = ds_dir / f"{name}.csv"
            if not path.is_file():
                raise MissingInputError(f"dataset {name} not found at {path}")
            run.series[name] = load_series(path)
            run.inputs[path] = verified.get(path)


def run_stage(stage, config_path, overrides, workers):
    """Parse and check the config, load upstream runs, run the body and
    record the manifest."""
    cfg = parse_config(config_path) if config_path else {}
    cfg.update((key, value) for key, value in overrides.items() if value is not None)
    keys = {"seed": (int, 0), "out": (str, f"out_{stage.name}")}
    for kind in stage.inputs:
        keys.update(UPSTREAM_KEYS[kind])
    keys.update(stage.keys)
    unknown = [key for key in cfg if key not in keys]
    if unknown:
        raise ConfigError(f"{stage.name}: unknown config key {', '.join(unknown)}")
    opts = {}
    for key, (kind, default, *minimum) in keys.items():
        value = opts[key] = take_config(cfg, key, default, required=default is REQUIRED, kind=kind)
        size, unit = (len(value), " elements") if isinstance(value, list) else (value, "")
        if minimum and value is not None and size < minimum[0]:
            raise ConfigError(f"config field {key}: expected >= {minimum[0]}{unit}, got {size}")
    workers = _worker_count(workers)
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run(opts, out_dir, workers)
    for kind in stage.inputs:
        _load_upstream(run, kind)
    outputs = stage.body(run)
    if stage.manifest:
        manifest = RunManifest(command=stage.name, config=cfg, seed=run.seed)
        for path, digest in run.inputs.items():
            manifest.record_input(out_dir, path, digest)
        for path in outputs:
            manifest.record_output(out_dir, path)
        manifest.write(out_dir)
    if run.failure is not None:
        raise run.failure


def _synth_task(task):
    mode, payload, length, seed, index = task
    stream = RngStream(seed, index)
    name = payload[0] if mode == "table" else f"synth_{index:03d}"
    try:
        if mode == "table":
            spec = payload[1]
            series = single_kernel_series(spec, length, stream)
        else:
            series = kernelsynth_sample(*payload, length, stream)
    except GenerationFailureError as exc:
        exc.add_context(f"dataset {name} (seed {seed}, stream id {index})")
        raise
    series.origin["name"] = name
    return name, series


def _synth(run):
    """Generate synthetic GP datasets (CSV + JSON sidecar + manifest)."""
    opt = run.opts
    length, seed = opt["length"], run.seed
    (run.out_dir / "datasets").mkdir(exist_ok=True)
    if opt["mode"] == "table":
        for key in ("count", "max_kernels"):
            if opt[key] is not None:
                raise ConfigError(f"config field {key}: table mode does not read it")
        tasks = [
            ("table", (name, spec), length, seed, i)
            for i, (name, spec) in enumerate(table_dataset_specs())
        ]
    elif opt["mode"] == "kernelsynth":
        tasks = [
            ("kernelsynth", (default_bank(), opt["max_kernels"] or 5), length, seed, i)
            for i in range(opt["count"] or 10)
        ]
    else:
        raise ConfigError(
            f"config field mode: expected 'table' or 'kernelsynth', got {opt['mode']!r}"
        )

    outputs = []
    results = ordered_map(_synth_task, tasks, run.workers)
    for name, series in results:
        outputs.extend(save_series(series, run.out_dir / "datasets" / f"{name}.csv"))
    click.echo(f"synth: wrote {len(results)} datasets to {run.out_dir}")
    return outputs


def _train(run):
    """Train the forecaster on tokenized windows from synth datasets."""
    opt = run.opts
    if opt["rank"] > opt["dim"]:
        raise ConfigError(f"config field rank: {opt['rank']} exceeds dim {opt['dim']}")
    tok_cfg = TokenizerConfig(vocab_size=opt["vocab_size"])
    # the TrainConfig fields that the checkpoint sidecar also records
    recorded = {
        key: opt[key]
        for key in ("learning_rate", "steps", "batch_size", "context_length", "horizon")
    }
    train_cfg = TrainConfig(seed=run.seed, **recorded)
    windows = run.windows(tok_cfg, train_cfg.context_length, train_cfg.horizon, opt["stride"])
    result = train(
        windows,
        train_cfg,
        dim=opt["dim"],
        rank=opt["rank"],
        layer_count=opt["layers"],
        vocab_size=tok_cfg.vocab_size,
    )
    meta = dict(
        recorded, tokenizer=tok_cfg.to_dict(), seed=run.seed, datasets=sorted(run.series)
    )
    ckpt_path, sidecar = save_checkpoint(result.params, run.out_dir / "model.isop", meta)
    curve_lines = ["step,loss"]
    curve_lines.extend(
        f"{step},{float(result.loss_curve[step])!r}"
        for step in range(0, train_cfg.steps, train_cfg.log_every)
    )
    curve_path = run.out_dir / "loss_curve.csv"
    atomic_write_text(curve_path, "\n".join(curve_lines) + "\n")
    click.echo(
        f"train: {len(windows)} windows, final loss {result.loss_curve[-1]:.4f}, "
        f"checkpoint at {ckpt_path}"
    )
    return [ckpt_path, sidecar, curve_path]


def _embed(run):
    """Dump per-position contextual embeddings over evaluation windows."""
    opt = run.opts
    windows = run.windows(
        run.tok_cfg, run.meta["context_length"], stride=opt["stride"], limit=opt["max_windows"]
    )
    try:
        dump = dump_embeddings(run.params, windows, layer_ids=opt["layers"])
    except InvalidArgumentError as exc:  # the windows are valid, so a layer id is at fault
        raise exc.add_context("config field layers")
    dump_path = dump.write(run.out_dir / "embeddings.isoemb")
    click.echo(f"embed: {dump.record_count} records -> {dump_path}")
    return [dump_path]


def _analyze(run):
    """Isotropy report plus top-3 PCA plot data per layer."""
    opt = run.opts
    if opt["k_max"] < opt["k_min"]:
        raise ConfigError(f"config field k_max: {opt['k_max']} is below k_min {opt['k_min']}")
    layers = []
    plot_lines = ["layer,pc1,pc2,pc3,cluster_id,token_id"]
    for layer in run.dump.layer_ids():
        report = layer_report(
            run.dump,
            layer,
            RngStream(run.seed, layer),
            k_range=range(opt["k_min"], opt["k_max"] + 1),
        )
        layers.append(report.to_dict())
        for row in pca_plot_rows(report):
            plot_lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))

    report_path = run.write_doc("isotropy_report.json", "isotropy_report", layers=layers)
    plot_path = run.out_dir / "pca_plot.csv"
    atomic_write_text(plot_path, "\n".join(plot_lines) + "\n")
    click.echo(f"analyze: {len(layers)} layers -> {report_path}")
    return [report_path, plot_path]


def _verify(run):
    """Machine-check the structural guarantees; exit 0 iff all pass."""
    opt = run.opts
    # the first `keep` windows of each dataset hold the first `keep` of all
    keep = opt["trace_windows"]
    windows = run.windows(
        run.tok_cfg, run.meta["context_length"], run.meta["horizon"], 16, keep
    )[:keep]
    sizes = ("heads", "bound_instances", "score_matrix_instances", "descent_starts",
             "descent_iters")
    checks = run_checks(
        run.params, windows, RngStream(run.seed, 0), **{key: opt[key] for key in sizes}
    )
    all_passed = all(c["passed"] for c in checks)
    report_path = run.write_doc(
        "verification_report.json",
        "verification_report",
        seed=run.seed,
        all_passed=all_passed,
        checks=checks,
    )
    for check in checks:
        click.echo(f"verify: {check['name']}: {'pass' if check['passed'] else 'FAIL'}")
    if all_passed:
        click.echo(f"verify: all checks passed -> {report_path}")
    else:
        failing = ", ".join(c["name"] for c in checks if not c["passed"])
        run.failure = CheckFailureError(f"failing checks: {failing}")
    return [report_path]


def _eval(run):
    """Run a context-length or noise sweep and report verdicts."""
    opt = run.opts
    sweep_cfg = SweepConfig(
        variable=opt["variable"],
        values=tuple(opt["values"]),
        seeds=tuple(range(run.seed, run.seed + opt["seeds"])),
        horizon=run.meta["horizon"],
        context_length=run.meta["context_length"],
        **{key: opt[key] for key in ("windows", "sample_count", "k_max")},
    )
    datasets = {name: s.values for name, s in run.series.items()}
    rows = run_sweep(run.params, run.tok_cfg, datasets, sweep_cfg, workers=run.workers)

    csv_path = run.out_dir / "sweep.csv"
    atomic_write_text(csv_path, sweep_rows_to_csv(rows))
    verdict_path = run.write_doc(
        "sweep_verdicts.json",
        "sweep_verdicts",
        variable=opt["variable"],
        verdicts=sweep_verdicts(rows) if len(opt["values"]) == 2 else {},
        note="directional comparison only; absolute levels depend on the trained model scale",
        **({"skipped_rows": rows.skipped} if rows.skipped else {}),
    )
    click.echo(f"eval: {len(rows)} rows, {len(rows.skipped)} skipped -> {csv_path}")
    return [csv_path, verdict_path]


_SECTION_FILES = {
    "isotropy_report": "isotropy_report.json",
    "verification_report": "verification_report.json",
    "sweep_verdicts": "sweep_verdicts.json",
}


def _report(run):
    """Merge run artifacts into one consolidated JSON report."""
    sections, seen = {}, set()
    for entry in run.opts["runs"]:
        run_dir = Path(entry)
        if run_dir.resolve() in seen:  # another spelling of an earlier run
            raise ConfigError(f"config field runs: element {entry!r} is repeated")
        seen.add(run_dir.resolve())
        manifest = RunManifest.read(run_dir)
        if manifest.schema_version != SCHEMA_VERSION:
            raise MergeRefusedError(
                f"{run_dir}: manifest schema version {manifest.schema_version} "
                f"conflicts with {SCHEMA_VERSION}"
            )
        section = {"manifest": manifest.to_dict()}
        for key, filename in _SECTION_FILES.items():
            path = run_dir / filename
            if path.is_file():
                doc = read_json(path)
                if doc.get("schema_version") != SCHEMA_VERSION:
                    raise MergeRefusedError(
                        f"{path}: schema version {doc.get('schema_version')} "
                        f"conflicts with {SCHEMA_VERSION}"
                    )
                section[key] = doc
        base = name = run_dir.name or str(run_dir)
        suffix = 2
        while name in sections:
            name, suffix = f"{base}_{suffix}", suffix + 1
        sections[name] = section
    report_path = run.write_doc(
        "report.json", "consolidated", tool_version=__version__, sections=sections
    )
    click.echo(f"report: merged {len(sections)} runs -> {report_path}")
    return [report_path]


STAGES = (
    Stage(
        "synth",
        _synth,
        {"mode": (str, "table"), "length": (int, 1024, 2),
         # count and max_kernels are read in kernelsynth mode only
         "count": (int, None, 1), "max_kernels": (int, None, 1)},
    ),
    Stage(
        "train",
        _train,
        {"vocab_size": (int, 512, 2), "learning_rate": (float, 0.05), "steps": (int, 5000, 1),
         "batch_size": (int, 32, 1), "context_length": (int, 16, 2), "horizon": (int, 4, 1),
         "stride": (int, 1, 1), "dim": (int, 64, 1), "rank": (int, 16, 1),
         "layers": (int, 2, 1)},
        inputs=("data",),
    ),
    Stage(
        "embed",
        _embed,
        {"stride": (int, 4, 1), "max_windows": (int, 64, 1), "layers": (list[int], None, 1)},
        inputs=("model", "data"),
    ),
    Stage(
        "analyze",
        _analyze,
        # pair_budget is read by nothing: kept while the benchmark's paper_shape config sets it
        {"pair_budget": (int, 10000, 1), "k_min": (int, 2, 2), "k_max": (int, 10)},
        inputs=("embeddings",),
    ),
    Stage(
        "verify",
        _verify,
        {"trace_windows": (int, 8, 1), "heads": (int, 50, 1), "bound_instances": (int, 200, 1),
         "score_matrix_instances": (int, 100, 1), "descent_starts": (int, 20, 1),
         "descent_iters": (int, 300, 1)},
        inputs=("model", "data"),
    ),
    Stage(
        "eval",
        _eval,
        {"variable": (str, REQUIRED), "values": (list[float], REQUIRED), "seeds": (int, 20, 1),
         "windows": (int, 32, 1), "sample_count": (int, 20, 1), "k_max": (int, 10, 2)},
        inputs=("model", "data"),
    ),
    Stage("report", _report, {"runs": (list[str], REQUIRED, 1)}, manifest=False),
)


@click.group()
@click.version_option(version=__version__, prog_name="isoprobe")
def cli():
    """Reproducible isotropy diagnostics for time-series forecasters."""


def _register(stage):
    # synth is the only stage that runs on defaults alone
    @cli.command(stage.name, help=stage.body.__doc__)
    @click.option("--config", "config_path", type=click.Path(), required=stage.name != "synth",
                  help="Run config file")
    @click.option("--seed", type=int, default=None, help="Override the config seed")
    @click.option("--out", type=click.Path(), default=None, help="Output directory")
    @click.option("--workers", type=int, default=None, help="Worker pool size")
    def command(config_path, seed, out, workers):
        run_stage(stage, config_path, {"seed": seed, "out": out}, workers)


for _stage in STAGES:
    _register(_stage)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.Abort:
        sys.exit(130)
    except IsoprobeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
