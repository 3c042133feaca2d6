"""Run a workload's stages through ``isoprobe.cli.main``, time and check them.

One run: set up once, then repeat the timed stage sequence in a closed
loop until ``seconds`` are used, every repetition in the same absolute
working directory (manifests record upstream inputs by absolute path, so
outputs only repeat bit for bit there).  A traced run makes one untraced
and one traced repetition instead.  Every stage invocation is checked;
a failure is counted, never raised.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from isoprobe.cli import main as isoprobe_main

from . import THREAD_VARS
from .tracing import Tracer, metric_units

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# fresh interpreters timed per run; setup_s takes their median
STARTS = 7


@dataclass
class Repetition:
    stage_s: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self):
        return sum(self.stage_s.values())


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _dump_layer_count(path):
    """Layer count an embedding dump declares in its header."""
    return int(np.frombuffer(Path(path).read_bytes()[:15], "<u4", count=1, offset=11)[0])


class Checks:
    """Correctness gate for each stage's outputs; each returns a problem or None."""

    def __init__(self, root):
        self.schema = json.loads((Path(root) / "src/isoprobe/report_schema.json").read_text())

    def __call__(self, stage, workdir):
        check = getattr(self, f"check_{stage.command}", None)
        return check(stage, Path(workdir) / stage.config["out"]) if check else None

    # no workload runs verify until its small_score_approximation check
    # stops failing on some seeds; the gate is kept for that day
    def check_verify(self, stage, out):
        doc = json.loads((out / "verification_report.json").read_text())
        if doc.get("all_passed") is not True:
            failing = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
            return f"verification_report.json: all_passed is not true (failing: {failing})"
        return None

    def check_report(self, stage, out):
        try:
            jsonschema.validate(json.loads((out / "report.json").read_text()), self.schema)
        except jsonschema.ValidationError as exc:
            return f"report.json does not validate: {exc.message}"
        return None

    def check_analyze(self, stage, out):
        doc = json.loads((out / "isotropy_report.json").read_text())
        reported = [entry["layer"] for entry in doc["layers"]]
        dumped = _dump_layer_count(out.parent / stage.config["embeddings"] / "embeddings.isoemb")
        if len(set(reported)) != len(reported) or len(reported) != dumped:
            return f"isotropy_report.json has layers {reported}, the dump has {dumped}"
        return None

    def check_eval(self, stage, out):
        cfg = stage.config
        with (out / "sweep.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        expected = len(cfg["values"]) * len(cfg["datasets"]) * cfg["seeds"]
        if len(rows) != expected:
            return f"sweep.csv has {len(rows)} rows, expected {expected}"
        for row in rows:
            for key in ("value", "nmse", "zeta_prime", "d08", "iso_I"):
                if not math.isfinite(float(row[key])):
                    return f"sweep.csv: non-finite {key} in row {row}"
        return None


def _fingerprint(stage, workdir):
    """Hashes a repetition must reproduce: manifest outputs, or report.json."""
    out = Path(workdir) / stage.config["out"]
    if stage.command == "report":
        return {"report.json": _sha256(out / "report.json")}
    return json.loads((out / "manifest.json").read_text())["outputs"]


class Runner:
    def __init__(self, workload, root, seed, after_stage=None):
        self.workload = workload
        self.root = Path(root)
        self.seed = seed
        self.after_stage = after_stage
        self.checks = Checks(root)
        self.workdir = self.root / ".bench_work" / f"{workload.name}-{os.getpid()}"

    def invoke(self, stage, rep, timed):
        """Run one stage; record its time and whether it failed."""
        argv = [stage.command, "--config", f"{stage.command}.cfg", "--workers", "1"]
        captured = io.StringIO()
        problem = None
        start = time.perf_counter()
        try:
            with redirect_stdout(captured), redirect_stderr(captured):
                code = isoprobe_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            problem = traceback.format_exc()
        elapsed = time.perf_counter() - start
        rep.attempted += 1
        if timed:
            rep.stage_s[stage.command] = elapsed
        if problem is None and code not in (0, None):
            problem = f"exit code {code}"
        if problem is None:
            problem = self.checks(stage, self.workdir)
        if problem is None:
            rep.fingerprints[stage.command] = _fingerprint(stage, self.workdir)
        if self.after_stage is not None:
            self.after_stage(stage, self.workdir)
        if problem is not None:
            rep.failed += 1
            print(f"perfbench: {stage.command} failed: {problem}", file=sys.stderr)
            print(captured.getvalue(), file=sys.stderr, end="")

    def set_up(self):
        """Fresh working directory holding the config files."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        os.chdir(self.workdir)
        for stage in self.workload.stages:
            (self.workdir / f"{stage.command}.cfg").write_text(stage.config_text(self.seed))

    def repeat(self, tracer=None):
        """One repetition of the timed stages, after wiping their outputs."""
        for stage in self.workload.stages:
            shutil.rmtree(self.workdir / stage.config["out"], ignore_errors=True)
        rep = Repetition()
        if tracer is not None:
            tracer.install()
        try:
            # later stages still run after a failure: a failed check leaves
            # its outputs, and a missing input fails fast on its own
            for stage in self.workload.stages:
                self.invoke(stage, rep, timed=True)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return rep

    def mark_unrepeatable(self, reps):
        """Count stages whose output hashes differ from the first repetition's."""
        first = reps[0].fingerprints
        for rep in reps[1:]:
            for command, hashes in rep.fingerprints.items():
                if command in first and hashes != first[command]:
                    rep.failed += 1
                    print(f"perfbench: {command} outputs differ between repetitions", file=sys.stderr)


def summarize(values):
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n, "samples": list(values)}
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            rank = min(n - 1, math.ceil(p / 100.0 * n) - 1)
            summary[f"p{p:g}"] = ordered[rank]
            break
    return summary


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git(root, *args):
    if not (Path(root) / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root, seed, load_before):
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    status = _git(root, "status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "load_avg_before": list(load_before),
        "load_avg_after": list(os.getloadavg()),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("ISOPROBE_WORKERS",)},
        "openblas_threads": _openblas_threads(),
        "seed": seed,
    }


def start_times(root, count):
    """Wall time of a fresh interpreter importing the CLI and the harness."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(root) / "src"), str(root)])}
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import isoprobe.cli, perfbench.harness"],
                       cwd=root, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def run(workload, *, root, seed, seconds, trace, out=sys.stdout, after_stage=None):
    """One benchmark run: print the report, return the result line's dict."""
    load_before = os.getloadavg()
    runner = Runner(workload, root, seed, after_stage=after_stage)
    cwd = os.getcwd()
    start_s = statistics.median(start_times(root, STARTS))
    try:
        t0 = time.perf_counter()
        runner.set_up()
        setup_s = start_s + time.perf_counter() - t0
        started = time.perf_counter()
        reps = [runner.repeat()]
        if trace:
            tracer = Tracer()
            reps.append(runner.repeat(tracer))
        else:
            # closed loop: start another repetition only if it should end in
            # time, even if it is as slow as the slowest one so far
            while time.perf_counter() - started + max(r.wall_s for r in reps) <= seconds:
                reps.append(runner.repeat())
        runner.mark_unrepeatable(reps)
    finally:
        os.chdir(cwd)
        shutil.rmtree(runner.workdir, ignore_errors=True)
        try:
            runner.workdir.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    sound = True
    walls = [r.wall_s for r in reps]
    print(f"perfbench: workload {workload.name}, seed {seed}, trace {int(trace)}, "
          f"{len(reps)} repetitions", file=out)
    print("environment " + json.dumps(environment(root, seed, load_before), sort_keys=True), file=out)
    if trace:
        metrics, problems = tracer.layer_metrics()
        if tracer.missing:
            print(f"perfbench: not traced (absent): {', '.join(tracer.missing)}", file=out)
        traced_wall = reps[1].wall_s
        if tracer.top_level_s() > traced_wall:
            problems.append(f"top-level spans sum to {tracer.top_level_s()} s > wall {traced_wall} s")
        metrics["tracing_overhead_s"] = traced_wall - reps[0].wall_s
        print(f"untraced wall_s {reps[0].wall_s:.6f} s, traced wall_s {traced_wall:.6f} s", file=out)
        for problem in problems:
            print(f"perfbench: trace unsound: {problem}", file=out)
        sound = not problems
        units = metric_units()
    else:
        metrics = {"wall_s": statistics.median(walls), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        print(f"metric wall_s {json.dumps(summarize(walls))} s", file=out)
        for command in workload.timed_stages:
            times = [r.stage_s[command] for r in reps if command in r.stage_s]
            if times:
                print(f"metric {command}_s {json.dumps(summarize(times))} s", file=out)
        print(f"metric setup_s {setup_s:.6f} s (median interpreter start of {STARTS}, "
              f"then the working directory)", file=out)
        print(f"metric peak_rss_mb {peak_rss_mb:.3f} MB", file=out)
    print(f"metric failed_frac {failed / attempted:.6f} ({failed} of {attempted} stage invocations)", file=out)
    result = {
        "correct": failed == 0 and sound,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), file=out)
    return result
