"""The benchmark's tracer still finds every function it wraps.

perfbench/tracing.py names isoprobe functions by module and attribute
(`isotropy.kmeans`, `dumps.EmbeddingDump.layer_matrix`, the CLI stage
commands, ...); a rename in src/ would silently drop that name's
per-layer metrics, so this guard fails instead.
"""

import importlib.util
from pathlib import Path

import isoprobe.cli  # noqa: F401  (loads every module the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
