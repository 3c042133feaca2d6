"""Run manifests, content hashing, atomic writes, and config parsing.

Every command writes a manifest listing its config snapshot, seeds, and
the SHA-256 of each input and output file; a consumer verifies the
recorded hashes before trusting upstream artifacts.  Configs are flat
`key = value` text files (values in JSON syntax) with flag overrides
applied on top.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_origin

from . import __version__
from .errors import ConfigError, InvalidArgumentError, MissingInputError, StaleArtifactError

MANIFEST_NAME = "manifest.json"
SCHEMA_VERSION = 1


def sha256_file(path):
    path = Path(path)
    if not path.is_file():
        raise MissingInputError(f"missing file: {path}")
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_bytes(path, data):
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def atomic_write_text(path, text):
    return atomic_write_bytes(path, text.encode())


def read_json(path):
    """Parse a JSON artifact; a malformed one raises InvalidArgumentError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}: malformed JSON ({exc})") from None
    except RecursionError:
        raise InvalidArgumentError(f"{path}: JSON nested too deeply to parse") from None


def canonical_json(obj):
    """Stable key order, trailing newline; floats via repr round-trip."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass
class RunManifest:
    """What a command ran with and what it produced, hash by hash."""

    command: str
    config: dict
    seed: int
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    version: str = __version__
    schema_version: int = SCHEMA_VERSION

    def record_input(self, base_dir, path, digest=None):
        """Record an input's hash: ``digest`` if already checked, else the file's."""
        self.inputs[self._rel(base_dir, path)] = digest or sha256_file(path)

    def record_output(self, base_dir, path):
        self.outputs[self._rel(base_dir, path)] = sha256_file(path)

    @staticmethod
    def _rel(base_dir, path):
        path = Path(path).resolve()
        base = Path(base_dir).resolve()
        try:
            return path.relative_to(base).as_posix()
        except ValueError:
            return path.as_posix()

    def to_dict(self):
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "version": self.version,
            "seed": self.seed,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }

    def write(self, out_dir):
        path = Path(out_dir) / MANIFEST_NAME
        atomic_write_text(path, canonical_json(self.to_dict()))
        return path

    @classmethod
    def read(cls, out_dir):
        path = Path(out_dir) / MANIFEST_NAME
        if not path.is_file():
            raise MissingInputError(f"no manifest at {path}")
        raw = read_json(path)
        if not isinstance(raw, dict) or not {"command", "config", "seed"} <= raw.keys():
            raise InvalidArgumentError(f"{path}: a manifest needs command, config and seed")
        return cls(
            command=raw["command"],
            config=raw["config"],
            seed=raw["seed"],
            inputs=raw.get("inputs", {}),
            outputs=raw.get("outputs", {}),
            version=raw.get("version", "unknown"),
            schema_version=raw.get("schema_version", 0),
        )


def verify_outputs(manifest, base_dir):
    """Check that every artifact a manifest declares still hash-matches;
    returns each artifact's path with its checked hash."""
    checked = {}
    for rel, recorded in manifest.outputs.items():
        path = Path(base_dir) / rel
        if not path.is_file():
            raise MissingInputError(f"missing upstream artifact: {path}")
        actual = sha256_file(path)
        if actual != recorded:
            raise StaleArtifactError(
                f"stale artifact {path}: recorded {recorded[:12]}.., found {actual[:12]}.."
            )
        checked[path] = actual
    return checked


def _finite(text):
    """JSON number hook that refuses NaN, Infinity and overflowing floats."""
    value = float(text)
    if not math.isfinite(value):
        raise OverflowError(text)
    return value


def parse_config(path):
    """Parse a flat `key = value` config file.

    Values use JSON syntax (numbers, strings, booleans, lists); bare
    words parse as strings.  Numbers must be finite.  Full-line comments
    start with '#'.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()  # a pipe reads as a file does
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config path is a directory: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not text ({exc})") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc.strerror})") from None
    config = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in config:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        value = value.strip()
        try:
            config[key] = json.loads(value, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError:
            config[key] = value
        except ValueError:  # an integer literal past Python's digit limit
            raise ConfigError(f"{path}:{lineno}: value of {key!r} has too many digits") from None
        except OverflowError:
            raise ConfigError(f"{path}:{lineno}: value of {key!r} is not a finite number") from None
        except RecursionError:
            raise ConfigError(f"{path}:{lineno}: value of {key!r} nested too deeply") from None
    return config


def take_config(config, key, default=None, *, required=False, kind):
    """Fetch a config value with type checking; errors name the field.
    A ``list[T]`` kind also checks and converts each element as a scalar
    T key is, so a ``list[float]`` reads ``[4, 16]`` as ``[4.0, 16.0]``."""
    if key not in config:
        if required:
            raise ConfigError(f"missing required config field: {key}")
        return default
    value = _typed(key, config[key], get_origin(kind) or kind)
    if get_args(kind):
        value = [_typed(f"{key}[{i}]", item, get_args(kind)[0]) for i, item in enumerate(value)]
    return value


def _typed(key, value, kind):
    """An int passes as a float (and becomes one); a bool passes only as a bool."""
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(
                f"config field {key}: integer is too large for a float"
            ) from None
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(
            f"config field {key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value
