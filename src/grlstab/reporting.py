"""Deterministic result persistence: CSV/JSON writers and run manifests.

Result files are byte-stable across reruns of the same config: floats are
written with shortest round-trip repr, rows are emitted in deterministic
order, and wall-clock time lives only in the manifest (excluded from
byte-level comparisons). Every result file carries the config hash in a
leading comment line.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "na"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def config_hash(config: dict) -> str:
    canonical = "\n".join(f"{k} = {config[k]}" for k in sorted(config))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _write(path, text: str) -> None:
    """Write a result file, creating its directory with the first file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_csv(path, header, rows, cfg_hash: str | None = None) -> None:
    lines = []
    if cfg_hash is not None:
        lines.append(f"# config_hash={cfg_hash}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def read_csv(path):
    """(header, rows-of-strings) ignoring comment lines."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_json(path, payload: dict, cfg_hash: str | None = None) -> None:
    data = dict(payload)
    if cfg_hash is not None:
        data["config_hash"] = cfg_hash
    _write(path, json.dumps(_jsonify(data), indent=2, sort_keys=True) + "\n")


def write_manifest(outdir, config: dict, started: float) -> None:
    manifest = {
        "config": {k: config[k] for k in sorted(config)},
        "config_hash": config_hash(config),
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": time.time() - started,
        "argv": sys.argv[1:],
    }
    write_json(Path(outdir) / "manifest.json", manifest)
