"""Flat key-value experiment configs with dotted section prefixes.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored. Keys use dotted prefixes for grouping (``sampler.coupling = 0.5``).
Every config must name an ``experiment`` kind and a ``seed``. The typed
getters record each key they are asked for, and an experiment reads all of
its keys before it starts work and then calls ``reject_unread``: a key the
run does not read (a typo, another family's key, a key of an unused branch)
fails loudly instead of being ignored.
"""

from __future__ import annotations

from pathlib import Path


class ConfigError(ValueError):
    """Malformed config text or schema violation."""


def parse_config(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict:
    return parse_config(Path(path).read_text(encoding="utf-8"))


class ExperimentConfig:
    """Typed access over a parsed config that records which keys were read."""

    def __init__(self, raw: dict):
        self.raw = dict(raw)
        self._read = set()
        if "experiment" not in raw:
            raise ConfigError("config must set 'experiment'")
        if "seed" not in raw:
            raise ConfigError("config must set 'seed' (reproducibility is mandatory)")
        self.kind = self.get_str("experiment")
        self.seed = self.get_int("seed")

    def reject_unread(self) -> None:
        """Raise if the config sets a key that no getter has been asked for."""
        unread = sorted(set(self.raw) - self._read)
        if unread:
            raise ConfigError(f"config keys the '{self.kind}' experiment does not read: {unread}")

    def has(self, key: str) -> bool:
        """Whether the config sets ``key``; does not count as reading it."""
        return key in self.raw

    def get_str(self, key: str, default=None) -> str:
        self._read.add(key)
        if key not in self.raw:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        return self.raw[key]

    def get_int(self, key: str, default=None) -> int:
        value = self.get_str(key, None if default is None else str(default))
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected integer, got {value!r}") from exc

    def get_float(self, key: str, default=None) -> float:
        value = self.get_str(key, None if default is None else repr(float(default)))
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected float, got {value!r}") from exc

    def get_floats(self, key: str, default=None):
        value = self.get_str(key, default)
        try:
            return [float(part) for part in value.split()]
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected space-separated floats") from exc

    def get_ints(self, key: str, default=None):
        value = self.get_str(key, default)
        try:
            return [int(part) for part in value.split()]
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected space-separated integers") from exc
