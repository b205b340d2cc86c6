"""Run configuration shared by the library entry points and the CLI.

A config file is plain UTF-8 text with one `key = value` pair per
line; # starts a comment. Recognized keys match the RunConfig fields.
Command-line flags override file values, which override the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fanlex.errors import InputError, open_text
from fanlex.lexicon import CountMode
from fanlex.morph import Locale
from fanlex.scorer import TermSetMode

ENV_CONFIG = "FANLEX_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    locale: Locale = Locale.TURKISH
    count_mode: CountMode = CountMode.TOKEN_FREQ
    term_set_mode: TermSetMode = TermSetMode.DISTINCT
    smoothing: float = 0.0
    seed: int = 0
    include_title: bool = True
    display_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.smoothing) and self.smoothing >= 0):
            raise ValueError("smoothing must be finite and >= 0")
        if not (math.isfinite(self.display_scale) and self.display_scale > 0):
            raise ValueError("display_scale must be finite and > 0")

    def to_dict(self) -> dict:
        """JSON-ready form, embedded in run reports."""
        return {
            "locale": self.locale.name,
            "count_mode": self.count_mode.name,
            "term_set_mode": self.term_set_mode.name,
            "smoothing": self.smoothing,
            "seed": self.seed,
            "include_title": self.include_title,
            "display_scale": self.display_scale,
        }


_PARSERS = {
    "locale": lambda v: Locale[v.upper()],
    "count_mode": lambda v: CountMode[v.upper()],
    "term_set_mode": lambda v: TermSetMode[v.upper()],
    "smoothing": float,
    "seed": int,
    "include_title": lambda v: {"true": True, "false": False, "1": True, "0": False}[
        v.lower()
    ],
    "display_scale": float,
}

_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Parse a key = value config file into RunConfig keyword arguments."""
    values: dict = {}
    with open_text(path, InputError) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = body.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _FIELD_NAMES:
                raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _PARSERS[key](value)
            except (KeyError, ValueError) as exc:
                raise InputError(
                    f"{path}:{lineno}: bad value {value!r} for {key!r}"
                ) from exc
    return values


def make_config(file_values: dict | None = None, **overrides) -> RunConfig:
    """Combine defaults, config-file values and explicit overrides."""
    merged: dict = {}
    if file_values:
        merged.update(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad configuration: {exc}") from exc
