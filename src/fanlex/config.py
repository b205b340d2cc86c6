"""Run configuration shared by the library and the CLI.

RunConfig carries the run settings, and this module owns their enums
and FrozenRecord, so every other module may import it: it imports no
fanlex module but errors. TermPipeline, scoring, corpus statistics,
evaluation and cross-validation take a RunConfig.

A config file is plain UTF-8 text with one `key = value` pair per
line; # starts a comment. Recognized keys match the RunConfig fields.
Command-line flags override file values, which override the defaults.
"""

from __future__ import annotations

import sys
from enum import Enum

from fanlex.errors import InputError, open_text

ENV_CONFIG = "FANLEX_CONFIG"


class Locale(Enum):
    """Casing rules used by normalization."""

    TURKISH = "turkish"
    GENERIC = "generic"


class CountMode(Enum):
    """How often a term counts inside one document.

    TOKEN_FREQ counts every occurrence; DOC_PRESENCE counts at most
    one per document.
    """

    TOKEN_FREQ = "TOKEN_FREQ"
    DOC_PRESENCE = "DOC_PRESENCE"


class TermSetMode(Enum):
    """Whether a document's repeated terms are summed once or per use."""

    DISTINCT = "DISTINCT"
    MULTISET = "MULTISET"


_set = object.__setattr__  # a FrozenRecord's __init__ sets each field through it


class FrozenRecord:
    """A frozen dataclass's methods, and _replace, over the slotted fields in __match_args__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # only a refusal needs it
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def _replace(self, **changes):
        return type(self)(**dict(zip(self.__match_args__, self._values()), **changes))


class RunConfig(FrozenRecord):
    """The run settings, each of its default's type; smoothing and display_scale finite."""

    __slots__ = __match_args__ = ("locale", "count_mode", "term_set_mode", "smoothing", "seed",
                                  "include_title", "display_scale")

    def __init__(self, locale: Locale = Locale.TURKISH,
                 count_mode: CountMode = CountMode.TOKEN_FREQ,
                 term_set_mode: TermSetMode = TermSetMode.DISTINCT, smoothing: float = 0.0,
                 seed: int = 0, include_title: bool = True, display_scale: float = 1.0) -> None:
        values = locals()
        for name, kind in FIELD_TYPES.items():
            value = values[name]
            # A bool is no number; an int is accepted where a float is expected.
            if isinstance(value, bool) != (kind is bool) or not isinstance(
                value, (int, float) if kind is float else kind
            ):
                raise TypeError(f"{name} must be {kind.__name__}, not {type(value).__name__}")
            _set(self, name, value)
        # Bounds, not math.isfinite: they refuse an int too large for a
        # float as not finite, where converting it would raise.
        if not 0 <= smoothing <= sys.float_info.max:
            raise ValueError("smoothing must be finite and >= 0")
        if not 0 < display_scale <= sys.float_info.max:
            raise ValueError("display_scale must be finite and > 0")

    def to_dict(self) -> dict:
        """JSON-ready form, embedded in run reports; enums by name."""
        values = {name: getattr(self, name) for name in FIELD_TYPES}
        return {k: v.name if isinstance(v, Enum) else v for k, v in values.items()}


# Each setting's type is the type of its default; config keys, CLI flags
# and the type check all follow this table.
FIELD_TYPES = dict(zip(RunConfig.__match_args__, map(type, RunConfig.__init__.__defaults__)))


def _parse(kind: type, text: str):
    """An enum by member name in any case, a bool from true/false/1/0, a
    number without the digit separator `_` that int() and float() allow."""
    if issubclass(kind, Enum):
        return kind[text.upper()]
    if kind is bool:
        return {"true": True, "false": False, "1": True, "0": False}[text.lower()]
    if "_" in text:
        raise ValueError(text)
    return kind(text)


def load_config_file(path: str) -> dict:
    """Parse a key = value config file, each key at most once, into
    RunConfig keyword arguments. One leading byte order mark is ignored."""
    values: dict = {}
    first_line: dict[str, int] = {}
    with open_text(path, InputError, "utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = body.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in FIELD_TYPES:
                raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in first_line:
                raise InputError(
                    f"{path}:{lineno}: duplicate config key {key!r} "
                    f"(first on line {first_line[key]})"
                )
            first_line[key] = lineno
            try:
                values[key] = _parse(FIELD_TYPES[key], value)
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
