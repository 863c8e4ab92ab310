"""INI-file configuration for the pipeline.

Sections: [task], [acquisition], [training], [eval]. Every key has a
default, so an empty (or absent) file yields a usable configuration;
unknown sections or keys are rejected rather than silently ignored.
Each key is declared once, in ``KEYS``, which drives parsing, the key
checks and the manifest snapshot.
"""

from __future__ import annotations

import math
from configparser import ConfigParser, Error as IniError
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable

from .errors import ConfigError
from .metrics import DEFAULT_THRESHOLDS
from .softmax import TrainConfig
from .taxonomy import DEFAULT_RATIOS, TaskId, valid_ratios


@dataclass(frozen=True)
class PipelineConfig:
    task: TaskId = TaskId.SIC
    dataset: str | None = None
    split_seed: int = 0
    ratios: tuple[float, float, float] = DEFAULT_RATIOS

    top_k: int = 10
    max_parallel: int = 4
    max_attempts: int = 3
    base_backoff: float = 1.0
    rate_per_second: float = 0.0  # 0 disables client-side rate limiting
    cache_dir: str | None = None
    summary_max_tokens: int = 400
    search_base_url: str | None = None
    llm_base_url: str | None = None
    gpt_model: str = "gpt-4o-mini-2024-07-18"
    llama_model: str = "llama-3.1-8b-instruct"

    training: TrainConfig = field(default_factory=TrainConfig)

    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    inclusive_thresholds: bool = False


def parse_list(raw: str, cast) -> tuple:
    """Comma-separated values through cast; blank parts are skipped, and a
    list with no value left is a ValueError."""
    values = tuple(cast(part) for part in raw.split(",") if part.strip())
    if not values:
        raise ValueError(f"no values in {raw!r}")
    return values


# A parser reads one key of a section, as ConfigParser.getint does; its
# ValueError becomes a ConfigError naming the file.
_Parser = Callable[[ConfigParser, str, str], object]


def _number(rule: str, ok: Callable[[float], bool], get=ConfigParser.getfloat) -> _Parser:
    """A parser that reads a number through get and rejects one that is not
    finite or fails ok, saying '<key> must be <rule>'."""

    def parse(ini: ConfigParser, section: str, key: str):
        value = get(ini, section, key)
        if not (math.isfinite(value) and ok(value)):
            raise ValueError(f"{key} must be {rule}, got {value}")
        return value

    return parse


def _at_least(minimum: int) -> _Parser:
    """A parser for an integer no less than minimum."""
    return _number(f">= {minimum}", lambda value: value >= minimum, ConfigParser.getint)


def finite_float(raw: str) -> float:
    """float(raw), with NaN and infinity refused as a ValueError."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _optional(ini: ConfigParser, section: str, key: str) -> str | None:
    return ini.get(section, key).strip() or None


def _required(ini: ConfigParser, section: str, key: str) -> str:
    value = _optional(ini, section, key)
    if value is None:
        raise ValueError(f"{key} must not be empty")
    return value


def _task(ini: ConfigParser, section: str, key: str) -> TaskId:
    raw = ini.get(section, key)
    try:
        return TaskId(raw.strip().upper())
    except ValueError:
        raise ValueError(f"unknown task name {raw!r}") from None


def _floats(ini: ConfigParser, section: str, key: str, cast=float) -> tuple[float, ...]:
    raw = ini.get(section, key)
    try:
        return parse_list(raw, cast)
    except ValueError:
        raise ValueError(f"bad float list for '{key}': {raw!r}") from None


def _ratios(ini: ConfigParser, section: str, key: str) -> tuple[float, ...]:
    ratios = _floats(ini, section, key)
    if len(ratios) != 3:
        raise ValueError(f"{key} needs exactly three values")
    if not valid_ratios(ratios):
        raise ValueError(f"{key} must be three non-negative numbers summing to 1: {ratios!r}")
    return ratios


# section -> INI key -> (attribute, parser). [training] attributes are
# TrainConfig fields; the others are PipelineConfig fields.
KEYS: dict[str, dict[str, tuple[str, _Parser]]] = {
    "task": {
        "name": ("task", _task),
        "dataset": ("dataset", _optional),
        "split_seed": ("split_seed", ConfigParser.getint),
        "ratios": ("ratios", _ratios),
    },
    "acquisition": {
        "top_k": ("top_k", _at_least(1)),
        "max_parallel": ("max_parallel", _at_least(1)),
        "max_attempts": ("max_attempts", _at_least(1)),
        "base_backoff": ("base_backoff", _number(">= 0 and finite", lambda v: v >= 0)),
        "rate_per_second": ("rate_per_second", _number(">= 0 and finite", lambda v: v >= 0)),
        "cache_dir": ("cache_dir", _optional),
        "summary_max_tokens": ("summary_max_tokens", _at_least(1)),
        "search_base_url": ("search_base_url", _optional),
        "llm_base_url": ("llm_base_url", _optional),
        "gpt_model": ("gpt_model", _required),
        "llama_model": ("llama_model", _required),
    },
    "training": {
        "epochs": ("epochs", _at_least(1)),
        "batch_size": ("batch_size", _at_least(1)),
        "learning_rate": ("learning_rate", _number("> 0 and finite", lambda v: v > 0)),
        "warmup_steps": ("warmup_steps", _at_least(0)),
        # softmax.train's decay multiplier 1 - mult * weight_decay must stay positive
        "weight_decay": ("weight_decay", _number(">= 0 and < 1", lambda v: 0 <= v < 1)),
        "seed": ("seed", _at_least(0)),
    },
    "eval": {
        "thresholds": ("thresholds", partial(_floats, cast=finite_float)),
        "inclusive": ("inclusive_thresholds", ConfigParser.getboolean),
    },
}


def _plain(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def snapshot(config: PipelineConfig) -> dict:
    """Plain-dict view of the config, stable across runs, for the manifest.

    Values are keyed by attribute name: [task] values at the top level,
    every other section nested under its own name.
    """
    out: dict = {}
    for section, rows in KEYS.items():
        owner = config.training if section == "training" else config
        target = out if section == "task" else out.setdefault(section, {})
        for attr, _ in rows.values():
            target[attr] = _plain(getattr(owner, attr))
    return out


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = ConfigParser(interpolation=None)  # values are read verbatim, % included
    try:
        parser.read(path, encoding="utf-8")
    except (IniError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values: dict = {}
    training: dict = {}
    for section in parser.sections():
        rows = KEYS.get(section)
        if rows is None:
            raise ConfigError(f"{path}: unknown section [{section}]")
        target = training if section == "training" else values
        for key in parser[section]:
            if key not in rows:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
            attr, parse = rows[key]
            try:
                target[attr] = parse(parser, section, key)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
    return PipelineConfig(**values, training=TrainConfig(**training))
