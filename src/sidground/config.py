"""Runtime configuration: defaults, JSON config file, env overrides.

Precedence per knob: command-line flag > SIDGROUND_* environment
variable (port, data dir, seed only) > config file > built-in default.
Every value, whichever layer it comes from, passes check_fields, so a
wrongly typed one is an InvalidInputError naming its key.
The built-in defaults are the operating points the system was tuned to;
each but delta=5 is the DEFAULT_* constant of the module that uses it.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, fields

from .codebook import DEFAULT_LAYER_SIZES, check_layer_sizes
from .dualtrack import DEFAULT_TTL_SECONDS
from .errors import InvalidInputError
from .evaluation import DEFAULT_RESAMPLES, DEFAULT_SEED
from .generator import DEFAULT_K
from .jsonl import is_num, read_json
from .padr import DEFAULT_TAU
from .ranking import DEFAULT_LAMBDA

ENV_PREFIX = "SIDGROUND_"
_ENV_KEYS = ("port", "data_dir", "seed")


@dataclass
class Config:
    delta: int = 5
    k: int = DEFAULT_K
    tau: int = DEFAULT_TAU
    lam: float = DEFAULT_LAMBDA
    ttl_seconds: int = DEFAULT_TTL_SECONDS
    layer_sizes: tuple[int, int, int, int] = DEFAULT_LAYER_SIZES
    seed: int = DEFAULT_SEED
    resamples: int = DEFAULT_RESAMPLES
    port: int = 8080
    data_dir: str = "."

    def validate(self):
        if self.delta < 0 or self.k < 1 or self.tau < 1:
            raise InvalidInputError("need delta >= 0, k >= 1, tau >= 1")
        if not (0.0 <= self.lam <= 1.0):
            raise InvalidInputError("lambda must be in [0, 1]")

    def resolve_path(self, path):
        """Resolve a data-file path against data_dir (absolute paths and
        the default "." pass through unchanged)."""
        if path is None:
            return None
        if os.path.isabs(path) or self.data_dir in (".", ""):
            return path
        return os.path.join(self.data_dir, path)


def parse_int_list(text: str, what: str) -> tuple[int, ...]:
    """Parse a comma list of integers ("1,2,3"); blank items are skipped."""
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as e:
        raise InvalidInputError(f"{what} expects comma-separated integers, got {text!r}") from e


def _is_a(value, kind) -> bool:
    return is_num(value) if kind is float else type(value) is kind   # no bools


def _typed(value, default, text: bool):
    """`value` checked against the type of the field's default, or ValueError."""
    kind = type(default)
    if text and isinstance(value, str) and kind in (int, float, tuple):
        value = parse_int_list(value, "value") if kind is tuple else kind(value)
    if kind is tuple:       # layer_sizes, the one tuple field
        return check_layer_sizes(value)
    if kind is dict and isinstance(value, dict) and all(_is_a(v, float) for v in value.values()):
        return value
    if kind is not dict and _is_a(value, kind):
        return value
    raise ValueError(value)


def _kind_name(default) -> str:
    return {bool: "true or false", int: "an integer", float: "a number", str: "a string",
            tuple: "a list of 4 integers, each >= 1", dict: "an object of numbers"}[type(default)]


def check_fields(cls, doc: dict, source: str, error=InvalidInputError,
                 text: bool = False) -> dict:
    """Check every value of `doc` against the type of the default of the
    dataclass field it names (an int field takes no bool and no 2.7; the
    tuple field, layer_sizes, passes check_layer_sizes).

    With text=True a string for a number or tuple field is parsed first
    (environment variables, comma lists on the command line). An unknown
    key or a wrongly typed value raises `error` naming the key and
    `source`. Returns the checked values, tuple fields as tuples.
    """
    defaults = {f.name: f.default_factory() if f.default is MISSING else f.default
                for f in fields(cls)}
    unknown = set(doc) - set(defaults)
    if unknown:
        raise error(f"unknown {source} keys: {sorted(unknown)}")
    checked = {}
    for key, value in doc.items():
        try:
            checked[key] = _typed(value, defaults[key], text)
        except (ValueError, InvalidInputError):
            raise error(f"{key} from the {source} must be {_kind_name(defaults[key])}, "
                        f"got {value!r}") from None
    return checked


def load_config_file(path) -> dict:
    return read_json(path, lambda doc: check_fields(Config, doc, "config file"))


def resolve_config(flags: dict | None = None, config_path=None,
                   env: dict | None = None) -> Config:
    """Merge flag/env/file/default layers into one validated Config.

    `flags` maps Config field names to flag values (None means unset).
    """
    env = os.environ if env is None else env
    merged = load_config_file(config_path) if config_path else {}
    env_values = {key: env[ENV_PREFIX + key.upper()] for key in _ENV_KEYS
                  if ENV_PREFIX + key.upper() in env}
    merged.update(check_fields(Config, env_values, "environment", text=True))
    set_flags = {key: value for key, value in (flags or {}).items() if value is not None}
    merged.update(check_fields(Config, set_flags, "command line", text=True))
    cfg = Config(**merged)
    cfg.validate()
    return cfg
