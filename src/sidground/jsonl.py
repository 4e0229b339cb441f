"""JSON record files: one reader for JSONL (and a keyed form that rejects
a repeated key), one for single-document JSON (config, fixture spec,
codebook, generator context), a JSONL writer, and the field readers.

The readers hand each object to the caller's record parser and make
every failure a typed SidgroundError (CLI exit code 2) that names the
1-based line or the document's path, never a bare Python error.
The field readers (json_str, json_int, ...) are the one type policy: a
field takes exactly its JSON type, and nothing converts.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import DuplicateKeyError, InvalidInputError, RecordParseError, SidgroundError

T = TypeVar("T")


def _parse_object(rec, parse: Callable[[dict], T], where: str) -> T:
    """parse(rec), where a non-object, a missing field (KeyError), a value of
    the wrong type or form, or one a constructor rejects (InvalidInputError)
    raises RecordParseError, any other SidgroundError keeps its type, and
    each gains a "<where>: " prefix."""
    if not isinstance(rec, dict):
        raise RecordParseError(f"{where}: expected a JSON object, got {type(rec).__name__}")
    try:
        return parse(rec)
    except InvalidInputError as e:
        raise RecordParseError(f"{where}: {e}") from e
    except SidgroundError as e:
        raise type(e)(f"{where}: {e}") from e
    except KeyError as e:
        raise RecordParseError(f"{where}: missing field {e.args[0]!r}") from e
    except (AttributeError, TypeError, ValueError) as e:
        raise RecordParseError(f"{where}: bad record: {e}") from e


def json_str(value, what: str) -> str:
    """`value` if it is a JSON string; a null or a number raises ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; a bool, a float or a string raises
    ValueError (int() would take true, 2.7 and "3")."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_num(value, what: str) -> float:
    """`value` as a float if it is a JSON number; a bool or a string raises
    ValueError (float() would take true and "3")."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def json_strs(value, what: str) -> tuple[str, ...]:
    """`value` as a tuple if it is a JSON list of strings; a string (which
    tuple() would split into letters) or a non-string entry raises ValueError."""
    if type(value) is not list or not {str}.issuperset(map(type, value)):
        raise ValueError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


def json_nums(value, what: str) -> list:
    """`value` if it is a JSON list of numbers; a bool or a numeric string
    entry raises ValueError (numpy would take true and "2")."""
    if type(value) is not list or not {float, int}.issuperset(map(type, value)):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    return value


def iter_jsonl(path, parse: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """Yield (line number, parse(record)) for each non-blank line; errors
    as in _parse_object with "line N", bad JSON a RecordParseError."""
    with open(path, encoding="utf-8") as f:
        for lineno, text in enumerate(f, start=1):
            if text.isspace():
                continue
            try:
                rec = json.loads(text)
            except json.JSONDecodeError as e:
                raise RecordParseError(f"line {lineno}: bad JSON: {e.msg}") from e
            yield lineno, _parse_object(rec, parse, f"line {lineno}")


def read_keyed(path, parse: Callable[[dict], T], key: str) -> dict[str, T]:
    """{item.<key>: item} for each item = parse(record) of a JSONL file, in
    file order, skipping a record that parses to None; a repeated key
    raises DuplicateKeyError naming the line."""
    out: dict[str, T] = {}
    for lineno, item in iter_jsonl(path, parse):
        if item is not None:
            if (k := getattr(item, key)) in out:
                raise DuplicateKeyError(f"line {lineno}: duplicate {key} {k!r}")
            out[k] = item
    return out


def read_json(path, parse: Callable[[dict], T]) -> T:
    """parse(the JSON object a one-document file holds); errors as in
    _parse_object with the path, bad JSON a RecordParseError."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise RecordParseError(f"{path}: bad JSON: {e}") from e
    return _parse_object(doc, parse, str(path))


def write_jsonl(path, records: Iterable[dict]):
    """Write one JSON object per line."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
