"""JSON record files: one reader for JSONL (and a keyed form that rejects
a repeated key), one for single-document JSON (config, fixture spec,
codebook, generator context), a JSONL writer, and the field readers.

The readers hand each object to the caller's record parser and make
every failure a typed SidgroundError (CLI exit code 2) that names the
1-based line or the document's path, never a bare Python error. Both
refuse the NaN, Infinity and -Infinity constants that Python's json
module accepts but JSON does not have. The field readers (json_str,
json_int, ..., json_list, json_obj) are the one type policy: a field
takes exactly its JSON type, and nothing converts. A number must also
have a finite float (is_num).

A JSONL read runs without the cyclic garbage collector. If the collector
is enabled when the read starts, the reader collects once, disables the
collector, and on reaching the end of the file calls gc.freeze() and
enables it again. The freeze moves every object the process tracks,
the loaded records among them, into the permanent generation, so later
full collections do not walk a loaded snapshot again; reference
counting still frees those records once the last reference to them is
dropped. A read that raises or is closed early only enables the
collector again. A caller that disabled the collector before the read
keeps it disabled, and nothing is frozen: that is how a process opts
out. The effect is process-wide, on every thread.
"""

from __future__ import annotations

import gc
import json
import sys
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import DuplicateKeyError, InvalidInputError, RecordParseError, SidgroundError

T = TypeVar("T")
_MAX_FLOAT = sys.float_info.max


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


def is_num(value) -> bool:
    """Whether `value` is a JSON number with a finite float: not a bool or a
    string (float() would take true and "3"), nor a number beyond the float
    range (JSON decodes 1e400 to inf; float() overflows on 10**400)."""
    return type(value) in (float, int) and -_MAX_FLOAT <= value <= _MAX_FLOAT


def json_num(value, what: str) -> float:
    """`value` as a float if is_num(value), else ValueError."""
    if not is_num(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def json_strs(value, what: str) -> tuple[str, ...]:
    """`value` as a tuple if it is a JSON list of strings; a string (which
    tuple() would split into letters) or a non-string entry raises ValueError."""
    if type(value) is not list or not {str}.issuperset(map(type, value)):
        raise ValueError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


def json_nums(value, what: str) -> list:
    """`value` if it is a JSON list of numbers that each is_num, else
    ValueError (numpy would take true and "2"). An entry beyond the float
    range would be the least or the greatest, so only those are checked."""
    if (type(value) is not list or not {float, int}.issuperset(map(type, value))
            or value and not -_MAX_FLOAT <= min(value) <= max(value) <= _MAX_FLOAT):
        raise ValueError(f"{what} must be a list of finite numbers, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    """`value` if it is a JSON list; a string (which iterates as letters) or
    an object (which iterates as its keys) raises ValueError."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def json_obj(value, what: str) -> dict:
    """`value` if it is a JSON object; a null, a string or a list raises
    ValueError."""
    if type(value) is not dict:
        raise ValueError(f"{what} must be an object, got {value!r}")
    return value


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# json.loads would read NaN, Infinity and -Infinity as floats.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def iter_jsonl(path, parse: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """Yield (line number, parse(record)) for each non-blank line; errors
    as in _parse_object with "line N", bad JSON a RecordParseError. The
    read runs with the cyclic collector paused, as the module docstring
    says."""
    paused = gc.isenabled()
    if paused:
        gc.collect()    # cyclic garbage from before the read would be frozen, never freed
        gc.disable()
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, text in enumerate(f, start=1):
                if text.isspace():
                    continue
                try:
                    rec = _DECODER.decode(text)
                except ValueError as e:     # a JSONDecodeError, or a refused constant
                    raise RecordParseError(
                        f"line {lineno}: bad JSON: {getattr(e, 'msg', e)}") from e
                yield lineno, _parse_object(rec, parse, f"line {lineno}")
        if paused:
            gc.freeze()
    finally:
        if paused:
            gc.enable()


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
        text = f.read()
    try:
        doc = _DECODER.decode(text)
    except ValueError as e:     # a JSONDecodeError, or a refused constant
        raise RecordParseError(f"{path}: bad JSON: {e}") from e
    return _parse_object(doc, parse, str(path))


def write_jsonl(path, records: Iterable[dict]):
    """Write one JSON object per line."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
