"""JSONL record files: the one reader every loader goes through, and a writer.

A record file holds one JSON object per line. iter_jsonl parses each
non-blank line, hands the object to the loader's record parser, and
makes every failure name its 1-based line, so a bad file always ends in
a typed SidgroundError (CLI exit code 2), never a bare Python error.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import RecordParseError, SidgroundError

T = TypeVar("T")


def iter_jsonl(path, parse: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """Yield (line number, parse(record)) for each non-blank line.

    Bad JSON and a line that is not a JSON object raise RecordParseError.
    A SidgroundError raised by `parse` keeps its type and gains a
    "line N: " prefix; a missing field (KeyError) or a value of the wrong
    type or form becomes a RecordParseError.
    """
    with open(path, encoding="utf-8") as f:
        for lineno, text in enumerate(f, start=1):
            if text.isspace():
                continue
            try:
                rec = json.loads(text)
            except json.JSONDecodeError as e:
                raise RecordParseError(f"bad JSON: {e.msg}", line=lineno) from e
            if not isinstance(rec, dict):
                raise RecordParseError(
                    f"expected a JSON object, got {type(rec).__name__}", line=lineno)
            try:
                item = parse(rec)
            except RecordParseError as e:
                if e.line is not None:
                    raise
                raise RecordParseError(str(e), line=lineno) from e
            except SidgroundError as e:
                raise type(e)(f"line {lineno}: {e}") from e
            except KeyError as e:
                raise RecordParseError(f"missing field {e.args[0]!r}", line=lineno) from e
            except (AttributeError, TypeError, ValueError) as e:
                raise RecordParseError(f"bad record: {e}", line=lineno) from e
            yield lineno, item


def write_jsonl(path, records: Iterable[dict]):
    """Write one JSON object per line."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
