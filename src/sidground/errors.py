"""Exception hierarchy shared by all sidground modules.

Every error raised by the library derives from SidgroundError so CLI
dispatch can map any data problem to a single exit code.
"""


class SidgroundError(Exception):
    """Base class for all sidground errors."""


class InvalidInputError(SidgroundError):
    """An argument violates a documented precondition."""


class InsufficientDataError(SidgroundError):
    """Not enough data to perform the operation (e.g. corpus < K1)."""


class RecordParseError(SidgroundError):
    """A serialized record could not be parsed. The message starts with the
    1-based "line N: " of the offending record when the source is a
    line-oriented file, and with the file's path otherwise."""


class DuplicateKeyError(RecordParseError):
    """A unique key (article id, user id, sample id) appeared twice."""


class SidRangeError(SidgroundError):
    """A SID or SID-prefix layer value falls outside its codebook range."""


class MissingRecordError(SidgroundError):
    """A replay lookup referenced a sample id with no stored record."""


class EmptyPoolError(SidgroundError):
    """The serving pool holds no articles at all."""


class ConsistencyError(SidgroundError):
    """Cross-structure references disagree (e.g. candidate not in pool)."""


class FixtureSpecError(SidgroundError):
    """A synthetic-fixture spec is internally inconsistent."""
