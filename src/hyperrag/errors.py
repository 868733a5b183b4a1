"""Exception hierarchy shared across the package.

Everything raised on bad data derives from :class:`HyperRagError`, so
callers (and the CLI) can distinguish data problems from genuine bugs.
"""

from __future__ import annotations


class HyperRagError(Exception):
    """Base class for all data and format errors raised by this package."""


class IoFailure(HyperRagError):
    """A file could not be read or written, or holds nothing of what it was read for."""


class MalformedRecord(HyperRagError):
    """A line in a line-delimited file is not a valid record."""

    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"line {line_no}: malformed record" + (f" ({detail})" if detail else ""))


class MissingField(HyperRagError):
    """A required key is absent from a record."""

    def __init__(self, line_no: int, field: str):
        self.line_no = line_no
        self.field = field
        super().__init__(f"line {line_no}: missing field {field!r}")


class DuplicateId(HyperRagError):
    def __init__(self, id: str):
        self.id = id
        super().__init__(f"duplicate id {id!r}")


class EmptyText(HyperRagError):
    def __init__(self, id: str):
        self.id = id
        super().__init__(f"document {id!r} has empty text")


class UnknownDocId(HyperRagError):
    def __init__(self, id: str):
        self.id = id
        super().__init__(f"unknown document id {id!r}")


class UnknownDimension(HyperRagError):
    """A label's dimension is not among those its index is built with."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown dimension {name!r}: not among the index's dimensions")


class NonPositiveCount(HyperRagError):
    """A label count below 1, or above what an index holds (2**31 - 1)."""

    def __init__(self, detail: str):
        super().__init__(f"count must be an integer from 1 to {2**31 - 1}: {detail}")


class FormatVersionMismatch(HyperRagError):
    """An index file carries a container version this reader does not speak."""


class ChecksumMismatch(HyperRagError):
    """An index file is truncated or corrupted."""


class UnencodableText(HyperRagError):
    def __init__(self, text: str, reason: str = "fewer than 3 characters after normalization"):
        self.text = text
        super().__init__(f"cannot encode {text!r}: {reason}")


class DimMismatch(HyperRagError):
    def __init__(self, expected: int, got: int, detail: str = ""):
        self.expected = expected
        self.got = got
        message = f"vector length mismatch: expected {expected}, got {got}"
        super().__init__(message + (f" ({detail})" if detail else ""))


class EncoderMismatch(HyperRagError):
    """A query encoder differs from, or does not reproduce the vectors of, the one that built an index."""


class MissingKey(HyperRagError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no vector for key {key!r}")


class NoQueries(HyperRagError):
    """A queries file holds no query, so there is nothing to evaluate or time."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"{path}: the queries file holds no query")


class MissingGold(HyperRagError):
    def __init__(self, query_id: str, detail: str = "no gold document ids"):
        self.query_id = query_id
        super().__init__(f"query {query_id!r}: {detail}")
