"""The error shared by the network, lexicon and curriculum text formats.

It lives in its own module because every layer that reads a text format
imports it, and none of those layers may import another just for it.
"""

from __future__ import annotations


class FormatError(ValueError):
    """Malformed input text; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
