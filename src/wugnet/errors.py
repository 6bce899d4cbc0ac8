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

    @classmethod
    def attributes(cls, items: list[str], allowed: tuple[str, ...], line: int) -> dict[str, str]:
        """`key=value` items as a dict; raises cls, with the line, on a
        malformed or unknown item, an empty value or a repeated key."""
        out: dict[str, str] = {}
        for item in items:
            key, sep, value = item.partition("=")
            if not sep or key not in allowed:
                raise cls(f"bad attribute {item!r}", line)
            if not value:
                raise cls(f"empty {key}= value", line)
            if key in out:
                raise cls(f"repeated {key}= attribute", line)
            out[key] = value
        return out
