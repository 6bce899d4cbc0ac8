"""The error shared by the network, lexicon and curriculum text formats.

It lives in its own module because three formats share the class (the
network's in graph, the lexicon's in lang, the curriculum's in
curriculum) and it belongs to none of them.
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
