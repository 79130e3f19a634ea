"""The tokenizer and token cursor shared by the rule and query parsers,
and the `key = value` line reader shared by config and band files.

A token is a `(kind, text, pos)` tuple: the name of the regex group that
matched, the matched text, and its 0-based offset in the input. Each
parser reports errors through its own `fail(pos, message)`, which returns
(not raises) that parser's exception.
"""

from __future__ import annotations


def tokenize(pattern, text, fail):
    """Tokens of `text` under the named groups of `pattern`, without `ws`
    and `comment` tokens, ending with ("eof", "", len(text))."""
    tokens = []
    match = pattern.match
    pos, end = 0, len(text)
    while pos < end:
        m = match(text, pos)
        if m is None:
            raise fail(pos, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        if kind != "ws" and kind != "comment":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", end))
    return tokens


class Cursor:
    """A position in a token list. Subclasses define `fail(pos, message)`."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, kind, text=None):
        """Whether the next token has this kind and, if given, this text."""
        tok = self.tokens[self.i]
        return tok[0] == kind and (text is None or tok[1] == text)

    def error(self, expected):
        _, text, pos = self.tokens[self.i]
        raise self.fail(pos, f"expected {expected}, found {text or 'end of input'!r}")


def key_values(text, fail):
    """(line number, key, value) for each `key = value` line of `text`,
    counted from 1; only `\n` ends a line, so a CRLF file numbers its lines
    like an LF one. `#` starts a comment and blank lines are skipped. The
    key is stripped, the value is the text after the first `=`. A line
    without `=` or a key seen before raises `fail(line number, message)`."""
    seen = set()
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise fail(lineno, "expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in seen:
            raise fail(lineno, f"{key} defined twice")
        seen.add(key)
        yield lineno, key, value
