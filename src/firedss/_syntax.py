r"""The one lexical layer of the rule and query front ends, the string
escapes that they and N-Triples share, the `key = value` reader of config
and band files, and `lf`, the line ends of every text reader but CSV's.

Both front ends tokenize with `token_pattern(...)`: the shared groups
`ws` (space, `\t`, `\n`), `comment` (`#` up to the end of its line),
`string`, `number` and `var`, then the front end's own groups. A token is
a `(kind, text, pos)` tuple: the name of the group that matched, the
matched text, and its 0-based offset in the text after `lf`. A `Cursor`
reports an error at an offset by its 1-based line and column.

A string is the text between double quotes, a raw line end excluded, with
the escapes `\\ \" \n \r \t` of N-Triples; any other escape is an error.
"""

from __future__ import annotations

import re

_SHARED_GROUPS = r"""
    (?P<ws>[ \t\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
  | (?P<var>\?[A-Za-z][A-Za-z0-9_]*)
"""


def lf(text):
    """`text` with each CRLF and lone CR made an LF; without a CR, `text` itself."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def token_pattern(groups):
    """The token regex of the shared groups followed by `groups`, verbose
    regex text of more named alternatives, each starting with `|`."""
    return re.compile(_SHARED_GROUPS + groups, re.VERBOSE)


_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
                          "\t": "\\t"})
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE_SEQUENCE = re.compile(r"\\(.?)", re.DOTALL)


def escape(text):
    """`text` as it stands between the double quotes of a string."""
    return text.translate(_ESCAPES)


def unescape(text, fail, offset=0):
    """The string that `escape` writes as `text`. Another escape raises
    `fail(pos, message)`, `pos` the escape's offset in `text` plus `offset`."""
    def unescaped(m):
        c = _UNESCAPES.get(m.group(1))
        if c is None:
            raise fail(offset + m.start(), f"bad escape {m.group()!r}")
        return c
    return _ESCAPE_SEQUENCE.sub(unescaped, text)


class Cursor:
    """A position in the tokens of `text`, without `ws` and `comment` tokens
    and ending with ("eof", "", len(text)). Each front end sets `pattern`,
    its `token_pattern`, and `syntax_error`, the class of its errors, made
    as `syntax_error(line, column, message)` with lines counted from
    `first_line`."""

    def __init__(self, text, first_line=1):
        self.text = text = lf(text)
        self.first_line = first_line
        self.tokens = tokens = []
        match = self.pattern.match
        pos, end = 0, len(text)
        while pos < end:
            m = match(text, pos)
            if m is None:
                raise self.fail(pos, f"unexpected character {text[pos]!r}")
            kind = m.lastgroup
            if kind != "ws" and kind != "comment":
                tokens.append((kind, m.group(), pos))
            pos = m.end()
        tokens.append(("eof", "", end))
        self.i = 0

    def line_column(self, pos):
        """Line (counted from `first_line`) and 1-based column of offset `pos`."""
        text = self.text
        return (text.count("\n", 0, pos) + self.first_line,
                pos - text.rfind("\n", 0, pos))

    def fail(self, pos, message):
        """The syntax error at offset `pos`, to be raised by the caller."""
        return self.syntax_error(*self.line_column(pos), message)

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

    def string(self):
        """The value of the string token at the cursor, which it passes."""
        _, text, pos = self.next()
        return unescape(text[1:-1], self.fail, pos + 1)


def key_values(text, fail):
    """(line number, key, value) for each `key = value` line of `text`,
    counted from 1. `#` starts a comment and blank lines are skipped. The
    key is stripped, the value is the text after the first `=`. A line
    without `=` or a key seen before raises `fail(line number, message)`."""
    seen = set()
    for lineno, raw in enumerate(lf(text).split("\n"), 1):
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
