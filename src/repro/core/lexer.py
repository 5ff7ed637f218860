"""Tokenizer for the Terra surface language.

Terra's lexical structure is Lua's, extended with the C-flavoured operators
the low-level language needs (``&`` address-of, ``@`` dereference, ``->``
in function types, shifts).  Comments are Lua comments (``--`` and
``--[[ ... ]]``).  Numeric literals accept C-style suffixes used in the
paper's examples (``0.f`` for a float constant, ``3ULL`` etc.).

Because Terra escapes ``[ ... ]`` contain *meta-language* code (Lua in the
paper, Python here) that is not Terra-tokenizable in general, the lexer is
streaming: the parser consumes tokens one at a time and, when it decides a
``[`` opens an escape, asks the lexer to scan the raw bracket body as
Python text (:meth:`Lexer.scan_escape`).
"""

from __future__ import annotations

from ..errors import SourceLocation, TerraSyntaxError

_DIGITS = "0123456789"


def _isdigit(ch: str) -> bool:
    # str.isdigit() accepts unicode digits like '²' that int() rejects
    return ch in _DIGITS

KEYWORDS = {
    "and", "break", "defer", "do", "else", "elseif", "end", "escape",
    "false", "for", "goto", "if", "in", "nil", "not", "or", "quote",
    "repeat", "return", "struct", "terra", "then", "true", "until", "var",
    "while",
}

#: multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "...", "..", "->", "==", "~=", "<=", ">=", "<<", ">>",
    "+", "-", "*", "/", "%", "^", "#", "&", "|", "~", "@",
    "<", ">", "=", "(", ")", "{", "}", "[", "]", ";", ":", ",", ".", "`",
]


class Token:
    __slots__ = ("kind", "value", "location", "end_offset")

    NAME = "name"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    OP = "op"
    EOF = "eof"

    def __init__(self, kind: str, value, location: SourceLocation,
                 end_offset: int = -1):
        self.kind = kind
        self.value = value
        self.location = location
        self.end_offset = end_offset

    def matches(self, kind: str, value=None) -> bool:
        return self.kind == kind and (value is None or self.value == value)

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


class NumberValue:
    """A numeric literal plus the type constraint from its suffix/shape."""

    __slots__ = ("value", "is_float", "suffix")

    def __init__(self, value, is_float: bool, suffix: str):
        self.value = value
        self.is_float = is_float
        self.suffix = suffix  # "", "f", "u", "ll", "ull"

    def __repr__(self) -> str:
        return f"NumberValue({self.value!r}, float={self.is_float}, {self.suffix!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, NumberValue) and self.value == other.value
                and self.is_float == other.is_float and self.suffix == other.suffix)


class Lexer:
    """A streaming tokenizer with raw-escape scanning."""

    def __init__(self, source: str, filename: str = "<terra>",
                 first_line: int = 1):
        self.source = source
        self.filename = filename
        self.first_line = first_line
        self.pos = 0
        self.line = first_line
        self.line_start = 0
        self._line_text = (-1, "")   # (line_start, that line's text)

    # -- bookkeeping --------------------------------------------------------
    def _location(self) -> SourceLocation:
        start, text = self._line_text
        if start != self.line_start:
            # cut once per line: every location on it shares the string
            line_end = self.source.find("\n", self.line_start)
            if line_end < 0:
                line_end = len(self.source)
            text = self.source[self.line_start:line_end]
            self._line_text = (self.line_start, text)
        return SourceLocation(self.filename, self.line,
                              self.pos - self.line_start + 1, text)

    def _error(self, message: str) -> TerraSyntaxError:
        return TerraSyntaxError(message, self._location())

    def _advance_lines(self, start: int, end: int) -> None:
        added = self.source.count("\n", start, end)
        if added:
            self.line += added
            self.line_start = self.source.rfind("\n", start, end) + 1

    # -- token production ----------------------------------------------------
    def _skip_trivia(self) -> None:
        src, n = self.source, len(self.source)
        while self.pos < n:
            ch = src[self.pos]
            if ch == "\n":
                self.line += 1
                self.pos += 1
                self.line_start = self.pos
            elif ch in " \t\r":
                self.pos += 1
            elif src.startswith("--", self.pos):
                if src.startswith("--[[", self.pos):
                    end = src.find("]]", self.pos + 4)
                    if end < 0:
                        raise self._error("unterminated block comment")
                    self._advance_lines(self.pos, end)
                    self.pos = end + 2
                else:
                    end = src.find("\n", self.pos)
                    self.pos = n if end < 0 else end
            else:
                return

    def next_token(self) -> Token:
        self._skip_trivia()
        src, n = self.source, len(self.source)
        if self.pos >= n:
            return Token(Token.EOF, None, self._location(), self.pos)
        loc = self._location()
        ch = src[self.pos]
        # names / keywords ---------------------------------------------------
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < n and (src[self.pos].isalnum() or src[self.pos] == "_"):
                self.pos += 1
            word = src[start:self.pos]
            kind = Token.KEYWORD if word in KEYWORDS else Token.NAME
            return Token(kind, word, loc, self.pos)
        # numbers --------------------------------------------------------------
        if _isdigit(ch) or (ch == "." and self.pos + 1 < n and _isdigit(src[self.pos + 1])):
            return self._scan_number(loc)
        # strings --------------------------------------------------------------
        if ch in "\"'":
            return self._scan_string(loc)
        # operators -----------------------------------------------------------
        for op in _OPERATORS:
            if src.startswith(op, self.pos):
                self.pos += len(op)
                return Token(Token.OP, op, loc, self.pos)
        raise self._error(f"unexpected character {ch!r}")

    def _scan_number(self, loc: SourceLocation) -> Token:
        src, n = self.source, len(self.source)
        start = self.pos
        is_float = False
        if src.startswith(("0x", "0X"), self.pos):
            self.pos += 2
            while self.pos < n and src[self.pos] in "0123456789abcdefABCDEF":
                self.pos += 1
            if self.pos == start + 2:
                raise self._error("malformed hex literal (no digits after 0x)")
            value: int | float = int(src[start:self.pos], 16)
        else:
            while self.pos < n and _isdigit(src[self.pos]):
                self.pos += 1
            if (self.pos < n and src[self.pos] == "."
                    and not src.startswith("..", self.pos)):
                is_float = True
                self.pos += 1
                while self.pos < n and _isdigit(src[self.pos]):
                    self.pos += 1
            if self.pos < n and src[self.pos] in "eE":
                peek = self.pos + 1
                if peek < n and src[peek] in "+-":
                    peek += 1
                if peek < n and _isdigit(src[peek]):
                    is_float = True
                    self.pos = peek
                    while self.pos < n and _isdigit(src[self.pos]):
                        self.pos += 1
                else:
                    # C (and Terra) reject a dangling exponent outright;
                    # silently lexing `1e` as `1` + identifier `e` hides
                    # the typo behind a confusing parse error later.
                    raise self._error(
                        "malformed number literal (exponent has no digits)")
            text = src[start:self.pos]
            value = float(text) if is_float else int(text)
        suffix = ""
        sfx_start = self.pos
        while self.pos < n and src[self.pos] in "fFuUlL":
            self.pos += 1
        raw_suffix = src[sfx_start:self.pos].lower()
        if raw_suffix:
            if raw_suffix == "f":
                is_float, value, suffix = True, float(value), "f"
            elif raw_suffix in ("u", "ul", "lu"):
                suffix = "u"
            elif raw_suffix in ("ull", "llu"):
                suffix = "ull"
            elif raw_suffix in ("l", "ll"):
                suffix = "ll"
            else:
                raise self._error(f"bad numeric suffix {raw_suffix!r}")
        return Token(Token.NUMBER, NumberValue(value, is_float, suffix),
                     loc, self.pos)

    def _scan_string(self, loc: SourceLocation) -> Token:
        src, n = self.source, len(self.source)
        quote_char = src[self.pos]
        self.pos += 1
        chunks: list[str] = []
        mapping = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'",
                   '"': '"', "0": "\0", "a": "\a", "b": "\b", "f": "\f",
                   "v": "\v"}
        while True:
            if self.pos >= n:
                raise self._error("unterminated string literal")
            c = src[self.pos]
            if c == quote_char:
                self.pos += 1
                break
            if c == "\n":
                raise self._error("newline in string literal")
            if c == "\\":
                self.pos += 1
                if self.pos >= n:
                    raise self._error("unterminated escape sequence")
                esc = src[self.pos]
                if esc not in mapping:
                    raise self._error(f"unknown escape sequence \\{esc}")
                chunks.append(mapping[esc])
                self.pos += 1
            else:
                chunks.append(c)
                self.pos += 1
        return Token(Token.STRING, "".join(chunks), loc, self.pos)

    # -- raw escape scanning -----------------------------------------------
    def scan_escape(self, open_offset: int) -> tuple[str, SourceLocation]:
        """Scan the body of a ``[ ... ]`` escape as raw Python source.

        ``open_offset`` is the offset just *after* the ``[`` token (its
        ``end_offset``).  Returns the Python source text and its location,
        and leaves the lexer positioned after the closing ``]``.  Tracks
        Python string literals (including triple quotes) and nested
        brackets so that e.g. ``[xs[i]("][")]`` scans correctly.
        """
        src, n = self.source, len(self.source)
        if open_offset != self.pos:
            # The parser buffered lookahead past the '['; rewind and
            # recompute line bookkeeping from scratch.
            self.pos = open_offset
            self.line = self.first_line + src.count("\n", 0, open_offset)
            self.line_start = src.rfind("\n", 0, open_offset) + 1
        loc = self._location()
        depth = 1
        i = self.pos
        while i < n:
            c = src[i]
            if c in "\"'":
                quote = c
                if src.startswith(quote * 3, i):
                    end = src.find(quote * 3, i + 3)
                    if end < 0:
                        raise self._error("unterminated string in escape")
                    i = end + 3
                    continue
                i += 1
                while i < n and src[i] != quote:
                    i += 2 if src[i] == "\\" else 1
                if i >= n:
                    raise self._error("unterminated string in escape")
                i += 1
                continue
            if c == "#":
                end = src.find("\n", i)
                i = n if end < 0 else end
                continue
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
                if depth == 0:
                    body = src[self.pos:i]
                    self._advance_lines(self.pos, i + 1)
                    self.pos = i + 1
                    return body, loc
            i += 1
        raise self._error("unterminated escape: missing ']'")


    def scan_escape_block(self, open_offset: int) -> tuple[str, SourceLocation]:
        """Scan the body of an ``escape ... end`` block as raw Python
        statements.  The block ends at the first line whose entire content
        is ``end`` while outside any Python bracket or string.  Leaves the
        lexer positioned after that ``end``."""
        src, n = self.source, len(self.source)
        if open_offset != self.pos:
            self.pos = open_offset
            self.line = self.first_line + src.count("\n", 0, open_offset)
            self.line_start = src.rfind("\n", 0, open_offset) + 1
        loc = self._location()
        depth = 0
        i = self.pos
        line_begin = i
        while i < n:
            c = src[i]
            if c in "\"'":
                quote = c
                if src.startswith(quote * 3, i):
                    endq = src.find(quote * 3, i + 3)
                    if endq < 0:
                        raise self._error("unterminated string in escape block")
                    i = endq + 3
                    continue
                i += 1
                while i < n and src[i] != quote and src[i] != "\n":
                    i += 2 if src[i] == "\\" else 1
                if i < n and src[i] == quote:
                    i += 1
                continue
            if c == "#":
                nl = src.find("\n", i)
                i = n if nl < 0 else nl
                continue
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth = max(0, depth - 1)
            elif c == "\n":
                i += 1
                line_begin = i
                continue
            elif depth == 0 and src.startswith("end", i) \
                    and src[line_begin:i].strip() == "" \
                    and (i + 3 >= n or not (src[i + 3].isalnum()
                                            or src[i + 3] == "_")):
                body = src[self.pos:line_begin]
                self._advance_lines(self.pos, i + 3)
                self.pos = i + 3
                return body, loc
            i += 1
        raise self._error("unterminated escape block: missing 'end'")


def tokenize(source: str, filename: str = "<terra>",
             first_line: int = 1) -> list[Token]:
    """Eagerly tokenize escape-free Terra source (used by tests)."""
    lexer = Lexer(source, filename, first_line)
    tokens = []
    while True:
        tok = lexer.next_token()
        tokens.append(tok)
        if tok.kind == Token.EOF:
            return tokens
