"""A C lexer.

Turns C source text into a list of :class:`~repro.cfront.tokens.Token`.
Handles the full C89/C99 token set used by real-world loop code:

- line (``//``) and block (``/* */``) comments,
- integer constants (decimal / octal / hex, ``u``/``l`` suffixes),
- floating constants (decimal and exponent forms, ``f``/``l`` suffixes),
- character and string literals with escape sequences,
- all multi-character punctuators with maximal munch,
- preprocessor lines: ``#pragma`` lines become ``PRAGMA`` tokens (the
  OMP_Serial labeller reads them); ``#include``/``#define``/``#if`` etc.
  are consumed (simple object-like ``#define NAME value`` macros are
  recorded and substituted, which is enough for the constant-bound loops
  that dominate benchmark code).

The lexer never needs a symbol table; ``typedef`` disambiguation happens
in the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.cfront.errors import LexError
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = _DIGITS | frozenset("abcdefABCDEF")
_WHITESPACE = frozenset(" \t\r\n")
_SIGNS = frozenset("+-")
_EXPONENT = frozenset("eE")
_NUM_SUFFIX = frozenset("uUlLfF")
_FLOAT_SUFFIX = frozenset("fF")

#: Master pattern of the fast scanning loop: one match per token.  It
#: first consumes any whitespace and terminated comments before the
#: token, then the token itself; the alternatives mirror the
#: per-character scanners exactly.  What they cannot settle leaves the
#: token group unmatched and falls back to the original routines, so
#: errors and edge semantics are unchanged: ``#`` lines (``#`` is no
#: punctuator here), an unterminated ``/*`` (``/`` never matches before
#: ``*``), malformed literals and unknown characters.
_MASTER_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>"
    r"0[xX][0-9a-fA-F]*[uUlLfF]*"
    r"|(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)"
    r"(?:[eE][+-][0-9]+|[eE][0-9]+)?[uUlLfF]*"
    r")"
    r'|(?P<string>"(?:\\[^\n]|[^"\\\n])*")'
    r"|(?P<char>'(?:\\[^\n]|[^'\\\n])')"
    r"|(?P<punct>"
    + "|".join(r"/(?!\*)" if p == "/" else re.escape(p)
               for p in sorted(PUNCTUATORS, key=len, reverse=True)
               if p != "#")
    + r"))?",
    re.DOTALL,
)

#: number-text → float? (mirrors the suffix/shape rules of _lex_number)
def _num_is_float(text: str) -> bool:
    if text[:2] in ("0x", "0X"):
        rest = text[2:].lstrip("0123456789abcdefABCDEF")
        return "f" in rest or "F" in rest
    body = text.rstrip("uUlL")
    return "." in body or "e" in body or "E" in body or \
        body != body.rstrip("fF")


@dataclass
class LexResult:
    """Lexer output: the token stream plus extracted preprocessor facts."""

    tokens: list[Token]
    #: object-like macro definitions seen in ``#define`` lines
    defines: dict[str, str] = field(default_factory=dict)
    #: raw text of every ``#include`` line (kept for corpus statistics)
    includes: list[str] = field(default_factory=list)


class Lexer:
    """Single-pass scanner over C source text."""

    def __init__(self, source: str) -> None:
        # Line splicing (backslash-newline) happens before everything else,
        # matching translation phase 2 of the C standard.
        self.source = source.replace("\\\n", "")
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []
        self.defines: dict[str, str] = {}
        self.includes: list[str] = []

    # -- character helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self, n: int = 1) -> str:
        text = self.source[self.pos : self.pos + n]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return text

    def _at_end(self) -> bool:
        return self.pos >= len(self.source)

    # -- main loop ---------------------------------------------------------

    def lex(self) -> LexResult:
        """Scan the whole input and return the token stream.

        The hot loop makes one match of a compiled master pattern per
        token, whitespace and comments before it included (~5× faster
        than per-character scanning, which dominated file parsing);
        line and column advance by counting newlines over the skipped
        span only, since no token spans a newline.  Preprocessor lines
        and malformed input fall back to the per-character scanners so
        error reporting is unchanged.
        """
        src = self.source
        n = len(src)
        match = _MASTER_RE.match
        count = src.count
        rfind = src.rfind
        tokens = self.tokens
        append = tokens.append
        pos, line, col = self.pos, self.line, self.col
        while pos < n:
            m = match(src, pos)
            kind = m.lastgroup
            text = m[kind] if kind else ""
            end = m.end()
            start = end - len(text)
            if start != pos:
                newlines = count("\n", pos, start)
                if newlines:
                    line += newlines
                    col = start - rfind("\n", pos, start)
                else:
                    col += start - pos
            if kind is None:
                if start == n:
                    pos = n
                    break
                # '#' lines, broken literals/comments, unknown chars
                self.pos, self.line, self.col = start, line, col
                self._lex_one_slow()
                pos, line, col = self.pos, self.line, self.col
                continue
            if kind == "ident":
                append(Token(
                    TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT,
                    text, line, col,
                ))
            elif kind == "punct":
                append(Token(TokenKind.PUNCT, text, line, col))
            elif kind == "num":
                append(Token(
                    TokenKind.FLOAT_CONST if _num_is_float(text)
                    else TokenKind.INT_CONST,
                    text, line, col,
                ))
            elif kind == "string":
                append(Token(TokenKind.STRING, text, line, col))
            else:
                append(Token(TokenKind.CHAR_CONST, text, line, col))
            pos = end
            col += len(text)
        self.pos, self.line, self.col = pos, line, col
        self._emit(TokenKind.EOF, "")
        self._substitute_defines()
        for i, tok in enumerate(self.tokens):
            tok.index = i
        return LexResult(self.tokens, self.defines, self.includes)

    def _lex_one_slow(self) -> None:
        """One token via the per-character scanners (rare cases)."""
        ch = self._peek()
        if ch in _WHITESPACE:
            self._advance()
        elif ch == "/" and self._peek(1) == "/":
            self._skip_line_comment()
        elif ch == "/" and self._peek(1) == "*":
            self._skip_block_comment()
        elif ch == "#":
            self._lex_preprocessor()
        elif ch in _IDENT_START:
            self._lex_ident()
        elif ch in _DIGITS or (ch == "." and self._peek(1) in _DIGITS):
            self._lex_number()
        elif ch == '"':
            self._lex_string()
        elif ch == "'":
            self._lex_char()
        else:
            self._lex_punct()

    # -- emitters ----------------------------------------------------------

    def _emit(self, kind: TokenKind, text: str, line: int | None = None,
              col: int | None = None) -> None:
        self.tokens.append(
            Token(kind, text, line if line is not None else self.line,
                  col if col is not None else self.col)
        )

    # -- scanners ----------------------------------------------------------

    def _skip_line_comment(self) -> None:
        while not self._at_end() and self._peek() != "\n":
            self._advance()

    def _skip_block_comment(self) -> None:
        start_line, start_col = self.line, self.col
        self._advance(2)
        while not self._at_end():
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance(2)
                return
            self._advance()
        raise LexError("unterminated block comment", start_line, start_col)

    def _lex_preprocessor(self) -> None:
        """Consume a full preprocessor line starting at ``#``."""
        line_no, col_no = self.line, self.col
        chars: list[str] = []
        self._advance()  # '#'
        while not self._at_end() and self._peek() != "\n":
            # Comments may appear inside directive lines.
            if self._peek() == "/" and self._peek(1) == "/":
                self._skip_line_comment()
                break
            if self._peek() == "/" and self._peek(1) == "*":
                self._skip_block_comment()
                chars.append(" ")
                continue
            chars.append(self._advance())
        text = "".join(chars).strip()
        if text.startswith("pragma"):
            self._emit(TokenKind.PRAGMA, text, line_no, col_no)
        elif text.startswith("include"):
            self.includes.append(text)
        elif text.startswith("define"):
            self._record_define(text)
        # #if/#ifdef/#endif/#undef/... are dropped; conditional compilation
        # is outside scope and rare in loop bodies.

    def _record_define(self, text: str) -> None:
        body = text[len("define"):].strip()
        if not body:
            return
        i = 0
        while i < len(body) and body[i] in _IDENT_CONT:
            i += 1
        name, rest = body[:i], body[i:]
        if not name or name[0] not in _IDENT_START:
            return
        if rest.startswith("("):
            return  # function-like macros are not expanded
        value = rest.strip()
        if value:
            self.defines[name] = value

    def _lex_ident(self) -> None:
        line_no, col_no = self.line, self.col
        chars = [self._advance()]
        while self._peek() in _IDENT_CONT:
            chars.append(self._advance())
        text = "".join(chars)
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        self._emit(kind, text, line_no, col_no)

    def _lex_number(self) -> None:
        line_no, col_no = self.line, self.col
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() in _HEX_DIGITS:
                self._advance()
        else:
            while self._peek() in _DIGITS:
                self._advance()
            if self._peek() == "." and self._peek(1) != ".":
                is_float = True
                self._advance()
                while self._peek() in _DIGITS:
                    self._advance()
            if self._peek() in _EXPONENT and (
                self._peek(1) in _DIGITS
                or (self._peek(1) in _SIGNS and self._peek(2) in _DIGITS)
            ):
                is_float = True
                self._advance()
                if self._peek() in _SIGNS:
                    self._advance()
                while self._peek() in _DIGITS:
                    self._advance()
        # Suffixes: uUlL for ints, fFlL for floats.
        while self._peek() in _NUM_SUFFIX:
            if self._peek() in _FLOAT_SUFFIX:
                is_float = True
            self._advance()
        text = self.source[start : self.pos]
        kind = TokenKind.FLOAT_CONST if is_float else TokenKind.INT_CONST
        self._emit(kind, text, line_no, col_no)

    def _lex_string(self) -> None:
        line_no, col_no = self.line, self.col
        start = self.pos
        self._advance()  # opening quote
        while not self._at_end() and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            if self._at_end():
                break
            if self._peek() == "\n":
                raise LexError("newline in string literal", line_no, col_no)
            self._advance()
        if self._at_end():
            raise LexError("unterminated string literal", line_no, col_no)
        self._advance()  # closing quote
        self._emit(TokenKind.STRING, self.source[start : self.pos], line_no, col_no)

    def _lex_char(self) -> None:
        line_no, col_no = self.line, self.col
        start = self.pos
        self._advance()  # opening quote
        if self._peek() == "\\":
            self._advance()
        if self._at_end():
            raise LexError("unterminated char literal", line_no, col_no)
        self._advance()
        if self._peek() != "'":
            raise LexError("unterminated char literal", line_no, col_no)
        self._advance()
        self._emit(TokenKind.CHAR_CONST, self.source[start : self.pos], line_no, col_no)

    def _lex_punct(self) -> None:
        line_no, col_no = self.line, self.col
        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                self._emit(TokenKind.PUNCT, punct, line_no, col_no)
                return
        raise LexError(f"unexpected character {self._peek()!r}", line_no, col_no)

    # -- macro substitution --------------------------------------------------

    def _substitute_defines(self) -> None:
        """Expand object-like macros whose bodies are single constants.

        This is the minimum needed for the ubiquitous ``#define N 1024``
        style of benchmark code.  Recursive or multi-token macros are left
        alone (their identifiers simply stay identifiers).
        """
        simple: dict[str, Token] = {}
        for name, value in self.defines.items():
            sub = Lexer(value)
            try:
                toks = [t for t in sub.lex().tokens if t.kind is not TokenKind.EOF]
            except LexError:
                continue
            if len(toks) == 1 and toks[0].kind in (
                TokenKind.INT_CONST,
                TokenKind.FLOAT_CONST,
                TokenKind.STRING,
                TokenKind.CHAR_CONST,
            ):
                simple[name] = toks[0]
        if not simple:
            return
        for i, tok in enumerate(self.tokens):
            if tok.kind is TokenKind.IDENT and tok.text in simple:
                repl = simple[tok.text]
                self.tokens[i] = Token(repl.kind, repl.text, tok.line, tok.col)


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` and return its tokens (including the EOF sentinel)."""
    return Lexer(source).lex().tokens
