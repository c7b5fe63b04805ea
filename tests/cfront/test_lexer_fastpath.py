"""The lexer's fused fast loop against its per-character scanners.

``Lexer.lex`` matches one master pattern per token (whitespace and
comments before it included) and hands only the cases that pattern
cannot settle to ``_lex_one_slow``.  Driving ``_lex_one_slow`` alone over
the whole input is the reference: both must yield the same tokens, or
the same error at the same position.
"""

from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cfront.errors import LexError
from repro.cfront.lexer import Lexer
from repro.cfront.tokens import PUNCTUATORS, TokenKind

ROOT = Path(__file__).resolve().parents[2]

#: fragments that exercise every scanner and every fallback
_FRAGMENTS = [
    " ", "  ", "\t", "\n", "\r\n", "\f", "@", "$", "`", "\\", "\\\n",
    "a", "_b1", "x", "e", "for", "int", "return", "N",
    "0", "1", "07", "0x1F", "0X", "1.5", "1.", ".5", "1e3", "1.5e+3f",
    "2E-7L", "10uL", "3f", "e+", "..", "...",
    '"', "'", '"s"', '"a\\"b"', "'c'", "'\\n'", "'ab'", '"\n"',
    "/", "*", "/*", "*/", "/* c */", "/* a\nb */", "//", "// line\n",
    "#", "#pragma omp parallel for\n", "#define N 8\n", "#define M N\n",
    "#define F(x) x\n", "#include <stdio.h>\n", "#if 0\n", "# /* c */ x\n",
    "->", "++", "<<=", ">>", "&&", "||", "!=", "+=", "[", "]", "(", ")",
    "{", "}", ";", ",", "?", ":", "~", "%", "^", "|", "&", "<", ">", "=",
    "-", "+", "!", "é",
]

_C_ALPHABET = "ab_xe019.+-*/%<>=!&|^~?:;,()[]{}#'\"\\ \t\r\n\f@$"

sources = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
    st.text(alphabet=_C_ALPHABET, max_size=60),
)


def _lex_slow(source: str):
    """The whole input through the per-character scanners only."""
    lexer = Lexer(source)
    while lexer.pos < len(lexer.source):
        lexer._lex_one_slow()
    lexer._emit(TokenKind.EOF, "")
    lexer._substitute_defines()
    for i, tok in enumerate(lexer.tokens):
        tok.index = i
    return lexer


def _outcome(lex):
    """Tokens, defines and includes, or the error with its position."""
    try:
        result = lex()
    except LexError as exc:
        return ("error", exc.message, exc.line, exc.col)
    return ([(t.kind, t.text, t.line, t.col, t.index) for t in result.tokens],
            result.defines, result.includes)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sources)
def test_fast_loop_matches_per_character_scanners(source):
    fast = _outcome(lambda: Lexer(source).lex())
    slow = _outcome(lambda: _lex_slow(source))
    assert fast == slow


@settings(max_examples=200, deadline=None)
@given(sources)
def test_only_punctuators_spell_punctuators(source):
    """The parser tests punctuators by text alone; no other token kind
    may spell one."""
    try:
        tokens = Lexer(source).lex().tokens
    except LexError:
        return
    assert not [t for t in tokens
                if t.kind is not TokenKind.PUNCT and t.text in PUNCTUATORS]


def test_corpus_punctuator_invariant_and_parity():
    from repro.dataset.corpus import CorpusGenerator

    sources = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "examples" / "corpus").glob("*.c"))]
    _, files = CorpusGenerator(seed=5).generate(scale=0.003)
    sources += [f.source for f in files]
    for source in sources:
        fast = _outcome(lambda: Lexer(source).lex())
        assert fast == _outcome(lambda: _lex_slow(source))
        assert not [tok for tok in fast[0]
                    if tok[0] is not TokenKind.PUNCT and tok[1] in PUNCTUATORS]


def test_error_positions_after_skipped_spans():
    """Errors behind whitespace and comments report where they start."""
    cases = {
        "int x;\n  /* ok */ /* never closed": (2, 12),
        "a\n\n   @": (3, 4),
        'x = "abc\n";': (1, 5),
        "/* a\nb */ '": (2, 6),
    }
    for source, (line, col) in cases.items():
        outcome = _outcome(lambda: Lexer(source).lex())
        assert outcome[0] == "error" and outcome[2:] == (line, col), source
        assert outcome == _outcome(lambda: _lex_slow(source))
