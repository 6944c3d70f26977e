"""Differential test of the master-regex lexer against the maximal-munch
reference it replaced.

:func:`reference_tokenize` is the previous implementation, kept verbatim
as the oracle: a regex for the non-operator token classes, then a
per-operator ``startswith`` loop in maximal-munch order, then single
punctuation characters.  ``repro.sva.lexer.tokenize`` must produce the
same ``Token`` list on every input, and fail with the same ``LexError``
(message, line, col) where the reference fails.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.design2sva.sweep import build_benchmark
from repro.datasets.nl2sva_human import corpus
from repro.sva.lexer import KEYWORDS, LexError, Token, TokKind, tokenize

_OPERATORS = [
    "<<<", ">>>", "===", "!==", "##", "|->", "|=>", "->", "<->",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**", "~&", "~|",
    "~^", "^~", "++", "--", "+=", "-=", "[*", "[=", "[->",
    "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^", "?",
]

_PUNCT = ["(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "@", "#", "$", "="]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<number>
        (?:\d+\s*'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+)   # sized based
      | (?:'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+)         # unsized based
      | (?:'[01xXzZ])                                        # fill literal '0 '1
      | (?:\d[\d_]*(?:\.\d+)?)                               # plain decimal
    )
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<sysfunc>\$[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<directive>`[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<ident>[a-zA-Z_][a-zA-Z0-9_$]*)
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_tokenize(source: str) -> list[Token]:
    """The maximal-munch lexer: the oracle for ``tokenize``."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m:
            text = m.group(0)
            kind_name = m.lastgroup
            col = pos - line_start + 1
            if kind_name in ("ws", "line_comment", "block_comment"):
                nl = text.count("\n")
                if nl:
                    line += nl
                    line_start = pos + text.rfind("\n") + 1
                pos = m.end()
                continue
            if kind_name == "ident":
                kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
            elif kind_name == "number":
                kind = TokKind.NUMBER
            elif kind_name == "string":
                kind = TokKind.STRING
            elif kind_name == "sysfunc":
                kind = TokKind.SYSFUNC
            elif kind_name == "directive":
                kind = TokKind.DIRECTIVE
            else:  # pragma: no cover - regex groups are exhaustive
                raise AssertionError(kind_name)
            tokens.append(Token(kind, text, line, col))
            pos = m.end()
            continue
        # operators / punctuation via maximal munch
        col = pos - line_start + 1
        for op in _OPERATORS:
            if source.startswith(op, pos):
                tokens.append(Token(TokKind.OP, op, line, col))
                pos += len(op)
                break
        else:
            ch = source[pos]
            if ch in _PUNCT:
                tokens.append(Token(TokKind.PUNCT, ch, line, col))
                pos += 1
            else:
                raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token(TokKind.EOF, "", line, n - line_start + 1))
    return tokens


def _outcome(lex, source: str):
    """The token list, or the ``LexError`` as (message, line, col)."""
    try:
        return lex(source)
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)


def assert_same_tokens(source: str) -> None:
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)


# -- hypothesis: the token alphabet plus stray characters ---------------------

_FRAGMENTS = (
    _OPERATORS + _PUNCT
    + ["a", "b1", "q_$x", "assert", "property", "endmodule", "$past",
       "$countones", "`WIDTH", "`define", "42", "4'hF", "2 'b01", "8'sd7",
       "'1", "'x", "'", "1_000", "3.25", '"s"', '"', '"a\\"b"', "//c\n",
       "/* c\n */", "/*", "*/", " ", "\n", "\t", "  \n  ", "\r\n"])
#: characters outside the token alphabet, or only valid inside a token
_STRAY = ["`", "\\", "'", '"', "\x00", "é", "→", "\x0b", "0",
          "_", "x"]

_sources = st.lists(st.sampled_from(_FRAGMENTS + _STRAY),
                    max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(_sources)
def test_fragment_strings_match_reference(source):
    assert_same_tokens(source)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab1'`\"$#<>=|-&*[]()\\/ \n\t.;:@~^!?%{},+hd_",
               max_size=30))
def test_character_strings_match_reference(source):
    assert_same_tokens(source)


@pytest.mark.parametrize("source", [
    "", "a", "a `", "x\n\n  `y", "\"open", "a\n/* never closed",
    "4 '\n b 1 `", "\"multi\nline\" `", "a <<<= b |-> ##[0:$] c",
    "[->1] [*2] [=3]", "'", "a\r\nb \x0c c",
])
def test_edge_cases_match_reference(source):
    assert_same_tokens(source)


def test_error_position_is_reported():
    with pytest.raises(LexError) as info:
        tokenize("a\n  b `")
    assert (info.value.line, info.value.col) == (2, 5)
    assert str(info.value) == "unexpected character '`' (line 2, col 5)"


# -- the benchmark's own sources ----------------------------------------------


def test_nl2sva_human_corpus_matches_reference():
    for name in corpus.testbench_names():
        assert_same_tokens(corpus.testbench_source(name))
    for problem in corpus.problems():
        assert_same_tokens(problem.reference)


@pytest.mark.parametrize("category", ["fsm", "pipeline", "arbiter"])
def test_design2sva_sources_match_reference(category):
    for design in build_benchmark(category, 8, 0):
        assert_same_tokens(design.source)
        assert_same_tokens(design.tb_source)
