"""Tokenizer for the SystemVerilog subset used throughout the repo.

The same token stream feeds both the SVA property parser (``repro.sva.parser``)
and the RTL module parser (``repro.rtl.parser``).  The lexer is deliberately
strict: anything outside the supported token set raises :class:`LexError`,
which the syntax checker reports as a syntax failure -- mirroring how a formal
tool front end rejects malformed input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class LexError(ValueError):
    """Raised when the input contains a character sequence that is not a token."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class TokKind(Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYSFUNC = "sysfunc"  # $countones, $past, ...
    OP = "op"
    PUNCT = "punct"
    KEYWORD = "keyword"
    DIRECTIVE = "directive"  # `define, `WIDTH ...
    EOF = "eof"


#: Keywords recognized by the parsers.  Everything else is an identifier.
KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg logic integer genvar parameter
    localparam assign always always_ff always_comb always_latch initial begin
    end if else case casez casex endcase default for generate endgenerate
    posedge negedge or and not assert assume cover property endproperty
    sequence endsequence disable iff within throughout intersect first_match
    strong weak s_eventually eventually s_until until s_until_with until_with
    nexttime s_nexttime s_always let function endfunction return signed
    unsigned
    """.split()
)

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<<", ">>>", "===", "!==", "##", "|->", "|=>", "->", "<->",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**", "~&", "~|",
    "~^", "^~", "++", "--", "+=", "-=", "[*", "[=", "[->",
    "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^", "?",
]

_PUNCT = ["(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "@", "#", "$", "="]

# One master regex.  Alternation is ordered, so the token classes are
# tried in the order written: operators only after every other class, in
# the maximal-munch order of ``_OPERATORS``, and punctuation last.
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
  | (?P<op>"""
    + "|".join(map(re.escape, _OPERATORS))
    + r""")
  | (?P<punct>["""
    + "".join(map(re.escape, _PUNCT))
    + "])",
    re.VERBOSE | re.DOTALL,
)

#: token kind of each master-regex group; ``None`` marks skipped text
_GROUP_KINDS = {
    "ws": None, "line_comment": None, "block_comment": None,
    "number": TokKind.NUMBER, "string": TokKind.STRING,
    "sysfunc": TokKind.SYSFUNC, "directive": TokKind.DIRECTIVE,
    "ident": TokKind.IDENT, "op": TokKind.OP, "punct": TokKind.PUNCT,
}


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # compact for parser error messages
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.col}"


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, returning a list ending with an EOF token.

    Raises
    ------
    LexError
        If an unrecognized character sequence is encountered (e.g. a stray
        backquote or an unterminated string) -- these are syntax errors.
    """
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LexError(f"unexpected character {source[pos]!r}", line,
                           pos - line_start + 1)
        text = m.group()
        kind = _GROUP_KINDS[m.lastgroup]
        if kind is None:
            nl = text.count("\n")
            if nl:
                line += nl
                line_start = pos + text.rfind("\n") + 1
        else:
            if kind is TokKind.IDENT and text in KEYWORDS:
                kind = TokKind.KEYWORD
            tokens.append(Token(kind, text, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token(TokKind.EOF, "", line, n - line_start + 1))
    return tokens


def strip_code_fences(text: str) -> str:
    """Remove markdown code fences from an LLM response.

    Models are instructed to wrap SVA output in ```systemverilog fences; the
    evaluation flow strips them before parsing, as the paper's flow does.
    """
    fence = re.compile(r"```(?:systemverilog|verilog|sv)?\s*\n?(.*?)```", re.DOTALL)
    m = fence.search(text)
    if m:
        return m.group(1).strip()
    return text.strip()
