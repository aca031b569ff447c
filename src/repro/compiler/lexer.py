"""Lexer for the C subset consumed by the XaaS compiler frontend.

Operates on *preprocessed* text (see :mod:`repro.compiler.preprocessor`);
``#pragma`` lines survive preprocessing and are emitted as PRAGMA tokens so
the parser can attach OpenMP annotations to the following statement, which is
how Clang's AST records them and what the paper's OpenMP-detection pass
inspects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = {
    "int", "long", "float", "double", "void", "char", "bool",
    "if", "else", "for", "while", "return", "break", "continue",
    "const", "extern", "static", "struct", "sizeof", "unsigned",
}

_TOKEN_SPEC = [
    ("PRAGMA", r"\#pragma[^\n]*"),
    ("FLOAT", r"\d+\.\d*(?:[eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?|\.\d+(?:[eE][+-]?\d+)?[fF]?"),
    ("INT", r"0[xX][0-9a-fA-F]+|\d+[uUlL]*"),
    ("ID", r"[A-Za-z_]\w*"),
    ("STRING", r'"(?:\\.|[^"\\])*"'),
    ("CHAR", r"'(?:\\.|[^'\\])'"),
    ("OP", r"<<=|>>=|\+\+|--|->|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|[-+*/%<>=!&|^~?:.,;(){}\[\]]"),
    ("NEWLINE", r"\n"),
    ("SKIP", r"[ \t\r]+"),
    ("MISMATCH", r"."),
]

_MASTER_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


class LexError(ValueError):
    pass


@dataclass(frozen=True)
class Token:
    kind: str  # PRAGMA | FLOAT | INT | ID | KEYWORD | STRING | CHAR | OP | EOF
    text: str
    line: int

    def __repr__(self) -> str:  # compact for parser error messages
        return f"{self.kind}({self.text!r}@{self.line})"


def tokenize(text: str) -> list[Token]:
    """Tokenize preprocessed source into a token list ending with EOF."""
    tokens: list[Token] = []
    line = 1
    for match in _MASTER_RE.finditer(text):
        kind = match.lastgroup
        value = match.group(0)
        if kind == "NEWLINE":
            line += 1
            continue
        if kind == "SKIP":
            continue
        if kind == "MISMATCH":
            raise LexError(f"line {line}: unexpected character {value!r}")
        if kind == "ID" and value in KEYWORDS:
            kind = "KEYWORD"
        tokens.append(Token(kind, value, line))
    tokens.append(Token("EOF", "", line))
    return tokens
