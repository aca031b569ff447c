"""Parser for the mini-CMake build-script language.

The XaaS pipeline never interprets build systems semantically — it observes
their *output* (the compile-commands database). But the reproduction still
needs real build scripts for two reasons: the LLM-discovery experiment
(Table 4) parses them, and the configuration stage must actually evaluate
option-dependent source lists and flags to produce realistic per-configuration
compile commands.

The syntax is CMake's: ``command(arg "quoted arg" ${VAR})``, ``#`` comments,
commands possibly spanning multiple lines. The parser produces a flat command
list; block structure (``if``/``elseif``/``else``/``endif``,
``foreach``/``endforeach``, ``function``/``endfunction``) is resolved by the
interpreter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class BuildScriptError(ValueError):
    pass


@dataclass(frozen=True)
class Command:
    """One build-script command invocation."""

    name: str
    args: tuple[str, ...]
    line: int
    # Marks arguments that were quoted in the source: quoting suppresses
    # list-splitting semantics in CMake and we honour that in the interpreter.
    quoted: tuple[bool, ...] = ()

    def arg_pairs(self) -> list[tuple[str, bool]]:
        quoted = self.quoted or tuple(False for _ in self.args)
        return list(zip(self.args, quoted))


_COMMAND_START = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(")


def parse_script(text: str, filename: str = "<script>") -> list[Command]:
    """Parse a build script into a command list."""
    commands: list[Command] = []
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        line = _strip_comment(lines[i])
        if not line.strip():
            i += 1
            continue
        m = _COMMAND_START.match(line)
        if not m:
            raise BuildScriptError(f"{filename}:{i + 1}: expected a command, got {line.strip()!r}")
        name = m.group(1).lower()
        # Accumulate lines until the parenthesis balance closes; balance
        # and quote state carry from line to line, so a long source list
        # is scanned once rather than once per continuation line.
        pieces = [line[m.end() - 1:]]
        start_line = i + 1
        balance, in_quote = _paren_balance(pieces[0], 0, False)
        while balance > 0:
            i += 1
            if i >= len(lines):
                raise BuildScriptError(f"{filename}:{start_line}: unterminated command {name!r}")
            pieces.append(_strip_comment(lines[i]))
            balance, in_quote = _paren_balance(pieces[-1], balance, in_quote)
        args, quoted = _parse_args("\n".join(pieces), filename, start_line)
        commands.append(Command(name, tuple(args), start_line, tuple(quoted)))
        i += 1
    return commands


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _paren_balance(text: str, balance: int,
                   in_quote: bool) -> tuple[int, bool]:
    """Parenthesis balance and quote state after ``text``, continuing
    from the state the preceding text of the command left."""
    for ch in text:
        if ch == '"':
            in_quote = not in_quote
        elif not in_quote:
            if ch == "(":
                balance += 1
            elif ch == ")":
                balance -= 1
    return balance, in_quote


def _parse_args(buffer: str, filename: str, line: int) -> tuple[list[str], list[bool]]:
    """Split the parenthesized argument text into whitespace-separated args."""
    assert buffer.startswith("(")
    inner_end = _matching_paren(buffer)
    inner = buffer[1:inner_end]
    args: list[str] = []
    quoted_flags: list[bool] = []
    current: list[str] = []
    in_quote = False
    was_quoted = False
    depth = 0
    for ch in inner:
        if ch == '"':
            in_quote = not in_quote
            was_quoted = True
            continue
        if in_quote:
            current.append(ch)
            continue
        if ch == "(":
            depth += 1
            current.append(ch)
            continue
        if ch == ")":
            depth -= 1
            current.append(ch)
            continue
        if ch.isspace() and depth == 0:
            if current or was_quoted:
                args.append("".join(current))
                quoted_flags.append(was_quoted)
            current = []
            was_quoted = False
            continue
        current.append(ch)
    if in_quote:
        raise BuildScriptError(f"{filename}:{line}: unterminated string")
    if current or was_quoted:
        args.append("".join(current))
        quoted_flags.append(was_quoted)
    return args, quoted_flags


def _matching_paren(buffer: str) -> int:
    depth = 0
    in_quote = False
    for i, ch in enumerate(buffer):
        if ch == '"':
            in_quote = not in_quote
        elif not in_quote:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return i
    raise BuildScriptError("unbalanced parentheses")
