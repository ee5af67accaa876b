"""A miniature parser for R call expressions.

The goal is not to parse arbitrary R but the call shapes the paper's analysis
scripts use::

    filterByClass(sqldf(
      SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t)
      FROM (SELECT x, y, z, t FROM d)
    ), action=''walk'', do.plot=F)

i.e. nested function calls with positional and named arguments, where an
argument may be a quoted string, an identifier/literal or — R-untypically but
used in the paper's listing — a raw SQL text.  Arguments are therefore kept as
*text spans*; nested calls are parsed recursively when they syntactically look
like ``name(...)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional


class RParseError(Exception):
    """Raised when a string cannot be parsed as an R call."""


_CALL_START_RE = re.compile(r"^\s*([A-Za-z.][A-Za-z0-9._]*)\s*\(")


@dataclass
class RArgument:
    """One argument of an R call: optional name plus its raw text."""

    text: str
    name: Optional[str] = None
    call: Optional["RCall"] = None


@dataclass
class RCall:
    """A parsed R function call."""

    function: str
    arguments: List[RArgument] = field(default_factory=list)
    source: str = ""

    def argument(self, name: str) -> Optional[RArgument]:
        """Return the named argument ``name`` if present."""
        for argument in self.arguments:
            if argument.name == name:
                return argument
        return None

    def find_calls(self, function: str) -> List["RCall"]:
        """Find all (transitively) nested calls to ``function``."""
        found: List[RCall] = []
        if self.function == function:
            found.append(self)
        for argument in self.arguments:
            if argument.call is not None:
                found.extend(argument.call.find_calls(function))
        return found

    def render(self) -> str:
        """Render the call back to R-ish text."""
        rendered_arguments = []
        for argument in self.arguments:
            text = argument.call.render() if argument.call is not None else argument.text
            if argument.name is not None:
                rendered_arguments.append(f"{argument.name}={text}")
            else:
                rendered_arguments.append(text)
        return f"{self.function}({', '.join(rendered_arguments)})"


def parse_r_call(text: str) -> RCall:
    """Parse ``text`` as a single R function call."""
    stripped = text.strip()
    match = _CALL_START_RE.match(stripped)
    if not match:
        raise RParseError(f"Not an R function call: {stripped[:60]!r}")
    function = match.group(1)
    open_index = match.end() - 1
    close_index = _matching_paren(stripped, open_index)
    inner = stripped[open_index + 1 : close_index]
    trailing = stripped[close_index + 1 :].strip()
    if trailing:
        raise RParseError(f"Unexpected trailing text after call: {trailing[:40]!r}")
    arguments = [_parse_argument(chunk) for chunk in _split_arguments(inner)]
    return RCall(function=function, arguments=arguments, source=stripped)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _matching_paren(text: str, open_index: int) -> int:
    depth = 0
    in_string: Optional[str] = None
    index = open_index
    while index < len(text):
        char = text[index]
        if in_string is not None:
            if char == in_string:
                in_string = None
            index += 1
            continue
        if char in "'\"":
            in_string = char
        elif char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                return index
        index += 1
    raise RParseError("Unbalanced parentheses in R call")


def _split_arguments(text: str) -> List[str]:
    """Split an argument list on top-level commas (strings/parens respected)."""
    chunks: List[str] = []
    depth = 0
    in_string: Optional[str] = None
    current: List[str] = []
    for char in text:
        if in_string is not None:
            current.append(char)
            if char == in_string:
                in_string = None
            continue
        if char in "'\"":
            in_string = char
            current.append(char)
            continue
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            chunks.append("".join(current))
            current = []
            continue
        current.append(char)
    if current and "".join(current).strip():
        chunks.append("".join(current))
    return [chunk.strip() for chunk in chunks if chunk.strip()]


_NAMED_ARGUMENT_RE = re.compile(
    r"^([A-Za-z.][A-Za-z0-9._]*)\s*=\s*(?![=])(.*)$", re.DOTALL
)


def _parse_argument(chunk: str) -> RArgument:
    name: Optional[str] = None
    body = chunk
    named = _NAMED_ARGUMENT_RE.match(chunk)
    # Avoid misreading SQL text such as "a = b" inside a raw SQL argument: a
    # named argument's value must not itself start a SELECT statement and the
    # chunk must not look like SQL (contain SELECT before the '=').
    if named and "select" not in named.group(1).lower():
        candidate_body = named.group(2).strip()
        if not candidate_body.upper().startswith("SELECT"):
            prefix = chunk[: named.start(2)]
            if "SELECT" not in prefix.upper():
                name = named.group(1)
                body = candidate_body
    call: Optional[RCall] = None
    if _CALL_START_RE.match(body) and not body.upper().startswith("SELECT"):
        try:
            call = parse_r_call(body)
        except RParseError:
            call = None
    return RArgument(text=body, name=name, call=call)
