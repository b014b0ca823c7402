"""Line-oriented text format for colored graphs.

    gem 1
    colors 3
    vertices 8
    color 0: 0-1 2-3 4-5 6-7
    color 1: 0-2 1-3 4-6 5-7
    color 2: 0-4 1-5 2-6 3-7

Comments start with '#', blank lines are ignored, vertex ids are 0-based.
The writer sorts pairs and colors ascending, so parse(write(g)) == g and the
written form is a fixed point of the round trip.
"""

from __future__ import annotations

import re

from .graphs import ColoredGraph, validate


class GemParseError(ValueError):
    """Syntax error with its source location."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            yield lineno, body


# the header lines, in order: the pattern of each and what an error calls it
_HEADER = (
    (re.compile(r"gem\s+(\d+)"), "gem <version>"),
    (re.compile(r"colors\s+(\d+)"), "colors <count>"),
    (re.compile(r"vertices\s+(\d+)"), "vertices <count>"),
)
_COLOR_LINE = re.compile(r"\s*color\s+(\d+)\s*:(.*)")


def parse_gem(text: str) -> ColoredGraph:
    """Parse a gem file; syntax errors carry line/column, semantic defects
    are raised by validation."""
    lines = list(_significant_lines(text))
    if not lines:
        raise GemParseError(1, 1, "empty file")
    header = []
    for (pattern, description), (lineno, body) in zip(_HEADER, lines):
        m = pattern.fullmatch(body.strip())
        if not m:
            column = len(body) - len(body.lstrip()) + 1
            raise GemParseError(lineno, column, f"expected {description!r}, got {body.strip()!r}")
        header.append(int(m.group(1)))
        if header[0] != 1:  # reported before a missing header line
            raise GemParseError(lineno, 1, f"unsupported format version {header[0]}")
    if len(header) < len(_HEADER):
        expected = _HEADER[len(header)][1]
        raise GemParseError(lines[-1][0], 1, f"unexpected end of file, expected {expected}")
    _, color_count, vertex_count = header

    pairings: dict[int, list[tuple[int, int]]] = {}
    for lineno, body in lines[len(_HEADER) :]:
        m = _COLOR_LINE.fullmatch(body)
        if not m:
            column = len(body) - len(body.lstrip()) + 1
            raise GemParseError(lineno, column, "expected 'color <c>: a-b a-b ...'")
        color = int(m.group(1))
        if color >= color_count:
            message = f"color {color} but the header declares colors {color_count}"
            raise GemParseError(lineno, m.start(1) + 1, message)
        if color in pairings:
            message = f"duplicate pairing line for color {color}"
            raise GemParseError(lineno, m.start(1) + 1, message)
        pairs = []
        for k, token in enumerate(m.group(2).split()):
            a, _, b = token.partition("-")
            if not (a.isdecimal() and b.isdecimal()):  # what \d+-\d+ matches
                at = list(re.compile(r"\S+").finditer(body, m.start(2)))[k].start()
                raise GemParseError(lineno, at + 1, f"malformed pair {token!r}, expected 'a-b'")
            pairs.append((int(a), int(b)))
        pairings[color] = pairs

    return validate(color_count, vertex_count, pairings)


def write_gem(graph: ColoredGraph) -> str:
    """Serialize with sorted pairs and ascending colors (round-trip stable)."""
    lines = [
        "gem 1",
        f"colors {graph.color_count}",
        f"vertices {graph.vertex_count}",
    ]
    for c in graph.colors:
        pairs = " ".join(f"{a}-{b}" for a, b in graph.pairs(c))
        lines.append(f"color {c}: {pairs}")
    return "\n".join(lines) + "\n"
