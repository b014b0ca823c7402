"""Edge-colored graph model: validation, residues, bipartiteness, canonical forms.

A colored graph here is a loopless multigraph on vertices 0..p-1 whose edge
set is one perfect matching per color 0..d.  Each matching is stored as a
fixed-point-free involution array (vertex -> partner), which makes residue
walks and face tracing O(1) per step.  Parallel edges between the same vertex
pair in different colors are legal; they show up as bigons in embedding
analysis but are valid graphs (the two-vertex graph with every color joining
its vertices is the smallest example).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

PairList = Sequence[tuple[int, int]]

# Defect kinds reported by validation.
LOOP_EDGE = "LoopEdge"
NOT_A_MATCHING = "NotAMatching"
ODD_VERTEX_COUNT = "OddVertexCount"
COLOR_GAP = "ColorGap"


@dataclass(frozen=True)
class GraphDefect:
    """One violation found while validating raw pairing data."""

    kind: str
    color: int | None = None
    vertex: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.kind]
        if self.color is not None:
            parts.append(f"color={self.color}")
        if self.vertex is not None:
            parts.append(f"vertex={self.vertex}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class GemValidationError(ValueError):
    """Raised by :func:`validate`; carries the complete defect list.

    The message names the first ``MESSAGE_DEFECTS`` defects and how many
    more there are, so that oversized input gives a bounded message.
    """

    MESSAGE_DEFECTS = 20

    def __init__(self, defects: list[GraphDefect]):
        self.defects = list(defects)
        shown = "; ".join(str(d) for d in self.defects[: self.MESSAGE_DEFECTS])
        rest = len(self.defects) - self.MESSAGE_DEFECTS
        super().__init__(shown + (f"; ... and {rest} more" if rest > 0 else ""))


@dataclass(frozen=True)
class ColoredGraph:
    """A (d+1)-regular properly edge-colored loopless multigraph.

    ``pairings[c][v]`` is the partner of vertex ``v`` under color ``c``.
    Instances are immutable and assumed valid; construct them through
    :func:`validate` or :meth:`from_involutions`.  ``residues`` is made on
    first use and is not a field, so ``==`` and ``hash`` ignore it.
    """

    color_count: int
    vertex_count: int
    pairings: tuple[tuple[int, ...], ...]

    @classmethod
    def from_involutions(cls, involutions: Sequence[Sequence[int]]) -> "ColoredGraph":
        invs = tuple(tuple(row) for row in involutions)
        if not invs:
            raise GemValidationError([GraphDefect(COLOR_GAP, detail="no colors given")])
        return validate(len(invs), len(invs[0]), [_involution_pairs(row) for row in invs])

    @property
    def colors(self) -> range:
        return range(self.color_count)

    @cached_property
    def residues(self) -> "ResidueTable":
        """Each color subset's components, computed once for this graph."""
        return ResidueTable(self)

    def pairs(self, color: int) -> list[tuple[int, int]]:
        """Edges of one color as (low, high) pairs, sorted: they are read in vertex order."""
        inv = self.pairings[color]
        return [(v, inv[v]) for v in range(self.vertex_count) if v < inv[v]]

    def __str__(self) -> str:
        body = "; ".join(
            f"{c}:" + " ".join(f"{a}-{b}" for a, b in self.pairs(c)) for c in self.colors
        )
        return f"ColoredGraph(p={self.vertex_count}, {body})"


def _involution_pairs(row: Sequence[int]) -> list[tuple[int, int]]:
    # v == row[v] is kept so that loops surface as LoopEdge defects
    return [(v, row[v]) for v in range(len(row)) if v <= row[v]]


def _involutions(
    color_count: int,
    vertex_count: int,
    pairings: Mapping[int, PairList] | Sequence[PairList],
) -> tuple[list[list[int]], list[GraphDefect]]:
    """One pass over raw pairing data: the involution array of each color
    present, in color order, and every defect found on the way.

    A sequence of pairing lists is read as the mapping of its indices, so one
    gap rule covers both forms.  The arrays mean a graph only when there are
    no defects."""
    defects: list[GraphDefect] = []
    if color_count < 2:
        defects.append(
            GraphDefect(COLOR_GAP, detail=f"need at least 2 colors, got {color_count}")
        )
    if vertex_count < 2 or vertex_count % 2:
        defects.append(
            GraphDefect(
                ODD_VERTEX_COUNT,
                detail=f"vertex count must be a positive even number, got {vertex_count}",
            )
        )

    if not isinstance(pairings, Mapping):
        pairings = dict(enumerate(pairings))
    inside = sorted(c for c in pairings if 0 <= c < color_count)
    # one defect per maximal run first..last of missing colors
    first = 0
    for c in inside + [color_count]:
        if first < c:
            run = "color has" if first == c - 1 else f"colors {first}..{c - 1} have"
            defects.append(GraphDefect(COLOR_GAP, color=first, detail=f"{run} no pairing"))
        first = c + 1
    for c in sorted(c for c in pairings if not 0 <= c < color_count):
        defects.append(GraphDefect(COLOR_GAP, color=c, detail="color outside 0..color_count-1"))

    involutions = []
    for c in inside:
        pairs = pairings[c]
        matched = 2 * len(pairs) == vertex_count
        # a short header can declare far more vertices than the pairs name
        inv = [-1] * vertex_count if matched else dict.fromkeys(itertools.chain(*pairs), -1)
        for a, b in pairs:
            in_range = 0 <= a < vertex_count and 0 <= b < vertex_count
            if in_range and a != b and inv[a] == inv[b] == -1:
                inv[a] = b
                inv[b] = a
                continue
            for v in (a, b):
                if not 0 <= v < vertex_count:
                    detail = f"vertex id outside 0..{vertex_count - 1}"
                    defects.append(GraphDefect(NOT_A_MATCHING, c, v, detail))
            if a == b:
                defects.append(GraphDefect(LOOP_EDGE, c, a))
                continue
            for v in (a, b):
                if 0 <= v < vertex_count:
                    if inv[v] != -1:
                        detail = "vertex paired more than once"
                        defects.append(GraphDefect(NOT_A_MATCHING, c, v, detail))
                    inv[v] = v  # marks v paired; this color already has a defect
        if not matched:  # one defect, not one per unpaired vertex
            detail = f"{len(pairs)} pairs cannot match {vertex_count} vertices"
            defects.append(GraphDefect(NOT_A_MATCHING, color=c, detail=detail))
        elif -1 in inv:
            defects.extend(
                GraphDefect(NOT_A_MATCHING, c, v, "vertex left unpaired")
                for v, u in enumerate(inv)
                if u == -1
            )
        involutions.append(inv)
    return involutions, defects


def validate(
    color_count: int,
    vertex_count: int,
    pairings: Mapping[int, PairList] | Sequence[PairList],
) -> ColoredGraph:
    """Build a :class:`ColoredGraph` from raw pairing data or raise with all defects."""
    involutions, defects = _involutions(color_count, vertex_count, pairings)
    if defects:
        raise GemValidationError(defects)
    return ColoredGraph(color_count, vertex_count, tuple(map(tuple, involutions)))


def _color_subset(graph: ColoredGraph, colors: Iterable[int]) -> list[int]:
    """``colors`` sorted without repeats; each must be a color of ``graph``."""
    subset = sorted(set(colors))
    for c in subset:
        if not 0 <= c < graph.color_count:
            raise ValueError(f"color {c} outside 0..{graph.color_count - 1}")
    return subset


def _bfs_components(
    pairings: Sequence[Sequence[int]], vertex_count: int, colors: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """The components of the residue on ``colors``, by a breadth-first walk."""
    invs = [pairings[c] for c in colors]
    seen = bytearray(vertex_count)
    classes = []
    for start in range(vertex_count):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = 1
        for v in comp:
            for inv in invs:
                u = inv[v]
                if not seen[u]:
                    seen[u] = 1
                    comp.append(u)
        classes.append(tuple(comp))
    return tuple(classes)


def bicolored_cycles(
    pairings: Sequence[Sequence[int]], a: int, b: int
) -> tuple[tuple[int, ...], ...]:
    """The cycles of the {a, b}-residue, ordered by least vertex; each starts
    at it and steps along the smaller color first."""
    inv_lo, inv_hi = (pairings[a], pairings[b]) if a < b else (pairings[b], pairings[a])
    seen = bytearray(len(inv_lo))
    cycles = []
    for start in range(len(inv_lo)):
        if seen[start]:
            continue
        cyc = []
        v = start
        while not seen[v]:  # the first vertex seen again is the start
            u = inv_lo[v]
            seen[v] = seen[u] = 1
            cyc += (v, u)
            v = inv_hi[u]
        cycles.append(tuple(cyc))
    return tuple(cycles)


class ResidueTable:
    """The residues of one graph, each color subset's components computed
    once; reach it as ``graph.residues``.  ``colors`` is always a sorted
    tuple; ``components`` gives the components as a tuple ordered by least
    vertex, each starting at it but unsorted (a color pair's are its cycles
    from :func:`bicolored_cycles`), and ``index`` maps each vertex to its
    component's position there.  It holds the pairings, not the graph, so a
    graph and its table form no reference cycle and are freed together."""

    def __init__(self, graph: ColoredGraph):
        self.pairings = graph.pairings
        self.vertex_count = graph.vertex_count
        self._components: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        self._index: dict[tuple[int, ...], list[int]] = {}

    def components(self, colors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        comps = self._components.get(colors)
        if comps is None:
            if len(colors) == 1:  # the edges of one color
                comps = tuple((v, u) for v, u in enumerate(self.pairings[colors[0]]) if v < u)
            elif len(colors) == 2:
                comps = bicolored_cycles(self.pairings, *colors)
            else:
                comps = _bfs_components(self.pairings, self.vertex_count, colors)
            self._components[colors] = comps
        return comps

    def index(self, colors: tuple[int, ...]) -> list[int]:
        lookup = self._index.get(colors)
        if lookup is None:
            lookup = self._index[colors] = [0] * self.vertex_count
            for idx, comp in enumerate(self.components(colors)):
                for v in comp:
                    lookup[v] = idx
        return lookup


def residue_components(
    graph: ColoredGraph, colors: Iterable[int]
) -> list[tuple[int, ...]]:
    """Connected components of the subgraph using only ``colors``.

    The empty color set yields one singleton class per vertex.  Classes are
    returned as sorted vertex tuples, ordered by least vertex, in a new list
    read from ``graph.residues``.
    """
    comps = graph.residues.components(tuple(_color_subset(graph, colors)))
    return [tuple(sorted(c)) for c in comps]


def connected_components(graph: ColoredGraph) -> list[tuple[int, ...]]:
    """The components as sorted vertex tuples, ordered by least vertex."""
    return [tuple(sorted(c)) for c in graph.residues.components(tuple(graph.colors))]


def is_connected(graph: ColoredGraph) -> bool:
    return len(graph.residues.components(tuple(graph.colors))) == 1


def residue_stats(graph: ColoredGraph) -> dict[tuple[int, ...], int]:
    """Component counts for all 2- and 3-color residues and the full color
    set, keyed by sorted color tuple."""
    sizes = {2, 3, graph.color_count}
    table = graph.residues
    counts: dict[tuple[int, ...], int] = {}
    for size in sorted(sizes):
        for subset in itertools.combinations(range(graph.color_count), size):
            counts[subset] = len(table.components(subset))
    return counts


def odd_components(graph: ColoredGraph) -> Iterator[bool]:
    """For each component, by least vertex, whether it has an odd cycle.

    A breadth-first walk gives the vertices alternate sides and yields True
    at a component's first edge between two vertices of one side, so a
    caller can stop there; a component without one yields False when done.
    """
    p = graph.vertex_count
    side = [-1] * p
    for start in range(p):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = [start]
        odd = False
        for v in queue:
            for inv in graph.pairings:
                u = inv[v]
                if side[u] < 0:
                    side[u] = side[v] ^ 1
                    queue.append(u)
                elif side[u] == side[v] and not odd:
                    odd = True
                    yield True
        if not odd:
            yield False


def is_bipartite(graph: ColoredGraph) -> bool:
    """Whether the underlying multigraph admits a proper 2-coloring of vertices."""
    return not any(odd_components(graph))


def spanning_forest(size: int) -> Callable[[int, int], bool]:
    """A union-find on the nodes 0..size-1, as a function ``joins(x, y)``
    that adds the link x-y and says whether it joined two trees.  The links
    that join form a spanning forest of all the links given so far."""
    parent = list(range(size))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def joins(x: int, y: int) -> bool:
        x, y = root(x), root(y)
        if x == y:
            return False
        parent[x] = y
        return True

    return joins


# ---------------------------------------------------------------------------
# Canonical form
#
# A breadth-first walk from a start vertex, visiting colors in ascending
# order, labels vertices in discovery order.  The walk depends only on the
# colored-graph structure, so the lexicographic minimum over all starts of
# the relabeled involution arrays (the key) is a complete invariant.  Three
# exact mechanisms find that minimum without building every key:
# 1. Lazy color-0 comparison: entry i of the color-0 block is known once
#    order[i] is processed, so the walk stops as soon as it exceeds the best
#    key's entry i; a key with a greater prefix cannot be least.
# 2. Block-wise comparison: the other colors' blocks are built one at a
#    time and compared only while tied; equal-length blocks order exactly
#    like their concatenation.
# 3. Orbit pruning (McKay & Piperno, J. Symbolic Comput. 60, 2014): a start
#    that ties the best key gives the automorphism order[i] -> best_order[i];
#    orbits merge toward the least vertex, and a start whose orbit root is an
#    earlier vertex is skipped, since starts in one orbit give equal keys.
# One label array serves all starts and components; a walk resets only the
# entries it labeled, so many small components cost no O(p) per start.
# ---------------------------------------------------------------------------


def _orbit_root(orbit, v):
    while v in orbit:
        v = orbit[v]
    return v


def _component_key(pairings, vertices, label):
    """Lex-least labeling of one connected component, one block per color.

    ``vertices`` is sorted; ``label`` is all -1 on entry and on exit.
    """
    inv0 = pairings[0]
    best = best_order = None
    orbit = {}  # vertex -> a smaller vertex of its orbit (roots are absent)
    for start in vertices:
        if start in orbit:
            continue
        label[start] = 0
        order = [start]
        tied = best is not None
        for i, v in enumerate(order):
            for inv in pairings:
                u = inv[v]
                if label[u] < 0:
                    label[u] = len(order)
                    order.append(u)
            if tied:
                entry, least = label[inv0[v]], best[0][i]
                if entry > least:
                    break
                tied = entry == least
        else:
            key = []
            for c, inv in enumerate(pairings):
                block = [label[inv[v]] for v in order]
                if tied:
                    if block > best[c]:
                        break
                    tied = block == best[c]
                key.append(block)
            else:
                if tied:  # order[i] -> best_order[i] is an automorphism
                    for a, b in zip(order, best_order):
                        a, b = _orbit_root(orbit, a), _orbit_root(orbit, b)
                        if a != b:
                            orbit[max(a, b)] = min(a, b)
                else:
                    best, best_order = key, order
        for v in order:
            label[v] = -1
    return best


def canonical_code(graph: ColoredGraph) -> str:
    """Text token identifying the graph up to color-preserving relabeling:
    the components' keys, sorted, laid out one after another."""
    label = [-1] * graph.vertex_count
    keys = sorted(
        (len(c), *_component_key(graph.pairings, c, label))
        for c in connected_components(graph)
    )
    rows: list[list[int]] = [[] for _ in graph.colors]
    offset = 0
    for size, *blocks in keys:
        for row, block in zip(rows, blocks):
            row += [offset + x for x in block]
        offset += size
    body = ";".join(",".join(map(str, row)) for row in rows)
    return f"{graph.color_count}:{graph.vertex_count}:{body}"


def residue_subgraph(
    graph: ColoredGraph, colors: Sequence[int], vertices: Iterable[int]
) -> ColoredGraph:
    """Induced subgraph on a residue component, relabeled to dense ids.

    ``vertices`` must be closed under the involutions of ``colors`` (true for
    any union of residue components).  Vertices are renumbered in sorted
    order; colors are renumbered preserving their relative order.
    """
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    subset = _color_subset(graph, colors)
    involutions = []
    for c in subset:
        inv = graph.pairings[c]
        row = []
        for v in verts:
            u = inv[v]
            if u not in index:
                raise ValueError(f"vertex set not closed under color {c}")
            row.append(index[u])
        involutions.append(tuple(row))
    return ColoredGraph(len(subset), len(verts), tuple(involutions))
