"""Regular embeddings: bi-colored face tracing and surface invariants.

For a cyclic order eps of the colors, the faces of the regular embedding are
exactly the bi-colored cycles of consecutive colors (eps_i, eps_{i+1}), the
pair residues that ``graphs.bicolored_cycles`` walks.  Their count gives V,
E, F and hence the Euler characteristic of the carrier surface;
bipartiteness decides orientability.  The reports read the cycles off
``graph.residues``; :func:`trace_faces` walks them without the table.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .census import canonical_cycle
from .graphs import ColoredGraph, bicolored_cycles, is_bipartite, is_connected


@dataclass(frozen=True, order=True)
class CyclicOrder:
    """A cyclic order of the colors, canonicalized up to rotation/reflection.

    The stored permutation starts with color 0 and, for three or more colors,
    its second entry is smaller than its last.
    """

    order: tuple[int, ...]

    @classmethod
    def from_sequence(cls, seq, color_count: int | None = None) -> "CyclicOrder":
        order = tuple(int(c) for c in seq)
        n = len(order)
        if color_count is not None and n != color_count:
            raise ValueError(f"cyclic order has {n} entries for {color_count} colors")
        if sorted(order) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
        return cls(canonical_cycle(order))

    @classmethod
    def identity(cls, color_count: int) -> "CyclicOrder":
        return cls(tuple(range(color_count)))

    @property
    def color_count(self) -> int:
        return len(self.order)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Consecutive color pairs (eps_i, eps_{i+1}), indices mod the length."""
        n = len(self.order)
        return tuple((self.order[i], self.order[(i + 1) % n]) for i in range(n))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.order)) + ")"


def trace_faces(
    graph: ColoredGraph, eps: CyclicOrder | None = None
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The faces of the regular embedding for cyclic order ``eps``: the
    bi-colored cycles of each consecutive color pair, in ``eps.pairs()`` order."""
    if eps is None:
        eps = CyclicOrder.identity(graph.color_count)
    if eps.color_count != graph.color_count:
        raise ValueError("cyclic order length does not match the color count")
    return tuple(bicolored_cycles(graph.pairings, a, b) for a, b in eps.pairs())


@dataclass(frozen=True)
class SurfaceDescriptor:
    orientable: bool
    genus: int  # genus when orientable, crosscap number otherwise

    def __str__(self) -> str:
        kind = "orientable genus" if self.orientable else "non-orientable crosscap"
        return f"{kind} {self.genus}"


@dataclass(frozen=True)
class EmbeddingReport:
    """Surface invariants of one regular embedding."""

    eps: CyclicOrder
    vertex_count: int
    edge_count: int
    face_count: int
    chi: int
    orientable: bool
    genus: int  # genus when orientable, crosscap number otherwise
    has_bigons: bool
    se_type: tuple[int, ...] | None  # face sizes in eps order, if semi-equivelar

    def surface(self) -> SurfaceDescriptor:
        return SurfaceDescriptor(self.orientable, self.genus)


def semi_equivelar_type(
    graph: ColoredGraph, eps: CyclicOrder | None = None
) -> tuple[int, ...] | None:
    """The face sizes in ``eps`` order, if the embedding is semi-equivelar.

    Returns None when some face class mixes cycle lengths, when any face is a
    bigon (face sizes below 4 carry no type), or with fewer than 3 colors.
    """
    return _se_type_of({len(c) for c in cycles} for cycles in trace_faces(graph, eps))


def _se_type_of(sizes: Iterable[set[int]]) -> tuple[int, ...] | None:
    """The type from the face sizes of each consecutive color pair."""
    raw = []
    for lengths in sizes:
        if len(lengths) != 1:
            return None
        (q,) = lengths
        if q < 4:
            return None
        raw.append(q)
    if len(raw) < 3:
        return None
    return tuple(raw)


def _reports(
    graph: ColoredGraph, orders: Iterable[CyclicOrder]
) -> dict[CyclicOrder, EmbeddingReport]:
    """The report of each order.  Connectivity and orientability are decided
    once, and each color pair's faces are read once, off ``graph.residues``."""
    if not is_connected(graph):
        raise ValueError("embedding reports need a connected graph")
    orientable = is_bipartite(graph)
    p = graph.vertex_count
    e = p * graph.color_count // 2
    faces: dict[tuple[int, int], tuple[int, set[int]]] = {}  # count, sizes
    reports = {}
    for eps in orders:
        for a, b in eps.pairs():
            if (a, b) not in faces:
                cycles = graph.residues.components((a, b) if a < b else (b, a))
                faces[a, b] = faces[b, a] = len(cycles), {len(c) for c in cycles}
        own = [faces[pair] for pair in eps.pairs()]
        f = sum(count for count, _ in own)
        chi = p - e + f
        reports[eps] = EmbeddingReport(
            eps=eps,
            vertex_count=p,
            edge_count=e,
            face_count=f,
            chi=chi,
            orientable=orientable,
            genus=(2 - chi) // 2 if orientable else 2 - chi,
            has_bigons=any(2 in sizes for _, sizes in own),
            se_type=_se_type_of(sizes for _, sizes in own),
        )
    return reports


def embedding_report(
    graph: ColoredGraph, eps: CyclicOrder | None = None
) -> EmbeddingReport:
    """Surface invariants for one cyclic order; rejects disconnected graphs."""
    if eps is None:
        eps = CyclicOrder.identity(graph.color_count)
    if eps.color_count != graph.color_count:
        raise ValueError("cyclic order length does not match the color count")
    return _reports(graph, [eps])[eps]


_MAX_LISTED_COLORS = 8  # 2,520 cyclic orders


def all_embeddings(graph: ColoredGraph) -> dict[CyclicOrder, EmbeddingReport]:
    """One report per rotation/reflection class of cyclic orders, the same
    as :func:`embedding_report` gives each: d!/2 classes for d+1 >= 3
    colors and a single class for 2.  Raises ``ValueError`` above
    ``_MAX_LISTED_COLORS`` colors, before any order is made."""
    n = graph.color_count
    if n > _MAX_LISTED_COLORS:
        raise ValueError(
            f"{n} colors have {math.factorial(n - 1) // 2:,} cyclic orders, too many to list"
            f" (at most {_MAX_LISTED_COLORS} colors); report one order with embed --perm"
        )
    return _reports(graph, _cyclic_orders(n))


@functools.cache
def _cyclic_orders(n: int) -> tuple[CyclicOrder, ...]:
    """Every canonical order of n colors, in increasing order: color 0
    first and, from 3 colors on, the second entry below the last."""
    if n < 3:
        return (CyclicOrder(tuple(range(n))),)
    rests = itertools.permutations(range(1, n))
    return tuple(CyclicOrder((0,) + rest) for rest in rests if rest[0] < rest[-1])
