"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: determinants
via Bareiss, invariant factors via minor gcds, the cell complex's boundaries
via their own residue walks, isomorphism via brute-force relabeling,
canonical codes via a breadth-first labeling from every vertex, type
search via full matching enumeration, and defect lists via a dict of seen
vertices and a scan of every vertex.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Mapping, Sequence

from gemtk import (
    ColoredGraph,
    HomologyProfile,
    canonical_code,
    check_3manifold,
    check_residues_sphere,
    connected_components,
    graph_homology,
    is_bipartite,
    is_connected,
    residue_components,
    residue_subgraph,
    semi_equivelar_type,
    validate,
)
from gemtk.complexes import homology_spheres
from gemtk.graphs import (
    COLOR_GAP,
    LOOP_EDGE,
    NOT_A_MATCHING,
    ODD_VERTEX_COUNT,
    GraphDefect,
    PairList,
)


# ---------------------------------------------------------------------------
# Graph builders
# ---------------------------------------------------------------------------


def theta_graph() -> ColoredGraph:
    return validate(3, 2, [[(0, 1)], [(0, 1)], [(0, 1)]])


def cube_graph() -> ColoredGraph:
    return ColoredGraph.from_involutions(
        [[v ^ (1 << c) for v in range(8)] for c in range(3)]
    )


def k4_graph() -> ColoredGraph:
    return validate(3, 4, [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]])


def dihedral_gem(n: int, reflections: tuple[int, ...]) -> ColoredGraph:
    """Cayley graph of the dihedral group of order 2n, one color per reflection.

    Vertex 2k + f is the element (k, f): rotation by k, then f flips.  Color c
    joins g to g times the reflection (reflections[c], 1).  Left multiplication
    preserves every color, so the graph is vertex-transitive.
    """
    def times(v: int, j: int) -> int:
        k, f = divmod(v, 2)
        return 2 * ((k - j if f else k + j) % n) + (1 - f)

    return ColoredGraph.from_involutions(
        [[times(v, j) for v in range(2 * n)] for j in reflections]
    )


def random_matching(rng: random.Random, p: int) -> list[int]:
    order = list(range(p))
    rng.shuffle(order)
    inv = [0] * p
    for i in range(0, p, 2):
        a, b = order[i], order[i + 1]
        inv[a] = b
        inv[b] = a
    return inv


def random_colored_graph(rng: random.Random, p: int, colors: int) -> ColoredGraph:
    return ColoredGraph.from_involutions(
        [random_matching(rng, p) for _ in range(colors)]
    )


def random_connected_graph(rng: random.Random, p: int, colors: int) -> ColoredGraph:
    while True:
        g = random_colored_graph(rng, p, colors)
        if is_connected(g):
            return g


def relabel(graph: ColoredGraph, perm: Sequence[int]) -> ColoredGraph:
    """Rename vertices by ``perm`` (old id -> new id); colors are untouched."""
    p = graph.vertex_count
    if sorted(perm) != list(range(p)):
        raise ValueError("perm is not a permutation of the vertex set")
    new = []
    for inv in graph.pairings:
        out = [-1] * p
        for v in range(p):
            out[perm[v]] = perm[inv[v]]
        new.append(tuple(out))
    return ColoredGraph(graph.color_count, p, tuple(new))


def permute_colors(graph: ColoredGraph, sigma: Sequence[int]) -> ColoredGraph:
    """Rename colors by ``sigma`` (old color -> new color)."""
    n = graph.color_count
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma is not a permutation of the color set")
    new: list[tuple[int, ...]] = [()] * n
    for c in range(n):
        new[sigma[c]] = graph.pairings[c]
    return ColoredGraph(n, graph.vertex_count, tuple(new))


def disjoint_union(*graphs: ColoredGraph) -> ColoredGraph:
    """The graphs side by side: each one's vertices follow the previous ones'."""
    pairings = [[] for _ in range(graphs[0].color_count)]
    offset = 0
    for g in graphs:
        for row, inv in zip(pairings, g.pairings):
            row.extend(offset + u for u in inv)
        offset += g.vertex_count
    return ColoredGraph.from_involutions(pairings)


def color4_double(graph: ColoredGraph) -> ColoredGraph:
    """Two copies of a 4-colored graph on p vertices, color 4 joining v and
    v + p: its two residues without color 4 are the copies."""
    p = graph.vertex_count
    double = disjoint_union(graph, graph)
    return ColoredGraph.from_involutions(
        [*double.pairings, [(v + p) % (2 * p) for v in range(2 * p)]]
    )


def rp3_double() -> ColoredGraph:
    """Two copies of the 12-vertex RP^3 gem, joined by color 4.

    Its 4-residues without color 4 are the two RP^3 copies: they pass every
    residue count but not the homology of the 3-sphere.
    """
    rp3 = [
        [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10],
        [2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9],
        [1, 0, 3, 2, 8, 9, 10, 11, 4, 5, 6, 7],
        [4, 11, 6, 9, 0, 10, 2, 8, 7, 3, 5, 1],
    ]
    return color4_double(ColoredGraph.from_involutions(rp3))


def connected_sum(a: ColoredGraph, b: ColoredGraph, v: int, w: int) -> ColoredGraph:
    """Graph connected sum: delete vertex v of a and vertex w of b, then join,
    color by color, the two vertices that were paired with them.

    The vertices of a keep their order and come first; those of b follow.
    """
    label_a = {x: x - (x > v) for x in range(a.vertex_count) if x != v}
    offset = a.vertex_count - 1
    label_b = {y: offset + y - (y > w) for y in range(b.vertex_count) if y != w}
    pairs = []
    for inv_a, inv_b in zip(a.pairings, b.pairings):
        edges = [
            (label_a[x], label_a[y])
            for x, y in enumerate(inv_a)
            if x < y and v not in (x, y)
        ]
        edges += [
            (label_b[x], label_b[y])
            for x, y in enumerate(inv_b)
            if x < y and w not in (x, y)
        ]
        edges.append((label_a[inv_a[v]], label_b[inv_b[w]]))
        pairs.append(edges)
    return validate(a.color_count, len(label_a) + len(label_b), pairs)


# ---------------------------------------------------------------------------
# Matching enumeration and the naive search oracle
# ---------------------------------------------------------------------------


def perfect_matchings(vertices: tuple[int, ...]):
    """All perfect matchings of a vertex tuple, as involution dicts."""
    if not vertices:
        yield {}
        return
    first = vertices[0]
    rest = vertices[1:]
    for i, other in enumerate(rest):
        for sub in perfect_matchings(rest[:i] + rest[i + 1 :]):
            sub = dict(sub)
            sub[first] = other
            sub[other] = first
            yield sub


def all_matchings(p: int) -> list[list[int]]:
    out = []
    for m in perfect_matchings(tuple(range(p))):
        out.append([m[v] for v in range(p)])
    return out


def standard_residue(q: int, p: int) -> tuple[list[int], list[int]]:
    """Colors 0 and 1 of p/q alternating q-cycles: block k walks its vertices
    kq, kq+1, ..., kq+q-1 in order, the even steps in color 0 and the odd
    steps, closing back to kq, in color 1."""
    color0, color1 = [0] * p, [0] * p
    for base in range(0, p, q):
        cycle = list(range(base, base + q))
        for i, (a, b) in enumerate(zip(cycle, cycle[1:] + cycle[:1])):
            inv = color1 if i % 2 else color0
            inv[a], inv[b] = b, a
    return color0, color1


def naive_type_search(
    seq: tuple[int, ...],
    p: int,
    orientable: bool | None = None,
    require_3manifold: bool = False,
    require_residues_sphere: bool = False,
    fix_color0: bool = True,
    fix_residue: bool = False,
) -> set[str]:
    """Canonical codes of all connected graphs with the given face-size sequence.

    Enumerates every combination of perfect matchings (color 0 fixed to the
    standard pairing unless ``fix_color0`` is false; colors 0 and 1 fixed to
    ``standard_residue(seq[0], p)`` with ``fix_residue``) and filters through
    the public verification functions only.
    """
    n = len(seq)
    matchings = all_matchings(p)
    if fix_residue:
        choices = [[color] for color in standard_residue(seq[0], p)]
    else:
        choices = [[[v ^ 1 for v in range(p)]] if fix_color0 else matchings]
    choices += [matchings] * (n - len(choices))
    codes = set()
    for combo in itertools.product(*choices):
        graph = ColoredGraph(n, p, tuple(tuple(m) for m in combo))
        se = semi_equivelar_type(graph)
        if se != tuple(seq):
            continue
        if not is_connected(graph):
            continue
        if orientable is not None and is_bipartite(graph) != orientable:
            continue
        if require_3manifold and not check_3manifold(graph).holds:
            continue
        if require_residues_sphere and not check_residues_sphere(graph).holds:
            continue
        codes.add(canonical_code(graph))
    return codes


# ---------------------------------------------------------------------------
# Exact linear algebra oracles
# ---------------------------------------------------------------------------


def sparse_rows(dense) -> list[dict[int, int]]:
    """A dense integer matrix as the ``{column: entry}`` rows SNF reads."""
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def dense_rows(rows, ncols: int) -> list[list[int]]:
    """Sparse ``{column: entry}`` rows as a dense matrix with ncols columns."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def det_bareiss(matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def rank_over_rationals(matrix) -> int:
    """Row-reduction rank with exact fractions (independent of the SNF path)."""
    a = [[Fraction(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    col = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def minor_gcd_invariant_factors(matrix) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors (independent SNF oracle)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    gcds = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = math.gcd(g, det_bareiss(sub))
        if g == 0:
            break
        gcds.append(g)
    return tuple(gcds[k] // gcds[k - 1] for k in range(1, len(gcds)))


# ---------------------------------------------------------------------------
# The cell complex, built independently
# ---------------------------------------------------------------------------


def reference_boundaries(graph: ColoredGraph) -> tuple[list[int], list[list[list[int]]]]:
    """The cell counts per dimension and the boundaries d1 .. dd of the
    graph's cell complex, as dense matrices with one row per (k-1)-cell and
    one column per k-cell, built without the library's residue table or
    boundary code.  A k-cell is labeled by k + 1 colors B and is a component
    of the residue on the other colors, found by its own depth-first walk;
    its facet without the label B[i] is the (k-1)-cell labeled B less B[i]
    that contains its vertices, with sign (-1)^i."""
    n, p = graph.color_count, graph.vertex_count
    layers = []  # per dimension, the (labels, vertex set) of each cell
    for size in range(1, n + 1):
        layer = []
        for labels in itertools.combinations(range(n), size):
            rows = [graph.pairings[c] for c in range(n) if c not in labels]
            seen: set[int] = set()
            for v in range(p):
                if v in seen:
                    continue
                cell, stack = {v}, [v]
                while stack:
                    x = stack.pop()
                    for y in (row[x] for row in rows):
                        if y not in cell:
                            cell.add(y)
                            stack.append(y)
                seen |= cell
                layer.append((labels, cell))
        layers.append(layer)
    boundaries = []
    for low, high in zip(layers, layers[1:]):
        where = {(labels, v): r for r, (labels, cell) in enumerate(low) for v in cell}
        mat = [[0] * len(high) for _ in low]
        for j, (labels, cell) in enumerate(high):
            v = min(cell)
            for i in range(len(labels)):
                mat[where[labels[:i] + labels[i + 1:], v]][j] += (-1) ** i
        boundaries.append(mat)
    return [len(layer) for layer in layers], boundaries


def free_profile(*betti: int) -> HomologyProfile:
    """Profile with the given Betti numbers and no torsion."""
    return HomologyProfile(tuple((b, ()) for b in betti))


def sphere_profile(dim: int) -> HomologyProfile:
    betti = [1] + [0] * (dim - 1) + [1]
    return free_profile(*betti)


def reference_homology(graph: ColoredGraph, invariant_factors) -> HomologyProfile:
    """The homology of :func:`reference_boundaries`, read off the nonzero
    invariant factors that ``invariant_factors`` gives each dense boundary."""
    counts, boundaries = reference_boundaries(graph)
    return chain_homology(counts, [invariant_factors(mat) for mat in boundaries])


def cell_chi(cells) -> int:
    """The Euler characteristic of a complex from its cells per dimension."""
    return sum((-1) ** k * len(layer) for k, layer in enumerate(cells))


def chain_homology(counts, factors) -> HomologyProfile:
    """The homology of a chain complex with ``counts`` cells per dimension
    whose boundaries d1 .. dd have the nonzero invariant factors ``factors``."""
    factors = [()] + [tuple(f) for f in factors] + [()]
    return HomologyProfile(tuple(
        (counts[k] - len(factors[k]) - len(factors[k + 1]),
         tuple(f for f in factors[k + 1] if f > 1))
        for k in range(len(counts))
    ))


# ---------------------------------------------------------------------------
# Brute-force isomorphism
# ---------------------------------------------------------------------------


def brute_force_isomorphic(g1: ColoredGraph, g2: ColoredGraph) -> bool:
    """Color-preserving isomorphism test by trying every vertex relabeling."""
    if (g1.color_count, g1.vertex_count) != (g2.color_count, g2.vertex_count):
        return False
    p = g1.vertex_count
    for perm in itertools.permutations(range(p)):
        if all(
            perm[g1.pairings[c][v]] == g2.pairings[c][perm[v]]
            for c in g1.colors
            for v in range(p)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Exhaustive canonical code
# ---------------------------------------------------------------------------


def _reference_component_key(pairings, vertices):
    """Lex-least flat labeling of one component over a BFS from every vertex."""
    best = None
    for start in vertices:
        label = {start: 0}
        order = [start]
        for v in order:
            for inv in pairings:
                u = inv[v]
                if u not in label:
                    label[u] = len(order)
                    order.append(u)
        key = tuple(label[inv[v]] for inv in pairings for v in order)
        if best is None or key < best:
            best = key
    return best


def reference_canonical_code(graph: ColoredGraph) -> str:
    """``canonical_code`` by brute force: every start, every key built in full."""
    p = graph.vertex_count
    keys = sorted(
        (len(c),) + _reference_component_key(graph.pairings, c)
        for c in connected_components(graph)
    )
    involutions = [[-1] * p for _ in graph.colors]
    offset = 0
    for key in keys:
        size, flat = key[0], key[1:]
        for c, row in enumerate(involutions):
            for i in range(size):
                row[offset + i] = offset + flat[c * size + i]
        offset += size
    body = ";".join(",".join(map(str, row)) for row in involutions)
    return f"{graph.color_count}:{p}:{body}"


# ---------------------------------------------------------------------------
# Residue spheres, one copy per component
# ---------------------------------------------------------------------------


def reference_residues_sphere(graph: ColoredGraph) -> tuple[tuple, ...]:
    """The verdicts of ``check_residues_sphere`` by copying each 4-colored
    residue component and running ``check_3manifold`` and the full homology
    on the copy: ``(color, component_index, vertex_count, criterion_holds,
    homology_ok)`` per component."""
    verdicts = []
    for dropped in range(5):
        kept = [c for c in range(5) if c != dropped]
        for idx, comp in enumerate(residue_components(graph, kept)):
            sub = residue_subgraph(graph, kept, comp)
            criterion = check_3manifold(sub).holds
            homology_ok = criterion and graph_homology(sub) == sphere_profile(3)
            verdicts.append((dropped, idx, sub.vertex_count, criterion, homology_ok))
    return tuple(verdicts)


def one_boundary_spheres(graph: ColoredGraph) -> tuple[bool, ...]:
    """``complexes.homology_spheres`` on every component of a 4-colored gem
    whose four triple counts hold: the library's one-boundary verdicts,
    one per component in the order of ``connected_components``, that it
    has the integer homology of S^3."""
    colors = (0, 1, 2, 3)
    return tuple(homology_spheres(graph, colors, graph.residues.components(colors)))


def counting_relation_holds(seq: tuple[int, ...], chi: int, p: int) -> bool:
    total = 1 - Fraction(len(seq), 2) + sum(Fraction(1, q) for q in seq)
    return total == Fraction(chi, p)


def reference_defects(
    color_count: int,
    vertex_count: int,
    pairings: Mapping[int, PairList] | Sequence[PairList],
) -> list[GraphDefect]:
    """Every violation in raw pairing data, in the order the library reports
    them: a dict of seen vertices per color, then a scan of every vertex for
    unpaired ones."""
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

    for c in inside:
        pairs = pairings[c]
        seen: dict[int, int] = {}
        for a, b in pairs:
            for v in (a, b):
                if not 0 <= v < vertex_count:
                    defects.append(
                        GraphDefect(
                            NOT_A_MATCHING,
                            color=c,
                            vertex=v,
                            detail=f"vertex id outside 0..{vertex_count - 1}",
                        )
                    )
            if a == b:
                defects.append(GraphDefect(LOOP_EDGE, color=c, vertex=a))
                continue
            for v in (a, b):
                if 0 <= v < vertex_count:
                    if v in seen:
                        defects.append(
                            GraphDefect(
                                NOT_A_MATCHING,
                                color=c,
                                vertex=v,
                                detail="vertex paired more than once",
                            )
                        )
                    else:
                        seen[v] = 1
        if 2 * len(pairs) != vertex_count:
            # one defect, not one per unpaired vertex: a short header can
            # declare far more vertices than the input pairs
            defects.append(
                GraphDefect(
                    NOT_A_MATCHING,
                    color=c,
                    detail=f"{len(pairs)} pairs cannot match {vertex_count} vertices",
                )
            )
            continue
        for v in range(vertex_count):
            if v not in seen:
                defects.append(
                    GraphDefect(
                        NOT_A_MATCHING, color=c, vertex=v, detail="vertex left unpaired"
                    )
                )
    return defects
