"""The simplicial cell complex of a colored graph and its integer homology.

Every vertex of the graph carries a d-simplex whose vertices are labeled by
the colors; an edge of color j glues the facets opposite the j-labeled
simplex vertices.  The cells labeled by a color subset B then correspond to
the connected components of the residue on the complementary colors, and the
boundary maps follow the label order, so the chain complex is exact integer
linear algebra.  Each boundary is a list of sparse rows, one dict of nonzero
entries per (k-1)-cell, so memory grows with the nonzeros.  Each column of
d1 and row of dd has two entries +-1, so :func:`incidence_factors` reads
their invariant factors off a signed graph; Smith normal form, for d2 ..
d(d-1), mostly pivots on +-1 entries, and the few rows left, which hold all
torsion, on entries of least absolute value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .embeddings import embedding_report
from .graphs import ColoredGraph

Matrix = list[dict[int, int]]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(matrix: Sequence[Mapping[int, int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of a matrix in {column: entry} rows.

    Copies of each row's nonzero entries sit in a dict and the rows of each
    column in a set; the argument is not modified.  Sweeps first visit the
    columns in order of fewest nonzeros and pivot on the shortest row with a
    +-1 entry there, until no +-1 entry is left.  Then each pivot is an
    entry d of least absolute value.  Either way, row operations reduce the
    pivot's column; once it is zero off the pivot row, column operations
    change only that row and reduce it.  If d divides every entry left, |d|
    is emitted and the pivot's row and column drop out; if not, a row with
    an entry that d does not divide is first added to the pivot row.  Each
    pivot choice thus emits a factor or leaves a nonzero entry smaller than
    |d|, so the loop ends, and no factor 1 follows a larger one, since d
    divides every later entry.  Python integers keep all values exact.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(matrix):
        entries = {j: int(v) for j, v in row.items() if v}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)

    factors: list[int] = []
    swept = True
    while swept:
        swept = False
        for c in sorted(cols, key=lambda j: len(cols[j])):
            pivot = None
            for i in cols[c]:
                if rows[i][c] in (1, -1) and (
                    pivot is None or len(rows[i]) < len(rows[pivot])
                ):
                    pivot = i
            if pivot is None:
                continue
            prow = rows.pop(pivot)
            for i in [i for i in cols[c] if i != pivot]:
                _add_row(rows, cols, i, prow, -rows[i][c] * prow[c])
            for j in prow:
                cols[j].discard(pivot)
            del cols[c]
            factors.append(1)
            swept = True

    while rows:
        _, r, c = min((abs(v), i, j) for i, row in rows.items() for j, v in row.items())
        prow = rows[r]
        d = prow[c]
        for i in [i for i in cols[c] if i != r]:
            _add_row(rows, cols, i, prow, -(rows[i][c] // d))
        if len(cols[c]) > 1:
            continue  # a remainder smaller than |d| is left in the column
        if not any(v % d for v in prow.values()):
            offender = next(
                (row for row in rows.values() if any(v % d for v in row.values())),
                None,
            )
            if offender is None:
                del rows[r]
                for j in prow:
                    cols[j].discard(r)
                del cols[c]
                factors.append(abs(d))
                continue
            _add_row(rows, cols, r, offender, 1)
        for j, v in prow.items():
            if v % d:
                prow[j] = v % d  # column j minus a multiple of column c
    return tuple(factors)


def _add_row(
    rows: dict[int, dict[int, int]],
    cols: dict[int, set[int]],
    i: int,
    src: dict[int, int],
    f: int,
) -> None:
    """Add f times the row ``src`` to row i, keeping the column index current."""
    row = rows[i]
    for j, v in src.items():
        w = row.get(j, 0) + f * v
        if w:
            if j not in row:
                cols[j].add(i)
            row[j] = w
        else:
            del row[j]
            cols[j].discard(i)
    if not row:
        del rows[i]


def incidence_factors(lines: Iterable[Mapping[int, int]]) -> tuple[int, ...]:
    """Invariant factors of a matrix given by its lines (rows, or columns:
    the transpose has the same factors), each with exactly two entries +-1.

    They are the edges of a signed graph.  Negating a node's entries is
    unimodular, and so makes every edge of a spanning tree (+1, -1); on a
    component of q nodes the tree then spans the vectors of sum 0, with
    q - 1 factors 1.  Another edge is outside that span only if its cycle
    holds an odd number of same-sign edges (negation keeps the parity);
    then it is +-(1, 1) and the span grows to the vectors of even sum: one
    factor 2.  The union-find keeps each node's negation relative to its
    parent and hangs the smaller tree under the larger: O(log n) finds.
    """
    parent: dict[int, int] = {}
    flip: dict[int, bool] = {}  # a node's negation relative to its parent
    size: dict[int, int] = {}
    odd: set[int] = set()  # roots, now or once, of components with an odd cycle
    for line in lines:
        if len(line) != 2 or any(v not in (1, -1) for v in line.values()):
            raise ValueError(f"line {dict(line)} does not have two entries +-1")
        rel = len(set(line.values())) == 1  # same signs need opposite negations
        roots = []
        for x in line:
            while parent.setdefault(x, x) != x:
                rel ^= flip[x]
                x = parent[x]
            roots.append(x)
        small, big = sorted(roots, key=lambda r: size.setdefault(r, 1))
        if small == big:
            if rel:
                odd.add(big)
        else:
            parent[small], flip[small] = big, rel
            size[big] += size[small]
            if small in odd:
                odd.add(big)
    roots = {x for x in parent if parent[x] == x}
    return (1,) * (len(parent) - len(roots)) + (2,) * len(odd & roots)


# ---------------------------------------------------------------------------
# Cell complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One cell: the component of the complementary residue it names.

    ``labels`` is the sorted color subset B; the cell has dimension |B| - 1.
    """

    labels: tuple[int, ...]
    index: int
    vertices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.labels) - 1


@dataclass(frozen=True)
class CellComplex:
    """Chain complex data of the cell complex induced by a colored graph.

    ``boundaries[k]`` maps k-chains to (k-1)-chains: one sparse row per
    (k-1)-cell, ``{k-cell: entry}``; ``boundaries[0]`` is the zero map.
    """

    color_count: int
    vertex_count: int
    cells: tuple[tuple[Cell, ...], ...]
    boundaries: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return self.color_count - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(cs) for cs in self.cells)

    @property
    def chi(self) -> int:
        return sum((-1) ** k * len(cs) for k, cs in enumerate(self.cells))


def build_complex(graph: ColoredGraph) -> CellComplex:
    """Cells and boundary matrices of the induced simplicial cell complex."""
    colors = tuple(graph.colors)
    n = graph.color_count
    table = graph.residues
    rest: dict[tuple[int, ...], tuple[int, ...]] = {}  # the colors not in labels

    cells: list[tuple[Cell, ...]] = []
    offsets: dict[tuple[int, ...], int] = {}
    for k in range(n):
        layer: list[Cell] = []
        for labels in itertools.combinations(colors, k + 1):
            rest[labels] = tuple(c for c in colors if c not in labels)
            offsets[labels] = len(layer)
            for idx, comp in enumerate(table.components(rest[labels])):
                layer.append(Cell(labels, idx, comp))
        cells.append(tuple(layer))

    boundaries: list[Matrix] = [[]]  # dimension 0 maps to zero
    for k in range(1, n):
        mat: Matrix = [{} for _ in cells[k - 1]]
        for labels in itertools.combinations(colors, k + 1):
            # each facet has its own label set, so no entry is set twice
            facets = []
            for pos in range(k + 1):
                sub = labels[:pos] + labels[pos + 1 :]
                facets.append((offsets[sub], table.index(rest[sub]), (-1) ** pos))
            for col, comp in enumerate(table.components(rest[labels]), offsets[labels]):
                for base, lookup, sign in facets:
                    mat[base + lookup[comp[0]]][col] = sign
        boundaries.append(mat)
    return CellComplex(n, graph.vertex_count, tuple(cells), tuple(boundaries))


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and torsion coefficients per dimension 0..d."""

    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def betti(self, k: int) -> int:
        return self.groups[k][0]

    def torsion(self, k: int) -> tuple[int, ...]:
        return self.groups[k][1]

    def group_str(self, k: int) -> str:
        betti, torsion = self.groups[k]
        parts = []
        if betti == 1:
            parts.append("Z")
        elif betti > 1:
            parts.append(f"Z^{betti}")
        parts.extend(f"Z/{t}" for t in torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return "(" + ", ".join(self.group_str(k) for k in range(len(self.groups))) + ")"


def free_profile(*betti: int) -> HomologyProfile:
    """Profile with the given Betti numbers and no torsion (test convenience)."""
    return HomologyProfile(tuple((b, ()) for b in betti))


def sphere_profile(dim: int) -> HomologyProfile:
    betti = [1] + [0] * (dim - 1) + [1]
    return free_profile(*betti)


def homology(complex_: CellComplex) -> HomologyProfile:
    """Integer homology from the boundary ranks and invariant factors."""
    d = complex_.dim
    sizes = [len(cs) for cs in complex_.cells]
    ranks = [0] * (d + 2)
    torsions: list[tuple[int, ...]] = [()] * (d + 1)
    for k, mat in enumerate(complex_.boundaries[1:], 1):
        if k == 1:  # a column per 1-cell: its two ends, +1 and -1
            columns: dict[int, dict[int, int]] = {}
            for i, row in enumerate(mat):
                for j, v in row.items():
                    columns.setdefault(j, {})[i] = v
            factors = incidence_factors(columns.values())
        elif k == d:  # a row per edge of color b: (-1)^b at both ends
            factors = incidence_factors(mat)
        else:
            factors = smith_normal_form(mat)
        ranks[k] = len(factors)
        torsions[k - 1] = tuple(f for f in factors if f > 1)
    groups = tuple(
        (sizes[k] - ranks[k] - ranks[k + 1], torsions[k]) for k in range(d + 1)
    )
    return HomologyProfile(groups)


def graph_homology(graph: ColoredGraph) -> HomologyProfile:
    return homology(build_complex(graph))


def homology_spheres(
    graph: ColoredGraph, colors: tuple[int, ...], comps: Sequence[Sequence[int]]
) -> bool:
    """Whether the given k components of the residue on four ``colors``
    all have the integer homology of S^3.

    Every triple count of ``colors`` must hold, so each component is a
    closed 3-manifold gem: chi = 0, and its q vertices (3-cells) and 2q
    edges (2-cells) give c0 = c1 - q.  It is connected, so rank d1 = c0 - 1
    and b1 = q + 1 - rank d2 >= 0.  H1 = 0 forces orientability (a
    non-orientable closed 3-manifold has b3 = 0, so b1 = 1 + b2 >= 1),
    hence H3 = Z and, by Poincare duality, H2 = Hom(H1, Z) = 0.  So only d2
    is built: its rows are the bicolored cycles, and an edge of color d is
    the 2-cell labeled by the other three colors.  It is block-diagonal by
    component: the rank adds over the blocks, each of rank at most q + 1,
    and the cokernel is the sum of theirs.  So every component has H1 = 0
    exactly when d2 has p + k invariant factors, all 1, p being the
    components' total vertex count.
    """
    table = graph.residues
    p = graph.vertex_count
    offset: dict[tuple[int, ...], int] = {}
    rows = 0
    for pair in itertools.combinations(colors, 2):
        offset[pair] = rows
        rows += len(table.components(pair))
    d2: Matrix = [{} for _ in range(rows)]
    for d in colors:
        inv = graph.pairings[d]
        # the facet without label b is the {b, d}-cycle through the edge
        faces = [
            (offset[pair], table.index(pair), (-1) ** pos)
            for pos, pair in enumerate(tuple(sorted((b, d))) for b in colors if b != d)
        ]
        for comp in comps:
            for v in comp:
                if v < inv[v]:
                    for base, cycle, sign in faces:
                        d2[base + cycle[v]][d * p + v] = sign
    factors = smith_normal_form([row for row in d2 if row])
    return len(factors) == sum(map(len, comps)) + len(comps) and factors[-1] == 1


# ---------------------------------------------------------------------------
# Manifold criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceDescriptor:
    orientable: bool
    genus: int  # genus when orientable, crosscap number otherwise

    def __str__(self) -> str:
        kind = "orientable genus" if self.orientable else "non-orientable crosscap"
        return f"{kind} {self.genus}"


def check_surface(graph: ColoredGraph) -> SurfaceDescriptor:
    """The surface a connected 3-colored graph encodes (always succeeds)."""
    if graph.color_count != 3:
        raise ValueError("surface check needs exactly 3 colors")
    report = embedding_report(graph)
    return SurfaceDescriptor(report.orientable, report.genus)


@dataclass(frozen=True)
class TripleCheck:
    triple: tuple[int, int, int]
    pair_total: int
    expected: int
    holds: bool


def triple_checks(
    graph: ColoredGraph, triples: Iterable[tuple[int, int, int]]
) -> Iterator[TripleCheck]:
    """The identity g_ij + g_ik + g_jk = 2*g_ijk + p/2 per triple, counted
    over the whole graph (exact, see :class:`ThreeManifoldReport`), one
    triple at a time."""
    table = graph.residues
    p = graph.vertex_count
    for triple in triples:
        total = sum(len(table.components(pair)) for pair in itertools.combinations(triple, 2))
        expected = 2 * len(table.components(triple)) + p // 2
        yield TripleCheck(triple, total, expected, total == expected)


@dataclass(frozen=True)
class ThreeManifoldReport:
    """Residue counting criterion for 4-colored graphs, per color triple.

    For each triple {i,j,k} the sum g_ij + g_ik + g_jk must equal
    2*g_ijk + p/2; the graph encodes a closed 3-manifold exactly when all
    four triples comply.  A component of the {i,j,k}-residue on q vertices
    is a closed surface of Euler characteristic g_ij + g_ik + g_jk - q/2
    (its own counts), at most 2 and equal to 2 only for the sphere, so the
    totals over the whole graph agree exactly when every component of the
    residue is a 2-sphere, whether the graph is connected or not.
    """

    holds: bool
    checks: tuple[TripleCheck, ...]


def check_3manifold(graph: ColoredGraph) -> ThreeManifoldReport:
    """Evaluate the 3-manifold residue criterion on a 4-colored graph."""
    if graph.color_count != 4:
        raise ValueError("3-manifold check needs exactly 4 colors")
    checks = tuple(triple_checks(graph, itertools.combinations(range(4), 3)))
    return ThreeManifoldReport(all(c.holds for c in checks), checks)


@dataclass(frozen=True)
class ResidueVerdict:
    color: int
    component_index: int
    vertex_count: int
    criterion_holds: bool
    homology_ok: bool

    @property
    def ok(self) -> bool:
        return self.criterion_holds and self.homology_ok


@dataclass(frozen=True)
class ResidueSphereReport:
    """Per 4-colored residue component: 3-manifold criterion + homology check.

    A passing report certifies that every residue component has the residue
    counts and the integer homology of the 3-sphere; this is a necessary
    certificate, not a recognition of the sphere itself.
    """

    holds: bool
    verdicts: tuple[ResidueVerdict, ...]

    def failures(self) -> list[ResidueVerdict]:
        return [v for v in self.verdicts if not v.ok]


def check_residues_sphere(graph: ColoredGraph) -> ResidueSphereReport:
    """Check every 4-colored residue component of a 5-colored graph.

    A component's criterion is :func:`check_3manifold` on its own counts,
    and its homology is decided by :func:`homology_spheres` on it alone."""
    if graph.color_count != 5:
        raise ValueError("residue sphere check needs exactly 5 colors")
    table = graph.residues
    verdicts = []
    for dropped in range(5):
        kept = tuple(c for c in range(5) if c != dropped)
        comps, index = table.components(kept), table.index(kept)
        triples = list(itertools.combinations(kept, 3))
        g = {}  # each pair's and triple's component count per component
        for s in [*triples, *itertools.combinations(kept, 2)]:
            g[s] = [0] * len(comps)
            for sub in table.components(s):
                g[s][index[sub[0]]] += 1
        for idx, comp in enumerate(comps):
            q = len(comp)
            criterion = all(
                sum(g[pair][idx] for pair in itertools.combinations(t, 2))
                == 2 * g[t][idx] + q // 2
                for t in triples
            )
            homology_ok = criterion and homology_spheres(graph, kept, [comp])
            verdicts.append(ResidueVerdict(dropped, idx, q, criterion, homology_ok))
    return ResidueSphereReport(all(v.ok for v in verdicts), tuple(verdicts))
