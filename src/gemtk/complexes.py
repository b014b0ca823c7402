"""The simplicial cell complex of a colored graph and its integer homology.

Every vertex of the graph carries a d-simplex whose vertices are labeled by
the colors; an edge of color j glues the facets opposite the j-labeled
simplex vertices.  The cells labeled by a color subset B then correspond to
the connected components of the residue on the complementary colors, and the
boundary maps follow the label order, so the chain complex is exact integer
linear algebra.  Each boundary is a list of sparse rows, one dict of nonzero
entries per (k-1)-cell, so memory grows with the nonzeros.

:func:`graph_homology` builds only d2 .. d(d-1).  d1 and dd are incidence
matrices of signed graphs, so for k components, of which ``odd`` hold an
odd cycle, rank d1 = c0 - k with no torsion, and dd has p - k invariant
factors 1 and a factor 2 per odd component.  Before each Smith normal form
the rows of d2 on a spanning forest of the 1-skeleton and the columns of
d(d-1) on a spanning forest of the graph are left out: d1 d2 = 0 and
d(d-1) dd = 0 make each a unimodular combination of the lines that remain
(Kaczynski, Mrozek & Slusarek, Comput. Math. Appl. 35, 1998), so the
invariant factors stay the same.  The Smith normal form mostly pivots on
+-1 entries, and the few rows left, which hold all torsion, on entries of
least absolute value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .embeddings import SurfaceDescriptor, embedding_report
from .graphs import ColoredGraph, ResidueTable, odd_components, spanning_forest

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


# ---------------------------------------------------------------------------
# Cell complex
# ---------------------------------------------------------------------------


def _rest(colors: tuple[int, ...], subset: tuple[int, ...]) -> tuple[int, ...]:
    """The colors not in ``subset``: the residue of a cell from its labels,
    and the labels from the residue."""
    return tuple(c for c in colors if c not in subset)


def _numbering(
    table: ResidueTable, rests: Iterable[tuple[int, ...]]
) -> tuple[dict[tuple[int, ...], int], int]:
    """Where the components of each residue start when they are numbered on
    from residue to residue, keyed by the residue's colors, and how many
    there are."""
    starts = {}
    count = 0
    for rest in rests:
        starts[rest] = count
        count += len(table.components(rest))
    return starts, count


def _layer(
    table: ResidueTable, colors: tuple[int, ...], size: int
) -> tuple[dict[tuple[int, ...], int], int]:
    """The cells whose labels have ``size`` colors, in label order, as
    :func:`_numbering` gives them: keyed by the colors not in the labels."""
    sets = itertools.combinations(colors, size)
    return _numbering(table, (_rest(colors, labels) for labels in sets))


def _boundary(
    table: ResidueTable,
    colors: tuple[int, ...],
    low: dict[tuple[int, ...], int],
    high: dict[tuple[int, ...], int],
    height: int,
    skip: Callable[..., bool] | None = None,
) -> Matrix:
    """The boundary from the cells of the layer ``high`` to the ``height``
    cells of the layer ``low`` below it, both as :func:`_layer` gives them.
    A column whose cell's vertices ``skip`` accepts is left out."""
    mat: Matrix = [{} for _ in range(height)]
    for rest, start in high.items():
        # the facet without the label a is the residue on rest + a, so each
        # facet has its own residue and no entry is set twice
        facets = [
            (low[sub], table.index(sub), (-1) ** pos)
            for pos, sub in enumerate(tuple(sorted(rest + (a,))) for a in _rest(colors, rest))
        ]
        for col, comp in enumerate(table.components(rest), start):
            if skip is None or not skip(*comp):
                for base, lookup, sign in facets:
                    mat[base + lookup[comp[0]]][col] = sign
    return mat


def build_complex(
    graph: ColoredGraph,
) -> tuple[tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...], tuple[Matrix, ...]]:
    """Cells and boundary matrices of the induced simplicial cell complex.

    ``cells[k]`` holds one ``(labels, vertices)`` pair per k-cell, in the
    order of the rows and columns of the boundaries: ``labels`` is the
    sorted color subset B, |B| = k + 1, and ``vertices`` the sorted vertices
    of the component of the residue on the other colors that the cell names.
    ``boundaries[k]`` maps k-chains to (k-1)-chains, one sparse row
    ``{k-cell: entry}`` per (k-1)-cell; ``boundaries[0]`` is the zero map.
    """
    colors = tuple(graph.colors)
    n = graph.color_count
    table = graph.residues
    layers = [_layer(table, colors, size) for size in range(1, n + 1)]
    cells = tuple(
        tuple(
            (_rest(colors, rest), tuple(sorted(comp)))
            for rest in starts
            for comp in table.components(rest)
        )
        for starts, _ in layers
    )
    boundaries: list[Matrix] = [[]]  # dimension 0 maps to zero
    for k in range(1, n):
        (low, height), (high, _) = layers[k - 1], layers[k]
        boundaries.append(_boundary(table, colors, low, high, height))
    return cells, tuple(boundaries)


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


def _skeleton_forest(
    table: ResidueTable,
    colors: tuple[int, ...],
    zero: dict[tuple[int, ...], int],
    count: int,
    one: dict[tuple[int, ...], int],
) -> Iterator[bool]:
    """For each 1-cell, in the order of ``one``, whether it is an edge of a
    spanning forest of the 1-skeleton.  Cells are keyed here by the colors
    of their residue: a 1-cell on the colors R joins the 0-cells on R + a
    and R + b that contain it, a and b being the other two colors.  ``zero``
    and ``one`` say where the cells of each residue start in layers 0 (of
    ``count`` cells) and 1."""
    joins = spanning_forest(count)
    for rest in one:
        (sa, ia), (sb, ib) = [
            (zero[t], table.index(t))
            for t in (tuple(sorted(rest + (c,))) for c in colors if c not in rest)
        ]
        for comp in table.components(rest):
            v = comp[0]
            yield joins(sa + ia[v], sb + ib[v])


def graph_homology(graph: ColoredGraph) -> HomologyProfile:
    """Integer homology of the induced complex, with a Smith normal form of
    each middle boundary only, reduced along two spanning forests (see the
    module docstring)."""
    colors = tuple(graph.colors)
    d, p = graph.color_count - 1, graph.vertex_count
    table = graph.residues
    flags = list(odd_components(graph))
    k, odd = len(flags), sum(flags)
    layers = [_layer(table, colors, size) for size in range(1, d + 1)]
    sizes = [count for _, count in layers] + [p]
    ranks = [0] * (d + 2)
    torsions: list[tuple[int, ...]] = [()] * (d + 1)
    ranks[1] = sizes[0] - k
    # for d = 1 the same rank: a 2-colored graph has no odd cycle
    ranks[d], torsions[d - 1] = p - k + odd, (2,) * odd
    for j in range(2, d):
        skip = spanning_forest(p) if j == d - 1 else None  # the columns of edges
        mat = _boundary(table, colors, layers[j - 1][0], layers[j][0], sizes[j - 1], skip)
        if j == 2:
            tree = _skeleton_forest(table, colors, *layers[0], layers[1][0])
            mat = [row for row, t in zip(mat, tree) if not t]
        factors = smith_normal_form(mat)
        ranks[j] = len(factors)
        torsions[j - 1] = tuple(f for f in factors if f > 1)
    return HomologyProfile(
        tuple((sizes[j] - ranks[j] - ranks[j + 1], torsions[j]) for j in range(d + 1))
    )


def homology_spheres(
    graph: ColoredGraph, colors: tuple[int, ...], comps: Sequence[Sequence[int]]
) -> Iterator[bool]:
    """Whether each of the given components of the residue on four
    ``colors`` has the integer homology of S^3, one verdict per component.

    Every triple count of ``colors`` must hold on each component, so it is
    a closed 3-manifold gem: chi = 0, and its q vertices (3-cells) and 2q
    edges (2-cells) give c1 = c0 + q.  It is connected, so rank d1 = c0 - 1
    and b1 = q + 1 - rank d2 >= 0.  H1 = 0 forces orientability (a
    non-orientable closed 3-manifold has b3 = 0, so b1 = 1 + b2 >= 1),
    hence H3 = Z and, by Poincare duality, H2 = Hom(H1, Z) = 0.  So only d2
    is built, once for all the components, block-diagonal by component.
    Without its rows on a spanning forest of the 1-skeleton (c0 - 1 per
    component) and its columns on a spanning forest of the components
    (q - 1 each), a component's block is (q + 1) x (q + 1) with the same
    invariant factors, so the component has H1 = 0 exactly when its block
    has q + 1 invariant factors, all 1.  Blocks are reduced on demand.
    """
    table = graph.residues
    p = graph.vertex_count
    zero, count = _numbering(table, itertools.combinations(colors, 3))
    one, height = _numbering(table, itertools.combinations(colors, 2))
    d2: Matrix = [{} for _ in range(height)]
    block = [0] * height  # the position in comps of each row's component
    joins = spanning_forest(p)
    for d in colors:
        inv = graph.pairings[d]
        # the facet without label b is the {b, d}-cycle through the edge
        faces = [
            (one[pair], table.index(pair), (-1) ** pos)
            for pos, pair in enumerate(tuple(sorted((b, d))) for b in colors if b != d)
        ]
        for i, comp in enumerate(comps):
            for v in comp:
                u = inv[v]
                if v < u and not joins(v, u):
                    for base, cycle, sign in faces:
                        r = base + cycle[v]
                        block[r] = i
                        d2[r][d * p + v] = sign
    # a cycle keeps an edge off the forest, so only rows outside comps are empty
    blocks: list[Matrix] = [[] for _ in comps]
    tree = _skeleton_forest(table, colors, zero, count, one)
    for row, i, t in zip(d2, block, tree):
        if row and not t:
            blocks[i].append(row)
    for comp, rows in zip(comps, blocks):
        yield smith_normal_form(rows) == (1,) * (len(comp) + 1)


# ---------------------------------------------------------------------------
# Manifold criteria
# ---------------------------------------------------------------------------


def check_surface(graph: ColoredGraph) -> SurfaceDescriptor:
    """The surface a connected 3-colored graph encodes (always succeeds)."""
    if graph.color_count != 3:
        raise ValueError("surface check needs exactly 3 colors")
    return embedding_report(graph).surface()


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

    A component's criterion is :func:`check_3manifold` on its own counts;
    those that pass share one :func:`homology_spheres` call per residue,
    and those that fail get no Smith normal form."""
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
        criteria = [
            all(
                sum(g[pair][idx] for pair in itertools.combinations(t, 2))
                == 2 * g[t][idx] + len(comp) // 2
                for t in triples
            )
            for idx, comp in enumerate(comps)
        ]
        spheres = homology_spheres(graph, kept, [c for c, ok in zip(comps, criteria) if ok])
        for idx, (comp, criterion) in enumerate(zip(comps, criteria)):
            homology_ok = criterion and next(spheres)
            verdicts.append(ResidueVerdict(dropped, idx, len(comp), criterion, homology_ok))
    return ResidueSphereReport(all(v.ok for v in verdicts), tuple(verdicts))
