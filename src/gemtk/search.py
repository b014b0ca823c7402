"""Backtracking search for colored graphs with a prescribed face-size sequence.

The search fixes the whole {0,1}-residue before backtracking: color 0 is
(0,1)(2,3)... and, in each block of q0 = seq[0] consecutive vertices, color 1
is (1,2)(3,4)...(q0-1,0).  Every isomorphism class has such a representative:
in a graph of the target type the {0,1}-residue is p/q0 disjoint alternating
q0-cycles, and numbering each cycle's vertices along the cycle, starting
with a color-0 edge, relabels it to exactly one such block.  The remaining
colors are assigned in order, one edge at a time, always pairing the least
unpaired vertex v of the current color with a greater partner u, in
increasing order.  The depth-first walk runs on an explicit stack with no
recursion: each entry is a generator for one node, which places the edge
v-u, yields the child node and undoes the edge when resumed.  The nodes
share one ``_Search``, which holds the colors placed so far, the counters
and the last color's prefix, and chooses the spec's manifold filter once.

While a color c is being built, the bi-colored paths of the class {c-1, c}
(and of {d, 0} when c is the last color) are tracked by their ends ``pend``
and vertex counts ``plen``: closing a cycle of the wrong length, or growing a
path beyond the target length, prunes the branch.  A path at v that already
has the target length can only close, so its far end is v's only partner.
Only consecutive color pairs are constrained; the remaining classes are free.

On the last color each edge grows a path in one or both trackers, and the
grown paths' ends are checked at once, before any child node (forward
checking, Haralick & Elliott, Artif. Intell. 14, 1980).  A path that just
became full can only close by the edge joining its ends a, b, so a-b must
pass the other tracker: close a path of the target length there, or join
two paths whose lengths add up to at most the target.  An end whose path in
the other tracker is full has one partner y, that path's far end; a-y must
not close the grown path short of its target, nor make it too long.  A
failure undoes the edge as ``dead_closure``.  This is exact.  Path lengths
only grow and the ends of a full path can pair only with each other, so a
failed check fails in every completion, and only subtrees without a
candidate are cut: the depth-first order, the candidates and the solutions
are those of the search without the check.

Orientable gems (``orientable=True``) are the bipartite graphs, searched
by vertex parity.  Numbering each {0,1}-cycle from a vertex on side 0 of the
bipartition puts every even label on side 0, since the blocks start at
multiples of the even q0; so every bipartite class has a representative in
which each edge joins an even and an odd label, and the search tries only
partners of the other parity.  A tracked path then alternates parity and
has an even number of vertices, so the partner that closes it has the other
parity too.  ``orientable=False`` cuts the bipartite candidates instead.

While color 2 is placed, v tries one partner in the fresh blocks (past v's
block, with no color-2 edge): the first reached.  This is exact.  Fresh
blocks permute freely, and a block's rotations by 2 and its reflection
x -> 1-x (mod q0) preserve colors 0 and 1; under the parity rule the
rotations alone are transitive on each parity class.  So an automorphism g
of everything placed fixes v and maps any fresh partner u to the chosen one,
and g maps the completions under v-u onto those under v-g(u).  Trackers,
filters, connectivity, bipartiteness and prefix keys are invariant under g.
The far end of a full path at v is never in a fresh block, and no block is
fresh once color 2 is complete.  So a block past v's gets its first color-2
edge only as the first fresh block reached, at the vertex reached first:
its first or second, under either parity.  The blocks past v's with a
color-2 edge are one run right after v's block, each paired at its first
or second vertex, and v's partners end at the first vertex reached past it.

Once colors 0..c-1 are complete, with 3 <= c < n, and their filter parts
pass, a prefix isomorphic to one met before is skipped (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998), by its key:
the sorted lex-least labelings of its components, the walk of the canonical
code (``_Components``).  This is exact.  The fresh-block rule acts only on
color 2, so from color 3 on every matching that the trackers and the parity
rule allow is enumerated.  Trackers, filter parts, connectivity and
bipartiteness are invariant under color-preserving isomorphism, so the
completions of an isomorphic prefix are the images of the first prefix's
completions, which were all met before it.  Under the parity rule the images
must also be even-odd, which a plain code cannot tell: on a disconnected
prefix an isomorphism may keep parity on one component and swap it on
another (two chiral components glued with the same or the opposite
handedness).  So there the key marks parity: per component the least
labelings from an even and from an odd start, and of the sorted (even, odd)
and (odd, even) pairs the lesser.  Equal keys give an isomorphism that keeps
or swaps parity everywhere, and an isomorphism of two connected even-odd
candidates does so on their prefixes: completions of prefixes with different
keys are never isomorphic.

The last color n-1 is deduplicated by the orbit test of orderly
generation (Read, "Every one a winner", Ann. Discrete Math. 2, 1978) below
the prefix P of colors 0..n-2, run edge by edge (``_Components.lowers``).
A candidate, the involution M of the last color, is a duplicate when
g.M < M lexicographically for some g in Aut(P), where (g.M)[g(v)] = g(M[v]).
Two completions of one prefix are isomorphic exactly when some g in Aut(P)
carries one to the other.

This is exact, below connected and disconnected prefixes alike.  The walk
follows partial automorphisms, fixed on some components of P.  The
components left of each type still match one to one, so each extends to a
whole automorphism, and entries that are set never change below the edge:
when a partial map lowers m at a set position, every completion of m is
lowered.  A partial map is dropped only where no extension lowers a
completion, so on a complete M, which leaves nothing unset, the walk is a
whole backtrack over Aut(P), and an edge is cut only when every candidate
below it is a duplicate.  Under the parity rule only even-odd images count.
A component map keeps the parity flag g(x) - x mod 2 on its whole
component, so on a connected candidate g.M is even-odd exactly when all
flags agree, and a partial map keeps its root's flag.  One of flag 0 always
extends, and one of flag 1 exactly when P has a parity-swapping
automorphism: its two sorted lists of marks are equal, as on every
{0,1}-residue (rotations by 2, reflections x -> 1-x).

Explored prefixes are pairwise non-isomorphic (under the parity rule, by
maps that keep or swap parity everywhere): for n >= 4 by the prefix rule,
and for n = 3 P is the fixed {0,1}-residue.  The trackers are invariant
under Aut(P), and on the last color the depth-first order is the
lexicographic order of M.  For n >= 4 every matching that the trackers and
the parity rule allow is enumerated below P.  For n = 3 the fresh-block rule
skips only matchings M with an image g.M < M: g permutes and rotates fresh
blocks (by even steps under the parity rule) and fixes the rest, so it fixes
every vertex below v and the partner of each, and maps the skipped partner
of v to the smaller one tried.  So the least member of each class is
enumerated and never cut, and every later connected member is cut, at the
latest by the edge that completes it: each candidate met is the first of
its class, and no candidate gets a canonical code.  The walk starts after
P's first candidate, the least in its class, so a first hit builds no map.
Below a disconnected P a last-color edge v-u is cut where it closes a class,
the components that m joins to v's, all vertices paired, short of all of P
(``_Components.strands``).  A class closes at the edge that pairs its last
unpaired vertex, v or u, and then joins nothing more: no completion below
is connected.  On the way to a disconnected candidate the first class to
close misses a component, so every candidate met is connected; ``lowers``
decides from m and Aut(P) alone, so the solutions and their order are those
of the search without the cut.  The filter's last part and the
orientability cut, both isomorphism-invariant, run on the candidate.

Both manifold filters run one rule, split into parts by the highest color
involved.  The part that color k-1 completes is decided once, on the view
of colors 0..k-1, as soon as they are complete: the triples {i, j, k-1} by
whole-graph counts (``complexes.triple_checks``) and, for the residue-sphere
filter, the 3-sphere homology of every component of each 4-colored residue
that contains k-1.  Every {i,j,l}-component lies inside one component of
each 4-colored residue that contains the triple, so by the Euler argument
of ``complexes.ThreeManifoldReport`` the whole-graph counts of all triples
hold exactly when the 3-manifold criterion holds on every residue
component.  Residue counts and components depend only on their own colors,
so a part has the same verdict on the prefix as on every complete graph
below it, and over k = 3..d+1 the parts split the triples and residues by
their highest color and together are exactly the public check: a failure
prunes the whole subtree and nothing passes that the check rejects, so the
depth-first order and the solutions are those of the unsplit search.  The
last part runs on the complete candidate, before the orientability cut.
A residue is tested only once its four triples hold, so its components
are closed 3-manifold gems, and chi = 0 lets one boundary decide them all
(``complexes.homology_spheres``): d2 is built block-diagonal by component,
and a component on q vertices has H1 = 0, which forces H2 = 0 and H3 = Z,
exactly when its block has q + 1 invariant factors, all 1.  The verdict
depends only on the component as a 4-colored graph, so each search keeps
the verdict of every component it decided, by a key: each vertex's
neighbors over the residue's colors, in ascending order, numbered by the
residue table's listing of the component.  Equal keys make the map
between two listings an isomorphism that sends the i-th color of one
residue to the i-th of the other, in any vertex order, so a lookup is
exact whatever the colors' names.  A component known to fail ends the
part at once; the components with unseen keys get one d2 per residue,
whose blocks are reduced one at a time until the first that fails.  The
verdicts live as long as the search.  The residue table of each view
(``ColoredGraph.residues``) walks each residue the part reads once.
Emitted solutions alone are re-verified through the public validation,
face tracing, bipartiteness and the filter's whole check, which reads the
candidate's table that the last part filled; the search state guarantees
all of them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Sequence

from .complexes import (
    check_3manifold,
    check_residues_sphere,
    homology_spheres,
    triple_checks,
)
from .embeddings import semi_equivelar_type
from .graphs import (
    ColoredGraph,
    _component_key,
    connected_components,
    is_bipartite,
    validate,
)


class InfeasibleSpecError(ValueError):
    """The spec admits no graph at all (bad sizes, parity, divisibility)."""


@dataclass(frozen=True)
class SearchSpec:
    """Target face-size sequence (aligned to the color order 0,1,...,d),
    vertex count, filters and limits for one search run."""

    seq: tuple[int, ...]
    vertex_count: int
    orientable: bool | None = None  # True: bipartite only, False: non-bipartite only
    require_3manifold: bool = False
    require_residues_sphere: bool = False
    max_solutions: int | None = None
    budget_seconds: float | None = None

    @property
    def color_count(self) -> int:
        return len(self.seq)


@dataclass
class SearchStats:
    """Work done by one search.  ``prunes`` counts each cut by its reason,
    non-zero keys only:

    - ``wrong_cycle_length``, ``path_too_long``: an edge whose bicolored
      path closes at the wrong length or grows too long; the edge is
      never placed.
    - ``dead_closure``: an edge of the last color after which a forced
      edge, the only partner left to an end of a full path, would close a
      path at the wrong length or grow one too long; the edge is undone
      before any child node.
    - ``criterion_3manifold``, ``criterion_residues``: a failing filter
      part, on a prefix of complete colors or on a complete candidate.
    - ``duplicate_prefix``: a prefix of complete colors isomorphic to one
      met before.
    - ``not_connected``: a last-color edge that closes a class of the
      prefix's components short of all; ``orientable``: a bipartite
      candidate under ``orientable=False`` (one per class).
    - ``duplicate``: a last-color edge all of whose completions repeat a
      class, below a connected or a disconnected prefix.
    """

    nodes: int = 0
    prunes: dict[str, int] = field(default_factory=dict)
    candidates: int = 0  # complete assignments before filtering
    elapsed_seconds: float = 0.0
    exhausted: bool = False


@dataclass
class SearchOutcome:
    solutions: list[ColoredGraph]
    stats: SearchStats


def _view(inv: list[list[int]], k: int) -> ColoredGraph:
    """Colors 0..k-1 of the search state as a graph."""
    return ColoredGraph(k, len(inv[0]), tuple(tuple(row) for row in inv[:k]))


def _new_part(prefix: ColoredGraph, spheres: dict | None) -> bool:
    """Colors 0..k-1 complete: does every triple {i, j, k-1} satisfy the
    3-manifold criterion over the whole graph and, with a verdict dict
    ``spheres``, every component of each 4-colored residue that contains k-1
    have the integer homology of the 3-sphere?  ``spheres`` maps the key of
    each component decided before, its adjacency in the table's order, to
    its verdict; only components with unseen keys go to ``homology_spheres``."""
    new = prefix.color_count - 1
    triples = [(i, j, new) for i, j in itertools.combinations(range(new), 2)]
    if not all(t.holds for t in triple_checks(prefix, triples)):
        return False
    if spheres is None:
        return True
    table = prefix.residues
    for kept in itertools.combinations(range(new), 3):
        r = kept + (new,)
        rows = [prefix.pairings[c] for c in r]
        fresh = {}
        for comp in table.components(r):
            at = {v: i for i, v in enumerate(comp)}
            key = tuple([at[row[v]] for v in comp for row in rows])
            holds = spheres.get(key)
            if holds is False:
                return False
            if holds is None:
                fresh[key] = comp
        for key, holds in zip(fresh, homology_spheres(prefix, r, list(fresh.values()))):
            spheres[key] = holds
            if not holds:
                return False
    return True


# n involutions of p entries: this many run a search's first 1,024 nodes in 128 MB
# of address space (3 colors under the parity rule fail first, at 1.6 times it)
_MAX_STATE_ENTRIES = 500_000


def check_spec(spec: SearchSpec) -> None:
    """Reject specs that cannot have solutions, before any search work."""
    for x in (*spec.seq, spec.vertex_count):
        if not isinstance(x, int):
            raise InfeasibleSpecError(f"{x!r:.40} is not an integer face size or vertex count")
    problems = []
    n = spec.color_count
    p = spec.vertex_count
    if n * p > _MAX_STATE_ENTRIES:
        problems.append(f"{n} colors x {p:,} vertices exceed {_MAX_STATE_ENTRIES:,} state entries")
    if n < 3:
        problems.append(f"need at least 3 colors, got {n}")
    if p < 4 or p % 2:
        problems.append(f"vertex count must be even and >= 4, got {p}")
    for t in spec.seq:
        if t % 2 or t < 4:
            problems.append(f"face size {t} must be even and >= 4")
        elif t > p:
            problems.append(f"face size {t} exceeds the vertex count {p}")
        elif p % t:
            problems.append(
                f"face size {t} does not divide {p}; its cycles cannot partition the vertices"
            )
    if spec.require_3manifold and n != 4:
        problems.append("require_3manifold needs exactly 4 colors")
    if spec.require_residues_sphere and n != 5:
        problems.append("require_residues_sphere needs exactly 5 colors")
    if spec.orientable is not None and not isinstance(spec.orientable, bool):
        problems.append(f"orientable must be True, False or None, got {spec.orientable!r}")
    if spec.max_solutions is not None and spec.max_solutions < 1:
        problems.append(f"solution limit must be >= 1, got {spec.max_solutions}")
    if not (spec.budget_seconds is None or spec.budget_seconds >= 0):
        problems.append(f"time budget must be >= 0 seconds, got {spec.budget_seconds}")
    if problems:
        raise InfeasibleSpecError("; ".join(problems))


class _Stop(Exception):
    """Ends the search early: enough solutions, or the budget ran out."""


def search_gems(spec: SearchSpec) -> SearchOutcome:
    """Run the search: one solution per isomorphism class.

    ``max_solutions`` counts solutions that pass every filter; the run is
    flagged exhausted only when the whole space was explored.
    """
    check_spec(spec)
    search = _Search(spec)
    stats = search.stats
    start = time.monotonic()
    stats.exhausted = True
    try:
        stack = [search.descend(1, spec.vertex_count, [])]  # colors 0 and 1 are fixed
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(child)
    except _Stop:
        stats.exhausted = False
    stats.elapsed_seconds = time.monotonic() - start
    stats.prunes = {k: v for k, v in search.prunes.items() if v}
    return SearchOutcome(search.solutions, stats)


class _Search:
    """The state of one search: the involutions ``inv`` of the colors, the
    counters, the solutions, the keys of the explored prefixes and the last
    color's prefix P, whose ``_Components`` carries its own orbit walk.
    Each ``node`` generator is one entry of the stack in ``search_gems``;
    ``descend`` and ``finalize`` run below its edges."""

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        self.n = n = spec.color_count
        self.p = p = spec.vertex_count
        self.q0 = q0 = spec.seq[0]
        self.inv = _fixed_residue(q0, p) + [[-1] * p for _ in range(n - 2)]
        self.parity = spec.orientable is True
        # partners of v in range(v + 1, p, 2) keep every edge even-odd
        self.step = 2 if self.parity else 1
        self.stats = SearchStats()
        self.prunes = dict.fromkeys(
            ("wrong_cycle_length", "path_too_long", "dead_closure", "not_connected",
             "criterion_3manifold", "criterion_residues", "duplicate_prefix",
             "duplicate", "orientable"),
            0,
        )
        self.solutions: list[ColoredGraph] = []
        self.seen_codes: set[str] = set()  # the keys of explored prefixes
        self.deadline = None
        if spec.budget_seconds is not None:
            self.deadline = time.monotonic() + spec.budget_seconds
        # at most one manifold filter: check_spec gives the 3-manifold filter
        # 4 colors and the residue-sphere filter 5.  Its parts are
        # ``_new_part(view, spheres)``, its whole check re-verifies solutions;
        # ``spheres`` holds this search's component verdicts
        self.filter_key = None
        if spec.require_3manifold:
            self.filter_key, self.spheres = "criterion_3manifold", None
            self.check = check_3manifold
        elif spec.require_residues_sphere:
            self.filter_key, self.spheres = "criterion_residues", {}
            self.check = check_residues_sphere
        # the last color's prefix P and its orbit walk (for n = 3, the fixed
        # {0,1}-residue)
        self.last = None

    def finalize(self) -> None:
        """Test, filter and emit the complete candidate."""
        self.last.first = False
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Stop
        spec, inv, n, p, prunes = self.spec, self.inv, self.n, self.p, self.prunes
        self.stats.candidates += 1
        graph = _view(inv, n)
        if self.filter_key and not _new_part(graph, self.spheres):
            prunes[self.filter_key] += 1
            return
        # after the orbit walk and the filter: one cut per bipartite class
        if spec.orientable is False and is_bipartite(graph):
            prunes["orientable"] += 1
            return
        # guaranteed by the search state; re-verified on what leaves it
        validate(n, p, [graph.pairs(c) for c in range(n)])
        if semi_equivelar_type(graph) != tuple(spec.seq):
            raise RuntimeError(f"search produced a non-conforming graph: {graph}")
        if self.parity and not is_bipartite(graph):
            raise RuntimeError("the parity rule let a non-bipartite graph through")
        if self.filter_key and not self.check(graph).holds:
            raise RuntimeError(f"the parts of {self.filter_key} let a failing graph through")
        self.solutions.append(graph)
        if spec.max_solutions is not None and len(self.solutions) >= spec.max_solutions:
            raise _Stop

    def descend(self, c: int, v: int, tracks: list):
        """The node below an edge of color c: the least unpaired vertex of
        color c from v on, else vertex 0 of the next color.  None where a
        filter part prunes, the completed prefix was met before or the
        graph is complete.  ``tracks`` holds one path tracker
        ``(pend, plen, target)`` per constrained class of c."""
        inv, p = self.inv, self.p
        invc = inv[c]
        while v < p and invc[v] >= 0:
            v += 1
        if v < p:
            return self.node(c, v, tracks)
        c += 1
        if c == self.n:
            self.finalize()
            return None
        prefix = _view(inv, c)
        if self.filter_key and not _new_part(prefix, self.spheres):
            self.prunes[self.filter_key] += 1
            return None
        comps = None
        if c >= 3 or c == self.n - 1:  # keyed, or the last color's prefix
            comps = _Components(prefix, self.parity)
        if c >= 3:
            key = comps.key()
            if key in self.seen_codes:
                self.prunes["duplicate_prefix"] += 1
                return None
            self.seen_codes.add(key)
        seq = self.spec.seq
        tracks = [(list(inv[c - 1]), [2] * p, seq[c - 1])]
        if c == self.n - 1:
            tracks.append((list(inv[0]), [2] * p, seq[c]))
            self.last = comps
        return self.node(c, 0, tracks)

    def node(self, c: int, v: int, tracks: list):
        """Pair v with each allowed partner in turn: yield the child node of
        each edge, and undo the edge when resumed.  On the last color, an
        edge cut by ``_dead_closure``, ``strands`` or ``lowers`` is undone."""
        stats = self.stats
        stats.nodes += 1
        if self.deadline is not None and (stats.nodes & 0x3FF) == 0:  # every 1,024 nodes
            if time.monotonic() > self.deadline:
                raise _Stop
        invc = self.inv[c]
        p, step, prunes, descend = self.p, self.step, self.prunes, self.descend
        end = p
        if c == 2:
            # color 2 tries only the first partner reached in a fresh block,
            # the first past v's with no color-2 edge: the rest are its images
            q0 = self.q0
            block = v - v % q0 + q0
            while block < p and (invc[block] >= 0 or invc[block + 1] >= 0):
                block += q0
            end = min(block + step, p)
        partners = range(v + 1, end, step)
        for pend, plen, target in tracks:
            if plen[v] == target:
                # the path at v is full: its only partner closes it
                partners = (pend[v],)
                break
        on_last = len(tracks) == 2
        if on_last:
            t0, t1 = tracks
            last = self.last
        for u in partners:
            if invc[u] >= 0:
                continue
            for pend, plen, target in tracks:
                if pend[v] == u:
                    if plen[v] != target:
                        prunes["wrong_cycle_length"] += 1
                        break
                elif plen[v] + plen[u] > target:
                    prunes["path_too_long"] += 1
                    break
            else:
                invc[v] = u
                invc[u] = v
                # the path ends a, b join; v and u keep their entries
                for pend, plen, _ in tracks:
                    a = pend[v]
                    if a != u:
                        b = pend[u]
                        pend[a] = b
                        pend[b] = a
                        plen[a] = plen[b] = plen[v] + plen[u]
                if on_last and (_dead_closure(t0, t1, v, u) or _dead_closure(t1, t0, v, u)):
                    prunes["dead_closure"] += 1
                elif on_last and last.strands(invc, v):
                    prunes["not_connected"] += 1
                elif on_last and last.lowers(invc):
                    prunes["duplicate"] += 1
                else:
                    child = descend(c, v + 1, tracks)
                    if child is not None:
                        yield child
                    if on_last:
                        last.live.pop()
                for pend, plen, _ in tracks:
                    a = pend[v]
                    if a != u:
                        b = pend[u]
                        pend[a] = v
                        pend[b] = u
                        plen[a] = plen[v]
                        plen[b] = plen[u]
                invc[v] = invc[u] = -1


def _dead_closure(track, other, v: int, u: int) -> bool:
    """On the last color, the edge v-u has just been placed and both
    trackers updated, v and u keeping their old far ends: if v-u grew a
    path of the tracker ``track = (pend, plen, target)`` to the ends a, b,
    is every completion dead in the ``other`` tracker?

    A full path closes only by a-b, so a-b must pass the other tracker.  An
    end whose path in the other tracker is full has one partner y, the far
    end there, which must not close the grown path short or make it too
    long.  Path lengths only grow, so a failure here fails in every
    completion.
    """
    pend, plen, target = track
    a = pend[v]
    if a == u:  # v-u closed a cycle
        return False
    qend, qlen, qtarget = other
    b = pend[u]
    length = plen[a]
    if length == target:
        if qend[a] == b:
            return qlen[a] != qtarget
        return qlen[a] + qlen[b] > qtarget
    if qlen[a] == qtarget:
        y = qend[a]
        if y == b or length + plen[y] > target:
            return True
    if qlen[b] == qtarget:
        y = qend[b]
        if y == a or length + plen[y] > target:
            return True
    return False


class _Components:
    """A prefix P, given by its components: its key, which classes the last
    color closes, and the last color's orbit walk below it.  An automorphism
    of P maps each component onto an isomorphic one, where it is fixed by
    the image of one vertex.  A component map with a -> b is found by one
    walk that sends the c-neighbor of each reached x to the c-neighbor of
    its image and stops at its first conflict; a walk without one between
    components of one size is a bijection.  Found maps are kept, by (a, b),
    as the images of the component's sorted vertices.

    The walk (``lowers``) follows branches (g, g^-1, w): partial
    automorphisms, -1 off the components g is fixed on and off their
    images, with g.m = m before w on the partial involution m.  ``roots``
    are the branches at w = 0, one per preimage of vertex 0, made at the
    walk's first edge; on a connected P each fixes all of g, so Aut(P) has
    at most p elements and its branches only compare, and the identity is
    left out.  Each last-color edge resumes the branches live above it at
    their w and compares (g.m)[w] = g(m[g^-1(w)]) with m[w].  A branch
    waits, unchanged, while either is unset.  Where w's component has no
    preimage yet it splits, one branch per preimage.  Where g is not fixed
    on the component of y = m[g^-1(w)] yet, a component that no map reaches
    yet may take y below m[w]; if none does, g is fixed there by
    y -> m[w].  A smaller image, by a fixed map or a free component, cuts
    the edge (``duplicate``); a larger one, or w = p, drops the branch for
    the subtree.  Each extension copies g, so the branches live above an edge
    stay valid on backtrack: ``live`` stacks the branches kept below each
    edge, pushed by ``lowers`` and popped when ``_Search.node`` undoes the
    edge, None for all the roots.

    ``key()`` is P's code, read once by ``descend`` on the prefixes of
    3 <= c < n colors, the only ones keyed: the sorted lex-least labelings
    of its components (``graphs._component_key``, the canonical code's walk).
    With ``parity`` P is even-odd and only even-odd images count.  A branch
    keeps the parity flag of its root, g^-1(0) mod 2, on every component.
    A component's mark is its least labeling from an even start and from an
    odd start, and the key, the lesser of the sorted (even, odd) and
    (odd, even) ``marks``, is P's parity-marked code.  When the two lists
    differ, P has no parity-swapping automorphism: ``first_flag`` is 0 and
    no root of flag 1 is made.
    """

    def __init__(self, graph: ColoredGraph, parity: bool):
        p = graph.vertex_count
        self.rows = rows = graph.pairings
        self.parity = parity
        self.members = connected_components(graph)  # sorted, by least vertex
        self.comp = graph.residues.index(tuple(graph.colors))  # numbered as ``members``
        self.maps: dict[tuple[int, int], list[int]] = {}
        self.img = [-1] * p  # a walk's images, all -1 between walks
        self.first_flag = None  # the flag of a root, None for either
        self.marks = None  # with ``parity``, the sorted (even, odd) and (odd, even) marks
        self.first = True  # before P's first candidate, the least in its orbit: no map
        self.live = [None]
        self.roots = None  # built by ``lowers`` on its first read
        if not parity:
            return
        label = [-1] * p
        marks = [
            tuple(
                _component_key(rows, [x for x in part if x & 1 == side], label)
                for side in (0, 1)
            )
            for part in self.members
        ]
        self.marks = straight, swapped = sorted(marks), sorted(mark[::-1] for mark in marks)
        swaps = straight == swapped  # P has a parity-swapping automorphism
        self.first_flag = None if swaps else 0

    def key(self) -> str:
        if self.marks is not None:
            return str(min(self.marks))
        label = [-1] * len(self.comp)
        return str(sorted(_component_key(self.rows, part, label) for part in self.members))

    def _roots(self) -> list:
        """The branches at w = 0: g fixed on the component of each x with a
        map x -> 0.  On a connected P that is all of g, g^-1 is the map
        g(0) -> 0, and the identity, which lowers nothing, is left out."""
        maps, unset = self.maps, [-1] * len(self.comp)
        xs = self._preimages(0, unset, self.first_flag)
        if len(self.members) == 1:
            return [(maps[x, 0], maps[maps[x, 0][0], 0], 0) for x in xs if x]
        return [(*self._fix(unset, unset, x, 0), 0) for x in xs]

    def lowers(self, m: list[int]) -> bool:
        """Does some g in Aut(P) lower every completion of the partial
        involution m?  If not, push the branches (g, g^-1, w) still live, or
        None (all of them) before P's first candidate, which builds none."""
        if self.first:
            self.live.append(None)
            return False
        top, p = self.live[-1], len(m)
        if top is None:  # all the roots, made at the walk's first edge
            top = self.roots = self._roots() if self.roots is None else self.roots
        todo = list(top)
        kept = []
        for g, g_inv, w in todo:  # grows by the branches at unmapped targets
            while w < p:  # g.m = m before w
                mw, x = m[w], g_inv[w]
                if mw < 0 or x >= 0 and m[x] < 0:  # unset: g may still lower a completion
                    kept.append((g, g_inv, w))
                    break
                if x < 0:  # w's component has no preimage yet
                    todo += self._branches(g, g_inv, w)
                    break
                y = m[x]
                gy = g[y]
                if gy < 0:  # g is not fixed on y's component yet
                    if self._free_below(y, mw, g_inv):
                        return True
                    # y - x and mw - w are odd: under parity y -> mw has g's flag
                    if g_inv[mw] >= 0 or not self._fits(y, mw, None):
                        break
                    g, g_inv = self._fix(g, g_inv, y, mw)
                    gy = mw
                if gy != mw:
                    if gy < mw:
                        return True
                    break
                w += 1
        self.live.append(kept)
        return False

    def strands(self, m: list[int], v: int) -> bool:
        """Has the edge at v closed v's class, the components of P that the
        partial involution m joins to v's, short of all of P?  Every vertex
        below v is paired, so each component is scanned from the top."""
        members, comp = self.members, self.comp
        if len(members) == 1:
            return False
        reached = [comp[v]]
        for c in reached:
            for x in reversed(members[c]):
                y = m[x]
                if y < 0:
                    return False
                if comp[y] not in reached:
                    reached.append(comp[y])
        return len(reached) < len(members)

    def _fits(self, a: int, b: int, flag) -> bool:
        """Is there a component map with a -> b, of parity flag ``flag``
        (None for either)?"""
        if self.parity and flag is not None and (b - a) & 1 != flag:
            return False
        if (a, b) in self.maps:
            return True
        part = self.members[self.comp[a]]
        if len(part) != len(self.members[self.comp[b]]):
            return False
        img = self.img
        reached, found = _walk(self.rows, img, a, b)
        if found and len(part) == len(img):  # P is connected: img is all of g
            self.maps[a, b], self.img = img, [-1] * len(img)
            return True
        if found:
            self.maps[a, b] = [img[x] for x in part]
        for x in reached:
            img[x] = -1
        return found

    def _preimages(self, w: int, g: list[int], flag) -> list[int]:
        """The x in components that g is not fixed on with a map x -> w."""
        size = len(self.members[self.comp[w]])
        return [
            x
            for part in self.members
            if g[part[0]] < 0 and len(part) == size
            for x in part
            if self._fits(x, w, flag)
        ]

    def _branches(self, g: list[int], g_inv: list[int], w: int) -> list:
        """The branch (g, g^-1) extended by each preimage of w, at w."""
        flag = g_inv[0] & 1
        return [(*self._fix(g, g_inv, x, w), w) for x in self._preimages(w, g, flag)]

    def _free_below(self, y: int, mw: int, g_inv: list[int]) -> bool:
        """Can y go below mw in a component that no map of g reaches yet?"""
        size, flag = len(self.members[self.comp[y]]), g_inv[0] & 1
        for part in self.members:
            if part[0] >= mw:
                break
            if g_inv[part[0]] < 0 and len(part) == size:
                for z in part:
                    if z >= mw:
                        break
                    if self._fits(y, z, flag):
                        return True
        return False

    def _fix(self, g: list[int], g_inv: list[int], a: int, b: int):
        """Copies of g and g^-1, fixed on the component of a by g(a) = b."""
        g, g_inv = g[:], g_inv[:]
        for x, y in zip(self.members[self.comp[a]], self.maps[a, b]):
            g[x] = y
            g_inv[y] = x
        return g, g_inv


def _walk(rows: Sequence[Sequence[int]], img: list[int], a: int, b: int):
    """Set ``img`` on the component of a to the color-preserving map with
    a -> b: the c-neighbor of each reached x goes to the c-neighbor of its
    image.  Stop at the first conflict; return the vertices set and whether
    there was none.  ``img`` must be -1 on the component."""
    img[a] = b
    reached = [a]
    for x in reached:
        y = img[x]
        for row in rows:
            w, z = row[x], row[y]
            if img[w] < 0:
                img[w] = z
                reached.append(w)
            elif img[w] != z:
                return reached, False
    return reached, True


def _fixed_residue(q0: int, p: int) -> list[list[int]]:
    """Involutions of colors 0 and 1 forming p/q0 standard alternating q0-cycles.

    Sound because every {0,1}-residue of the target type is p/q0 disjoint
    alternating q0-cycles, and all such 2-colored graphs are isomorphic.
    """
    inv0 = [v ^ 1 for v in range(p)]
    inv1 = [0] * p
    for base in range(0, p, q0):
        for i in range(1, q0, 2):
            v, u = base + i, base + (i + 1) % q0
            inv1[v] = u
            inv1[u] = v
    return [inv0, inv1]
