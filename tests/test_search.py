import hashlib
import itertools
import random
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest

import gemtk.complexes
import gemtk.graphs
import gemtk.search
from gemtk import (
    ColoredGraph,
    InfeasibleSpecError,
    SearchBudgetExceeded,
    SearchSpec,
    canonical_code,
    check_3manifold,
    connected_components,
    check_residues_sphere,
    count_nonisomorphic,
    is_bipartite,
    is_connected,
    search_gems,
    semi_equivelar_type,
    validate,
    write_gem,
)

from helpers import (
    all_matchings,
    cube_graph,
    disjoint_union,
    naive_type_search,
    permute_colors,
    random_colored_graph,
    random_connected_graph,
    random_matching,
    reference_canonical_code,
    relabel,
    rp3_double,
    standard_residue,
)


def _even_odd_matching(rng: random.Random, p: int) -> list[int]:
    odds = list(range(1, p, 2))
    rng.shuffle(odds)
    inv = [0] * p
    for even, odd in zip(range(0, p, 2), odds):
        inv[even] = odd
        inv[odd] = even
    return inv


class TestSpecRejection:
    def test_tiny_faces(self):
        with pytest.raises(InfeasibleSpecError):
            search_gems(SearchSpec(seq=(2, 2, 2), vertex_count=2))

    def test_face_larger_than_vertex_count(self):
        with pytest.raises(InfeasibleSpecError):
            search_gems(SearchSpec(seq=(4, 4, 12), vertex_count=8))

    def test_odd_vertex_count(self):
        with pytest.raises(InfeasibleSpecError):
            search_gems(SearchSpec(seq=(4, 4, 4), vertex_count=7))

    def test_nondividing_face(self):
        with pytest.raises(InfeasibleSpecError):
            search_gems(SearchSpec(seq=(4, 6, 6), vertex_count=8))

    def test_filter_arity(self):
        with pytest.raises(InfeasibleSpecError):
            search_gems(SearchSpec(seq=(4, 4, 4), vertex_count=8, require_3manifold=True))
        with pytest.raises(InfeasibleSpecError):
            search_gems(
                SearchSpec(seq=(4, 4, 4, 4), vertex_count=8, require_residues_sphere=True)
            )

    def test_orientable_is_true_false_or_none(self):
        # a truthy non-bool would otherwise search both orientabilities
        with pytest.raises(InfeasibleSpecError, match="orientable"):
            search_gems(SearchSpec(seq=(4, 4, 4), vertex_count=8, orientable=1))

    @pytest.mark.parametrize("budget", [-5, float("nan")])
    def test_negative_or_nan_budget(self, budget):
        # a zero budget is legal and stops at once; a negative one or NaN is
        # a malformed spec, not a budget that has already run out
        with pytest.raises(InfeasibleSpecError):
            search_gems(SearchSpec(seq=(4, 4, 4), vertex_count=24, budget_seconds=budget))

    def test_search_state_is_bounded(self):
        # n involutions of p entries: a spec over the bound is refused before
        # any list is made, with one problem that names the bound
        bound = gemtk.search._MAX_STATE_ENTRIES
        p = bound // 3 // 4 * 4
        gemtk.search.check_spec(SearchSpec(seq=(4, 4, 4), vertex_count=p))
        gemtk.search.check_spec(SearchSpec(seq=(4,) * 5, vertex_count=bound // 5 // 4 * 4))
        for spec in [
            SearchSpec(seq=(4, 4, 4), vertex_count=p + 4),
            SearchSpec(seq=(4,) * 5, vertex_count=bound // 5 // 4 * 4 + 4),
            SearchSpec(seq=(4, 4, 4), vertex_count=10**12, max_solutions=1),
        ]:
            with pytest.raises(InfeasibleSpecError, match=f"exceed {bound:,} state entries$"):
                search_gems(spec)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_solution_limit_below_one(self, limit):
        # a search that may emit nothing is a malformed spec, not an
        # inconclusive run
        with pytest.raises(InfeasibleSpecError):
            search_gems(SearchSpec(seq=(4, 4, 4), vertex_count=8, max_solutions=limit))


class TestCubeRediscovery:
    def test_unique_bipartite_solution_is_the_cube(self):
        out = search_gems(
            SearchSpec(seq=(4, 4, 4), vertex_count=8, orientable=True)
        )
        assert out.stats.exhausted
        assert len(out.solutions) == 1
        assert canonical_code(out.solutions[0]) == canonical_code(cube_graph())

    def test_count(self):
        n = count_nonisomorphic(
            SearchSpec(seq=(4, 4, 4), vertex_count=8, orientable=True)
        )
        assert n == 1


class TestSoundness:
    @pytest.mark.parametrize(
        "seq,p,kwargs",
        [
            ((4, 4, 4), 8, {"orientable": True}),
            ((6, 6, 6), 6, {}),
            ((4, 8, 8), 8, {}),
            ((6, 6, 6, 6), 6, {"require_3manifold": True}),
        ],
    )
    def test_solutions_reverify(self, seq, p, kwargs):
        out = search_gems(SearchSpec(seq=seq, vertex_count=p, **kwargs))
        assert out.solutions
        for g in out.solutions:
            revalidated = validate(
                g.color_count, g.vertex_count, [g.pairs(c) for c in g.colors]
            )
            assert revalidated == g
            assert semi_equivelar_type(g) == seq
            assert is_connected(g)
            if kwargs.get("orientable"):
                assert is_bipartite(g)
            if kwargs.get("require_3manifold"):
                assert check_3manifold(g).holds

    def test_determinism(self):
        spec = SearchSpec(seq=(4, 4, 8, 8), vertex_count=8)
        first = search_gems(spec)
        second = search_gems(spec)
        assert [canonical_code(g) for g in first.solutions] == [
            canonical_code(g) for g in second.solutions
        ]
        assert first.stats.nodes == second.stats.nodes
        assert first.stats.prunes == second.stats.prunes


def _class_codes(solutions):
    """The canonical codes of ``solutions``, which must be pairwise
    non-isomorphic: a set alone would hide an emitted duplicate."""
    codes = {canonical_code(g) for g in solutions}
    assert len(codes) == len(solutions)
    return codes


class TestNaiveOracleAgreement:
    @pytest.mark.parametrize(
        "seq,p",
        [((4, 4, 4), 4), ((4, 4, 4), 8), ((6, 6, 6), 6), ((8, 8, 8), 8),
         ((4, 4, 8), 8), ((4, 8, 8), 8)],
    )
    def test_connected_specs(self, seq, p):
        out = search_gems(SearchSpec(seq=seq, vertex_count=p))
        assert out.stats.exhausted
        got = _class_codes(out.solutions)
        assert got == naive_type_search(seq, p)

    def test_bipartite_filter_agrees(self):
        out = search_gems(
            SearchSpec(seq=(4, 4, 8), vertex_count=8, orientable=True)
        )
        got = _class_codes(out.solutions)
        assert got == naive_type_search((4, 4, 8), 8, orientable=True)

    def test_four_colored_specs(self):
        for seq, p in [((4, 4, 4, 4), 4), ((6, 6, 6, 6), 6)]:
            out = search_gems(SearchSpec(seq=seq, vertex_count=p))
            got = _class_codes(out.solutions)
            assert got == naive_type_search(seq, p)

    def test_four_colored_manifold_filter_agrees(self):
        out = search_gems(
            SearchSpec(seq=(6, 6, 6, 6), vertex_count=6, require_3manifold=True)
        )
        got = _class_codes(out.solutions)
        assert got == naive_type_search((6, 6, 6, 6), 6, require_3manifold=True)

    def test_five_colored_spec(self):
        out = search_gems(SearchSpec(seq=(4,) * 5, vertex_count=4))
        got = _class_codes(out.solutions)
        assert got == naive_type_search((4,) * 5, 4)

    @pytest.mark.parametrize(
        "seq,p,kwargs",
        [
            ((8, 4, 8), 8, {}),
            ((4, 8, 8), 8, {}),
            ((8, 8, 4), 8, {}),
            ((4, 4, 4), 8, {"orientable": True}),
            ((4, 4, 4), 8, {}),
            ((4, 8, 4), 8, {}),
            ((6, 6, 6), 6, {"orientable": True}),
            ((6, 6, 6, 6), 6, {}),
            ((6, 6, 6, 6), 6, {"require_3manifold": True}),
            ((4, 4, 4, 4), 4, {}),
            ((6,) * 5, 6, {}),
            ((4,) * 5, 4, {}),
            ((6,) * 5, 6, {"require_residues_sphere": True}),
            ((4,) * 5, 4, {"require_residues_sphere": True}),
            ((4, 4, 4), 8, {"orientable": False}),
            ((6, 6, 6), 6, {"orientable": False}),
            ((8, 4, 8), 8, {"orientable": False}),
        ],
    )
    def test_fixed_residue_reaches_every_class(self, seq, p, kwargs):
        # the oracle leaves color 1 free and filters complete graphs only, so
        # it checks that fixing the whole {0,1}-residue and the staged
        # filters in the search lose no isomorphism class
        out = search_gems(SearchSpec(seq=seq, vertex_count=p, **kwargs))
        assert out.stats.exhausted
        got = _class_codes(out.solutions)
        assert got == naive_type_search(seq, p, **kwargs)

    @pytest.mark.parametrize(
        "seq,p,fires",
        [((4, 8, 4, 8), 8, 6), ((6,) * 5, 6, 16)],
    )
    def test_prefix_rule_fires_on_oracle_specs(self, seq, p, fires):
        # the oracle tests of a 4- and a 5-colored spec agree with the oracle
        # while the search skips isomorphic prefixes, not because it never
        # met one
        out = search_gems(SearchSpec(seq=seq, vertex_count=p))
        assert out.stats.prunes["duplicate_prefix"] == fires

    @pytest.mark.parametrize(
        "seq,p,kwargs,fires",
        [
            ((8, 4, 8), 8, {}, 1),
            ((4, 6, 12), 12, {}, 3),
            ((4, 6, 12), 12, {"orientable": True}, 2),
            ((4, 8, 4, 8), 8, {}, 9),
        ],
    )
    def test_dead_closure_fires_on_oracle_specs(self, seq, p, kwargs, fires):
        # the oracle tests of these specs agree with the oracle while the
        # last color cuts edges whose forced closing edges fail the other
        # tracker, not because no such edge ever came up
        out = search_gems(SearchSpec(seq=seq, vertex_count=p, **kwargs))
        assert out.stats.prunes["dead_closure"] == fires

    @pytest.mark.parametrize(
        "seq,p,kwargs,classes",
        [
            ((4, 12, 12), 12, {}, 8),
            ((4, 6, 12), 12, {}, 3),
            ((6, 4, 12), 12, {}, 3),
            ((4, 6, 12), 12, {"orientable": True}, 1),
            ((4, 4, 6), 12, {"orientable": True}, 1),
            ((4, 4, 8, 8), 8, {}, 24),
            ((4, 4, 8, 8), 8, {"orientable": True}, 3),
            ((4, 8, 4, 8), 8, {}, 19),
            ((4, 8, 4, 8), 8, {"orientable": True}, 2),
            ((4, 6, 12), 12, {"orientable": False}, 2),
            ((4, 8, 4, 8), 8, {"orientable": False}, 17),
        ],
    )
    def test_fresh_block_rule_reaches_every_class(self, seq, p, kwargs, classes):
        # two or three {0,1}-blocks: the oracle fixes the same residue but
        # tries every matching for colors 2.., so it checks that one
        # color-2 partner per fresh block loses no isomorphism class
        out = search_gems(SearchSpec(seq=seq, vertex_count=p, **kwargs))
        assert out.stats.exhausted
        got = _class_codes(out.solutions)
        assert got == naive_type_search(seq, p, fix_residue=True, **kwargs)
        assert len(got) == classes

    def test_symmetry_breaking_loses_nothing(self):
        # oracle ranges over every color-0 matching; fixing colors 0 and 1 in
        # the search must reach the same isomorphism classes
        for seq, p in [((4, 4, 4), 4), ((6, 6, 6), 6)]:
            free = naive_type_search(seq, p, fix_color0=False)
            out = search_gems(SearchSpec(seq=seq, vertex_count=p))
            assert _class_codes(out.solutions) == free

    def test_every_class_has_standard_color0_representative(self):
        # relabeling vertices along the color-0 pairs standardizes color 0
        # without changing the isomorphism class
        rng = random.Random(61)
        standard = tuple(v ^ 1 for v in range(8))
        for _ in range(100):
            g = random_colored_graph(rng, 8, 3)
            perm = [0] * 8
            new = 0
            for v in range(8):
                u = g.pairings[0][v]
                if v < u:
                    perm[v] = new
                    perm[u] = new + 1
                    new += 2
            h = relabel(g, perm)
            assert h.pairings[0] == standard
            assert canonical_code(h) == canonical_code(g)


def _codes(spec, check=None):
    """The class codes of an exhaustive search, of the solutions that pass
    ``check`` if one is given."""
    out = search_gems(spec)
    assert out.stats.exhausted
    return _class_codes([g for g in out.solutions if check is None or check(g)])


class TestStagedFilters:
    """The filters also prune partial colorings; the solutions of an
    unfiltered search that pass the public check are an unstaged
    reference."""

    @pytest.mark.parametrize(
        "seq,p,kwargs",
        [
            ((4, 6, 4, 6), 12, {}),
            ((4, 4, 6, 6), 12, {}),
            ((4, 4, 4, 12), 12, {}),
            ((4, 4, 4, 4), 8, {}),
            ((4, 8, 4, 8), 8, {"orientable": True}),
        ],
    )
    def test_3manifold_classes_match_unstaged(self, seq, p, kwargs):
        spec = SearchSpec(seq=seq, vertex_count=p, **kwargs)
        staged = _codes(replace(spec, require_3manifold=True))
        assert staged
        assert staged == _codes(spec, lambda g: check_3manifold(g).holds)

    def test_residue_classes_match_unstaged(self):
        spec = SearchSpec(seq=(4,) * 5, vertex_count=8)
        staged = _codes(replace(spec, require_residues_sphere=True))
        assert len(staged) == 5
        assert staged == _codes(spec, lambda g: check_residues_sphere(g).holds)

    def test_first_hit_matches_unstaged(self):
        # the unfiltered search emits its solutions in the same depth-first
        # order; the one that stops at the first passing solution is the
        # unstaged reference, nodes included
        spec = SearchSpec(seq=(4, 4, 4, 6), vertex_count=24, max_solutions=10)
        staged = search_gems(replace(spec, require_3manifold=True, max_solutions=1))
        first = search_gems(spec).solutions
        k = next(k for k, g in enumerate(first) if check_3manifold(g).holds)
        unstaged = search_gems(replace(spec, max_solutions=k + 1))
        assert len(staged.solutions) == 1
        assert staged.solutions[0].pairings == unstaged.solutions[k].pairings
        assert staged.stats.nodes < unstaged.stats.nodes

    @pytest.mark.parametrize(
        "spec",
        [
            SearchSpec(seq=(4, 4, 4, 6), vertex_count=24, require_3manifold=True,
                       max_solutions=1),
            SearchSpec(seq=(6,) * 5, vertex_count=6, require_residues_sphere=True),
        ],
    )
    def test_staged_prunes_use_the_filter_key(self, spec):
        out = search_gems(spec)
        key = "criterion_3manifold" if spec.require_3manifold else "criterion_residues"
        # the last part, run on complete candidates, rejects at most every
        # candidate; the rest are pruned by parts decided on prefixes
        assert out.stats.prunes[key] > out.stats.candidates

    @pytest.mark.parametrize(
        "spheres,colors,check,fixed",
        [
            pytest.param(
                False,
                4,
                lambda g: check_3manifold(g).holds,
                [],
                id="3manifold",
            ),
            pytest.param(
                True,
                5,
                lambda g: check_residues_sphere(g).holds,
                # every residue count holds, but the two RP^3 residues fail
                # homology, in the part of color 3 or 4 as sigma places them
                [
                    permute_colors(rp3_double(), sigma)
                    for sigma in [(0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (4, 0, 1, 2, 3)]
                ],
                id="residues",
            ),
        ],
    )
    def test_parts_partition_the_check(self, spheres, colors, check, fixed):
        # the parts that colors 2..n-1 complete, each decided on the view of
        # the colors up to it, together decide exactly the public check; one
        # verdict dict serves every graph, so components met before are
        # decided by their keys, and those verdicts meet the check too
        rng = random.Random(colors)
        hits = {True: 0, False: 0}

        class Verdicts(dict):
            def get(self, key):
                holds = super().get(key)
                if holds is not None:
                    hits[holds] += 1
                return holds

        memo = Verdicts() if spheres else None

        def parts(g):
            inv = [list(row) for row in g.pairings]
            return all(
                gemtk.search._new_part(gemtk.search._view(inv, k), memo)
                for k in range(3, colors + 1)
            )

        held = 0
        for _ in range(2000):
            g = random_colored_graph(rng, 2 * rng.randint(1, 6), colors)
            holds = parts(g)
            assert holds == check(g), g
            held += holds
        assert 0 < held < 2000
        for g in fixed:
            assert (parts(g), check(g)) == (False, False), g
        if spheres:
            assert hits[True] > 0 and hits[False] > 0, hits

    def test_sphere_keys_do_not_rest_on_the_walk_order(self, monkeypatch):
        # a component's key numbers its vertices in the order the residue
        # table lists them; any order gives an exact key, so with every
        # component's vertices listed by a random ranking of the labels, not
        # breadth-first from the least, the parts still decide the check,
        # looking up verdicts of both kinds
        rng = random.Random(5)
        graphs = [random_colored_graph(rng, 2 * rng.randint(1, 6), 5) for _ in range(2000)]
        graphs += [
            permute_colors(rp3_double(), sigma)
            for sigma in [(0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (4, 0, 1, 2, 3)]
        ]
        expected = [check_residues_sphere(g).holds for g in graphs]
        rank = rng.sample(range(24), 24)
        components = gemtk.graphs.ResidueTable.components

        def shuffled(table, colors):
            if colors not in table._components:
                table._components[colors] = tuple(
                    tuple(sorted(comp, key=rank.__getitem__))
                    for comp in components(table, colors)
                )
            return table._components[colors]

        monkeypatch.setattr(gemtk.graphs.ResidueTable, "components", shuffled)
        hits = {True: 0, False: 0}

        class Verdicts(dict):
            def get(self, key):
                holds = super().get(key)
                if holds is not None:
                    hits[holds] += 1
                return holds

        memo = Verdicts()
        for g, holds in zip(graphs, expected):
            inv = [list(row) for row in g.pairings]
            parts = all(
                gemtk.search._new_part(gemtk.search._view(inv, k), memo) for k in range(3, 6)
            )
            assert parts == holds, g
        assert 0 < sum(expected) < len(graphs) and not expected[-1]
        assert hits[True] > 0 and hits[False] > 0, hits


class TestParityRule:
    """With ``orientable=True`` the search pairs even labels with odd ones
    only, and with ``orientable=False`` it cuts bipartite candidates; the
    unrestricted search's solutions of that bipartiteness are the
    reference."""

    @pytest.mark.parametrize(
        "seq,p,kwargs",
        [
            ((10, 10, 10), 10, {}),
            ((4, 4, 8, 8), 8, {}),
            ((4, 4, 4), 8, {}),
            ((4, 8, 4, 8), 8, {"require_3manifold": True}),
            # isomorphic prefixes are skipped under the parity rule
            ((6, 6, 4, 4), 12, {}),
            # disconnected prefixes are skipped by their parity-marked keys,
            # and their disconnected candidates cut
            ((4, 4, 4, 4), 16, {}),
            ((4, 4, 4, 4, 6), 12, {"require_residues_sphere": True}),
        ],
    )
    def test_parity_rule_loses_no_class(self, seq, p, kwargs):
        spec = SearchSpec(seq=seq, vertex_count=p, **kwargs)
        parity = _codes(replace(spec, orientable=True))
        assert parity
        assert parity == _codes(spec, is_bipartite)
        cut = _codes(replace(spec, orientable=False))
        assert cut == _codes(spec, lambda g: not is_bipartite(g))

    @pytest.mark.parametrize(
        "spec,nodes,candidates,cut",
        [
            (SearchSpec(seq=(4, 4, 6, 6), vertex_count=12), 408, 44, 8),
            (SearchSpec(seq=(4, 4, 4, 6), vertex_count=24, require_3manifold=True,
                        max_solutions=1), 417, 9, 1),
        ],
        ids=["4466-12", "first-3manifold"],
    )
    def test_non_orientable_cut_follows_the_orbit_test(self, spec, nodes, candidates, cut):
        # bipartite candidates are cut only after the orbit walk and the
        # filter's last part, so duplicates still count as ``duplicate`` and
        # each bipartite class that passes the filter is cut once: 8 of the
        # 44 classes of (4,4,6,6);12, whose 44 candidates are one per class
        out = search_gems(replace(spec, orientable=False))
        assert (out.stats.nodes, out.stats.candidates) == (nodes, candidates)
        assert out.stats.prunes["orientable"] == cut
        assert not any(map(is_bipartite, out.solutions))


def _built_search(monkeypatch, spec):
    """The outcome of a search and the number of ``_Components`` it built,
    one per key and per orbit test; the search makes no canonical code."""
    assert not hasattr(gemtk.search, "canonical_code")
    builds = 0
    original = gemtk.search._Components

    def counted(graph, parity):
        nonlocal builds
        builds += 1
        return original(graph, parity)

    monkeypatch.setattr(gemtk.search, "_Components", counted)
    return search_gems(spec), builds


# a chiral component: C and its mirror M (C relabeled by v -> v ^ 1) are
# isomorphic only by maps that swap parity
_CHIRAL = ColoredGraph.from_involutions(
    [
        [v ^ 1 for v in range(12)],
        [3, 10, 9, 0, 11, 6, 5, 8, 7, 2, 1, 4],
        [11, 8, 5, 10, 7, 2, 9, 4, 1, 6, 3, 0],
    ]
)
_MIRROR = relabel(_CHIRAL, [v ^ 1 for v in range(12)])


def _images(auts, m):
    """The images g.m, with (g.m)[g(v)] = g(m[v]), of the involution m."""
    images = []
    for g in auts:
        image = [0] * len(m)
        for v, u in enumerate(m):
            image[g[v]] = g[u]
        images.append(image)
    return images


def _automorphisms_by_components(rows):
    """Every color-preserving automorphism of the graph, as a list: each
    component is mapped onto one of the same size, by the walk from its
    first vertex to each target, for every permutation of the components."""
    p = len(rows[0])
    parts = [list(c) for c in connected_components(ColoredGraph.from_involutions(rows))]

    def walk(a, b):
        g = {a: b}
        todo = [a]
        for v in todo:
            for row in rows:
                w, y = row[v], row[g[v]]
                if w not in g:
                    g[w] = y
                    todo.append(w)
                elif g[w] != y:
                    return None
        return g

    auts = []
    for perm in itertools.permutations(range(len(parts))):
        choices = [
            [g for y in parts[j] if (g := walk(parts[i][0], y)) is not None]
            if len(parts[i]) == len(parts[j]) else []
            for i, j in enumerate(perm)
        ]
        for maps in itertools.product(*choices):
            g = [0] * p
            for part in maps:
                for x, y in part.items():
                    g[x] = y
            assert sorted(g) == list(range(p))
            assert all(row[g[v]] == g[row[v]] for row in rows for v in range(p))
            auts.append(g)
    return auts


def _automorphisms(rows):
    """Every color-preserving permutation g of the vertices, with
    g[row[x]] == row[g[x]]: all permutations, built one image at a time and
    dropped at the first x whose neighbor below it is mapped wrongly."""
    p = len(rows[0])
    auts, g, used = [], [-1] * p, [False] * p

    def extend(x):
        if x == p:
            auts.append(list(g))
            return
        for y in range(p):
            if not used[y] and all(row[x] > x or g[row[x]] == row[y] for row in rows):
                g[x], used[y] = y, True
                extend(x + 1)
                g[x], used[y] = -1, False

    extend(0)
    return auts


def _least(comps, m):
    """The orbit walk of the last color on the complete involution m below
    the prefix that ``comps`` describes, from its roots: is no image g.m
    smaller than m?  A complete m leaves no branch waiting."""
    comps.first = False
    if comps.lowers(list(m)):
        return False
    assert comps.live.pop() == []
    return True


def _completions(m, step):
    """Every involution that agrees with the partial involution m (-1 where
    unset); with ``step`` 2 only its even-odd ones."""
    if -1 not in m:
        yield list(m)
        return
    v = m.index(-1)
    for u in range(v + 1, len(m), step):
        if m[u] < 0:
            m[v], m[u] = u, v
            yield from _completions(m, step)
            m[v] = m[u] = -1


class TestLastColorOrbits:
    """The last color is deduplicated by the automorphisms of its prefix,
    given by component maps (``_Components``), whether the prefix is
    connected or not; no candidate gets a canonical code."""

    def test_automorphisms_match_brute_force(self):
        # the cube: a connected prefix, whose group is the 8 translations
        # v -> v ^ t; the orbit walk starts from the 7 besides the identity
        cube = cube_graph()
        comps = gemtk.search._Components(cube, parity=False)
        translations = [[v ^ t for v in range(8)] for t in range(8)]
        matchings = all_matchings(8)
        lowered = 0
        for m in matchings:
            images = _images(translations, m)
            assert _least(comps, m) == (min(images) == m), m
            lowered += min(images) < m
        assert 0 < lowered < len(matchings)
        assert sorted(g for g, *_ in comps._roots()) == translations[1:]
        # two cubes: a disconnected prefix, whose group is given by component
        # maps; its roots fix g on the cube mapped onto vertex 0's, 16 ways
        comps = gemtk.search._Components(disjoint_union(cube, cube), parity=False)
        assert [sorted(part) for part in comps.members] == [list(range(8)), list(range(8, 16))]
        assert sorted(g_inv[0] for _, g_inv, _ in comps._roots()) == list(range(16))
        straight = [v + 8 for v in range(8)] + list(range(8))
        twisted = [(v ^ 1) + 8 for v in range(8)] + [(v - 8) ^ 1 for v in range(8, 16)]
        assert _least(comps, straight) and not _least(comps, twisted)

    @pytest.mark.parametrize("parity", [False, True])
    def test_component_orbit_test_matches_brute_force(self, parity):
        # the group of a prefix P is never listed; here it is, by all
        # permutations, for connected and disconnected P.  Under the parity
        # rule only even-odd images count, of candidates that m connects; a
        # P of two colors has maps of both flags on each component (the
        # chiral witness below has not)
        rng = random.Random(29)
        seen = {"lowered": 0, "least": 0, "flag_matters": 0, "connected": 0}
        for _ in range(80):
            p = 2 * rng.randint(2, 4)
            matching = _even_odd_matching if parity else random_matching
            rows = [matching(rng, p) for _ in range(2 if parity else rng.randint(2, 4))]
            prefix = ColoredGraph.from_involutions(rows)
            seen["connected"] += is_connected(prefix)
            comps = gemtk.search._Components(prefix, parity)
            auts = [
                g for g in itertools.permutations(range(p))
                if all(row[g[v]] == g[row[v]] for row in rows for v in range(p))
            ]
            for _ in range(5):
                m = matching(rng, p)
                if parity and not is_connected(ColoredGraph.from_involutions(rows + [m])):
                    continue
                images = _images(auts, m)
                lowered = min(images) < m
                if parity:
                    even_odd = [x for x in images if all((v + x[v]) & 1 for v in range(p))]
                    seen["flag_matters"] += lowered != (min(even_odd) < m)
                    lowered = min(even_odd) < m
                assert _least(comps, m) != lowered, (rows, m)
                seen["lowered" if lowered else "least"] += 1
        assert seen["lowered"] > 20 and seen["least"] > 20
        assert (seen["flag_matters"] > 0) == parity
        assert 10 < seen["connected"] < 70

    @pytest.mark.parametrize(
        "prefix,parity",
        [
            ("block-8", False), ("block-8", True), ("block-10", False),
            ("block-10", True), ("random-4-colored", False),
            ("two-blocks", False), ("two-blocks", True),
            ("random-disconnected", False),
        ],
    )
    def test_partial_orbit_test_matches_brute_force(self, prefix, parity):
        # below a prefix P every last-color edge walks the branches, partial
        # automorphisms fixed on some components, still live above it;
        # Aut(P) is listed here by all permutations, and the partial
        # involutions are built in search order (least unpaired vertex
        # first, cut edges not descended), as the search does, with every
        # completion checked by brute force.  Under the parity rule only
        # even-odd images count, of completions that P and m connect
        rng = random.Random(7)
        if prefix.startswith("block"):
            q0 = int(prefix[6:])
            prefixes = [list(standard_residue(q0, q0))]
        elif prefix == "two-blocks":
            prefixes = [list(standard_residue(4, 8))]
        elif prefix == "random-4-colored":
            prefixes = []
            while len(prefixes) < 3:
                rows = [list(row) for row in random_connected_graph(rng, 8, 4).pairings]
                if len(_automorphisms(rows)) > 1:
                    prefixes.append(rows)
        else:
            # 2 or 3 components, some isomorphic to each other and some not,
            # their vertices shuffled together
            a = random_connected_graph(rng, 4, 4)
            b = random_connected_graph(rng, 4, 4)
            while canonical_code(b) == canonical_code(a):
                b = random_connected_graph(rng, 4, 4)
            edge, six = random_connected_graph(rng, 2, 4), random_connected_graph(rng, 6, 4)
            prefixes = []
            for parts in ((a, a), (a, b), (edge, six), (edge, edge, a)):
                perm = list(range(8))
                rng.shuffle(perm)
                graph = relabel(disjoint_union(*parts), perm)
                assert len(connected_components(graph)) == len(parts)
                prefixes.append([list(row) for row in graph.pairings])
        step = 2 if parity else 1
        seen = {"cut": 0, "none_live": 0, "complete_least": 0, "complete_lowered": 0}
        for rows in prefixes:
            p = len(rows[0])
            auts = _automorphisms(rows)
            comps = gemtk.search._Components(ColoredGraph.from_involutions(rows), parity)
            # one root per preimage of vertex 0, less the identity on a connected P
            origins = {g.index(0) for g in auts} - ({0} if len(comps.members) == 1 else set())
            assert sorted(g_inv[0] for _, g_inv, _ in comps._roots()) == sorted(origins)
            comps.first = False
            m = [-1] * p
            verdicts = {}  # complete involution -> lowered, None where it does not count

            def lowered(full):
                key = tuple(full)
                if key not in verdicts:
                    images = _images(auts, full)
                    if parity:
                        images = [x for x in images if all((v + x[v]) & 1 for v in range(p))]
                    verdicts[key] = min(images) < full
                    if parity and not is_connected(ColoredGraph.from_involutions(rows + [full])):
                        verdicts[key] = None
                return verdicts[key]

            def place():
                v = m.index(-1)
                for u in range(v + 1, p, step):
                    if m[u] >= 0:
                        continue
                    m[v], m[u] = u, v
                    cut = comps.lowers(m)
                    below = [x for x in map(lowered, _completions(m, step)) if x is not None]
                    if cut:
                        assert all(below), m
                        seen["cut"] += 1
                    elif not comps.live[-1]:
                        assert not any(below), m
                        seen["none_live"] += 1
                    if -1 not in m:
                        if below:
                            assert cut == below[0], m
                            seen["complete_lowered" if cut else "complete_least"] += 1
                    elif not cut:
                        place()
                    if not cut:
                        comps.live.pop()
                    m[v] = m[u] = -1

            place()
            assert comps.live == [None]
        assert all(seen.values()), seen

    @pytest.mark.parametrize(
        "seq,p,kwargs,classes",
        [
            ((12, 12, 12), 12, {}, 125),
            ((12, 12, 12), 12, {"orientable": True}, 0),
            ((10, 10, 10), 10, {"orientable": True}, 4),
            ((10, 10, 10), 10, {"orientable": False}, 20),
        ],
    )
    def test_single_block_matches_oracle(self, seq, p, kwargs, classes):
        # one {0,1}-block: the prefix is connected, and every duplicate among
        # the last color's matchings is cut in flight, edge by edge, so each
        # candidate met is the first of its class (cut once under
        # ``orientable`` when it is bipartite)
        out = search_gems(SearchSpec(seq=seq, vertex_count=p, **kwargs))
        assert out.stats.exhausted
        got = _class_codes(out.solutions)
        assert got == naive_type_search(seq, p, fix_residue=True, **kwargs)
        assert len(got) == classes
        assert out.stats.candidates == classes + out.stats.prunes.get("orientable", 0)
        assert (out.stats.prunes.get("duplicate", 0) > 0) == (classes > 0)

    @pytest.mark.parametrize(
        "seq,p,builds,classes",
        [((4, 4, 8, 8), 8, 6, 24), ((8, 8, 8), 16, 1, 61)],
    )
    def test_disconnected_prefix_candidates_get_no_code(
        self, monkeypatch, seq, p, builds, classes
    ):
        # the last-color prefixes of (4,4,8,8);8 include disconnected ones,
        # and (8,8,8);16 has a {0,1}-residue of two blocks; each prefix of
        # colors 0..2 is described once, for its key and its orbit test
        # (the 6 of (4,4,8,8);8 once got canonical codes), and the fixed
        # {0,1}-residue once, for its orbit test
        out, built = _built_search(monkeypatch, SearchSpec(seq=seq, vertex_count=p))
        assert out.stats.exhausted and len(out.solutions) == classes
        assert built == builds

    def test_unkeyed_prefix_gets_no_key(self, monkeypatch):
        # a 3-colored search keys no prefix: the fixed {0,1}-residue is
        # described only for the orbit test, so without the parity rule no
        # component is labeled; a 4-colored search keys its prefixes
        calls = 0
        original = gemtk.search._component_key

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(gemtk.search, "_component_key", counted)
        out = search_gems(SearchSpec(seq=(8, 8, 8), vertex_count=16))
        assert out.stats.exhausted and len(out.solutions) == 61
        assert (out.stats.nodes, out.stats.candidates) == (506, 87)
        assert calls == 0
        out = search_gems(SearchSpec(seq=(4, 4, 8, 8), vertex_count=8))
        assert out.stats.exhausted and len(out.solutions) == 24
        assert calls == 10  # one per component of its 6 keyed prefixes

    def test_parity_prefixes_get_no_code(self, monkeypatch):
        # under the parity rule the prefixes get parity-marked keys, so the
        # disconnected prefixes of bipartite (4^3,6);24 are deduplicated too
        # (1,337 candidates when such prefixes were never skipped, 1,017 when
        # duplicates below disconnected prefixes were rejected only as
        # complete candidates); each of its 32 prefixes of colors 0..2 is
        # described once, and 21 of them are skipped
        spec = SearchSpec(seq=(4, 4, 4, 6), vertex_count=24, orientable=True,
                          require_3manifold=True)
        out, built = _built_search(monkeypatch, spec)
        assert out.stats.exhausted and len(out.solutions) == 20
        assert (out.stats.candidates, built) == (30, 32)
        assert out.stats.prunes["duplicate_prefix"] == 21

    def test_plain_key_matches_reference_code(self):
        # without the parity rule a prefix is keyed by its sorted component
        # labelings: equal keys exactly when the brute-force codes are equal
        rng = random.Random(53)
        graphs = []
        for _ in range(60):
            colors = rng.choice((3, 4))
            parts = [
                random_colored_graph(rng, 2 * rng.randint(1, 3), colors)
                for _ in range(rng.randint(1, 2))
            ]
            g = disjoint_union(*parts)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            graphs += [g, relabel(g, perm)]
        keys = [gemtk.search._Components(g, parity=False).key() for g in graphs]
        codes = [reference_canonical_code(g) for g in graphs]
        seen = {"same": 0, "other": 0, "connected": 0}
        for (k1, c1), (k2, c2) in itertools.combinations(zip(keys, codes), 2):
            assert (k1 == k2) == (c1 == c2)
            seen["same" if c1 == c2 else "other"] += 1
        seen["connected"] = sum(map(is_connected, graphs))
        assert seen["same"] > 60 and seen["other"] > 1000
        assert 20 < seen["connected"] < 100

    def test_parity_key_tells_handedness(self):
        # C and its mirror M are isomorphic, but only by swapping parity, so
        # C+C and C+M share a canonical code; their completions differ, as
        # an isomorphism of connected even-odd graphs keeps or swaps parity
        # everywhere, so the parity-marked keys must tell them apart
        twins = disjoint_union(_CHIRAL, _CHIRAL)
        glued = disjoint_union(_CHIRAL, _MIRROR)
        assert canonical_code(twins) == canonical_code(glued)
        keys = [gemtk.search._Components(g, parity=True).key() for g in (twins, glued)]
        assert keys[0] != keys[1]
        # relabeling by an even shift keeps both keys
        for g, key in zip((twins, glued), keys):
            shifted = relabel(g, [(v + 12) % 24 for v in range(24)])
            assert gemtk.search._Components(shifted, parity=True).key() == key

    def test_component_orbit_test_on_chiral_components(self):
        # P = C+M+C has no parity-swapping automorphism, so no image of flag
        # 1 counts; Aut(P) is built here from component permutations and
        # per-component walks, and checked to be automorphisms
        prefix = disjoint_union(_CHIRAL, _MIRROR, _CHIRAL)
        rows = [list(row) for row in prefix.pairings]
        p = len(rows[0])
        auts = _automorphisms_by_components(rows)
        assert len(auts) == 6
        comps = gemtk.search._Components(prefix, parity=True)
        rng = random.Random(41)
        seen = {"lowered": 0, "least": 0, "flag_matters": 0}
        while seen["lowered"] + seen["least"] < 1000:
            m = _even_odd_matching(rng, p)
            if not is_connected(ColoredGraph.from_involutions(rows + [m])):
                continue
            images = _images(auts, m)
            even_odd = [x for x in images if all((v + x[v]) & 1 for v in range(p))]
            lowered = min(even_odd) < m
            assert _least(comps, m) != lowered, m
            seen["lowered" if lowered else "least"] += 1
            seen["flag_matters"] += lowered != (min(images) < m)
        assert seen["lowered"] > 100 and seen["least"] > 100 and seen["flag_matters"] > 0

    def test_group_waits_for_the_second_candidate(self, monkeypatch):
        # the first candidate below a prefix is the least in its orbit, so
        # it needs no group; a 3-colored search has no keyed prefix, and its
        # fixed {0,1}-residue is described once, when color 2 starts, but
        # walked for its group only at the second candidate
        walks = 0
        original = gemtk.search._walk

        def counted(*args):
            nonlocal walks
            walks += 1
            return original(*args)

        monkeypatch.setattr(gemtk.search, "_walk", counted)
        spec = SearchSpec(seq=(200,) * 3, vertex_count=200, max_solutions=1)
        out, built = _built_search(monkeypatch, spec)
        assert (len(out.solutions), out.stats.candidates, built, walks) == (1, 1, 1, 0)
        out, built = _built_search(monkeypatch, SearchSpec(seq=(12,) * 3, vertex_count=12))
        assert out.stats.exhausted and len(out.solutions) == 125
        assert built == 1 and walks > 0

    @pytest.mark.parametrize("seq", [(4, 4, 4, 4), (4,) * 5], ids=["4444-32", "4^5-32"])
    def test_no_walk_before_a_connected_candidate(self, monkeypatch, seq):
        # every candidate these searches meet in their first half second is
        # disconnected (tens of thousands each), so the walk, which starts at
        # the prefix's first connected candidate, builds no component map
        monkeypatch.setattr(gemtk.search, "_walk", lambda *args: pytest.fail("a map was built"))
        out = search_gems(SearchSpec(seq=seq, vertex_count=32, budget_seconds=0.5))
        assert not out.stats.exhausted and not out.solutions
        assert out.stats.candidates == out.stats.prunes["not_connected"] > 0

    @pytest.mark.parametrize(
        "spec,tested,disconnected",
        [
            (SearchSpec(seq=(4, 4, 8, 8), vertex_count=8), 13, 0),
            (SearchSpec(seq=(4, 4, 6, 6), vertex_count=12), 26, 0),
            (SearchSpec(seq=(8, 8, 8), vertex_count=16, orientable=True), 6, 0),
            (SearchSpec(seq=(8, 8, 8), vertex_count=16), 87, 26),
        ],
        ids=["4488-8", "4466-12", "888-16-orientable", "888-16"],
    )
    def test_candidate_connectivity_without_a_view(self, monkeypatch, spec, tested,
                                                   disconnected):
        # below a disconnected last-color prefix, a candidate's connectivity
        # is a union of the prefix's components along the last color's
        # edges; it must agree with a walk of the whole candidate
        original = gemtk.search._Components.connects
        seen = {True: 0, False: 0}

        def checked(comps, m):
            got = original(comps, m)
            rows = [*comps.rows, tuple(m)]
            assert got == is_connected(ColoredGraph(len(rows), len(m), tuple(rows)))
            seen[got] += 1
            return got

        monkeypatch.setattr(gemtk.search._Components, "connects", checked)
        out = search_gems(spec)
        assert out.stats.exhausted
        assert (seen[True] + seen[False], seen[False]) == (tested, disconnected)
        assert seen[False] == out.stats.prunes.get("not_connected", 0)

    def test_connected_group_memory(self):
        # the group of the single 200-vertex block is kept as its 199
        # non-identity maps, each the inverse of another: about 0.5 MB at
        # peak; a coded walk from every vertex took 6.1 MB
        tracemalloc.start()
        try:
            out = search_gems(SearchSpec(seq=(200,) * 3, vertex_count=200, max_solutions=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.solutions) == 2
        assert peak < 2 * 2**20

    def test_disconnected_walk_memory(self):
        # the {0,1}-residue of (4,6,18);72 is 18 blocks, each a component
        # with maps onto all the others, so every last-color edge may branch
        # over many preimages; the live branches peak at about 1 MB
        tracemalloc.start()
        try:
            out = search_gems(SearchSpec(seq=(4, 6, 18), vertex_count=72, orientable=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stats.exhausted and len(out.solutions) == 24
        assert peak < 4 * 2**20


class TestSearchOrder:
    @pytest.mark.parametrize(
        "spec,nodes,candidates,prefixes,closures",
        [
            pytest.param(SearchSpec(seq=(10, 10, 10), vertex_count=10), 82, 24, 0, 0,
                         id="decagons"),
            pytest.param(SearchSpec(seq=(4, 4, 4, 6), vertex_count=24,
                                    require_3manifold=True, max_solutions=1),
                         396, 6, 3, 954, id="first-3manifold"),
            pytest.param(SearchSpec(seq=(4,) * 5, vertex_count=8,
                                    require_residues_sphere=True),
                         130, 21, 3, 0, id="residues"),
            pytest.param(SearchSpec(seq=(4, 4, 4, 4, 6), vertex_count=12,
                                    orientable=True, require_residues_sphere=True),
                         318, 21, 26, 31, id="bipartite-residues"),
        ],
    )
    def test_node_and_candidate_counts_are_pinned(
        self, spec, nodes, candidates, prefixes, closures
    ):
        # exhaustive counts change when the search prunes differently; the
        # first hit's counts also change when partners are tried in another
        # order; a 3-colored search never completes a prefix of 3 colors
        # below the last one, so it skips none
        out = search_gems(spec)
        assert (out.stats.nodes, out.stats.candidates) == (nodes, candidates)
        assert out.stats.prunes.get("duplicate_prefix", 0) == prefixes
        assert out.stats.prunes.get("dead_closure", 0) == closures

    @pytest.mark.parametrize(
        "spec,digest",
        [
            pytest.param(SearchSpec(seq=(10, 10, 10), vertex_count=10), "0b4f1aa3f875ec8a",
                         id="(10^3);10"),
            pytest.param(SearchSpec(seq=(10, 10, 10), vertex_count=10, orientable=False),
                         "55cd1cfa8c4f447d", id="non-orientable-(10^3);10"),
            pytest.param(SearchSpec(seq=(12, 12, 12), vertex_count=12), "9a7cc215b888ffa8",
                         id="(12^3);12"),
            pytest.param(SearchSpec(seq=(4, 4, 8, 8), vertex_count=8), "2366301e8fcbfd07",
                         id="(4,4,8,8);8"),
            pytest.param(SearchSpec(seq=(4, 4, 6, 6), vertex_count=12), "abb2af8f3780e942",
                         id="(4,4,6,6);12"),
            pytest.param(SearchSpec(seq=(6, 6, 6, 6), vertex_count=12, require_3manifold=True),
                         "437101005d3136c6", id="3-manifold-(6^4);12"),
            pytest.param(SearchSpec(seq=(4,) * 5, vertex_count=8, require_residues_sphere=True),
                         "4b58077850afd99d", id="residue-sphere-(4^5);8"),
            pytest.param(SearchSpec(seq=(8, 8, 8), vertex_count=16), "2cea1c7cc74af333",
                         id="(8^3);16"),
        ],
    )
    def test_emitted_graphs_are_pinned(self, spec, digest):
        # the emitted graphs themselves, in their order, not only their
        # number: a change to how duplicates are cut must keep the first
        # candidate of each class, which is what these digests hold
        out = search_gems(spec)
        text = "".join(write_gem(g) for g in out.solutions)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "spec,classes,digest",
        [
            pytest.param(SearchSpec(seq=(4, 4, 4, 6), vertex_count=24, require_3manifold=True),
                         28, "f1f522fd3a83eae25591223f43b265b73ae14becfe72d5b16431913d13c7eaba",
                         id="3-manifold-(4^3,6);24"),
            pytest.param(SearchSpec(seq=(4, 4, 8, 8), vertex_count=16, require_3manifold=True),
                         11, "b5414f8ef6340f0fd4ae387b621f14aad0939d36ec5f7e8c645ece128d9cb8ea",
                         id="3-manifold-(4,4,8,8);16"),
            pytest.param(SearchSpec(seq=(4, 6, 36), vertex_count=36, orientable=False),
                         144, "0a9a11e460d9d2cf3ca7cba25cc247cfbb9f45299eba67a4f003dd8ce0fb057e",
                         id="non-orientable-(4,6,36);36"),
        ],
    )
    def test_class_codes_are_pinned(self, spec, classes, digest):
        # the classes themselves, as their sorted canonical codes: these
        # searches cut most duplicates below disconnected last-color
        # prefixes, and the digests were taken when such duplicates were
        # still rejected only as complete candidates
        out = search_gems(spec)
        assert out.stats.exhausted
        codes = sorted(_class_codes(out.solutions))
        assert len(codes) == classes
        assert hashlib.sha256("\n".join(codes).encode()).hexdigest() == digest


class TestLimitsAndCounting:
    def test_max_solutions_stops_early(self):
        spec = SearchSpec(seq=(4, 4, 8, 8), vertex_count=8, max_solutions=1)
        out = search_gems(spec)
        assert len(out.solutions) == 1
        assert not out.stats.exhausted

    def test_budget_reported_distinctly(self):
        with pytest.raises(SearchBudgetExceeded):
            count_nonisomorphic(
                SearchSpec(seq=(4, 4, 4, 6), vertex_count=24, budget_seconds=0.05)
            )

    def test_budget_is_checked_before_each_candidate(self):
        # the node counter checks the clock only every 1,024 nodes; without
        # a check per candidate this run builds 228 candidates past the
        # deadline, and a zero budget must not read as no budget
        for budget in (1e-9, 0):
            out = search_gems(
                SearchSpec(seq=(4, 4, 4), vertex_count=24, max_solutions=None,
                           budget_seconds=budget)
            )
            assert out.stats.candidates <= 1
            assert out.stats.exhausted is False

    def test_decagon_count_exhausts(self):
        spec = SearchSpec(seq=(10, 10, 10), vertex_count=10)
        n = count_nonisomorphic(spec)
        assert n == 24
        out = search_gems(spec)
        assert out.stats.exhausted and len(out.solutions) == n

    @pytest.mark.parametrize(
        "seq,classes",
        [((4, 6, 4, 6), 4), ((4, 4, 6, 6), 5), ((4, 4, 4, 12), 1)],
    )
    def test_twelve_vertex_3manifold_counts_exhaust(self, seq, classes):
        spec = SearchSpec(
            seq=seq, vertex_count=12, require_3manifold=True, budget_seconds=60
        )
        assert count_nonisomorphic(spec) == classes

    @pytest.mark.parametrize(
        "seq,p,kwargs,classes",
        [
            ((4, 4, 4, 8), 16, {"require_3manifold": True}, 6),
            ((8, 8, 8), 16, {}, 61),
            ((4, 8, 8), 16, {}, 7),
            ((4, 4, 4, 4), 16, {"orientable": True}, 6),
            ((4, 4, 4, 4, 6), 12,
             {"require_residues_sphere": True, "orientable": True}, 7),
            ((4, 6, 18), 72, {"orientable": True}, 24),
            ((4, 8, 10), 80, {"orientable": True}, 51),
            # each loses classes if the orbit test ignores the parity flag
            ((8, 8, 8), 16, {"orientable": True}, 6),
            ((6, 6, 6), 18, {"orientable": True}, 2),
            ((4, 4, 6, 6), 12, {"orientable": False}, 36),
            ((8, 8, 8), 16, {"orientable": False}, 55),
            ((6, 6, 6), 18, {"orientable": False}, 2),
            ((4, 4, 4, 6), 24, {"require_3manifold": True, "orientable": False}, 8),
            ((4, 6, 36), 36, {"orientable": False}, 144),
        ],
    )
    def test_multi_block_counts_exhaust(self, seq, p, kwargs, classes):
        spec = SearchSpec(seq=seq, vertex_count=p, budget_seconds=60, **kwargs)
        assert count_nonisomorphic(spec) == classes

    def test_deep_search_does_not_recurse(self):
        # 1200 edges per color: one Python frame per edge would overflow
        out = search_gems(
            SearchSpec(seq=(4, 4, 4), vertex_count=2400, max_solutions=1,
                       budget_seconds=1)
        )
        assert out.stats.nodes > 0


class TestEmittedSolutionChecks:
    """Candidates are decided on the search state; the public validation and
    type re-check run once per emitted solution."""

    def test_checks_run_once_per_class(self, monkeypatch):
        # the single {0,1}-block is a connected prefix, described once for
        # the orbit test of its candidates; the search has no canonical code
        assert not hasattr(gemtk.search, "canonical_code")
        calls = {"validate": 0, "semi_equivelar_type": 0, "_Components": 0}
        for name in calls:
            original = getattr(gemtk.search, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(gemtk.search, name, counted)
        out = search_gems(SearchSpec(seq=(10, 10, 10), vertex_count=10))
        assert (out.stats.candidates, len(out.solutions)) == (24, 24)
        assert calls == {"validate": 24, "semi_equivelar_type": 24, "_Components": 1}

    def test_filter_check_runs_once_per_solution(self, monkeypatch):
        # every filter part is decided once per prefix, by whole-graph counts
        # and one second boundary per 4-colored residue, reduced one
        # component block at a time; the whole check runs only on the
        # emitted solutions, and no residue is copied nor full homology
        # computed
        calls = {
            "check_residues_sphere": 0,
            "smith_normal_form": 0,
            "residue_subgraph": 0,
            "graph_homology": 0,
            "check_3manifold": 0,
        }
        for module, name in (
            (gemtk.search, "check_residues_sphere"),
            (gemtk.complexes, "smith_normal_form"),
            (gemtk.search, "residue_subgraph"),
            (gemtk.complexes, "residue_subgraph"),
            (gemtk.search, "graph_homology"),
            (gemtk.complexes, "graph_homology"),
            (gemtk.search, "check_3manifold"),
            (gemtk.complexes, "check_3manifold"),
        ):
            if not hasattr(module, name):
                continue  # not imported there, so no call goes through it
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        out = search_gems(
            SearchSpec(seq=(4,) * 5, vertex_count=8, require_residues_sphere=True)
        )
        assert (out.stats.candidates, len(out.solutions)) == (21, 5)
        assert calls["check_residues_sphere"] == 5
        # the parts reduce one block per distinct residue component, 8 where
        # they reduced 37 without the search's verdict dict, and the 5 whole
        # checks reduce their 30 blocks uncached; duplicates make none: their
        # last-color edges are cut in flight, below connected and
        # disconnected prefixes alike
        assert calls["smith_normal_form"] == 38
        assert calls["residue_subgraph"] == 0
        assert calls["graph_homology"] == 0
        assert calls["check_3manifold"] == 0

    def test_sphere_verdicts_do_not_outlive_a_search(self, monkeypatch):
        # each search keeps its own component verdicts: a second search of
        # the same spec reduces the same blocks again
        calls = []
        original = gemtk.complexes.smith_normal_form

        def counted(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(gemtk.complexes, "smith_normal_form", counted)
        spec = SearchSpec(seq=(4,) * 5, vertex_count=8, require_residues_sphere=True)
        for _ in range(2):
            calls.clear()
            assert len(search_gems(spec).solutions) == 5
            assert len(calls) == 38

    def test_filter_recheck_still_fires(self, monkeypatch):
        # the parts pass, but the whole check that re-verifies each emitted
        # solution fails: both filters must raise naming their prune key
        failing = SimpleNamespace(holds=False)
        monkeypatch.setattr(gemtk.search, "check_3manifold", lambda graph: failing)
        monkeypatch.setattr(gemtk.search, "check_residues_sphere", lambda graph: failing)
        with pytest.raises(RuntimeError, match="criterion_3manifold"):
            search_gems(
                SearchSpec(seq=(4, 8, 4, 8), vertex_count=8, require_3manifold=True,
                           max_solutions=1)
            )
        with pytest.raises(RuntimeError, match="criterion_residues"):
            search_gems(
                SearchSpec(seq=(4,) * 5, vertex_count=8, require_residues_sphere=True,
                           max_solutions=1)
            )

    def test_type_recheck_still_fires(self, monkeypatch):
        monkeypatch.setattr(gemtk.search, "semi_equivelar_type", lambda graph: None)
        with pytest.raises(RuntimeError, match="non-conforming"):
            search_gems(SearchSpec(seq=(4, 4, 4), vertex_count=8, max_solutions=1))
