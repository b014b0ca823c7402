import gc
import itertools
import random
import timeit
import weakref

import pytest

from gemtk import (
    GemValidationError,
    SearchSpec,
    canonical_code,
    connected_components,
    is_bipartite,
    is_connected,
    residue_components,
    residue_stats,
    residue_subgraph,
    search_gems,
    validate,
)
from gemtk.embeddings import CyclicOrder, trace_faces
from gemtk.graphs import (
    COLOR_GAP,
    LOOP_EDGE,
    NOT_A_MATCHING,
    ODD_VERTEX_COUNT,
    ColoredGraph,
    odd_components,
)

from helpers import (
    brute_force_isomorphic,
    cube_graph,
    dihedral_gem,
    disjoint_union,
    k4_graph,
    random_colored_graph,
    random_matching,
    reference_canonical_code,
    reference_defects,
    relabel,
    theta_graph,
)


def shuffled(rng, g):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return relabel(g, perm)


def assert_matches_reference(g):
    assert canonical_code(g) == reference_canonical_code(g)


def _defects(n, p, pairings):
    """The defect list that ``validate`` raises, empty if it raises none."""
    try:
        validate(n, p, pairings)
    except GemValidationError as err:
        return err.defects
    return []


class TestValidate:
    def test_cube_is_valid(self):
        g = cube_graph()
        assert g.vertex_count == 8
        assert g.color_count == 3
        for c in range(3):
            assert sorted(v for pair in g.pairs(c) for v in pair) == list(range(8))

    def test_loop_edge(self):
        defects = _defects(3, 4, [[(0, 1), (3, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]])
        assert any(d.kind == LOOP_EDGE and d.color == 0 and d.vertex == 3 for d in defects)

    def test_short_pairing_is_not_a_matching(self):
        pairs = {0: [(0, 1), (2, 3), (4, 5), (6, 7)],
                 1: [(0, 2), (1, 3), (4, 6)],
                 2: [(0, 4), (1, 5), (2, 6), (3, 7)]}
        defects = _defects(3, 8, pairs)
        assert any(d.kind == NOT_A_MATCHING and d.color == 1 for d in defects)

    def test_odd_vertex_count(self):
        defects = _defects(2, 3, [[(0, 1)], [(0, 2)]])
        assert any(d.kind == ODD_VERTEX_COUNT for d in defects)

    def test_color_gap(self):
        defects = _defects(3, 2, {0: [(0, 1)], 2: [(0, 1)], 5: [(0, 1)]})
        kinds = [d for d in defects if d.kind == COLOR_GAP]
        assert any(d.color == 1 for d in kinds)  # missing
        assert any(d.color == 5 for d in kinds)  # out of range

    def test_all_defects_collected(self):
        # odd p, loop, and duplicate pairing in one call
        defects = _defects(2, 5, [[(0, 0), (1, 2), (1, 3)], [(0, 1), (2, 3)]])
        kinds = {d.kind for d in defects}
        assert ODD_VERTEX_COUNT in kinds
        assert LOOP_EDGE in kinds
        assert NOT_A_MATCHING in kinds

    @pytest.mark.parametrize(
        "lists, expected",
        [
            ([[(0, 1), (2, 3)]], ["ColorGap color=1 colors 1..2 have no pairing"]),
            (
                [[(0, 1), (2, 3)]] * 5,
                [f"ColorGap color={c} color outside 0..color_count-1" for c in (3, 4)],
            ),
            (
                [[(0, 1), (1, 2)], [(0, 1), (2, 2)], [(0, 2), (1, 3)]],
                [
                    "NotAMatching color=0 vertex=1 vertex paired more than once",
                    "NotAMatching color=0 vertex=3 vertex left unpaired",
                    "LoopEdge color=1 vertex=2",
                    "NotAMatching color=1 vertex=2 vertex left unpaired",
                    "NotAMatching color=1 vertex=3 vertex left unpaired",
                ],
            ),
        ],
        ids=["too-short", "too-long", "loop-and-twice-paired"],
    )
    def test_both_pairing_forms_give_one_defect_list(self, lists, expected):
        # a sequence is read as the mapping of its indices: one gap rule
        defects = _defects(3, 4, lists)
        assert defects == _defects(3, 4, dict(enumerate(lists)))
        assert [str(d) for d in defects] == expected

    def test_validate_raises_with_defect_list(self):
        with pytest.raises(GemValidationError) as err:
            validate(3, 4, [[(0, 1), (2, 2)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]])
        assert any(d.kind == LOOP_EDGE for d in err.value.defects)

    @staticmethod
    def _mutated_pairings(rng):
        """n random perfect matchings on p vertices, with one to three defects put in."""
        n, p = rng.randint(2, 5), 2 * rng.randint(1, 6)
        lists = []
        for _ in range(n):
            inv = random_matching(rng, p)
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for v, u in enumerate(inv) if v < u]
            rng.shuffle(pairs)
            lists.append(pairs)
        mutations = ["drop", "twice", "loop", "out-of-range", "extra-color", "missing-color",
                     "odd-p"]
        for kind in rng.sample(mutations, rng.randint(1, 3)):
            pairs = rng.choice(lists)
            at = rng.randint(0, len(pairs))
            if kind == "drop":
                del pairs[rng.randrange(len(pairs))]
            elif kind == "twice" and pairs:
                a, _ = rng.choice(pairs)
                pairs.insert(at, (a, rng.randrange(p)))
            elif kind == "loop":
                v = rng.randrange(p)
                pairs.insert(at, (v, v))
            elif kind == "out-of-range":
                pairs.insert(at, (rng.randrange(p), rng.choice([-1, p, p + 3])))
            elif kind == "extra-color":
                lists.append(list(rng.choice(lists)))
            elif kind == "missing-color":
                del lists[rng.randrange(len(lists))]
            elif kind == "odd-p":
                p += rng.choice([-1, 1])
        return n, p, lists

    def test_defects_match_reference_on_mutated_pairings(self):
        # the one-pass validation reports exactly the dict-and-scan
        # reference's defects, in its order, for both forms of the pairings
        rng = random.Random(20261020)
        for _ in range(600):
            n, p, lists = self._mutated_pairings(rng)
            mapping = dict(enumerate(lists))
            if rng.random() < 0.5:
                del mapping[rng.choice(list(mapping))]
            for pairings in (lists, mapping):
                want = [str(d) for d in reference_defects(n, p, pairings)]
                try:
                    validate(n, p, pairings)
                    assert not want
                except GemValidationError as err:
                    assert want and [str(d) for d in err.defects] == want


class TestResidues:
    def test_empty_subset_gives_singletons(self):
        g = cube_graph()
        assert residue_components(g, []) == [(v,) for v in range(8)]

    def test_full_subset_connected(self):
        assert len(residue_components(cube_graph(), range(3))) == 1
        assert is_connected(theta_graph())

    def test_color_outside_range(self):
        with pytest.raises(ValueError):
            residue_components(theta_graph(), [0, 3])

    def test_theta_residue_stats(self):
        stats = residue_stats(theta_graph())
        assert all(count == 1 for count in stats.values())

    def test_cube_pair_residues(self):
        g = cube_graph()
        # each 2-color residue of the 3-cube splits along the remaining axis
        for pair in [(0, 1), (0, 2), (1, 2)]:
            assert len(residue_components(g, pair)) == 2

    def test_coarsening_and_cover(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_colored_graph(rng, rng.choice([4, 6, 8]), rng.choice([3, 4]))
            subsets = [(0, 1), (0, 1, 2), tuple(range(g.color_count))]
            for small, large in zip(subsets, subsets[1:]):
                assert len(residue_components(g, small)) >= len(residue_components(g, large))
            for subset in subsets:
                classes = residue_components(g, subset)
                assert sum(len(c) for c in classes) == g.vertex_count

    def test_returned_lists_are_copies(self):
        # a caller that changes a returned list leaves the graph's table alone
        g = cube_graph()
        pairs = residue_components(g, [1, 0])
        expected = list(pairs)
        pairs[0] = (99,)
        pairs.append((0, 1))
        assert residue_components(g, [0, 1]) == expected
        whole = connected_components(g)
        whole.append((8,))
        assert connected_components(g) == [tuple(range(8))]
        assert is_connected(g)
        assert residue_stats(g)[0, 1] == 2

    def test_table_is_not_a_field(self):
        g = cube_graph()
        fresh = cube_graph()
        residue_components(g, [0, 1])
        assert g == fresh
        assert hash(g) == hash(fresh)
        assert "residues" not in vars(fresh)

    def test_graph_and_table_form_no_cycle(self):
        # freed by reference counting, not left for the cyclic collector
        g = cube_graph()
        assert is_connected(g)
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            gc.enable()

    def test_bicolored_residues_are_even_cycles(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_colored_graph(rng, 8, 3)
            for pair in [(0, 1), (0, 2), (1, 2)]:
                classes = residue_components(g, pair)
                assert sum(len(c) for c in classes) == 8
                assert all(len(c) % 2 == 0 for c in classes)


def oracle_components(graph, colors):
    """Sorted components by a stack walk over the edges of ``colors``."""
    seen, comps = set(), []
    for start in range(graph.vertex_count):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for c in colors:
                u = graph.pairings[c][v]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def contract_graphs():
    """Seeded 2-5-colored graphs on 2-10 vertices, with disjoint unions
    shuffled so that their components interleave, and the 2-vertex graph
    whose every pair residue is a bigon."""
    rng = random.Random(28)
    graphs = []
    for colors in range(2, 6):
        graphs.append(ColoredGraph.from_involutions([[1, 0]] * colors))
        for _ in range(25):
            graphs.append(random_colored_graph(rng, rng.choice([2, 4, 6, 8, 10]), colors))
            union = disjoint_union(
                random_colored_graph(rng, rng.choice([2, 4, 6]), colors),
                random_colored_graph(rng, rng.choice([2, 4, 6]), colors),
            )
            graphs.append(shuffled(rng, union))
    return graphs


class TestResidueTable:
    """Components of ``graph.residues`` are ordered by least vertex and each
    starts at it; a color pair's are its cycles, and only the public
    wrappers sort."""

    graphs = contract_graphs()

    def test_graphs_cover_bigons_and_disconnected(self):
        assert sum(not is_connected(g) for g in self.graphs) > 50
        bigons = [
            g for g in self.graphs
            if any(len(c) == 2 for c in g.residues.components((0, 1)))
        ]
        assert len(bigons) > 50

    def test_pair_components_are_cycles_from_the_least_vertex(self):
        for g in self.graphs:
            for lo, hi in itertools.combinations(g.colors, 2):
                cycles = g.residues.components((lo, hi))
                assert sorted(v for c in cycles for v in c) == list(range(g.vertex_count))
                for c in cycles:
                    assert c[0] == min(c)
                    steps = [g.pairings[lo if i % 2 == 0 else hi] for i in range(len(c))]
                    assert [inv[v] for inv, v in zip(steps, c)] == [*c[1:], c[0]]

    def test_pair_components_equal_traced_faces(self):
        for g in self.graphs:
            n = g.color_count
            for a, b in itertools.combinations(g.colors, 2):
                rest = [c for c in range(n) if c not in (a, b)]
                eps = CyclicOrder.from_sequence([a, b, *rest])
                pairs = [tuple(sorted(pair)) for pair in eps.pairs()]
                assert trace_faces(g, eps)[pairs.index((a, b))] == g.residues.components((a, b))

    def test_components_start_at_their_least_vertex_in_order(self):
        for g in self.graphs:
            for size in range(g.color_count + 1):
                for colors in itertools.combinations(g.colors, size):
                    comps = g.residues.components(colors)
                    assert all(c[0] == min(c) for c in comps)
                    assert [c[0] for c in comps] == sorted(c[0] for c in comps)

    def test_wrappers_return_sorted_components(self):
        unsorted = 0
        for g in self.graphs:
            for size in range(g.color_count + 1):
                for colors in itertools.combinations(g.colors, size):
                    expected = oracle_components(g, colors)
                    assert residue_components(g, colors) == expected
                    unsorted += g.residues.components(colors) != tuple(expected)
            assert connected_components(g) == oracle_components(g, g.colors)
        assert unsorted > 100  # the table itself does not sort


class TestBipartite:
    def test_known_graphs(self):
        assert is_bipartite(theta_graph())
        assert is_bipartite(cube_graph())
        assert not is_bipartite(k4_graph())

    def test_against_parity_bfs_oracle(self):
        def oracle(g):
            side = {}
            for start in range(g.vertex_count):
                if start in side:
                    continue
                side[start] = 0
                stack = [start]
                while stack:
                    v = stack.pop()
                    for c in g.colors:
                        u = g.pairings[c][v]
                        if u not in side:
                            side[u] = 1 - side[v]
                            stack.append(u)
                        elif side[u] == side[v]:
                            return False
            return True

        rng = random.Random(3)
        for _ in range(50):
            g = random_colored_graph(rng, rng.choice([4, 6, 8, 10]), rng.choice([3, 4]))
            assert is_bipartite(g) == oracle(g)

    def test_odd_components_per_component(self):
        # one flag per component, by least vertex: is it not bipartite?
        rng = random.Random(5)
        flags = set()
        for _ in range(60):
            parts = [
                random_colored_graph(rng, rng.choice([2, 4, 6]), 3)
                for _ in range(rng.randint(1, 3))
            ]
            g = disjoint_union(*parts)
            expected = [
                not is_bipartite(residue_subgraph(g, g.colors, comp))
                for comp in connected_components(g)
            ]
            assert list(odd_components(g)) == expected
            flags.update(expected)
        assert flags == {False, True}

    def test_walk_stops_at_the_first_odd_edge(self):
        # is_bipartite reads no vertex of a component after the first odd one
        class Counted(tuple):
            reads = 0

            def __getitem__(self, v):
                Counted.reads += 1
                return tuple.__getitem__(self, v)

        g = disjoint_union(k4_graph(), cube_graph(), cube_graph())
        g = ColoredGraph(3, g.vertex_count, tuple(map(Counted, g.pairings)))
        assert not is_bipartite(g)
        assert Counted.reads <= 3 * 4
        Counted.reads = 0
        assert list(odd_components(g)) == [True, False, False]
        assert Counted.reads == 3 * g.vertex_count


class TestCanonicalCode:
    def test_relabel_invariance(self):
        rng = random.Random(19)
        for g in [theta_graph(), cube_graph(), k4_graph()]:
            code = canonical_code(g)
            for _ in range(200):
                perm = list(range(g.vertex_count))
                rng.shuffle(perm)
                assert canonical_code(relabel(g, perm)) == code

    def test_relabel_invariance_random_graphs(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_colored_graph(rng, rng.choice([4, 6, 8]), 3)
            code = canonical_code(g)
            for _ in range(10):
                perm = list(range(g.vertex_count))
                rng.shuffle(perm)
                assert canonical_code(relabel(g, perm)) == code

    def test_different_vertex_counts_differ(self):
        assert canonical_code(cube_graph()) != canonical_code(k4_graph())

    def test_nonisomorphic_same_size_differ(self):
        # the cube and the disjoint double of the K4 coloring share (p, d)
        k4 = k4_graph()
        double = validate(
            3,
            8,
            [
                [(0, 1), (2, 3), (4, 5), (6, 7)],
                [(0, 2), (1, 3), (4, 6), (5, 7)],
                [(0, 3), (1, 2), (4, 7), (5, 6)],
            ],
        )
        cube = cube_graph()
        assert not brute_force_isomorphic(cube, double)
        assert canonical_code(cube) != canonical_code(double)

    def test_codes_agree_with_brute_force(self):
        rng = random.Random(31)
        graphs = [random_colored_graph(rng, 6, 3) for _ in range(12)]
        for i, g1 in enumerate(graphs):
            for g2 in graphs[i + 1 :]:
                same_code = canonical_code(g1) == canonical_code(g2)
                assert same_code == brute_force_isomorphic(g1, g2)


class TestCanonicalCodeMatchesExhaustive:
    """The pruned canonical code equals, byte for byte, the lexicographic
    minimum over a breadth-first labeling from every vertex."""

    def test_random_graphs(self):
        rng = random.Random(41)
        for k in range(3000):
            p = rng.randrange(2, 25, 2)
            colors = rng.randint(2, 6)
            if k % 3 or p < 4:
                g = random_colored_graph(rng, p, colors)
            else:
                # disjoint unions, some of two identical parts
                q = rng.randrange(2, p - 1, 2)
                part = random_colored_graph(rng, q, colors)
                other = part if p == 2 * q else random_colored_graph(rng, p - q, colors)
                g = disjoint_union(part, other)
            assert_matches_reference(g)

    @pytest.mark.parametrize(
        "seq,p,classes",
        [((10, 10, 10), 10, 24), ((4, 4, 8, 8), 8, 24), ((6, 6, 6), 6, 2), ((8, 8, 8), 16, 61)],
    )
    def test_search_solutions(self, seq, p, classes):
        rng = random.Random(43)
        solutions = search_gems(SearchSpec(seq=seq, vertex_count=p)).solutions
        assert len(solutions) == classes
        for g in solutions:
            assert_matches_reference(g)
            assert_matches_reference(shuffled(rng, g))

    def test_symmetric_gems(self):
        rng = random.Random(47)
        for g in [theta_graph(), cube_graph(), k4_graph(), dihedral_gem(48, (0, 1, 5))]:
            assert_matches_reference(g)
            h = shuffled(rng, g)
            assert_matches_reference(h)
            assert canonical_code(h) == canonical_code(g)

    def test_many_tiny_components_stay_linear(self):
        # one label array serves every start, and a walk resets only what it
        # labeled: the two codes take about 0.03 s (2-vCPU Xeon), while
        # resetting all p = 2,000 labels per start takes about 0.3 s
        g = disjoint_union(*[theta_graph()] * 1000)
        h = shuffled(random.Random(53), g)
        theta = ",".join(str(v ^ 1) for v in range(2000))
        assert canonical_code(g) == canonical_code(h) == "3:2000:" + ";".join([theta] * 3)
        seconds = timeit.repeat(
            lambda: (canonical_code(g), canonical_code(h)), number=1, repeat=3
        )
        assert min(seconds) < 0.2


class TestSubgraph:
    def test_residue_subgraph_relabels(self):
        g = cube_graph()
        comps = residue_components(g, [0, 1])
        sub = residue_subgraph(g, [0, 1], comps[0])
        assert sub.vertex_count == 4
        assert sub.color_count == 2
        assert len(connected_components(sub)) == 1

    def test_color_out_of_range_raises(self):
        # the same rule as residue_components: -1 must not index color 2
        g = cube_graph()
        for colors in ([-1, 0], [0, 3]):
            with pytest.raises(ValueError, match="outside 0..2"):
                residue_subgraph(g, colors, range(8))

    def test_not_closed_raises(self):
        g = cube_graph()
        with pytest.raises(ValueError):
            residue_subgraph(g, [0, 1, 2], [0, 1, 2])
