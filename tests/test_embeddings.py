import itertools
import random
from dataclasses import asdict
from fractions import Fraction

import pytest

from gemtk import (
    ColoredGraph,
    CyclicOrder,
    all_embeddings,
    canonical_cycle,
    embedding_report,
    is_bipartite,
    is_connected,
    semi_equivelar_type,
    trace_faces,
    validate,
)
from gemtk.census import distinct_arrangements
from gemtk.embeddings import _cyclic_orders
from gemtk.search import SearchSpec, search_gems

from helpers import (
    cube_graph,
    disjoint_union,
    k4_graph,
    random_connected_graph,
    random_matching,
    theta_graph,
)


class TestCyclicOrder:
    def test_rotation_canonicalized(self):
        assert CyclicOrder.from_sequence([1, 2, 0]).order == (0, 1, 2)

    def test_reflection_canonicalized(self):
        assert CyclicOrder.from_sequence([0, 2, 1]).order == (0, 1, 2)
        assert CyclicOrder.from_sequence([0, 3, 2, 1]).order == (0, 1, 2, 3)

    def test_nontrivial_class_survives(self):
        assert CyclicOrder.from_sequence([0, 2, 1, 3]).order == (0, 2, 1, 3)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            CyclicOrder.from_sequence([0, 1, 1])
        with pytest.raises(ValueError):
            CyclicOrder.from_sequence([0, 1, 3])

    def test_pairs_wrap_around(self):
        eps = CyclicOrder.from_sequence([0, 1, 2])
        assert eps.pairs() == ((0, 1), (1, 2), (2, 0))


class TestTraceFaces:
    def test_theta_all_bigons(self):
        trace = trace_faces(theta_graph())
        assert sum(map(len, trace)) == 3
        for per_class in trace:
            assert len(per_class) == 1
            assert len(per_class[0]) == 2

    def test_cube_six_squares(self):
        trace = trace_faces(cube_graph())
        assert sum(map(len, trace)) == 6
        for per_class in trace:
            assert sorted(len(c) for c in per_class) == [4, 4]

    def test_decagon_type_single_cycle_per_class(self):
        out = search_gems(
            SearchSpec(seq=(10, 10, 10), vertex_count=10, orientable=True,
                       max_solutions=1)
        )
        trace = trace_faces(out.solutions[0])
        assert [len(per_class) for per_class in trace] == [1, 1, 1]
        assert sum(map(len, trace)) == 3

    def test_partition_per_class(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_connected_graph(rng, 8, 3)
            trace = trace_faces(g)
            for per_class in trace:
                flat = sorted(v for cyc in per_class for v in cyc)
                assert flat == list(range(8))
                assert all(len(cyc) % 2 == 0 for cyc in per_class)

    def test_direction_independent(self):
        # walking each traced cycle from an arbitrary vertex leading with the
        # other color reproduces a rotation/reflection of the same cycle
        rng = random.Random(9)
        g = random_connected_graph(rng, 10, 3)
        trace = trace_faces(g)
        for (a, b), per_class in zip(CyclicOrder.identity(3).pairs(), trace):
            lo, hi = min(a, b), max(a, b)
            for cyc in per_class:
                variants = {cyc[s:] + cyc[:s] for s in range(len(cyc))}
                variants |= {tuple(reversed(v)) for v in variants}
                start = rng.choice(cyc)
                walk = []
                v = start
                use_hi = True
                while True:
                    walk.append(v)
                    v = g.pairings[hi if use_hi else lo][v]
                    use_hi = not use_hi
                    if v == start and use_hi:
                        break
                assert tuple(walk) in variants


class TestEmbeddingReport:
    def test_theta(self):
        rep = embedding_report(theta_graph())
        assert (rep.chi, rep.orientable, rep.genus) == (2, True, 0)
        assert rep.has_bigons
        assert rep.se_type is None

    def test_cube(self):
        rep = embedding_report(cube_graph())
        assert (rep.chi, rep.orientable, rep.genus) == (2, True, 0)
        assert rep.se_type == (4, 4, 4)

    def test_k4(self):
        rep = embedding_report(k4_graph())
        assert (rep.chi, rep.orientable, rep.genus) == (1, False, 1)

    def test_octagon_gem_genus_two(self):
        out = search_gems(
            SearchSpec(seq=(8, 8, 8), vertex_count=16, orientable=True,
                       max_solutions=1)
        )
        rep = embedding_report(out.solutions[0])
        assert rep.vertex_count == 16
        assert rep.edge_count == 24
        assert rep.face_count == 6
        assert (rep.chi, rep.orientable, rep.genus) == (-2, True, 2)

    def test_disconnected_rejected(self):
        double_theta = validate(
            3, 4, [[(0, 1), (2, 3)]] * 3
        )
        for g in (double_theta, disjoint_union(cube_graph(), k4_graph())):
            for call in (embedding_report, all_embeddings):
                with pytest.raises(ValueError, match="embedding reports need a connected graph"):
                    call(g)

    def test_chi_parity_and_bound(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_connected_graph(rng, rng.choice([6, 8, 10]), 3)
            rep = embedding_report(g)
            assert rep.chi <= 2
            assert rep.chi == rep.vertex_count - rep.edge_count + rep.face_count
            if is_bipartite(g):
                assert rep.chi % 2 == 0


class TestSemiEquivelarType:
    def test_cube(self):
        se = semi_equivelar_type(cube_graph())
        assert se == (4, 4, 4)
        assert canonical_cycle(se) == (4, 4, 4)

    def test_mixed_lengths_refused(self):
        # the {0,1} residue splits into a bigon and a 6-cycle
        g = validate(
            3,
            8,
            [
                [(0, 1), (2, 3), (4, 5), (6, 7)],
                [(0, 1), (2, 4), (3, 6), (5, 7)],
                [(0, 2), (1, 3), (4, 6), (5, 7)],
            ],
        )
        assert semi_equivelar_type(g) is None

    def test_bigons_refused(self):
        assert semi_equivelar_type(theta_graph()) is None

    def test_alternating_type_raw_vs_canonical(self):
        out = search_gems(
            SearchSpec(seq=(4, 8, 4, 8), vertex_count=8, require_3manifold=True,
                       max_solutions=1)
        )
        se = semi_equivelar_type(out.solutions[0])
        assert se == (4, 8, 4, 8)
        assert canonical_cycle(se) == (4, 8, 4, 8)

    def test_counting_relation_consistency(self):
        out = search_gems(
            SearchSpec(seq=(6, 6, 18), vertex_count=18, orientable=True,
                       max_solutions=1)
        )
        g = out.solutions[0]
        rep = embedding_report(g)
        se = rep.se_type
        total = 1 - Fraction(g.color_count, 2) + sum(Fraction(1, q) for q in se)
        assert total == Fraction(rep.chi, g.vertex_count)


class TestAllEmbeddings:
    def test_class_counts(self):
        assert len(all_embeddings(cube_graph())) == 1
        four = ColoredGraph.from_involutions(
            [[v ^ 1 for v in range(4)], [v ^ 2 for v in range(4)],
             [v ^ 3 for v in range(4)], [v ^ 1 for v in range(4)]]
        )
        assert len(all_embeddings(four)) == 3
        five = ColoredGraph.from_involutions([[1, 0]] * 5)
        assert len(all_embeddings(five)) == 12

    def test_orders_listed_up_to_eight_colors(self):
        # 7!/2 = 2,520 orders for 8 colors; 9 colors (20,160 orders) raise
        # before any order is made, while a single order works at any count
        assert len(all_embeddings(ColoredGraph.from_involutions([[1, 0]] * 8))) == 2520
        nine = ColoredGraph.from_involutions([[1, 0]] * 9)
        with pytest.raises(ValueError, match="9 colors have 20,160 cyclic orders"):
            all_embeddings(nine)
        twelve = ColoredGraph.from_involutions([[1, 0]] * 12)
        assert (embedding_report(nine).chi, embedding_report(twelve).chi) == (2, 2)

    def test_cyclic_orders_are_the_distinct_arrangements(self):
        # the orders are made directly, (n-1)!/2 of them, instead of by
        # canonicalizing all n! permutations; element for element they are
        # the census's sorted rotation/reflection classes
        for n in range(1, 9):
            orders = [eps.order for eps in _cyclic_orders(n)]
            assert orders == distinct_arrangements(range(n))
            assert all(CyclicOrder.from_sequence(order).order == order for order in orders)

    def test_six_colors_with_parallel_classes(self):
        # three parallel pairs of matchings; every consecutive class is a
        # quadrilateral, so the trace must cope with heavy parallel edges
        m1 = [1, 0, 3, 2]
        m2 = [2, 3, 0, 1]
        g = ColoredGraph.from_involutions([m1, m2, m1, m2, m1, m2])
        rep = embedding_report(g)
        assert (rep.chi, rep.orientable) == (-2, True)
        se = semi_equivelar_type(g)
        assert se == (4,) * 6

    def test_reports_match_direct_calls(self):
        # the cube and 200 connected graphs of 2 to 5 colors, bipartite and
        # not, with and without bigons: every report, field by field, is the
        # one that embedding_report gives its order alone, and its faces are
        # those that trace_faces walks without the residue table
        g = cube_graph()
        for eps, rep in all_embeddings(g).items():
            assert rep == embedding_report(g, eps)
        rng = random.Random(25)
        seen = set()
        for _ in range(200):
            n = rng.choice([2, 3, 4, 5])
            bipartite, bigons = rng.random() < 0.5, rng.random() < 0.5
            p = rng.choice([2, 4, 6, 8] if bigons else [16, 20, 24])
            g = _random_gem(rng, n, p, bipartite, bigons)
            reports = all_embeddings(g)
            assert set(reports) == {
                CyclicOrder.from_sequence(perm) for perm in itertools.permutations(range(n))
            }
            assert {eps: asdict(r) for eps, r in reports.items()} == {
                eps: asdict(embedding_report(g, eps)) for eps in reports
            }
            for eps, rep in reports.items():
                faces = [c for cycles in trace_faces(g, eps) for c in cycles]
                assert rep.face_count == len(faces)
                assert rep.has_bigons == any(len(c) == 2 for c in faces)
                assert rep.se_type == semi_equivelar_type(g, eps)
            seen.add((n, is_bipartite(g), any(r.has_bigons for r in reports.values())))
        flags = (True, False)
        assert seen >= {(n, b, f) for n in (3, 4, 5) for b in flags for f in flags}
        assert {(2, True, True), (2, True, False)} <= seen


def _random_gem(rng, n, p, bipartite, bigons):
    """A random connected graph; with ``bipartite`` every edge joins an even
    and an odd vertex, and without ``bigons`` no two colors share an edge."""
    while True:
        invs, used = [], set()
        for _ in range(n):
            while True:
                if bipartite:
                    odds = list(range(1, p, 2))
                    rng.shuffle(odds)
                    inv = [0] * p
                    for a, b in zip(range(0, p, 2), odds):
                        inv[a], inv[b] = b, a
                else:
                    inv = random_matching(rng, p)
                edges = set(enumerate(inv))
                if bigons or not edges & used:
                    break
            used |= edges
            invs.append(inv)
        g = ColoredGraph.from_involutions(invs)
        if is_connected(g):
            return g
