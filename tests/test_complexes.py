import random
import tracemalloc
from pathlib import Path

import pytest

import gemtk
from gemtk import (
    HomologyProfile,
    build_complex,
    check_3manifold,
    check_residues_sphere,
    check_surface,
    connected_components,
    embedding_report,
    graph_homology,
    is_bipartite,
    is_connected,
    residue_components,
    residue_stats,
    residue_subgraph,
    smith_normal_form,
    validate,
)
from gemtk import complexes
from gemtk.gemio import parse_gem
from gemtk.graphs import ColoredGraph, spanning_forest
from gemtk.search import SearchSpec, search_gems

from helpers import (
    cell_chi,
    chain_homology,
    color4_double,
    connected_sum,
    cube_graph,
    dense_rows,
    disjoint_union,
    free_profile,
    k4_graph,
    minor_gcd_invariant_factors,
    one_boundary_spheres,
    random_colored_graph,
    random_connected_graph,
    rank_over_rationals,
    reference_boundaries,
    reference_homology,
    reference_residues_sphere,
    rp3_double,
    sparse_rows,
    sphere_profile,
    theta_graph,
)


def _matmul_is_zero(a, b):
    if not a or not b:
        return True
    rows, inner, cols = len(a), len(b), len(b[0])
    for i in range(rows):
        for j in range(cols):
            if sum(a[i][k] * b[k][j] for k in range(inner)):
                return False
    return True


def _boundaries(graphs):
    """Each boundary but the zero map, as its sparse rows and a dense copy."""
    return [
        (mat, dense_rows(mat, len(cells[i])))
        for cells, boundaries in map(build_complex, graphs)
        for i, mat in enumerate(boundaries[1:], 1)
    ]


def _gem_scale_boundaries():
    """Boundary matrices of random connected gems with p=48 (4 colors) and
    p=24 (5 colors), up to 96 x 48."""
    rng = random.Random(71)
    graphs = [random_connected_graph(rng, 48, 4) for _ in range(3)]
    graphs += [random_connected_graph(rng, 24, 5) for _ in range(3)]
    return _boundaries(graphs)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form(sparse_rows([[2, 0], [0, 3]])) == (1, 6)

    def test_zero_matrix(self):
        assert smith_normal_form(sparse_rows([[0, 0], [0, 0]])) == ()
        assert smith_normal_form([]) == ()

    def test_identity(self):
        eye = [[int(i == j) for j in range(3)] for i in range(3)]
        assert smith_normal_form(sparse_rows(eye)) == (1, 1, 1)

    def test_divisibility_chain(self):
        rng = random.Random(2)
        for _ in range(100):
            m = rng.randrange(1, 6)
            n = rng.randrange(1, 6)
            mat = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
            factors = smith_normal_form(sparse_rows(mat))
            assert all(f > 0 for f in factors)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(17)
        for _ in range(200):
            m = rng.randrange(1, 7)
            n = rng.randrange(1, 7)
            mat = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
            expected = minor_gcd_invariant_factors(mat)
            assert smith_normal_form(sparse_rows(mat)) == expected
        # without a +-1 entry, every factor comes from a least-|v| pivot
        for _ in range(200):
            m = rng.randrange(1, 7)
            n = rng.randrange(1, 7)
            mat = [
                [rng.choice((0, 2, -2, 3, -3, 4, -4, 6, -6)) for _ in range(n)]
                for _ in range(m)
            ]
            expected = minor_gcd_invariant_factors(mat)
            assert smith_normal_form(sparse_rows(mat)) == expected

    def test_argument_is_not_modified(self):
        # the boundaries that build_complex returns may be passed as they are
        rng = random.Random(83)
        mats = [
            [[rng.choice((0, 1, -1, 2, -2, 3, 6)) for _ in range(6)] for _ in range(5)]
            for _ in range(50)
        ]
        mats = [sparse_rows(mat) for mat in mats]
        for mat in mats + [rows for rows, _ in _gem_scale_boundaries()]:
            before = [dict(row) for row in mat]
            smith_normal_form(mat)
            assert mat == before
        _, boundaries = build_complex(k4_graph())
        before = [[dict(row) for row in mat] for mat in boundaries]
        assert smith_normal_form(boundaries[2]) == (1, 1, 1, 2)
        assert [[dict(row) for row in mat] for mat in boundaries] == before

    def test_known_textbook_case(self):
        mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        assert smith_normal_form(sparse_rows(mat)) == (2, 2, 156)

    def test_larger_matrices_rank_and_chain(self):
        # beyond the oracle's minor budget: check rank against exact Gaussian
        # elimination, the divisibility chain, and first-factor gcd
        import math

        rng = random.Random(59)
        for _ in range(60):
            m = rng.randrange(4, 13)
            n = rng.randrange(4, 13)
            mat = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
            factors = smith_normal_form(sparse_rows(mat))
            assert len(factors) == rank_over_rationals(mat)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            entries_gcd = math.gcd(*(abs(x) for row in mat for x in row))
            if factors:
                assert factors[0] == entries_gcd

    def test_rectangular_and_degenerate_shapes(self):
        assert smith_normal_form(sparse_rows([[0, 0, 7]])) == (7,)
        assert smith_normal_form(sparse_rows([[3], [6], [9]])) == (3,)
        assert smith_normal_form(sparse_rows([[4, 6]])) == (2,)
        assert smith_normal_form(sparse_rows([[2, 3], [4, 6]])) == (1,)

    def test_against_sympy_on_boundary_matrices(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(67)
        graphs = [random_colored_graph(rng, 8, 4) for _ in range(4)]
        graphs += [random_colored_graph(rng, 6, 5) for _ in range(2)]
        for rows, mat in _boundaries(graphs) + _gem_scale_boundaries():
            if not mat or not mat[0]:
                continue
            expected = tuple(
                int(f) for f in invariant_factors(sympy.Matrix(mat)) if int(f)
            )
            assert smith_normal_form(rows) == expected

    def test_rank_at_gem_scale(self):
        for rows, mat in _gem_scale_boundaries():
            assert len(smith_normal_form(rows)) == rank_over_rationals(mat)

    def test_scrambled_torsion_block(self):
        # unimodular row and column operations keep the invariant factors;
        # the unit pivots drop out and 2 and 6 come from least-|v| pivots
        rng = random.Random(73)
        for _ in range(20):
            a = [[0] * 5 for _ in range(5)]
            for i, d in enumerate((1, 1, 2, 6, 0)):
                a[i][i] = d
            for _ in range(30):
                i, j = rng.sample(range(5), 2)
                k = rng.choice((-1, 1))
                if rng.random() < 0.5:
                    a[i] = [x + k * y for x, y in zip(a[i], a[j])]
                else:
                    for row in a:
                        row[i] += k * row[j]
            assert smith_normal_form(sparse_rows(a)) == (1, 1, 2, 6)


def _snf_profile(g):
    """The homology read off the Smith normal form of every full boundary
    of the complex that ``helpers.reference_boundaries`` builds
    on its own: the reference that ``graph_homology`` must equal."""
    return reference_homology(g, lambda mat: smith_normal_form(sparse_rows(mat)))


class TestReferenceComplex:
    """The independent complex behind ``_snf_profile`` shares no code with
    ``graph_homology``; its invariant factors by minor gcds give the same
    homology as by ``smith_normal_form``, the known groups and those of
    ``graph_homology``."""

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(23)
        graphs = [theta_graph(), k4_graph(), S3_2]
        graphs += [random_colored_graph(rng, 2, colors) for colors in (2, 3, 4, 5)]
        graphs += [random_colored_graph(rng, 4, 3) for _ in range(6)]
        graphs += [random_colored_graph(rng, 6, 3) for _ in range(3)]
        for g in graphs:
            counts, boundaries = reference_boundaries(g)
            for low, high in zip(boundaries, boundaries[1:]):
                assert _matmul_is_zero(low, high)
            assert counts[-1] == g.vertex_count
            profile = reference_homology(g, minor_gcd_invariant_factors)
            assert profile == _snf_profile(g) == graph_homology(g), g
        assert _snf_profile(theta_graph()) == sphere_profile(2)
        assert str(_snf_profile(k4_graph())) == "(Z, Z/2, 0)"
        assert str(_snf_profile(RP3_8)) == "(Z, Z/2, 0, Z)"


def _snf_arguments(monkeypatch):
    """The matrices that ``complexes`` passes to ``smith_normal_form``, as
    (rows, distinct columns), collected from the patch on."""
    calls = []

    def recording(matrix):
        calls.append((len(matrix), len(set().union(*matrix))))
        return smith_normal_form(matrix)

    monkeypatch.setattr(complexes, "smith_normal_form", recording)
    return calls


GEM_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "gems"


class TestIncidenceFactors:
    """d1 and dd are incidence matrices of signed graphs, so graph_homology
    takes their invariant factors in closed form; it reduces the middle
    boundaries along two spanning forests before their Smith normal form."""

    def test_equals_snf_on_first_and_last_boundary(self):
        rng = random.Random(97)
        kinds = set()
        for i in range(1200):
            colors = rng.randrange(2, 6)
            g = random_colored_graph(rng, 2 * rng.randrange(1, 10), colors)
            if i % 3 == 0:  # the 2-vertex gem keeps g bipartite or not
                g = disjoint_union(g, random_colored_graph(rng, 2, colors))
            kinds.add((colors, is_connected(g), is_bipartite(g)))
            assert graph_homology(g) == _snf_profile(g)
        # every color count was drawn connected and not, bipartite and not,
        # but a 2-colored graph is a union of even cycles
        assert kinds == {
            (c, conn, bip)
            for c in range(2, 6)
            for conn in (False, True)
            for bip in (False, True)
            if c > 2 or bip
        }

    def test_equals_snf_on_benchmark_gems_and_sums(self):
        gems = {f.stem: parse_gem(f.read_text()) for f in sorted(GEM_DIR.glob("*.gem"))}
        assert set(gems) == {"l31", "rp3", "s3", "s4"}
        l31, rp3 = gems["l31"], gems["rp3"]
        sums = [
            connected_sum(l31, rp3, 0, 0),
            connected_sum(connected_sum(l31, l31, 3, 5), rp3, 7, 2),
            connected_sum(gems["s4"], gems["s4"], 1, 6),
            disjoint_union(l31, connected_sum(rp3, l31, 4, 4)),
        ]
        for g in [*gems.values(), *sums]:
            assert graph_homology(g) == _snf_profile(g)
        assert str(graph_homology(l31)) == "(Z, Z/3, 0, Z)"
        assert str(graph_homology(sums[1])) == "(Z, Z/3 + Z/6, 0, Z)"
        assert str(graph_homology(sums[3])) == "(Z^2, Z/3 + Z/6, 0, Z^2)"

    def test_signed_cycles_and_chains(self):
        # dd of a 3-colored gem has one equal-signed row per edge, so a
        # component adds a 2 to H1 exactly when it has an odd cycle
        for parts, twos in [
            ((k4_graph(),), 1),
            ((cube_graph(),), 0),
            ((k4_graph(), k4_graph()), 2),
            ((theta_graph(), k4_graph(), cube_graph()), 1),
        ]:
            assert graph_homology(disjoint_union(*parts)).torsion(1) == (2,) * twos
        # the forests' union-find: a cycle closes once, and a star whose
        # center ends up deep in the tree costs no long walks
        joins = spanning_forest(5)
        assert [joins(i, (i + 1) % 5) for i in range(5)] == [True] * 4 + [False]
        n = 20000
        joins = spanning_forest(n + 1)
        assert all(joins(0, i) for i in range(1, n + 1))
        assert all(joins(i, n) is False for i in range(n))

    def test_smith_normal_form_only_between_first_and_last_boundary(self, monkeypatch):
        calls = _snf_arguments(monkeypatch)
        rng = random.Random(101)
        for colors, snfs in [(2, 0), (3, 0), (4, 1), (5, 2)]:
            calls.clear()
            g = random_connected_graph(rng, 12, colors)
            graph_homology(g)
            assert len(calls) == snfs
        assert graph_homology(k4_graph()).torsion(1) == (2,)  # with no SNF

    def test_reduced_second_boundary_is_square(self, monkeypatch):
        # a connected closed 3-manifold gem has c1 = c0 + p: without c0 - 1
        # forest rows and p - 1 forest columns, d2 is (p + 1) x (p + 1)
        calls = _snf_arguments(monkeypatch)
        rng = random.Random(103)
        gems = [parse_gem((GEM_DIR / f"{name}.gem").read_text()) for name in ("l31", "rp3", "s3")]
        while len(gems) < 20:
            g = random_connected_graph(rng, rng.choice([4, 6, 8, 10, 12]), 4)
            if check_3manifold(g).holds:
                gems.append(g)
        for g in gems:
            calls.clear()
            cells, _ = build_complex(g)
            graph_homology(g)
            p = g.vertex_count
            assert calls == [(p + 1, p + 1)]
            assert (len(cells[1]), len(cells[2])) == (len(cells[0]) + p, 2 * p)

    def test_residue_boundary_is_square(self, monkeypatch):
        # homology_spheres reduces one (q + 1) x (q + 1) block per component
        # of q vertices, in the order of the components, and only once its
        # verdict is asked for
        calls = _snf_arguments(monkeypatch)
        l31 = parse_gem((GEM_DIR / "l31.gem").read_text())
        for g in [S3_2, RP3_8, l31, disjoint_union(S3_2, RP3_12), disjoint_union(l31, S3_2, S2_X_S1)]:
            comps = connected_components(g)
            calls.clear()
            one_boundary_spheres(g)
            assert calls == [(len(comp) + 1, len(comp) + 1) for comp in comps]
            calls.clear()
            verdicts = complexes.homology_spheres(g, (0, 1, 2, 3), comps)
            assert calls == []
            next(verdicts)
            assert calls == [(len(comps[0]) + 1, len(comps[0]) + 1)]


class TestBuildComplex:
    def test_theta_f_vector(self):
        cells, _ = build_complex(theta_graph())
        assert tuple(map(len, cells)) == (3, 3, 2)
        assert cell_chi(cells) == 2

    def test_cube_f_vector(self):
        cells, _ = build_complex(cube_graph())
        assert tuple(map(len, cells)) == (6, 12, 8)
        assert cell_chi(cells) == 2

    def test_four_color_cell_counts(self):
        out = search_gems(
            SearchSpec(seq=(6, 6, 6, 6), vertex_count=6, require_3manifold=True,
                       max_solutions=1)
        )
        cells, _ = build_complex(out.solutions[0])
        assert len(cells[3]) == 6          # one tetrahedron per vertex
        assert len(cells[2]) == 6 * 4 // 2  # one triangle per edge

    def test_cell_counts_match_residues(self):
        rng = random.Random(29)
        for _ in range(10):
            g = random_colored_graph(rng, 8, rng.choice([3, 4]))
            cells, _ = build_complex(g)
            for layer in cells:
                for labels, vertices in layer:
                    complement = [c for c in g.colors if c not in labels]
                    comps = residue_components(g, complement)
                    assert vertices in comps

    def test_boundary_of_boundary_is_zero(self):
        rng = random.Random(41)
        graphs = [theta_graph(), cube_graph(), k4_graph()]
        graphs += [random_colored_graph(rng, 8, 4) for _ in range(5)]
        graphs += [random_colored_graph(rng, 6, 5) for _ in range(3)]
        for g in graphs:
            mats = [mat for _, mat in _boundaries([g])]
            for low, high in zip(mats, mats[1:]):
                assert _matmul_is_zero(low, high)

    def test_homology_matches_the_reference(self):
        # build_complex's full boundaries, which graph_homology never reduces
        # whole, give the independent complex's homology, also on gems larger
        # than the minor-gcd oracle reads
        gems = {f.stem: parse_gem(f.read_text()) for f in sorted(GEM_DIR.glob("*.gem"))}
        rng = random.Random(31)
        graphs = [*gems.values(), disjoint_union(gems["l31"], connected_sum(gems["rp3"], gems["l31"], 4, 4))]
        graphs += [random_colored_graph(rng, 2 * rng.randrange(4, 16), rng.randrange(3, 6)) for _ in range(20)]
        for g in graphs:
            cells, boundaries = build_complex(g)
            factors = [smith_normal_form(mat) for mat in boundaries[1:]]
            assert chain_homology(list(map(len, cells)), factors) == _snf_profile(g), g


class TestHomology:
    def test_memory_grows_with_the_nonzeros(self):
        # a dense boundary 2 of this p = 2000 gem would hold 6M entries, of
        # which 6k are nonzero: about 49 MB at peak against 3.5 MB sparse
        g = random_connected_graph(random.Random(5), 2000, 3)
        tracemalloc.start()
        try:
            graph_homology(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        cells, boundaries = build_complex(g)
        assert all(v for mat in boundaries for row in mat for v in row.values())
        assert sum(map(len, boundaries[2])) == 3 * len(cells[2])

    def test_theta_is_sphere(self):
        assert graph_homology(theta_graph()) == free_profile(1, 0, 1)

    def test_cube_is_sphere(self):
        assert graph_homology(cube_graph()) == sphere_profile(2)

    def test_k4_is_projective_plane(self):
        assert graph_homology(k4_graph()) == HomologyProfile(((1, ()), (0, (2,)), (0, ())))

    def test_genus_two_gems(self):
        for seq, p in [((10, 10, 10), 10), ((12, 12, 6), 12)]:
            out = search_gems(
                SearchSpec(seq=seq, vertex_count=p, orientable=True,
                           max_solutions=1)
            )
            assert graph_homology(out.solutions[0]) == free_profile(1, 4, 1)

    def test_sum_of_four_projective_spaces(self):
        rp3 = HomologyProfile(((1, ()), (0, (2,)), (0, ()), (1, ())))
        out = search_gems(
            SearchSpec(seq=(4, 4, 6, 6), vertex_count=12, require_3manifold=True)
        )
        gem = next(g for g in out.solutions if graph_homology(g) == rp3)
        total = gem
        for k in range(3):
            total = connected_sum(total, gem, 5 * k + 1, 7)
        assert total.vertex_count == 42
        assert graph_homology(total) == HomologyProfile(
            ((1, ()), (0, (2, 2, 2, 2)), (0, ()), (1, ()))
        )

    def test_euler_poincare(self):
        rng = random.Random(43)
        graphs = [theta_graph(), cube_graph(), k4_graph()]
        graphs += [random_colored_graph(rng, 8, 4) for _ in range(5)]
        for g in graphs:
            profile = graph_homology(g)
            alternating = sum(
                (-1) ** i * profile.betti(i) for i in range(g.color_count)
            )
            assert alternating == cell_chi(build_complex(g)[0])

    def test_h0_counts_components(self):
        double_theta = validate(3, 4, [[(0, 1), (2, 3)]] * 3)
        assert graph_homology(double_theta).betti(0) == 2

    def test_embedding_chi_matches_complex_chi(self):
        rng = random.Random(47)
        for _ in range(40):
            g = random_connected_graph(rng, rng.choice([4, 6, 8]), 3)
            assert embedding_report(g).chi == cell_chi(build_complex(g)[0])

    def test_profile_formatting(self):
        profile = HomologyProfile(((1, ()), (0, (3,)), (2, (2, 4)), (0, ())))
        assert str(profile) == "(Z, Z/3, Z^2 + Z/2 + Z/4, 0)"


class TestCheckSurface:
    def test_theta(self):
        d = check_surface(theta_graph())
        assert (d.orientable, d.genus) == (True, 0)

    def test_k4(self):
        d = check_surface(k4_graph())
        assert (d.orientable, d.genus) == (False, 1)

    def test_dodecagon_gem_double_torus(self):
        out = search_gems(
            SearchSpec(seq=(12, 12, 6), vertex_count=12, orientable=True,
                       max_solutions=1)
        )
        d = check_surface(out.solutions[0])
        assert (d.orientable, d.genus) == (True, 2)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            check_surface(validate(4, 2, [[(0, 1)]] * 4))

    def test_one_descriptor_with_the_embedding_report(self):
        # check_surface is the report's own surface, which alone spells out
        # the two kinds; both modules still export the one class
        for g, text in [(theta_graph(), "orientable genus 0"),
                        (k4_graph(), "non-orientable crosscap 1")]:
            d = check_surface(g)
            assert d == embedding_report(g).surface()
            assert str(d) == text
        assert complexes.SurfaceDescriptor is gemtk.SurfaceDescriptor
        assert type(d) is gemtk.SurfaceDescriptor


class TestCheck3Manifold:
    def test_doubled_hexagon_parameters(self):
        out = search_gems(
            SearchSpec(seq=(6, 6, 6, 6), vertex_count=6, require_3manifold=True,
                       max_solutions=1)
        )
        g = out.solutions[0]
        report = check_3manifold(g)
        assert report.holds and is_connected(g)
        for check in report.checks:
            assert check.pair_total == check.expected

    def test_disconnected_evaluated_on_whole_graph(self):
        # two 2-vertex components: each pair residue has one cycle per
        # component, so every triple totals 3 + 3 against 2*2 + 4/2
        g = validate(4, 4, [[(0, 1), (2, 3)]] * 4)
        assert not is_connected(g)
        report = check_3manifold(g)
        assert report.holds
        assert len(report.checks) == 4
        for check in report.checks:
            assert check.pair_total == 6 and check.expected == 6

    def test_whole_graph_agrees_with_components(self):
        # on disjoint unions the whole-graph verdict is the conjunction of
        # the components' verdicts, and the totals are the sums of theirs
        rng = random.Random(808)
        held = 0
        for _ in range(150):
            parts = [random_colored_graph(rng, rng.choice([2, 4, 6]), 4)
                     for _ in range(rng.choice([2, 3]))]
            g = disjoint_union(*parts)
            report = check_3manifold(g)
            comps = [
                check_3manifold(residue_subgraph(g, range(4), comp))
                for comp in connected_components(g)
            ]
            assert len(comps) >= len(parts)
            assert report.holds == all(c.holds for c in comps)
            for i, check in enumerate(report.checks):
                assert all(c.checks[i].triple == check.triple for c in comps)
                assert check.pair_total == sum(c.checks[i].pair_total for c in comps)
                assert check.expected == sum(c.checks[i].expected for c in comps)
            held += report.holds
        assert 0 < held < 150

    def test_failing_graph(self):
        # colors 0 and 3 repeat a matching while 1, 2 differ; the triple
        # {0,1,2} then undercounts pair residues and the identity fails
        g = ColoredGraph.from_involutions(
            [[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0], [1, 0, 3, 2]]
        )
        report = check_3manifold(g)
        assert not report.holds
        failing = [c for c in report.checks if not c.holds]
        assert failing

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            check_3manifold(theta_graph())

    def test_mixed_squares_hexagons_parameters(self):
        # the projective-space gem of this type realizes exactly these counts
        expected_pairs = {(0, 1): 3, (1, 2): 3, (2, 3): 2, (0, 3): 2, (1, 3): 3, (0, 2): 4}
        expected_triples = {(0, 1, 2): 2, (0, 1, 3): 1, (0, 2, 3): 1, (1, 2, 3): 1}
        rp3 = HomologyProfile(((1, ()), (0, (2,)), (0, ()), (1, ())))

        def matches(g):
            st = residue_stats(g)
            return (
                all(st[k] == v for k, v in expected_pairs.items())
                and all(st[k] == v for k, v in expected_triples.items())
                and graph_homology(g) == rp3
            )

        out = search_gems(
            SearchSpec(seq=(4, 4, 6, 6), vertex_count=12, require_3manifold=True)
        )
        assert any(map(matches, out.solutions))

    def test_passing_gems_have_closed_3manifold_homology_shape(self):
        # chi of the complex vanishes for every 3-manifold gem; orientable ones
        # carry one top homology class
        collected = []
        for seq, p in [((4, 4, 6, 6), 12), ((4, 8, 4, 8), 8)]:
            out = search_gems(
                SearchSpec(seq=seq, vertex_count=p, require_3manifold=True,
                           max_solutions=3)
            )
            collected.extend(out.solutions)
        assert collected
        for g in collected:
            profile = graph_homology(g)
            assert cell_chi(build_complex(g)[0]) == 0
            assert profile.betti(0) == 1
            if is_bipartite(g):
                assert profile.betti(3) == 1


def _gem(involutions: str) -> ColoredGraph:
    """A gem from its involutions written as '(a,b,...) (c,d,...) ...'."""
    return ColoredGraph.from_involutions(
        [[int(x) for x in inv.strip("()").split(",")] for inv in involutions.split()]
    )


# 8-vertex closed 3-manifold gems whose homology is not that of S^3
S2_X_S1 = _gem(  # (Z, Z, Z, Z)
    "(2,3,0,1,6,7,4,5) (5,7,3,2,6,0,4,1) (5,4,7,6,1,0,3,2) (6,3,7,1,5,4,0,2)"
)
S2_TWISTED_S1 = _gem(  # non-orientable, (Z, Z, Z/2, 0)
    "(5,3,4,1,2,0,7,6) (4,7,5,6,0,2,3,1) (4,5,3,2,0,1,7,6) (6,3,5,1,7,2,0,4)"
)
RP3_8 = _gem(  # (Z, Z/2, 0, Z)
    "(4,6,3,2,0,7,1,5) (5,2,1,6,7,0,3,4) (2,5,0,4,3,1,7,6) (6,4,7,5,1,3,0,2)"
)
S3_2 = validate(4, 2, [[(0, 1)]] * 4)
RP3_12 = residue_subgraph(rp3_double(), range(4), range(12))


def _sphere_gem_8() -> ColoredGraph:
    """An 8-vertex gem with the homology of S^3."""
    out = search_gems(
        SearchSpec(seq=(4, 8, 4, 8), vertex_count=8, require_3manifold=True)
    )
    return next(g for g in out.solutions if graph_homology(g) == sphere_profile(3))


class TestIsHomology3Sphere:
    """The one-boundary test agrees with the full homology on closed
    3-manifold gems: H1 = 0 needs both p + 1 invariant factors of the
    second boundary (S2 x S1 has rank p) and no torsion (RP^3 has Z/2)."""

    def _agrees(self, g):
        assert is_connected(g) and check_3manifold(g).holds
        (verdict,) = one_boundary_spheres(g)
        assert verdict == (graph_homology(g) == sphere_profile(3))
        return verdict

    def test_two_vertex_sphere(self):
        assert self._agrees(S3_2)

    def test_twelve_vertex_projective_space(self):
        assert not self._agrees(RP3_12)

    @pytest.mark.parametrize(
        "g,groups",
        [
            (S2_X_S1, "(Z, Z, Z, Z)"),
            (S2_TWISTED_S1, "(Z, Z, Z/2, 0)"),
            (RP3_8, "(Z, Z/2, 0, Z)"),
        ],
    )
    def test_eight_vertex_non_spheres(self, g, groups):
        assert str(graph_homology(g)) == groups
        assert not self._agrees(g)

    def test_random_closed_3manifolds(self):
        rng = random.Random(1)
        checked = 0
        for _ in range(300):
            g = random_connected_graph(rng, rng.choice([2, 4, 6, 8, 10]), 4)
            if check_3manifold(g).holds:
                self._agrees(g)
                checked += 1
        assert checked >= 100


class TestBlockDiagonalBoundary:
    """On a disconnected closed 3-manifold gem the one second boundary is
    block-diagonal by component, and each block's verdict (q + 1 invariant
    factors, all 1, for a component on q vertices) says whether that
    component is a homology 3-sphere."""

    def _agrees(self, g):
        assert check_3manifold(g).holds
        expected = tuple(
            graph_homology(residue_subgraph(g, range(4), comp)) == sphere_profile(3)
            for comp in connected_components(g)
        )
        assert one_boundary_spheres(g) == expected
        return expected

    @pytest.mark.parametrize(
        "other",
        [S2_X_S1, S2_TWISTED_S1, RP3_8, RP3_12],
        ids=["s2xs1", "s2-twisted-s1", "rp3-8", "rp3-12"],
    )
    def test_one_non_sphere_component_fails_the_residue(self, other):
        assert self._agrees(disjoint_union(S3_2, other)) == (True, False)
        assert self._agrees(disjoint_union(other, S3_2)) == (False, True)
        assert self._agrees(disjoint_union(other, S3_2, other)) == (False, True, False)

    def test_two_sphere_components(self):
        sphere = _sphere_gem_8()
        for g in (disjoint_union(S3_2, sphere), disjoint_union(sphere, sphere)):
            assert self._agrees(g) == (True, True)

    def test_random_unions(self):
        rng = random.Random(20)
        pool = []
        while len(pool) < 30:
            g = random_connected_graph(rng, rng.choice([4, 6, 8, 10]), 4)
            if check_3manifold(g).holds:
                pool.append(g)
        pool += [S2_X_S1, S2_TWISTED_S1, RP3_8, RP3_12]  # the pool's non-spheres
        mixed = spheres = 0
        for _ in range(80):
            parts = [rng.choice(pool) for _ in range(rng.choice([2, 3]))]
            verdicts = self._agrees(disjoint_union(*parts))
            spheres += all(verdicts)
            mixed += len(set(verdicts)) == 2
        assert spheres >= 40 and mixed >= 10


class TestCheckResiduesSphere:
    def test_matches_the_reference_route(self):
        classes = search_gems(
            SearchSpec(seq=(4,) * 5, vertex_count=8, require_residues_sphere=True)
        ).solutions
        assert len(classes) == 5
        graphs = [*classes, color4_double(S2_X_S1), rp3_double(),
                  disjoint_union(classes[0], classes[1])]
        rng = random.Random(21)
        for i in range(60):
            if i % 2:
                graphs.append(random_colored_graph(rng, rng.choice([2, 4, 6, 8, 10]), 5))
            else:
                q = rng.choice([2, 4])
                graphs.append(disjoint_union(
                    random_colored_graph(rng, q, 5),
                    random_colored_graph(rng, rng.choice(range(2, 11 - q, 2)), 5),
                ))
        outcomes = set()
        for g in graphs:
            mine = tuple(
                (v.color, v.component_index, v.vertex_count, v.criterion_holds,
                 v.homology_ok)
                for v in check_residues_sphere(g).verdicts
            )
            reference = reference_residues_sphere(g)
            assert mine == reference
            outcomes.update((v[3], v[4]) for v in reference)
        assert outcomes == {(True, True), (True, False), (False, False)}
        assert sum(not is_connected(g) for g in graphs) >= 30

    def test_sphere_and_projective_space_joined_by_color_4(self, monkeypatch):
        # the 8-vertex S^3 and RP^3 gems side by side, color 4 joining v and
        # v + 8: of the residue without color 4, exactly the RP^3 component
        # fails, on homology; the residues with color 4 are connected and
        # fail their counts, so they get no Smith normal form
        calls = _snf_arguments(monkeypatch)
        sphere = _sphere_gem_8()
        for parts, rp3_index in [((sphere, RP3_8), 1), ((RP3_8, sphere), 0)]:
            union = disjoint_union(*parts)
            g = ColoredGraph.from_involutions([*union.pairings, [v ^ 8 for v in range(16)]])
            calls.clear()
            report = check_residues_sphere(g)
            assert calls == [(9, 9), (9, 9)]
            verdicts = tuple(
                (v.color, v.component_index, v.vertex_count, v.criterion_holds,
                 v.homology_ok)
                for v in report.verdicts
            )
            assert verdicts == reference_residues_sphere(g)
            assert verdicts == (
                *((c, 0, 16, False, False) for c in range(4)),
                *((4, i, 8, True, i != rp3_index) for i in range(2)),
            )

    def test_one_boundary_per_residue(self, monkeypatch):
        # four S^4 gems in a connected sum have 9 residue components in 5
        # residues: d2 is built once per residue, not once per component
        builds = []
        forest = complexes._skeleton_forest

        def counting(*args):
            builds.append(args[1])
            return forest(*args)

        monkeypatch.setattr(complexes, "_skeleton_forest", counting)
        s4 = parse_gem((GEM_DIR / "s4.gem").read_text())
        g = s4
        for v in (0, 3, 5):
            g = connected_sum(g, s4, v, 2)
        report = check_residues_sphere(g)
        assert report.holds and len(report.verdicts) == 9
        assert sorted(builds) == sorted(tuple(c for c in range(5) if c != d) for d in range(5))

    def test_non_sphere_residues_fail_on_homology_only(self):
        # the two residues without color 4 are copies of S2 x S1: they pass
        # every residue count, but their H1 is Z
        report = check_residues_sphere(color4_double(S2_X_S1))
        assert not report.holds
        free = [v for v in report.verdicts if v.color == 4]
        assert [(v.vertex_count, v.criterion_holds, v.homology_ok) for v in free] == [
            (8, True, False),
            (8, True, False),
        ]

    def test_theta_like_five_colored(self):
        g = validate(5, 2, {c: [(0, 1)] for c in range(5)})
        report = check_residues_sphere(g)
        assert report.holds
        assert all(v.vertex_count == 2 for v in report.verdicts)

    def test_spliced_torsion_residue_fails(self):
        # extend a 4-colored graph with projective-space homology by a fifth
        # color; dropping the new color must expose the torsion residue
        rp3 = HomologyProfile(((1, ()), (0, (2,)), (0, ()), (1, ())))
        out = search_gems(
            SearchSpec(seq=(4, 4, 6, 6), vertex_count=12, require_3manifold=True)
        )
        base = next(g for g in out.solutions if graph_homology(g) == rp3)
        extra = tuple(v ^ 1 for v in range(12))
        g5 = ColoredGraph.from_involutions(list(base.pairings) + [extra])
        report = check_residues_sphere(g5)
        assert not report.holds
        offenders = {(v.color, v.component_index) for v in report.failures()}
        assert (4, 0) in offenders

    def test_disjoint_union_of_sphere_gems(self):
        # each residue of the union lists the components of the first gem's
        # residue, then those of the second, numbered on from there
        out = search_gems(
            SearchSpec(seq=(4, 4, 4, 4, 4), vertex_count=8,
                       require_residues_sphere=True, max_solutions=2)
        )
        a, b = out.solutions
        report = check_residues_sphere(disjoint_union(a, b))
        assert report.holds
        assert all(v.ok for v in report.verdicts)

        def sizes(verdicts, color):
            return [v.vertex_count for v in verdicts if v.color == color]

        for c in range(5):
            first = sizes(check_residues_sphere(a).verdicts, c)
            second = sizes(check_residues_sphere(b).verdicts, c)
            mine = [v for v in report.verdicts if v.color == c]
            assert [v.vertex_count for v in mine] == first + second
            assert [v.component_index for v in mine] == list(range(len(mine)))
            assert len(mine) >= 2

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            check_residues_sphere(cube_graph())
