import itertools
import math
from fractions import Fraction

import pytest

from gemtk import (
    canonical_cycle,
    census,
    enumerate_types,
    solve_vertex_count,
    type_name,
)
from gemtk.search import SearchSpec, check_spec

from helpers import counting_relation_holds


class TestNormalize:
    """A cycle of face sizes normalized to its rotation/reflection class,
    and raw face sizes that no type has refused where they enter a search."""

    def test_rotation(self):
        assert canonical_cycle([6, 4, 6, 4]) == (4, 6, 4, 6)

    def test_three_entry_multiset_has_one_class(self):
        assert canonical_cycle([8, 6, 4]) == (4, 6, 8)
        assert canonical_cycle([6, 8, 4]) == (4, 6, 8)

    def test_blocked_vs_alternating(self):
        blocked = canonical_cycle([4, 4, 6, 6])
        assert canonical_cycle([6, 6, 4, 4]) == blocked
        assert canonical_cycle([4, 6, 4, 6]) != blocked

    def test_idempotent(self):
        seq = canonical_cycle([12, 4, 12])
        assert canonical_cycle(seq) == seq

    @pytest.mark.parametrize("bad", [[4, 5, 6], [4, 2, 4], [3, 3, 3], [4, 4]])
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ValueError, match="even and >= 4|at least 3 colors"):
            check_spec(SearchSpec(seq=tuple(bad), vertex_count=12))


class TestSolveVertexCount:
    def test_matches_the_rational_relation(self):
        # every multiset of faces up to 60: the relation forces p = chi / total,
        # an integer only when total's reduced numerator divides chi
        faces = range(4, 61, 2)
        lcm = math.lcm(*faces)
        for n in (3, 4, 5):
            for multiset in itertools.combinations_with_replacement(faces, n):
                total = 1 - Fraction(n, 2) + Fraction(sum(lcm // q for q in multiset), lcm)
                a, b = total.numerator, total.denominator
                for chi in range(-1, -7, -1):
                    p = chi // a * b if a < 0 and chi % a == 0 else None
                    if p is not None and (p % 2 or p < multiset[-1]):
                        p = None
                    assert solve_vertex_count(multiset, chi) == p
                    assert p is None or counting_relation_holds(multiset, chi, p)

    def test_three_colored_large(self):
        assert solve_vertex_count([4, 6, 14], -2) == 168

    def test_five_colored(self):
        assert solve_vertex_count([4] * 5, -2) == 8

    def test_sphere_cube(self):
        # 1 - 3/2 + 3/4 = 1/4 = 2/p forces p = 8: the 3-colored cube
        assert solve_vertex_count([4, 4, 4], 2) == 8

    def test_zero_excess_has_no_solution(self):
        assert solve_vertex_count([4, 4, 4, 4], -2) is None

    def test_fractional_p_rejected(self):
        assert solve_vertex_count([8, 8, 10], -2) is None

    def test_p_below_max_face_rejected(self):
        # relation gives p = 8 but the sequence carries a 12-gon
        assert solve_vertex_count([12, 12, 12], -2) is None


EXPECTED_CHI_MINUS_2 = {
    ((4, 4, 4, 4, 4), 8),
    ((6, 6, 6, 6), 6),
    ((4, 4, 4, 6), 24),
    ((4, 4, 4, 8), 16),
    ((4, 4, 4, 12), 12),
    ((4, 4, 6, 6), 12),
    ((4, 6, 4, 6), 12),
    ((4, 4, 8, 8), 8),
    ((4, 8, 4, 8), 8),
    ((8, 8, 8), 16),
    ((10, 10, 10), 10),
    ((6, 6, 8), 48),
    ((6, 6, 10), 30),
    ((6, 6, 12), 24),
    ((6, 6, 18), 18),
    ((4, 10, 10), 40),
    ((4, 12, 12), 24),
    ((4, 16, 16), 16),
    ((6, 8, 8), 24),
    ((6, 12, 12), 12),
    ((4, 6, 14), 168),
    ((4, 6, 16), 96),
    ((4, 6, 18), 72),
    ((4, 6, 20), 60),
    ((4, 6, 24), 48),
    ((4, 6, 36), 36),
    ((4, 8, 10), 80),
    ((4, 8, 12), 48),
    ((4, 8, 16), 32),
    ((4, 8, 24), 24),
    ((4, 10, 20), 20),
}


class TestEnumerate:
    def test_chi_minus_2_census(self):
        assert set(enumerate_types(-2)) == EXPECTED_CHI_MINUS_2

    def test_chi_minus_1_census(self):
        sols = enumerate_types(-1)
        assert len(sols) == 15
        by_colors = {n: sum(1 for faces, _ in sols if len(faces) == n) for n in (5, 4, 3)}
        assert by_colors == {5: 1, 4: 2, 3: 12}

    def test_five_colors_chi_minus_2(self):
        sols = enumerate_types(-2, colors=5)
        assert sols == [((4, 4, 4, 4, 4), 8)]

    def test_six_colors_empty(self):
        assert enumerate_types(-2, colors=6) == []

    @pytest.mark.parametrize("colors", [2, 0, -3])
    def test_fewer_than_three_colors_rejected(self, colors):
        with pytest.raises(ValueError, match=f"at least 3 colors, got {colors}"):
            enumerate_types(-2, colors=colors)

    def test_nonnegative_chi_rejected(self):
        with pytest.raises(ValueError):
            enumerate_types(0)
        with pytest.raises(ValueError):
            enumerate_types(2)

    def test_most_negative_chi_is_bounded(self):
        # the census walks about |chi|^(n-1) multisets; the bound keeps it
        # near 1 s, and the next chi is refused before any of them
        assert len(enumerate_types(census._MIN_CHI)) == 976
        with pytest.raises(ValueError, match=f"chi >= {census._MIN_CHI}"):
            enumerate_types(census._MIN_CHI - 1)

    def test_type_counts_down_to_chi_minus_40(self):
        # pinned to the counts of the census in Fraction arithmetic
        counts = [len(enumerate_types(chi)) for chi in range(-1, -41, -1)]
        assert counts == [
            15, 31, 34, 56, 49, 75, 61, 92, 77, 111, 83, 138, 92, 144, 130, 164, 116, 193,
            139, 225, 174, 212, 163, 260, 172, 220, 191, 275, 188, 305, 184, 301, 248, 297,
            279, 362, 237, 343, 315, 416,
        ]

    def test_deterministic(self):
        assert enumerate_types(-2) == enumerate_types(-2)

    def test_sorted_by_colors_then_sequence(self):
        sols = enumerate_types(-2)
        keys = [(-len(faces), faces) for faces, _ in sols]
        assert keys == sorted(keys)

    def test_cross_check_vertex_counts(self):
        for chi in (-1, -2, -3):
            for faces, p in enumerate_types(chi):
                assert faces == canonical_cycle(faces)
                assert solve_vertex_count(faces, chi) == p
                assert counting_relation_holds(faces, chi, p)
                assert p >= max(faces)
                assert all(p % q == 0 for q in faces)

    def test_relaxed_divisibility_is_a_superset(self):
        strict = set(enumerate_types(-2))
        relaxed = set(enumerate_types(-2, enforce_divisibility=False))
        assert strict < relaxed
        # the counting relation alone admits this one; face 8 does not divide 12
        assert ((8, 8, 12), 12) in relaxed - strict

    def test_chi_minus_1_four_colored_values(self):
        sols = enumerate_types(-1, colors=4)
        assert set(sols) == {
            ((4, 4, 4, 6), 12),
            ((4, 4, 4, 8), 8),
        }

    def test_against_bounded_brute_force(self):
        # independent completeness check: scan all multisets with entries up to
        # a bound far beyond every emitted face size
        for chi, n, bound in [(-2, 3, 200), (-2, 4, 60), (-2, 5, 40), (-1, 3, 150),
                              (-3, 3, 120), (-3, 4, 60)]:
            expected = set()
            values = range(4, bound + 1, 2)
            for multiset in itertools.combinations_with_replacement(values, n):
                p = solve_vertex_count(multiset, chi)
                if p is None or any(p % q for q in multiset):
                    continue
                for perm in itertools.permutations(multiset):
                    expected.add((canonical_cycle(perm), p))
            assert set(enumerate_types(chi, colors=n)) == expected

    def test_sequence_str(self):
        assert type_name((4, 4, 4, 4, 4)) == "(4^5)"
        assert type_name((4, 6, 4, 6)) == "(4,6,4,6)"
        assert type_name((4, 4, 6, 6)) == "(4^2,6^2)"
        assert type_name((4, 6, 14)) == "(4,6,14)"
        assert type_name((4, 4, 4, 6)) == "(4^3,6)"
