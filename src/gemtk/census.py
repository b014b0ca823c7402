"""Census of semi-equivelar face-size sequences on a surface of given chi.

A regular embedding of a (d+1)-colored graph has one face class per
consecutive color pair; in a semi-equivelar embedding every face of class i
is a p_i-gon.  Counting vertices, edges and faces gives the exact relation

    1 - (d+1)/2 + sum(1/p_i) = chi / p

which, together with the combinatorial side conditions (every p_i even and
at least 4, p even, p at least the largest face, and every p_i dividing p
because the class-i faces partition the vertex set into p_i-cycles), pins
down finitely many admissible sequences for chi < 0.  This module enumerates
them in exact integer arithmetic, with each reciprocal sum held as a
numerator over a denominator.  :func:`enumerate_types` returns each type as
a plain ``(faces, p)`` pair: the canonical cycle of face sizes and the
vertex count; :func:`type_name` spells the faces as ``(4^3,6)``.

The census stops at 5 colors, the scope of the paper.  The counting
relation does admit sequences with more colors: on chi = -2 it admits
(4^6);4, whose gems have parallel edges.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

_MAX_COLOR_COUNT = 5
# _multisets walks about |chi|^(n-1) candidates for n colors: at chi = -100
# the census takes about 1 s (976 types; 2-vCPU Xeon, CPython 3.11)
_MIN_CHI = -100


def canonical_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically least representative under rotation and reflection."""
    seq = tuple(seq)
    n = len(seq)
    twice = seq + seq
    rotations = (s[k : k + n] for s in (twice, twice[::-1]) for k in range(n))
    return min(rotations, default=seq)


def type_name(faces: Sequence[int]) -> str:
    """The sequence with runs of equal sizes as powers, e.g. ``(4^3,6)``."""
    runs = []
    for value, group in itertools.groupby(faces):
        k = len(list(group))
        runs.append(f"{value}^{k}" if k > 1 else f"{value}")
    return "(" + ",".join(runs) + ")"


def solve_vertex_count(faces: Sequence[int], chi: int) -> int | None:
    """Vertex count forced by the counting relation, if admissible.

    Returns p when the relation yields a positive even integer at least the
    largest face size; None otherwise.  All arithmetic is exact.
    """
    num, den = 0, 1  # sum(1/q) = num/den
    for q in faces:
        num, den = num * q + den, den * q
    # chi / p = 1 - n/2 + num/den = -head / (2 den)
    head = (len(faces) - 2) * den - 2 * num
    if head == 0 or 2 * chi * den % head:
        return None
    p = -2 * chi * den // head
    if p <= 0 or p % 2 or p < max(faces):
        return None
    return p


def distinct_arrangements(multiset: Iterable[int]) -> list[tuple[int, ...]]:
    """All cyclic arrangements of a multiset, one per rotation/reflection class.

    Every class has a rotation that starts with the first entry, so only the
    orders of the rest are tried."""
    first, *rest = multiset
    return sorted({canonical_cycle((first, *perm)) for perm in set(itertools.permutations(rest))})


def _multisets(n: int, chi: int):
    """Non-decreasing candidate multisets (q_0 <= ... <= q_{n-1}) for one color count.

    Prunes with the exact bound q_j <= (m - chi) / (n/2 - 1 - s) where s is the
    partial reciprocal sum and m the number of open slots; the bound follows
    from the counting relation with chi < 0 and p >= q_j, so the recursion is
    provably finite without an ad-hoc cap.  With s = num/den the bound reads
    q_j * head <= 2 den (m - chi), head = (n - 2) den - 2 num.
    """

    def rec(prefix: tuple[int, ...], num: int, den: int):
        slots = n - len(prefix)
        head = (n - 2) * den - 2 * num
        if head <= 0:
            return
        qs = range(prefix[-1] if prefix else 4, 2 * den * (slots - chi) // head + 1, 2)
        if slots == 1:
            for q in qs:
                yield (*prefix, q)
        else:
            for q in qs:
                yield from rec((*prefix, q), num * q + den, den * q)

    return rec((), 0, 1)


def enumerate_types(
    chi: int,
    colors: int | None = None,
    enforce_divisibility: bool = True,
) -> list[tuple[tuple[int, ...], int]]:
    """All admissible semi-equivelar sequences for a surface with
    ``_MIN_CHI`` <= chi < 0; any other chi raises ``ValueError``.

    One ``(faces, p)`` pair per rotation/reflection class of the cyclic
    sequence, ``faces`` being its :func:`canonical_cycle`, sorted by (color
    count descending, faces).  ``colors`` restricts the census to one color
    count: below 3 it raises ``ValueError``, above 5 it gives no types.
    ``enforce_divisibility`` keeps the necessary condition that every face
    size divides the vertex count; disabling it is a diagnostic that exposes
    the raw solutions of the counting relation.
    """
    if chi >= 0:
        raise ValueError(f"census is defined for chi < 0, got {chi}")
    if chi < _MIN_CHI:
        raise ValueError(f"census is bounded to chi >= {_MIN_CHI}, got {chi}")
    counts = range(3, _MAX_COLOR_COUNT + 1)
    if colors is not None:
        if colors < 3:
            raise ValueError(f"a type needs at least 3 colors, got {colors}")
        counts = [n for n in counts if n == colors]

    solutions = []
    for n in counts:
        for multiset in _multisets(n, chi):
            p = solve_vertex_count(multiset, chi)
            if p is None:
                continue
            if enforce_divisibility and any(p % q for q in multiset):
                continue
            solutions.extend((faces, p) for faces in distinct_arrangements(multiset))
    solutions.sort(key=lambda t: (-len(t[0]), t[0]))
    return solutions
