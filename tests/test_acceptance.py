"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report while it executes.
"""

import json
import random
import time

from gemtk import (
    HomologyProfile,
    SearchSpec,
    SurfaceDescriptor,
    build_complex,
    canonical_code,
    check_3manifold,
    check_residues_sphere,
    check_surface,
    embedding_report,
    enumerate_types,
    graph_homology,
    parse_gem,
    residue_stats,
    search_gems,
    smith_normal_form,
    type_name,
    write_gem,
)
from gemtk.cli import run_cli

from helpers import (
    cell_chi,
    cube_graph,
    dense_rows,
    free_profile,
    k4_graph,
    minor_gcd_invariant_factors,
    naive_type_search,
    random_colored_graph,
    random_connected_graph,
    sparse_rows,
    sphere_profile,
    theta_graph,
)

S3 = sphere_profile(3)
RP3 = HomologyProfile(((1, ()), (0, (2,)), (0, ()), (1, ())))
L31 = HomologyProfile(((1, ()), (0, (3,)), (0, ()), (1, ())))
GENUS2 = free_profile(1, 4, 1)


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{name}] {'PASS' if ok else 'FAIL'}" + (f": {detail}" if detail else "")
    print(line, flush=True)
    assert ok, line


EXPECTED_31 = {
    ((4, 4, 4, 4, 4), 8),
    ((6, 6, 6, 6), 6), ((4, 4, 4, 6), 24), ((4, 4, 4, 8), 16), ((4, 4, 4, 12), 12),
    ((4, 4, 6, 6), 12), ((4, 6, 4, 6), 12), ((4, 4, 8, 8), 8), ((4, 8, 4, 8), 8),
    ((8, 8, 8), 16), ((10, 10, 10), 10), ((6, 6, 8), 48), ((6, 6, 10), 30),
    ((6, 6, 12), 24), ((6, 6, 18), 18), ((4, 10, 10), 40), ((4, 12, 12), 24),
    ((4, 16, 16), 16), ((6, 8, 8), 24), ((6, 12, 12), 12), ((4, 6, 14), 168),
    ((4, 6, 16), 96), ((4, 6, 18), 72), ((4, 6, 20), 60), ((4, 6, 24), 48),
    ((4, 6, 36), 36), ((4, 8, 10), 80), ((4, 8, 12), 48), ((4, 8, 16), 32),
    ((4, 8, 24), 24), ((4, 10, 20), 20),
}


def test_criterion_1_census_chi_minus_2(capsys):
    start = time.monotonic()
    code = run_cli(["types", "--chi", "-2", "--json"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        records = [json.loads(line) for line in out.splitlines()]
        got = {(tuple(r["seq"]), r["p"]) for r in records}
        ok = code == 0 and got == EXPECTED_31 and elapsed < 1.0
        report(
            "criterion 1",
            ok,
            f"31-type census for chi=-2 exact ({len(got)} types, {elapsed:.3f}s)",
        )


def test_criterion_2_census_chi_minus_1(capsys):
    start = time.monotonic()
    solutions = enumerate_types(-1)
    elapsed = time.monotonic() - start
    split = {n: sum(1 for faces, _ in solutions if len(faces) == n) for n in (5, 4, 3)}
    with capsys.disabled():
        ok = len(solutions) == 15 and split == {5: 1, 4: 2, 3: 12} and elapsed < 1.0
        report(
            "criterion 2",
            ok,
            f"15 types for chi=-1 split {split[5]}/{split[4]}/{split[3]} ({elapsed:.3f}s)",
        )


THREE_COLORED_TARGETS = [
    ((10, 10, 10), 10),
    ((8, 8, 8), 16),
    ((12, 12, 6), 12),
    ((16, 16, 4), 16),
    ((4, 8, 24), 24),
    ((4, 10, 20), 20),
    ((6, 6, 18), 18),
    ((12, 12, 4), 24),
    ((8, 8, 6), 24),
]


def test_criterion_3_three_colored_rediscovery(capsys):
    with capsys.disabled():
        all_ok = True
        for seq, p in THREE_COLORED_TARGETS:
            start = time.monotonic()
            out = search_gems(
                SearchSpec(
                    seq=seq, vertex_count=p, orientable=True,
                    max_solutions=1, budget_seconds=600,
                )
            )
            elapsed = time.monotonic() - start
            found = bool(out.solutions)
            ok = found
            detail = "no gem found"
            if found:
                g = out.solutions[0]
                rep = embedding_report(g)
                h = graph_homology(g)
                ok = (
                    rep.chi == -2
                    and rep.orientable
                    and rep.genus == 2
                    and h == GENUS2
                )
                detail = (
                    f"chi={rep.chi} {rep.surface()} H={h} "
                    f"nodes={out.stats.nodes} {elapsed:.2f}s"
                )
            print(f"  {seq};{p}: {detail}")
            all_ok = all_ok and ok
        report("criterion 3", all_ok, "nine 3-colored genus-2 types rediscovered")


EXPECTED_HEXAGON_RESIDUES = {
    (0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1, (1, 3): 3, (0, 2): 3,
    (0, 1, 2): 1, (0, 1, 3): 1, (0, 2, 3): 1, (1, 2, 3): 1,
}


def test_criterion_4_four_colored_rediscovery(capsys):
    with capsys.disabled():
        all_ok = True
        for seq, p in [((6, 6, 6, 6), 6), ((4, 8, 4, 8), 8), ((4, 4, 8, 8), 8)]:
            start = time.monotonic()
            out = search_gems(
                SearchSpec(
                    seq=seq, vertex_count=p, require_3manifold=True,
                    budget_seconds=600,
                )
            )
            elapsed = time.monotonic() - start
            g = next((g for g in out.solutions if graph_homology(g) == S3), None)
            ok = g is not None
            detail = "no gem found"
            if ok:
                rep = embedding_report(g)
                ok = rep.chi == -2 and check_3manifold(g).holds
                detail = f"chi={rep.chi} H={graph_homology(g)} {elapsed:.2f}s"
                if seq == (6, 6, 6, 6):
                    stats = residue_stats(g)
                    matches = all(
                        stats[key] == value
                        for key, value in EXPECTED_HEXAGON_RESIDUES.items()
                    )
                    ok = ok and matches
                    detail += f" residue-params-forced={matches}"
            print(f"  {seq};{p}: {detail}")
            all_ok = all_ok and ok
        report("criterion 4", all_ok, "4-colored homology-sphere gems rediscovered")


def test_criterion_5_five_colored_rediscovery(capsys):
    with capsys.disabled():
        start = time.monotonic()
        out = search_gems(
            SearchSpec(
                seq=(4, 4, 4, 4, 4), vertex_count=8,
                require_residues_sphere=True, budget_seconds=1800,
            )
        )
        elapsed = time.monotonic() - start
        spheres = (g for g in out.solutions if graph_homology(g) == sphere_profile(4))
        g = next(spheres, None)
        ok = g is not None
        detail = "no gem found"
        if ok:
            ok = check_residues_sphere(g).holds
            detail = f"H={graph_homology(g)} residues-pass={ok} {elapsed:.2f}s"
        report("criterion 5", ok, f"(4^5);8 gem {detail}")


def test_criterion_6_larger_four_colored(capsys):
    with capsys.disabled():
        # (4,4,4,12);12: accepted with either homology-sphere or projective
        # homology; the classification text is ambiguous between the two, so
        # the result is logged rather than pinned
        out = search_gems(
            SearchSpec(
                seq=(4, 4, 4, 12), vertex_count=12, require_3manifold=True,
                max_solutions=1, budget_seconds=1800,
            )
        )
        ok_12 = bool(out.solutions)
        detail = "no gem found"
        if ok_12:
            h = graph_homology(out.solutions[0])
            ok_12 = h in (S3, RP3)
            which = "S3" if h == S3 else "RP3" if h == RP3 else "unexpected"
            detail = (
                f"H={h} matches {which} profile"
                " (both S3 and RP3 are accepted; source descriptions disagree)"
            )
        print(f"  (4,4,4,12);12: {detail}")

        out = search_gems(
            SearchSpec(
                seq=(4, 6, 4, 6), vertex_count=12, require_3manifold=True,
                budget_seconds=1800,
            )
        )
        ok_alt = any(graph_homology(g) == L31 for g in out.solutions)
        h_alt = L31 if ok_alt else None
        print(f"  (4,6,4,6);12: H={h_alt} (lens-space torsion Z/3)")

        out = search_gems(
            SearchSpec(
                seq=(4, 4, 6, 6), vertex_count=12, require_3manifold=True,
                budget_seconds=1800,
            )
        )
        ok_66 = any(graph_homology(g) == RP3 for g in out.solutions)
        h_66 = RP3 if ok_66 else None
        print(f"  (4,4,6,6);12: H={h_66} (projective-space torsion Z/2)")

        # best effort, not gating: 4-colored types on 16+ vertices
        for seq, p in [((4, 4, 4, 8), 16), ((4, 4, 4, 6), 24)]:
            out = search_gems(
                SearchSpec(
                    seq=seq, vertex_count=p, require_3manifold=True,
                    max_solutions=1, budget_seconds=120,
                )
            )
            if out.solutions:
                print(
                    f"  best-effort {seq};{p}: found,"
                    f" H={graph_homology(out.solutions[0])}"
                )
            else:
                print(f"  best-effort {seq};{p}: not found within budget (not gating)")

        report(
            "criterion 6",
            ok_12 and ok_alt and ok_66,
            "12-vertex 4-colored gems with required torsion found",
        )


def test_criterion_7_property_suite(capsys):
    with capsys.disabled():
        start = time.monotonic()
        rng = random.Random(20260809)

        # (a) boundary of boundary vanishes on every constructed complex
        corpus = [theta_graph(), cube_graph(), k4_graph()]
        corpus += [random_colored_graph(rng, 8, 4) for _ in range(10)]
        corpus += [random_colored_graph(rng, 6, 5) for _ in range(5)]
        corpus += [random_colored_graph(rng, 12, 3) for _ in range(10)]
        dd_zero = True
        for g in corpus:
            cells, boundaries = build_complex(g)
            mats = [
                dense_rows(mat, len(cells[i]))
                for i, mat in enumerate(boundaries[1:], 1)
            ]
            for low, high in zip(mats, mats[1:]):
                cols = len(high[0]) if high else 0
                for j in range(cols):
                    column = [sum(high[i][j] * low[r][i] for i in range(len(high)))
                              for r in range(len(low))]
                    if any(column):
                        dd_zero = False
        print(f"  (a) boundary^2 = 0 on {len(corpus)} complexes: {dd_zero}")

        # (b) embedding chi equals complex chi on 200 random connected graphs
        chi_ok = True
        for _ in range(200):
            p = rng.choice([4, 6, 8, 10, 12])
            g = random_connected_graph(rng, p, 3)
            if embedding_report(g).chi != cell_chi(build_complex(g)[0]):
                chi_ok = False
        print(f"  (b) embedding chi == complex chi on 200 graphs: {chi_ok}")

        # (c) Smith normal form agrees with the minor-gcd oracle
        snf_ok = True
        for _ in range(500):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            mat = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
            if smith_normal_form(sparse_rows(mat)) != minor_gcd_invariant_factors(mat):
                snf_ok = False
        print(f"  (c) SNF vs minor-gcd oracle on 500 matrices: {snf_ok}")

        # (d) search with dedup agrees with naive full enumeration, p <= 8
        specs = [((4, 4, 4), 4), ((6, 6, 6), 6)]
        specs += [(seq, 8) for seq in [
            (4, 4, 4), (4, 4, 8), (4, 8, 4), (8, 4, 4),
            (4, 8, 8), (8, 4, 8), (8, 8, 4), (8, 8, 8),
        ]]
        search_ok = True
        for seq, p in specs:
            got = {
                canonical_code(g)
                for g in search_gems(SearchSpec(seq=seq, vertex_count=p)).solutions
            }
            if got != naive_type_search(seq, p):
                search_ok = False
                print(f"      mismatch at {seq};{p}")
        print(f"  (d) search matches naive oracle on {len(specs)} specs: {search_ok}")

        # (e) gem file round trip on 1000 random graphs
        io_ok = True
        for _ in range(1000):
            p = rng.choice([2, 4, 6, 8, 10, 14, 20])
            colors = rng.choice([2, 3, 4, 5])
            g = random_colored_graph(rng, p, colors)
            if parse_gem(write_gem(g)) != g:
                io_ok = False
        print(f"  (e) round trip on 1000 graphs: {io_ok}")

        elapsed = time.monotonic() - start
        ok = dd_zero and chi_ok and snf_ok and search_ok and io_ok and elapsed < 300
        report("criterion 7", ok, f"property suite complete in {elapsed:.1f}s")


def test_criterion_8_no_six_colored_types(capsys):
    with capsys.disabled():
        solutions = enumerate_types(-2, colors=6)
        report(
            "criterion 8",
            solutions == [],
            "forcing six colors at chi=-2 yields an empty census",
        )


def test_criterion_9_every_double_torus_type_realized(capsys):
    # the census's own (faces, p) pairs go straight into the search; the
    # orientable filter is what puts 3-colored hits on the double torus and
    # not on N4, which has the same chi
    checks = {
        3: lambda g: check_surface(g) == SurfaceDescriptor(True, 2),
        4: lambda g: check_3manifold(g).holds,
        5: lambda g: check_residues_sphere(g).holds,
    }
    with capsys.disabled():
        start = time.monotonic()
        types = enumerate_types(-2)
        missed = []
        for faces, p in types:
            out = search_gems(
                SearchSpec(
                    seq=faces, vertex_count=p, orientable=True, max_solutions=1,
                    require_3manifold=len(faces) == 4,
                    require_residues_sphere=len(faces) == 5,
                    budget_seconds=10,
                )
            )
            ok = bool(out.solutions)
            if ok:
                g = out.solutions[0]
                rep = embedding_report(g)
                ok = (
                    (rep.chi, rep.orientable, rep.genus, rep.se_type) == (-2, True, 2, faces)
                    and checks[len(faces)](g)
                )
            if not ok:
                missed.append(faces)
                print(f"  [{type_name(faces)};{p}]: no double-torus gem of this type")
        elapsed = time.monotonic() - start
        report(
            "criterion 9",
            len(types) == 31 and not missed,
            f"{len(types) - len(missed)} of {len(types)} chi=-2 types realized on the"
            f" double torus ({elapsed:.2f}s)",
        )
