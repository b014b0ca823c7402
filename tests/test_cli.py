import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gemtk
from gemtk import embeddings, graphs, parse_gem, validate, write_gem
from gemtk.cli import CHECK_FAILED, run_cli

from helpers import (
    cube_graph,
    k4_graph,
    random_connected_graph,
    relabel,
    rp3_double,
    theta_graph,
)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTypes:
    def test_chi_minus_2_plain(self, capsys):
        code, out, err = run(capsys, "types", "--chi", "-2")
        assert code == 0
        assert len(out.splitlines()) == 31
        assert all(line.startswith("[") for line in out.splitlines())
        assert "total: 31 types for chi=-2" in err

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "types", "--chi", "-2", "--json")
        records = [json.loads(l) for l in out.splitlines()]
        assert code == 0
        assert len(records) == 31
        assert {"seq", "p", "colors", "chi"} <= set(records[0])
        assert any(r["seq"] == [4, 4, 4, 4, 4] and r["p"] == 8 for r in records)

    def test_colors_restriction(self, capsys):
        code, out, _ = run(capsys, "types", "--chi", "-2", "--colors", "6", "--json")
        assert code == 0
        assert out.strip() == ""

    @pytest.mark.parametrize("colors", ["2", "0", "-3"])
    def test_fewer_than_three_colors_is_usage_error(self, capsys, colors):
        code, out, err = run(capsys, "types", "--chi", "-2", "--colors", colors)
        assert (code, out) == (2, "")
        assert err == f"error: a type needs at least 3 colors, got {colors}\n"

    def test_nonnegative_chi_is_usage_error(self, capsys):
        code, _, err = run(capsys, "types", "--chi", "0")
        assert code == 2

    def test_hostile_chi_fails_fast(self, capsys):
        code, out, err = run(capsys, "types", "--chi", "-1000000")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "chi >= -100" in err

    def test_relaxed_divisibility_is_superset(self, capsys):
        code, strict_out, _ = run(capsys, "types", "--chi", "-2", "--json")
        strict = {l for l in strict_out.splitlines()}
        code2, relaxed_out, _ = run(
            capsys, "types", "--chi", "-2", "--no-face-divisibility", "--json"
        )
        relaxed = {l for l in relaxed_out.splitlines()}
        assert code == code2 == 0
        assert strict < relaxed


class TestVerify:
    def test_cube_ok(self, capsys, tmp_path):
        path = tmp_path / "cube.gem"
        path.write_text(write_gem(cube_graph()))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "orientable genus 0" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "missing.gem")
        assert code == 2
        assert "missing.gem" in err

    def test_failing_manifold_check(self, capsys, tmp_path):
        g = parse_gem(
            "gem 1\ncolors 4\nvertices 4\n"
            "color 0: 0-1 2-3\ncolor 1: 0-2 1-3\ncolor 2: 0-3 1-2\ncolor 3: 0-1 2-3\n"
        )
        path = tmp_path / "bad.gem"
        path.write_text(write_gem(g))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_invalid_gem_is_check_failure(self, capsys, tmp_path):
        path = tmp_path / "loop.gem"
        path.write_text("gem 1\ncolors 2\nvertices 2\ncolor 0: 0-0\ncolor 1: 0-1\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1

    def test_oversized_defect_list_gives_bounded_message(self, capsys, tmp_path):
        # 19,999 loops per color line, each a defect, and one pair-count
        # defect per color: 60,000 defects
        path = tmp_path / "loops.gem"
        loops = " 0-0" * 19_999
        path.write_text(
            "gem 1\ncolors 3\nvertices 2\n"
            + "".join(f"color {c}:{loops}\n" for c in range(3))
        )
        code, _, err = run(capsys, "verify", str(path))
        assert code == CHECK_FAILED
        assert len(err.encode()) < 4096
        assert "and 59980 more" in err

    def test_syntax_error_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "syntax.gem"
        path.write_text("gem 1\ncolors 2\nwat\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2

    def test_json(self, capsys, tmp_path):
        path = tmp_path / "k4.gem"
        path.write_text(write_gem(k4_graph()))
        code, out, _ = run(capsys, "verify", str(path), "--json")
        record = json.loads(out)
        assert code == 0
        assert record["orientable"] is False
        assert record["g_counts"]["0,1"] == 1
        assert record["checks"]["surface"] == {"orientable": False, "genus": 1}

    def test_json_criterion_is_boolean(self, capsys, tmp_path):
        # the 2-vertex 4-colored dipole encodes the 3-sphere
        path = tmp_path / "dipole.gem"
        path.write_text(write_gem(validate(4, 2, [[(0, 1)]] * 4)))
        code, out, _ = run(capsys, "verify", str(path), "--json")
        record = json.loads(out)
        assert code == 0
        assert record["checks"]["criterion_3manifold"] is True

    def test_five_colored_residue_failure(self, capsys, tmp_path):
        # a theta-like 5-colored graph with one color replaced by a matching
        # that breaks a residue criterion on 4 vertices
        text = (
            "gem 1\ncolors 5\nvertices 4\n"
            "color 0: 0-1 2-3\ncolor 1: 0-2 1-3\ncolor 2: 0-3 1-2\n"
            "color 3: 0-1 2-3\ncolor 4: 0-2 1-3\n"
        )
        path = tmp_path / "five.gem"
        path.write_text(text)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "residues_homology_sphere: False" in out
        assert "(color 0, component 0)" in out

    def test_above_eight_colors_reports_without_embeddings(self, capsys, tmp_path):
        # 9 colors have 20,160 cyclic orders: verify lists none of them but
        # still validates the gem and reports its residue counts
        path = tmp_path / "nine.gem"
        path.write_text(colored_dipole(9))
        code, out, err = run(capsys, "verify", "--json", str(path))
        record = json.loads(out)
        assert (code, err) == (0, "")
        assert record["connected"] is True and record["orientable"] is True
        assert record["embeddings"] == [] and record["ok"] is True
        # one component per color set of 2 and 3 colors, and the whole gem
        assert len(record["g_counts"]) == 36 + 84 + 1
        assert set(record["g_counts"].values()) == {1}
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert "validation: ok\n" in out and "bipartite: yes (orientable)\n" in out
        assert out.endswith(
            "note: embeddings skipped above 8 colors; report one order with embed --perm\nok\n"
        )

    def test_g_counts_keys_keep_color_sets_apart(self, capsys, tmp_path):
        # a key joins its colors by commas: with bare digits, from 13 colors
        # on (0, 12) and (0, 1, 2) would share the key "012"
        path = tmp_path / "thirteen.gem"
        path.write_text(colored_dipole(13))
        code, out, _ = run(capsys, "verify", "--json", str(path))
        g_counts = json.loads(out)["g_counts"]
        assert code == 0
        assert len(g_counts) == 78 + 286 + 1
        whole = ",".join(map(str, range(13)))
        assert g_counts["0,12"] == g_counts["0,1,2"] == g_counts[whole] == 1


def colored_dipole(colors: int) -> str:
    lines = "".join(f"color {c}: 0-1\n" for c in range(colors))
    return f"gem 1\ncolors {colors}\nvertices 2\n{lines}"


class TestEmbed:
    def test_default_order(self, capsys, tmp_path):
        path = tmp_path / "theta.gem"
        path.write_text(write_gem(theta_graph()))
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 0
        assert "chi=2" in out

    def test_all_perms(self, capsys, tmp_path):
        g = parse_gem(
            "gem 1\ncolors 4\nvertices 2\n"
            "color 0: 0-1\ncolor 1: 0-1\ncolor 2: 0-1\ncolor 3: 0-1\n"
        )
        path = tmp_path / "g.gem"
        path.write_text(write_gem(g))
        code, out, _ = run(capsys, "embed", str(path), "--all-perms", "--json")
        records = [json.loads(l) for l in out.splitlines()]
        assert code == 0
        assert len(records) == 3

    def test_specific_perm(self, capsys, tmp_path):
        path = tmp_path / "cube.gem"
        path.write_text(write_gem(cube_graph()))
        code, out, _ = run(capsys, "embed", str(path), "--perm", "0,2,1", "--json")
        record = json.loads(out)
        assert code == 0
        assert record["seq"] == [4, 4, 4]

    def test_too_many_orders_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nine.gem"
        path.write_text(colored_dipole(9))
        code, out, err = run(capsys, "embed", "--all-perms", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: 9 colors have 20,160 cyclic orders, too many to list"
            " (at most 8 colors); report one order with embed --perm\n"
        )

    def test_bad_perm(self, capsys, tmp_path):
        path = tmp_path / "cube.gem"
        path.write_text(write_gem(cube_graph()))
        code, _, err = run(capsys, "embed", str(path), "--perm", "0,1")
        assert code == 2


def counted(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestWorkCounts:
    """Each residue is walked once per gem, a color pair's as cycles by the
    one cycle walker and every other as a breadth-first walk, and
    connectivity and orientability are decided once for all orders."""

    def gem_file(self, tmp_path, graph):
        path = tmp_path / "g.gem"
        path.write_text(write_gem(graph))
        return str(path)

    def walks(self, monkeypatch):
        """The calls of ``graphs.bicolored_cycles``, wherever it is reached
        from, and of ``graphs._bfs_components``."""
        cycles = counted(monkeypatch, graphs, "bicolored_cycles")
        monkeypatch.setattr(embeddings, "bicolored_cycles", graphs.bicolored_cycles)
        return cycles, counted(monkeypatch, graphs, "_bfs_components")

    @pytest.mark.parametrize(
        "graph, residues, pairs",
        [
            (cube_graph(), 4, 3),  # 3 pairs, the whole set
            (random_connected_graph(random.Random(4), 12, 4), 11, 6),  # + 4 triples
            (random_connected_graph(random.Random(5), 12, 5), 26, 10),  # + 10, + 5 quads
            (rp3_double(), 26, 10),
        ],
    )
    def test_verify(self, capsys, tmp_path, monkeypatch, graph, residues, pairs):
        path = self.gem_file(tmp_path, graph)
        cycles, bfs = self.walks(monkeypatch)
        # orientability is decided once, for the check and every embedding
        bipartite = [counted(monkeypatch, m, "is_bipartite") for m in (gemtk.cli, embeddings)]
        run(capsys, "verify", "--json", path)
        walked = [(a, b) for _, a, b in cycles] + [tuple(colors) for _, _, colors in bfs]
        assert (len(cycles), len(bfs)) == (pairs, residues - pairs)
        assert len(set(walked)) == residues
        assert sum(map(len, bipartite)) == 1

    def test_embed_all_perms(self, capsys, tmp_path, monkeypatch):
        path = self.gem_file(tmp_path, rp3_double())
        cycles, bfs = self.walks(monkeypatch)
        bipartite = counted(monkeypatch, embeddings, "is_bipartite")
        connected = counted(monkeypatch, embeddings, "is_connected")
        code, out, _ = run(capsys, "embed", "--all-perms", "--json", path)
        assert code == 0
        assert len(out.splitlines()) == 12
        assert sorted((a, b) for _, a, b in cycles) == [
            (a, b) for a in range(5) for b in range(a + 1, 5)
        ]
        assert [colors for _, _, colors in bfs] == [(0, 1, 2, 3, 4)]  # connectivity
        assert (len(bipartite), len(connected)) == (1, 1)


class TestHomology:
    def test_plain(self, capsys, tmp_path):
        path = tmp_path / "theta.gem"
        path.write_text(write_gem(theta_graph()))
        code, out, _ = run(capsys, "homology", str(path))
        assert code == 0
        assert "H_0 = Z" in out
        assert "H_1 = 0" in out
        assert "H_2 = Z" in out

    def test_json(self, capsys, tmp_path):
        path = tmp_path / "k4.gem"
        path.write_text(write_gem(k4_graph()))
        code, out, _ = run(capsys, "homology", str(path), "--json")
        record = json.loads(out)
        assert record["betti"] == [1, 0, 0]
        assert record["torsion"] == [[], [2], []]

    def test_disconnected_reported_per_component(self, capsys, tmp_path):
        path = tmp_path / "two.gem"
        path.write_text(
            "gem 1\ncolors 3\nvertices 4\n"
            "color 0: 0-1 2-3\ncolor 1: 0-1 2-3\ncolor 2: 0-1 2-3\n"
        )
        code, out, _ = run(capsys, "homology", str(path), "--json")
        records = [json.loads(l) for l in out.splitlines()]
        assert code == 0
        assert [r["component"] for r in records] == [0, 1]
        assert all(r["betti"] == [1, 0, 1] for r in records)

    def test_disconnected_text_reported_per_component(self, capsys, tmp_path):
        path = tmp_path / "two.gem"
        path.write_text(
            "gem 1\ncolors 3\nvertices 4\n"
            "color 0: 0-1 2-3\ncolor 1: 0-1 2-3\ncolor 2: 0-1 2-3\n"
        )
        code, out, _ = run(capsys, "homology", str(path))
        assert code == 0
        block = ["H_0 = Z", "H_1 = 0", "H_2 = Z"]
        assert out.splitlines() == (
            ["component 0 (2 vertices):"] + block + ["component 1 (2 vertices):"] + block
        )


class TestSearch:
    def test_emits_gem_file(self, capsys, tmp_path):
        out_dir = tmp_path / "found"
        code, out, _ = run(
            capsys,
            "search", "--type", "4,8,4,8", "--vertices", "8",
            "--require-3manifold", "--max", "1", "--out", str(out_dir),
        )
        assert code == 0
        files = list(out_dir.glob("*.gem"))
        assert len(files) == 1
        found = parse_gem(files[0].read_text())
        assert found.vertex_count == 8

    def test_out_onto_a_file_is_a_file_error(self, capsys, tmp_path, monkeypatch):
        # the directory is made before the search, so no search runs
        monkeypatch.setattr(gemtk.cli, "search_gems", lambda spec: pytest.fail("searched"))
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        for target in (blocker, blocker / "found"):
            code, out, err = run(
                capsys,
                "search", "--type", "10,10,10", "--vertices", "10", "--all",
                "--out", str(target),
            )
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: cannot write {target}: ")
        assert blocker.read_text() == "not a directory\n"

    def test_unwritable_gem_file_is_a_file_error(self, capsys, tmp_path):
        spec = ("--type", "10,10,10", "--vertices", "10", "--orientable", "--all")
        code, out, _ = run(capsys, "search", *spec, "--out", str(tmp_path / "found"))
        assert code == 0
        names = sorted(line.split()[1] for line in out.splitlines() if line.startswith("wrote"))
        assert len(names) == 4
        # a directory in the place of a gem file makes writing it fail
        out_dir = tmp_path / "blocked"
        (out_dir / names[0]).mkdir(parents=True)
        code, out, err = run(capsys, "search", *spec, "--out", str(out_dir))
        assert code == 2
        assert err.startswith(f"error: cannot write {out_dir / names[0]}: ")

    def test_stdout_mode(self, capsys):
        code, out, _ = run(
            capsys, "search", "--type", "6,6,6,6", "--vertices", "6", "--max", "1"
        )
        assert code == 0
        assert out.startswith("gem 1")

    def test_summary_reports_candidates_and_prunes(self, capsys):
        # with --json the summary goes to stderr; zero prune counts are left out
        code, out, err = run(
            capsys,
            "search", "--type", "4,4,4,4,4", "--vertices", "8",
            "--require-residues-sphere", "--all", "--json",
        )
        assert code == 0
        assert len(out.splitlines()) == 5
        assert "nodes: 130 candidates: 21 exhausted: yes" in err
        # the orbit walk cuts duplicates edge by edge, below connected and
        # disconnected prefixes alike, before the filter's last part: 6
        # last-color edges count as duplicates
        assert " criterion_residues=36 duplicate_prefix=3 duplicate=6\n" in err
        assert "orientable" not in err

    def test_first_hit_summary_reports_dead_closures(self, capsys):
        code, out, err = run(
            capsys,
            "search", "--type", "4,4,4,6", "--vertices", "24",
            "--require-3manifold", "--max", "1", "--json",
        )
        assert code == 0
        assert len(out.splitlines()) == 1
        assert "nodes: 396 candidates: 6 exhausted: no" in err
        assert " dead_closure=954 " in err

    def test_infeasible_spec(self, capsys):
        code, _, err = run(capsys, "search", "--type", "2,2,2", "--vertices", "2")
        assert code == 2

    def test_negative_budget_is_infeasible(self, capsys):
        code, out, err = run(
            capsys,
            "search", "--type", "4,4,4", "--vertices", "24", "--budget", "-5", "--all",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: infeasible search spec")

    def test_solution_limit_below_one_is_infeasible(self, capsys):
        for limit in ("0", "-3"):
            code, out, err = run(
                capsys, "search", "--type", "4,4,4", "--vertices", "8", "--max", limit
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: infeasible search spec")

    def test_budget_exceeded_without_solution_fails(self, capsys):
        code, out, _ = run(
            capsys,
            "search", "--type", "4,4,4,6", "--vertices", "24",
            "--require-3manifold", "--orientable", "--max", "5",
            "--budget", "0.02",
        )
        assert code in (0, 1)
        if "solutions: 0" in out:
            assert code == 1
            assert "exhausted: no" in out

    def test_budget_stopping_all_with_solutions_is_inconclusive(self, capsys):
        # a partial class count must not pass for a complete one
        code, out, _ = run(
            capsys,
            "search", "--type", "4,6,14", "--vertices", "168", "--orientable",
            "--all", "--budget", "0.5",
        )
        assert code == CHECK_FAILED
        assert out.startswith("gem 1")  # the solutions found are still printed
        assert "exhausted: no" in out
        assert "solutions: 0" not in out

    def test_non_orientable_count(self, capsys):
        code, out, err = run(
            capsys, "search", "--type", "4,4,6,6", "--vertices", "12",
            "--non-orientable", "--all", "--json",
        )
        assert code == 0
        assert len(out.splitlines()) == 36
        assert " orientable=8" in err

    def test_both_orientabilities_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "search", "--type", "4,4,4", "--vertices", "8",
            "--orientable", "--non-orientable",
        )
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    def test_exhausted_empty_is_success(self, capsys):
        # the only quadrilateral graph on 4 vertices is non-bipartite, so the
        # bipartite search exhausts with nothing to report
        code, out, _ = run(
            capsys, "search", "--type", "4,4,4", "--vertices", "4",
            "--orientable", "--all",
        )
        assert code == 0
        assert "solutions: 0" in out
        assert "exhausted: yes" in out


class TestCanon:
    def test_relabel_stable(self, capsys, tmp_path):
        g = cube_graph()
        shuffled = relabel(g, [3, 7, 1, 5, 0, 4, 2, 6])
        a = tmp_path / "a.gem"
        b = tmp_path / "b.gem"
        a.write_text(write_gem(g))
        b.write_text(write_gem(shuffled))
        code_a, out_a, _ = run(capsys, "canon", str(a))
        code_b, out_b, _ = run(capsys, "canon", str(b))
        assert code_a == code_b == 0
        assert out_a == out_b


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_runs_as_module(self):
        src = str(Path(gemtk.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "gemtk", "types", "--chi", "-1"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0
        assert len(done.stdout.splitlines()) == 15

    def test_oversized_search_fails_fast(self):
        # in 128 MB of address space a search of 10^12 vertices is refused at
        # once with one line, and the largest spec the bound allows (3 colors
        # under the parity rule need the most memory) runs its first nodes
        resource = pytest.importorskip("resource")
        src = str(Path(gemtk.__file__).resolve().parents[1])
        p = gemtk.search._MAX_STATE_ENTRIES // 3 // 4 * 4

        def search(vertices, *flags):
            return subprocess.run(
                [sys.executable, "-m", "gemtk", "search", "--type", "4,4,4",
                 "--vertices", str(vertices), *flags],
                capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**27, 2**27)),
            )

        done = search(10**12)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: infeasible search spec: 3 colors x 1,000,000,000,000")
        assert len(done.stderr.splitlines()) == 1
        done = search(p, "--orientable", "--budget", "0")
        assert (done.returncode, done.stderr) == (1, "")
        assert "nodes: 1024 candidates: 0 exhausted: no" in done.stdout

    def test_no_arguments(self, capsys):
        assert run_cli([]) == 2
