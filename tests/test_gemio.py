import random
import re

import pytest

from gemtk import GemParseError, GemValidationError, gemio, parse_gem, write_gem

from helpers import cube_graph, random_colored_graph, theta_graph

THETA_TEXT = """\
gem 1
colors 3
vertices 2
color 0: 0-1
color 1: 0-1
color 2: 0-1
"""


class TestParse:
    def test_theta(self):
        g = parse_gem(THETA_TEXT)
        assert g.vertex_count == 2
        assert g.color_count == 3

    def test_comments_and_blank_lines(self):
        text = "# a θ-shaped example\n\ngem 1\ncolors 3 # trailing comment\n\nvertices 2\ncolor 0: 0-1\ncolor 1: 0-1\ncolor 2: 0-1\n"
        assert parse_gem(text) == parse_gem(THETA_TEXT)

    def test_extra_color_line_reports_location(self):
        text = THETA_TEXT + "color 3: 0-1\n"
        with pytest.raises(GemParseError) as err:
            parse_gem(text)
        assert err.value.line == 7

    def test_duplicate_color_line(self):
        text = THETA_TEXT + "color 2: 0-1\n"
        with pytest.raises(GemParseError) as err:
            parse_gem(text)
        assert "duplicate" in str(err.value)

    def test_missing_color_line_is_semantic(self):
        text = "gem 1\ncolors 3\nvertices 2\ncolor 0: 0-1\ncolor 1: 0-1\n"
        with pytest.raises(GemValidationError):
            parse_gem(text)

    def test_large_header_with_empty_colors_gives_one_defect_per_color(self):
        text = "gem 1\ncolors 3\nvertices 200000\ncolor 0:\ncolor 1:\ncolor 2:\n"
        with pytest.raises(GemValidationError) as err:
            parse_gem(text)
        colors = [d.color for d in err.value.defects]
        assert sorted(colors) == [0, 1, 2]

    def test_large_color_header_gives_one_defect(self):
        # the missing colors 0..999999 form one run, reported once
        with pytest.raises(GemValidationError) as err:
            parse_gem("gem 1\ncolors 1000000\nvertices 2\n")
        assert [(d.kind, d.color) for d in err.value.defects] == [("ColorGap", 0)]
        assert "0..999999" in err.value.defects[0].detail

    def test_missing_colors_reported_as_runs(self):
        text = "gem 1\ncolors 6\nvertices 2\ncolor 0: 0-1\ncolor 3: 0-1\n"
        with pytest.raises(GemValidationError) as err:
            parse_gem(text)
        gaps = [(d.color, d.detail) for d in err.value.defects]
        assert gaps == [
            (1, "colors 1..2 have no pairing"),
            (4, "colors 4..5 have no pairing"),
        ]

    def test_malformed_pair(self):
        text = "gem 1\ncolors 2\nvertices 2\ncolor 0: 0-1\ncolor 1: 0~1\n"
        with pytest.raises(GemParseError) as err:
            parse_gem(text)
        assert err.value.line == 5
        assert err.value.column >= 1

    @pytest.mark.parametrize(
        "token",
        ["1-", "-1", "1-2-3", "1--2", "+1-2", "1_0-2", "a-b", "0~1", "١-٢", "0-1", "1-²"],
    )
    def test_pair_tokens_match_the_regex(self, token, monkeypatch):
        # the pair syntax is \d+-\d+, with any Unicode decimal digits, which
        # int reads, but no other digits (a superscript two is one that int
        # refuses); validation is bypassed to see the parsed pairs
        monkeypatch.setattr(gemio, "validate", lambda colors, p, pairings: pairings)
        body = f"color 1: 0-1 {token}"
        text = f"gem 1\ncolors 2\nvertices 2\ncolor 0: 0-1\n{body}\n"
        match = re.fullmatch(r"(\d+)-(\d+)", token)
        if match:
            pair = (int(match[1]), int(match[2]))
            assert parse_gem(text) == {0: [(0, 1)], 1: [(0, 1), pair]}
            return
        with pytest.raises(GemParseError) as err:
            parse_gem(text)
        assert (err.value.line, err.value.column) == (5, len(body) - len(token) + 1)
        assert f"malformed pair {token!r}" in str(err.value)

    @pytest.mark.parametrize(
        "body,column",
        [
            ("color 0: 1-2 1-", 14),
            ("color 1: 0-1 -1", 14),
            ("color 1: 0-1 1-0 0-1 0-", 22),
            ("  color 1:\t0-1  x-1", 17),
        ],
    )
    def test_malformed_pair_column_is_the_tokens_own(self, body, column):
        # a token whose text also occurs earlier on the line, even inside
        # another pair, is reported where it stands
        other = "color 1: 0-1" if "color 0" in body else "color 0: 0-1"
        with pytest.raises(GemParseError) as err:
            parse_gem(f"gem 1\ncolors 2\nvertices 2\n{other}\n{body}\n")
        assert (err.value.line, err.value.column) == (5, column)

    def test_bad_version(self):
        with pytest.raises(GemParseError):
            parse_gem("gem 2\ncolors 2\nvertices 2\ncolor 0: 0-1\ncolor 1: 0-1\n")

    def test_missing_header(self):
        with pytest.raises(GemParseError):
            parse_gem("colors 2\nvertices 2\ncolor 0: 0-1\ncolor 1: 0-1\n")

    def test_empty_file(self):
        with pytest.raises(GemParseError):
            parse_gem("   \n# nothing\n")

    def test_loop_pair_is_semantic(self):
        text = "gem 1\ncolors 2\nvertices 2\ncolor 0: 0-0\ncolor 1: 0-1\n"
        with pytest.raises(GemValidationError):
            parse_gem(text)


class TestRoundTrip:
    def test_cube_fixed_point(self):
        text = write_gem(cube_graph())
        assert parse_gem(text) == cube_graph()
        assert write_gem(parse_gem(text)) == text

    def test_theta(self):
        assert write_gem(parse_gem(THETA_TEXT)) == THETA_TEXT

    def test_random_graphs(self):
        rng = random.Random(53)
        for _ in range(100):
            p = rng.choice([2, 4, 6, 8, 12, 20])
            colors = rng.choice([2, 3, 4, 5])
            g = random_colored_graph(rng, p, colors)
            text = write_gem(g)
            assert parse_gem(text) == g
            assert write_gem(parse_gem(text)) == text

    def test_writer_uses_lf_and_sorted_pairs(self):
        text = write_gem(theta_graph())
        assert "\r" not in text
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "gem 1"
        assert lines[3] == "color 0: 0-1"
