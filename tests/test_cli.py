"""The file format and the command-line interface."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcat as fc
import flowcat.cli
import flowcat.generators
from flowcat.cli import main

from _helpers import find_cell


def _write(tmp_path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture()
def deformed_file(tmp_path, deformed_fs) -> str:
    return _write(tmp_path, "deformed.ft", fc.render_tower_file(deformed_fs))


class TestRoundTrip:
    def test_deformed(self, deformed_fs):
        fs, decls = fc.parse_tower_file(fc.render_tower_file(deformed_fs))
        assert fs == deformed_fs
        assert decls.entries == ()

    def test_spheres_with_declarations(self):
        for n in (1, 2, 3):
            fs, decls = fc.sphere_system(n)
            got_fs, got_decls = fc.parse_tower_file(fc.render_tower_file(fs, decls))
            assert got_fs == fs
            assert got_decls == decls

    def test_random_systems(self):
        for seed in (0, 7, 11):
            fs = fc.random_system(seed)
            got_fs, _ = fc.parse_tower_file(fc.render_tower_file(fs))
            assert got_fs == fs

    def test_declared_shapes(self):
        text = (
            "[critical]\nN 3\nS 0\n\n[moduli N S]\ncomponent c0 shape Declared 2\n\n"
            "[declare M(N>S)]\ncritical a index 2 component c0\n"
            "critical b index 0 component c0\n"
            "moduli a b component 0 shape Declared 1\n"
        )
        fs, decls = fc.parse_tower_file(text)
        assert fs.table["N", "S"][0].shape == fc.parse_shape("Declared 2")
        assert fc.render_tower_file(fs, decls) == text
        assert fc.parse_tower_file(fc.render_tower_file(fs, decls)) == (fs, decls)

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\n[critical]\nx 1  # max\ny 0\n\n[moduli x y]\ncomponent c0 shape Point\n"
        fs, _ = fc.parse_tower_file(text)
        assert {p.id for p in fs.points} == {"x", "y"}


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, lineno, needle",
        [
            ("[critical]\nw 0\nw 1\n", 3, "duplicate name"),
            (
                "[critical]\nx 1\ny 0\n\n[moduli x y]\ncomponent c0 shape Blob\n",
                6,
                "unknown shape",
            ),
            (
                "[critical]\nx 1\ny 0\n\n[moduli x y]\n"
                "component c0 shape Interval endpoints (zap) (pow)\n",
                6,
                "bad endpoint piece",
            ),
            ("w 0\n", 1, "before any section"),
            (
                "[critical]\nN 2\nS 0\n\n[moduli N S]\ncomponent c0 shape Circle\n\n"
                "[declare M(N>S)]\ncritical hi1 index 1 component c0\n"
                "critical lo1 index 0 component c0\n"
                "moduli hi1 lo1 component c0 shape Interval\n",
                11,
                "cannot be Interval",
            ),
            ("[critical]\nx -1\n", 2, "negative index"),
            (
                "[critical]\nx 1\ny 0\n[moduli x y]\ncomponent c0 Point\n",
                5,
                "expected 'component <id> shape <shape> ...', got 'component c0 Point'",
            ),
            (
                "[critical]\nx 1\ny 0\n[moduli x y]\ncomponent c0 shape Declared -1\n",
                5,
                "declared_shape(-1): dimension must be >= 0",
            ),
            (
                "[critical]\nx 1\ny 0\n\n[moduli x q]\ncomponent c0 shape Point\n",
                5,
                "unknown point 'q'",
            ),
            (
                "[critical]\nx 1\ny 0\n[moduli x y]\ncomponent c0 shape Point\n"
                "[moduli x y]\n",
                6,
                "second [moduli x y] section",
            ),
            (
                "[critical]\nx 1\ny 0\n[moduli x y]\ncomponent c0 shape SphereLike\n",
                5,
                "shape 'SphereLike' needs a dimension",
            ),
            ("[critical\nx 0\n", 1, "unterminated section header"),
            ("[critical]\nx 0\n[bogus]\n", 3, "unknown section"),
            ("[critical]\nx 1 2\n", 2, "expected 'id index'"),
            ("[critical]\nx one\n", 2, "bad index 'one'"),
            (
                "[critical]\nx 1\ny 0\n[moduli x y]\ncomponent c0 shape Point extra\n",
                5,
                "unexpected token 'extra'",
            ),
            (
                "[critical]\nx 1\ny 0\n[moduli x y]\n"
                "component c0 shape Interval endpoints zap\n",
                5,
                "bad endpoints syntax",
            ),
            (
                "[critical]\nx 1\ny 0\n[moduli x y]\ncomponent c0 shape Point\n"
                "component c0 shape Point\n",
                6,
                "duplicate component id 'c0'",
            ),
            (
                "[critical]\nN 2\nS 0\n[moduli N S]\ncomponent c0 shape Circle\n"
                "[declare M(N>S)]\ncritical hi1 index 1 component c0\n"
                "critical lo1 index 0 component c0\n"
                "moduli hi1 lo1 component c0 shape Point extra\n",
                9,
                "unexpected trailing tokens",
            ),
            (
                "[critical]\nN 2\nS 0\n[declare M(N>S)]\nbogus line\n",
                5,
                "unknown declare line",
            ),
            (
                "[critical]\nN 2\nS 0\n[declare M(N>S)]\ncritical hi1 index 1 c0\n",
                5,
                "expected 'critical <name> index <k> component <id>'",
            ),
            (
                "[critical]\nN 2\nS 0\n[declare M(N>S)]\nmoduli a b shape Point\n",
                5,
                "expected 'moduli <p> <q> component <id> shape <shape>'",
            ),
            ("[critical]\n", 1, "no [critical] section with points"),
            (
                "[critical]\nN 2\nS 0\n[moduli N S]\ncomponent c0 shape Circle\n"
                "[declare M(N>S)]\ncritical N index 1 component c0\n",
                7,
                "name 'N' already used at line 2",
            ),
        ],
    )
    def test_line_numbers_and_messages(self, text, lineno, needle):
        with pytest.raises(fc.ParseError) as err:
            fc.parse_tower_file(text)
        assert str(err.value).startswith(f"line {lineno}:")
        assert needle in str(err.value)


class TestExitCodes:
    def test_generate_build_check_pipeline(self, tmp_path, capsys):
        out = str(tmp_path / "s2.ft")
        assert main(["generate", "sphere", "--n", "2", "-o", out]) == 0
        assert main(["build", out]) == 0
        assert "M(hi1>lo1|N>S)" in capsys.readouterr().out
        assert main(["check", out]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_generate_writes_to_stdout_by_default(self, capsys):
        assert main(["generate", "deformed"]) == 0
        text = capsys.readouterr().out
        assert "[critical]" in text
        fs, _ = fc.parse_tower_file(text)
        assert fs == fc.deformed_sphere_system()

    def test_generate_random_is_seeded(self, capsys):
        assert main(["generate", "random", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "random", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_generate_unwritable_output_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.fct")
        assert main(["generate", "deformed", "-o", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_generate_bad_sphere_dimension_exits_2(self, n, capsys):
        assert main(["generate", "sphere", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: sphere dimension must be >= 1, got {n}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "option, error",
        [
            ("--max-points=1", "error: need room for at least 2 points\n"),
            ("--max-index=0", "error: need at least two index values\n"),
        ],
    )
    def test_generate_random_without_room_exits_2(self, option, error, capsys):
        assert main(["generate", "random", "--seed", "0", option]) == 2
        assert capsys.readouterr() == ("", error)

    def test_generate_random_giving_up_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(flowcat.generators, "_ATTEMPTS", 0)
        assert main(["generate", "random", "--seed", "3"]) == 2
        assert capsys.readouterr() == ("", "error: no valid random system found for seed 3\n")

    def test_failing_check_exits_1(self, deformed_file, deformed_tower, monkeypatch, capsys):
        # The source of the max interval end rerouted to the base point z.
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        z = find_cell(deformed_tower, 0, "z")
        report = fc.check_all(fc.GlobularSet(deformed_tower).with_source(end, z))
        assert not report.ok
        monkeypatch.setattr(flowcat.cli, "check_all", lambda tower: report)
        assert main(["check", deformed_file]) == 1
        out = capsys.readouterr()
        assert out.out == report.to_text() + "\nlaws FAILED\n"
        assert out.err == ""

    def test_negative_declared_dimension_exits_2(self, tmp_path, capsys):
        text = "[critical]\nx 1\ny 0\n[moduli x y]\ncomponent c0 shape Declared -1\n"
        path = _write(tmp_path, "negative.ft", text)
        assert main(["check", path]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: {path}: line 5: declared_shape(-1): dimension must be >= 0\n",
        )

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_build_bad_max_level_exits_2(self, level, deformed_file, capsys):
        assert main(["build", deformed_file, "--max-level", level]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: max_level must be >= 1, got {level}\n"
        assert captured.out == ""

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.ft", "[critical]\nw 0\nw 1\n")
        assert main(["check", bad]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_invalid_system_exits_2(self, tmp_path, capsys):
        text = (
            "[critical]\nx 2\nm 1\ny 0\n\n"
            "[moduli x m]\ncomponent c0 shape Point\n\n"
            "[moduli m y]\ncomponent c0 shape Point\n"
        )
        bad = _write(tmp_path, "invalid.ft", text)
        assert main(["build", bad]) == 2
        assert "missing-space" in capsys.readouterr().err

    def test_unknown_moduli_point_exits_2(self, tmp_path, capsys):
        text = "[critical]\nx 1\ny 0\n\n[moduli x q]\ncomponent c0 shape Point\n"
        bad = _write(tmp_path, "unknown.ft", text)
        assert main(["check", bad]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_missing_declaration_exits_3(self, tmp_path, capsys):
        fs, _ = fc.sphere_system(2)
        undeclared = _write(tmp_path, "s2-bare.ft", fc.render_tower_file(fs))
        assert main(["check", undeclared]) == 3
        assert "declaration" in capsys.readouterr().err

    def test_pair_without_a_rule_exits_3(self, tmp_path, capsys):
        # A declared component has no forced rule between its points.
        text = (
            "[critical]\nN 2\nS 0\n\n[moduli N S]\ncomponent c0 shape Declared 1\n\n"
            "[declare M(N>S)]\ncritical a index 1 component c0\n"
            "critical b index 0 component c0\n"
        )
        assert main(["check", _write(tmp_path, "no-rule.ft", text)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: component 'c0' of M(N>S) needs a declaration: no forced rule for "
            "flow from a to b; declare its components"
        ]

    @pytest.mark.parametrize(
        "text, error",
        [
            (
                "[critical]\nN 2\nS 0\n\n[moduli N S]\ncomponent c0 shape Circle\n\n"
                "[declare M(N>S)]\ncritical hi1 index 0 component c0\n"
                "critical lo1 index 0 component c0\n",
                "error: component 'c0' of M(N>S): a closed shape of dimension 1 needs "
                "exactly two points with indices 1 and 0, got [('hi1', 0), ('lo1', 0)]",
            ),
            (
                "[critical]\nN 2\nS 0\n\n[moduli N S]\ncomponent c0 shape Declared 1\n\n"
                "[declare M(N>S)]\ncritical p index 2 component c0\n",
                "error: declared point 'p' of 'c0' of M(N>S): index 2 outside 0..1",
            ),
        ],
        ids=["closed-shape-indices", "index-above-dimension"],
    )
    def test_bad_declared_points_exit_2(self, tmp_path, capsys, text, error):
        assert main(["check", _write(tmp_path, "points.ft", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [error]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.ft")]) == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["cells"], ["export-dot"], ["compose", "--p", "0", "--after", "a", "--first", "b"]],
        ids=lambda argv: argv[0],
    )
    def test_missing_file_exits_2_in_every_reader(self, command, tmp_path, capsys):
        missing = str(tmp_path / "nope.ft")
        assert main([command[0], missing, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {missing}: ")
        assert captured.err.count("\n") == 1

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.ft"
        path.write_bytes(b"[critical]\nx\xe9 1\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_cli_module_as_a_script_exits_2(self, tmp_path):
        missing = str(tmp_path / "missing.fct")
        proc = _run_cli("check", missing, module="flowcat.cli", capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: flowcat.cli is not a command; run python -m flowcat\n"

    def test_import_leaves_the_command_line_out(self):
        # flowcat.cli loads on first use, and neither it nor the library
        # needs argparse.
        proc = _run_python(
            "import sys, flowcat\n"
            "assert 'flowcat.cli' not in sys.modules and 'argparse' not in sys.modules\n"
            "assert callable(flowcat.cli.main) and flowcat.cli.build_tower\n"
            "assert 'flowcat.cli' in sys.modules and 'argparse' not in sys.modules\n"
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_byte_order_mark_is_skipped(self, tmp_path, deformed_file, capsys):
        # Also with CRLF line ends, with and without the mark.
        lf = Path(deformed_file).read_bytes()
        assert b"\r" not in lf
        variants = {"lf": lf, "bom": b"\xef\xbb\xbf" + lf, "crlf": lf.replace(b"\n", b"\r\n")}
        variants["bom-crlf"] = b"\xef\xbb\xbf" + variants["crlf"]
        for command in ("check", "build"):
            seen = {}
            for name, data in variants.items():
                path = tmp_path / f"{name}.ft"
                path.write_bytes(data)
                seen[name] = (main([command, str(path)]), capsys.readouterr())
            assert seen["lf"][0] == 0
            assert all(got == seen["lf"] for got in seen.values()), command


_CIRCLES = """\
[critical]
N 3
S 0

[moduli N S]
component c0 shape SphereLike 2

[declare M(N>S)]
critical hi1 index 2 component c0
critical lo1 index 0 component c0
moduli hi1 lo1 component 0 shape Circle
moduli hi1 lo1 component 1 shape Circle

[declare M(hi1>lo1|N>S)]
critical p0 index 1 component 0
critical q0 index 0 component 0
critical p1 index 1 component 1
critical q1 index 0 component 1
"""


class TestDeclaredModuli:
    """``moduli`` lines inside ``[declare]``: parsed, rendered, built, checked."""

    def test_render_and_parse_round_trip(self):
        fs, decls = fc.parse_tower_file(_CIRCLES)
        ((s, t, comps),) = decls.get("M(N>S)", "c0").moduli
        assert (s, t, comps) == (
            "hi1",
            "lo1",
            (fc.Component("0", fc.CIRCLE), fc.Component("1", fc.CIRCLE)),
        )
        assert fc.parse_tower_file(fc.render_tower_file(fs, decls)) == (fs, decls)

    def test_a_point_of_a_later_component_is_refused_where_named(self):
        # The moduli line of c0 names b, a point of c1: no flow runs between
        # components, so the parser refuses the line and names both.
        text = (
            "[critical]\nN 2\nS 0\n\n[moduli N S]\ncomponent c0 shape Circle\n"
            "component c1 shape Circle\n\n[declare M(N>S)]\n"
            "critical a index 1 component c0\ncritical b index 0 component c1\n"
            "moduli a b component 0 shape Point\n"
        )
        with pytest.raises(fc.ParseError) as err:
            fc.parse_tower_file(text)
        assert str(err.value) == (
            "line 12: 'a' is a point of component 'c0' and 'b' of component 'c1': "
            "no flow runs between components"
        )

    def test_declared_circles_build_and_check(self, tmp_path, capsys):
        tower = fc.build_tower(*fc.parse_tower_file(_CIRCLES))
        (space,) = tower.spaces(1)
        assert [(a, b, [(c.id, c.shape) for c in comps]) for a, b, comps in space.derived] == [
            ("hi1", "lo1", [("0", fc.CIRCLE), ("1", fc.CIRCLE)]),
        ]
        assert main(["check", _write(tmp_path, "circles.ft", _CIRCLES)]) == 0
        assert capsys.readouterr().out.endswith("all laws hold (150 instances)\n")

    def test_wrong_dimension_exits_2(self, tmp_path, capsys):
        # A circle between points of index 1 and 0, where the space has dimension 0.
        text = (
            "[critical]\nN 2\nS 0\n\n[moduli N S]\ncomponent c0 shape Circle\n\n"
            "[declare M(N>S)]\ncritical hi1 index 1 component c0\n"
            "critical lo1 index 0 component c0\n"
            "moduli hi1 lo1 component 0 shape Circle\n"
        )
        assert main(["check", _write(tmp_path, "bad.ft", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid declarations of component 'c0' of M(N>S):\n"
            "[dimension] component '0' of (hi1,lo1) has dimension 1, but index "
            "difference gives 0\n"
        )

    @pytest.mark.parametrize(
        "text, error",
        [
            (
                _CIRCLES.replace("moduli hi1 lo1 component 1", "moduli lo1 hi1 component 1"),
                [
                    "error: invalid declarations of component 'c0' of M(N>S):",
                    "[index-order] flow from 'lo1' (index 0) to 'hi1' (index 2) must "
                    "strictly drop index",
                ],
            ),
            (
                _CIRCLES + "moduli p0 q1 component 0 shape Point\n",
                [
                    "error: {path}: line 19: 'p0' is a point of component '0' and "
                    "'q1' of component '1': no flow runs between components",
                ],
            ),
        ],
        ids=["against-index-order", "across-components"],
    )
    def test_moduli_line_the_build_never_reads_exits_2(self, tmp_path, capsys, text, error):
        # Without the check, both files exit 0: the first with 82 instances,
        # the second with the 150 of _CIRCLES, the line ignored.
        path = _write(tmp_path, "unread.ft", text)
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line.replace("{path}", path) for line in error]

    @pytest.mark.parametrize(
        "text, error",
        [
            (
                "[critical]\nN 2\nS 0\n\n[moduli N S]\ncomponent c0 shape Circle\n\n"
                "[declare M(N>S)]\ncritical a>b index 1 component c0\n"
                "critical (x,y) index 0 component c0\n",
                [
                    "error: invalid declarations of component 'c0' of M(N>S):",
                    "[bad-id] critical point id 'a>b' has characters outside "
                    "[A-Za-z0-9_.+-]",
                    "[bad-id] critical point id '(x,y)' has characters outside "
                    "[A-Za-z0-9_.+-]",
                ],
            ),
            (
                "[critical]\nN 2\nS 0\n\n[moduli N S]\ncomponent c0 shape Declared 1\n\n"
                "[declare M(N>S)]\ncritical a index 1 component c0\n"
                "critical b index 0 component c0\n"
                "moduli a b component 0 shape Point\nmoduli a b component 0 shape Point\n",
                [
                    "error: invalid declarations of component 'c0' of M(N>S):",
                    "[dup-component] pair (a,b): duplicate component id '0'",
                ],
            ),
        ],
        ids=["bad-id", "dup-component"],
    )
    def test_declarations_breaking_a_flow_data_rule_exit_2(self, tmp_path, capsys, text, error):
        # Without the rules, both files exit 0: the first builds the space
        # M(a>b>(x,y)|N>S), whose ends its key cannot give back, the second
        # two level-2 cells printed a/b:0 and two level-3 spaces of one key.
        assert main(["check", _write(tmp_path, "rules.ft", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == error

    @pytest.mark.parametrize(
        "text, unread",
        [
            (
                _CIRCLES + "\n[declare M(hi9>lo1|N>S)]\ncritical yy index 0 component 0\n",
                "component '0' of M(hi9>lo1|N>S)",
            ),
            (
                _CIRCLES + "critical yy index 0 component 7\n",
                "component '7' of M(hi1>lo1|N>S)",
            ),
            (
                "[critical]\nN 2\nS 0\n\n[moduli N S]\ncomponent c0 shape Circle\n\n"
                "[declare M(N>S)]\ncritical a index 1 component c0\n"
                "critical b index 0 component c0\n\n"
                "[declare M(a>b|N>S)]\ncritical pp index 0 component 0\n",
                "component '0' of M(a>b|N>S)",
            ),
        ],
        ids=["missing-space", "missing-component", "point-component"],
    )
    def test_declaration_the_build_never_reads_exits_2(self, tmp_path, capsys, text, unread):
        # Without the check, these exit 0 with 150, 150 and 56 instances.
        path = _write(tmp_path, "unread.ft", text)
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: declarations the build never reads: {unread}"
        ]
        # Each entry names a level-2 space, which a level-1 build does not make.
        assert main(["build", path, "--max-level", "1"]) == 0

    def test_truncated_build_refuses_entries_on_spaces_it_made(self):
        fs, decls = fc.parse_tower_file(_CIRCLES)
        decls = fc.Declarations(decls.entries + (("M(N>S)", "c9", fc.ComponentDecl()),))
        with pytest.raises(fc.BuildError, match=r"never reads: component 'c9' of M\(N>S\)$"):
            fc.build_tower(fs, decls, max_level=1)

    @pytest.mark.parametrize("ends", ["hi2 lo1", "hi1 lo2"])
    def test_undeclared_point_is_a_parse_error(self, ends):
        text = _CIRCLES.replace("moduli hi1 lo1 component 1", f"moduli {ends} component 1")
        with pytest.raises(fc.ParseError) as err:
            fc.parse_tower_file(text)
        assert str(err.value).startswith("line 12:")
        undeclared = next(name for name in ends.split() if name.endswith("2"))
        assert f"{undeclared!r} is not a declared point" in str(err.value)


class TestEmptyModuliSection:
    """A ``[moduli x y]`` section with no component lines is a pair without
    components, which the validator, the heights and the build all skip, in
    either direction of the flow."""

    @pytest.mark.parametrize("section", ["[moduli x v]", "[moduli v x]"])
    def test_the_file_reads_as_without_it(self, section, tmp_path, deformed_fs, capsys):
        # v is an extra base point of index 0 that no pair joins.
        text = fc.render_tower_file(deformed_fs).replace("[critical]\n", "[critical]\nv 0\n")
        plain = _write(tmp_path, "plain.ft", text)
        empty = _write(tmp_path, "empty.ft", f"{text}\n{section}\n")
        for argv in (["check"], ["build"], ["cells"], ["export-dot", "--level", "2"]):
            outputs = []
            for path in (plain, empty):
                assert main([argv[0], path, *argv[1:]]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1]
            assert outputs[0].err == ""
        assert outputs[0].out.startswith("digraph")

        fs, decls = fc.parse_tower_file(Path(empty).read_text())
        fs0, _ = fc.parse_tower_file(text)
        s, t = section[len("[moduli ") : -1].split()
        assert (s, t, ()) in fs.pairs and (s, t) not in fs.table
        assert fs.points == fs0.points
        assert fc.validate_flow_system(fs) == ()
        assert fc.build_tower(fs, decls).levels == fc.build_tower(fs0).levels
        # The section renders back: rendering inverts parsing.
        rendered = fc.render_tower_file(fs, decls)
        assert f"\n{section}\n\n" in rendered
        assert fc.parse_tower_file(rendered) == (fs, decls)


class TestSubcommands:
    @pytest.mark.parametrize(
        "argv",
        [["cells", "--level", "9"], ["export-dot", "--level", "0"]],
    )
    def test_level_out_of_range_exits_2(self, argv, deformed_file, capsys):
        assert main([argv[0], deformed_file, *argv[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: level ")

    def test_cells_one_level(self, deformed_file, capsys):
        assert main(["cells", deformed_file, "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert "x/y:c0 @ M(x>y)" in out
        assert "(x/y:c0,y/w:a) @ M(x>w)" in out

    def test_cells_all_levels_include_identities(self, deformed_file, capsys):
        assert main(["cells", deformed_file]) == 0
        out = capsys.readouterr().out
        assert "w" in out.splitlines()[1:][0] or "w" in out
        assert "1(w) @ M(w>w)" in out

    def test_cells_lists_each_cell_once(self, deformed_file, capsys):
        # A stationary tower cell is also the identity of the cell below it;
        # listed both ways, 1(1(x/y:c0)) printed three times at level 3.
        assert main(["cells", deformed_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(set(lines)) == 44
        assert "3: 1(1(x/y:c0)) @ M(1(x/y:c0)>1(x/y:c0)|x/y:c0>x/y:c0;x>y)" in lines

    def test_compose_reports_raw_and_normal(self, deformed_file, capsys):
        assert (
            main(
                [
                    "compose",
                    deformed_file,
                    "--p",
                    "0",
                    "--after",
                    "y/w:a @ M(y>w)",
                    "--first",
                    "x/y:c0 @ M(x>y)",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "raw:    (x/y:c0,y/w:a) @ M(x>w)" in out
        assert "normal: (x/y:c0,y/w:a) @ M(x>w)" in out

    def test_compose_rejects_non_composable_with_1(self, deformed_file, capsys):
        assert (
            main(
                [
                    "compose",
                    deformed_file,
                    "--p",
                    "0",
                    "--after",
                    "x/y:c0 @ M(x>y)",
                    "--first",
                    "y/w:a @ M(y>w)",
                ]
            )
            == 1
        )
        assert "not composable" in capsys.readouterr().err

    def test_compose_unknown_cell_exits_2(self, deformed_file, capsys):
        assert (
            main(
                [
                    "compose",
                    deformed_file,
                    "--p",
                    "0",
                    "--after",
                    "nope",
                    "--first",
                    "x/y:c0 @ M(x>y)",
                ]
            )
            == 2
        )
        assert "no cell" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["-1", "5"])
    def test_compose_p_out_of_range_exits_2(self, deformed_file, capsys, p):
        argv = ["compose", deformed_file, "--p", p]
        argv += ["--after", "y/w:a @ M(y>w)", "--first", "x/y:c0 @ M(x>y)"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --p {p} out of range 0..0 for level-1 cells\n"

    def test_compose_level_0_cells_exits_2(self, deformed_file, capsys):
        argv = ["compose", deformed_file, "--p", "0", "--after", "x", "--first", "x"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: level-0 cells do not compose: they have no boundary to glue along\n"
        )

    def test_compose_cells_of_different_levels_exits_2(self, deformed_file, capsys):
        after = "1(y/w:a) @ M(y/w:a>y/w:a|y>w)"
        argv = ["compose", deformed_file, "--p", "0", "--after", after]
        assert main(argv + ["--first", "x/y:c0 @ M(x>y)"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"error: cells of different levels do not glue: {after} is a "
            "level-2 cell and x/y:c0 @ M(x>y) a level-1 cell\n"
        )

    def test_export_dot(self, deformed_file, capsys):
        assert main(["export-dot", deformed_file, "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"x" -> "y"' in out or '"x" -> "w"' in out

    def test_build_lists_every_level(self, deformed_file, capsys):
        assert main(["build", deformed_file]) == 0
        out = capsys.readouterr().out
        for key in ("M(x>w)", "M((x/y:c0,y/w:a)>(x/y:c0,y/w:b)|x>w)"):
            assert key in out

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_cli(
    *args: str, hash_seed: str = "0", module: str = "flowcat", **kwargs
) -> subprocess.CompletedProcess:
    """``python -m <module> <args>`` in a child process over this checkout's sources."""

    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": _SRC}
    return subprocess.run(
        [sys.executable, "-m", module, *args], env=env, timeout=120, **kwargs
    )


def _run_python(code: str) -> subprocess.CompletedProcess:
    """``python -c <code>`` in a fresh interpreter over this checkout's sources."""

    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestInProcess:
    """``main`` called again and again in one process, as the benchmark does."""

    def _alone(self, *args: str) -> subprocess.CompletedProcess:
        return _run_cli(*args, capture_output=True, text=True)

    def test_check_loads_no_argparse(self, deformed_file):
        # The command table is read with getopt: a check builds no argparse
        # parser, nor loads the locale module or the utf-8-sig codec.
        proc = _run_python(
            "import io, sys, contextlib\n"
            "from flowcat.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['check', {deformed_file!r}]) == 0\n"
            "for name in ('argparse', 'locale', 'encodings.utf_8_sig'):\n"
            "    assert name not in sys.modules, name\n"
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_start_loads_no_dataclass_machinery(self, deformed_file):
        # The node and record types are built without dataclasses, which
        # would pull in inspect, and the first check or build of a process
        # imports nothing on top of the command line.
        proc = _run_python(
            "import io, sys, contextlib\n"
            "import flowcat.cli\n"
            "assert not {'dataclasses', 'inspect'} & set(sys.modules)\n"
            "for command in ('check', 'build'):\n"
            "    before = set(sys.modules)\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert flowcat.cli.main([command, {deformed_file!r}]) == 0\n"
            "    assert set(sys.modules) == before, (command, set(sys.modules) - before)\n"
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_options_do_not_carry_over(self, deformed_file, capsys):
        assert main(["build", deformed_file, "--max-level", "1"]) == 0
        assert "truncated at level 1" in capsys.readouterr().out
        assert main(["build", deformed_file]) == 0
        alone = self._alone("build", deformed_file)
        assert alone.returncode == 0
        assert capsys.readouterr().out == alone.stdout

    def test_alternating_files_each_get_their_own_report(self, tmp_path, deformed_file, capsys):
        sphere = _write(tmp_path, "s2.ft", fc.render_tower_file(*fc.sphere_system(2)))
        expected = {path: self._alone("check", path).stdout for path in (deformed_file, sphere)}
        assert expected[deformed_file] != expected[sphere]
        for path in (deformed_file, sphere, deformed_file, sphere):
            assert main(["check", path]) == 0
            assert capsys.readouterr().out == expected[path]

    @pytest.mark.parametrize(
        "argv", [[], ["check"], ["build", "{file}", "--max-level", "x"]],
        ids=["no-command", "no-file", "bad-int"],
    )
    def test_usage_errors_after_reuse(self, argv, deformed_file, capsys):
        argv = [a.format(file=deformed_file) for a in argv]
        alone = self._alone(*argv)
        assert alone.returncode == 2
        assert alone.stderr.startswith("usage: flowcat")
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert capsys.readouterr() == ("", alone.stderr)
        # The text goes to the stream that is sys.stderr at the time of the call.
        late = io.StringIO()
        with contextlib.redirect_stderr(late), pytest.raises(SystemExit):
            main(argv)
        assert late.getvalue() == alone.stderr
        assert capsys.readouterr() == ("", "")

    def test_help_is_the_same_every_time(self, capsys):
        alone = self._alone("--help")
        assert alone.returncode == 0
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["--help"])
            assert err.value.code == 0
            assert capsys.readouterr() == (alone.stdout, "")


# Every command and the flags of its options, as --help must name them.
_OPTIONS = {
    "generate sphere": ["--n", "-o", "--out"],
    "generate deformed": ["-o", "--out"],
    "generate random": ["--seed", "--max-points", "--max-index", "-o", "--out"],
    "build": ["--max-level"],
    "check": [],
    "cells": ["--level"],
    "compose": ["--p", "--after", "--first"],
    "export-dot": ["--level"],
}


class TestCommandLine:
    """How ``main`` reads a command line: usage errors, spellings, help."""

    def _call(self, argv: list[str], capsys) -> tuple[int, str, str]:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            ([], "missing command"),
            (["bogus"], "unknown command 'bogus'"),
            (["generate"], "missing command"),
            (["generate", "cube"], "unknown command 'generate cube'"),
            (["check", "{file}", "--bogus"], "--bogus not recognized"),
            (["generate", "sphere"], "required: --n"),
            (["compose", "{file}", "--p", "0"], "required: --after, --first"),
            (["build", "{file}", "--max-level", "x"], "--max-level: invalid int value: 'x'"),
            (["check"], "required: file"),
            (["check", "{file}", "{file}"], "unrecognized arguments: {file}"),
            (["cells", "{file}", "--level"], "--level requires argument"),
            (["generate", "deformed", "-o"], "-o requires argument"),
            (["generate", "random", "--seed", "0", "--max-", "3"], "--max- not a unique prefix"),
        ],
        ids=[
            "no-command", "unknown-command", "generate-no-kind", "unknown-kind",
            "unknown-option", "missing-required", "missing-required-two", "non-int",
            "missing-positional", "extra-positional", "no-value", "no-value-short",
            "ambiguous-prefix",
        ],
    )
    def test_usage_error(self, argv, needle, deformed_file, capsys):
        argv = [a.format(file=deformed_file) for a in argv]
        code, out, err = self._call(argv, capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert lines[0].startswith("usage: flowcat")
        errors = [line for line in lines if line.startswith("flowcat: error:")]
        assert len(errors) == 1
        assert needle.format(file=deformed_file) in errors[0]

    @pytest.mark.parametrize(
        "spelled, canonical",
        [
            (
                ["generate", "random", "--seed", "0", "--max-points=1"],
                ["generate", "random", "--seed", "0", "--max-points", "1"],
            ),
            (
                ["generate", "random", "--seed=3", "--max-points=4"],
                ["generate", "random", "--seed", "3", "--max-points", "4"],
            ),
            (["generate", "deformed", "-o", "{out}"], ["generate", "deformed", "--out", "{out}"]),
            (["generate", "deformed", "-o{out}"], ["generate", "deformed", "--out={out}"]),
            (["build", "--max-level", "1", "{file}"], ["build", "{file}", "--max-level", "1"]),
            (["build", "{file}", "--max-level", "-1"], ["build", "{file}", "--max-level=-1"]),
            (["build", "{file}", "--max-l", "1"], ["build", "{file}", "--max-level", "1"]),
            (["cells", "--level=1", "{file}"], ["cells", "{file}", "--level", "1"]),
            (
                ["compose", "--p", "0", "--first", "x", "--after", "y", "{file}"],
                ["compose", "{file}", "--p", "0", "--after", "y", "--first", "x"],
            ),
            (["check", "--", "{file}"], ["check", "{file}"]),
        ],
        ids=[
            "equals", "equals-valid", "short-out", "attached-value", "options-first",
            "negative-value", "unique-prefix", "equals-first", "compose-reordered",
            "double-dash",
        ],
    )
    def test_accepted_spelling(self, spelled, canonical, tmp_path, deformed_file, capsys):
        out = tmp_path / "out.fct"
        results = []
        for argv in (canonical, spelled):
            out.unlink(missing_ok=True)
            argv = [a.format(file=deformed_file, out=out) for a in argv]
            code_and_text = self._call(argv, capsys)
            results.append((code_and_text, out.read_text() if out.exists() else None))
        assert results[0] == results[1]

    @pytest.mark.parametrize("command", [None, "generate", *_OPTIONS])
    def test_help(self, command, capsys):
        argv = [*command.split(), "--help"] if command else ["--help"]
        code, out, err = self._call(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: flowcat")
        if command in _OPTIONS:
            names = ["-h", "--help", *_OPTIONS[command]]
        else:
            names = [k for k in _OPTIONS if k.startswith(command or "")]
        for name in names:
            assert name in out
        assert self._call([*argv[:-1], "-h"], capsys) == (code, out, err)


def test_python_dash_m_flowcat_checks_a_file(deformed_file):
    proc = _run_cli("check", deformed_file, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "all laws hold (250 instances)"


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["cells", "check"])
    def test_closed_stdout_exits_141_without_a_traceback(self, command, deformed_file):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _run_cli(command, deformed_file, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert proc.returncode == 141
        assert proc.stderr == b""


# Generated systems: spheres, the deformed sphere and small random draws.
_systems = st.one_of(
    st.integers(min_value=1, max_value=3).map(fc.sphere_system),
    st.just((fc.deformed_sphere_system(), fc.Declarations())),
    st.builds(
        lambda seed, points, index: (fc.random_system(seed, points, index), fc.Declarations()),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=3),
    ),
)


class TestDeterminism:
    def _check(self, path: str, hash_seed: str) -> bytes:
        proc = _run_cli("check", path, hash_seed=hash_seed, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    @pytest.mark.parametrize("name", ["deformed", "sphere4"])
    def test_check_output_does_not_depend_on_the_process(self, tmp_path, name):
        # Nodes hash by identity, so hashes differ from process to process.
        if name == "deformed":
            text = fc.render_tower_file(fc.deformed_sphere_system())
        else:
            text = fc.render_tower_file(*fc.sphere_system(4))
        path = _write(tmp_path, f"{name}.ft", text)
        first = self._check(path, "0")
        assert b"PASS" in first
        assert self._check(path, "1") == first

    @settings(max_examples=4, deadline=None)
    @given(system=_systems)
    def test_drawn_systems_check_alike_under_two_hash_seeds(self, tmp_path_factory, system):
        path = _write(tmp_path_factory.mktemp("drawn"), "drawn.ft", fc.render_tower_file(*system))
        assert self._check(path, "0") == self._check(path, "1")


# Words of the file format, spliced into lines by the mutations below.
_WORDS = (
    "[critical]", "[moduli", "[declare", "]", "component", "shape",
    "endpoints", "critical", "index", "moduli", "Point", "Interval", "Circle",
    "SphereLike", "Declared", "c0", "c1", "x", "N", "S", "M(N>S)", "(c0@N>S)",
    "(c0@x>y,a@y>w)", "#", "-1", "0", "1", "2", "3",
)
_words = st.sampled_from(_WORDS)
_lines = st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)


@st.composite
def _mutated_text(draw) -> str:
    """A rendered system with a few lines deleted, copied, swapped or edited."""

    lines = fc.render_tower_file(*draw(_systems)).splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        op = draw(st.sampled_from(("delete", "copy", "swap", "word", "line")))
        if op == "delete":
            del lines[i]
        elif op == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap":
            j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "word":
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(_words)
            lines[i] = " ".join(words)
        else:
            lines[i] = draw(_lines)
    return "\n".join(lines) + "\n"


class TestProperties:
    EXIT_CODES = {0, 1, 2, 3}

    def _check(self, directory, data: bytes) -> int:
        path = directory / "fuzz.ft"
        path.write_bytes(data)
        return main(["check", str(path)])

    @settings(max_examples=60, deadline=None)
    @given(text=_mutated_text())
    def test_mutated_text_only_exits_with_a_documented_code(self, tmp_path_factory, text):
        directory = tmp_path_factory.getbasetemp()
        assert self._check(directory, text.encode("utf-8")) in self.EXIT_CODES

    @settings(max_examples=60, deadline=None)
    @given(text=_mutated_text())
    def test_mutated_text_never_fails_a_law(self, tmp_path_factory, text):
        # Whatever builds is an almost-strict n-category: a mutated file is
        # refused (2 or 3) or checks clean, and never exits 1.
        directory = tmp_path_factory.getbasetemp()
        assert self._check(directory, text.encode("utf-8")) in {0, 2, 3}

    @settings(max_examples=60, deadline=None)
    @given(data=st.one_of(
        st.lists(st.one_of(_words, _lines), max_size=30).map(" ".join),
        st.lists(st.one_of(_words, _lines), max_size=30).map("\n".join),
    ).map(lambda text: text.encode("utf-8")) | st.binary(max_size=64))
    def test_arbitrary_text_only_exits_with_a_documented_code(self, tmp_path_factory, data):
        directory = tmp_path_factory.getbasetemp()
        assert self._check(directory, data) in self.EXIT_CODES

    @settings(max_examples=40, deadline=None)
    @given(system=_systems)
    def test_parse_inverts_render(self, system):
        fs, decls = system
        assert fc.parse_tower_file(fc.render_tower_file(fs, decls)) == (fs, decls)
