"""The ``flowcat`` command line: build, check and inspect tower files.

The file format lives in :mod:`flowcat.towerfile`.

Exit codes: 0 success, 1 failed law check or failed composition,
2 unreadable/invalid input, an unwritable ``-o`` file or a usage error,
3 missing declaration, 141 (128 + SIGPIPE) stdout closed by its reader
before the output was written.

``main(argv)`` reads each command line with ``getopt`` by the command
table ``_COMMANDS``, which also gives ``--help`` (``SystemExit(0)``) and
the ``usage:`` line and one ``flowcat: error:`` line of a usage error
(``SystemExit(2)``).  No call builds a parser, so ``main`` may be called
many times in one process.  ``python -m flowcat`` runs ``main`` too;
``python -m flowcat.cli`` runs nothing and exits 2 with one ``error:`` line.
"""

from __future__ import annotations

import getopt
import os
import sys
from types import SimpleNamespace
from typing import NoReturn

from .category import GlobularSet, extended_cells, normalize
from .core import Cell, cell_key, point_key
from .axioms import check_all
from .generators import deformed_sphere_system, random_system, sphere_system
from .stratification import FlowSystem
from .tower import Declarations, MissingDeclarationError, Tower, build_tower
from .towerfile import ParseError, parse_tower_file, render_tower_file

__all__ = ["main"]


def _read(path: str) -> tuple[FlowSystem, Declarations] | int:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 2
    try:
        return parse_tower_file(text.removeprefix("\ufeff"))
    except ParseError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return 2


def _build(
    fs: FlowSystem, decls: Declarations, max_level: int | None = None
) -> Tower | int:
    try:
        return build_tower(fs, decls, max_level=max_level)
    except MissingDeclarationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # An invalid flow system, a failed build or a bad max_level.
        print(f"error: {e}", file=sys.stderr)
        return 2


def _load_tower(path: str, max_level: int | None = None) -> Tower | int:
    loaded = _read(path)
    if isinstance(loaded, int):
        return loaded
    return _build(*loaded, max_level=max_level)


def _cmd_generate(args) -> int:
    try:
        if args.kind == "sphere":
            fs, decls = sphere_system(args.n)
        elif args.kind == "deformed":
            fs, decls = deformed_sphere_system(), Declarations()
        else:
            fs = random_system(args.seed, args.max_points, args.max_index)
            decls = Declarations()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = render_tower_file(fs, decls)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        print(text, end="")
    return 0


def _cmd_build(args) -> int:
    tower = _load_tower(args.file, max_level=args.max_level)
    if isinstance(tower, int):
        return tower
    state = "complete" if tower.complete else f"truncated at level {tower.max_level}"
    print(f"tower with {tower.max_level} levels ({state})")
    for level in range(1, tower.max_level + 1):
        spaces = tower.spaces(level)
        ncells = sum(len(sp.morse) for sp in spaces)
        print(f"level {level}: {len(spaces)} spaces, {ncells} cells")
        for sp in spaces:
            pts = ", ".join(point_key(e.point) for e in sp.morse)
            print(f"  {sp.key}: {pts}")
    return 0


def _cmd_check(args) -> int:
    tower = _load_tower(args.file)
    if isinstance(tower, int):
        return tower
    report = check_all(tower)
    print(report.to_text())
    if report.ok:
        print(f"all laws hold ({report.instances} instances)")
        return 0
    print("laws FAILED")
    return 1


def _cmd_cells(args) -> int:
    tower = _load_tower(args.file)
    if isinstance(tower, int):
        return tower
    levels = [args.level] if args.level is not None else list(range(tower.max_level + 1))
    for level in levels:
        if not 0 <= level <= tower.max_level:
            print(
                f"error: level {level} out of range 0..{tower.max_level}",
                file=sys.stderr,
            )
            return 2
        for c in extended_cells(tower, level):
            print(f"{level}: {cell_key(c)}")
    return 0


def _cell_index(tower: Tower) -> dict[str, Cell]:
    index: dict[str, Cell] = {}
    for level in range(tower.max_level + 1):
        for c in extended_cells(tower, level):
            index.setdefault(cell_key(c), c)
            index.setdefault(cell_key(normalize(c)), c)
    return index


def _cmd_compose(args) -> int:
    tower = _load_tower(args.file)
    if isinstance(tower, int):
        return tower
    index = _cell_index(tower)
    missing = [k for k in (args.after, args.first) if k not in index]
    if missing:
        for k in missing:
            print(f"error: no cell {k!r}", file=sys.stderr)
        return 2
    after, first = index[args.after], index[args.first]
    X = GlobularSet(tower)
    try:
        glued = X.compose(args.p, after, first)
    except ValueError as e:
        level = after.level
        if first.level != level or level == 0:
            message = str(e)
        elif not 0 <= args.p < level:
            message = f"--p {args.p} out of range 0..{level - 1} for level-{level} cells"
        else:
            print(f"not composable: {e}", file=sys.stderr)
            return 1
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(f"after:  {cell_key(after)}")
    print(f"first:  {cell_key(first)}")
    print(f"raw:    {cell_key(glued)}")
    print(f"normal: {cell_key(normalize(glued))}")
    return 0


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_export_dot(args) -> int:
    tower = _load_tower(args.file)
    if isinstance(tower, int):
        return tower
    level = args.level
    if not 1 <= level <= tower.max_level:
        print(f"error: level {level} out of range 1..{tower.max_level}", file=sys.stderr)
        return 2
    X = GlobularSet(tower)
    lines = ["digraph tower {", "  rankdir=LR;"]
    for node in X.cells(level - 1):
        lines.append(f"  {_dot_quote(cell_key(node))};")
    for c in X.cells(level):
        s, t = cell_key(X.s(c)), cell_key(X.t(c))
        label = point_key(c.top)
        lines.append(
            f"  {_dot_quote(s)} -> {_dot_quote(t)} [label={_dot_quote(label)}];"
        )
    lines.append("}")
    print("\n".join(lines))
    return 0


_OUT = {"-o/--out": (str, None, "write to a file instead of stdout")}

# name: (function, help, positionals, options).  Options map their flags to
# (type, default, help), with a default of ... when the option is required;
# an option sets the attribute its last flag names (--max-level: max_level).
_COMMANDS = {
    "generate sphere": (_cmd_generate, "round n-sphere height flow", (), {
        "--n": (int, ..., "sphere dimension"),
        **_OUT,
    }),
    "generate deformed": (_cmd_generate, "deformed 2-sphere with four critical points", (), _OUT),
    "generate random": (_cmd_generate, "seeded random valid system", (), {
        "--seed": (int, ..., "random seed"),
        "--max-points": (int, 6, "room for this many points"),
        "--max-index": (int, 3, "highest index"),
        **_OUT,
    }),
    "build": (_cmd_build, "build the tower and list its spaces", ("file",), {
        "--max-level": (int, None, "build no level above this"),
    }),
    "check": (_cmd_check, "verify all composition laws", ("file",), {}),
    "cells": (_cmd_cells, "list cells (including identity cells)", ("file",), {
        "--level": (int, None, "list this level only"),
    }),
    "compose": (_cmd_compose, "glue two cells along a shared boundary", ("file",), {
        "--p": (int, ..., "boundary level to glue along"),
        "--after": (str, ..., "cell key of the later cell"),
        "--first": (str, ..., "cell key of the earlier cell"),
    }),
    "export-dot": (_cmd_export_dot, "emit one level as a DOT digraph", ("file",), {
        "--level": (int, 1, "the level to draw"),
    }),
}


def _attr(flags: str) -> str:
    return flags.split("/")[-1][2:].replace("-", "_")


def _usage(name: str) -> str:
    """The command with its positionals and options, optional ones in []."""

    if name not in _COMMANDS:
        return "COMMAND ..."
    parts = [name, *_COMMANDS[name][2]]
    for flags, (_, default, _) in _COMMANDS[name][3].items():
        arg = f"{flags.split('/')[0]} {_attr(flags).upper()}"
        parts.append(arg if default is ... else f"[{arg}]")
    return " ".join(parts)


def _help(name: str, about: str, heading: str, rows: dict[str, str]) -> NoReturn:
    print(f"usage: flowcat {_usage(name)}\n\n{about}\n\n{heading}:")
    for key, text in rows.items():
        print(f"  {key:<19}{text}")
    raise SystemExit(0)


def _fail(name: str, message: str) -> NoReturn:
    print(f"usage: flowcat {_usage(name)}\nflowcat: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command at the front of ``argv`` with its arguments, read by
    ``_COMMANDS``; help and usage errors raise ``SystemExit``."""

    words = 2 if argv[:1] == ["generate"] else 1
    name = " ".join(argv[:words])
    if name not in _COMMANDS:
        if argv[words - 1 : words] in (["-h"], ["--help"]):
            about = "Build flow-line towers and verify their composition laws."
            _help(name, about, "commands", {k: v[1] for k, v in _COMMANDS.items()})
        given = f"unknown command {name!r}" if len(argv) >= words else "missing command"
        _fail(name, f"{given}; choose from {', '.join(_COMMANDS)}")
    func, about, positionals, options = _COMMANDS[name]
    flag_of = {f: flags for flags in options for f in flags.split("/")}
    try:
        opts, rest = getopt.gnu_getopt(
            argv[words:],
            "h" + "".join(f[1] + ":" for f in flag_of if f[1] != "-"),
            ["help"] + [f[2:] + "=" for f in flag_of if f[1] == "-"],
        )
    except getopt.GetoptError as e:
        _fail(name, e.msg)
    values = {flags: spec[1] for flags, spec in options.items()}
    for f, value in opts:
        if f in ("-h", "--help"):
            rows = {k: spec[2] for k, spec in options.items()}
            _help(name, about, "options", {"-h/--help": "show this help and exit", **rows})
        flags = flag_of[f]
        try:
            values[flags] = options[flags][0](value)
        except ValueError:
            _fail(name, f"argument {flags}: invalid int value: {value!r}")
    missing = [*positionals[len(rest) :], *(k for k, v in values.items() if v is ...)]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if len(rest) > len(positionals):
        _fail(name, f"unrecognized arguments: {' '.join(rest[len(positionals) :])}")
    args = SimpleNamespace(
        func=func, **dict(zip(positionals, rest)), **{_attr(k): v for k, v in values.items()}
    )
    if words == 2:
        args.kind = argv[1]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone (``flowcat cells f | head -1``).  Point
        # stdout at the null device, so that the flush at exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    # Run as ``python -m flowcat.cli``: say so instead of exiting 0 unchecked.
    print("error: flowcat.cli is not a command; run python -m flowcat", file=sys.stderr)
    raise SystemExit(2)
